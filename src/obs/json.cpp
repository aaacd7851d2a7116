#include "obs/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "util/error.hpp"

namespace csb {

bool JsonValue::as_bool() const {
  CSB_CHECK_MSG(type_ == Type::kBool, "JSON value is not a bool");
  return bool_;
}

double JsonValue::as_number() const {
  CSB_CHECK_MSG(type_ == Type::kNumber, "JSON value is not a number");
  return number_;
}

std::uint64_t JsonValue::as_u64() const {
  const double value = as_number();
  CSB_CHECK_MSG(value >= 0.0, "JSON number is negative, expected unsigned");
  return static_cast<std::uint64_t>(value);
}

const std::string& JsonValue::as_string() const {
  CSB_CHECK_MSG(type_ == Type::kString, "JSON value is not a string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  CSB_CHECK_MSG(type_ == Type::kArray, "JSON value is not an array");
  return items_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members()
    const {
  CSB_CHECK_MSG(type_ == Type::kObject, "JSON value is not an object");
  return members_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [name, value] : members_) {
    if (name == key) return &value;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* value = find(key);
  CSB_CHECK_MSG(value != nullptr, "missing JSON member '" << key << "'");
  return *value;
}

JsonValue JsonValue::array(std::vector<JsonValue> items) {
  JsonValue v;
  v.type_ = Type::kArray;
  v.items_ = std::move(items);
  return v;
}

JsonValue JsonValue::object(
    std::vector<std::pair<std::string, JsonValue>> members) {
  JsonValue v;
  v.type_ = Type::kObject;
  v.members_ = std::move(members);
  return v;
}

void JsonValue::push_back(JsonValue value) {
  if (type_ == Type::kNull) type_ = Type::kArray;
  CSB_CHECK_MSG(type_ == Type::kArray, "push_back on a non-array JSON value");
  items_.push_back(std::move(value));
}

void JsonValue::set(std::string key, JsonValue value) {
  if (type_ == Type::kNull) type_ = Type::kObject;
  CSB_CHECK_MSG(type_ == Type::kObject, "set on a non-object JSON value");
  members_.emplace_back(std::move(key), std::move(value));
}

void append_json_escaped(std::string& out, std::string_view value) {
  out += '"';
  for (const char ch : value) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  out += '"';
}

std::string json_number(double value) {
  CSB_CHECK_MSG(std::isfinite(value), "JSON cannot represent " << value);
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  CSB_CHECK(ec == std::errc{});
  return std::string(buf, end);
}

std::string JsonValue::dump() const {
  switch (type_) {
    case Type::kNull: return "null";
    case Type::kBool: return bool_ ? "true" : "false";
    case Type::kNumber: return json_number(number_);
    case Type::kString: {
      std::string out;
      append_json_escaped(out, string_);
      return out;
    }
    case Type::kArray: {
      std::string out = "[";
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i != 0) out += ',';
        out += items_[i].dump();
      }
      out += ']';
      return out;
    }
    case Type::kObject: {
      std::string out = "{";
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i != 0) out += ',';
        append_json_escaped(out, members_[i].first);
        out += ':';
        out += members_[i].second.dump();
      }
      out += '}';
      return out;
    }
  }
  return "null";
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse() {
    JsonValue value = parse_value();
    skip_ws();
    if (at_ != text_.size()) fail("trailing characters after the value");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw CsbError("malformed JSON at offset " + std::to_string(at_) + ": " +
                   what);
  }

  void skip_ws() {
    while (at_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[at_]))) {
      ++at_;
    }
  }

  char peek() {
    if (at_ >= text_.size()) fail("unexpected end of input");
    return text_[at_];
  }

  void expect(char ch) {
    if (peek() != ch) fail(std::string("expected '") + ch + "'");
    ++at_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(at_, literal.size()) != literal) return false;
    at_ += literal.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    const char ch = peek();
    if (ch == '{') return parse_object();
    if (ch == '[') return parse_array();
    if (ch == '"') return JsonValue(parse_string());
    if (consume_literal("true")) return JsonValue(true);
    if (consume_literal("false")) return JsonValue(false);
    if (consume_literal("null")) return JsonValue();
    return parse_number();
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (at_ >= text_.size()) fail("unterminated string");
      const char ch = text_[at_++];
      if (ch == '"') return out;
      if (ch != '\\') {
        out += ch;
        continue;
      }
      if (at_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[at_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (at_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char hex = text_[at_++];
            code <<= 4;
            if (hex >= '0' && hex <= '9') code |= hex - '0';
            else if (hex >= 'a' && hex <= 'f') code |= hex - 'a' + 10;
            else if (hex >= 'A' && hex <= 'F') code |= hex - 'A' + 10;
            else fail("bad \\u escape digit");
          }
          // The trace writer only emits \u00xx for control bytes; encode the
          // general case as UTF-8 anyway.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
          } else {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t begin = at_;
    if (at_ < text_.size() && (text_[at_] == '-' || text_[at_] == '+')) ++at_;
    while (at_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[at_])) ||
            text_[at_] == '.' || text_[at_] == 'e' || text_[at_] == 'E' ||
            text_[at_] == '-' || text_[at_] == '+')) {
      ++at_;
    }
    double value = 0.0;
    const auto [end, ec] =
        std::from_chars(text_.data() + begin, text_.data() + at_, value);
    if (ec != std::errc{} || end != text_.data() + at_ || begin == at_) {
      fail("bad number");
    }
    return JsonValue(value);
  }

  JsonValue parse_array() {
    expect('[');
    std::vector<JsonValue> items;
    skip_ws();
    if (peek() == ']') {
      ++at_;
      return JsonValue::array(std::move(items));
    }
    while (true) {
      items.push_back(parse_value());
      skip_ws();
      const char ch = peek();
      ++at_;
      if (ch == ']') return JsonValue::array(std::move(items));
      if (ch != ',') fail("expected ',' or ']'");
    }
  }

  JsonValue parse_object() {
    expect('{');
    std::vector<std::pair<std::string, JsonValue>> members;
    skip_ws();
    if (peek() == '}') {
      ++at_;
      return JsonValue::object(std::move(members));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      members.emplace_back(std::move(key), parse_value());
      skip_ws();
      const char ch = peek();
      ++at_;
      if (ch == '}') return JsonValue::object(std::move(members));
      if (ch != ',') fail("expected ',' or '}'");
    }
  }

  std::string_view text_;
  std::size_t at_ = 0;
};

}  // namespace

JsonValue parse_json(std::string_view text) { return Parser(text).parse(); }

}  // namespace csb
