// One way to reject malformed input: every reader throws bad_input's
// CsbError("bad <kind> <name>: byte|line <n>: <reason>"), naming the
// format, the file (or "<stream>") and where in it the problem is, instead
// of failing an internal check. InputReader counts the bytes of a binary
// stream, LineReader the lines of a text one; open_input, open_output and
// close_output name the file when it cannot be opened or written.
#pragma once

#include <cstdint>
#include <fstream>
#include <istream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace csb {

/// How a reader counts its position: bytes for binary formats, lines for
/// text formats.
enum class InputUnit { kByte, kLine };

/// "<unit> <at>: <reason>", where in the input the problem is and what it
/// is; `csbgen report --check` lists trace problems in this form.
[[nodiscard]] inline std::string input_problem(InputUnit unit,
                                               std::uint64_t at,
                                               std::string_view reason) {
  return (unit == InputUnit::kByte ? "byte " : "line ") + std::to_string(at) +
         ": " + std::string(reason);
}

/// CsbError("bad <kind> <name>: <unit> <at>: <reason>").
[[nodiscard]] inline CsbError bad_input(std::string_view kind,
                                        std::string_view name, InputUnit unit,
                                        std::uint64_t at,
                                        std::string_view reason) {
  return CsbError("bad " + std::string(kind) + " " + std::string(name) + ": " +
                  input_problem(unit, at, reason));
}

/// The file at `path`, open for reading, or CsbError("bad <kind> <path>:
/// cannot open for reading").
inline std::ifstream open_input(std::string_view kind,
                                const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    throw CsbError("bad " + std::string(kind) + " " + path +
                   ": cannot open for reading");
  }
  return in;
}

/// The file at `path`, created or truncated for writing, or
/// cannot_write(kind, path, <errno text>).
inline std::ofstream open_output(std::string_view kind,
                                 const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) throw cannot_write(kind, path, errno_text());
  return out;
}

/// Closes `out`, throwing cannot_write(kind, path, <errno text>) if any
/// write to it failed.
inline void close_output(std::ofstream& out, std::string_view kind,
                         const std::string& path) {
  out.close();
  if (!out) throw cannot_write(kind, path, errno_text());
}

class InputReader {
 public:
  /// `kind` names the format ("seed profile", "binary graph"), `name` the
  /// file (or "<stream>"); both appear in every error.
  InputReader(std::istream& in, std::string kind, std::string name)
      : in_(in), kind_(std::move(kind)), name_(std::move(name)) {}

  [[nodiscard]] std::uint64_t offset() const noexcept { return offset_; }

  /// Bytes between the current offset and the end of the stream, so a
  /// header's sizes can be checked before anything is allocated for them.
  /// Fails when the stream cannot seek.
  std::uint64_t remaining() {
    const std::streampos here = in_.tellg();
    in_.seekg(0, std::ios::end);
    const std::streampos end = in_.tellg();
    in_.seekg(here);
    if (here < 0 || end < here || !in_) {
      fail(offset_, "cannot determine the input size (stream not seekable)");
    }
    return static_cast<std::uint64_t>(end - here);
  }

  template <typename T>
  T read_pod() {
    T value{};
    read_bytes(&value, sizeof value);
    return value;
  }

  /// Reads exactly `bytes` bytes into `out`, or fails at the current
  /// offset naming how many arrived.
  void read_bytes(void* out, std::uint64_t bytes) {
    in_.read(static_cast<char*>(out), static_cast<std::streamsize>(bytes));
    const auto got = static_cast<std::uint64_t>(in_.gcount());
    if (got != bytes) {
      fail(offset_, "truncated (" + std::to_string(got) + " of " +
                        std::to_string(bytes) + " bytes)");
    }
    offset_ += bytes;
  }

  [[noreturn]] void fail(std::uint64_t offset,
                         const std::string& reason) const {
    throw bad_input(kind_, name_, InputUnit::kByte, offset, reason);
  }

 private:
  std::istream& in_;
  std::string kind_;
  std::string name_;
  std::uint64_t offset_ = 0;
};

class LineReader {
 public:
  /// `kind` and `name` as for InputReader.
  LineReader(std::istream& in, std::string kind, std::string name)
      : in_(in), kind_(std::move(kind)), name_(std::move(name)) {}

  /// Reads line 1 and fails unless it starts with `prefix`.
  void expect_header(std::string_view prefix) {
    std::string line;
    ++line_;
    if (!std::getline(in_, line)) fail("empty file, no header");
    if (!line.starts_with(prefix)) {
      fail("missing header (a line starting '" + std::string(prefix) + "')");
    }
  }

  /// The next non-empty line into `line`; false at the end of the input.
  bool next(std::string& line) {
    while (std::getline(in_, line)) {
      ++line_;
      if (!line.empty()) return true;
    }
    return false;
  }

  /// Lines read so far, blank ones included: the number of the line next()
  /// returned last, or of the last line once next() returned false.
  [[nodiscard]] std::uint64_t line_number() const noexcept { return line_; }

  /// Calls parse(line) for every non-empty line after the header. A
  /// CsbError(reason) that parse throws fails at that line.
  template <typename Parse>
  void for_each_line(Parse&& parse) {
    std::string line;
    while (next(line)) {
      try {
        parse(line);
      } catch (const CsbError& error) {
        fail(error.what());
      }
    }
  }

  /// Fails at the current line.
  [[noreturn]] void fail(std::string_view reason) const {
    throw bad_input(kind_, name_, InputUnit::kLine, line_, reason);
  }

 private:
  std::istream& in_;
  std::string kind_;
  std::string name_;
  std::uint64_t line_ = 0;
};

/// The comma-separated fields of `line`, a trailing empty field included.
[[nodiscard]] inline std::vector<std::string> split_csv_fields(
    std::string_view line) {
  std::vector<std::string> fields;
  for (std::size_t begin = 0;;) {
    const std::size_t comma = line.find(',', begin);
    fields.emplace_back(line.substr(begin, comma - begin));  // npos: the rest
    if (comma == std::string_view::npos) return fields;
    begin = comma + 1;
  }
}

}  // namespace csb
