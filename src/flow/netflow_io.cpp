#include "flow/netflow_io.hpp"

#include <charconv>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "util/error.hpp"
#include "util/format.hpp"

namespace csb {

std::string ip_to_string(std::uint32_t ip) {
  std::ostringstream os;
  os << ((ip >> 24) & 0xff) << '.' << ((ip >> 16) & 0xff) << '.'
     << ((ip >> 8) & 0xff) << '.' << (ip & 0xff);
  return os.str();
}

std::uint32_t ip_from_string(const std::string& text) {
  const auto malformed = [&text] {
    return CsbError("malformed IPv4 address: '" + text + "'");
  };
  std::uint32_t ip = 0;
  const char* at = text.data();
  const char* const end = text.data() + text.size();
  for (int i = 0; i < 4; ++i) {
    if (i > 0) {
      if (at == end || *at != '.') throw malformed();
      ++at;
    }
    unsigned value = 0;
    const auto [ptr, ec] = std::from_chars(at, end, value);
    if (ec != std::errc() || value > 255) throw malformed();
    ip = (ip << 8) | value;
    at = ptr;
  }
  if (at != end) throw malformed();
  return ip;
}

namespace {

Protocol protocol_from_name(const std::string& s) {
  if (s == "TCP") return Protocol::kTcp;
  if (s == "UDP") return Protocol::kUdp;
  if (s == "ICMP") return Protocol::kIcmp;
  throw CsbError("unknown protocol: " + s);
}

ConnState state_from_name(const std::string& s) {
  if (s == "-") return ConnState::kNone;
  if (s == "S0") return ConnState::kS0;
  if (s == "S1") return ConnState::kS1;
  if (s == "SF") return ConnState::kSF;
  if (s == "REJ") return ConnState::kRej;
  if (s == "RSTO") return ConnState::kRsto;
  if (s == "RSTR") return ConnState::kRstr;
  if (s == "OTH") return ConnState::kOth;
  throw CsbError("unknown conn state: " + s);
}

constexpr std::uint64_t kMax16 = 0xffff;
constexpr std::uint64_t kMax32 = 0xffffffff;
constexpr std::uint64_t kMax64 = ~std::uint64_t{0};

/// One data row; throws CsbError saying which field is bad.
NetflowRecord parse_row(const std::string& line) {
  std::vector<std::string> fields;
  std::stringstream ss(line);
  std::string field;
  while (std::getline(ss, field, ',')) fields.push_back(field);
  if (fields.size() != 14) {
    throw CsbError("expected 14 fields, found " +
                   std::to_string(fields.size()));
  }
  NetflowRecord r;
  r.src_ip = ip_from_string(fields[0]);
  r.dst_ip = ip_from_string(fields[1]);
  r.protocol = protocol_from_name(fields[2]);
  r.src_port =
      static_cast<std::uint16_t>(parse_decimal(fields[3], "src_port", kMax16));
  r.dst_port =
      static_cast<std::uint16_t>(parse_decimal(fields[4], "dst_port", kMax16));
  r.first_us = parse_decimal(fields[5], "first_us", kMax64);
  r.last_us = parse_decimal(fields[6], "last_us", kMax64);
  if (r.last_us < r.first_us) throw CsbError("last_us before first_us");
  r.out_bytes = parse_decimal(fields[7], "out_bytes", kMax64);
  r.in_bytes = parse_decimal(fields[8], "in_bytes", kMax64);
  r.out_pkts =
      static_cast<std::uint32_t>(parse_decimal(fields[9], "out_pkts", kMax32));
  r.in_pkts =
      static_cast<std::uint32_t>(parse_decimal(fields[10], "in_pkts", kMax32));
  r.syn_count =
      static_cast<std::uint32_t>(parse_decimal(fields[11], "syn_count", kMax32));
  r.ack_count =
      static_cast<std::uint32_t>(parse_decimal(fields[12], "ack_count", kMax32));
  r.state = state_from_name(fields[13]);
  return r;
}

}  // namespace

void save_netflow_csv(const std::vector<NetflowRecord>& records,
                      std::ostream& out) {
  out << "src_ip,dst_ip,protocol,src_port,dst_port,first_us,last_us,"
         "out_bytes,in_bytes,out_pkts,in_pkts,syn_count,ack_count,state\n";
  for (const auto& r : records) {
    out << ip_to_string(r.src_ip) << ',' << ip_to_string(r.dst_ip) << ','
        << to_string(r.protocol) << ',' << r.src_port << ',' << r.dst_port
        << ',' << r.first_us << ',' << r.last_us << ',' << r.out_bytes << ','
        << r.in_bytes << ',' << r.out_pkts << ',' << r.in_pkts << ','
        << r.syn_count << ',' << r.ack_count << ',' << to_string(r.state)
        << '\n';
  }
  CSB_CHECK_MSG(out.good(), "failed writing netflow CSV");
}

std::vector<NetflowRecord> load_netflow_csv(std::istream& in,
                                            const std::string& name) {
  const auto bad = [&name](std::size_t line_number, const std::string& why) {
    return CsbError("bad netflow CSV " + name + ": line " +
                    std::to_string(line_number) + ": " + why);
  };
  std::string line;
  if (!std::getline(in, line)) throw bad(1, "empty file, no header");
  if (line.rfind("src_ip,", 0) != 0) {
    throw bad(1, "missing header (a line starting 'src_ip,')");
  }
  std::vector<NetflowRecord> records;
  for (std::size_t line_number = 2; std::getline(in, line); ++line_number) {
    if (line.empty()) continue;
    try {
      records.push_back(parse_row(line));
    } catch (const CsbError& error) {
      throw bad(line_number, error.what());
    }
  }
  return records;
}

void save_netflow_csv_file(const std::vector<NetflowRecord>& records,
                           const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) throw CsbError("cannot open for writing: " + path);
  save_netflow_csv(records, out);
}

std::vector<NetflowRecord> load_netflow_csv_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) throw CsbError("cannot open for reading: " + path);
  return load_netflow_csv(in, path);
}

}  // namespace csb
