#include "flow/netflow_io.hpp"

#include <charconv>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "util/error.hpp"
#include "util/format.hpp"
#include "util/input_reader.hpp"

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

/// One data row; throws CsbError saying which field is bad.
NetflowRecord parse_row(const std::string& line) {
  const std::vector<std::string> fields = split_csv_fields(line);
  if (fields.size() != 14) {
    throw CsbError("expected 14 fields, found " +
                   std::to_string(fields.size()));
  }
  NetflowRecord r;
  r.src_ip = ip_from_string(fields[0]);
  r.dst_ip = ip_from_string(fields[1]);
  r.protocol = protocol_from_string(fields[2]);
  r.src_port = parse_decimal<std::uint16_t>(fields[3], "src_port");
  r.dst_port = parse_decimal<std::uint16_t>(fields[4], "dst_port");
  r.first_us = parse_decimal<std::uint64_t>(fields[5], "first_us");
  r.last_us = parse_decimal<std::uint64_t>(fields[6], "last_us");
  if (r.last_us < r.first_us) throw CsbError("last_us before first_us");
  r.out_bytes = parse_decimal<std::uint64_t>(fields[7], "out_bytes");
  r.in_bytes = parse_decimal<std::uint64_t>(fields[8], "in_bytes");
  r.out_pkts = parse_decimal<std::uint32_t>(fields[9], "out_pkts");
  r.in_pkts = parse_decimal<std::uint32_t>(fields[10], "in_pkts");
  r.syn_count = parse_decimal<std::uint32_t>(fields[11], "syn_count");
  r.ack_count = parse_decimal<std::uint32_t>(fields[12], "ack_count");
  r.state = state_from_string(fields[13]);
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
}

std::vector<NetflowRecord> load_netflow_csv(std::istream& stream,
                                            const std::string& name) {
  LineReader in(stream, "netflow CSV", name);
  in.expect_header("src_ip,");
  std::vector<NetflowRecord> records;
  in.for_each_line([&records](const std::string& line) {
    records.push_back(parse_row(line));
  });
  return records;
}

void save_netflow_csv_file(const std::vector<NetflowRecord>& records,
                           const std::string& path) {
  std::ofstream out = open_output("netflow CSV", path);
  save_netflow_csv(records, out);
  close_output(out, "netflow CSV", path);
}

std::vector<NetflowRecord> load_netflow_csv_file(const std::string& path) {
  std::ifstream in = open_input("netflow CSV", path);
  return load_netflow_csv(in, path);
}

}  // namespace csb
