#include "pcap/pcap_file.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <ostream>

#include "util/error.hpp"

namespace csb {

namespace {

constexpr std::uint32_t kMagicUsec = 0xa1b2c3d4;
constexpr std::uint32_t kMagicNsec = 0xa1b23c4d;
constexpr std::uint32_t kMagicUsecSwapped = 0xd4c3b2a1;
constexpr std::uint32_t kMagicNsecSwapped = 0x4d3cb2a1;
constexpr std::uint16_t kVersionMajor = 2;
constexpr std::uint16_t kVersionMinor = 4;

std::uint32_t byteswap32(std::uint32_t v) noexcept {
  return ((v & 0x000000ffu) << 24) | ((v & 0x0000ff00u) << 8) |
         ((v & 0x00ff0000u) >> 8) | ((v & 0xff000000u) >> 24);
}

std::uint16_t byteswap16(std::uint16_t v) noexcept {
  return static_cast<std::uint16_t>((v << 8) | (v >> 8));
}

template <typename T>
void put(std::ostream& out, T value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof value);
}

std::uint32_t load32(const std::uint8_t* p, bool swapped) noexcept {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return swapped ? byteswap32(v) : v;
}

std::uint16_t load16(const std::uint8_t* p, bool swapped) noexcept {
  std::uint16_t v;
  std::memcpy(&v, p, sizeof v);
  return swapped ? byteswap16(v) : v;
}

/// Rejects malformed input, naming the file and the offset of the field
/// that failed.
[[noreturn]] void bad_pcap(const std::string& path, std::uint64_t offset,
                           const std::string& reason) {
  throw CsbError("bad pcap " + path + ": byte " + std::to_string(offset) +
                 ": " + reason);
}

}  // namespace

PcapWriter::PcapWriter(std::ostream& out, std::uint32_t snaplen)
    : out_(out), snaplen_(snaplen) {
  CSB_CHECK_MSG(snaplen_ > 0, "pcap snaplen must be positive");
  put(out_, kMagicUsec);
  put(out_, kVersionMajor);
  put(out_, kVersionMinor);
  put(out_, std::int32_t{0});   // thiszone (GMT offset)
  put(out_, std::uint32_t{0});  // sigfigs
  put(out_, snaplen_);
  put(out_, kLinktypeEthernet);
  CSB_CHECK_MSG(out_.good(), "failed writing pcap global header");
}

void PcapWriter::write(std::uint64_t timestamp_us,
                       const std::vector<std::uint8_t>& data) {
  PcapPacket packet;
  packet.timestamp_us = timestamp_us;
  packet.orig_len = static_cast<std::uint32_t>(data.size());
  packet.data = data;
  write(packet);
}

void PcapWriter::write(const PcapPacket& packet) {
  const std::uint32_t incl_len = static_cast<std::uint32_t>(
      std::min<std::size_t>(packet.data.size(), snaplen_));
  put(out_, static_cast<std::uint32_t>(packet.timestamp_us / 1000000));
  put(out_, static_cast<std::uint32_t>(packet.timestamp_us % 1000000));
  put(out_, incl_len);
  put(out_, packet.orig_len);
  out_.write(reinterpret_cast<const char*>(packet.data.data()), incl_len);
  CSB_CHECK_MSG(out_.good(), "failed writing pcap record");
  ++packets_;
}

void write_pcap_file(const std::string& path,
                     const std::vector<PcapPacket>& packets) {
  std::ofstream out(path, std::ios::binary);
  CSB_CHECK_MSG(out.is_open(), "cannot open for writing: " << path);
  PcapWriter writer(out);
  for (const auto& packet : packets) writer.write(packet);
}

IndexedPcap index_pcap_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in.is_open()) throw CsbError("cannot open for reading: " + path);
  const std::streamoff end = in.tellg();
  if (end < 0) throw CsbError("cannot read pcap file: " + path);
  const auto file_size = static_cast<std::uint64_t>(end);
  if (file_size < 24) {
    bad_pcap(path, 0, "truncated global header (" +
                          std::to_string(file_size) + " of 24 bytes)");
  }

  IndexedPcap capture;
  capture.data.resize(file_size);
  in.seekg(0, std::ios::beg);
  in.read(reinterpret_cast<char*>(capture.data.data()),
          static_cast<std::streamsize>(file_size));
  if (!in.good()) throw CsbError("failed reading pcap file: " + path);

  bool swapped = false;
  bool nanoseconds = false;
  std::uint32_t magic;
  std::memcpy(&magic, capture.data.data(), sizeof magic);
  switch (magic) {
    case kMagicUsec: break;
    case kMagicNsec: nanoseconds = true; break;
    case kMagicUsecSwapped: swapped = true; break;
    case kMagicNsecSwapped:
      swapped = true;
      nanoseconds = true;
      break;
    default:
      bad_pcap(path, 0, "not a pcap file (bad magic)");
  }
  const std::uint16_t major = load16(capture.data.data() + 4, swapped);
  if (major != kVersionMajor) {
    bad_pcap(path, 4, "unsupported version " + std::to_string(major));
  }
  capture.snaplen = load32(capture.data.data() + 16, swapped);
  capture.linktype = load32(capture.data.data() + 20, swapped);
  const std::uint64_t max_record = std::uint64_t{capture.snaplen} + 65536;

  // One sequential walk over the record headers; payload bytes stay where
  // they are, only (timestamp, lengths, offset) go into the index.
  std::uint64_t at = 24;
  while (at < file_size) {
    if (file_size - at < 16) bad_pcap(path, at, "truncated record header");
    const std::uint8_t* header = capture.data.data() + at;
    const std::uint32_t ts_sec = load32(header, swapped);
    const std::uint32_t ts_frac = load32(header + 4, swapped);
    const std::uint32_t incl_len = load32(header + 8, swapped);
    if (incl_len > max_record) {
      bad_pcap(path, at + 8,
               "implausible record size " + std::to_string(incl_len) +
                   " (snaplen " + std::to_string(capture.snaplen) + ")");
    }
    if (file_size - at - 16 < incl_len) {
      bad_pcap(path, at + 16,
               "truncated record payload (" +
                   std::to_string(file_size - at - 16) + " of " +
                   std::to_string(incl_len) + " bytes)");
    }
    PcapRecordRef ref;
    ref.timestamp_us = static_cast<std::uint64_t>(ts_sec) * 1000000 +
                       (nanoseconds ? ts_frac / 1000 : ts_frac);
    ref.orig_len = load32(header + 12, swapped);
    ref.captured_len = incl_len;
    ref.offset = at + 16;
    capture.records.push_back(ref);
    at += 16 + static_cast<std::uint64_t>(incl_len);
  }
  return capture;
}

}  // namespace csb
