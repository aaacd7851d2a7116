#include "pcap/pcap_file.hpp"

#include <fcntl.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <ostream>
#include <utility>

#include "util/error.hpp"
#include "util/input_reader.hpp"
#include "util/scoped_fd.hpp"

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

/// A failed system call on `path`, with the errno text. Takes no argument
/// that needs constructing, so nothing runs between the call and the read
/// of errno.
[[noreturn]] void io_failure(const char* what, const std::string& path) {
  const std::string reason = errno_text();
  throw CsbError(std::string(what) + " " + path + ": " + reason);
}

}  // namespace

bool is_pcap_magic(std::uint32_t magic) noexcept {
  return magic == kMagicUsec || magic == kMagicNsec ||
         magic == kMagicUsecSwapped || magic == kMagicNsecSwapped;
}

PcapWriter::PcapWriter(std::ostream& out, std::uint32_t snaplen,
                       std::string name)
    : out_(out), snaplen_(snaplen), name_(std::move(name)) {
  CSB_CHECK_MSG(snaplen_ > 0, "pcap snaplen must be positive");
  put(out_, kMagicUsec);
  put(out_, kVersionMajor);
  put(out_, kVersionMinor);
  put(out_, std::int32_t{0});   // thiszone (GMT offset)
  put(out_, std::uint32_t{0});  // sigfigs
  put(out_, snaplen_);
  put(out_, kLinktypeEthernet);
  if (!out_.good()) {
    throw CsbError("cannot write pcap " + name_ + ": global header");
  }
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
  if (!out_.good()) {
    throw CsbError("cannot write pcap " + name_ + ": record " +
                   std::to_string(packets_));
  }
  ++packets_;
}

void write_pcap_file(const std::string& path,
                     const std::vector<PcapPacket>& packets) {
  std::ofstream out = open_output("pcap", path);
  PcapWriter writer(out, 65535, path);
  for (const auto& packet : packets) writer.write(packet);
  close_output(out, "pcap", path);
}

IndexedPcap index_pcap_file(const std::string& path) {
  // Malformed input names the file and the offset of the field that failed.
  const auto bad = [&path](std::uint64_t offset, const std::string& reason) {
    return bad_input("pcap", path, InputUnit::kByte, offset, reason);
  };
  const ScopedFd file(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
  if (file.fd < 0) io_failure("cannot open for reading:", path);
  struct stat info {};
  if (::fstat(file.fd, &info) != 0) io_failure("cannot stat pcap file", path);
  if (!S_ISREG(info.st_mode)) {
    throw CsbError("cannot map pcap file " + path + ": not a regular file");
  }
  const auto file_size = static_cast<std::uint64_t>(info.st_size);
  if (file_size < 24) {
    throw bad(0, "truncated global header (" + std::to_string(file_size) +
                     " of 24 bytes)");
  }

  IndexedPcap capture;
  capture.mapping =
      FileMapping(file.fd, static_cast<std::size_t>(file_size), path);
  capture.data = capture.mapping.bytes();

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
      throw bad(0, "not a pcap file (bad magic)");
  }
  const std::uint16_t major = load16(capture.data.data() + 4, swapped);
  if (major != kVersionMajor) {
    throw bad(4, "unsupported version " + std::to_string(major));
  }
  capture.snaplen = load32(capture.data.data() + 16, swapped);
  capture.linktype = load32(capture.data.data() + 20, swapped);
  const std::uint64_t max_record = std::uint64_t{capture.snaplen} + 65536;

  // One sequential walk over the record headers; payload bytes stay where
  // they are, only (timestamp, lengths, offset) go into the index.
  std::uint64_t at = 24;
  while (at < file_size) {
    if (file_size - at < 16) throw bad(at, "truncated record header");
    const std::uint8_t* header = capture.data.data() + at;
    const std::uint32_t ts_sec = load32(header, swapped);
    const std::uint32_t ts_frac = load32(header + 4, swapped);
    const std::uint32_t incl_len = load32(header + 8, swapped);
    if (incl_len > max_record) {
      throw bad(at + 8, "implausible record size " + std::to_string(incl_len) +
                            " (snaplen " + std::to_string(capture.snaplen) +
                            ")");
    }
    if (file_size - at - 16 < incl_len) {
      throw bad(at + 16, "truncated record payload (" +
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
