// Reader/writer for the classic libpcap capture file format.
//
// The paper's pipeline starts "with some source data in PCAP format"
// (Fig. 1); we implement the format from the published layout: a 24-byte
// global header (magic 0xa1b2c3d4, or 0xa1b23c4d for nanosecond captures)
// followed by per-packet records of a 16-byte header plus captured bytes.
// Both byte orders are accepted on read; writes are native-order
// microsecond captures with LINKTYPE_ETHERNET.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "util/file_mapping.hpp"

namespace csb {

/// One captured packet: capture timestamp plus the captured bytes. orig_len
/// may exceed data.size() when the capture was truncated by the snap length
/// (flow byte accounting must use orig_len, as Bro does).
struct PcapPacket {
  std::uint64_t timestamp_us = 0;  ///< microseconds since the epoch
  std::uint32_t orig_len = 0;      ///< length on the wire
  std::vector<std::uint8_t> data;  ///< captured bytes (<= orig_len)

  friend bool operator==(const PcapPacket&, const PcapPacket&) = default;
};

inline constexpr std::uint32_t kLinktypeEthernet = 1;

class PcapWriter {
 public:
  /// Writes the global header immediately. A failed write throws CsbError
  /// naming `name` (the output path, where there is one).
  PcapWriter(std::ostream& out, std::uint32_t snaplen = 65535,
             std::string name = "stream");

  /// Appends one record; `data` is truncated to the snap length.
  void write(std::uint64_t timestamp_us,
             const std::vector<std::uint8_t>& data);
  void write(const PcapPacket& packet);

  [[nodiscard]] std::uint64_t packets_written() const noexcept {
    return packets_;
  }

 private:
  std::ostream& out_;
  std::uint32_t snaplen_;
  std::string name_;
  std::uint64_t packets_ = 0;
};

/// One record of an indexed capture: the per-record header fields plus the
/// byte offset of the captured payload inside IndexedPcap::data.
struct PcapRecordRef {
  std::uint64_t timestamp_us = 0;
  std::uint32_t orig_len = 0;
  std::uint32_t captured_len = 0;
  std::uint64_t offset = 0;
};

/// A capture indexed in one sequential pass: the mapped file bytes plus a
/// per-record index. Reading a record through the index touches only its
/// own bytes, so the seed pipeline decodes fixed record chunks in parallel
/// straight out of `data`. Assigning a default-constructed IndexedPcap
/// unmaps the file.
struct IndexedPcap {
  FileMapping mapping;
  std::span<const std::uint8_t> data;  ///< the whole file, in `mapping`
  std::vector<PcapRecordRef> records;
  std::uint32_t snaplen = 0;
  std::uint32_t linktype = 0;

  [[nodiscard]] const std::uint8_t* bytes(const PcapRecordRef& ref)
      const noexcept {
    return data.data() + ref.offset;
  }
};

/// The library's one pcap parser. Maps the whole file read-only and builds
/// the record index without copying any bytes or materializing per-packet
/// buffers. Malformed input throws CsbError("bad pcap <path>: byte
/// <offset>: <reason>"), the offset pointing at the field that failed; a
/// file that cannot be opened or mapped (a pipe, say) throws a CsbError
/// naming it. The file must not shrink while the capture is alive.
IndexedPcap index_pcap_file(const std::string& path);

/// True when `magic`, the first four bytes of a file read in host order, is
/// one of the four libpcap magics (micro- or nanosecond, either byte
/// order).
[[nodiscard]] bool is_pcap_magic(std::uint32_t magic) noexcept;

/// Throws CsbError naming `path` when it cannot be created or written.
void write_pcap_file(const std::string& path,
                     const std::vector<PcapPacket>& packets);

}  // namespace csb
