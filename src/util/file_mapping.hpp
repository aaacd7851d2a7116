// FileMapping — a read-only, private mmap of a whole file, released on
// scope exit. The pcap index and the shard store's csr.bin reader both hold
// their file through one, so there is no heap-copy path beside it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

namespace csb {

/// Move-only; the mapping is released on destruction or when another
/// mapping is moved over it.
class FileMapping {
 public:
  FileMapping() = default;
  /// Maps `size` bytes of the open descriptor `fd` (`size` > 0) and advises
  /// sequential access; throws CsbError naming `path` when the map fails.
  FileMapping(int fd, std::size_t size, const std::string& path);
  FileMapping(FileMapping&& other) noexcept;
  FileMapping& operator=(FileMapping&& other) noexcept;
  FileMapping(const FileMapping&) = delete;
  FileMapping& operator=(const FileMapping&) = delete;
  ~FileMapping();

  [[nodiscard]] std::span<const std::uint8_t> bytes() const noexcept {
    return {static_cast<const std::uint8_t*>(base_), size_};
  }

 private:
  void* base_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace csb
