#include "util/file_mapping.hpp"

#include <sys/mman.h>

#include <cerrno>
#include <system_error>
#include <utility>

#include "util/error.hpp"

namespace csb {

FileMapping::FileMapping(int fd, std::size_t size, const std::string& path) {
  void* base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  if (base == MAP_FAILED) {
    const std::error_code error(errno, std::generic_category());
    throw CsbError("cannot map " + path + ": " + error.message());
  }
  base_ = base;
  size_ = size;
  // Both users read the file front to back; tell the pager so readahead
  // covers the scan (advice only: failure is harmless).
#if defined(POSIX_MADV_SEQUENTIAL)
  (void)::posix_madvise(base_, size_, POSIX_MADV_SEQUENTIAL);
#endif
}

FileMapping::FileMapping(FileMapping&& other) noexcept
    : base_(std::exchange(other.base_, nullptr)),
      size_(std::exchange(other.size_, 0)) {}

FileMapping& FileMapping::operator=(FileMapping&& other) noexcept {
  if (this != &other) {
    FileMapping old(std::move(*this));
    base_ = std::exchange(other.base_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

FileMapping::~FileMapping() {
  // munmap of a mapping this object created can only fail on a corrupted
  // handle; there is nothing left to release either way.
  if (base_ != nullptr) (void)::munmap(base_, size_);
}

}  // namespace csb
