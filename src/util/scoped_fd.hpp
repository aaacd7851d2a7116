// ScopedFd — closes a POSIX file descriptor on scope exit, so an early
// throw (a failed check, a pool task's exception) cannot leak it.
#pragma once

#include <unistd.h>

namespace csb {

struct ScopedFd {
  int fd = -1;
  ScopedFd() = default;
  explicit ScopedFd(int f) : fd(f) {}
  ScopedFd(const ScopedFd&) = delete;
  ScopedFd& operator=(const ScopedFd&) = delete;
  ScopedFd(ScopedFd&& other) noexcept : fd(other.fd) { other.fd = -1; }
  ScopedFd& operator=(ScopedFd&& other) noexcept {
    if (this != &other) {
      if (fd >= 0) ::close(fd);
      fd = other.fd;
      other.fd = -1;
    }
    return *this;
  }
  ~ScopedFd() {
    if (fd >= 0) ::close(fd);
  }
};

}  // namespace csb
