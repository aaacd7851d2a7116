// InputReader: reads a binary input stream field by field, counting bytes,
// so malformed input is reported as bad input — CsbError("bad <kind>
// <name>: byte <offset>: <reason>") with the offset of the field that
// failed — instead of as a failed internal check. The seed profile and
// binary graph readers share it.
#pragma once

#include <cstdint>
#include <istream>
#include <string>
#include <utility>

#include "util/error.hpp"

namespace csb {

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
    throw CsbError("bad " + kind_ + " " + name_ + ": byte " +
                   std::to_string(offset) + ": " + reason);
  }

 private:
  std::istream& in_;
  std::string kind_;
  std::string name_;
  std::uint64_t offset_ = 0;
};

}  // namespace csb
