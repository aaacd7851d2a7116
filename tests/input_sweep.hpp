// The input sweep every reader the CLI exposes runs through: a small valid
// file, cut at every shorter length and with single bytes flipped by ^0x01,
// ^0x80 and ^0xff. Each variant either loads or is rejected with a
// CsbError that starts "bad <kind> <path>: " — the file named, never a
// failed internal check. Each test wraps it with SCOPED_TRACE for its form.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <set>
#include <string>

#include "util/error.hpp"

namespace csb {

/// Reads the file at the path it is given; throws CsbError on bad input.
using InputLoader = std::function<void(const std::string& path)>;

/// Writes `bytes` to `path` and loads it. True when it loads; otherwise the
/// error must start with `prefix` and must not be a failed internal check.
inline bool loads_or_bad_input(const std::string& path,
                               const std::string& bytes,
                               const InputLoader& load,
                               const std::string& prefix,
                               const std::string& what) {
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  try {
    load(path);
    return true;
  } catch (const CsbError& error) {
    const std::string message = error.what();
    EXPECT_EQ(message.rfind(prefix, 0), 0u) << what << ": " << message;
    EXPECT_EQ(message.find("CSB_CHECK failed"), std::string::npos)
        << what << ": " << message;
    return false;
  }
}

/// The sweep over `bytes`, written to `path`: the whole input must load;
/// every shorter cut and every flip of one of the first `flip_span` bytes
/// must load or be bad input starting with `prefix`. Returns the cut
/// lengths that loaded.
inline std::set<std::size_t> sweep_input(const std::string& path,
                                         const std::string& bytes,
                                         const InputLoader& load,
                                         const std::string& prefix,
                                         std::size_t flip_span = SIZE_MAX) {
  EXPECT_TRUE(loads_or_bad_input(path, bytes, load, prefix, "whole input"));
  std::set<std::size_t> loaded;
  for (std::size_t length = 0; length < bytes.size(); ++length) {
    if (loads_or_bad_input(path, bytes.substr(0, length), load, prefix,
                           "cut to " + std::to_string(length))) {
      loaded.insert(length);
    }
  }
  for (std::size_t at = 0; at < std::min(flip_span, bytes.size()); ++at) {
    for (const std::uint8_t mask : {0x01, 0x80, 0xff}) {
      std::string flipped = bytes;
      flipped[at] = static_cast<char>(flipped[at] ^ mask);
      (void)loads_or_bad_input(path, flipped, load, prefix,
                               "byte " + std::to_string(at) + " ^ " +
                                   std::to_string(mask));
    }
  }
  std::remove(path.c_str());
  return loaded;
}

}  // namespace csb
