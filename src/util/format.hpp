// Human-readable formatting helpers for harness and log output, and the
// decimal field parser the text readers share.
#pragma once

#include <cstdint>
#include <limits>
#include <string>

namespace csb {

/// 1234567 -> "1,234,567".
std::string with_commas(std::uint64_t value);

/// 1536 -> "1.50 KiB"; 0 -> "0 B".
std::string human_bytes(std::uint64_t bytes);

/// 0.0123 -> "12.3 ms"; 90.5 -> "1m 30.5s".
std::string human_seconds(double seconds);

/// Compact scientific formatting with `digits` significant digits.
std::string sci(double value, int digits = 3);

/// The whole of `text` as a decimal in [0, max]. Anything else throws
/// CsbError("<what>: not a number: '<text>'") or
/// CsbError("<what>: <text> out of range (max <max>)").
std::uint64_t parse_decimal(const std::string& text, const char* what,
                            std::uint64_t max);

/// parse_decimal against the largest value of the unsigned type T.
template <typename T>
T parse_decimal(const std::string& text, const char* what) {
  return static_cast<T>(
      parse_decimal(text, what, std::numeric_limits<T>::max()));
}

}  // namespace csb
