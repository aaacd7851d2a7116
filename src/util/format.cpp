#include "util/format.hpp"

#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "util/error.hpp"

namespace csb {

std::string with_commas(std::uint64_t value) {
  std::string digits = std::to_string(value);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  const std::size_t lead = digits.size() % 3 == 0 ? 3 : digits.size() % 3;
  for (std::size_t i = 0; i < digits.size(); ++i) {
    if (i != 0 && (i - lead) % 3 == 0 && i >= lead) out.push_back(',');
    out.push_back(digits[i]);
  }
  return out;
}

std::string human_bytes(std::uint64_t bytes) {
  static constexpr std::array<const char*, 6> kUnits = {"B",   "KiB", "MiB",
                                                        "GiB", "TiB", "PiB"};
  if (bytes == 0) return "0 B";
  double value = static_cast<double>(bytes);
  std::size_t unit = 0;
  while (value >= 1024.0 && unit + 1 < kUnits.size()) {
    value /= 1024.0;
    ++unit;
  }
  char buf[32];
  if (unit == 0) {
    std::snprintf(buf, sizeof buf, "%.0f %s", value, kUnits[unit]);
  } else {
    std::snprintf(buf, sizeof buf, "%.2f %s", value, kUnits[unit]);
  }
  return buf;
}

std::string human_seconds(double seconds) {
  char buf[48];
  if (seconds < 1e-3) {
    std::snprintf(buf, sizeof buf, "%.1f us", seconds * 1e6);
  } else if (seconds < 1.0) {
    std::snprintf(buf, sizeof buf, "%.1f ms", seconds * 1e3);
  } else if (seconds < 60.0) {
    std::snprintf(buf, sizeof buf, "%.2f s", seconds);
  } else {
    const int minutes = static_cast<int>(seconds / 60.0);
    std::snprintf(buf, sizeof buf, "%dm %.1fs", minutes,
                  seconds - 60.0 * minutes);
  }
  return buf;
}

std::string sci(double value, int digits) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.*e", digits - 1, value);
  return buf;
}

std::uint64_t parse_decimal(const std::string& text, const char* what,
                            std::uint64_t max) {
  std::uint64_t value = 0;
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec == std::errc::invalid_argument || ptr != end) {
    throw CsbError(std::string(what) + ": not a number: '" + text + "'");
  }
  if (ec == std::errc::result_out_of_range || value > max) {
    throw CsbError(std::string(what) + ": " + text + " out of range (max " +
                   std::to_string(max) + ")");
  }
  return value;
}

}  // namespace csb
