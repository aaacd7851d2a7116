// Error handling primitives shared across all csb modules.
//
// Library code signals unrecoverable misuse with CsbError (an exception
// carrying a formatted message). Hot paths use CSB_ASSERT, which compiles to
// nothing in release builds, while CSB_CHECK is always active and is the
// right choice for validating external input (files, user parameters).
#pragma once

#include <cerrno>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>

namespace csb {

/// Exception thrown for invalid arguments, malformed input files, and
/// violated API contracts throughout the csb libraries.
class CsbError : public std::runtime_error {
 public:
  explicit CsbError(const std::string& what) : std::runtime_error(what) {}
};

/// The text of the current errno. Call it straight after the failed system
/// call, before anything else can change errno.
inline std::string errno_text() {
  return std::error_code(errno, std::generic_category()).message();
}

/// How every writer reports an output it cannot create, size or write.
inline CsbError cannot_write(std::string_view kind, const std::string& path,
                             const std::string& reason) {
  return CsbError("cannot write " + std::string(kind) + " " + path + ": " +
                  reason);
}

namespace detail {
[[noreturn]] inline void throw_check_failure(const char* expr, const char* file,
                                             int line, const std::string& msg) {
  std::ostringstream os;
  os << "CSB_CHECK failed: (" << expr << ") at " << file << ':' << line;
  if (!msg.empty()) os << " — " << msg;
  throw CsbError(os.str());
}
}  // namespace detail

}  // namespace csb

/// Always-on invariant check; throws csb::CsbError on failure.
#define CSB_CHECK(expr)                                                     \
  do {                                                                      \
    if (!(expr))                                                            \
      ::csb::detail::throw_check_failure(#expr, __FILE__, __LINE__, "");    \
  } while (0)

/// Always-on invariant check with an explanatory message (streamed).
#define CSB_CHECK_MSG(expr, msg)                                            \
  do {                                                                      \
    if (!(expr)) {                                                          \
      std::ostringstream csb_check_os_;                                     \
      csb_check_os_ << msg;                                                 \
      ::csb::detail::throw_check_failure(#expr, __FILE__, __LINE__,         \
                                         csb_check_os_.str());              \
    }                                                                       \
  } while (0)

#ifdef NDEBUG
#define CSB_ASSERT(expr) ((void)0)
#else
#define CSB_ASSERT(expr) CSB_CHECK(expr)
#endif
