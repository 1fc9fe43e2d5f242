// Lightweight runtime-check macros (P.6/P.7 of the C++ Core Guidelines:
// what cannot be checked at compile time should be checkable at run time,
// and run-time errors should be caught early).
//
// P2P_CHECK is always on (it guards simulation invariants whose violation
// would silently corrupt results); P2P_DCHECK compiles out in NDEBUG builds
// and is used on hot paths.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>

namespace p2p::util {

// Thrown by P2P_CHECK failures so tests can assert on invariant violations
// instead of the process aborting.
class CheckError : public std::logic_error {
 public:
  explicit CheckError(const std::string& what) : std::logic_error(what) {}
};

// A malformed request rather than a failed run: an unknown flag, a value
// that does not parse, or one outside its set. The CLI exits 2 on it.
class UsageError : public CheckError {
 public:
  using CheckError::CheckError;
};

namespace detail {
[[noreturn]] inline void CheckFail(const char* file, int line,
                                   const char* expr, const std::string& msg) {
  std::ostringstream os;
  os << "CHECK failed at " << file << ":" << line << ": " << expr;
  if (!msg.empty()) os << " — " << msg;
  throw CheckError(os.str());
}
}  // namespace detail

}  // namespace p2p::util

#define P2P_CHECK(expr)                                                     \
  do {                                                                      \
    if (!(expr))                                                            \
      ::p2p::util::detail::CheckFail(__FILE__, __LINE__, #expr, "");        \
  } while (0)

#define P2P_CHECK_MSG(expr, msg)                                            \
  do {                                                                      \
    if (!(expr)) {                                                          \
      std::ostringstream p2p_check_os_;                                     \
      p2p_check_os_ << msg;                                                 \
      ::p2p::util::detail::CheckFail(__FILE__, __LINE__, #expr,             \
                                     p2p_check_os_.str());                  \
    }                                                                       \
  } while (0)

#ifdef NDEBUG
#define P2P_DCHECK(expr) \
  do {                   \
  } while (0)
#else
#define P2P_DCHECK(expr) P2P_CHECK(expr)
#endif
