#include "base/version.h"

#include "base/strings.h"

namespace mcrt {

namespace {

// Sanitizer detection works for both GCC (__SANITIZE_*__) and Clang
// (__has_feature); MSan/UBSan have no reliable GCC macro, so UBSan presence
// is passed from the build system when needed.
#if defined(__has_feature)
#define MCRT_HAS_FEATURE(x) __has_feature(x)
#else
#define MCRT_HAS_FEATURE(x) 0
#endif

constexpr bool kAsan =
#if defined(__SANITIZE_ADDRESS__)
    true;
#else
    MCRT_HAS_FEATURE(address_sanitizer);
#endif

constexpr bool kTsan =
#if defined(__SANITIZE_THREAD__)
    true;
#else
    MCRT_HAS_FEATURE(thread_sanitizer);
#endif

constexpr bool kMsan = MCRT_HAS_FEATURE(memory_sanitizer);

}  // namespace

const char* version_string() noexcept { return "0.5.0"; }

const char* build_type() noexcept {
#if defined(MCRT_BUILD_TYPE)
  return MCRT_BUILD_TYPE;
#else
  return "unknown";
#endif
}

std::vector<std::string> sanitizer_flags() {
  std::vector<std::string> flags;
  if (kAsan) flags.emplace_back("address");
  if (kTsan) flags.emplace_back("thread");
  if (kMsan) flags.emplace_back("memory");
  return flags;
}

std::string version_line() {
  std::string line = str_format("mcrt %s (%s", version_string(), build_type());
  for (const std::string& flag : sanitizer_flags()) {
    line += ", " + flag + "-sanitizer";
  }
  line += ")";
  return line;
}

}  // namespace mcrt
