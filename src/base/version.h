// Build provenance: version, build type and sanitizer configuration.
//
// One place answers "which mcrt produced this?" for every surface that
// needs it: `mcrt --version` and the provenance block embedded in bulk
// JSON reports (mcrt-bulk-report/3). Canonical reports embed only the
// stable fields (tool + version), never the build type or sanitizer list,
// so canonical bytes stay identical across Debug/Release/TSan CI
// configurations.
#pragma once

#include <string>
#include <vector>

namespace mcrt {

/// Semantic version of the mcrt tool and library.
[[nodiscard]] const char* version_string() noexcept;

/// CMAKE_BUILD_TYPE the binary was compiled under ("unknown" when the
/// build system did not pass it down).
[[nodiscard]] const char* build_type() noexcept;

/// Sanitizers compiled into this binary ("address", "thread", ...), in a
/// fixed order; empty for a plain build.
[[nodiscard]] std::vector<std::string> sanitizer_flags();

/// One-line human-readable description, e.g.
/// "mcrt 0.5.0 (RelWithDebInfo)" with sanitizers appended
/// when present.
[[nodiscard]] std::string version_line();

}  // namespace mcrt
