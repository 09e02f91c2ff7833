#include "pipeline/diagnostics.h"

#include <utility>

namespace mcrt {

void DiagnosticsSink::note(std::string origin, std::string message) {
  report({DiagSeverity::kNote, std::move(origin), std::move(message)});
}

void DiagnosticsSink::warning(std::string origin, std::string message) {
  report({DiagSeverity::kWarning, std::move(origin), std::move(message)});
}

void DiagnosticsSink::error(std::string origin, std::string message) {
  report({DiagSeverity::kError, std::move(origin), std::move(message)});
}

void StreamDiagnostics::report(const Diagnostic& diagnostic) {
  if (stream_ == nullptr) return;
  if (diagnostic.severity == DiagSeverity::kNote) {
    std::fprintf(stream_, "%s: %s\n", diagnostic.origin.c_str(),
                 diagnostic.message.c_str());
  } else {
    std::fprintf(stream_, "%s: %s: %s\n", diagnostic.origin.c_str(),
                 diag_severity_name(diagnostic.severity),
                 diagnostic.message.c_str());
  }
}

bool CollectingDiagnostics::has_errors() const noexcept {
  for (const Diagnostic& d : diagnostics_) {
    if (d.severity == DiagSeverity::kError) return true;
  }
  return false;
}

std::vector<std::string> CollectingDiagnostics::messages(
    DiagSeverity severity) const {
  std::vector<std::string> out;
  for (const Diagnostic& d : diagnostics_) {
    if (d.severity == severity) out.push_back(d.message);
  }
  return out;
}

DiagnosticsSink& default_diagnostics() {
  static StreamDiagnostics sink(stderr);
  return sink;
}

}  // namespace mcrt
