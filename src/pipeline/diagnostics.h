// Diagnostics sink for flow pipelines.
//
// Library passes and flow drivers report notes, warnings and errors through
// a DiagnosticsSink instead of writing to stderr directly. That makes the
// same pass usable from the CLI (stream sink), from benches (stream or
// silent) and from tests (collecting sink that can be asserted on), and it
// is the hook later work needs to multiplex diagnostics from batched or
// concurrent flows.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

namespace mcrt {

enum class DiagSeverity : std::uint8_t { kNote = 0, kWarning = 1, kError = 2 };

[[nodiscard]] constexpr const char* diag_severity_name(
    DiagSeverity severity) noexcept {
  switch (severity) {
    case DiagSeverity::kNote: return "note";
    case DiagSeverity::kWarning: return "warning";
    case DiagSeverity::kError: return "error";
  }
  return "note";
}

struct Diagnostic {
  DiagSeverity severity = DiagSeverity::kNote;
  std::string origin;  ///< pass or component that produced the message
  std::string message;
};

class DiagnosticsSink {
 public:
  virtual ~DiagnosticsSink() = default;
  virtual void report(const Diagnostic& diagnostic) = 0;

  // Convenience wrappers building the Diagnostic in place.
  void note(std::string origin, std::string message);
  void warning(std::string origin, std::string message);
  void error(std::string origin, std::string message);
};

/// Prints "origin: message" ("origin: warning: ..." / "origin: error: ...")
/// one line per diagnostic, to a stdio stream. The CLI uses stderr.
class StreamDiagnostics final : public DiagnosticsSink {
 public:
  explicit StreamDiagnostics(std::FILE* stream = stderr) noexcept
      : stream_(stream) {}
  void report(const Diagnostic& diagnostic) override;

 private:
  std::FILE* stream_;
};

/// Collects diagnostics in memory; tests and batched drivers inspect them.
class CollectingDiagnostics final : public DiagnosticsSink {
 public:
  void report(const Diagnostic& diagnostic) override {
    diagnostics_.push_back(diagnostic);
  }
  [[nodiscard]] const std::vector<Diagnostic>& diagnostics() const noexcept {
    return diagnostics_;
  }
  [[nodiscard]] bool has_errors() const noexcept;
  /// Messages of every diagnostic at `severity`, in report order.
  [[nodiscard]] std::vector<std::string> messages(DiagSeverity severity) const;
  void clear() { diagnostics_.clear(); }

 private:
  std::vector<Diagnostic> diagnostics_;
};

/// Process-wide stderr sink used when a FlowContext is built without one.
DiagnosticsSink& default_diagnostics();

}  // namespace mcrt
