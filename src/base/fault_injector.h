// Deterministic fault injection for resilience testing.
//
// A FaultInjector maps *sites* — stable string names of hook points such as
// "pass:retime", "job:r03", "write:r03.blif" or "bdd" — onto faults: throw
// an exception, report a failure, or stall (sleeping in short naps while
// polling a CancelToken, so timeouts and kill tests stay deterministic).
// Hook points in the pipeline call inject() with their site name; with no
// configured fault the call is a mutex-protected map lookup, cheap at the
// per-pass / per-job granularity the hooks use.
//
// Configuration sources:
//   - programmatic: configure("pass:retime=throw@2; write:*=fail", ...)
//   - environment:  every variable whose name starts with MCRT_FAULT
//     contributes its value as a spec, e.g.
//       MCRT_FAULT_RETIME="pass:retime=throw"
//       MCRT_FAULT_STALL="job:r03=stall"
//
// Spec grammar (';' or ',' separated):
//   site=action[@hit]
// where action is throw | fail | stall and `@hit` (1-based) fires the
// fault only on that invocation of the site (default: every invocation).
// A site ending in '*' matches any site with that prefix ("write:*").
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "base/cancel.h"

namespace mcrt {

/// Thrown by an injected `throw` fault; pipelines treat it like any other
/// pass/job exception, which is exactly what the tests verify.
class FaultInjectedError : public std::runtime_error {
 public:
  explicit FaultInjectedError(const std::string& site)
      : std::runtime_error("injected fault at " + site) {}
};

class FaultInjector {
 public:
  enum class Action : std::uint8_t {
    kNone = 0,
    kThrow,
    kFail,
    kStall,
  };

  FaultInjector() = default;

  /// Parses and adds a fault spec (see grammar above). Returns false and
  /// sets *error on a malformed spec; earlier entries of the spec stay.
  bool configure(std::string_view spec, std::string* error);

  [[nodiscard]] bool empty() const;

  /// Counts a hit at `site` and returns the action to take, if any.
  [[nodiscard]] Action fire(const std::string& site);

  /// Full hook: fires `site`, then performs the action — kThrow throws
  /// FaultInjectedError, kStall sleeps in 1 ms naps until `cancel` stops
  /// (forever when cancel is null — the kill-and-resume tests rely on
  /// that), kFail returns true so the caller reports a failure.
  bool inject(const std::string& site, const CancelToken* cancel);

  /// Process-wide injector configured once from MCRT_FAULT* environment
  /// variables; empty when none are set. Malformed env specs are reported
  /// to stderr and skipped (never fatal).
  static FaultInjector& global();

 private:
  struct Fault {
    Action action = Action::kNone;
    std::size_t at_hit = 0;  ///< 1-based; 0 = every hit
  };

  mutable std::mutex mutex_;
  std::map<std::string, Fault> faults_;    ///< exact or trailing-'*' sites
  std::map<std::string, std::size_t> hits_;
};

}  // namespace mcrt
