// Cooperative cancellation, deadlines and resource budgets.
//
// A CancelToken is the guard rail that keeps one pathological job (a BDD
// blow-up, a degenerate flow network, an unbounded BMC unrolling) from
// stalling a whole batch: long-running engines poll it at their outer loops
// and unwind with CancelledError when a caller requested cancellation
// (ctrl-C) or a per-job deadline passed. Tokens chain: a per-job token with
// a deadline points at the batch-wide token the signal handler cancels, so
// one poll observes both.
//
// Polling is cheap by construction — one relaxed atomic load when nothing
// is set, one steady_clock read when a deadline is armed — so engines can
// poll every outer iteration without measurable cost.
//
// ResourceBudgets carries the per-job caps (BDD nodes, BMC depth) that the
// pipeline threads into verification engines; a tripped budget raises
// ResourceLimitError (or a structured verdict) rather than exhausting
// memory.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace mcrt {

/// Why an operation was asked to stop.
enum class StopReason : std::uint8_t {
  kNone = 0,
  kCancelled,  ///< explicit request_cancel() (ctrl-C, batch shutdown)
  kTimeout,    ///< deadline passed
};

[[nodiscard]] constexpr const char* stop_reason_name(
    StopReason reason) noexcept {
  switch (reason) {
    case StopReason::kNone: return "none";
    case StopReason::kCancelled: return "cancelled";
    case StopReason::kTimeout: return "timeout";
  }
  return "none";
}

/// Thrown by engines (via CancelToken::check) when a stop was requested;
/// the pass manager maps it onto a clean timeout/cancelled flow status.
class CancelledError : public std::runtime_error {
 public:
  explicit CancelledError(StopReason reason)
      : std::runtime_error(reason == StopReason::kTimeout
                               ? "operation timed out"
                               : "operation cancelled"),
        reason_(reason) {}
  [[nodiscard]] StopReason reason() const noexcept { return reason_; }

 private:
  StopReason reason_;
};

/// Thrown when a resource budget (BDD node cap, ...) trips. Callers that
/// can degrade gracefully catch it close to the engine; anything escaping
/// to the pass manager fails that pass only.
class ResourceLimitError : public std::runtime_error {
 public:
  explicit ResourceLimitError(std::string what)
      : std::runtime_error(std::move(what)) {}
};

class CancelToken {
 public:
  CancelToken() = default;
  /// A child token also observes `parent` (which must outlive it).
  explicit CancelToken(const CancelToken* parent) noexcept
      : parent_(parent) {}
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Requests cancellation. Thread-safe and async-signal-safe (one atomic
  /// store), so a SIGINT handler may call it directly.
  void request_cancel() noexcept {
    cancelled_.store(true, std::memory_order_relaxed);
  }

  void set_deadline(std::chrono::steady_clock::time_point deadline) noexcept {
    deadline_ns_.store(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            deadline.time_since_epoch())
            .count(),
        std::memory_order_relaxed);
  }
  /// Arms the deadline `seconds` from now; <= 0 disarms it.
  void set_timeout(double seconds) noexcept;

  /// The dominant stop request, if any: an explicit cancel wins over a
  /// deadline, own state wins over the parent's.
  [[nodiscard]] StopReason stop_requested() const noexcept;
  [[nodiscard]] bool stopped() const noexcept {
    return stop_requested() != StopReason::kNone;
  }
  /// Throws CancelledError if a stop was requested.
  void check() const;

 private:
  std::atomic<bool> cancelled_{false};
  std::atomic<std::int64_t> deadline_ns_{0};  ///< 0 = no deadline
  const CancelToken* parent_ = nullptr;
};

/// Null-tolerant polling helpers; engines hold `const CancelToken*` that is
/// nullptr when nobody asked for cancellation.
[[nodiscard]] inline StopReason cancel_requested(
    const CancelToken* token) noexcept {
  return token == nullptr ? StopReason::kNone : token->stop_requested();
}
inline void poll_cancel(const CancelToken* token) {
  if (token != nullptr) token->check();
}

/// Per-job resource budgets; 0 always means "unlimited".
struct ResourceBudgets {
  std::size_t bdd_node_cap = 0;  ///< max live BDD nodes per manager
  std::size_t bmc_step_cap = 0;  ///< max ternary-BMC unroll depth
};

}  // namespace mcrt
