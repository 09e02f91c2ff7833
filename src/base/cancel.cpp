#include "base/cancel.h"

namespace mcrt {

void CancelToken::set_timeout(double seconds) noexcept {
  if (seconds <= 0) {
    deadline_ns_.store(0, std::memory_order_relaxed);
    return;
  }
  set_deadline(std::chrono::steady_clock::now() +
               std::chrono::nanoseconds(
                   static_cast<std::int64_t>(seconds * 1e9)));
}

StopReason CancelToken::stop_requested() const noexcept {
  if (cancelled_.load(std::memory_order_relaxed)) {
    return StopReason::kCancelled;
  }
  const std::int64_t deadline = deadline_ns_.load(std::memory_order_relaxed);
  if (deadline != 0) {
    const std::int64_t now =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count();
    if (now >= deadline) return StopReason::kTimeout;
  }
  return parent_ != nullptr ? parent_->stop_requested() : StopReason::kNone;
}

void CancelToken::check() const {
  const StopReason reason = stop_requested();
  if (reason != StopReason::kNone) throw CancelledError(reason);
}

}  // namespace mcrt
