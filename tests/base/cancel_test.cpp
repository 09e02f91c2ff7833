// CancelToken semantics (explicit cancel, deadlines, parent chaining),
// the null-tolerant polling helpers and resource budgets.
#include "base/cancel.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

namespace mcrt {
namespace {

TEST(CancelTokenTest, FreshTokenIsNotStopped) {
  CancelToken token;
  EXPECT_EQ(token.stop_requested(), StopReason::kNone);
  EXPECT_FALSE(token.stopped());
  EXPECT_NO_THROW(token.check());
}

TEST(CancelTokenTest, RequestCancelStops) {
  CancelToken token;
  token.request_cancel();
  EXPECT_EQ(token.stop_requested(), StopReason::kCancelled);
  try {
    token.check();
    FAIL() << "check() must throw after request_cancel()";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.reason(), StopReason::kCancelled);
  }
}

TEST(CancelTokenTest, PastDeadlineIsTimeout) {
  CancelToken token;
  token.set_deadline(std::chrono::steady_clock::now() -
                     std::chrono::milliseconds(1));
  EXPECT_EQ(token.stop_requested(), StopReason::kTimeout);
}

TEST(CancelTokenTest, FutureDeadlineDoesNotStopYet) {
  CancelToken token;
  token.set_timeout(3600.0);
  EXPECT_EQ(token.stop_requested(), StopReason::kNone);
}

TEST(CancelTokenTest, NonPositiveTimeoutDisarms) {
  CancelToken token;
  token.set_deadline(std::chrono::steady_clock::now() -
                     std::chrono::milliseconds(1));
  ASSERT_EQ(token.stop_requested(), StopReason::kTimeout);
  token.set_timeout(0);
  EXPECT_EQ(token.stop_requested(), StopReason::kNone);
}

TEST(CancelTokenTest, TimeoutElapses) {
  CancelToken token;
  token.set_timeout(0.01);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(token.stop_requested(), StopReason::kTimeout);
}

TEST(CancelTokenTest, ExplicitCancelWinsOverDeadline) {
  CancelToken token;
  token.set_deadline(std::chrono::steady_clock::now() -
                     std::chrono::milliseconds(1));
  token.request_cancel();
  EXPECT_EQ(token.stop_requested(), StopReason::kCancelled);
}

TEST(CancelTokenTest, ChildObservesParentCancel) {
  CancelToken parent;
  CancelToken child(&parent);
  EXPECT_EQ(child.stop_requested(), StopReason::kNone);
  parent.request_cancel();
  EXPECT_EQ(child.stop_requested(), StopReason::kCancelled);
}

TEST(CancelTokenTest, ChildDeadlineDoesNotLeakToParent) {
  CancelToken parent;
  CancelToken child(&parent);
  child.set_deadline(std::chrono::steady_clock::now() -
                     std::chrono::milliseconds(1));
  EXPECT_EQ(child.stop_requested(), StopReason::kTimeout);
  EXPECT_EQ(parent.stop_requested(), StopReason::kNone);
}

TEST(CancelTokenTest, OwnStateWinsOverParent) {
  // The per-job deadline fires; the batch token is untouched — the poll
  // must report the job's own (timeout) reason.
  CancelToken parent;
  CancelToken child(&parent);
  child.set_deadline(std::chrono::steady_clock::now() -
                     std::chrono::milliseconds(1));
  parent.request_cancel();
  EXPECT_EQ(child.stop_requested(), StopReason::kTimeout);
}

TEST(CancelTokenTest, NullHelpersAreNoOps) {
  EXPECT_EQ(cancel_requested(nullptr), StopReason::kNone);
  EXPECT_NO_THROW(poll_cancel(nullptr));
  CancelToken token;
  token.request_cancel();
  EXPECT_EQ(cancel_requested(&token), StopReason::kCancelled);
  EXPECT_THROW(poll_cancel(&token), CancelledError);
}

TEST(ResourceBudgetsTest, DefaultsAreUnlimited) {
  const ResourceBudgets budgets;
  EXPECT_EQ(budgets.bdd_node_cap, 0u);
  EXPECT_EQ(budgets.bmc_step_cap, 0u);
}

}  // namespace
}  // namespace mcrt
