// FaultInjector: spec rejection, @hit one-shot semantics, per-pattern hit
// counting and separators (tests/base/cancel_test.cpp covers the actions
// and inject()).
#include "base/fault_injector.h"

#include <gtest/gtest.h>

#include <string>

namespace mcrt {
namespace {

TEST(FaultInjectorTest, RejectsMalformedSpecs) {
  FaultInjector injector;
  std::string error;
  EXPECT_FALSE(injector.configure("site=not-an-action", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(injector.configure("missing-equals", &error));
  EXPECT_FALSE(injector.configure("site=fail@zero", &error));
  EXPECT_FALSE(injector.configure("=fail", &error));
}

TEST(FaultInjectorTest, AtHitFiresExactlyOnce) {
  FaultInjector injector;
  std::string error;
  ASSERT_TRUE(injector.configure("write:x=fail@3", &error)) << error;
  EXPECT_EQ(injector.fire("write:x"), FaultInjector::Action::kNone);
  EXPECT_EQ(injector.fire("write:x"), FaultInjector::Action::kNone);
  EXPECT_EQ(injector.fire("write:x"), FaultInjector::Action::kFail);
  EXPECT_EQ(injector.fire("write:x"), FaultInjector::Action::kNone);
}

TEST(FaultInjectorTest, WithoutAtHitFiresEveryTime) {
  FaultInjector injector;
  std::string error;
  ASSERT_TRUE(injector.configure("job:y=stall", &error)) << error;
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(injector.fire("job:y"), FaultInjector::Action::kStall);
  }
}

TEST(FaultInjectorTest, PrefixPatternCountsHitsPerPatternNotPerSite) {
  FaultInjector injector;
  std::string error;
  ASSERT_TRUE(injector.configure("write:*=fail@2", &error)) << error;
  // The @2 counter belongs to the pattern, so two different files share it.
  EXPECT_EQ(injector.fire("write:a.blif"), FaultInjector::Action::kNone);
  EXPECT_EQ(injector.fire("write:b.blif"), FaultInjector::Action::kFail);
  EXPECT_EQ(injector.fire("write:a.blif"), FaultInjector::Action::kNone);
}

TEST(FaultInjectorTest, EmptyAndSeparators) {
  FaultInjector injector;
  std::string error;
  EXPECT_TRUE(injector.empty());
  ASSERT_TRUE(injector.configure("a=fail, b=fail; c=fail", &error)) << error;
  EXPECT_FALSE(injector.empty());
  EXPECT_EQ(injector.fire("b"), FaultInjector::Action::kFail);
  EXPECT_EQ(injector.fire("c"), FaultInjector::Action::kFail);
}

}  // namespace
}  // namespace mcrt
