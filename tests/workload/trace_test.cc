#include "workload/trace.h"

#include <gtest/gtest.h>

namespace gecko {
namespace {

TEST(TraceTest, RecordCapturesExactSequence) {
  UniformWorkload a(100, 9);
  Trace trace = Trace::Record(a, 50);
  ASSERT_EQ(trace.size(), 50u);
  UniformWorkload b(100, 9);  // same seed regenerates the same stream
  for (uint64_t i = 0; i < 50; ++i) {
    EXPECT_EQ(trace.at(i), b.NextLpn()) << "position " << i;
  }
}

TEST(TraceTest, AtOutOfRangeAborts) {
  Trace trace;
  trace.Append(1);
  EXPECT_DEATH(trace.at(1), "");
}

}  // namespace
}  // namespace gecko
