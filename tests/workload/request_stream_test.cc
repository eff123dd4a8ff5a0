// RequestStream: workloads emitting batched IoRequests with a trim mix.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "workload/request_stream.h"

namespace gecko {
namespace {

TEST(RequestStreamTest, EmitsWriteBatchesOfConfiguredSize) {
  UniformWorkload workload(1000, 1);
  RequestStream::Options options;
  options.batch_size = 16;
  RequestStream stream(&workload, options);

  for (int i = 0; i < 10; ++i) {
    IoRequest request = stream.Next();
    EXPECT_EQ(request.op, IoOp::kWrite);
    EXPECT_EQ(request.extents.size(), 16u);
    for (const IoExtent& e : request.extents) {
      EXPECT_LT(e.lpn, 1000u);
    }
  }
  EXPECT_EQ(stream.ops_emitted(), 160u);
}

TEST(RequestStreamTest, PayloadsAreDeterministicAcrossReplays) {
  UniformWorkload w1(500, 3), w2(500, 3);
  RequestStream::Options options;
  options.batch_size = 8;
  RequestStream a(&w1, options), b(&w2, options);
  for (int i = 0; i < 20; ++i) {
    IoRequest ra = a.Next(), rb = b.Next();
    ASSERT_EQ(ra.extents.size(), rb.extents.size());
    for (size_t j = 0; j < ra.extents.size(); ++j) {
      EXPECT_EQ(ra.extents[j].lpn, rb.extents[j].lpn);
      EXPECT_EQ(ra.extents[j].payload, rb.extents[j].payload);
    }
  }
}

TEST(RequestStreamTest, TrimMixEmitsTrimRequests) {
  UniformWorkload workload(1000, 5);
  RequestStream::Options options;
  options.batch_size = 8;
  options.trim_fraction = 0.3;
  RequestStream stream(&workload, options);

  uint64_t writes = 0, trims = 0;
  for (int i = 0; i < 400; ++i) {
    IoRequest request = stream.Next();
    ASSERT_FALSE(request.extents.empty());
    if (request.op == IoOp::kTrim) {
      trims += request.extents.size();
      EXPECT_LE(request.extents.size(), 8u);
    } else {
      ASSERT_EQ(request.op, IoOp::kWrite);
      writes += request.extents.size();
    }
  }
  EXPECT_GT(trims, 0u);
  EXPECT_GT(writes, 0u);
  // The mix tracks the knob (30% +/- a wide tolerance).
  double fraction =
      static_cast<double>(trims) / static_cast<double>(trims + writes);
  EXPECT_GT(fraction, 0.2);
  EXPECT_LT(fraction, 0.4);
  EXPECT_EQ(stream.ops_emitted(), trims + writes);
}

TEST(RequestStreamTest, ForkIsDeterministicPerChild) {
  RequestStream::Options options;
  options.batch_size = 4;
  options.read_fraction = 0.3;
  options.seed = 77;

  // Forking the same child twice (each with its own workload instance)
  // yields identical request sequences.
  UniformWorkload w1(500, 9), w2(500, 9), proto_w(500, 9);
  RequestStream prototype(&proto_w, options);
  RequestStream a = prototype.Fork(2, &w1);
  RequestStream b = prototype.Fork(2, &w2);
  for (int i = 0; i < 30; ++i) {
    IoRequest ra = a.Next(), rb = b.Next();
    ASSERT_EQ(ra.op, rb.op);
    ASSERT_EQ(ra.extents.size(), rb.extents.size());
    for (size_t j = 0; j < ra.extents.size(); ++j) {
      EXPECT_EQ(ra.extents[j].lpn, rb.extents[j].lpn);
      EXPECT_EQ(ra.extents[j].payload, rb.extents[j].payload);
    }
  }
}

TEST(RequestStreamTest, ForkedChildrenAreIndependentStreams) {
  RequestStream::Options options;
  options.batch_size = 4;
  options.read_fraction = 0.5;
  options.seed = 77;
  UniformWorkload w0(500, 9), w1(500, 9), proto_w(500, 9);
  RequestStream prototype(&proto_w, options);
  RequestStream a = prototype.Fork(0, &w0);
  RequestStream b = prototype.Fork(1, &w1);
  EXPECT_NE(RequestStream::ForkSeed(77, 0), RequestStream::ForkSeed(77, 1));

  // Same underlying workload sequence, but the forked seeds must decide
  // read-vs-write differently somewhere in a modest window.
  bool diverged = false;
  for (int i = 0; i < 50 && !diverged; ++i) {
    diverged = a.Next().op != b.Next().op;
  }
  EXPECT_TRUE(diverged);
}

TEST(RequestStreamTest, ForkedPayloadVersionRangesAreDisjoint) {
  RequestStream::Options options;
  options.batch_size = 4;
  // Writes to the SAME lpn from different forks must carry different
  // payload tokens (disjoint version ranges), so concurrent-submitter
  // integrity checks can attribute data to a writer.
  SequentialWorkload w0(8), w1(8), proto_w(8);
  RequestStream prototype(&proto_w, options);
  RequestStream a = prototype.Fork(0, &w0);
  RequestStream b = prototype.Fork(1, &w1);
  IoRequest ra = a.Next(), rb = b.Next();
  ASSERT_EQ(ra.extents.size(), rb.extents.size());
  for (size_t j = 0; j < ra.extents.size(); ++j) {
    ASSERT_EQ(ra.extents[j].lpn, rb.extents[j].lpn);  // same drawn lpns
    EXPECT_NE(ra.extents[j].payload, rb.extents[j].payload);
  }
}

TEST(RequestStreamTest, ExplicitSeedAndVersionBaseAreHonored) {
  RequestStream::Options options;
  options.batch_size = 2;
  options.seed = 123;
  options.version_base = 1u << 20;
  SequentialWorkload w1(16), w2(16);
  RequestStream a(&w1, options), b(&w2, options);
  IoRequest ra = a.Next(), rb = b.Next();
  ASSERT_EQ(ra.extents.size(), 2u);
  EXPECT_EQ(ra.extents[0].payload, rb.extents[0].payload);
  // version_base offsets the token version: the first write uses
  // version_base + 1.
  EXPECT_EQ(ra.extents[0].payload,
            RequestStream::PayloadToken(ra.extents[0].lpn, (1u << 20) + 1));
}

TEST(RequestStreamTest, AllTrimWorkloadStillTerminates) {
  SequentialWorkload workload(64);
  RequestStream::Options options;
  options.batch_size = 4;
  options.trim_fraction = 1.0;
  RequestStream stream(&workload, options);
  for (int i = 0; i < 8; ++i) {
    IoRequest request = stream.Next();
    EXPECT_EQ(request.op, IoOp::kTrim);
    EXPECT_EQ(request.extents.size(), 4u);
  }
}

TEST(RequestStreamTest, OwnedWorkloadModeIsDeterministic) {
  RequestStream::Options options;
  options.batch_size = 8;
  options.seed = 91;
  options.workload = WorkloadSpec::Zipf(2000, 1.1);
  RequestStream a(options), b(options);
  for (int i = 0; i < 40; ++i) {
    IoRequest ra = a.Next(), rb = b.Next();
    ASSERT_EQ(ra.op, rb.op);
    ASSERT_EQ(ra.extents.size(), rb.extents.size());
    for (size_t j = 0; j < ra.extents.size(); ++j) {
      EXPECT_EQ(ra.extents[j].lpn, rb.extents[j].lpn);
      EXPECT_EQ(ra.extents[j].payload, rb.extents[j].payload);
    }
  }
}

TEST(RequestStreamTest, OwnedWorkloadShapeKnobsDoNotPerturbAddressDraws) {
  // The spec-built generator seeds from a separate derivation of the
  // stream seed, so flipping trim_fraction changes WHICH draws become
  // trims but not the drawn lpn sequence itself. batch_size 1 makes
  // emission order equal draw order (a trimmed draw flushes immediately
  // as a one-lpn trim batch), so the sequences compare exactly.
  RequestStream::Options plain;
  plain.batch_size = 1;
  plain.seed = 17;
  plain.workload = WorkloadSpec::HotCold(1000, 0.1, 0.9);
  RequestStream::Options trimmy = plain;
  trimmy.trim_fraction = 0.5;
  RequestStream a(plain), b(trimmy);
  std::vector<Lpn> draws_a, draws_b;
  while (draws_a.size() < 64) {
    for (const IoExtent& e : a.Next().extents) draws_a.push_back(e.lpn);
  }
  while (draws_b.size() < 64) {
    for (const IoExtent& e : b.Next().extents) draws_b.push_back(e.lpn);
  }
  draws_a.resize(64);
  draws_b.resize(64);
  EXPECT_EQ(draws_a, draws_b);
}

TEST(RequestStreamTest, SkewedForkedChildrenDrawIndependentAddresses) {
  // Owned-mode streams seeded ForkSeed(seed, i), as a benchmark seeds its
  // repetitions: each builds its own skewed generator from the spec.
  RequestStream::Options options;
  options.batch_size = 8;
  options.workload = WorkloadSpec::HotCold(5000, 0.05, 0.95);
  RequestStream::Options child0 = options, child1 = options;
  child0.seed = RequestStream::ForkSeed(77, 0);
  child1.seed = RequestStream::ForkSeed(77, 1);
  RequestStream a(child0);
  RequestStream b(child1);
  // Children must not mirror each other's address sequence (forked
  // workload seeds differ), even though both hammer the same hot set.
  uint32_t same = 0, total = 0;
  for (int i = 0; i < 20; ++i) {
    IoRequest ra = a.Next(), rb = b.Next();
    size_t n = std::min(ra.extents.size(), rb.extents.size());
    for (size_t j = 0; j < n; ++j) {
      ++total;
      if (ra.extents[j].lpn == rb.extents[j].lpn) ++same;
    }
  }
  ASSERT_GT(total, 0u);
  EXPECT_LT(same, total / 2);  // hot-set collisions happen; mirroring not
}

}  // namespace
}  // namespace gecko
