// MPSC submission-queue tests: the queue must deliver every pushed item
// exactly once, preserve each producer's FIFO order, and publish the
// producer's writes to the consumer (the queue-handoff happens-before
// rule the sharded front end relies on).

#include "util/mpsc_queue.h"

#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace gecko {
namespace {

struct Item {
  uint32_t producer = 0;
  uint64_t sequence = 0;
  uint64_t payload = 0;  // written before Push; checked after WaitPop
};

TEST(MpscQueueTest, SingleProducerFifo) {
  LockFreeMpscQueue<Item> queue;
  for (uint64_t i = 0; i < 100; ++i) {
    queue.Push(Item{0, i, i * 3});
  }
  for (uint64_t i = 0; i < 100; ++i) {
    Item item = queue.WaitPop();
    EXPECT_EQ(item.sequence, i);
    EXPECT_EQ(item.payload, i * 3);
  }
  Item leftover;
  EXPECT_FALSE(queue.TryPop(&leftover));
}

TEST(MpscQueueTest, TryPopEmptyReturnsFalse) {
  LockFreeMpscQueue<Item> queue;
  Item item;
  EXPECT_FALSE(queue.TryPop(&item));
  queue.Push(Item{1, 7, 21});
  ASSERT_TRUE(queue.TryPop(&item));
  EXPECT_EQ(item.sequence, 7u);
  EXPECT_FALSE(queue.TryPop(&item));
}

TEST(MpscQueueTest, MultiProducerStressDeliversExactlyOncePerProducerFifo) {
  constexpr uint32_t kProducers = 4;
  constexpr uint64_t kPerProducer = 2000;
  LockFreeMpscQueue<Item> queue;

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (uint32_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (uint64_t i = 0; i < kPerProducer; ++i) {
        // The payload is computed before Push: the consumer asserting on
        // it exercises the handoff's happens-before edge under TSan.
        queue.Push(Item{p, i, (uint64_t{p} << 32) ^ i});
      }
    });
  }

  // Consume on this thread while producers are live.
  std::vector<uint64_t> next_sequence(kProducers, 0);
  for (uint64_t n = 0; n < kProducers * kPerProducer; ++n) {
    Item item = queue.WaitPop();
    ASSERT_LT(item.producer, kProducers);
    // Per-producer FIFO: sequences from one producer arrive in order.
    EXPECT_EQ(item.sequence, next_sequence[item.producer]);
    ++next_sequence[item.producer];
    EXPECT_EQ(item.payload, (uint64_t{item.producer} << 32) ^ item.sequence);
  }
  for (std::thread& t : producers) t.join();
  for (uint32_t p = 0; p < kProducers; ++p) {
    EXPECT_EQ(next_sequence[p], kPerProducer);
  }
  Item leftover;
  EXPECT_FALSE(queue.TryPop(&leftover));
}

TEST(MpscQueueTest, DestructionWithQueuedItemsDoesNotLeak) {
  // Items left behind at destruction are reclaimed (ASan would flag a
  // leak otherwise).
  LockFreeMpscQueue<Item> queue;
  for (uint64_t i = 0; i < 32; ++i) queue.Push(Item{0, i, i});
}

}  // namespace
}  // namespace gecko
