// MPSC submission-queue tests: the intrusive queue must deliver every
// pushed node exactly once, preserve each producer's FIFO order, publish
// the producer's writes to the consumer (the queue-handoff happens-before
// rule the sharded front end relies on), and never touch a node again
// once it has popped it, so its producer can push it anew.

#include "util/mpsc_queue.h"

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace gecko {
namespace {

struct Item : MpscNode {
  uint32_t producer = 0;
  uint64_t sequence = 0;
  uint64_t payload = 0;  // written before Push; checked after WaitPop
};

Item* WaitPopItem(LockFreeMpscQueue& queue) {
  return static_cast<Item*>(queue.WaitPop());
}

TEST(MpscQueueTest, SingleProducerFifo) {
  LockFreeMpscQueue queue;
  std::vector<Item> items(100);
  for (uint64_t i = 0; i < items.size(); ++i) {
    items[i].sequence = i;
    items[i].payload = i * 3;
    queue.Push(&items[i]);
  }
  for (uint64_t i = 0; i < items.size(); ++i) {
    Item* item = WaitPopItem(queue);
    ASSERT_EQ(item, &items[i]);
    EXPECT_EQ(item->sequence, i);
    EXPECT_EQ(item->payload, i * 3);
  }
  EXPECT_EQ(queue.TryPop(), nullptr);
}

// Every cycle drains the queue, so each pop takes the last node and
// re-pushes the stub behind it, and the next cycle's pop skips the stub.
// Nodes are reused right after their pop, back to back and alternating.
TEST(MpscQueueTest, EmptyPushPopCyclesReuseNodesThroughTheStub) {
  LockFreeMpscQueue queue;
  EXPECT_EQ(queue.TryPop(), nullptr);
  Item a;
  Item b;
  for (uint64_t i = 0; i < 1000; ++i) {
    Item& item = (i / 2) % 2 == 0 ? a : b;
    item.sequence = i;
    queue.Push(&item);
    MpscNode* popped = i % 3 == 0 ? queue.TryPop() : queue.WaitPop();
    ASSERT_EQ(popped, &item) << "cycle " << i;
    EXPECT_EQ(static_cast<Item*>(popped)->sequence, i);
    ASSERT_EQ(queue.TryPop(), nullptr) << "cycle " << i;
  }
  // After the cycles the queue still keeps FIFO order across two nodes.
  queue.Push(&b);
  queue.Push(&a);
  EXPECT_EQ(queue.WaitPop(), &b);
  EXPECT_EQ(queue.WaitPop(), &a);
  EXPECT_EQ(queue.TryPop(), nullptr);
}

// Each producer owns a ring of four nodes and reuses a node only after the
// consumer has released it, as a shard request record's nodes are reused
// once its join has run. A queue that touched a popped node again would
// race with the producer's rewrite (TSan) or lose or repeat an item.
TEST(MpscQueueTest, MultiProducerStressReusesReleasedNodes) {
  constexpr uint32_t kProducers = 4;
  constexpr uint64_t kPerProducer = 20000;
  constexpr uint64_t kRing = 4;
  struct Producer {
    Item ring[kRing];
    std::atomic<uint64_t> released{0};  // items the consumer is done with
  };
  LockFreeMpscQueue queue;
  std::vector<Producer> producers(kProducers);

  std::vector<std::thread> threads;
  threads.reserve(kProducers);
  for (uint32_t p = 0; p < kProducers; ++p) {
    threads.emplace_back([&queue, &producers, p] {
      Producer& self = producers[p];
      for (uint64_t i = 0; i < kPerProducer; ++i) {
        // Node i % kRing last carried item i - kRing: wait until released.
        while (i >= self.released.load(std::memory_order_acquire) + kRing) {
          std::this_thread::yield();
        }
        Item& item = self.ring[i % kRing];
        item.producer = p;
        item.sequence = i;
        // The payload is written before Push: the consumer asserting on
        // it exercises the handoff's happens-before edge under TSan.
        item.payload = (uint64_t{p} << 32) ^ i;
        queue.Push(&item);
      }
    });
  }

  // Consume on this thread while producers are live.
  std::vector<uint64_t> next_sequence(kProducers, 0);
  for (uint64_t n = 0; n < kProducers * kPerProducer; ++n) {
    Item* item = WaitPopItem(queue);
    const uint32_t p = item->producer;
    ASSERT_LT(p, kProducers);
    // Per-producer FIFO: sequences from one producer arrive in order.
    ASSERT_EQ(item->sequence, next_sequence[p]);
    EXPECT_EQ(item, &producers[p].ring[item->sequence % kRing]);
    EXPECT_EQ(item->payload, (uint64_t{p} << 32) ^ item->sequence);
    ++next_sequence[p];
    // Hands the node back; it is not touched after this.
    producers[p].released.store(next_sequence[p], std::memory_order_release);
  }
  for (std::thread& t : threads) t.join();
  for (uint32_t p = 0; p < kProducers; ++p) {
    EXPECT_EQ(next_sequence[p], kPerProducer);
  }
  EXPECT_EQ(queue.TryPop(), nullptr);
}

}  // namespace
}  // namespace gecko
