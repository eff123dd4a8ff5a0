// Multi-producer single-consumer queue for the sharded front end.
//
// Each LPN shard owns one submission queue (ftl/sharded_ftl.h): any
// number of submitter threads push messages, exactly one worker thread
// pops them. LockFreeMpscQueue is Vyukov's intrusive MPSC list with a
// stub node (the SPDK spdk_ring / DPDK rte_ring family of idioms):
// producers exchange the head pointer and link the previous node, the
// consumer walks the tail. A message embeds its MpscNode, so Push
// allocates nothing and pop frees nothing: the node belongs to whoever
// pushed it, must stay alive until it is popped, and is never touched by
// the queue again once popped, so its owner may push it anew. Push is one
// atomic exchange + one release store; pop takes no lock at all. A
// counting semaphore lets the consumer block (not spin) while the queue
// is empty.
//
// Memory-ordering contract (the happens-before rule every shard message
// relies on): everything the producer wrote before Push() is visible to
// the consumer when WaitPop() returns that node — the release store of
// `prev->next` pairs with the consumer's acquire load, and the semaphore
// release/acquire provides the same edge for the wakeup path. There is
// no ordering ACROSS producers beyond each producer's own FIFO: two nodes
// pushed by different threads may pop in either order.

#ifndef GECKOFTL_UTIL_MPSC_QUEUE_H_
#define GECKOFTL_UTIL_MPSC_QUEUE_H_

#include <atomic>
#include <semaphore>
#include <thread>

namespace gecko {

/// The link a queued message embeds (derive from it).
struct MpscNode {
  std::atomic<MpscNode*> next{nullptr};
};

/// Vyukov-style intrusive lock-free MPSC queue. Producers contend only on
/// one atomic exchange; the consumer owns the tail outright.
class LockFreeMpscQueue {
 public:
  LockFreeMpscQueue() : head_(&stub_), tail_(&stub_) {}

  LockFreeMpscQueue(const LockFreeMpscQueue&) = delete;
  LockFreeMpscQueue& operator=(const LockFreeMpscQueue&) = delete;

  void Push(MpscNode* node) {
    Link(node);
    ready_.release();
  }

  /// Blocks until a node is queued and pops it.
  MpscNode* WaitPop() {
    ready_.acquire();
    return PopAnnounced();
  }

  /// Pops a node, or returns nullptr when none is queued.
  MpscNode* TryPop() {
    if (!ready_.try_acquire()) return nullptr;
    return PopAnnounced();
  }

 private:
  /// The exchange makes `node` the new head; linking the previous head's
  /// `next` (release) publishes the node to the consumer's acquire load
  /// in PopLinked — the queue's happens-before edge.
  void Link(MpscNode* node) {
    node->next.store(nullptr, std::memory_order_relaxed);
    MpscNode* prev = head_.exchange(node, std::memory_order_acq_rel);
    prev->next.store(node, std::memory_order_release);
  }

  /// The semaphore guarantees a node is logically queued, but a producer
  /// may be between its exchange and the next-pointer store (the
  /// transient "empty" window of Vyukov pop); spin it out.
  MpscNode* PopAnnounced() {
    MpscNode* node;
    while ((node = PopLinked()) == nullptr) std::this_thread::yield();
    return node;
  }

  /// Pops the node at the tail if its successor link is visible yet. The
  /// stub keeps the list non-empty: it is skipped on the way out and
  /// re-pushed when the consumer would otherwise take the last node.
  MpscNode* PopLinked() {
    MpscNode* tail = tail_;
    MpscNode* next = tail->next.load(std::memory_order_acquire);
    if (tail == &stub_) {
      if (next == nullptr) return nullptr;
      tail_ = next;
      tail = next;
      next = next->next.load(std::memory_order_acquire);
    }
    if (next != nullptr) {
      tail_ = next;
      return tail;
    }
    // `tail` is the last linked node. A producer that already exchanged
    // the head has not linked it yet: come back once it has.
    if (tail != head_.load(std::memory_order_acquire)) return nullptr;
    Link(&stub_);
    next = tail->next.load(std::memory_order_acquire);
    if (next == nullptr) return nullptr;
    tail_ = next;
    return tail;
  }

  alignas(64) std::atomic<MpscNode*> head_;  // producers exchange here
  alignas(64) MpscNode* tail_;               // consumer-owned
  MpscNode stub_;
  std::counting_semaphore<> ready_{0};
};

}  // namespace gecko

#endif  // GECKOFTL_UTIL_MPSC_QUEUE_H_
