// Multi-producer single-consumer queue for the sharded front end.
//
// Each LPN shard owns one submission queue (ftl/sharded_ftl.h): any
// number of submitter threads push messages, exactly one worker thread
// pops them. LockFreeMpscQueue is Vyukov's intrusive MPSC list (the SPDK
// spdk_ring / DPDK rte_ring family of idioms): producers exchange the
// head pointer and link the previous node, the consumer walks the tail.
// Push is one atomic exchange + one release store; pop takes no lock at
// all. A counting semaphore lets the consumer block (not spin) while the
// queue is empty.
//
// Memory-ordering contract (the happens-before rule every shard message
// relies on): everything the producer wrote before Push() is visible to
// the consumer when WaitPop() returns that item — the release store of
// `prev->next` pairs with the consumer's acquire load, and the semaphore
// release/acquire provides the same edge for the wakeup path. There is
// no ordering ACROSS producers beyond each producer's own FIFO: two items
// pushed by different threads may pop in either order.

#ifndef GECKOFTL_UTIL_MPSC_QUEUE_H_
#define GECKOFTL_UTIL_MPSC_QUEUE_H_

#include <atomic>
#include <semaphore>
#include <thread>
#include <utility>

namespace gecko {

/// Vyukov-style lock-free MPSC queue. Producers contend only on one
/// atomic exchange; the consumer owns the tail outright.
template <typename T>
class LockFreeMpscQueue {
 public:
  LockFreeMpscQueue() {
    Node* stub = new Node();
    head_.store(stub, std::memory_order_relaxed);
    tail_ = stub;
  }

  ~LockFreeMpscQueue() {
    Node* node = tail_;
    while (node != nullptr) {
      Node* next = node->next.load(std::memory_order_relaxed);
      delete node;
      node = next;
    }
  }

  LockFreeMpscQueue(const LockFreeMpscQueue&) = delete;
  LockFreeMpscQueue& operator=(const LockFreeMpscQueue&) = delete;

  void Push(T item) {
    Node* node = new Node(std::move(item));
    // The exchange makes `node` the new head; linking the previous head's
    // `next` (release) publishes the payload to the consumer's acquire
    // load in TryPop — the queue's happens-before edge.
    Node* prev = head_.exchange(node, std::memory_order_acq_rel);
    prev->next.store(node, std::memory_order_release);
    ready_.release();
  }

  T WaitPop() {
    ready_.acquire();
    T item;
    // The semaphore guarantees an item is logically in the queue, but a
    // producer may be between its exchange and the next-pointer store
    // (the transient "empty" window of Vyukov pop); spin it out.
    while (!TryPopLinked(&item)) std::this_thread::yield();
    return item;
  }

  bool TryPop(T* out) {
    if (!ready_.try_acquire()) return false;
    while (!TryPopLinked(out)) std::this_thread::yield();
    return true;
  }

 private:
  struct Node {
    Node() = default;
    explicit Node(T v) : value(std::move(v)) {}
    std::atomic<Node*> next{nullptr};
    T value{};
  };

  /// Pops the node behind tail_ if its link is visible yet.
  bool TryPopLinked(T* out) {
    Node* next = tail_->next.load(std::memory_order_acquire);
    if (next == nullptr) return false;
    *out = std::move(next->value);
    Node* old_tail = tail_;
    tail_ = next;
    delete old_tail;
    return true;
  }

  alignas(64) std::atomic<Node*> head_;  // producers exchange here
  alignas(64) Node* tail_;               // consumer-owned
  std::counting_semaphore<> ready_{0};
};

}  // namespace gecko

#endif  // GECKOFTL_UTIL_MPSC_QUEUE_H_
