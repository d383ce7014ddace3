// Lock-free mailboxes.
//
// SpscRing: the multi-domain fiber engine hands runnable fibers between
// host workers through one of these per (producer worker, consumer worker)
// pair, so the cross-domain wake hot path is two atomic ops and no lock.
// Capacity is a power of two fixed at init; the engine sizes each ring to
// the run's rank count, which bounds the fibers pinned to any consumer, and
// the park/wake CAS claim guarantees a fiber is in flight through at most
// one mailbox at a time — so a push can never find the ring full (enforced
// with O2K_CHECK rather than a resize path).
//
// MpscQueue: an unbounded linked-list queue for payload-bearing lanes whose
// occupancy has no a-priori bound — each mp::World rank receives every
// message through one, whichever host thread runs the sender.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <utility>

#include "common/check.hpp"

namespace o2k::exec {

template <typename T>
class SpscRing {
 public:
  SpscRing() = default;
  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Size the ring to hold at least `min_capacity` items (rounded up to a
  /// power of two).  Not thread-safe; call before producer/consumer start.
  void init(std::size_t min_capacity) {
    std::size_t cap = 1;
    while (cap < min_capacity) cap <<= 1;
    buf_ = std::make_unique<T[]>(cap);
    mask_ = cap - 1;
    head_.store(0, std::memory_order_relaxed);
    tail_.store(0, std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t capacity() const { return buf_ ? mask_ + 1 : 0; }

  /// Producer side only.
  void push(T v) {
    const std::size_t t = tail_.load(std::memory_order_relaxed);
    O2K_CHECK(t - head_.load(std::memory_order_acquire) <= mask_,
              "SpscRing overflow — capacity invariant violated");
    buf_[t & mask_] = v;
    tail_.store(t + 1, std::memory_order_release);
  }

  /// Consumer side only.  Returns false when the ring is empty.
  bool pop(T& out) {
    const std::size_t h = head_.load(std::memory_order_relaxed);
    if (h == tail_.load(std::memory_order_acquire)) return false;
    out = buf_[h & mask_];
    head_.store(h + 1, std::memory_order_release);
    return true;
  }

 private:
  std::unique_ptr<T[]> buf_;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<std::size_t> head_{0};  ///< consumer cursor
  alignas(64) std::atomic<std::size_t> tail_{0};  ///< producer cursor
};

/// Unbounded multi-producer/single-consumer queue (Vyukov's linked list
/// with a stub node).  A producer allocates a node, swings `head_` to it
/// with one exchange and then links the previous head to it; the consumer
/// follows `next` from `tail_` with acquire loads and frees consumed nodes.
/// The exchange orders all pushes, so one producer's items leave in its
/// program order whichever host thread runs each push — a fiber that parks
/// between two pushes and resumes elsewhere keeps its order, because the
/// resume itself happens-after the first push.
///
/// A pop that meets a producer between its exchange and its link sees the
/// queue as empty up to that node.  Callers that park on the queue must
/// therefore have every producer wake the consumer *after* push returns
/// (mp::Comm does): the interrupted producer's own wake re-runs the pop.
///
/// The consumer may be a fiber rather than a host thread: single-consumer
/// only requires that at most one execution context pops at a time, which a
/// fiber satisfies (it runs in exactly one place at a time).
template <typename T>
class MpscQueue {
 public:
  MpscQueue() : head_(new Node()) { tail_ = head_.load(std::memory_order_relaxed); }
  ~MpscQueue() {
    Node* n = tail_;
    while (n != nullptr) {
      Node* next = n->next.load(std::memory_order_relaxed);
      delete n;
      n = next;
    }
  }
  MpscQueue(const MpscQueue&) = delete;
  MpscQueue& operator=(const MpscQueue&) = delete;

  /// Any thread or fiber.
  void push(T v) {
    Node* n = new Node(std::move(v));
    Node* prev = head_.exchange(n, std::memory_order_acq_rel);
    prev->next.store(n, std::memory_order_release);
  }

  /// Consumer side only.  Returns false when no linked item is left.
  bool pop(T& out) {
    Node* next = tail_->next.load(std::memory_order_acquire);
    if (next == nullptr) return false;
    out = std::move(next->v);
    delete std::exchange(tail_, next);
    return true;
  }

  /// Walk every unconsumed element without popping.  Quiescence-only (no
  /// concurrent producer/consumer): used for checkpoint digests and the
  /// unmatched-send report, both of which run when all PEs are parked.
  template <typename F>
  void for_each(F&& f) const {
    for (Node* n = tail_->next.load(std::memory_order_acquire); n != nullptr;
         n = n->next.load(std::memory_order_acquire)) {
      f(n->v);
    }
  }

 private:
  struct Node {
    Node() = default;
    explicit Node(T&& value) : v(std::move(value)) {}
    T v{};
    std::atomic<Node*> next{nullptr};
  };

  alignas(64) std::atomic<Node*> head_;  ///< producers: the last pushed node
  alignas(64) Node* tail_ = nullptr;     ///< consumer: stub or last consumed
};

}  // namespace o2k::exec
