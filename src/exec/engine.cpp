#include "exec/engine.hpp"

#include <chrono>
#include <cstdlib>
#include <utility>

#include "common/check.hpp"
#include "common/env.hpp"

namespace o2k::exec {

namespace {

/// Which engine/worker the current OS thread is, if it is a pool worker.
/// Lets wake() route a cross-worker handoff through the right SPSC ring
/// (producer identity is the ring index); threads outside the pool — or
/// workers of a *different* engine — take the mutex-guarded overflow path.
struct TlsWorker {
  FiberEngine* eng = nullptr;
  int wid = -1;
};
thread_local TlsWorker tls_worker;

}  // namespace

std::size_t resolved_stack_bytes() {
  // Parse with full-token validation and range check: "64MB" or "-1" warns
  // and falls back instead of strtol'ing to a nonsense stack size.
  const std::int64_t kb =
      common::env_int_or("O2K_EXEC_STACK_KB", /*fallback=*/1024, /*min=*/16,
                         /*max=*/1 << 20);
  return static_cast<std::size_t>(kb) * 1024;
}

int resolved_workers(int nprocs) {
  if (const auto w = common::env_int("O2K_EXEC_WORKERS", /*min=*/1, /*max=*/4096)) {
    return static_cast<int>(*w) < nprocs ? static_cast<int>(*w) : nprocs;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  const int m = hw == 0 ? 1 : static_cast<int>(hw);
  return m < nprocs ? m : nprocs;
}

FiberEngine::FiberEngine(std::size_t stack_bytes)
    : stack_bytes_(stack_bytes != 0 ? stack_bytes : resolved_stack_bytes()) {}

FiberEngine::~FiberEngine() {
  for (auto& f : fibers_) release_context(f->ctx);
}

void FiberEngine::ensure_capacity(int nprocs) {
  while (fibers_.size() < static_cast<std::size_t>(nprocs)) {
    auto f = std::make_unique<Fiber>();
    f->stack = std::make_unique<FiberStack>(stack_bytes_);
    f->eng = this;
    f->rank = static_cast<int>(fibers_.size());
    fibers_.push_back(std::move(f));
  }
}

void FiberEngine::fiber_main(void* arg) {
  auto* f = static_cast<Fiber*>(arg);
  ctx_note_arrival(f->ctx);
  // The body is rt::Machine's per-PE wrapper, which catches everything the
  // simulated program throws (including abort unwinds).  The catch here is
  // a backstop so a throwing body cannot unwind off the fiber stack.
  try {
    (*f->eng->body_)(f->rank);
  } catch (...) {
    std::lock_guard<std::mutex> lk(f->eng->mu_);
    if (!f->eng->first_error_) f->eng->first_error_ = std::current_exception();
  }
  f->reason = Fiber::kDone;
  ctx_swap_to(f->ctx, *f->home, nullptr, nullptr, /*from_dying=*/true);
  std::abort();  // a finished fiber must never be resumed
}

void FiberEngine::run(int nprocs, const std::function<void(int)>& body, const Plan& plan) {
  O2K_REQUIRE(plan.workers >= 0, "FiberEngine: negative worker count");
  O2K_REQUIRE(plan.workers <= 1 || plan.affinity != nullptr,
              "FiberEngine: pinned multi-worker run needs an affinity table");
  ensure_capacity(nprocs);
  live_ = nprocs;
  done_ = 0;
  body_ = &body;
  first_error_ = nullptr;
  runq_.clear();
  pinned_ = plan.workers >= 1;
  affinity_ = plan.affinity;
  for (int r = 0; r < nprocs; ++r) {
    Fiber* f = fibers_[static_cast<std::size_t>(r)].get();
    f->epoch.store(0, std::memory_order_relaxed);
    f->status.store(Fiber::kActive, std::memory_order_relaxed);
    f->reason = Fiber::kPark;
    make_context(f->ctx, *f->stack, &FiberEngine::fiber_main);
  }

  if (!pinned_) {
    // Shared mode: one runnable queue, any worker runs any fiber.
    for (int r = 0; r < nprocs; ++r) runq_.push_back(fibers_[static_cast<std::size_t>(r)].get());
    const int m = resolved_workers(nprocs);
    workers_used_ = m;
    std::vector<RawContext> homes(static_cast<std::size_t>(m));
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(m - 1));
    for (int w = 1; w < m; ++w) {
      threads.emplace_back([this, &homes, w] { worker_loop(homes[static_cast<std::size_t>(w)]); });
    }
    worker_loop(homes[0]);
    for (auto& t : threads) t.join();
  } else {
    // Pinned mode: plan.workers domains, each rank on its domain's worker.
    const int m = plan.workers;
    O2K_REQUIRE(m <= nprocs, "FiberEngine: more pinned workers than ranks");
    workers_used_ = m;
    while (wstates_.size() < static_cast<std::size_t>(m))
      wstates_.push_back(std::make_unique<WorkerState>());
    pinned_done_.store(0, std::memory_order_relaxed);
    for (int w = 0; w < m; ++w) {
      WorkerState& ws = *wstates_[static_cast<std::size_t>(w)];
      ws.runnext = nullptr;
      ws.localq.clear();
      ws.epoch.store(0, std::memory_order_relaxed);
      ws.sleeping.store(0, std::memory_order_relaxed);
      ws.ext_pending.store(0, std::memory_order_relaxed);
      ws.extq.clear();
      if (ws.inbox.size() < static_cast<std::size_t>(m))
        ws.inbox = std::vector<SpscRing<Fiber*>>(static_cast<std::size_t>(m));
    }
    for (int r = 0; r < nprocs; ++r) {
      WorkerState& ws = *wstates_[static_cast<std::size_t>(m == 1 ? 0 : affinity_[r])];
      ws.localq.push_back(fibers_[static_cast<std::size_t>(r)].get());
    }
    // A mailbox only carries fibers pinned to its consumer; the run's rank
    // count bounds that for every worker (see spsc.hpp).  Rings are pooled
    // across runs and only regrown.
    for (int w = 0; w < m; ++w) {
      WorkerState& ws = *wstates_[static_cast<std::size_t>(w)];
      for (auto& ring : ws.inbox)
        if (ring.capacity() < static_cast<std::size_t>(nprocs))
          ring.init(static_cast<std::size_t>(nprocs));
    }
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(m - 1));
    for (int w = 1; w < m; ++w) {
      threads.emplace_back([this, w] { worker_loop_pinned(w); });
    }
    worker_loop_pinned(0);
    for (auto& t : threads) t.join();
  }

  body_ = nullptr;
  affinity_ = nullptr;
  if (first_error_) std::rethrow_exception(first_error_);
}

void FiberEngine::worker_loop(RawContext& home) {
  ctx_bind_host_stack(home);
  for (;;) {
    Fiber* f = nullptr;
    {
      std::unique_lock<std::mutex> lk(mu_);
#if defined(O2K_BOUNDED_WAITS)
      // Debug fallback: never sleep unboundedly; periodically re-enqueue
      // every parked fiber so a lost wakeup degrades to polling instead of
      // a hang.
      while (runq_.empty() && done_ != live_) {
        if (cv_.wait_for(lk, std::chrono::seconds(1)) == std::cv_status::timeout) {
          requeue_parked_locked();
        }
      }
#else
      cv_.wait(lk, [&] { return !runq_.empty() || done_ == live_; });
#endif
      if (runq_.empty()) return;  // done_ == live_: run complete
      f = runq_.front();
      runq_.pop_front();
    }
    for (;;) {
      f->home = &home;
      ctx_swap_to(home, f->ctx, f, f->stack.get());
      if (f->reason == Fiber::kDone) {
        std::lock_guard<std::mutex> lk(mu_);
        if (++done_ == live_) cv_.notify_all();
        break;
      }
      // The fiber asked to park.  Publish kParked, then re-check its wait
      // epoch: a waker that ran between the fiber's epoch read and this
      // store saw status != kParked and did not enqueue, so reclaim the
      // fiber here.  The CAS arbitrates against concurrent wakers so the
      // fiber is resumed exactly once.  `park_epoch` is read before the
      // store: from then on a waker may claim the fiber, another worker
      // resume it, and the fiber park again and rewrite it.
      const std::uint64_t parked_at = f->park_epoch;
      f->status.store(Fiber::kParked, std::memory_order_seq_cst);
      if (f->epoch.load(std::memory_order_seq_cst) != parked_at) {
        int expected = Fiber::kParked;
        if (f->status.compare_exchange_strong(expected, Fiber::kActive,
                                              std::memory_order_seq_cst)) {
          continue;  // resume it right here, still hot on this worker
        }
      }
      break;
    }
  }
}

void FiberEngine::worker_loop_pinned(int wid) {
  WorkerState& w = *wstates_[static_cast<std::size_t>(wid)];
  ctx_bind_host_stack(w.ctx);
  const TlsWorker saved = tls_worker;
  tls_worker = TlsWorker{this, wid};
  while (pinned_done_.load(std::memory_order_acquire) != live_) {
    if (w.runnext == nullptr && w.localq.empty()) {
      // Sleep eventcount: read the epoch, re-drain and re-check for the end
      // of the run, and only then commit to the condvar — a producer always
      // delivers (and the last finisher always counts itself) before
      // bumping the epoch, so either a re-check sees it or the epoch moved.
      // The run-next slot is local work too: nobody else can wake a worker
      // that sleeps on a filled slot.
      const std::uint64_t e = w.epoch.load(std::memory_order_seq_cst);
      if (drain_into_local(w) || pinned_done_.load(std::memory_order_acquire) == live_) continue;
      std::unique_lock<std::mutex> lk(w.mu);
      w.sleeping.store(1, std::memory_order_seq_cst);
      if (w.epoch.load(std::memory_order_seq_cst) == e) {
#if defined(O2K_BOUNDED_WAITS)
        if (w.cv.wait_for(lk, std::chrono::seconds(1)) == std::cv_status::timeout) {
          requeue_parked_pinned(w, wid);
        }
#else
        w.cv.wait(lk, [&] { return w.epoch.load(std::memory_order_relaxed) != e; });
#endif
      }
      w.sleeping.store(0, std::memory_order_relaxed);
      continue;
    }
    Fiber* f = std::exchange(w.runnext, nullptr);
    if (f == nullptr) {
      f = w.localq.front();
      w.localq.pop_front();
    }
    for (;;) {
      f->home = &w.ctx;
      w.running = f;
      ctx_swap_to(w.ctx, f->ctx, f, f->stack.get());
      if (f->reason == Fiber::kDone) {
        // Completion is counted run-wide; the last finisher pokes every
        // other worker so none sleeps through the end of the run.
        if (pinned_done_.fetch_add(1, std::memory_order_acq_rel) + 1 == live_) {
          for (int o = 0; o < workers_used_; ++o) {
            if (o != wid) notify_worker(*wstates_[static_cast<std::size_t>(o)]);
          }
        }
        break;
      }
      if (f->reason == Fiber::kYield) {
        // hand_off: the fiber it woke sits in the run-next slot; the caller
        // (still kActive, never parked) resumes right after it.
        w.localq.push_front(f);
        break;
      }
      // Same park/reclaim protocol as shared mode (see worker_loop).
      const std::uint64_t parked_at = f->park_epoch;
      f->status.store(Fiber::kParked, std::memory_order_seq_cst);
      if (f->epoch.load(std::memory_order_seq_cst) != parked_at) {
        int expected = Fiber::kParked;
        if (f->status.compare_exchange_strong(expected, Fiber::kActive,
                                              std::memory_order_seq_cst)) {
          continue;  // resume it right here, still hot on this worker
        }
      }
      break;
    }
  }
  tls_worker = saved;
}

bool FiberEngine::drain_into_local(WorkerState& w) {
  bool any = false;
  Fiber* f = nullptr;
  for (auto& ring : w.inbox) {
    while (ring.pop(f)) {
      w.localq.push_back(f);
      any = true;
    }
  }
  if (w.ext_pending.load(std::memory_order_acquire) != 0) {
    std::lock_guard<std::mutex> lk(w.extq_mu);
    while (!w.extq.empty()) {
      w.localq.push_back(w.extq.front());
      w.extq.pop_front();
      any = true;
    }
    w.ext_pending.store(0, std::memory_order_relaxed);
  }
  return any;
}

void FiberEngine::park(int rank, std::uint64_t observed_epoch) {
  Fiber* f = fibers_[static_cast<std::size_t>(rank)].get();
  f->park_epoch = observed_epoch;
  f->reason = Fiber::kPark;
  ctx_swap_to(f->ctx, *f->home, nullptr, nullptr);
  // Resumed: the caller (Pe::park_until) loops and re-tests its predicate.
}

void FiberEngine::enqueue(Fiber* f) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    runq_.push_back(f);
  }
  cv_.notify_one();
}

void FiberEngine::notify_worker(WorkerState& w) {
  w.epoch.fetch_add(1, std::memory_order_seq_cst);
  if (w.sleeping.load(std::memory_order_seq_cst) != 0) {
    std::lock_guard<std::mutex> lk(w.mu);
    w.cv.notify_one();
  }
}

bool FiberEngine::deliver(Fiber* f) {
  const int dst = workers_used_ == 1 ? 0 : affinity_[f->rank];
  WorkerState& w = *wstates_[static_cast<std::size_t>(dst)];
  const TlsWorker t = tls_worker;
  if (t.eng == this && t.wid == dst) {
    // Same worker, no notification needed — we are by definition awake.
    // The woken fiber takes the run-next slot and a previous occupant
    // moves to the tail of localq, so the latest wake runs first.  In a
    // chain of rendezvous sends (the last step of Comm::alltoallv) a
    // receiver wakes the sender it released and then the next link; in
    // FIFO order the released sender's whole compute phase would run
    // before the chain moves on, while partners on other workers sleep.
    if (w.runnext != nullptr) w.localq.push_back(w.runnext);
    w.runnext = f;
    return true;
  }
  if (t.eng == this) {
    w.inbox[static_cast<std::size_t>(t.wid)].push(f);
  } else {
    std::lock_guard<std::mutex> lk(w.extq_mu);
    w.extq.push_back(f);
    w.ext_pending.store(1, std::memory_order_release);
  }
  notify_worker(w);
  return false;
}

bool FiberEngine::wake_fiber(int rank) {
  Fiber* f = fibers_[static_cast<std::size_t>(rank)].get();
  f->epoch.fetch_add(1, std::memory_order_seq_cst);
  if (f->status.load(std::memory_order_seq_cst) == Fiber::kParked) {
    int expected = Fiber::kParked;
    if (f->status.compare_exchange_strong(expected, Fiber::kActive,
                                          std::memory_order_seq_cst)) {
      if (pinned_) return deliver(f);
      enqueue(f);
    }
  }
  return false;
}

void FiberEngine::wake(int rank) { (void)wake_fiber(rank); }

void FiberEngine::hand_off(int rank) {
  if (!wake_fiber(rank)) return;
  // The wakee is in this worker's run-next slot.  An eager MP send never
  // parks, so without this switch the wakee would wait for the caller's
  // whole next compute phase (DESIGN.md §2.2).
  Fiber* self = wstates_[static_cast<std::size_t>(tls_worker.wid)]->running;
  self->reason = Fiber::kYield;
  ctx_swap_to(self->ctx, *self->home, nullptr, nullptr);
}

void FiberEngine::wake_all() {
  for (int r = 0; r < live_; ++r) wake(r);
}

bool FiberEngine::quiescent_except(int rank) const {
  for (int r = 0; r < live_; ++r) {
    if (r == rank) continue;
    const Fiber* f = fibers_[static_cast<std::size_t>(r)].get();
    if (f->reason == Fiber::kDone) continue;
    if (f->status.load(std::memory_order_seq_cst) != Fiber::kParked) return false;
  }
  return true;
}

void FiberEngine::requeue_parked_locked() {
  bool any = false;
  for (int r = 0; r < live_; ++r) {
    Fiber* f = fibers_[static_cast<std::size_t>(r)].get();
    int expected = Fiber::kParked;
    if (f->status.compare_exchange_strong(expected, Fiber::kActive,
                                          std::memory_order_seq_cst)) {
      runq_.push_back(f);
      any = true;
    }
  }
  if (any) cv_.notify_all();
}

void FiberEngine::requeue_parked_pinned(WorkerState& w, int wid) {
  // Bounded-waits fallback: reclaim only *our* parked fibers (the CAS keeps
  // exactly-once resume against concurrent wakers and other workers'
  // fallbacks).
  for (int r = 0; r < live_; ++r) {
    if ((workers_used_ == 1 ? 0 : affinity_[r]) != wid) continue;
    Fiber* f = fibers_[static_cast<std::size_t>(r)].get();
    int expected = Fiber::kParked;
    if (f->status.compare_exchange_strong(expected, Fiber::kActive,
                                          std::memory_order_seq_cst)) {
      w.localq.push_back(f);
    }
  }
}

}  // namespace o2k::exec
