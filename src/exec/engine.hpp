// o2k::exec::FiberEngine — M:N stackful-fiber scheduler.
//
// Runs P logical ranks, each on its own guarded fiber stack, over a fixed
// pool of M host workers.  Two scheduling modes:
//
//   * Shared mode (default, `Plan{}`): one runnable queue under a mutex,
//     M = min(P, hardware_concurrency) workers (override with
//     O2K_EXEC_WORKERS).  Any worker runs any fiber.  This is the
//     single-synchronization-domain scheduler.
//
//   * Pinned mode (`Plan{workers, affinity}`): every rank is pinned to one
//     worker — its synchronization domain (rt::DomainMap) — which owns a
//     private local run queue.  Cross-worker wakes travel through per-pair
//     SPSC wake rings (exec/spsc.hpp) and a per-worker sleep eventcount, so
//     the inter-domain hot path takes no lock; a same-worker wake puts the
//     fiber in the worker's one-fiber run-next slot, which runs before the
//     local queue.  hand_off() is a wake that also switches the waker out
//     when it filled its own worker's slot, so the wakee runs now and the
//     waker right after it (Cilk's work-first rule).  Wakes from threads
//     outside the pool (user code may wake from helper threads) fall back
//     to a small mutex-guarded overflow queue.
//
// The calling thread doubles as worker 0, so at M=1 a run spawns no
// threads at all (this is what makes warm campaign forks sound).
//
// Which host thread runs which rank is known only here and in rt::Machine,
// which builds the Plan.  The model runtimes never ask: their shared
// structures are correct whichever thread runs a rank (MP mailboxes are
// MPSC queues, the CC-SAS directory commits at barriers).
//
// Each fiber carries an eventcount: parking suspends the *fiber* (a
// user-space context switch back to its worker) and waking enqueues the
// fiber on a runnable queue — no condvar signalling, no kernel involvement
// on the park/wake hot path.  The lost-wakeup window is closed by an epoch
// re-check after the suspend is published:
//
//   parker (fiber):        waker (any fiber/thread):
//     e = epoch              epoch.fetch_add(1)     [seq_cst]
//     test predicate         if status == kParked
//     park(e): switch out      and CAS(kParked -> kActive): enqueue
//   parker's worker, after the switch:
//     e = park_epoch         (read before the store below publishes it)
//     status.store(kParked)  [seq_cst]
//     if epoch != e and CAS(kParked -> kActive): resume in place
//
// seq_cst totally orders the epoch bump against the kParked store, so a
// wake concurrent with a park either sees kParked and enqueues, or bumped
// the epoch early enough that the worker's re-check sees it.  The CAS
// claim makes the resume exactly-once under concurrent wakers — which is
// also why the SPSC wake rings can never overflow: a fiber is in flight
// through at most one queue at a time, and a ring only ever carries fibers
// pinned to its consumer, so each ring sized to the run's rank count (an
// upper bound on any worker's owned fibers) always has room.
//
// None of this carries timing information: a wake only means "re-evaluate
// your predicate".  Virtual time is computed from the cost model alone, so
// host scheduling (any M, shared or pinned) cannot change simulated
// results — the golden fixture and the DomainDeterminism suite in
// tests/test_rt enforce this.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "exec/context.hpp"
#include "exec/spsc.hpp"

namespace o2k::exec {

/// Stack size honouring O2K_EXEC_STACK_KB, hardened: a value that is not a
/// fully-numeric decimal in [16, 1048576] KiB warns once to stderr and
/// falls back to the 1 MiB default (never a silent strtol 0).
[[nodiscard]] std::size_t resolved_stack_bytes();

/// Worker count honouring O2K_EXEC_WORKERS with the same hardening
/// (accepted range [1, 4096]); invalid values warn and fall back to
/// min(nprocs, hardware_concurrency).  Shared mode only — pinned mode's
/// worker count is the domain count chosen by rt::Machine (O2K_WORKERS).
[[nodiscard]] int resolved_workers(int nprocs);

class FiberEngine {
 public:
  /// How a run schedules fibers over host workers.
  struct Plan {
    /// 0 = shared mode with resolved_workers().  >= 1 = pinned mode with
    /// exactly this many workers and `affinity` naming each rank's worker.
    int workers = 0;
    /// rank -> worker in [0, workers); must stay valid for the whole run.
    /// Ignored (may be null) in shared mode or when workers == 1.
    const int* affinity = nullptr;
  };

  /// `stack_bytes == 0` means: honour O2K_EXEC_STACK_KB, else 1 MiB.
  explicit FiberEngine(std::size_t stack_bytes = 0);
  ~FiberEngine();
  FiberEngine(const FiberEngine&) = delete;
  FiberEngine& operator=(const FiberEngine&) = delete;

  /// Run body(rank) for every rank in [0, nprocs), each on its own fiber,
  /// and return when all have finished.  The engine is reusable: stacks
  /// are pooled across runs.
  void run(int nprocs, const std::function<void(int)>& body) { run(nprocs, body, Plan{}); }
  void run(int nprocs, const std::function<void(int)>& body, const Plan& plan);

  /// Current wait epoch of `rank` (the eventcount generation).
  [[nodiscard]] std::uint64_t wait_epoch(int rank) const {
    return fibers_[static_cast<std::size_t>(rank)]->epoch.load(std::memory_order_seq_cst);
  }

  /// Suspend the calling fiber (must be `rank`'s own fiber) until a wake
  /// arrives after the epoch read that returned `observed_epoch`.  Spurious
  /// resumes are allowed; the caller re-tests its predicate in a loop.
  void park(int rank, std::uint64_t observed_epoch);

  /// Wake `rank`: bump its epoch and, if its fiber is parked, move it to
  /// its runnable queue.  Callable from any fiber or host thread.
  void wake(int rank);

  /// wake(rank), and in pinned mode, when that put the fiber in the calling
  /// worker's run-next slot, also switch the caller out: its worker puts it
  /// at the front of the local queue, so it resumes right after the woken
  /// fiber.  Anywhere else (shared mode, a cross-worker wake, a caller
  /// outside the pool, a target that was not parked) it is a plain wake.
  /// The caller must hold no host lock, as for park().
  void hand_off(int rank);

  /// Wake every rank of the current run.
  void wake_all();

  /// Number of host workers the last/current run uses.
  [[nodiscard]] int workers() const { return workers_used_; }

  /// True when every fiber of the current run except `rank` is either
  /// parked or finished — i.e. `rank` is the only runnable context.  Only
  /// meaningful at workers() == 1 (single host thread), where it proves the
  /// process is fork-safe: no other host thread exists and no other fiber
  /// can run until `rank` yields.  Non-atomic fields are read under that
  /// same single-thread assumption.
  [[nodiscard]] bool quiescent_except(int rank) const;

 private:
  struct Fiber {
    enum Status : int { kActive = 0, kParked = 1 };
    enum Reason : int { kPark = 0, kDone = 1, kYield = 2 };

    RawContext ctx;             ///< fiber state while suspended
    RawContext* home = nullptr; ///< worker context to switch back to
    std::unique_ptr<FiberStack> stack;
    FiberEngine* eng = nullptr;
    int rank = -1;
    int reason = kPark;         ///< why the last switch-out happened
    std::uint64_t park_epoch = 0;
    std::atomic<std::uint64_t> epoch{0};
    std::atomic<int> status{kActive};
  };

  /// Pinned-mode per-worker state.  `running`, `runnext`, `localq` and the
  /// inbox consumer cursors are owner-only; producers touch the inbox producer
  /// cursors, the overflow queue (under its mutex) and the sleep eventcount.
  /// Fiber completion is tracked by one run-wide counter (`pinned_done_`):
  /// every worker loops until the whole run is done, so the last finisher,
  /// on whichever worker, is what ends every loop.
  struct WorkerState {
    RawContext ctx;
    Fiber* running = nullptr;  ///< the fiber last switched to (hand_off's caller)
    /// The fiber most recently woken by one of this worker's own fibers; it
    /// runs before `localq` (Go's runnext).  See deliver().
    Fiber* runnext = nullptr;
    std::deque<Fiber*> localq;
    std::vector<SpscRing<Fiber*>> inbox;  ///< [producer worker] -> ring
    // Sleep eventcount (the store-buffering-free protocol of the fibers'
    // own epochs): producers bump `epoch` after delivering, and notify
    // only when `sleeping` is set; between the epoch read and the sleep
    // the owner re-drains and re-checks the run-wide completion count.
    std::atomic<std::uint64_t> epoch{0};
    std::atomic<int> sleeping{0};
    std::mutex mu;
    std::condition_variable cv;
    // Overflow path for producers outside the worker pool.
    std::mutex extq_mu;
    std::deque<Fiber*> extq;
    std::atomic<int> ext_pending{0};
  };

  static void fiber_main(void* arg);  // ContextEntry
  void worker_loop(RawContext& home);             // shared mode
  void worker_loop_pinned(int wid);               // pinned mode
  bool wake_fiber(int rank);                      // wake; true if it filled our run-next
  void enqueue(Fiber* f);                         // shared-mode runq push
  bool deliver(Fiber* f);                         // pinned-mode routing
  void notify_worker(WorkerState& w);
  bool drain_into_local(WorkerState& w);
  void requeue_parked_locked();
  void requeue_parked_pinned(WorkerState& w, int wid);
  void ensure_capacity(int nprocs);

  std::size_t stack_bytes_;
  std::vector<std::unique_ptr<Fiber>> fibers_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Fiber*> runq_;
  int live_ = 0;  ///< fibers participating in the current run
  int done_ = 0;
  std::atomic<int> pinned_done_{0};  ///< pinned mode: finished fibers, all workers
  int workers_used_ = 0;
  bool pinned_ = false;
  const int* affinity_ = nullptr;  ///< rank -> worker (pinned mode)
  std::vector<std::unique_ptr<WorkerState>> wstates_;
  const std::function<void(int)>* body_ = nullptr;
  std::exception_ptr first_error_;
};

}  // namespace o2k::exec
