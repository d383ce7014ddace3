// The virtual-time execution substrate.
//
// A Machine hosts P simulated processors (PEs).  Each PE of a multi-PE run
// is a stackful fiber multiplexed over a fixed host worker pool
// (o2k::exec::FiberEngine); a single-PE run executes inline.  *All timing
// is virtual*: computation and communication charge simulated nanoseconds
// to per-PE clocks according to the Origin2000 cost model.  Wall-clock
// behaviour of the host (which may have a single core) is therefore
// irrelevant to measured results; speedup curves emerge from the machine
// model, exactly as DESIGN.md §2 prescribes — and every worker count and
// scheduling mode produces bit-identical virtual times, because wakeups
// carry no timing information (DESIGN.md §2.2).
//
// Synchronisation primitives keep virtual clocks causally consistent:
//   * barrier(cost): every PE's clock becomes max(all clocks) + cost;
//   * matched transfers (built by the model runtimes on top of Pe) move the
//     receiver's clock to at least the data's virtual arrival time.
//
// Error handling: if any PE throws, the machine aborts the run; PEs blocked
// in barriers or model-runtime waits are woken through the wait registry
// (every wait is an event-driven park, see Pe::park_until), observe the
// abort flag and unwind with AbortError.  Machine::run rethrows the first
// original exception.
//
// Waiting discipline (DESIGN.md §5): a blocked PE never polls on a timer.
// It parks its fiber on the engine's per-fiber eventcount, and the
// state-changing side calls Pe::wake(rank) / wake_all() *after* publishing
// the state the waiter's predicate reads.  Wakeups carry no timing
// information: they only cause the predicate to be re-evaluated, and every
// virtual-clock update is derived from values (release times, arrival
// times) computed from virtual clocks alone, so host scheduling cannot
// alter simulated results.
#pragma once

#include <atomic>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/lint.hpp"
#include "exec/engine.hpp"
#include "metrics/sink.hpp"
#include "origin/params.hpp"
#include "rt/domain.hpp"
#include "rt/phase.hpp"

namespace o2k::rt {

class Machine;

/// How Machine::run schedules PEs on the host: always M:N stackful fibers
/// on a fixed worker pool.  Kept, with Machine::exec_backend(), only for
/// callers that still record the backend.
enum class ExecBackend { kFibers };

/// Thrown inside PEs whose run was aborted by another PE's exception.
struct AbortError : std::runtime_error {
  AbortError() : std::runtime_error("o2k::rt run aborted by another PE") {}
};

/// A barrier-commit callback (see Machine::add_barrier_hook).
using BarrierHookFn = void (*)(void*);

/// Execution context of one simulated processor.  Created by Machine::run;
/// never construct directly.  Not copyable; lives for the duration of one run.
class Pe {
 public:
  Pe(const Pe&) = delete;
  Pe& operator=(const Pe&) = delete;

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const { return nprocs_; }
  [[nodiscard]] const origin::MachineParams& machine() const { return *params_; }

  /// Current virtual time in simulated nanoseconds.
  [[nodiscard]] double now() const { return clock_; }

  /// Charge `ns` of simulated computation/occupancy to this PE.
  void advance(double ns);

  /// Move this PE's clock forward to at least `t` (communication causality);
  /// no-op if already past `t`.
  void sync_at_least(double t);

  /// Virtual-time barrier over all PEs of the run.  After return every PE's
  /// clock equals max(entry clocks) + cost_ns.  All PEs must call it the
  /// same number of times (standard barrier discipline).
  void barrier(double cost_ns);

  /// RAII phase scope: simulated time elapsed inside accrues to the phase.
  /// Holds an interned id, so entering/leaving a phase never allocates.
  class PhaseScope {
   public:
    PhaseScope(Pe& pe, PhaseId id)
        : pe_(pe), id_(id), prev_(pe.cur_phase_), prev_active_(pe.cur_phase_active_),
          start_(pe.clock_) {
      pe_.cur_phase_ = id;
      pe_.cur_phase_active_ = true;
      if (pe_.sink_) pe_.sink_->on_phase_begin(pe_.rank_, id_.str(), start_);
    }
    ~PhaseScope() {
      pe_.stats_.add_phase(id_, pe_.clock_ - start_);
      pe_.cur_phase_ = prev_;
      pe_.cur_phase_active_ = prev_active_;
      if (pe_.sink_) pe_.sink_->on_phase_end(pe_.rank_, id_.str(), pe_.clock_);
    }
    PhaseScope(const PhaseScope&) = delete;
    PhaseScope& operator=(const PhaseScope&) = delete;

   private:
    Pe& pe_;
    PhaseId id_;
    PhaseId prev_;
    bool prev_active_;
    double start_;
  };
  /// `PhaseId` converts implicitly from a name (interned on first use), so
  /// `pe.phase("force")` keeps working; hot call sites may cache the id.
  [[nodiscard]] PhaseScope phase(PhaseId id) { return PhaseScope(*this, id); }

  // ---- analysis hooks (observers only; never touch clocks) --------------
  /// Innermost active PhaseScope's id, or a default id when outside any
  /// phase.  Lets analysis layers (o2k::sanitize) attribute findings to the
  /// call-site phase without threading context through every substrate call.
  [[nodiscard]] PhaseId current_phase() const { return cur_phase_; }
  [[nodiscard]] bool in_phase() const { return cur_phase_active_; }
  [[nodiscard]] std::string current_phase_name() const {
    return cur_phase_active_ ? cur_phase_.str() : std::string("(no phase)");
  }
  /// Number of completed barrier() calls on this PE this run — a cheap
  /// per-PE epoch counter analysis layers can use to order accesses.
  [[nodiscard]] std::uint64_t barrier_epochs() const { return barrier_epochs_; }

  void add_counter(CounterId id, std::uint64_t v) {
    stats_.add_counter(id, v);
    // Zero increments update no cumulative track — don't spend ring slots.
    if (sink_ && v != 0) sink_->on_counter(rank_, id.str(), v, clock_);
  }

  // ---- metrics emission (no-ops when no sink is attached) ---------------
  /// True when a metrics sink is attached (lets callers skip event-prep
  /// work on the hot path).
  [[nodiscard]] bool tracing() const { return sink_ != nullptr; }
  /// A transfer this PE initiates towards `dst` (canonical comm-matrix
  /// observation: me -> dst).  Pass `in_matrix=false` for control traffic
  /// (signals, ...) that no byte counter accounts for.
  void trace_send(int dst, std::size_t bytes, bool in_matrix = true) {
    if (sink_) sink_->on_message(rank_, rank_, dst, bytes, clock_, in_matrix);
  }
  /// Arrival of a transfer from `src` whose send side already accrued to
  /// the matrix (two-sided receives: trace-only).
  void trace_recv(int src, std::size_t bytes) {
    if (sink_) sink_->on_message(rank_, src, rank_, bytes, clock_, /*in_matrix=*/false);
  }
  /// A transfer this PE *pulls* from `src` (one-sided get, remote cache
  /// line fetch).  `in_matrix=false` records trace-only events, e.g.
  /// remote atomics that no byte counter accounts for.
  void trace_pull(int src, std::size_t bytes, bool in_matrix = true) {
    if (sink_) sink_->on_message(rank_, src, rank_, bytes, clock_, in_matrix);
  }

  [[nodiscard]] PhaseStats& stats() { return stats_; }

  // ---- wait registry (event-driven blocking) ----------------------------
  /// Block this PE until `pred()` returns true.  The predicate must be
  /// monotonic-per-wake: once the guarding state is published it stays
  /// observable until this PE consumes it.  `pred` may have side effects
  /// (e.g. claim the item that satisfied it) — it is re-evaluated only on
  /// wakeups, never on a timer.  Whoever mutates state a parked PE may be
  /// predicated on MUST call wake(rank)/wake_all() after the mutation.
  /// Throws AbortError when the run was aborted while blocked, and
  /// std::logic_error when a single-PE run would block: no other PE
  /// exists to make `pred` true.
  template <class Pred>
  void park_until(Pred&& pred);

  /// Re-evaluate `rank`'s parked predicate (no-op if that PE is running).
  void wake(int rank);
  /// wake(rank), and if `rank` now waits next on this PE's host worker, let
  /// it run first: this PE resumes right after it (FiberEngine::hand_off).
  /// Host scheduling only, so virtual time cannot move.  The caller must
  /// hold no host lock.
  void hand_off(int rank);
  /// Wake every PE of the run (barrier release, lock release, abort).
  void wake_all();

  /// True once any PE of this run has thrown.  Model runtimes check this in
  /// their waits and throw AbortError so the whole team unwinds.
  [[nodiscard]] bool aborted() const;
  void throw_if_aborted() const;

  /// Forwarded to Machine::add_barrier_hook (model runtimes register their
  /// epoch-commit callbacks through their Pe handle).
  void add_barrier_hook(BarrierHookFn fn, void* ctx);

  /// Named checkpoint rendezvous point (campaign checkpoint/fork support).
  ///
  /// When the machine is not armed for `label` — the overwhelmingly common
  /// case — this is a no-op costing one atomic load.  When armed, every PE
  /// of the run rendezvouses here on the *host* side only: no virtual clock
  /// is read or written, no cost is charged, and no barrier epoch advances,
  /// so an armed run's simulated trajectory is bit-identical to an unarmed
  /// one (unlike Pe::barrier, which synchronises clocks).  The last PE to
  /// arrive fires the armed callback at quiescence — every other PE is
  /// parked — which is where the campaign layer captures state or forks
  /// warm children.  All PEs must place the call at the same source point
  /// (standard barrier discipline), typically just after an existing
  /// barrier.  Throws AbortError when the run aborts while parked.
  void checkpoint(const char* label);

 private:
  friend class Machine;
  Pe(int rank, int nprocs, const origin::MachineParams* params, Machine* m)
      : rank_(rank), nprocs_(nprocs), params_(params), machine_(m) {}

  /// park_until's single-PE deadlock diagnosis: names the rank, the phase
  /// and the virtual time.
  [[noreturn]] void throw_blocked_alone() const;

  int rank_;
  int nprocs_;
  const origin::MachineParams* params_;
  Machine* machine_;
  metrics::Sink* sink_ = nullptr;  ///< optional observer; never affects clocks
  double clock_ = 0.0;
  PhaseStats stats_;
  PhaseId cur_phase_{};            ///< innermost PhaseScope (analysis hooks)
  bool cur_phase_active_ = false;
  std::uint64_t barrier_epochs_ = 0;
};

/// A simulated Origin2000.  Reusable: call run() any number of times with
/// any processor count up to params.max_pes.
class Machine {
 public:
  explicit Machine(origin::MachineParams params = origin::MachineParams::origin2000());

  [[nodiscard]] const origin::MachineParams& params() const { return params_; }

  /// Execute `body(pe)` on `nprocs` simulated processors and aggregate
  /// per-PE phase statistics.  Rethrows the first PE exception.
  /// Fork-unsafe: spawns worker threads/fibers, so it must never be reached
  /// from a Machine::arm_checkpoint callback (o2k-lint: o2k-fork-unsafe).
  O2K_FORK_UNSAFE RunResult run(int nprocs, const std::function<void(Pe&)>& body);

  /// Attach a metrics observer (or nullptr to detach).  The sink receives
  /// phase/message/counter/barrier events from every PE of subsequent
  /// run() calls; it observes virtual time but never alters it, so results
  /// are bit-identical with and without a sink.  Not thread-safe: set it
  /// between runs only (metrics::Session does this scoped).
  void set_sink(metrics::Sink* sink) { sink_ = sink; }
  [[nodiscard]] metrics::Sink* sink() const { return sink_; }

  /// The backend every run() uses.
  [[nodiscard]] ExecBackend exec_backend() const { return ExecBackend::kFibers; }

  /// Force a synchronization-domain count for subsequent runs (tests,
  /// benches, the --workers CLI flag), or std::nullopt to return to the
  /// O2K_WORKERS environment default (1).  An override larger than the
  /// run's PE count is rejected at run(); the environment path warns and
  /// clamps instead, matching the env-hardening convention.  Either way
  /// the count clamps to the node count — a node is the smallest
  /// shardable unit (see rt::DomainMap) — and virtual times are
  /// bit-identical at every setting; only host wall time changes.
  void set_workers(std::optional<int> w) { workers_override_ = w; }
  /// Domains the current/last run actually used (after clamping).
  [[nodiscard]] int workers() const { return run_workers_; }

  /// Register `fn(ctx)` to run exactly once per barrier round, on the PE
  /// that releases the barrier, *before* any waiter resumes (model runtimes
  /// use this to commit epoch-local state deterministically — see
  /// sas::World).  Hooks are cleared at the start of every run; duplicate
  /// (fn, ctx) registrations collapse to one.  Thread-safe.
  void add_barrier_hook(BarrierHookFn fn, void* ctx);

  // ---- checkpoint rendezvous (campaign snapshot/fork support) -----------
  /// Callback fired on the last-arriving PE of an armed checkpoint
  /// rendezvous, with every other PE parked.  `pe` is the firing PE.
  using CheckpointFn = std::function<void(Machine& m, Pe& pe)>;

  /// Arm the next run (or the current one) to fire `fn` at the
  /// `occurrence`-th dynamic execution of Pe::checkpoint(label) (1-based;
  /// apps typically place one marker inside a loop, so occurrence selects
  /// the iteration).  Arming survives across run() calls until
  /// disarm_checkpoint(); occurrence counting restarts every run.
  void arm_checkpoint(std::string label, int occurrence, CheckpointFn fn);
  void disarm_checkpoint();
  /// True once the armed callback fired during the current/last run.
  [[nodiscard]] bool checkpoint_fired() const {
    return cp_fired_.load(std::memory_order_acquire);
  }

  // ---- run introspection (valid inside run(), e.g. checkpoint callbacks)
  [[nodiscard]] int run_nprocs() const { return run_nprocs_; }
  /// PE `r` of the active run (checkpoint callbacks use this to capture
  /// per-PE clocks/stats while the machine is quiescent).
  [[nodiscard]] Pe& run_pe(int r) { return *pes_.at(static_cast<std::size_t>(r)); }

  /// True when fork(2) from PE `rank`'s context is sound right now: the
  /// process is running this machine single-host-threaded (nprocs == 1
  /// inline, or the fiber engine on one worker) and every other PE is
  /// suspended.
  [[nodiscard]] bool fork_safe(int rank) const;

 private:
  friend class Pe;

  struct BarrierState {
    std::mutex mu;
    int waiting = 0;
    // Written under mu, read without it: waiters acquire-load `generation`
    // and may then read the `release_time` published before the bump (the
    // next round cannot overwrite it until every waiter re-entered).
    std::atomic<std::uint64_t> generation{0};
    double max_clock = 0.0;
    double max_cost = 0.0;
    double release_time = 0.0;
    // Arrivals combine in two stages: PEs fold (max_clock, max_cost) into
    // their domain's stage first, and only the last PE of each domain
    // touches the root fields above — the root mutex is taken O(domains)
    // times per round instead of O(P).  max is commutative, associative and
    // exact over doubles, so the release time does not depend on the
    // domain count or the arrival order.
    struct Stage {
      std::mutex mu;
      int waiting = 0;
      double max_clock = 0.0;
      double max_cost = 0.0;
    };
    std::vector<std::unique_ptr<Stage>> stages;  ///< one per domain
  };

  // Same arrive/release shape as BarrierState, but entirely clock-neutral:
  // the rendezvous synchronises host execution only, so armed and unarmed
  // runs follow identical virtual-time trajectories.
  struct CheckpointState {
    std::mutex mu;
    int waiting = 0;
    std::atomic<std::uint64_t> generation{0};
  };

  origin::MachineParams params_;
  metrics::Sink* sink_ = nullptr;
  std::optional<int> workers_override_;
  DomainMap domain_map_;     ///< rank→domain partition of the current run
  int run_workers_ = 1;      ///< domains the current/last run uses
  int resolve_workers(int nprocs) const;

  // Per-run state (valid while run() is active).
  std::unique_ptr<BarrierState> barrier_;
  std::unique_ptr<CheckpointState> checkpoint_;
  std::vector<std::unique_ptr<Pe>> pes_;
  int run_nprocs_ = 0;
  std::atomic<bool> aborted_{false};
  std::mutex error_mu_;
  std::exception_ptr first_error_;

  // The engine is pooled across runs (stacks are mmap'd once); `engine_`
  // is non-null exactly while a multi-PE run is active.  A single-PE run
  // executes inline, where park_until has nothing to park on and wakes
  // are no-ops.
  std::unique_ptr<exec::FiberEngine> engine_storage_;
  exec::FiberEngine* engine_ = nullptr;

  std::mutex hooks_mu_;
  std::vector<std::pair<BarrierHookFn, void*>> barrier_hooks_;
  void run_barrier_hooks();

  // Checkpoint arming (set between runs; read by every PE inside a run).
  std::atomic<bool> cp_armed_{false};
  std::string cp_label_;
  int cp_occurrence_ = 1;
  int cp_seen_ = 0;  ///< full rendezvous completed this run (under checkpoint_->mu)
  CheckpointFn cp_fn_;
  std::atomic<bool> cp_fired_{false};
  void checkpoint_point(Pe& pe, const char* label);

  void record_error(std::exception_ptr e);
  void wake_pe(int rank);
  void wake_all_pes();
};

template <class Pred>
void Pe::park_until(Pred&& pred) {
  // Parking is a user-space context switch back to the fiber's worker; a
  // wake re-enqueues the fiber.  No syscalls on the park/wake hot path.
  exec::FiberEngine* eng = machine_->engine_;
  if (eng == nullptr) {
    // Single-PE run, inline: nothing else can ever make `pred` true.
    if (!pred()) throw_blocked_alone();
    return;
  }
  for (;;) {
    const std::uint64_t e = eng->wait_epoch(rank_);
    if (pred()) return;
    throw_if_aborted();
    eng->park(rank_, e);
  }
}

}  // namespace o2k::rt
