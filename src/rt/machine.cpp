#include "rt/machine.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "common/check.hpp"
#include "common/env.hpp"

namespace o2k::rt {

void Pe::advance(double ns) {
  O2K_REQUIRE(ns >= 0.0, "cannot charge negative simulated time");
  clock_ += ns;
}

void Pe::sync_at_least(double t) { clock_ = std::max(clock_, t); }

bool Pe::aborted() const { return machine_->aborted_.load(std::memory_order_relaxed); }

void Pe::throw_if_aborted() const {
  if (aborted()) throw AbortError{};
}

void Pe::throw_blocked_alone() const {
  throw std::logic_error("o2k::rt: PE " + std::to_string(rank_) +
                         " of a 1-PE run blocked (phase " + current_phase_name() +
                         ", t=" + std::to_string(clock_) +
                         " ns): no other PE can wake it (deadlock)");
}

void Pe::barrier(double cost_ns) {
  O2K_REQUIRE(cost_ns >= 0.0, "barrier cost must be non-negative");
  ++barrier_epochs_;
  const double entry_ns = clock_;
  if (nprocs_ == 1) {
    machine_->run_barrier_hooks();
    clock_ += cost_ns;
    if (sink_) sink_->on_barrier(rank_, entry_ns, clock_);
    return;
  }
  // Two-stage arrive/release (see BarrierState::Stage); a one-domain run
  // is the same combine with a single stage.  The happens-before chain for
  // pre-barrier writes reaches the releasing PE: writer -> stage mutex ->
  // domain-last PE -> root mutex -> releaser.
  //
  // `my_gen` is loaded before registering arrival: the generation cannot
  // bump until *this* PE's arrival is counted, so the pre-arrival load is
  // never stale.
  auto& b = *machine_->barrier_;
  const DomainMap& dm = machine_->domain_map_;
  const std::uint64_t my_gen = b.generation.load(std::memory_order_seq_cst);
  const int d = dm.domain_of(rank_);
  auto& st = *b.stages[static_cast<std::size_t>(d)];
  bool domain_last = false;
  double dom_clock = 0.0;
  double dom_cost = 0.0;
  {
    std::scoped_lock slk(st.mu);
    st.max_clock = std::max(st.max_clock, clock_);
    st.max_cost = std::max(st.max_cost, cost_ns);
    if (++st.waiting == dm.owned(d)) {
      domain_last = true;
      dom_clock = st.max_clock;
      dom_cost = st.max_cost;
      st.waiting = 0;
      st.max_clock = 0.0;
      st.max_cost = 0.0;
    }
  }
  if (domain_last) {
    std::unique_lock rlk(b.mu);
    b.max_clock = std::max(b.max_clock, dom_clock);
    b.max_cost = std::max(b.max_cost, dom_cost);
    if (++b.waiting == dm.domains()) {
      const double release = b.max_clock + b.max_cost;
      b.release_time = release;
      b.waiting = 0;
      b.max_clock = 0.0;
      b.max_cost = 0.0;
      // Every PE of every domain has arrived (writes published through the
      // stage/root mutex chain); commit hooks run here, before any waiter
      // can resume.
      machine_->run_barrier_hooks();
      // Publishes release_time: waiters acquire-load the bumped generation.
      b.generation.store(my_gen + 1, std::memory_order_release);
      rlk.unlock();
      wake_all();
      clock_ = std::max(clock_, release);
      if (sink_) sink_->on_barrier(rank_, entry_ns, clock_);
      return;
    }
  }
  park_until(
      [&] { return b.generation.load(std::memory_order_acquire) != my_gen; });
  // Safe without b.mu: release_time cannot be overwritten until every
  // waiter of this generation (including us) re-entered the barrier.
  clock_ = std::max(clock_, b.release_time);
  if (sink_) sink_->on_barrier(rank_, entry_ns, clock_);
}

void Pe::add_barrier_hook(BarrierHookFn fn, void* ctx) { machine_->add_barrier_hook(fn, ctx); }

void Pe::checkpoint(const char* label) { machine_->checkpoint_point(*this, label); }

void Pe::wake(int rank) { machine_->wake_pe(rank); }

void Pe::hand_off(int rank) {
  if (machine_->engine_ != nullptr) machine_->engine_->hand_off(rank);
}

void Pe::wake_all() { machine_->wake_all_pes(); }

Machine::Machine(origin::MachineParams params) : params_(params) {
  O2K_REQUIRE(params_.max_pes >= 1, "machine needs at least one PE");
  O2K_REQUIRE(params_.pes_per_node >= 1, "node needs at least one PE");
}

int Machine::resolve_workers(int nprocs) const {
  if (workers_override_) {
    const int w = *workers_override_;
    O2K_REQUIRE(w >= 1, "need at least one synchronization domain");
    O2K_REQUIRE(w <= nprocs, "more synchronization domains than PEs (workers > P)");
    return w;
  }
  int w = static_cast<int>(common::env_int_or("O2K_WORKERS", /*fallback=*/1,
                                              /*min=*/1, /*max=*/4096));
  if (w > nprocs) {
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true)) {
      std::fprintf(stderr, "o2k: O2K_WORKERS=%d exceeds the run's P=%d, clamping to P\n", w,
                   nprocs);
    }
    w = nprocs;
  }
  return w;
}

void Machine::add_barrier_hook(BarrierHookFn fn, void* ctx) {
  std::scoped_lock lk(hooks_mu_);
  for (const auto& [f, c] : barrier_hooks_)
    if (f == fn && c == ctx) return;
  barrier_hooks_.emplace_back(fn, ctx);
}

void Machine::run_barrier_hooks() {
  std::scoped_lock lk(hooks_mu_);
  for (const auto& [fn, ctx] : barrier_hooks_) fn(ctx);
}

void Machine::arm_checkpoint(std::string label, int occurrence, CheckpointFn fn) {
  O2K_REQUIRE(occurrence >= 1, "checkpoint occurrence is 1-based");
  O2K_REQUIRE(!label.empty(), "checkpoint label must be non-empty");
  cp_label_ = std::move(label);
  cp_occurrence_ = occurrence;
  cp_fn_ = std::move(fn);
  cp_fired_.store(false, std::memory_order_release);
  cp_armed_.store(true, std::memory_order_release);
}

void Machine::disarm_checkpoint() {
  cp_armed_.store(false, std::memory_order_release);
  cp_fn_ = nullptr;
  cp_label_.clear();
}

void Machine::checkpoint_point(Pe& pe, const char* label) {
  // Fast path: unarmed (or armed for a different marker) — zero clock
  // effect either way, so checkpoints may be sprinkled freely in app loops.
  if (!cp_armed_.load(std::memory_order_acquire)) return;
  if (cp_label_ != label) return;

  if (run_nprocs_ == 1) {
    if (++cp_seen_ == cp_occurrence_ && cp_fn_) {
      cp_fired_.store(true, std::memory_order_release);
      cp_fn_(*this, pe);
    }
    return;
  }

  auto& c = *checkpoint_;
  std::unique_lock lk(c.mu);
  const std::uint64_t my_gen = c.generation.load(std::memory_order_relaxed);
  if (++c.waiting == run_nprocs_) {
    c.waiting = 0;
    // Quiescence: every other PE has arrived and (on a single-worker fiber
    // host) context-switched out; the callback observes a frozen machine.
    if (++cp_seen_ == cp_occurrence_ && cp_fn_) {
      cp_fired_.store(true, std::memory_order_release);
      cp_fn_(*this, pe);
    }
    c.generation.store(my_gen + 1, std::memory_order_release);
    lk.unlock();
    wake_all_pes();
    return;
  }
  lk.unlock();
  pe.park_until([&] { return c.generation.load(std::memory_order_acquire) != my_gen; });
}

bool Machine::fork_safe(int rank) const {
  // Inline single-PE path: run() never spawned a thread.
  if (engine_ == nullptr) return run_nprocs_ == 1;
  // One host worker (the calling thread) and every other fiber suspended
  // means no concurrent execution exists to lose across fork(2).
  // (FiberEngine::run spawns workers()-1 threads.)
  return engine_->workers() == 1 && engine_->quiescent_except(rank);
}

void Machine::record_error(std::exception_ptr e) {
  {
    std::scoped_lock lk(error_mu_);
    if (!first_error_) first_error_ = e;
    aborted_.store(true, std::memory_order_relaxed);
  }
  // Unblock every parked PE; park_until rechecks aborted() and throws.
  // (The seq_cst epoch bump orders the aborted_ store before any woken
  // PE's re-check.)
  wake_all_pes();
}

void Machine::wake_pe(int rank) {
  if (engine_ != nullptr) engine_->wake(rank);
}

void Machine::wake_all_pes() {
  if (engine_ != nullptr) engine_->wake_all();
}

RunResult Machine::run(int nprocs, const std::function<void(Pe&)>& body) {
  O2K_REQUIRE(nprocs >= 1, "run needs at least one PE");
  O2K_REQUIRE(nprocs <= params_.max_pes,
              "requested more PEs than the modelled machine has");

  // Partition the run into synchronization domains (DESIGN.md §11).  The
  // map is fixed for the whole run and only affects host scheduling
  // (worker pinning, barrier staging) — every virtual-time value is derived
  // from published virtual state, so any domain count yields bit-identical
  // results.
  domain_map_ = DomainMap(nprocs, resolve_workers(nprocs), params_.pes_per_node);
  run_workers_ = domain_map_.domains();

  barrier_ = std::make_unique<BarrierState>();
  barrier_->stages.reserve(static_cast<std::size_t>(run_workers_));
  for (int d = 0; d < run_workers_; ++d)
    barrier_->stages.push_back(std::make_unique<BarrierState::Stage>());
  checkpoint_ = std::make_unique<CheckpointState>();
  cp_seen_ = 0;
  cp_fired_.store(false, std::memory_order_relaxed);
  run_nprocs_ = nprocs;
  aborted_.store(false, std::memory_order_relaxed);
  first_error_ = nullptr;
  {
    std::scoped_lock lk(hooks_mu_);
    barrier_hooks_.clear();
  }

  pes_.clear();
  pes_.reserve(static_cast<std::size_t>(nprocs));
  for (int r = 0; r < nprocs; ++r) {
    pes_.emplace_back(std::unique_ptr<Pe>(new Pe(r, nprocs, &params_, this)));
    pes_.back()->sink_ = sink_;
  }

  if (nprocs == 1) {
    // Fast path: run inline, no thread spawn and no fiber switch.
    try {
      body(*pes_[0]);
    } catch (...) {
      record_error(std::current_exception());
    }
  } else {
    // M:N fibers: P PE fibers over min(P, hardware_concurrency) workers.
    // The engine (and its mmap'd stacks) is pooled across runs.
    if (!engine_storage_) engine_storage_ = std::make_unique<exec::FiberEngine>();
    engine_ = engine_storage_.get();
    // Multi-domain runs pin each PE's fiber to its domain's worker; a
    // single domain keeps the work-shared queue (today's scheduler).
    exec::FiberEngine::Plan plan;
    if (run_workers_ > 1) {
      plan.workers = run_workers_;
      plan.affinity = domain_map_.affinity().data();
    }
    engine_->run(
        nprocs,
        [this, &body](int r) {
          try {
            body(*pes_[static_cast<std::size_t>(r)]);
          } catch (const AbortError&) {
            // Secondary failure caused by another PE's abort; ignore.
          } catch (...) {
            record_error(std::current_exception());
          }
        },
        plan);
    engine_ = nullptr;
  }

  if (first_error_) {
    barrier_.reset();
    std::rethrow_exception(first_error_);
  }

  RunResult out;
  out.nprocs = nprocs;
  out.pe_ns.reserve(static_cast<std::size_t>(nprocs));
  for (const auto& pe : pes_) {
    out.pe_ns.push_back(pe->now());
    out.makespan_ns = std::max(out.makespan_ns, pe->now());
    for (std::uint32_t id = 0; id < pe->stats_.phase_ns.size(); ++id) {
      if (pe->stats_.phase_seen[id])
        out.phases[NameRegistry::phases().name(id)].add_pe(pe->stats_.phase_ns[id]);
    }
    for (std::uint32_t id = 0; id < pe->stats_.counters.size(); ++id) {
      if (pe->stats_.counter_seen[id])
        out.counters[NameRegistry::counters().name(id)] += pe->stats_.counters[id];
    }
  }
  for (auto& [name, agg] : out.phases) agg.finalize(nprocs);
  barrier_.reset();
  return out;
}

}  // namespace o2k::rt
