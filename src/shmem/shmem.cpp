#include "shmem/shmem.hpp"

#include <algorithm>
#include <atomic>
#include <string>

#include "rt/state_capture.hpp"
#include "sanitize/sanitize.hpp"

namespace o2k::shmem {

namespace {

std::uint32_t phase_of(const rt::Pe& pe) {
  return pe.in_phase() ? pe.current_phase().v : UINT32_MAX;
}

}  // namespace

World::World(const origin::MachineParams& params, int nprocs, std::size_t heap_bytes)
    : params_(params), nprocs_(nprocs), heap_bytes_(heap_bytes) {
  O2K_REQUIRE(nprocs >= 1, "shmem::World needs at least one PE");
  O2K_REQUIRE(nprocs <= params.max_pes, "shmem::World larger than the machine");
  O2K_REQUIRE(heap_bytes >= 4096, "shmem: symmetric heap too small");
  heaps_.reserve(static_cast<std::size_t>(nprocs));
  // Zeroed (symmetric flags/locks start in a known state) yet lazily
  // committed, so untouched heap pages cost no physical memory.
  for (int r = 0; r < nprocs; ++r) heaps_.emplace_back(heap_bytes);
  if (auto* s = sanitize::active()) s->begin_shmem_world(nprocs);
  rt::StateRegistry::instance().add(this, &World::state_capture, "shmem.world");
}

World::~World() { rt::StateRegistry::instance().remove(this); }

void World::state_capture(void* world, rt::StateSink& sink) {
  // Rendezvous quiescence: no PE is mid-put, so the heaps are stable.
  auto& w = *static_cast<World*>(world);
  const std::size_t used = w.alloc_high_.load(std::memory_order_relaxed);
  sink.put_u64("shmem.nprocs", static_cast<std::uint64_t>(w.nprocs_));
  sink.put_u64("shmem.heap_bytes", w.heap_bytes_);
  sink.put_u64("shmem.alloc_high", used);
  for (int r = 0; r < w.nprocs_; ++r) {
    sink.put_u64("shmem.heap." + std::to_string(r) + ".digest",
                 rt::fnv1a(w.heaps_[static_cast<std::size_t>(r)].data(), used));
  }
}

Ctx::Ctx(World& world, rt::Pe& pe) : world_(world), pe_(pe) {
  O2K_REQUIRE(world.size() == pe.size(),
              "shmem::World size must match the Machine::run processor count");
  // Internal symmetric scratch for the reductions (same offsets on all PEs
  // because every Ctx performs these allocations first, in this order).
  red_slot_ = malloc<double>(1);
  red_result_ = malloc<double>(1);
  red_slot_i_ = malloc<std::int64_t>(1);
  red_result_i_ = malloc<std::int64_t>(1);
}

std::size_t Ctx::allocate(std::size_t bytes) {
  constexpr std::size_t kAlign = 64;
  const std::size_t off = (bump_ + kAlign - 1) & ~(kAlign - 1);
  O2K_REQUIRE(off + bytes <= world_.heap_bytes(),
              "shmem: symmetric heap exhausted — construct World with a larger heap");
  bump_ = off + bytes;
  world_.note_alloc(bump_);
  return off;
}

void Ctx::charge_put(std::size_t offset, std::size_t bytes, int target_pe, bool blocking) {
  const auto& P = world_.params();
  pe_.add_counter(c_puts_, 1);
  pe_.add_counter(c_bytes_, bytes);
  pe_.trace_send(target_pe, bytes);
  if (blocking) {
    pe_.advance(P.shmem_o_ns + static_cast<double>(bytes) / P.shmem_bw_bytes_per_ns);
  } else {
    pe_.advance(P.shmem_o_ns);
    pending_bw_ns_ += static_cast<double>(bytes) / P.shmem_bw_bytes_per_ns +
                      P.wire_ns(rank(), target_pe);
  }
  if (auto* s = sanitize::active()) {
    s->shmem_put(rank(), target_pe, offset, bytes, pe_.now(), phase_of(pe_));
  }
}

void Ctx::charge_get(std::size_t offset, std::size_t bytes, int target_pe) {
  const auto& P = world_.params();
  pe_.add_counter(c_gets_, 1);
  pe_.add_counter(c_bytes_, bytes);
  pe_.advance(P.shmem_o_ns + 2.0 * P.wire_ns(rank(), target_pe) +
              static_cast<double>(bytes) / P.shmem_bw_bytes_per_ns);
  pe_.trace_pull(target_pe, bytes);
  if (auto* s = sanitize::active()) {
    s->shmem_get(rank(), target_pe, offset, bytes, pe_.now(), phase_of(pe_));
  }
}

void Ctx::fence() {
  // Ordering point for the Hub's outgoing queue; small fixed cost.
  pe_.advance(world_.params().shmem_o_ns);
  if (auto* s = sanitize::active()) s->shmem_fence(rank());
}

void Ctx::quiet() {
  pe_.advance(world_.params().shmem_o_ns + pending_bw_ns_);
  pending_bw_ns_ = 0.0;
  if (auto* s = sanitize::active()) s->shmem_fence(rank());
}

std::int64_t Ctx::fetch_add(SymPtr<std::int64_t> target, std::int64_t v, int target_pe) {
  rma_check(target, 1, target_pe);
  const auto& P = world_.params();
  pe_.advance(P.shmem_atomic_ns + 2.0 * P.wire_ns(rank(), target_pe));
  pe_.add_counter(c_atomics_, 1);
  pe_.trace_pull(target_pe, sizeof(std::int64_t), /*in_matrix=*/false);
  std::scoped_lock lk(world_.atomic_mu(target_pe));
  auto* cell = reinterpret_cast<std::int64_t*>(heap(target_pe) + target.offset);
  const std::int64_t old = *cell;
  *cell = old + v;
  // Hook under atomic_mu_ so the sanitizer's RMW chain matches the actual
  // serialisation order of the cell.
  if (auto* s = sanitize::active()) {
    s->shmem_atomic(rank(), target_pe, target.offset, pe_.now(), phase_of(pe_));
  }
  return old;
}

std::int64_t Ctx::cswap(SymPtr<std::int64_t> target, std::int64_t expected,
                        std::int64_t desired, int target_pe) {
  rma_check(target, 1, target_pe);
  const auto& P = world_.params();
  pe_.advance(P.shmem_atomic_ns + 2.0 * P.wire_ns(rank(), target_pe));
  pe_.add_counter(c_atomics_, 1);
  pe_.trace_pull(target_pe, sizeof(std::int64_t), /*in_matrix=*/false);
  std::scoped_lock lk(world_.atomic_mu(target_pe));
  auto* cell = reinterpret_cast<std::int64_t*>(heap(target_pe) + target.offset);
  const std::int64_t old = *cell;
  if (old == expected) *cell = desired;
  if (auto* s = sanitize::active()) {
    s->shmem_atomic(rank(), target_pe, target.offset, pe_.now(), phase_of(pe_));
  }
  return old;
}

void Ctx::set_lock(SymPtr<std::int64_t> lock) {
  // Global lock convention: the cell lives on PE 0.
  double backoff_ns = 500.0;
  auto* cell = reinterpret_cast<std::int64_t*>(heap(0) + lock.offset);
  for (;;) {
    if (cswap(lock, 0, 1 + rank(), 0) == 0) return;
    pe_.advance(backoff_ns);  // virtual backoff
    backoff_ns = std::min(backoff_ns * 2.0, 16000.0);
    // Park until the holder's clear_lock zeroes the cell (and wakes every
    // PE); the retry cswap above recharges the attempt as before.
    pe_.park_until([&] {
      std::scoped_lock lk(world_.atomic_mu(0));
      return *cell == 0;
    });
  }
}

void Ctx::clear_lock(SymPtr<std::int64_t> lock) {
  const auto& P = world_.params();
  pe_.advance(P.shmem_atomic_ns + 2.0 * P.wire_ns(rank(), 0));
  {
    std::scoped_lock lk(world_.atomic_mu(0));
    auto* cell = reinterpret_cast<std::int64_t*>(heap(0) + lock.offset);
    O2K_CHECK(*cell == 1 + rank(), "shmem: clear_lock by non-owner");
    *cell = 0;
    // Release edge: the next winning cswap (an RMW on the same cell)
    // acquires everything the critical section published.
    if (auto* s = sanitize::active()) {
      s->shmem_release(rank(), 0, lock.offset, pe_.now(), phase_of(pe_));
    }
  }
  pe_.wake_all();  // any PE may be parked in set_lock
}

void Ctx::signal(SymPtr<Signal> cell, std::int64_t value, int target_pe) {
  rma_check(cell, 1, target_pe);
  const auto& P = world_.params();
  pe_.advance(P.shmem_o_ns);
  pe_.add_counter(c_signals_, 1);
  pe_.trace_send(target_pe, sizeof(Signal), /*in_matrix=*/false);
  auto* sig = reinterpret_cast<Signal*>(heap(target_pe) + cell.offset);
  // Release edge before the value store: a waiter that observes the value
  // is guaranteed to find the published history when it acquires.
  if (auto* s = sanitize::active()) {
    s->shmem_release(rank(), target_pe, cell.offset, pe_.now(), phase_of(pe_));
  }
  // Arrival time first, then the value with release ordering so the
  // waiter's acquire load sees a consistent pair.
  sig->arrival_ns = pe_.now() + P.wire_ns(rank(), target_pe);
  std::atomic_ref<std::int64_t>(sig->value).store(value, std::memory_order_release);
  pe_.wake(target_pe);
}

void Ctx::wait_signal(SymPtr<Signal> cell, std::int64_t expected) {
  auto* sig = reinterpret_cast<Signal*>(heap(rank()) + cell.offset);
  std::atomic_ref<std::int64_t> v(sig->value);
  pe_.park_until([&] { return v.load(std::memory_order_acquire) == expected; });
  // Virtual time: the wait resolves one local re-check after the
  // invalidation arrives (host wait time is irrelevant — deterministic).
  pe_.advance(60.0);
  pe_.sync_at_least(sig->arrival_ns);
  if (auto* s = sanitize::active()) s->shmem_acquire(rank(), rank(), cell.offset);
}

void Ctx::barrier_all() {
  quiet();  // SHMEM barrier implies completion of outstanding puts
  const auto& P = world_.params();
  if (auto* s = sanitize::active()) s->shmem_barrier_enter(rank());
  pe_.barrier(origin::MachineParams::tree_barrier_ns(size(), P.shmem_barrier_base_ns));
  if (auto* s = sanitize::active()) s->shmem_barrier_exit(rank());
}

double Ctx::reduce_combine(double v, bool is_max) {
  *local(red_slot_) = v;
  barrier_all();
  if (rank() == 0) {
    double acc = is_max ? get_value(red_slot_, 0) : 0.0;
    for (int p = 0; p < size(); ++p) {
      const double x = get_value(red_slot_, p);
      if (is_max) {
        acc = std::max(acc, x);
      } else {
        acc += x;
      }
    }
    for (int p = 0; p < size(); ++p) put_value(red_result_, acc, p);
  }
  barrier_all();
  return *local(red_result_);
}

std::int64_t Ctx::reduce_combine_i(std::int64_t v, bool is_max) {
  *local(red_slot_i_) = v;
  barrier_all();
  if (rank() == 0) {
    std::int64_t acc = is_max ? get_value(red_slot_i_, 0) : 0;
    for (int p = 0; p < size(); ++p) {
      const std::int64_t x = get_value(red_slot_i_, p);
      if (is_max) {
        acc = std::max(acc, x);
      } else {
        acc += x;
      }
    }
    for (int p = 0; p < size(); ++p) put_value(red_result_i_, acc, p);
  }
  barrier_all();
  return *local(red_result_i_);
}

double Ctx::sum_to_all(double v) { return reduce_combine(v, /*is_max=*/false); }
std::int64_t Ctx::sum_to_all(std::int64_t v) { return reduce_combine_i(v, false); }
double Ctx::max_to_all(double v) { return reduce_combine(v, /*is_max=*/true); }
std::int64_t Ctx::max_to_all(std::int64_t v) { return reduce_combine_i(v, true); }

}  // namespace o2k::shmem
