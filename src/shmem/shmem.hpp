// SHMEM — the one-sided "data passing" programming model.
//
// Mirrors the Cray/SGI SHMEM library the paper's middle model uses: a
// *symmetric heap* (every PE allocates the same objects at the same offsets,
// so a local pointer plus a PE number names remote memory), one-sided
// put/get that involve only the initiator, memory-ordering fences, remote
// atomics, and a fast hardware-assisted barrier.
//
// Cost model (MachineParams):
//   put  (blocking): initiator busy  shmem_o + bytes/bw; data is visible
//                    remotely after wire latency — callers order visibility
//                    with fence/quiet/barrier_all exactly as real SHMEM
//                    requires.
//   put_nbi:         initiator busy  shmem_o only; bandwidth is charged in
//                    aggregate at quiet().
//   get  (blocking): initiator busy  shmem_o + 2*wire + bytes/bw (round trip).
//   atomics:         shmem_atomic + 2*wire round trip.
//   barrier_all:     log2(P) * shmem_barrier_base (hardware fetch-op tree).
//
// Data correctness between PEs relies on the app's synchronisation, exactly
// as on the real machine: the host backing store *is* shared memory, and a
// racy get concurrent with a put is an application bug here as there.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <mutex>
#include <span>
#include <type_traits>
#include <vector>

#include "common/bytes.hpp"
#include "common/check.hpp"
#include "common/region.hpp"
#include "rt/machine.hpp"

namespace o2k::rt {
class StateSink;
}  // namespace o2k::rt

namespace o2k::shmem {

/// Handle to a symmetric allocation: an offset valid on every PE's heap.
template <typename T>
struct SymPtr {
  std::size_t offset = 0;
  std::size_t count = 0;

  /// Element-offset arithmetic (stays within the allocation by contract).
  [[nodiscard]] SymPtr<T> at(std::size_t index) const {
    O2K_REQUIRE(index <= count, "SymPtr::at out of range");
    return SymPtr<T>{offset + index * sizeof(T), count - index};
  }
};

/// Shared state of one SHMEM job: the symmetric heaps of all PEs.
/// Construct before Machine::run; one run at a time.
class World {
 public:
  World(const origin::MachineParams& params, int nprocs,
        std::size_t heap_bytes = std::size_t{64} << 20);
  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  [[nodiscard]] int size() const { return nprocs_; }
  [[nodiscard]] const origin::MachineParams& params() const { return params_; }
  [[nodiscard]] std::size_t heap_bytes() const { return heap_bytes_; }

 private:
  friend class Ctx;

  /// Record a PE's symmetric bump-pointer high-water mark.  The heaps are
  /// zero and lazily committed; checkpoint capture digests only
  /// [0, alloc_high_) so untouched pages are neither hashed nor faulted in.
  void note_alloc(std::size_t high) {
    std::size_t cur = alloc_high_.load(std::memory_order_relaxed);
    while (high > cur &&
           !alloc_high_.compare_exchange_weak(cur, high, std::memory_order_relaxed)) {
    }
  }

  // Checkpoint state capture (rt::StateRegistry callback).
  static void state_capture(void* world, rt::StateSink& sink);

  /// Serialises remote atomic ops (NACK-free Hub model), sharded by the
  /// target cell's home *node*: on the real machine each Hub serialises the
  /// fetch-ops addressed at its own memory, so atomics aimed at different
  /// nodes — hence different synchronization domains, which never split a
  /// node — must not contend on one host lock.  A given cell always lives
  /// on one node and therefore always maps to the same shard, preserving
  /// the per-cell RMW serialisation the sanitizer hooks rely on.  Each
  /// shard sits on its own cache line: neighbouring nodes usually live in
  /// different synchronization domains, so adjacent locks are hammered by
  /// different host workers and must not false-share.
  static constexpr std::size_t kAtomicShards = 64;
  struct alignas(64) AtomicShard {
    std::mutex mu;
  };
  [[nodiscard]] std::mutex& atomic_mu(int target_pe) {
    return atomic_mu_[static_cast<std::size_t>(params_.node_of(target_pe)) % kAtomicShards].mu;
  }

  const origin::MachineParams& params_;
  int nprocs_;
  std::size_t heap_bytes_;
  std::vector<common::ZeroedRegion> heaps_;
  std::atomic<std::size_t> alloc_high_{0};
  std::array<AtomicShard, kAtomicShards> atomic_mu_;
};

/// Per-PE SHMEM context.
class Ctx {
 public:
  Ctx(World& world, rt::Pe& pe);

  [[nodiscard]] int rank() const { return pe_.rank(); }
  [[nodiscard]] int size() const { return pe_.size(); }
  [[nodiscard]] rt::Pe& pe() { return pe_; }

  /// Symmetric allocation.  Collective in the SHMEM sense: every PE must
  /// perform the same sequence of allocations (checked via offsets).
  template <typename T>
  SymPtr<T> malloc(std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::size_t bytes = count * sizeof(T);
    const std::size_t off = allocate(bytes);
    return SymPtr<T>{off, count};
  }

  /// Local address of a symmetric object on *this* PE.
  template <typename T>
  [[nodiscard]] T* local(SymPtr<T> p) {
    return reinterpret_cast<T*>(heap(rank()) + p.offset);
  }
  template <typename T>
  [[nodiscard]] std::span<T> local_span(SymPtr<T> p) {
    return {local(p), p.count};
  }

  // ---- one-sided RMA ------------------------------------------------------
  template <typename T>
  void put(SymPtr<T> dst, std::span<const T> src, int target_pe) {
    rma_check<T>(dst, src.size(), target_pe);
    charge_put(dst.offset, src.size_bytes(), target_pe, /*blocking=*/true);
    copy_bytes(heap(target_pe) + dst.offset, src.data(), src.size_bytes());
  }
  template <typename T>
  void put_value(SymPtr<T> dst, const T& v, int target_pe) {
    put(dst, std::span<const T>(&v, 1), target_pe);
  }
  /// Non-blocking-implicit put: bandwidth is charged at quiet().
  template <typename T>
  void put_nbi(SymPtr<T> dst, std::span<const T> src, int target_pe) {
    rma_check<T>(dst, src.size(), target_pe);
    charge_put(dst.offset, src.size_bytes(), target_pe, /*blocking=*/false);
    copy_bytes(heap(target_pe) + dst.offset, src.data(), src.size_bytes());
  }
  template <typename T>
  void get(std::span<T> dst, SymPtr<T> src, int target_pe) {
    rma_check<T>(src, dst.size(), target_pe);
    charge_get(src.offset, dst.size_bytes(), target_pe);
    copy_bytes(dst.data(), heap(target_pe) + src.offset, dst.size_bytes());
  }
  template <typename T>
  [[nodiscard]] T get_value(SymPtr<T> src, int target_pe) {
    T v{};
    get(std::span<T>(&v, 1), src, target_pe);
    return v;
  }

  /// Ensure ordering of prior puts (cheap: pipeline drain).
  void fence();
  /// Ensure completion of all outstanding puts (charges deferred bandwidth).
  void quiet();

  // ---- remote atomics -----------------------------------------------------
  std::int64_t fetch_add(SymPtr<std::int64_t> target, std::int64_t v, int target_pe);
  /// Compare-and-swap; returns the value observed before the swap.
  std::int64_t cswap(SymPtr<std::int64_t> target, std::int64_t expected, std::int64_t desired,
                     int target_pe);

  /// Simple distributed lock over a symmetric int64 cell (test-and-set with
  /// exponential *virtual* backoff charged to the spinning PE).
  void set_lock(SymPtr<std::int64_t> lock);
  void clear_lock(SymPtr<std::int64_t> lock);

  // ---- point-to-point synchronisation (shmem_wait_until style) ------------
  /// A symmetric flag cell carrying its virtual delivery time.
  struct Signal {
    std::int64_t value = 0;
    double arrival_ns = 0.0;
  };
  /// Deliver `value` into `cell` on `target_pe` (a put + fence); the waiter
  /// observes it no earlier than the put's virtual arrival.
  void signal(SymPtr<Signal> cell, std::int64_t value, int target_pe);
  /// Spin on the *local* cell until it holds `expected`; the caller's clock
  /// advances to at least the signal's arrival plus poll overhead.
  void wait_signal(SymPtr<Signal> cell, std::int64_t expected);

  // ---- collectives ----------------------------------------------------------
  void barrier_all();

  template <typename T>
  void broadcast(SymPtr<T> data, std::size_t count, int root) {
    barrier_all();
    if (rank() != root) {
      get(std::span<T>(local(data), count), data, root);
    }
    barrier_all();
  }

  /// Gather equal-size blocks from every PE into `dst` (count elements per
  /// PE, concatenated in PE order) on all PEs — SHMEM fcollect.
  template <typename T>
  void fcollect(SymPtr<T> dst, SymPtr<T> src, std::size_t count) {
    O2K_REQUIRE(dst.count >= count * static_cast<std::size_t>(size()),
                "shmem: fcollect destination too small");
    quiet();
    for (int t = 0; t < size(); ++t) {
      const int target = (rank() + t) % size();  // stagger to spread traffic
      put_nbi(dst.at(static_cast<std::size_t>(rank()) * count),
              std::span<const T>(local(src), count), target);
    }
    quiet();
    barrier_all();
  }

  /// Deterministic sum-reduction to every PE (rank-ordered combine at PE 0).
  double sum_to_all(double v);
  std::int64_t sum_to_all(std::int64_t v);
  double max_to_all(double v);
  std::int64_t max_to_all(std::int64_t v);

 private:
  template <typename T>
  void rma_check(SymPtr<T> p, std::size_t count, int target_pe) const {
    O2K_REQUIRE(target_pe >= 0 && target_pe < size(), "shmem: invalid target PE");
    O2K_REQUIRE(count <= p.count, "shmem: RMA exceeds symmetric allocation");
    O2K_REQUIRE(p.offset + count * sizeof(T) <= world_.heap_bytes(),
                "shmem: RMA outside the symmetric heap");
  }

  std::size_t allocate(std::size_t bytes);

  [[nodiscard]] std::byte* heap(int pe) const {
    return world_.heaps_[static_cast<std::size_t>(pe)].data();
  }
  void charge_put(std::size_t offset, std::size_t bytes, int target_pe, bool blocking);
  void charge_get(std::size_t offset, std::size_t bytes, int target_pe);
  double reduce_combine(double v, bool is_max);
  std::int64_t reduce_combine_i(std::int64_t v, bool is_max);

  // Interned counter ids, resolved once per Ctx so per-RMA accounting never
  // hashes or allocates a name.
  rt::CounterId c_puts_{"shmem.puts"};
  rt::CounterId c_gets_{"shmem.gets"};
  rt::CounterId c_bytes_{"shmem.bytes"};
  rt::CounterId c_atomics_{"shmem.atomics"};
  rt::CounterId c_signals_{"shmem.signals"};

  World& world_;
  rt::Pe& pe_;
  std::size_t bump_ = 0;           ///< local bump pointer (symmetric by discipline)
  double pending_bw_ns_ = 0.0;     ///< deferred put bandwidth (charged at quiet)
  SymPtr<double> red_slot_{};      ///< internal reduction scratch (per PE)
  SymPtr<double> red_result_{};
  SymPtr<std::int64_t> red_slot_i_{};
  SymPtr<std::int64_t> red_result_i_{};
};

}  // namespace o2k::shmem
