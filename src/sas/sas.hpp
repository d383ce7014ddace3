// CC-SAS — the cache-coherent shared-address-space programming model.
//
// In this model communication is *implicit*: PEs read and write a shared
// heap, and the hardware (here: a cost simulator) moves cache lines.  The
// backing store really is shared host memory, so data movement is free and
// correct by construction; what the simulator adds is the *virtual-time
// premium* of each access:
//
//   * a per-PE direct-mapped L2 tag/version cache (4 MB, 128 B lines);
//   * page-granularity homes (first-touch, round-robin or block placement)
//     — a miss on a remotely-homed page pays the NUMA round trip;
//   * an invalidation-based coherence approximation with *delayed commit*:
//     every line has a committed version and committed last-writer, both
//     updated only at barriers.  Within an epoch (the code between two
//     barriers) writers record themselves in an order-independent per-line
//     epoch-writer cell (sole writer r, or "multiple"); the barrier commit
//     — run by the releasing PE before any waiter resumes — bumps the
//     committed version (+1 sole, +2 multiple, so a sole writer's cached
//     copy survives the epoch and everyone else's goes stale) and installs
//     the committed writer.  A cached copy whose committed version is stale
//     counts as a miss, and writing a line whose committed writer is a
//     different PE pays an ownership-transfer premium.  False sharing
//     therefore emerges naturally, and — unlike an eagerly-published
//     version counter — every charge is a function of barrier-separated
//     state, so CC-SAS virtual times are bit-identical across runs and
//     worker counts regardless of host scheduling.  First-touch page
//     homes commit the same way (minimum claiming rank wins; claimants
//     treat the page as local during the claiming epoch).  The one
//     remaining host-order-dependent primitive is Team::lock, whose
//     virtual-time serialisation follows host lock order (none of the
//     shipped SAS apps use it between barriers with timing-visible
//     effects; see DESIGN.md §4).
//
// Only the *premium* over a local miss is charged: the average local memory
// behaviour is already folded into the kernel work constants, so MP, SHMEM
// and CC-SAS charge identical compute for identical work (DESIGN.md §2).
//
// Team also provides the synchronisation the paper's SAS codes use:
// barriers, locks (virtual-time serialised), deterministic reductions, and
// static/dynamic parallel loops.  Dynamic scheduling dispatches chunks in
// *virtual-time order* (the PE whose clock is least gets the next chunk,
// ties broken by rank), which is what real self-scheduling achieves in real
// time — and because the tie-break is total, the chunk→PE assignment is a
// pure function of virtual time, bit-reproducible across schedules.
#pragma once

#include <atomic>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <type_traits>
#include <vector>

#include "common/check.hpp"
#include "common/region.hpp"
#include "rt/machine.hpp"

namespace o2k::rt {
class StateSink;
}  // namespace o2k::rt

namespace o2k::sas {

enum class Placement {
  kFirstTouch,   ///< page home = node of first touching PE (IRIX default)
  kRoundRobin,   ///< pages dealt across PEs at allocation
  kBlock,        ///< contiguous page blocks per PE at allocation
};

/// Handle to a shared allocation (byte offset into the World arena).
template <typename T>
struct SharedArray {
  std::size_t offset = 0;
  std::size_t count = 0;
};

/// The shared heap plus global coherence metadata.  Construct before
/// Machine::run; allocate arrays during (serial) setup; one run at a time.
class World {
 public:
  World(const origin::MachineParams& params, int nprocs,
        std::size_t arena_bytes = std::size_t{256} << 20,
        Placement default_placement = Placement::kFirstTouch);
  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  [[nodiscard]] int size() const { return nprocs_; }
  [[nodiscard]] const origin::MachineParams& params() const { return params_; }
  [[nodiscard]] Placement default_placement() const { return placement_; }

  /// Allocate a shared array (not thread-safe: call from setup code only).
  /// `name`, when given, labels the region in sanitizer findings.
  template <typename T>
  SharedArray<T> alloc(std::size_t count, const char* name = nullptr) {
    return alloc<T>(count, placement_, name);
  }
  template <typename T>
  SharedArray<T> alloc(std::size_t count, Placement placement, const char* name = nullptr) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::size_t off = allocate(count * sizeof(T), placement, name);
    return SharedArray<T>{off, count};
  }

  /// Raw pointer into the arena — used by setup code and by Team accessors.
  template <typename T>
  [[nodiscard]] T* data(const SharedArray<T>& a) {
    return reinterpret_cast<T*>(arena_.data() + a.offset);
  }
  template <typename T>
  [[nodiscard]] std::span<T> span(const SharedArray<T>& a) {
    return {data(a), a.count};
  }

  /// Number of lock cells available to Team::lock.
  static constexpr int kNumLocks = 1024;

  /// Reset all page homes of an allocation to "untouched" so a subsequent
  /// parallel phase re-establishes first-touch placement.
  template <typename T>
  void reset_homes(const SharedArray<T>& a) {
    reset_homes_bytes(a.offset, a.count * sizeof(T));
  }
  void reset_homes_bytes(std::size_t offset, std::size_t bytes);

  [[nodiscard]] std::size_t arena_bytes() const { return arena_bytes_; }

 private:
  friend class Team;
  std::size_t allocate(std::size_t bytes, Placement placement, const char* name = nullptr);

  // Checkpoint state capture (rt::StateRegistry callback): committed
  // coherence metadata + the used arena prefix, digested deterministically.
  static void state_capture(void* world, rt::StateSink& sink);

  const origin::MachineParams& params_;
  int nprocs_;
  Placement placement_;
  std::size_t arena_bytes_;
  std::size_t bump_ = 0;
  common::ZeroedRegion arena_;

  std::size_t num_pages_ = 0;
  std::size_t num_lines_ = 0;
  int rr_next_ = 0;  ///< round-robin placement cursor

  // Per-PE epoch logs: which lines/pages this PE must commit at the next
  // barrier.  Exactly one PE logs each dirty line (the -1 -> r claimant)
  // and each claimed page (the -1 -> r CAS winner), so commit visits each
  // exactly once.
  struct alignas(128) EpochLog {
    std::vector<std::size_t> lines;
    std::vector<std::size_t> pages;
  };

  // Reduction scratch (one cacheline-padded slot per PE).
  struct alignas(128) RedSlot {
    double d;
    std::int64_t i;
  };

  // ---- directory -----------------------------------------------------------
  // The page table and per-line coherence metadata, indexed by global page
  // and line.  Committed home / version / writer mutate only in serial
  // context or at barrier commit; `page_claim_` and `epoch_writer_` are the
  // only concurrently-mutated cells (-1 none, rank r, -2 multiple writers
  // for lines; minimum claiming rank wins for pages) and their per-epoch
  // outcome is order-independent.
  std::unique_ptr<std::atomic<int>[]> page_home_;
  std::unique_ptr<std::atomic<int>[]> page_claim_;
  std::vector<std::uint32_t> commit_ver_;
  std::vector<int> commit_writer_;
  std::unique_ptr<std::atomic<int>[]> epoch_writer_;
  std::vector<EpochLog> logs_;  ///< [rank]
  std::vector<RedSlot> red_;    ///< [rank]

  [[nodiscard]] EpochLog& epoch_log(int r) { return logs_[static_cast<std::size_t>(r)]; }
  [[nodiscard]] RedSlot& red(int r) { return red_[static_cast<std::size_t>(r)]; }

  void commit_epoch();
  static void commit_epoch_hook(void* world);

  // Locks: virtual-time serialisation state per lock id.
  struct LockCell {
    std::mutex mu;
    double last_release_ns = 0.0;
  };
  std::vector<LockCell> locks_{kNumLocks};

  // Dynamic-loop dispatcher state.  Waiting PEs park on their Machine wait
  // slots; `min_wait_clock` is the smallest entry clock among PEs in state
  // 1 (+inf when none), maintained under `mu`.  A busy PE whose mirrored
  // clock crosses it (Team::mirror_clock) wakes the team so waiters
  // re-evaluate the virtual-time dispatch order — the event that the old
  // implementation discovered by polling.
  struct Dispatch {
    std::mutex mu;
    std::size_t next = 0;
    std::size_t end = 0;
    std::uint64_t epoch = 0;
    std::atomic<double> min_wait_clock{std::numeric_limits<double>::infinity()};
  };
  Dispatch dispatch_;
  // Mirrored clocks, one per cache line: Team::mirror_clock exchanges its
  // PE's slot after every touch walk, and on the shared queue any host
  // thread runs any PE, so packed slots would bounce between threads.
  struct alignas(64) ClockSlot {
    std::atomic<double> t{0.0};
  };
  std::unique_ptr<ClockSlot[]> pe_clock_;
  [[nodiscard]] std::atomic<double>& pe_clock(int r) {
    return pe_clock_[static_cast<std::size_t>(r)].t;
  }
  std::unique_ptr<std::atomic<int>[]> pe_state_;      ///< 0 busy, 1 waiting, 2 done
};

/// Per-PE handle to the shared-address-space machine.
class Team {
 public:
  Team(World& world, rt::Pe& pe);
  ~Team();

  [[nodiscard]] int rank() const { return pe_.rank(); }
  [[nodiscard]] int size() const { return pe_.size(); }
  [[nodiscard]] rt::Pe& pe() { return pe_; }
  [[nodiscard]] World& world() { return world_; }

  // ---- charged accesses -----------------------------------------------
  /// Charge a read of `bytes` starting at arena offset `off`.
  void touch_read(std::size_t off, std::size_t bytes);
  void touch_write(std::size_t off, std::size_t bytes);

  template <typename T>
  [[nodiscard]] T read(const SharedArray<T>& a, std::size_t i) {
    O2K_REQUIRE(i < a.count, "sas: read out of range");
    touch_read(a.offset + i * sizeof(T), sizeof(T));
    return world_.data(a)[i];
  }
  template <typename T>
  void write(const SharedArray<T>& a, std::size_t i, const T& v) {
    O2K_REQUIRE(i < a.count, "sas: write out of range");
    touch_write(a.offset + i * sizeof(T), sizeof(T));
    world_.data(a)[i] = v;
  }
  /// Charged bulk region accessors (for streaming loops).
  template <typename T>
  void touch_read_range(const SharedArray<T>& a, std::size_t first, std::size_t n) {
    O2K_REQUIRE(first + n <= a.count, "sas: range out of bounds");
    touch_read(a.offset + first * sizeof(T), n * sizeof(T));
  }
  template <typename T>
  void touch_write_range(const SharedArray<T>& a, std::size_t first, std::size_t n) {
    O2K_REQUIRE(first + n <= a.count, "sas: range out of bounds");
    touch_write(a.offset + first * sizeof(T), n * sizeof(T));
  }

  /// Field-annotated variants: the virtual-time charge is identical to
  /// touch_*_range over the same span (bit-identical clocks with or without
  /// the annotation), but the sanitizer is told that only the bytes
  /// [foff, foff+flen) of each element are accessed.  SPLASH-style kernels
  /// read one half of a struct while a concurrent owner writes the other
  /// half; without the annotation that is an apparent (false) race.
  template <typename T>
  void touch_read_fields(const SharedArray<T>& a, std::size_t first, std::size_t n,
                         std::size_t foff, std::size_t flen) {
    O2K_REQUIRE(first + n <= a.count, "sas: range out of bounds");
    O2K_REQUIRE(foff + flen <= sizeof(T), "sas: field annotation outside element");
    touch_read_ann(a.offset + first * sizeof(T), n * sizeof(T), sizeof(T), foff, flen,
                   /*atomic=*/false);
  }
  template <typename T>
  void touch_write_fields(const SharedArray<T>& a, std::size_t first, std::size_t n,
                          std::size_t foff, std::size_t flen) {
    O2K_REQUIRE(first + n <= a.count, "sas: range out of bounds");
    O2K_REQUIRE(foff + flen <= sizeof(T), "sas: field annotation outside element");
    touch_write_ann(a.offset + first * sizeof(T), n * sizeof(T), sizeof(T), foff, flen,
                    /*atomic=*/false);
  }

  /// Atomic-annotated (synchronising) accesses: same charge as the plain
  /// variants; the sanitizer treats them as hardware atomics — no race
  /// between two atomics, and each overlapped 8-byte word carries an
  /// acquire/release edge (writer publishes, reader observes).
  void touch_read_atomic(std::size_t off, std::size_t bytes) {
    touch_read_ann(off, bytes, 0, 0, 0, /*atomic=*/true);
  }
  void touch_write_atomic(std::size_t off, std::size_t bytes) {
    touch_write_ann(off, bytes, 0, 0, 0, /*atomic=*/true);
  }

  // ---- synchronisation ----------------------------------------------------
  void barrier();
  /// Hash a resource id onto one of World::kNumLocks lock cells.
  void lock(std::size_t id);
  void unlock(std::size_t id);

  /// Deterministic reductions (every PE reads all slots in rank order).
  double reduce_sum(double v);
  std::int64_t reduce_sum(std::int64_t v);
  double reduce_max(double v);

  // ---- parallel loops -------------------------------------------------------
  /// Static block schedule: calls fn(i) for this PE's contiguous share.
  template <typename Fn>
  void parallel_for_static(std::size_t begin, std::size_t end, Fn&& fn) {
    const auto [lo, hi] = static_range(begin, end);
    for (std::size_t i = lo; i < hi; ++i) fn(i);
  }
  [[nodiscard]] std::pair<std::size_t, std::size_t> static_range(std::size_t begin,
                                                                 std::size_t end) const;

  /// Dynamic self-scheduling with virtual-time-ordered chunk dispatch.
  /// Collective: every PE must call with identical arguments.  fn(i) runs
  /// once for every i in [begin, end); chunk→PE assignment follows virtual
  /// clocks.  An implicit barrier ends the loop.
  template <typename Fn>
  void parallel_for_dynamic(std::size_t begin, std::size_t end, std::size_t chunk, Fn&& fn) {
    dynamic_begin(begin, end);
    for (;;) {
      const auto [lo, hi] = dynamic_next(chunk);
      if (lo >= hi) break;
      for (std::size_t i = lo; i < hi; ++i) fn(i);
    }
    dynamic_end();
  }

 private:
  [[nodiscard]] bool is_local(int home_pe) const {
    return world_.params().node_of(home_pe) == world_.params().node_of(rank());
  }
  int page_home_for(std::size_t page);

  // Tracing scratch for one touch: per-home remote line counts, flushed in
  // ascending home order (matching the former std::map's iteration order).
  void note_remote_line(int home) {
    if (trace_lines_by_home_[static_cast<std::size_t>(home)] == 0) trace_homes_.push_back(home);
    ++trace_lines_by_home_[static_cast<std::size_t>(home)];
  }
  void emit_remote_traces();

  // The real touch walks: charge + coherence update, then (only when a
  // sanitizer is installed) report the access with its annotation.
  void touch_read_ann(std::size_t off, std::size_t bytes, std::size_t elem,
                      std::size_t foff, std::size_t flen, bool atomic);
  void touch_write_ann(std::size_t off, std::size_t bytes, std::size_t elem,
                       std::size_t foff, std::size_t flen, bool atomic);

  void dynamic_begin(std::size_t begin, std::size_t end);
  std::pair<std::size_t, std::size_t> dynamic_next(std::size_t chunk);
  void dynamic_end();
  void mirror_clock();
  void wake_next_waiter();

  World& world_;
  rt::Pe& pe_;

  // Direct-mapped cache: tag + cached (committed) version per set.
  std::vector<std::uint64_t> tag_;
  std::vector<std::uint32_t> cached_version_;
  std::size_t num_sets_;

  // Lines this PE wrote in the current epoch, stamped with the PE's
  // barrier count + 1 so a barrier invalidates all stamps at once.
  // One std::uint32_t per arena line.  Pages commit lazily, so footprint
  // tracks the lines this PE actually writes, not the arena size.  Drives
  // the "my dirty copy is still valid" hit rule and the once-per-epoch
  // writer claim — both functions of this PE's own program only, never of
  // host interleaving.
  common::ZeroedRegion wrote_line_;

  // Cached geometry and per-home cost tables (resolved once per Team so the
  // touch walk does no params indirection, division by non-constants, or
  // node_of arithmetic per line).  `read_premium_by_pe_[h]` is the exact
  // double remote_read_premium_ns(rank, h) would return, so hoisting it
  // keeps accumulated premiums bit-identical.
  std::size_t line_bytes_ = 0;
  std::size_t page_bytes_ = 0;
  std::size_t sets_mask_ = 0;  ///< num_sets_ - 1 when a power of two, else 0
  // Shift-based address arithmetic, valid when line and page sizes are
  // powers of two (the Origin2000 geometry): byte->line is >> line_shift_,
  // line->page is >> page_line_shift_.
  bool geom_shifts_ = false;
  unsigned line_shift_ = 0;
  unsigned page_line_shift_ = 0;
  double ownership_extra_ns_ = 0.0;
  std::vector<double> read_premium_by_pe_;
  std::vector<std::uint8_t> remote_by_pe_;  ///< 1 when that home is off-node
  std::vector<std::uint64_t> trace_lines_by_home_;
  std::vector<int> trace_homes_;

  // Interned counter ids, resolved once per Team so per-touch accounting
  // never hashes or allocates a name.
  rt::CounterId c_read_misses_{"sas.read_misses"};
  rt::CounterId c_remote_misses_{"sas.remote_misses"};
  rt::CounterId c_write_misses_{"sas.write_misses"};
  rt::CounterId c_ownership_{"sas.ownership_transfers"};
  rt::CounterId c_locks_{"sas.locks"};
};

}  // namespace o2k::sas
