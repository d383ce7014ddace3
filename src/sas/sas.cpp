#include "sas/sas.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "rt/state_capture.hpp"
#include "sanitize/sanitize.hpp"

namespace o2k::sas {

namespace {

/// The reporting PE's interned phase id, or the "no phase" sentinel.
std::uint32_t phase_of(const rt::Pe& pe) {
  return pe.in_phase() ? pe.current_phase().v : UINT32_MAX;
}

}  // namespace

World::World(const origin::MachineParams& params, int nprocs, std::size_t arena_bytes,
             Placement default_placement)
    : params_(params),
      nprocs_(nprocs),
      placement_(default_placement),
      arena_bytes_(arena_bytes),
      arena_(arena_bytes) {
  O2K_REQUIRE(nprocs >= 1, "sas::World needs at least one PE");
  O2K_REQUIRE(nprocs <= params.max_pes, "sas::World larger than the machine");
  O2K_REQUIRE(arena_bytes >= static_cast<std::size_t>(params.page_bytes),
              "sas: arena smaller than one page");

  const auto page_b = static_cast<std::size_t>(params.page_bytes);
  const auto line_b = static_cast<std::size_t>(params.cache_line_bytes);
  num_pages_ = (arena_bytes + page_b - 1) / page_b;
  num_lines_ = (arena_bytes + line_b - 1) / line_b;

  page_home_.reset(new std::atomic<int>[num_pages_]);
  page_claim_.reset(new std::atomic<int>[num_pages_]);
  for (std::size_t p = 0; p < num_pages_; ++p) {
    page_home_[p].store(-1, std::memory_order_relaxed);
    page_claim_[p].store(-1, std::memory_order_relaxed);
  }
  commit_ver_.assign(num_lines_, 0);
  commit_writer_.assign(num_lines_, -1);
  epoch_writer_.reset(new std::atomic<int>[num_lines_]);
  for (std::size_t l = 0; l < num_lines_; ++l) {
    epoch_writer_[l].store(-1, std::memory_order_relaxed);
  }
  logs_.resize(static_cast<std::size_t>(nprocs));
  red_.resize(static_cast<std::size_t>(nprocs));
  pe_clock_ = std::make_unique<ClockSlot[]>(static_cast<std::size_t>(nprocs));
  pe_state_.reset(new std::atomic<int>[static_cast<std::size_t>(nprocs)]);
  for (int r = 0; r < nprocs; ++r) {
    pe_state_[static_cast<std::size_t>(r)].store(0, std::memory_order_relaxed);
  }
  if (auto* s = sanitize::active()) s->begin_sas_world(nprocs);
  rt::StateRegistry::instance().add(this, &World::state_capture, "sas.world");
}

World::~World() { rt::StateRegistry::instance().remove(this); }

void World::state_capture(void* world, rt::StateSink& sink) {
  // Runs at checkpoint-rendezvous quiescence (every PE parked, one host
  // thread), always just after a barrier committed the epoch, so the
  // committed arrays and the arena are stable and plain reads are safe.
  auto& w = *static_cast<World*>(world);
  sink.put_u64("sas.nprocs", static_cast<std::uint64_t>(w.nprocs_));
  sink.put_u64("sas.bump", w.bump_);
  sink.put_u64("sas.pages", w.num_pages_);
  sink.put_u64("sas.lines", w.num_lines_);

  std::uint64_t h = 14695981039346656037ULL;
  for (std::size_t p = 0; p < w.num_pages_; ++p) {
    const int home = w.page_home_[p].load(std::memory_order_relaxed);
    h = rt::fnv1a(&home, sizeof home, h);
  }
  sink.put_u64("sas.page_home.digest", h);
  sink.put_u64("sas.line_ver.digest",
               rt::fnv1a(w.commit_ver_.data(), w.commit_ver_.size() * sizeof(std::uint32_t)));
  sink.put_u64("sas.line_writer.digest",
               rt::fnv1a(w.commit_writer_.data(), w.commit_writer_.size() * sizeof(int)));
  // Only the allocated prefix: the rest of the arena is untouched
  // zeros whose pages never committed; digesting them would fault them in.
  sink.put_u64("sas.arena.digest", rt::fnv1a(w.arena_.data(), w.bump_));
}

std::size_t World::allocate(std::size_t bytes, Placement placement, const char* name) {
  const auto page = static_cast<std::size_t>(params_.page_bytes);
  // Page-align every allocation so placement policies own whole pages.
  const std::size_t off = (bump_ + page - 1) & ~(page - 1);
  O2K_REQUIRE(off + bytes <= arena_bytes_,
              "sas: arena exhausted — construct World with a larger arena");
  bump_ = off + bytes;

  const std::size_t first_page = off / page;
  const std::size_t npages = (bytes + page - 1) / page;
  switch (placement) {
    case Placement::kFirstTouch:
      break;  // homes stay -1 until first touch
    case Placement::kRoundRobin:
      for (std::size_t p = 0; p < npages; ++p) {
        page_home_[first_page + p].store(rr_next_, std::memory_order_relaxed);
        rr_next_ = (rr_next_ + 1) % nprocs_;
      }
      break;
    case Placement::kBlock:
      for (std::size_t p = 0; p < npages; ++p) {
        const int home = static_cast<int>(p * static_cast<std::size_t>(nprocs_) / npages);
        page_home_[first_page + p].store(home, std::memory_order_relaxed);
      }
      break;
  }
  if (auto* s = sanitize::active()) s->sas_region(off, bytes, name);
  return off;
}

void World::reset_homes_bytes(std::size_t offset, std::size_t bytes) {
  const auto page = static_cast<std::size_t>(params_.page_bytes);
  const std::size_t first = offset / page;
  const std::size_t last = (offset + bytes + page - 1) / page;
  for (std::size_t p = first; p < last && p < num_pages_; ++p) {
    page_home_[p].store(-1, std::memory_order_relaxed);
    page_claim_[p].store(-1, std::memory_order_relaxed);
  }
}

void World::commit_epoch() {
  // Runs on the barrier-releasing PE while every other PE is parked inside
  // the barrier (their epoch writes happened-before via the barrier mutex;
  // post-barrier reads happen-after via the generation release/acquire), so
  // plain accesses to the committed arrays are race-free.  Each dirty line
  // and claimed page appears in exactly one PE's log; iteration order does
  // not matter because the committed value of each entry is already fixed.
  for (auto& log : logs_) {
    for (const std::size_t line : log.lines) {
      const int w = epoch_writer_[line].load(std::memory_order_relaxed);
      // Sole writer: +1, its predicted cached version survives.  Multiple
      // writers: +2, every cached copy (including theirs) goes stale.
      commit_ver_[line] += w == -2 ? 2U : 1U;
      commit_writer_[line] = w;
      epoch_writer_[line].store(-1, std::memory_order_relaxed);
    }
    log.lines.clear();
    for (const std::size_t page : log.pages) {
      // Minimum claiming rank won; claim order never influenced a charge.
      page_home_[page].store(page_claim_[page].load(std::memory_order_relaxed),
                             std::memory_order_relaxed);
      page_claim_[page].store(-1, std::memory_order_relaxed);
    }
    log.pages.clear();
  }
}

void World::commit_epoch_hook(void* world) { static_cast<World*>(world)->commit_epoch(); }

Team::Team(World& world, rt::Pe& pe)
    : world_(world), pe_(pe), wrote_line_(world.num_lines_ * sizeof(std::uint32_t)) {
  O2K_REQUIRE(world.size() == pe.size(),
              "sas::World size must match the Machine::run processor count");
  num_sets_ = world.params().l2_bytes / static_cast<std::size_t>(world.params().cache_line_bytes);
  tag_.assign(num_sets_, 0);
  cached_version_.assign(num_sets_, 0);
  line_bytes_ = static_cast<std::size_t>(world.params().cache_line_bytes);
  page_bytes_ = static_cast<std::size_t>(world.params().page_bytes);
  sets_mask_ = (num_sets_ & (num_sets_ - 1)) == 0 ? num_sets_ - 1 : 0;
  const auto is_pow2 = [](std::size_t x) { return x != 0 && (x & (x - 1)) == 0; };
  geom_shifts_ = is_pow2(line_bytes_) && is_pow2(page_bytes_) && page_bytes_ >= line_bytes_;
  if (geom_shifts_) {
    line_shift_ = static_cast<unsigned>(std::countr_zero(line_bytes_));
    page_line_shift_ =
        static_cast<unsigned>(std::countr_zero(page_bytes_)) - line_shift_;
  }
  ownership_extra_ns_ = world.params().ownership_extra_ns;
  read_premium_by_pe_.resize(static_cast<std::size_t>(size()));
  remote_by_pe_.resize(static_cast<std::size_t>(size()));
  for (int p = 0; p < size(); ++p) {
    const bool local = is_local(p);
    remote_by_pe_[static_cast<std::size_t>(p)] = local ? 0 : 1;
    read_premium_by_pe_[static_cast<std::size_t>(p)] =
        local ? 0.0 : world.params().remote_read_premium_ns(rank(), p);
  }
  trace_lines_by_home_.assign(static_cast<std::size_t>(size()), 0);
  pe.add_barrier_hook(&World::commit_epoch_hook, &world);
  world_.pe_state_[static_cast<std::size_t>(rank())].store(0, std::memory_order_relaxed);
  mirror_clock();
}

Team::~Team() {
  world_.pe_state_[static_cast<std::size_t>(rank())].store(2, std::memory_order_seq_cst);
  pe_.wake_all();
}

void Team::mirror_clock() {
  // seq_cst exchange + load pair against a registering waiter's seq_cst
  // min_wait_clock store + clock loads: one side always observes the other,
  // so a dispatch waiter cannot miss the moment our clock crosses its entry
  // time (see Dispatch).
  const double now = pe_.now();
  const double old = world_.pe_clock(rank()).exchange(now, std::memory_order_seq_cst);
  const double m = world_.dispatch_.min_wait_clock.load(std::memory_order_seq_cst);
  // Wake when our clock crosses the waiter minimum, *or* leaves it behind:
  // a waiter at exactly `m` may be tie-blocked by our lower rank (may_go),
  // so advancing from old == m past it is also an unblocking event.
  if (old < now && old <= m && now >= m) wake_next_waiter();
}

void Team::wake_next_waiter() {
  // At most one dispatch waiter can be eligible at any moment: the one with
  // the smallest (mirrored clock, rank) among PEs in state 1 (may_go's
  // tie-break).  Waking only that candidate avoids the thundering herd of
  // a full wake_all — on a loaded host, P-1 spurious wake/re-park context
  // switches per dispatch event.  If the candidate is still blocked by a
  // busy PE with a smaller clock, that PE's own crossing (or its dispatcher
  // entry) re-issues the wake, so liveness is preserved.  Drain and Team
  // retirement keep wake_all because they make *every* waiter eligible.
  int best = -1;
  double best_t = 0.0;
  {
    std::scoped_lock lk(world_.dispatch_.mu);
    for (int p = 0; p < size(); ++p) {
      if (world_.pe_state_[static_cast<std::size_t>(p)].load(std::memory_order_relaxed) != 1)
        continue;
      const double t = world_.pe_clock(p).load(std::memory_order_relaxed);
      if (best < 0 || t < best_t) {
        best = p;
        best_t = t;
      }
    }
  }
  // Wake outside dispatch_.mu: the waiter's predicate takes dispatch_.mu,
  // so a wake under it could resume the waiter on another worker only to
  // block that worker on the lock we still hold.
  if (best >= 0) pe_.wake(best);
}

int Team::page_home_for(std::size_t page) {
  const int home = world_.page_home_[page].load(std::memory_order_relaxed);
  if (home >= 0) return home;
  // Unhomed page: record a first-touch claim for this epoch.  The minimum
  // claiming rank wins at the barrier commit; until then every claimant
  // treats the page as its own (local, no premium), so no charge of the
  // claiming epoch depends on which claim landed first on the host.
  auto& claim = world_.page_claim_[page];
  int cur = claim.load(std::memory_order_relaxed);
  while (cur == -1 || cur > rank()) {
    if (claim.compare_exchange_weak(cur, rank(), std::memory_order_relaxed)) {
      // The -1 -> r winner (exactly one PE) logs the page for commit.
      if (cur == -1) world_.epoch_log(rank()).pages.push_back(page);
      break;
    }
  }
  return rank();
}

void Team::emit_remote_traces() {
  std::sort(trace_homes_.begin(), trace_homes_.end());
  for (const int home : trace_homes_) {
    pe_.trace_pull(home, trace_lines_by_home_[static_cast<std::size_t>(home)] * line_bytes_);
    trace_lines_by_home_[static_cast<std::size_t>(home)] = 0;
  }
  trace_homes_.clear();
}

void Team::touch_read(std::size_t off, std::size_t bytes) {
  touch_read_ann(off, bytes, 0, 0, 0, /*atomic=*/false);
}

void Team::touch_write(std::size_t off, std::size_t bytes) {
  touch_write_ann(off, bytes, 0, 0, 0, /*atomic=*/false);
}

void Team::touch_read_ann(std::size_t off, std::size_t bytes, std::size_t elem,
                          std::size_t foff, std::size_t flen, bool atomic) {
  O2K_REQUIRE(off + bytes <= world_.arena_bytes_, "sas: touch outside arena");
  std::size_t first, last;
  if (geom_shifts_) {
    first = off >> line_shift_;
    last = bytes == 0 ? first : (off + bytes - 1) >> line_shift_;
  } else {
    first = off / line_bytes_;
    last = bytes == 0 ? first : (off + bytes - 1) / line_bytes_;
  }

  double premium = 0.0;
  std::uint64_t misses = 0;
  std::uint64_t remote = 0;
  const bool tracing = pe_.tracing();
  // Batched walk: the page home is resolved once per page crossed — lazily,
  // on the first *missing* line of the page, so first-touch placement is
  // triggered by exactly the same accesses as the per-line implementation.
  // Premiums still accumulate line by line in walk order, so the resulting
  // double is bit-identical (FP addition is order-sensitive).
  //
  // Every input of the hit test is epoch-stable: committed versions only
  // change at barriers, and the wrote-line stamp is this PE's own — so the
  // walk reads no concurrently-mutated state and its outcome cannot depend
  // on host scheduling.
  std::size_t cur_page = static_cast<std::size_t>(-1);
  int cur_home = 0;
  const std::uint32_t* cver = world_.commit_ver_.data();
  const auto* wrote = reinterpret_cast<const std::uint32_t*>(wrote_line_.data());
  const auto gen_tag = static_cast<std::uint32_t>(pe_.barrier_epochs() + 1);
  for (std::size_t line = first; line <= last; ++line) {
    const std::size_t set = sets_mask_ != 0 ? (line & sets_mask_) : (line % num_sets_);
    const std::uint32_t ver = cver[line];
    // My own dirty copy of this epoch is valid even though the committed
    // version has not moved yet (release consistency: my writes become
    // visible to *others* at the barrier, but stay in *my* cache now).
    const bool mine = wrote[line] == gen_tag;
    if (tag_[set] == line + 1 && (cached_version_[set] == ver || mine)) continue;  // hit
    ++misses;
    const std::size_t page =
        geom_shifts_ ? line >> page_line_shift_ : line * line_bytes_ / page_bytes_;
    if (page != cur_page) {
      cur_page = page;
      cur_home = page_home_for(page);
    }
    if (remote_by_pe_[static_cast<std::size_t>(cur_home)] != 0) {
      premium += read_premium_by_pe_[static_cast<std::size_t>(cur_home)];
      ++remote;
      if (tracing) note_remote_line(cur_home);
    }
    tag_[set] = line + 1;
    // Refill one version ahead for a line this PE dirtied: that is the
    // version commit installs if it stays the sole writer, so its reloaded
    // copy survives the barrier (matching the eager model at P=1); with
    // multiple writers commit adds 2 and the copy goes stale either way.
    cached_version_[set] = mine ? ver + 1 : ver;
  }
  if (premium > 0.0) pe_.advance(premium);
  pe_.add_counter(c_read_misses_, misses);
  pe_.add_counter(c_remote_misses_, remote);
  if (tracing) emit_remote_traces();
  mirror_clock();
  if (auto* s = sanitize::active()) {
    s->sas_access(rank(), off, bytes, elem, foff, flen, /*write=*/false, atomic, pe_.now(),
                  phase_of(pe_));
  }
}

void Team::touch_write_ann(std::size_t off, std::size_t bytes, std::size_t elem,
                           std::size_t foff, std::size_t flen, bool atomic) {
  O2K_REQUIRE(off + bytes <= world_.arena_bytes_, "sas: touch outside arena");
  std::size_t first, last;
  if (geom_shifts_) {
    first = off >> line_shift_;
    last = bytes == 0 ? first : (off + bytes - 1) >> line_shift_;
  } else {
    first = off / line_bytes_;
    last = bytes == 0 ? first : (off + bytes - 1) / line_bytes_;
  }

  double premium = 0.0;
  std::uint64_t misses = 0;
  std::uint64_t remote = 0;
  std::uint64_t transfers = 0;
  const bool tracing = pe_.tracing();
  // Batched walk: see touch_read for the hoisting, bit-identity and
  // epoch-stability notes.  Every charge below is a
  // function of committed (barrier-separated) state plus this PE's own
  // history; the epoch-writer cell is written but never read into a charge,
  // and its final per-epoch value (sole writer r, or -2 for several) is
  // order-independent.
  std::size_t cur_page = static_cast<std::size_t>(-1);
  int cur_home = 0;
  const int me = rank();
  const std::uint32_t* cver = world_.commit_ver_.data();
  const int* cwriter = world_.commit_writer_.data();
  std::atomic<int>* ew_arr = world_.epoch_writer_.get();
  auto* wrote = reinterpret_cast<std::uint32_t*>(wrote_line_.data());
  const auto gen_tag = static_cast<std::uint32_t>(pe_.barrier_epochs() + 1);
  auto& my_lines = world_.epoch_log(me).lines;
  for (std::size_t line = first; line <= last; ++line) {
    const std::size_t set = sets_mask_ != 0 ? (line & sets_mask_) : (line % num_sets_);
    const std::uint32_t ver = cver[line];
    const bool mine = wrote[line] == gen_tag;
    const bool hit = tag_[set] == line + 1 && (cached_version_[set] == ver || mine);
    if (!hit) {
      ++misses;
      const std::size_t page =
        geom_shifts_ ? line >> page_line_shift_ : line * line_bytes_ / page_bytes_;
      if (page != cur_page) {
        cur_page = page;
        cur_home = page_home_for(page);
      }
      if (remote_by_pe_[static_cast<std::size_t>(cur_home)] != 0) {
        premium += read_premium_by_pe_[static_cast<std::size_t>(cur_home)];
        ++remote;
        if (tracing) note_remote_line(cur_home);
      }
    }
    if (!mine) {
      // First write to this line in this epoch by this PE.
      const int cw = cwriter[line];
      if (cw != me && cw != -1) {
        // Committed last writer is elsewhere (-2 = shared-dirty): ownership
        // transfer / invalidation premium, charged once per epoch.
        premium += ownership_extra_ns_;
        ++transfers;
      }
      wrote[line] = gen_tag;
      std::atomic<int>& ew_cell = ew_arr[line];
      int ew = ew_cell.load(std::memory_order_relaxed);
      if (ew == -1 && ew_cell.compare_exchange_strong(ew, me, std::memory_order_relaxed)) {
        my_lines.push_back(line);  // the -1 -> me claimant owns the commit entry
      } else if (ew != -2 && ew != me) {
        ew_cell.store(-2, std::memory_order_relaxed);
      }
    }
    tag_[set] = line + 1;
    cached_version_[set] = ver + 1;  // valid after commit iff we stay sole writer
  }
  if (premium > 0.0) pe_.advance(premium);
  pe_.add_counter(c_write_misses_, misses);
  pe_.add_counter(c_remote_misses_, remote);
  pe_.add_counter(c_ownership_, transfers);
  if (tracing) emit_remote_traces();
  mirror_clock();
  if (auto* s = sanitize::active()) {
    s->sas_access(rank(), off, bytes, elem, foff, flen, /*write=*/true, atomic, pe_.now(),
                  phase_of(pe_));
  }
}

void Team::barrier() {
  if (auto* s = sanitize::active()) s->sas_barrier_enter(rank());
  pe_.barrier(origin::MachineParams::tree_barrier_ns(size(), world_.params().sas_barrier_base_ns));
  if (auto* s = sanitize::active()) s->sas_barrier_exit(rank());
  mirror_clock();
}

void Team::lock(std::size_t id) {
  auto& cell = world_.locks_[id % static_cast<std::size_t>(World::kNumLocks)];
  cell.mu.lock();
  // Serialise in virtual time behind the previous holder.
  pe_.sync_at_least(cell.last_release_ns);
  pe_.advance(world_.params().sas_lock_ns);
  pe_.add_counter(c_locks_, 1);
  mirror_clock();
  if (auto* s = sanitize::active())
    s->sas_acquire(rank(), id % static_cast<std::size_t>(World::kNumLocks));
}

void Team::unlock(std::size_t id) {
  auto& cell = world_.locks_[id % static_cast<std::size_t>(World::kNumLocks)];
  if (auto* s = sanitize::active())
    s->sas_release(rank(), id % static_cast<std::size_t>(World::kNumLocks));
  cell.last_release_ns = pe_.now();
  mirror_clock();
  cell.mu.unlock();
}

double Team::reduce_sum(double v) {
  world_.red(rank()).d = v;
  barrier();
  double acc = 0.0;
  for (int p = 0; p < size(); ++p) {
    if (!is_local(p)) pe_.advance(world_.params().remote_read_premium_ns(rank(), p));
    acc += world_.red(p).d;
  }
  barrier();
  return acc;
}

std::int64_t Team::reduce_sum(std::int64_t v) {
  world_.red(rank()).i = v;
  barrier();
  std::int64_t acc = 0;
  for (int p = 0; p < size(); ++p) {
    if (!is_local(p)) pe_.advance(world_.params().remote_read_premium_ns(rank(), p));
    acc += world_.red(p).i;
  }
  barrier();
  return acc;
}

double Team::reduce_max(double v) {
  world_.red(rank()).d = v;
  barrier();
  double acc = world_.red(0).d;
  for (int p = 0; p < size(); ++p) {
    if (!is_local(p)) pe_.advance(world_.params().remote_read_premium_ns(rank(), p));
    acc = std::max(acc, world_.red(p).d);
  }
  barrier();
  return acc;
}

std::pair<std::size_t, std::size_t> Team::static_range(std::size_t begin,
                                                       std::size_t end) const {
  O2K_REQUIRE(begin <= end, "sas: invalid loop bounds");
  const std::size_t n = end - begin;
  const auto p = static_cast<std::size_t>(size());
  const auto r = static_cast<std::size_t>(rank());
  const std::size_t base = n / p;
  const std::size_t rem = n % p;
  const std::size_t lo = begin + r * base + std::min(r, rem);
  const std::size_t hi = lo + base + (r < rem ? 1 : 0);
  return {lo, hi};
}

void Team::dynamic_begin(std::size_t begin, std::size_t end) {
  barrier();
  world_.pe_state_[static_cast<std::size_t>(rank())].store(0, std::memory_order_relaxed);
  mirror_clock();
  if (rank() == 0) {
    std::scoped_lock lk(world_.dispatch_.mu);
    world_.dispatch_.next = begin;
    world_.dispatch_.end = end;
    ++world_.dispatch_.epoch;
  }
  barrier();
}

std::pair<std::size_t, std::size_t> Team::dynamic_next(std::size_t chunk) {
  O2K_REQUIRE(chunk > 0, "sas: chunk size must be positive");
  auto& d = world_.dispatch_;
  const auto me = static_cast<std::size_t>(rank());
  mirror_clock();

  // Recompute min_wait_clock from all PEs in waiting state (holding d.mu).
  auto update_min_wait = [&] {
    double m = std::numeric_limits<double>::infinity();
    for (int p = 0; p < size(); ++p) {
      if (world_.pe_state_[static_cast<std::size_t>(p)].load(std::memory_order_relaxed) != 1)
        continue;
      m = std::min(m, world_.pe_clock(p).load(std::memory_order_relaxed));
    }
    d.min_wait_clock.store(m, std::memory_order_seq_cst);
  };

  double my_t = 0.0;
  {
    std::unique_lock lk(d.mu);
    if (d.next >= d.end) {
      world_.pe_state_[me].store(2, std::memory_order_seq_cst);
      lk.unlock();
      pe_.wake_all();  // our done-state may unblock other waiters
      return {0, 0};
    }
    my_t = pe_.now();
    world_.pe_state_[me].store(1, std::memory_order_seq_cst);
    update_min_wait();
  }

  // Virtual-time-ordered dispatch: take the next chunk only when no other
  // PE could request it at an earlier virtual time.  Mirrored clocks of
  // busy PEs lower-bound their future request times, so this is safe.  Ties
  // break by rank — including against *busy* PEs, which may still request
  // at exactly their mirrored clock (e.g. right after a barrier, when every
  // clock is equal) — so the chunk→PE map is a pure function of virtual
  // time and rank, bit-reproducible across host schedules.
  auto may_go = [&] {
    if (d.next >= d.end) return true;  // drained while we waited
    for (int p = 0; p < size(); ++p) {
      if (p == rank()) continue;
      const int st = world_.pe_state_[static_cast<std::size_t>(p)].load(std::memory_order_seq_cst);
      if (st == 2) continue;  // done
      const double t = world_.pe_clock(p).load(std::memory_order_seq_cst);
      if (t < my_t || (t == my_t && p < rank())) return false;
    }
    return true;
  };

  // Park until it is our turn; the predicate claims the chunk (or observes
  // the drain) under the mutex as its side effect.  Wake sources: another
  // waiter claiming/draining, a Team retiring, and busy PEs whose mirrored
  // clock crosses min_wait_clock.
  std::size_t lo = 0, hi = 0;
  bool drained = false;
  pe_.park_until([&] {
    std::scoped_lock lk(d.mu);
    if (!may_go()) return false;
    if (d.next >= d.end) {
      drained = true;
      world_.pe_state_[me].store(2, std::memory_order_seq_cst);
    } else {
      lo = d.next;
      hi = std::min(d.end, lo + chunk);
      d.next = hi;
      world_.pe_state_[me].store(0, std::memory_order_seq_cst);
      // Claim order == HB order on the shared cursor: the RMW edge chains
      // successive claimants (still under d.mu, so it matches d.next's
      // actual mutation order).
      if (auto* s = sanitize::active()) s->sas_dispatch_claim(rank());
    }
    update_min_wait();
    return true;
  });

  if (drained) {
    pe_.wake_all();
    return {0, 0};
  }
  // Charge the dispatch itself (shared counter = one lock acquire).
  pe_.advance(world_.params().sas_lock_ns);
  mirror_clock();
  // Our claim may have unblocked exactly one waiter (the new minimum).
  wake_next_waiter();
  return {lo, hi};
}

void Team::dynamic_end() {
  barrier();
  world_.pe_state_[static_cast<std::size_t>(rank())].store(0, std::memory_order_relaxed);
  mirror_clock();
}

}  // namespace o2k::sas
