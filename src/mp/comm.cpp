#include "mp/comm.hpp"

#include <algorithm>
#include <set>

#include "rt/state_capture.hpp"
#include "sanitize/sanitize.hpp"

namespace o2k::mp {

namespace {

std::uint32_t phase_of(const rt::Pe& pe) {
  return pe.in_phase() ? pe.current_phase().v : UINT32_MAX;
}

}  // namespace

World::World(const origin::MachineParams& params, int nprocs)
    : params_(params), nprocs_(nprocs) {
  O2K_REQUIRE(nprocs >= 1, "mp::World needs at least one rank");
  O2K_REQUIRE(nprocs <= params.max_pes, "mp::World larger than the machine");
  boxes_.reserve(static_cast<std::size_t>(nprocs));
  for (int r = 0; r < nprocs; ++r) boxes_.emplace_back(std::make_unique<detail::Mailbox>());
  if (auto* s = sanitize::active()) s->begin_mp_world(nprocs);
  rt::StateRegistry::instance().add(this, &World::state_capture, "mp.world");
}

namespace {

std::uint64_t message_hash(const detail::Message& m) {
  std::uint64_t h = rt::fnv1a(&m.src, sizeof m.src);
  h = rt::fnv1a(&m.tag, sizeof m.tag, h);
  const std::uint64_t n = m.payload.size();
  h = rt::fnv1a(&n, sizeof n, h);
  h = rt::fnv1a(m.payload.data(), m.payload.size(), h);
  h = rt::fnv1a(&m.arrival_ns, sizeof m.arrival_ns, h);
  h = rt::fnv1a(&m.rts_arrival_ns, sizeof m.rts_arrival_ns, h);
  return h;
}

}  // namespace

void World::state_capture(void* world, rt::StateSink& sink) {
  auto& w = *static_cast<World*>(world);
  sink.put_u64("mp.nprocs", static_cast<std::uint64_t>(w.nprocs_));
  for (int r = 0; r < w.nprocs_; ++r) {
    // Order-independent combine (sum of per-message hashes): queue order
    // reflects host enqueue interleaving, the message *set* does not — so
    // the digest is also representation-independent (locked vs sharded).
    std::uint64_t combined = 0;
    std::uint64_t depth = 0;
    if (w.sharded_) {
      // Capture runs at checkpoint quiescence: every PE is parked, so the
      // lock-free queues and channels are stable and safe to walk.
      for (const detail::Message& m : w.lb_[static_cast<std::size_t>(r)].q) {
        combined += message_hash(m);
        ++depth;
      }
      for (int pw = 0; pw < w.shard_workers_; ++pw) {
        w.channel(r, pw).for_each([&](const detail::Message& m) {
          combined += message_hash(m);
          ++depth;
        });
      }
    } else {
      auto& box = *w.boxes_[static_cast<std::size_t>(r)];
      std::scoped_lock lk(box.mu);
      for (const detail::Message& m : box.q) {
        combined += message_hash(m);
        ++depth;
      }
    }
    const std::string prefix = "mp.box." + std::to_string(r);
    sink.put_u64(prefix + ".depth", depth);
    sink.put_u64(prefix + ".digest", combined);
  }
}

World::~World() {
  rt::StateRegistry::instance().remove(this);
  auto* s = sanitize::active();
  if (s == nullptr) return;
  // The run's PE threads are gone (Worlds outlive Machine::run), so the
  // mailboxes are quiescent: anything still queued was never received.
  for (int r = 0; r < nprocs_; ++r) {
    if (sharded_) {
      for (const detail::Message& m : lb_[static_cast<std::size_t>(r)].q) {
        s->mp_unmatched_send(m.src, r, m.tag, m.payload.size(), m.arrival_ns);
      }
      for (int pw = 0; pw < shard_workers_; ++pw) {
        channel(r, pw).for_each([&](const detail::Message& m) {
          s->mp_unmatched_send(m.src, r, m.tag, m.payload.size(), m.arrival_ns);
        });
      }
    } else {
      auto& box = *boxes_[static_cast<std::size_t>(r)];
      std::scoped_lock lk(box.mu);
      for (const detail::Message& m : box.q) {
        s->mp_unmatched_send(m.src, r, m.tag, m.payload.size(), m.arrival_ns);
      }
    }
  }
  s->end_mp_world();
}

void World::bind_run(rt::Pe& pe) {
  std::scoped_lock lk(bind_mu_);
  const bool want_sharded = pe.domain_serial();
  const int want_workers = want_sharded ? pe.domains() : 0;
  if (sharded_ == want_sharded && shard_workers_ == want_workers) return;
  if (sharded_) {
    // Leaving sharded mode (World reused by a differently-shaped run):
    // fold everything back into the locked boxes.
    drain_all_channels();
    for (int r = 0; r < nprocs_; ++r) {
      auto& src = lb_[static_cast<std::size_t>(r)].q;
      auto& dst = boxes_[static_cast<std::size_t>(r)]->q;
      while (!src.empty()) {
        dst.push_back(std::move(src.front()));
        src.pop_front();
      }
    }
    lb_.clear();
    chan_.clear();
    sharded_ = false;
    shard_workers_ = 0;
  }
  if (want_sharded) {
    shard_workers_ = want_workers;
    lb_ = std::vector<detail::LocalBox>(static_cast<std::size_t>(nprocs_));
    chan_.clear();
    chan_.reserve(static_cast<std::size_t>(nprocs_) * static_cast<std::size_t>(want_workers));
    for (int i = 0; i < nprocs_ * want_workers; ++i) {
      chan_.push_back(std::make_unique<exec::SpscChannel<detail::Message>>());
    }
    for (int r = 0; r < nprocs_; ++r) {
      auto& src = boxes_[static_cast<std::size_t>(r)]->q;
      auto& dst = lb_[static_cast<std::size_t>(r)].q;
      while (!src.empty()) {
        dst.push_back(std::move(src.front()));
        src.pop_front();
      }
    }
    sharded_ = true;
  }
}

void World::drain_all_channels() {
  detail::Message m;
  for (int r = 0; r < nprocs_; ++r) {
    for (int pw = 0; pw < shard_workers_; ++pw) {
      auto& ch = channel(r, pw);
      while (ch.pop(m)) lb_[static_cast<std::size_t>(r)].q.push_back(std::move(m));
    }
  }
}

Comm::Comm(World& world, rt::Pe& pe) : world_(world), pe_(pe) {
  O2K_REQUIRE(world.size() == pe.size(),
              "mp::World size must match the Machine::run processor count");
  world.bind_run(pe);
}

void Comm::enqueue_msg(int dst, detail::Message&& m) {
  World& w = world_;
  const bool rendezvous = m.rdv != nullptr;
  if (w.sharded_) {
    // The owner worker of dst's queue is its domain (pinned mode: domain d
    // == worker d); the calling worker's id doubles as the producer index
    // of the cross-domain channel.
    const int owner = pe_.domain_of(dst);
    if (pe_.host_worker() == owner) {
      // Intra-domain delivery: single host thread owns both endpoints — a
      // plain push, no lock, no atomics beyond the wake below.
      w.lb_[static_cast<std::size_t>(dst)].q.push_back(std::move(m));
    } else {
      const int me_w = pe_.host_worker();
      O2K_CHECK(me_w >= 0, "mp: sharded send from outside the worker pool");
      w.channel(dst, me_w).push(std::move(m));
    }
  } else {
    auto& box = *w.boxes_[static_cast<std::size_t>(dst)];
    std::scoped_lock lk(box.mu);
    box.q.push_back(std::move(m));
  }
  // An eager send (or post) never parks, so a receiver on this worker would
  // otherwise wait out the sender's whole next compute phase: hand it the
  // worker.  A rendezvous sender parks right after, which does that anyway.
  if (rendezvous) {
    pe_.wake(dst);
  } else {
    pe_.hand_off(dst);
  }
}

void Comm::send_bytes(std::span<const std::byte> data, int dst, int tag) {
  O2K_REQUIRE(dst >= 0 && dst < size(), "mp: invalid destination rank");
  const auto& P = world_.params();
  const std::size_t bytes = data.size();
  pe_.add_counter(c_msgs_, 1);
  pe_.add_counter(c_bytes_, bytes);
  pe_.trace_send(dst, bytes);

  detail::Message m;
  m.src = rank();
  m.tag = tag;
  m.payload.assign(data.begin(), data.end());

  if (dst == rank()) {
    pe_.advance(P.mp_o_send_ns + P.memcpy_ns(bytes));
    m.arrival_ns = pe_.now();
    enqueue_msg(dst, std::move(m));
    return;
  }

  if (bytes <= P.mp_eager_bytes) {
    pe_.advance(P.mp_o_send_ns + static_cast<double>(bytes) / P.mp_bw_bytes_per_ns);
    m.arrival_ns = pe_.now() + P.wire_ns(rank(), dst);
    enqueue_msg(dst, std::move(m));
    return;
  }

  // Rendezvous: post RTS, block until the receiver drains the transfer.
  pe_.advance(P.mp_o_send_ns);
  auto rdv = std::make_shared<detail::RdvState>();
  m.rdv = rdv;
  m.rts_arrival_ns = pe_.now() + P.wire_ns(rank(), dst);
  enqueue_msg(dst, std::move(m));

  pe_.park_until([&] { return rdv->done.load(std::memory_order_acquire); });
  pe_.sync_at_least(rdv->release_ns);
}

void Comm::post_bytes(std::span<const std::byte> data, int dst, int tag) {
  O2K_REQUIRE(dst >= 0 && dst < size(), "mp: invalid destination rank");
  const auto& P = world_.params();
  const std::size_t bytes = data.size();
  pe_.add_counter(c_msgs_, 1);
  pe_.add_counter(c_bytes_, bytes);
  pe_.trace_send(dst, bytes);

  detail::Message m;
  m.src = rank();
  m.tag = tag;
  m.payload.assign(data.begin(), data.end());
  if (dst == rank()) {
    pe_.advance(P.mp_o_send_ns + P.memcpy_ns(bytes));
    m.arrival_ns = pe_.now();
  } else {
    // Buffered eager regardless of size: one extra local copy into the
    // send buffer, then the wire transfer proceeds without the sender.
    pe_.advance(P.mp_o_send_ns + P.memcpy_ns(bytes));
    m.arrival_ns = pe_.now() + P.wire_ns(rank(), dst) +
                   static_cast<double>(bytes) / P.mp_bw_bytes_per_ns;
  }
  enqueue_msg(dst, std::move(m));
}

std::vector<std::byte> Comm::recv_bytes(int src, int tag) {
  O2K_REQUIRE(src >= 0 && src < size(), "mp: invalid source rank (wildcards unsupported)");
  const auto& P = world_.params();

  // The matching predicate consumes the message as its side effect; every
  // sender wakes this rank after enqueueing (see detail::Mailbox).
  detail::Message m;
  auto* san = sanitize::active();
  int distinct_tags = 0;
  auto match_in = [&](std::deque<detail::Message>& q) {
    auto it = std::find_if(q.begin(), q.end(), [&](const detail::Message& cand) {
      return cand.src == src && (tag == kAnyTag || cand.tag == tag);
    });
    if (it == q.end()) return false;
    if (san != nullptr && tag == kAnyTag) {
      // Distinct tags queued from this source at match time (including the
      // matched one): with >= 2 the wildcard match is a FIFO accident.
      std::set<int> tags;
      for (const detail::Message& cand : q) {
        if (cand.src == src) tags.insert(cand.tag);
      }
      distinct_tags = static_cast<int>(tags.size());
    }
    m = std::move(*it);
    q.erase(it);
    return true;
  };
  if (world_.sharded_) {
    // Domain-serial fast path: this fiber's host worker is the sole
    // consumer of lb_[rank] and of every channel(rank, *) — no locks.
    // A given src's messages always ride exactly one route (direct push or
    // its worker's channel), so draining channels in fixed producer order
    // before each scan keeps per-src FIFO — all the matching semantics
    // depend on.
    auto& q = world_.lb_[static_cast<std::size_t>(rank())].q;
    pe_.park_until([&] {
      detail::Message in;
      for (int pw = 0; pw < world_.shard_workers_; ++pw) {
        auto& ch = world_.channel(rank(), pw);
        while (ch.pop(in)) q.push_back(std::move(in));
      }
      return match_in(q);
    });
  } else {
    auto& box = *world_.boxes_[static_cast<std::size_t>(rank())];
    pe_.park_until([&] {
      std::scoped_lock lk(box.mu);
      return match_in(box.q);
    });
  }

  const std::size_t bytes = m.payload.size();
  if (!m.rdv) {
    pe_.sync_at_least(m.arrival_ns);
    pe_.advance(P.mp_o_recv_ns);
  } else {
    // Rendezvous: transfer begins once both the RTS has arrived and the
    // receiver has posted; the handshake and the bulk transfer follow.
    const double start =
        std::max(pe_.now() + P.mp_o_recv_ns, m.rts_arrival_ns) + P.mp_rendezvous_extra_ns;
    const double done = start + static_cast<double>(bytes) / P.mp_bw_bytes_per_ns +
                        P.wire_ns(m.src, rank());
    pe_.sync_at_least(done);
    m.rdv->release_ns = done;
    m.rdv->done.store(true, std::memory_order_release);
    pe_.wake(m.src);
  }
  pe_.add_counter(c_recv_msgs_, 1);
  pe_.trace_recv(m.src, bytes);
  if (san != nullptr) {
    san->mp_recv(rank(), m.src, m.tag, tag == kAnyTag, distinct_tags, pe_.now(),
                 phase_of(pe_));
  }
  return std::move(m.payload);
}

std::uint64_t Comm::register_irecv(int src, int tag) {
  if (auto* s = sanitize::active()) return s->mp_register_irecv(rank(), src, tag);
  return 0;
}

void Comm::wait(Request& r) {
  if (r.kind_ != Request::Kind::kRecv) return;
  auto raw = recv_bytes(r.src_, r.tag_);
  O2K_REQUIRE(raw.size() == r.out_bytes_, "mp: irecv buffer size mismatch");
  copy_bytes(r.out_, raw.data(), raw.size());
  r.kind_ = Request::Kind::kDone;
  if (r.sid_ != 0) {
    if (auto* s = sanitize::active()) s->mp_wait_done(r.sid_);
  }
}

void Comm::wait_all(std::span<Request> rs) {
  for (auto& r : rs) wait(r);
}

void Comm::barrier() {
  const int p = size();
  const int me = rank();
  if (p == 1) return;
  const int tag = next_coll_tag();
  // Dissemination barrier: log2(P) rounds of zero-byte messages; the cost
  // emerges from the per-message overheads of the model.
  for (int k = 1; k < p; k <<= 1) {
    const int dst = (me + k) % p;
    const int src = (me - k + p) % p;
    post_bytes({}, dst, tag);
    (void)recv_bytes(src, tag);
  }
}

void Comm::bcast_bytes(std::span<std::byte> data, int root, int tag) {
  O2K_REQUIRE(root >= 0 && root < size(), "mp: invalid bcast root");
  const int p = size();
  if (p == 1) return;
  const int rel = (rank() - root + p) % p;

  int mask = 1;
  while (mask < p) {
    if (rel & mask) {
      const int parent = ((rel & ~mask) + root) % p;
      auto raw = recv_bytes(parent, tag);
      O2K_REQUIRE(raw.size() == data.size(), "mp: bcast size mismatch across ranks");
      copy_bytes(data.data(), raw.data(), raw.size());
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (rel + mask < p) {
      const int dst = ((rel + mask) + root) % p;
      send_bytes(std::span<const std::byte>(data.data(), data.size()), dst, tag);
    }
    mask >>= 1;
  }
}

}  // namespace o2k::mp
