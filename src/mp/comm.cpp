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
  boxes_ = std::make_unique<detail::Mailbox[]>(static_cast<std::size_t>(nprocs));
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
  // Runs at checkpoint quiescence: every PE is parked, so both halves of
  // each mailbox are stable and safe to walk.
  auto& w = *static_cast<World*>(world);
  sink.put_u64("mp.nprocs", static_cast<std::uint64_t>(w.nprocs_));
  for (int r = 0; r < w.nprocs_; ++r) {
    // Order-independent combine (sum of per-message hashes): queue order
    // reflects host enqueue interleaving, the message *set* does not — so
    // the digest also does not depend on which half holds a message.
    std::uint64_t combined = 0;
    std::uint64_t depth = 0;
    w.for_each_queued(r, [&](const detail::Message& m) {
      combined += message_hash(m);
      ++depth;
    });
    const std::string prefix = "mp.box." + std::to_string(r);
    sink.put_u64(prefix + ".depth", depth);
    sink.put_u64(prefix + ".digest", combined);
  }
}

World::~World() {
  rt::StateRegistry::instance().remove(this);
  auto* s = sanitize::active();
  if (s == nullptr) return;
  // The run's PE fibers are gone (Worlds outlive Machine::run), so the
  // mailboxes are quiescent: anything still queued was never received.
  for (int r = 0; r < nprocs_; ++r) {
    for_each_queued(r, [&](const detail::Message& m) {
      s->mp_unmatched_send(m.src, r, m.tag, m.payload.size(), m.arrival_ns);
    });
  }
  s->end_mp_world();
}

Comm::Comm(World& world, rt::Pe& pe) : world_(world), pe_(pe) {
  O2K_REQUIRE(world.size() == pe.size(),
              "mp::World size must match the Machine::run processor count");
}

void Comm::enqueue_msg(int dst, detail::Message&& m) {
  const bool rendezvous = m.rdv != nullptr;
  world_.boxes_[static_cast<std::size_t>(dst)].in.push(std::move(m));
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
  // sender wakes this rank after pushing (see detail::Mailbox).
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
  detail::Mailbox& box = world_.boxes_[static_cast<std::size_t>(rank())];
  pe_.park_until([&] {
    // Only this fiber pops `in`, so draining it into `q` before each scan
    // keeps every source's messages in push order.
    detail::Message in;
    while (box.in.pop(in)) box.q.push_back(std::move(in));
    return match_in(box.q);
  });

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
