// MP — the two-sided message-passing programming model (MPI-flavoured).
//
// Semantics follow the MPI subset the paper's MP codes use: blocking
// send/recv with tag matching and per-(source,tag) FIFO ordering, a
// buffered nonblocking isend/irecv pair, and tree/ring collectives built on
// top of point-to-point so that their simulated cost *emerges* from the
// message cost model rather than being postulated.
//
// Cost model (MachineParams):
//   eager (bytes <= mp_eager_bytes):
//     sender busy   o_send + bytes/bw, then continues;
//     data arrives  at sender_done + wire(src,dst);
//     receiver done at max(recv_post, arrival) + o_recv.
//   rendezvous (larger):
//     sender posts RTS (o_send), then blocks until the receiver matches;
//     transfer starts at max(RTS arrival, recv_post + o_recv) + handshake,
//     finishes bytes/bw later; both sides resume at that finish time (+wire
//     for the receiver-side notification, folded into the handshake term).
//
// Nonblocking deviation (documented in DESIGN.md §5): isend always behaves
// as a buffered eager send regardless of size, so exchange patterns cannot
// deadlock; irecv records the match request and performs it at wait().
#pragma once

#include <atomic>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/bytes.hpp"
#include "common/check.hpp"
#include "exec/spsc.hpp"
#include "rt/machine.hpp"

namespace o2k::rt {
class StateSink;
}  // namespace o2k::rt

namespace o2k::mp {

/// Matching wildcard for tags (receiving from a wildcard *source* is
/// deliberately unsupported: it would make simulated time host-dependent).
inline constexpr int kAnyTag = -1;

namespace detail {

/// Sender-side blocking state for a rendezvous transfer.  The receiver
/// writes `release_ns` and then release-stores `done`; the parked sender
/// acquire-loads `done` and may then read `release_ns` without a lock.
struct RdvState {
  std::atomic<bool> done{false};
  double release_ns = 0.0;
};

struct Message {
  int src = 0;
  int tag = 0;
  std::vector<std::byte> payload;
  double arrival_ns = 0.0;  ///< virtual time the data reaches the receiver's node
  std::shared_ptr<RdvState> rdv;  ///< non-null for rendezvous sends
  double rts_arrival_ns = 0.0;
};

/// Per-rank mailbox.  Every sender pushes to `in` and then wakes the owner;
/// only the owner's fiber pops `in`, moving messages into `q`, where its
/// receives match.  `in` orders all pushes, and one source pushes in its
/// own program order, so per-(source, tag) FIFO holds under any host
/// schedule.  The fiber's wait epoch closes the lost-wakeup window: a wake
/// between a failed scan and the park bumps the epoch, so the receiver
/// re-scans instead of staying parked (see Pe::park_until).  Padded so two
/// ranks' mailboxes never share a host cache line.
struct alignas(64) Mailbox {
  exec::MpscQueue<Message> in;
  std::deque<Message> q;  ///< owner only
};

}  // namespace detail

/// Shared state of one MP "job"; create before Machine::run and hand to
/// every PE's Comm.  One World may only be used by one run at a time.
class World {
 public:
  World(const origin::MachineParams& params, int nprocs);
  /// Finalize point: reports messages still queued (never received) to the
  /// sanitizer when one is installed.
  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  [[nodiscard]] int size() const { return nprocs_; }
  [[nodiscard]] const origin::MachineParams& params() const { return params_; }

 private:
  friend class Comm;

  // Checkpoint state capture (rt::StateRegistry callback).  Queue contents
  // are digested order-independently: host scheduling may enqueue
  // concurrent sends in any order, but the *set* of in-flight messages at a
  // rendezvous is deterministic.
  static void state_capture(void* world, rt::StateSink& sink);

  /// Visit every message queued for `rank`, received or not yet drained.
  /// Quiescence only (checkpoint capture, ~World).
  template <typename F>
  void for_each_queued(int rank, F&& f) const {
    const detail::Mailbox& box = boxes_[static_cast<std::size_t>(rank)];
    for (const detail::Message& m : box.q) f(m);
    box.in.for_each(f);
  }

  const origin::MachineParams& params_;
  int nprocs_;
  std::unique_ptr<detail::Mailbox[]> boxes_;  ///< [rank]
};

/// Handle for a pending nonblocking operation (see header comment for the
/// modelling caveats).  Obtain from isend/irecv; complete with Comm::wait.
class Request {
 public:
  Request() = default;
  [[nodiscard]] bool pending() const { return kind_ == Kind::kRecv; }

 private:
  friend class Comm;
  enum class Kind { kDone, kRecv };
  Kind kind_ = Kind::kDone;
  int src_ = -1;
  int tag_ = 0;
  std::byte* out_ = nullptr;
  std::size_t out_bytes_ = 0;
  std::uint64_t sid_ = 0;  ///< sanitizer tracking id (0 = untracked)
};

/// Per-PE endpoint of the message-passing model.
class Comm {
 public:
  Comm(World& world, rt::Pe& pe);

  [[nodiscard]] int rank() const { return pe_.rank(); }
  [[nodiscard]] int size() const { return pe_.size(); }
  [[nodiscard]] rt::Pe& pe() { return pe_; }

  // ---- raw byte point-to-point ----------------------------------------
  void send_bytes(std::span<const std::byte> data, int dst, int tag);
  /// Buffered post: always eager-style costing regardless of size (the
  /// isend path; cannot block on the receiver).
  void post_bytes(std::span<const std::byte> data, int dst, int tag);
  /// Receives the matching message whole; returns its payload.
  std::vector<std::byte> recv_bytes(int src, int tag);

  // ---- typed convenience ------------------------------------------------
  template <typename T>
  void send(std::span<const T> data, int dst, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    send_bytes(std::as_bytes(data), dst, tag);
  }
  template <typename T>
  void send_value(const T& v, int dst, int tag) {
    send(std::span<const T>(&v, 1), dst, tag);
  }
  template <typename T>
  std::vector<T> recv_vec(int src, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    auto raw = recv_bytes(src, tag);
    O2K_CHECK(raw.size() % sizeof(T) == 0, "mp: message size not a multiple of element size");
    std::vector<T> out(raw.size() / sizeof(T));
    copy_bytes(out.data(), raw.data(), raw.size());
    return out;
  }
  template <typename T>
  void recv(std::span<T> out, int src, int tag) {
    auto raw = recv_bytes(src, tag);
    O2K_REQUIRE(raw.size() == out.size_bytes(), "mp: recv buffer size mismatch");
    copy_bytes(out.data(), raw.data(), raw.size());
  }
  template <typename T>
  T recv_value(int src, int tag) {
    T v{};
    recv(std::span<T>(&v, 1), src, tag);
    return v;
  }

  // ---- nonblocking -------------------------------------------------------
  template <typename T>
  Request isend(std::span<const T> data, int dst, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    post_bytes(std::as_bytes(data), dst, tag);  // buffered-eager; see header comment
    return Request{};
  }
  template <typename T>
  Request irecv(std::span<T> out, int src, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    Request r;
    r.kind_ = Request::Kind::kRecv;
    r.src_ = src;
    r.tag_ = tag;
    r.out_ = reinterpret_cast<std::byte*>(out.data());
    r.out_bytes_ = out.size_bytes();
    r.sid_ = register_irecv(src, tag);
    return r;
  }
  void wait(Request& r);
  void wait_all(std::span<Request> rs);

  // ---- collectives (all PEs must call in the same order) -----------------
  void barrier();

  template <typename T>
  void bcast(std::span<T> data, int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    const int tag = next_coll_tag();
    bcast_bytes(std::span<std::byte>(reinterpret_cast<std::byte*>(data.data()),
                                     data.size_bytes()),
                root, tag);
  }
  template <typename T>
  T bcast_value(T v, int root) {
    bcast(std::span<T>(&v, 1), root);
    return v;
  }

  /// Deterministic sum-reduction to all ranks: binomial reduce to rank 0
  /// combining children in fixed tree order, then broadcast.
  template <typename T>
  T allreduce_sum(T v) {
    std::vector<T> buf{v};
    allreduce_sum(std::span<T>(buf));
    return buf[0];
  }
  template <typename T>
  void allreduce_sum(std::span<T> v) {
    reduce_apply<T>(v, [](T& a, const T& b) { a += b; });
    bcast(v, 0);
  }
  template <typename T>
  T allreduce_max(T v) {
    std::span<T> s(&v, 1);
    reduce_apply<T>(s, [](T& a, const T& b) { if (b > a) a = b; });
    bcast(s, 0);
    return v;
  }
  template <typename T>
  T allreduce_min(T v) {
    std::span<T> s(&v, 1);
    reduce_apply<T>(s, [](T& a, const T& b) { if (b < a) a = b; });
    bcast(s, 0);
    return v;
  }

  template <typename T>
  std::vector<T> gather(const T& v, int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    const int tag = next_coll_tag();
    std::vector<T> out;
    if (rank() == root) {
      out.resize(static_cast<std::size_t>(size()));
      out[static_cast<std::size_t>(root)] = v;
      for (int r = 0; r < size(); ++r) {
        if (r == root) continue;
        recv(std::span<T>(&out[static_cast<std::size_t>(r)], 1), r, tag);
      }
    } else {
      send_value(v, root, tag);
    }
    return out;
  }

  template <typename T>
  std::vector<T> allgather(const T& v) {
    auto out = gather(v, 0);
    std::size_t n = out.size();
    n = bcast_value(n, 0);
    out.resize(n);
    bcast(std::span<T>(out), 0);
    return out;
  }

  /// Ring allgatherv: concatenates every rank's block in rank order.
  template <typename T>
  std::vector<T> allgatherv(std::span<const T> mine) {
    static_assert(std::is_trivially_copyable_v<T>);
    const int p = size();
    const int me = rank();
    const int tag = next_coll_tag();
    std::vector<std::vector<T>> blocks(static_cast<std::size_t>(p));
    blocks[static_cast<std::size_t>(me)].assign(mine.begin(), mine.end());
    if (p > 1) {
      const int right = (me + 1) % p;
      const int left = (me - 1 + p) % p;
      int have = me;  // block id we forward this step
      for (int step = 0; step < p - 1; ++step) {
        const auto& out_block = blocks[static_cast<std::size_t>(have)];
        // Buffered post (isend semantics) — a blocking rendezvous send here
        // would deadlock the ring, since every rank sends before receiving.
        isend(std::span<const T>(out_block), right, tag);
        const int incoming = (have - 1 + p) % p;
        blocks[static_cast<std::size_t>(incoming)] = recv_vec<T>(left, tag);
        have = incoming;
      }
    }
    std::vector<T> out;
    for (const auto& b : blocks) out.insert(out.end(), b.begin(), b.end());
    return out;
  }

  /// Pairwise-exchange all-to-all of variable blocks; `sendbufs[r]` goes to
  /// rank r.  Returns the blocks received, indexed by source rank.
  template <typename T>
  std::vector<std::vector<T>> alltoallv(const std::vector<std::vector<T>>& sendbufs) {
    static_assert(std::is_trivially_copyable_v<T>);
    O2K_REQUIRE(static_cast<int>(sendbufs.size()) == size(),
                "alltoallv: need one send buffer per rank");
    const int p = size();
    const int me = rank();
    const int tag = next_coll_tag();
    std::vector<std::vector<T>> out(static_cast<std::size_t>(p));
    out[static_cast<std::size_t>(me)] = sendbufs[static_cast<std::size_t>(me)];
    for (int step = 1; step < p; ++step) {
      const int dst = (me + step) % p;
      const int src = (me - step + p) % p;
      // Order the pair so the lower rank sends first: messages are eager
      // or the pattern would deadlock on symmetric rendezvous sends.
      if (me < dst) {
        send(std::span<const T>(sendbufs[static_cast<std::size_t>(dst)]), dst, tag);
        out[static_cast<std::size_t>(src)] = recv_vec<T>(src, tag);
      } else {
        out[static_cast<std::size_t>(src)] = recv_vec<T>(src, tag);
        send(std::span<const T>(sendbufs[static_cast<std::size_t>(dst)]), dst, tag);
      }
    }
    return out;
  }

  /// Gather variable-size blocks to `root`; the root receives one block per
  /// source rank (its own copied locally), everyone else gets empties.
  template <typename T>
  std::vector<std::vector<T>> gatherv(std::span<const T> mine, int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    O2K_REQUIRE(root >= 0 && root < size(), "mp: invalid gatherv root");
    const int tag = next_coll_tag();
    std::vector<std::vector<T>> out(static_cast<std::size_t>(size()));
    if (rank() == root) {
      out[static_cast<std::size_t>(root)].assign(mine.begin(), mine.end());
      for (int r = 0; r < size(); ++r) {
        if (r == root) continue;
        out[static_cast<std::size_t>(r)] = recv_vec<T>(r, tag);
      }
    } else {
      send(mine, root, tag);
    }
    return out;
  }

  /// Scatter variable-size blocks from `root`; returns this rank's block.
  /// Only the root's `blocks` argument is read.
  template <typename T>
  std::vector<T> scatterv(const std::vector<std::vector<T>>& blocks, int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    O2K_REQUIRE(root >= 0 && root < size(), "mp: invalid scatterv root");
    const int tag = next_coll_tag();
    if (rank() == root) {
      O2K_REQUIRE(static_cast<int>(blocks.size()) == size(),
                  "mp: scatterv needs one block per rank at the root");
      for (int r = 0; r < size(); ++r) {
        if (r == root) continue;
        send(std::span<const T>(blocks[static_cast<std::size_t>(r)]), r, tag);
      }
      return blocks[static_cast<std::size_t>(root)];
    }
    return recv_vec<T>(root, tag);
  }

  /// Exclusive prefix sum over ranks (rank 0 gets T{}).
  template <typename T>
  T exscan_sum(const T& v) {
    auto all = allgather(v);
    T acc{};
    for (int r = 0; r < rank(); ++r) acc += all[static_cast<std::size_t>(r)];
    return acc;
  }

 private:
  // Binomial-tree reduction to rank 0, combining in deterministic order.
  template <typename T, typename Op>
  void reduce_apply(std::span<T> v, Op op) {
    const int p = size();
    const int me = rank();
    const int tag = next_coll_tag();
    // Children combine upward: at round k, ranks with bit k set send to
    // rank with that bit cleared (if that partner exists).
    for (int k = 1; k < p; k <<= 1) {
      if ((me & k) != 0) {
        send(std::span<const T>(v.data(), v.size()), me & ~k, tag);
        return;
      }
      const int child = me | k;
      if (child < p) {
        auto got = recv_vec<T>(child, tag);
        O2K_CHECK(got.size() == v.size(), "mp: reduce size mismatch");
        for (std::size_t i = 0; i < v.size(); ++i) op(v[i], got[i]);
      }
    }
  }

  void bcast_bytes(std::span<std::byte> data, int root, int tag);
  /// Push one finished Message to `dst`'s mailbox and wake it.
  void enqueue_msg(int dst, detail::Message&& m);
  int next_coll_tag() { return kCollTagBase + coll_seq_++; }
  /// Sanitizer registration for a posted irecv (0 when no sanitizer).
  std::uint64_t register_irecv(int src, int tag);

  // Interned counter ids, resolved once per Comm so per-message accounting
  // never hashes or allocates a name.
  rt::CounterId c_msgs_{"mp.msgs"};
  rt::CounterId c_bytes_{"mp.bytes"};
  rt::CounterId c_recv_msgs_{"mp.recv_msgs"};

  static constexpr int kCollTagBase = 1 << 24;

  World& world_;
  rt::Pe& pe_;
  int coll_seq_ = 0;
};

}  // namespace o2k::mp
