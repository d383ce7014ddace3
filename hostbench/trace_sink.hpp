// The benchmark's own metrics::Sink for the traced run.
//
// It stamps host time (steady_clock) when a PE enters or leaves one of the
// apps' phases, counts barriers, and counts the messages larger than the
// eager limit.  Callbacks arrive concurrently from the PEs' host threads, so
// everything is kept in per-PE slots that only that PE writes; the
// per-phase totals are computed after the run.  Nothing is stamped per
// message: dht-mp delivers hundreds of thousands of them, and a stamp per
// message would make the trace's own memory traffic the thing being
// measured.
//
// The Sink only observes: attaching it must leave every virtual time bit
// for bit unchanged (the traced run checks this).
#pragma once

#include <chrono>
#include <cstdint>
#include <string_view>
#include <vector>

#include "metrics/sink.hpp"

namespace hostbench {

class TraceSink final : public o2k::metrics::Sink {
 public:
  /// The phases whose host time the benchmark reports (nbody, mesh, dht).
  static const std::vector<std::string_view>& tracked_phases();

  /// `eager_bytes` is the machine's mp_eager_bytes.
  TraceSink(int nprocs, std::uint64_t eager_bytes);

  void on_phase_begin(int pe, std::string_view name, double t_ns) override;
  void on_phase_end(int pe, std::string_view name, double t_ns) override;
  void on_counter(int, std::string_view, std::uint64_t, double) override {}
  void on_message(int pe, int src, int dst, std::uint64_t bytes, double t_ns,
                  bool in_matrix) override;
  void on_barrier(int pe, double begin_ns, double end_ns) override;

  /// Host seconds during which at least one PE was inside `phase`.
  [[nodiscard]] double phase_host_s(std::string_view phase) const;
  /// Barriers PE 0 took part in (every PE takes part in each).
  [[nodiscard]] std::uint64_t barriers() const;
  /// Transfers (canonical observations, each counted once) whose payload
  /// exceeds the eager limit.  A blocking send of that size takes the
  /// rendezvous path; a posted one (isend, allgatherv) stays buffered.
  [[nodiscard]] std::uint64_t large_messages() const;

 private:
  using Clock = std::chrono::steady_clock;
  struct Interval {
    int phase;
    Clock::time_point begin;
    Clock::time_point end;
  };
  struct alignas(64) PerPe {
    std::vector<std::pair<int, Clock::time_point>> open;  ///< phase stack (-1 = untracked)
    std::vector<Interval> closed;
    std::uint64_t barriers = 0;
    std::uint64_t large_messages = 0;
  };
  std::uint64_t eager_bytes_;
  std::vector<PerPe> pes_;
};

}  // namespace hostbench
