#include "trace_sink.hpp"

#include <algorithm>
#include <cstddef>

namespace hostbench {

namespace {

int phase_index(std::string_view name) {
  const auto& ph = TraceSink::tracked_phases();
  const auto it = std::find(ph.begin(), ph.end(), name);
  return it == ph.end() ? -1 : static_cast<int>(it - ph.begin());
}

}  // namespace

const std::vector<std::string_view>& TraceSink::tracked_phases() {
  static const std::vector<std::string_view> names{
      "tree",  "force", "update",  "balance", "comm",                         // nbody
      "solve", "mark",  "closure", "refine",  "remap",                        // mesh
      "init",  "gen",   "serve",   "route",   "churn", "check"};              // dht
  return names;
}

TraceSink::TraceSink(int nprocs, std::uint64_t eager_bytes)
    : eager_bytes_(eager_bytes), pes_(static_cast<std::size_t>(nprocs)) {}

void TraceSink::on_phase_begin(int pe, std::string_view name, double) {
  pes_[static_cast<std::size_t>(pe)].open.emplace_back(phase_index(name), Clock::now());
}

void TraceSink::on_phase_end(int pe, std::string_view, double) {
  const auto now = Clock::now();
  PerPe& s = pes_[static_cast<std::size_t>(pe)];
  if (s.open.empty()) return;
  const auto [phase, begin] = s.open.back();
  s.open.pop_back();
  if (phase >= 0) s.closed.push_back(Interval{phase, begin, now});
}

void TraceSink::on_message(int pe, int, int, std::uint64_t bytes, double, bool in_matrix) {
  if (in_matrix && bytes > eager_bytes_) ++pes_[static_cast<std::size_t>(pe)].large_messages;
}

void TraceSink::on_barrier(int pe, double, double) { ++pes_[static_cast<std::size_t>(pe)].barriers; }

double TraceSink::phase_host_s(std::string_view phase) const {
  const int idx = phase_index(phase);
  std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
  for (const PerPe& s : pes_)
    for (const Interval& i : s.closed)
      if (i.phase == idx) iv.emplace_back(i.begin, i.end);
  std::sort(iv.begin(), iv.end());
  // Length of the union of the intervals.
  Clock::duration total{0};
  for (std::size_t i = 0; i < iv.size();) {
    auto [lo, hi] = iv[i];
    for (++i; i < iv.size() && iv[i].first <= hi; ++i) hi = std::max(hi, iv[i].second);
    total += hi - lo;
  }
  return std::chrono::duration<double>(total).count();
}

std::uint64_t TraceSink::barriers() const { return pes_.empty() ? 0 : pes_.front().barriers; }

std::uint64_t TraceSink::large_messages() const {
  std::uint64_t n = 0;
  for (const PerPe& s : pes_) n += s.large_messages;
  return n;
}

}  // namespace hostbench
