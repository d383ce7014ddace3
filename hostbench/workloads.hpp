// The four P=64 workloads of the host-wall benchmark, and the verification
// every simulated run of them goes through.
//
// A workload is one app under one programming model plus its scheduler
// setting.  "Default" workloads set no scheduler knob at all, so a change
// of the simulator's default is measured the way a user meets it; pinned
// workloads ask rt::Machine for min(4, host cores) synchronization domains.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "apps/mesh_app.hpp"
#include "apps/nbody_app.hpp"
#include "apps/report.hpp"
#include "rt/machine.hpp"

namespace hostbench {

/// Simulated processors of every workload: the paper's Origin2000 size.
inline constexpr int kProcs = 64;
/// The apps' default seed; reference makespans are recorded at it.
inline constexpr std::uint64_t kDefaultSeed = 20000101;

/// kFull is what the benchmark measures; kTiny keeps each workload's shape
/// at a size the tests can afford.
enum class Size { kFull, kTiny };

struct Workload {
  std::string_view name;
  std::string_view app;  ///< "nbody", "dht" or "mesh"
  o2k::apps::Model model;
  /// Pinned domains at pinned_workers(); otherwise no scheduler knob is set.
  bool pinned = false;
  /// False when the app has no RNG (mesh): every seed runs the same program.
  bool seeded = true;
  /// Makespan of the kFull run at kDefaultSeed, compared bit for bit.
  double reference_ns = 0.0;
  std::function<o2k::apps::AppReport(o2k::rt::Machine&, std::uint64_t seed, Size)> run;
  /// Empty when every app check holds, else a description of the first that
  /// does not.
  std::function<std::string(const o2k::apps::AppReport&, Size)> check;
};

[[nodiscard]] const std::vector<Workload>& workloads();
/// nullptr for an unknown name.
[[nodiscard]] const Workload* find_workload(std::string_view name);

/// Domains a pinned workload asks for: min(4, host cores).
[[nodiscard]] int pinned_workers();
/// Host cores as the OS reports them.
[[nodiscard]] int host_cores();
/// Apply the workload's scheduler setting to a fresh Machine.
void configure(o2k::rt::Machine& m, const Workload& w);
/// The reference a run of `w` at `seed` and `size` must reproduce, if any.
[[nodiscard]] std::optional<double> reference_for(const Workload& w, std::uint64_t seed,
                                                  Size size);

/// Workload configurations; the serial kernel probes share them.
[[nodiscard]] o2k::apps::NbodyConfig nbody_sas_config(std::uint64_t seed, Size size);
[[nodiscard]] o2k::apps::NbodyConfig nbody_mp_config(std::uint64_t seed, Size size);
[[nodiscard]] o2k::apps::MeshConfig mesh_shmem_config(Size size);

/// Failure accounting over a series of simulated runs of one workload.
class Verifier {
 public:
  explicit Verifier(std::optional<double> reference_ns = std::nullopt)
      : reference_(reference_ns) {}

  /// Run once and verify.  The run fails if it throws, if `check` reports a
  /// problem, if its makespan differs from the series' first passing run,
  /// or if it differs from the reference.  Returns the report of a run that
  /// passed.
  std::optional<o2k::apps::AppReport> attempt(
      const std::function<o2k::apps::AppReport()>& run,
      const std::function<std::string(const o2k::apps::AppReport&)>& check);

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  /// The first few failure descriptions.
  [[nodiscard]] const std::vector<std::string>& errors() const { return errors_; }
  /// Makespan of the first passing run.
  [[nodiscard]] std::optional<double> makespan() const { return makespan_; }

 private:
  void fail(std::string why);

  std::optional<double> reference_;
  std::optional<double> makespan_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> errors_;
};

/// The first scheduler or checker variable set in the environment, or ""
/// when none is.  The benchmark refuses to run under any of them.
[[nodiscard]] std::string forbidden_env();

/// Bit-exact text of a makespan ("%a").
[[nodiscard]] std::string hex(double v);

/// Median of `v` (0 when empty).
[[nodiscard]] double median(std::vector<double> v);

}  // namespace hostbench
