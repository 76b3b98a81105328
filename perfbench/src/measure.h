// The benchmark's own metric arithmetic: percentiles with their support,
// seeded arrival and target schedules, process resource counters, output
// digests, and the metric report every workload fills in. Everything here
// is covered by the self-test (selftest.cc), which runs before every
// workload.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Seconds on the monotonic clock.
double Now();

/// splitmix64: the benchmark's only source of randomness, so schedules are
/// a pure function of the seed on every platform and standard library.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, 1), 53 random bits.
  double Uniform();
  /// Uniform integer in [0, n).
  uint64_t Below(uint64_t n);

 private:
  uint64_t state_;
};

/// Derives an independent stream seed from (seed, stream).
uint64_t StreamSeed(uint64_t seed, uint64_t stream);

/// Nearest-rank percentile (p in [0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);

/// How many samples lie strictly above the nearest-rank index of `p`.
int64_t SamplesBeyond(int64_t n, double p);

double Median(std::vector<double> values);

/// Poisson process at `rate_per_s` conditioned on its expected count:
/// round(rate_per_s * window_s) arrival offsets drawn uniformly in
/// [0, window_s) and sorted (seconds from the window start), seeded. The
/// gaps are exponential as in any Poisson process, but every seed sends
/// the same number of requests, so per-request ratios do not move with a
/// seed's count.
std::vector<double> PoissonArrivals(uint64_t seed, double rate_per_s,
                                    double window_s);

/// Zipf(s) sampler over ranks [0, n): rank r has weight 1/(r+1)^s.
class ZipfSampler {
 public:
  ZipfSampler(int64_t n, double s);
  int64_t Sample(SplitMix* rng) const;

 private:
  std::vector<double> cdf_;
};

/// One seeded read request: 1..max_targets node ranks drawn Zipf-skewed
/// (ranks index a seed-permuted node order, so the hot set differs per
/// seed but not its shape).
std::vector<std::vector<int64_t>> ZipfRequests(uint64_t seed, int64_t n,
                                               double skew, int count,
                                               int max_targets);

/// Open-loop lateness: how far each actual send trailed its schedule.
struct Lateness {
  double p50_ms = 0;
  double max_ms = 0;
};
Lateness MeasureLateness(const std::vector<double>& scheduled,
                         const std::vector<double>& actual);

/// Fate of one open-loop request.
enum class Outcome : char { kPending, kCompleted, kRejected, kFailed };

struct OpenLoopSummary {
  int64_t attempted = 0;
  /// Rejected, failed, and never-completed requests.
  int64_t failed = 0;
  /// Completed requests only, each timed from its scheduled send time (not
  /// its actual send), so a stalled generator cannot hide the queueing it
  /// caused.
  std::vector<double> latency_ms;
};
OpenLoopSummary Summarize(const std::vector<double>& scheduled,
                          const std::vector<double>& completed,
                          const std::vector<Outcome>& outcomes);

/// Unattributed time of a parent span: wall minus the sum of its
/// sequential child stages.
double Residual(double wall, const std::vector<double>& stages);

/// CPU seconds (user + system) of this process plus its reaped children.
double CpuSeconds();
/// Peak resident set of this process and of the largest reaped child, MB.
double PeakRssMb(bool include_children);
/// Resident set of this process now, MB (0 where /proc is unavailable).
double CurrentRssMb();

/// Host CPU ticks from /proc/stat, all CPUs: the total and the part the
/// hypervisor gave to other guests (steal). Zeros where unavailable.
struct CpuTicks {
  double steal = 0;
  double total = 0;
};
CpuTicks HostCpuTicks();

/// fsync calls this process made so far (durability.cc: they return
/// without flushing, as on tmpfs).
int64_t FsyncCalls();

/// 64-bit FNV-1a, chainable.
uint64_t Fnv(std::string_view bytes, uint64_t h = 1469598103934665603ull);
std::string Hex(uint64_t v);

/// A named measurement with its unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a workload hands back to main: the end-to-end metrics (untraced),
/// the per-layer metrics, the op counts, and every correctness failure.
struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;

  void E2E(std::string name, double value, std::string unit);
  void Layer(std::string name, double value, std::string unit);
  /// Records a failed gate; any error makes the run incorrect.
  void Fail(std::string what);
  /// Checks `ok`; on false records `what`.
  bool Check(bool ok, std::string what);
};

/// The run result line: {"correct":..,"attempted":..,"failed":..,
/// "metrics":{name:{"value":..,"unit":..}}}.
std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace perfbench
