#include "measure.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace perfbench {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t SplitMix::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double SplitMix::Uniform() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

uint64_t SplitMix::Below(uint64_t n) {
  return static_cast<uint64_t>(Uniform() * static_cast<double>(n));
}

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  SplitMix mix(seed * 0x100000001b3ull + stream);
  return mix.Next();
}

namespace {
// 0-based nearest-rank index: the smallest k with (k+1)/n >= p.
int64_t RankIndex(int64_t n, double p) {
  const int64_t k =
      static_cast<int64_t>(std::ceil(p * static_cast<double>(n) - 1e-9)) - 1;
  return std::clamp<int64_t>(k, 0, n - 1);
}
}  // namespace

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  return values[static_cast<std::size_t>(
      RankIndex(static_cast<int64_t>(values.size()), p))];
}

int64_t SamplesBeyond(int64_t n, double p) {
  if (n <= 0) return 0;
  return n - 1 - RankIndex(n, p);
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

std::vector<double> PoissonArrivals(uint64_t seed, double rate_per_s,
                                    double window_s) {
  SplitMix rng(seed);
  const auto count =
      static_cast<std::size_t>(std::llround(rate_per_s * window_s));
  std::vector<double> out(count);
  for (double& t : out) t = rng.Uniform() * window_s;
  std::sort(out.begin(), out.end());
  return out;
}

ZipfSampler::ZipfSampler(int64_t n, double s) {
  cdf_.reserve(static_cast<std::size_t>(n));
  double total = 0;
  for (int64_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

int64_t ZipfSampler::Sample(SplitMix* rng) const {
  const double u = rng->Uniform();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<int64_t>(it - cdf_.begin(),
                           static_cast<int64_t>(cdf_.size()) - 1);
}

std::vector<std::vector<int64_t>> ZipfRequests(uint64_t seed, int64_t n,
                                               double skew, int count,
                                               int max_targets) {
  SplitMix rng(seed);
  std::vector<int64_t> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  for (int64_t i = n - 1; i > 0; --i) {
    std::swap(perm[static_cast<std::size_t>(i)],
              perm[rng.Below(static_cast<uint64_t>(i) + 1)]);
  }
  const ZipfSampler zipf(n, skew);
  std::vector<std::vector<int64_t>> out(static_cast<std::size_t>(count));
  for (auto& request : out) {
    const int k = 1 + static_cast<int>(rng.Below(
                          static_cast<uint64_t>(max_targets)));
    for (int t = 0; t < k; ++t) {
      request.push_back(perm[static_cast<std::size_t>(zipf.Sample(&rng))]);
    }
  }
  return out;
}

Lateness MeasureLateness(const std::vector<double>& scheduled,
                         const std::vector<double>& actual) {
  std::vector<double> late;
  const std::size_t n = std::min(scheduled.size(), actual.size());
  for (std::size_t i = 0; i < n; ++i) {
    late.push_back(std::max(0.0, actual[i] - scheduled[i]) * 1e3);
  }
  Lateness out;
  out.p50_ms = Percentile(late, 0.5);
  out.max_ms = late.empty() ? 0 : *std::max_element(late.begin(), late.end());
  return out;
}

OpenLoopSummary Summarize(const std::vector<double>& scheduled,
                          const std::vector<double>& completed,
                          const std::vector<Outcome>& outcomes) {
  OpenLoopSummary out;
  out.attempted = static_cast<int64_t>(outcomes.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (outcomes[i] == Outcome::kCompleted) {
      out.latency_ms.push_back((completed[i] - scheduled[i]) * 1e3);
    } else {
      ++out.failed;
    }
  }
  return out;
}

double Residual(double wall, const std::vector<double>& stages) {
  return wall - std::accumulate(stages.begin(), stages.end(), 0.0);
}

namespace {
double Seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}
}  // namespace

double CpuSeconds() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return Seconds(self.ru_utime) + Seconds(self.ru_stime) +
         Seconds(children.ru_utime) + Seconds(children.ru_stime);
}

double PeakRssMb(bool include_children) {
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  double kb = static_cast<double>(self.ru_maxrss);
  if (include_children) {
    rusage children{};
    getrusage(RUSAGE_CHILDREN, &children);
    kb += static_cast<double>(children.ru_maxrss);
  }
  return kb / 1024.0;
}

double CurrentRssMb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long long size = 0, resident = 0;
  const int got = std::fscanf(f, "%lld %lld", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1 << 20);
}

CpuTicks HostCpuTicks() {
  CpuTicks t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  // cpu user nice system idle iowait irq softirq steal
  unsigned long long v[8] = {};
  const int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                              &v[7]);
  std::fclose(f);
  if (got != 8) return t;
  for (unsigned long long x : v) t.total += static_cast<double>(x);
  t.steal = static_cast<double>(v[7]);
  return t;
}

uint64_t Fnv(std::string_view bytes, uint64_t h) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void Report::E2E(std::string name, double value, std::string unit) {
  end_to_end.push_back({std::move(name), value, std::move(unit)});
}

void Report::Layer(std::string name, double value, std::string unit) {
  per_layer.push_back({std::move(name), value, std::move(unit)});
}

void Report::Fail(std::string what) { errors.push_back(std::move(what)); }

bool Report::Check(bool ok, std::string what) {
  if (!ok) Fail(std::move(what));
  return ok;
}

std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    out += "\"" + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
