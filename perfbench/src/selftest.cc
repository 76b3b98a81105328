// Self-test of the benchmark's own metric code. Runs before every
// workload; a failure marks the run incorrect.

#include <cmath>
#include <string>
#include <vector>

#include "measure.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

std::vector<std::string> SelfTest() {
  std::vector<std::string> failed;
  const auto check = [&](bool ok, const char* what) {
    if (!ok) failed.push_back(what);
  };
  const auto near = [](double a, double b) { return std::fabs(a - b) < 1e-9; };

  // Percentiles and their support.
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  check(Percentile(hundred, 0.5) == 50, "p50 of 1..100 is 50");
  check(Percentile(hundred, 0.95) == 95, "p95 of 1..100 is 95");
  check(Percentile(hundred, 0.9) == 90, "p90 of 1..100 is 90");
  check(Percentile({}, 0.5) == 0, "percentile of nothing is 0");
  check(Median({3, 1, 2}) == 2, "median of 3 values");
  check(SamplesBeyond(100, 0.95) == 5, "5 samples beyond p95 of 100");
  check(SamplesBeyond(300, 0.95) == 15, "15 samples beyond p95 of 300");
  check(SamplesBeyond(300, 0.9) == 30, "30 samples beyond p90 of 300");

  // Open-loop accounting: latency from the scheduled send, and every
  // rejected, failed or unfinished request counted as a failure.
  const OpenLoopSummary s = Summarize(
      {1.0, 2.0, 3.0, 4.0, 5.0}, {1.5, 2.1, 0, 0, 0},
      {Outcome::kCompleted, Outcome::kCompleted, Outcome::kRejected,
       Outcome::kFailed, Outcome::kPending});
  check(s.attempted == 5 && s.failed == 3, "rejected/failed/pending fail");
  check(s.latency_ms.size() == 2 && near(s.latency_ms[0], 500) &&
            near(s.latency_ms[1], 100),
        "latency timed from the scheduled send");
  const Lateness late = MeasureLateness({0, 1, 2}, {0, 1.01, 2.5});
  check(near(late.p50_ms, 10) && near(late.max_ms, 500),
        "generator lateness p50 and max");

  // Seeded schedules are deterministic per seed and differ across seeds.
  const auto a = PoissonArrivals(7, 30, 100);
  check(a == PoissonArrivals(7, 30, 100), "Poisson deterministic per seed");
  check(a != PoissonArrivals(8, 30, 100), "Poisson differs across seeds");
  check(a.size() == 3000, "Poisson count is rate x window");
  bool increasing = true;
  int long_gaps = 0;
  for (std::size_t i = 1; i < a.size(); ++i) {
    increasing &= a[i] > a[i - 1];
    long_gaps += a[i] - a[i - 1] > 1.0 / 30;
  }
  // Exponential gaps: a share e^-1 ~ 0.37 of them exceed the mean gap.
  check(long_gaps > 1000 && long_gaps < 1200, "Poisson gaps exponential");
  check(increasing && !a.empty() && a.back() < 100, "Poisson in window");
  const auto z = ZipfRequests(7, 1000, 1.1, 2000, 8);
  check(z == ZipfRequests(7, 1000, 1.1, 2000, 8), "Zipf deterministic");
  check(z != ZipfRequests(8, 1000, 1.1, 2000, 8), "Zipf differs by seed");
  std::vector<int> hits(1000, 0);
  bool sizes_ok = true;
  for (const auto& r : z) {
    sizes_ok &= r.size() >= 1 && r.size() <= 8;
    for (int64_t t : r) hits[static_cast<std::size_t>(t)]++;
  }
  int hottest = 0;
  for (int h : hits) hottest = std::max(hottest, h);
  check(sizes_ok, "1..8 targets per request");
  check(hottest > 200, "Zipf head is hot");

  // Residual arithmetic and span self time.
  check(near(Residual(10, {1, 2, 3}), 4), "residual = wall - stages");
  Tracer tracer(true);
  const int parent = tracer.Open("p", -1, -1, 0);
  tracer.Close(tracer.Open("c", parent, 1, 1), 3);
  tracer.Close(tracer.Open("c", parent, 2, 2), 5);
  tracer.Close(tracer.Open("c", parent, 3, 8), 12);
  tracer.Close(parent, 10);
  bool self_ok = false;
  for (const auto& t : tracer.SelfTimes()) {
    if (t.name == "p") self_ok = near(t.self_s, 4) && near(t.total_s, 10);
  }
  check(self_ok, "self time = span minus union of children");
  Tracer off(false);
  check(off.Open("x", -1, -1, 0) == -1, "disabled tracer records nothing");
  return failed;
}

}  // namespace perfbench
