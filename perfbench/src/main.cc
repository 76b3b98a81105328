// agl_perfbench: runs one benchmark workload and prints its metrics.
//
//   agl_perfbench --workload <pipeline|pipeline_procs|serve_read|
//                  serve_mutate> --seed <n> --seconds <s> --trace <0|1>
//                 [--work-dir <dir>]
//
// stderr gets the human-readable report (stamps, digests, per-layer table,
// self times); the last stdout line is one JSON object with every metric
// the run measured. perfbench/run.py builds this binary and selects the
// metrics BENCHMARK.json names.

#include <sys/vfs.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "driver/driver.h"
#include "measure.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

bool WipeDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  if (ec) return false;
  return std::filesystem::create_directories(dir, ec) && !ec;
}

namespace {

std::string FsType(const std::string& path) {
  struct statfs s {};
  if (statfs(path.c_str(), &s) != 0) return "unknown";
  switch (static_cast<unsigned long>(s.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(s.f_type));
      return buf;
    }
  }
}

/// Reasons this build or environment may not report numbers.
std::vector<std::string> Refusals() {
  std::vector<std::string> out;
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    out.push_back(std::string("build type is '") + PERFBENCH_BUILD_TYPE +
                  "', not Release");
  }
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    PERFBENCH_SANITIZED
  out.push_back("sanitizer build");
#endif
  const char* fp = std::getenv("AGL_FAILPOINTS");
  if (fp != nullptr && fp[0] != '\0') {
    out.push_back(std::string("AGL_FAILPOINTS is armed: ") + fp);
  }
  return out;
}

int Usage() {
  std::fprintf(stderr,
               "usage: agl_perfbench --workload <pipeline|pipeline_procs|"
               "serve_read|serve_mutate> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>]\n");
  return 2;
}

void PrintLayerTable(const Report& report, const Tracer& tracer) {
  std::fprintf(stderr, "\nper-layer metrics:\n");
  for (const Metric& m : report.per_layer) {
    std::fprintf(stderr, "  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  if (!tracer.enabled()) return;
  std::fprintf(stderr, "\nspan self times (self = span - children; the "
                       "root's self time is its residual):\n");
  std::fprintf(stderr, "  %-24s %8s %12s %12s\n", "span", "count",
               "total_s", "self_s");
  for (const auto& t : tracer.SelfTimes()) {
    std::fprintf(stderr, "  %-24s %8lld %12.6f %12.6f\n", t.name.c_str(),
                 static_cast<long long>(t.count), t.total_s, t.self_s);
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // Worker processes of pipeline_procs re-exec this binary.
  if (auto code = agl::driver::RunWorkerIfSpawned(argc, argv)) return *code;

  Options options;
  bool have_seed = false;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      trace = value == "1" ? 1 : value == "0" ? 0 : -1;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage();
    }
  }
  const bool known =
      options.workload == "pipeline" || options.workload == "pipeline_procs" ||
      options.workload == "serve_read" || options.workload == "serve_mutate";
  if (argc % 2 == 0 || !known || !have_seed || trace < 0 ||
      options.seconds <= 0) {
    return Usage();
  }
  options.trace = trace == 1;
  if (options.work_dir.empty()) {
    options.work_dir = ".bench_build/work/" + options.workload;
  }
  // No leftover DFS root or published store may warm this run.
  if (!WipeDir(options.work_dir)) {
    std::fprintf(stderr, "cannot create %s\n", options.work_dir.c_str());
    return 1;
  }

  std::fprintf(stderr,
               "workload %s seed %llu seconds %g trace %d | nproc %u | dfs "
               "%s on %s | build %s\n",
               options.workload.c_str(),
               static_cast<unsigned long long>(options.seed), options.seconds,
               trace, std::thread::hardware_concurrency(),
               options.work_dir.c_str(), FsType(options.work_dir).c_str(),
               PERFBENCH_BUILD_TYPE);
  std::printf("# env {\"nproc\": %u, \"dfs_fs\": \"%s\", \"seed\": %llu, "
              "\"build\": \"%s\"}\n",
              std::thread::hardware_concurrency(),
              FsType(options.work_dir).c_str(),
              static_cast<unsigned long long>(options.seed),
              PERFBENCH_BUILD_TYPE);

  std::vector<std::string> invalid = Refusals();
  for (const std::string& f : SelfTest()) {
    invalid.push_back("self-test failed: " + f);
  }

  Tracer tracer(options.trace);
  Report report;
  const CpuTicks ticks0 = HostCpuTicks();
  if (options.workload == "pipeline" || options.workload == "pipeline_procs") {
    report = RunPipeline(options, options.workload == "pipeline_procs",
                         &tracer);
  } else {
    report = RunServe(options, options.workload == "serve_mutate", &tracer);
  }
  // Share of CPU time the hypervisor gave to other guests during the run:
  // a drift in the timings with a rise here is the host's, not the code's.
  const CpuTicks ticks1 = HostCpuTicks();
  report.Layer("host.steal_pct",
               100 * (ticks1.steal - ticks0.steal) /
                   std::max(1.0, ticks1.total - ticks0.total),
               "%");
  // This process's durability points over the run (set-up included);
  // worker processes count their own.
  report.Layer("dfs.fsyncs", static_cast<double>(FsyncCalls()), "count");
  invalid.insert(invalid.end(), report.errors.begin(), report.errors.end());

  std::fprintf(stderr, "\nend-to-end metrics%s:\n",
               options.trace ? " (traced run: not reported)" : "");
  for (const Metric& m : report.end_to_end) {
    std::fprintf(stderr, "  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  PrintLayerTable(report, tracer);
  if (options.trace) {
    const std::string path = options.work_dir + "/trace.json";
    if (tracer.WriteChrome(path)) {
      std::fprintf(stderr, "\nChrome trace: %s\n", path.c_str());
    } else {
      invalid.push_back("cannot write " + path);
    }
  }
  for (const std::string& why : invalid) {
    std::fprintf(stderr, "INVALID: %s\n", why.c_str());
  }

  std::vector<Metric> metrics = report.end_to_end;
  metrics.insert(metrics.end(), report.per_layer.begin(),
                 report.per_layer.end());
  for (Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "INVALID: metric %s is not finite\n",
                   m.name.c_str());
      invalid.push_back(m.name);
      m.value = 0;
    }
  }
  std::printf("%s\n", ResultJson(invalid.empty(), report.attempted,
                                 report.failed, metrics)
                          .c_str());
  return 0;
}
