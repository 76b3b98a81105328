// The supervising driver: runs the shards and trainer workers of a job as
// real OS processes while keeping the in-process thread path's output
// byte-identical.
//
// One job shell. Each pipeline's job logic exists once, parameterized only
// by how its S shards or W workers run: flat::RunGraphFlat with a
// FlatShardRunner, analytics::RunVertexProgram with an
// AnalyticsShardRunner, and GraphTrainer::TrainLoop with an EpochRunner.
// The driver passes process runners and keeps only what the process
// boundary adds: job metas and table slices on the DFS, spawning,
// classified-retry supervision, reading worker outputs back, and hosting
// the PsServer in front of the loop's ParameterServer.
//
// Topology. The driver process (the one the user invoked) re-execs ITSELF
// as workers: `Spawn(SelfExecutable(), "__agl_worker", role, ...)`. A binary
// opts in by calling RunWorkerIfSpawned() first thing in main(); when argv
// marks the process as a worker it runs its role and exits instead of
// parsing user flags. All bulk data crosses the boundary through the
// crash-consistent LocalDfs (job metas, table slices, the DfsExchange's
// boundary buckets, worker outputs); the trainer's hot path speaks the ps/
// wire protocol to a PsServer the driver hosts.
//
// Failure semantics. Worker exits feed common::ClassifyExit into the same
// classified-retry policy the in-process layers use: a signal death (the
// chaos harness's SIGKILL, an OOM kill, or a worker turning an injected
// crash failpoint into a real `raise(SIGKILL)`) is kUnavailable and
// retryable up to `max_restarts`; a nonzero exit carries a worker-reported
// Status read back off the DFS and is fatal unless it is retryable.
// GraphFlat/analytics shards restart individually — their DfsExchange
// publishes are idempotent (atomic replace, byte-identical recomputation),
// so peers keep polling while one restarts. A shard that fails for good
// stops the job at once: its surviving peers are killed without a restart
// and the job returns that shard's error. Trainer recovery is
// epoch-grained: the driver exports the PS state at each epoch start, and
// on a worker death cancels the SSP epoch, re-imports the snapshot (values
// + Adam moments), and respawns the epoch's workers — bit-exact for kBsp
// and kSsp at bound 0 because each worker-epoch's schedule and RNG are
// pure functions of (config, seed, epoch, worker).

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "analytics/vertex_program.h"
#include "common/status.h"
#include "driver/spec.h"
#include "flat/graphflat.h"
#include "mr/local_dfs.h"
#include "ps/server.h"
#include "subgraph/graph_feature.h"
#include "trainer/trainer.h"

namespace agl::driver {

struct DriverOptions {
  /// Coordination DFS: job specs, exchange buckets, worker results. Must
  /// be reachable by the worker processes (same machine/root).
  mr::LocalDfs* dfs = nullptr;
  /// Namespace for this job's datasets on `dfs`; everything under
  /// "<job_prefix>." is dropped when the job ends.
  std::string job_prefix = "job";
  /// Classified-retry budget: how many times a signal-killed process (or,
  /// for the trainer, a broken epoch) is relaunched before giving up.
  int max_restarts = 2;
  /// Extra "KEY=VALUE" env entries for every worker spawn.
  std::vector<std::string> worker_env;
  /// Env entries applied ONLY to each process's first launch — the chaos
  /// hook: arm a crash failpoint here (e.g. "AGL_FAILPOINTS=
  /// trainer.step=crash@3") and the first attempt dies by SIGKILL while
  /// every retry runs clean.
  std::vector<std::string> first_attempt_env;
  /// DfsExchange pacing for shard workers.
  int exchange_poll_ms = 2;
  int exchange_timeout_ms = 120000;
};

/// Supervision counters (the driver-side complement of the transport
/// stats), printed by `agl_cli ... --coord`. Filled in on failure too.
struct DriverStats {
  int64_t spawns = 0;
  int64_t restarts = 0;
  int64_t clean_exits = 0;
  int64_t signal_exits = 0;
  int64_t error_exits = 0;
  /// Worker-side boundary traffic, summed across shard processes
  /// (GraphFlat/analytics jobs).
  flat::ExchangeStats exchange;
  /// Driver-side PS socket traffic (trainer jobs).
  ps::PsTransportStats ps_transport;
};

/// GraphFlat with S shard processes over a DfsExchange; byte-identical to
/// RunGraphFlat with the same config (the sharding suite's oracle).
/// `out_dfs`/`dataset` receive the flattened features exactly as
/// RunGraphFlat writes them; `options.dfs` carries the coordination state.
agl::Result<flat::GraphFlatStats> RunGraphFlatProcesses(
    const DriverOptions& options, const flat::GraphFlatConfig& config,
    const std::vector<flat::NodeRecord>& nodes,
    const std::vector<flat::EdgeRecord>& edges, mr::LocalDfs* out_dfs,
    const std::string& dataset, DriverStats* stats = nullptr);

/// Vertex-program analytics with S shard processes; byte-identical to
/// RunVertexProgram (values compare bit-for-bit via SerializeValues).
agl::Result<analytics::AnalyticsResult> RunAnalyticsProcesses(
    const DriverOptions& options, const analytics::AnalyticsConfig& config,
    const ProgramSpec& program, const std::vector<flat::NodeRecord>& nodes,
    const std::vector<flat::EdgeRecord>& edges,
    DriverStats* stats = nullptr);

/// Parameter-server training with worker processes against a wire PS
/// hosted by the driver. Supports kBsp (run as SSP bound 0 on the wire —
/// proven bit-identical by the consistency suite) and kSsp; kAsync and
/// mid-epoch checkpointing are rejected (no replayable schedule across a
/// process respawn). Runs GraphTrainer::TrainLoop, so epoch-boundary
/// checkpoints (`checkpoint_dfs`), eval_every and patience are Train's.
agl::Result<trainer::TrainReport> TrainProcesses(
    const DriverOptions& options, const trainer::TrainerConfig& config,
    std::span<const subgraph::GraphFeature> train,
    std::span<const subgraph::GraphFeature> val,
    DriverStats* stats = nullptr);

/// The worker-process hook: call FIRST in main() of every binary that can
/// act as a driver. Returns the process exit code when this invocation is
/// a spawned worker (argv[1] == "__agl_worker"), nullopt when it is a
/// normal user invocation.
std::optional<int> RunWorkerIfSpawned(int argc, char** argv);

}  // namespace agl::driver
