// Child-process helpers for the driver subsystem: spawn a worker binary,
// wait for it, classify how it exited. The classification feeds the same
// retry layer the in-process failpoints exercise — a signal death (OOM
// kill, SIGKILL from the chaos harness, a crashed runtime) is transient
// (kUnavailable, retryable); a nonzero exit is a worker-reported failure
// whose real Status the worker left on shared storage.

#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

#include "common/status.h"

namespace agl::common {

/// How a child exited.
struct ExitStatus {
  bool signaled = false;
  /// Exit code when !signaled, terminating signal number when signaled.
  int value = 0;

  bool clean() const { return !signaled && value == 0; }
};

/// Spawns `argv` (argv[0] is the executable path; PATH is not searched)
/// with this process's environment plus `extra_env` ("KEY=VALUE" entries,
/// overriding inherited keys). Hits the "driver.spawn" failpoint first so
/// chaos schedules can starve the driver of workers.
agl::Result<pid_t> Spawn(const std::vector<std::string>& argv,
                         const std::vector<std::string>& extra_env = {});

/// Blocks until `pid` exits.
agl::Result<ExitStatus> Wait(pid_t pid);

/// Blocks until `pid` exits but leaves it unreaped, so its pid stays
/// reserved and a concurrent Kill cannot reach a recycled pid. Reap it
/// with Wait.
agl::Status AwaitExit(pid_t pid);

/// Sends `sig` to `pid`; kNotFound when the process is already gone.
agl::Status Kill(pid_t pid, int sig);

/// True while `pid` names a live process (or an unreaped zombie).
bool IsAlive(pid_t pid);

/// Maps a child's ExitStatus onto the Status classification the retry
/// layer consumes: OK for a clean exit, retryable kUnavailable for a
/// signal death, kInternal ("look at the worker's reported status") for a
/// nonzero exit.
agl::Status ClassifyExit(const ExitStatus& exit, const std::string& what);

/// Path of the currently-running executable (/proc/self/exe), used to
/// re-exec workers of the same binary.
agl::Result<std::string> SelfExecutable();

}  // namespace agl::common
