// The DFS root of a run lies inside the checkout, on whatever file system
// holds it; often that is a disk shared with other machines, where one
// fsync takes anywhere from 1 to over 100 ms depending on the neighbours.
// The benchmark measures the program's work, not the neighbours, so the
// root behaves as on tmpfs: this definition of fsync, linked into the
// benchmark binary (and so into its re-executed worker processes), takes
// precedence over the C library's. It checks the descriptor, as fsync
// does, counts the call and returns without flushing. Writes still go
// through the page cache, and every crash-consistency step of the program
// (scratch file, rename, MANIFEST) still runs. The count is the per-layer
// metric dfs.fsyncs, so work that saves durability points still shows.

#include <fcntl.h>

#include <atomic>
#include <cstdint>

#include "measure.h"

namespace perfbench {
namespace {
std::atomic<int64_t> fsyncs{0};
}  // namespace

int64_t FsyncCalls() { return fsyncs.load(std::memory_order_relaxed); }

}  // namespace perfbench

extern "C" int fsync(int fd) {
  perfbench::fsyncs.fetch_add(1, std::memory_order_relaxed);
  return ::fcntl(fd, F_GETFD) == -1 ? -1 : 0;
}
