// PsServer: serves an in-process ParameterServer over the loopback frame
// transport (common/net.h) speaking the ps/wire.h protocol. One thread
// per connection, strict request/response alternation — a connection
// whose request blocks (PullSsp parked at the clock gate) holds only its
// own thread, and a CancelSsp arriving on another connection unblocks it.
//
// The server owns no parameter state; it is a transport shim in front of
// the ParameterServer the caller passes in, which keeps the in-process
// and multi-process substrates running the exact same server arithmetic.

#pragma once

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/net.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "ps/parameter_server.h"

namespace agl::ps {

/// Transport-level counters of one PsServer (JSON-friendly observability
/// for `agl_cli ... --coord` runs; the parameter-level counters live in
/// ServerStats).
struct PsTransportStats {
  int64_t connections = 0;
  int64_t requests = 0;
  int64_t bytes_received = 0;
  int64_t bytes_sent = 0;
  /// Requests whose handler returned a non-OK status (sent to the client
  /// as an error response — the transport itself stayed healthy).
  int64_t failed_requests = 0;
};

class PsServer {
 public:
  explicit PsServer(ParameterServer* server) : server_(server) {}
  ~PsServer() { Stop(); }

  PsServer(const PsServer&) = delete;
  PsServer& operator=(const PsServer&) = delete;

  /// Binds an ephemeral loopback port (port()) and starts the accept loop.
  agl::Status Start();

  int port() const { return listener_.port(); }

  /// Closes the listener and every live connection, then joins all
  /// threads. Idempotent; also runs on destruction.
  void Stop();

  PsTransportStats transport_stats() const;

 private:
  void AcceptLoop();
  void Serve(std::size_t slot);

  ParameterServer* server_;
  common::Listener listener_;
  std::thread accept_thread_;

  mutable common::Mutex mu_;
  bool started_ GUARDED_BY(mu_) = false;
  bool stopping_ GUARDED_BY(mu_) = false;
  /// Connection slots; a slot's socket is closed by Stop() to unblock its
  /// thread. Slots are never reused — connections are cheap and finite in
  /// the driver's topology.
  std::vector<std::unique_ptr<common::Socket>> conns_ GUARDED_BY(mu_);
  std::vector<std::thread> conn_threads_ GUARDED_BY(mu_);
  PsTransportStats stats_ GUARDED_BY(mu_);
};

}  // namespace agl::ps
