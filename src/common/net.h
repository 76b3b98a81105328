// Minimal loopback socket transport for the multi-process runtime: a
// listener bound to an ephemeral 127.0.0.1 port and a connection that
// moves length-prefixed frames (4-byte little-endian length + payload —
// the same fixed32 encoding io::BufferWriter uses). The parameter-server
// wire protocol (ps/wire.h) rides entirely on WriteFrame/ReadFrame.
//
// Fault injection: every frame write hits the "rpc.send" failpoint and
// every frame read hits "rpc.recv", so chaos schedules cover the
// transport the same way they cover storage and compute.

#pragma once

#include <cstdint>
#include <string>

#include "common/status.h"

namespace agl::common {

/// Byte/frame counters of one connection (monotone, read after use).
struct SocketStats {
  int64_t frames_sent = 0;
  int64_t frames_received = 0;
  int64_t bytes_sent = 0;
  int64_t bytes_received = 0;
};

/// One connected stream socket moving length-prefixed frames.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }

  /// Writes one frame (length prefix + payload). kUnavailable when the
  /// peer is gone (EPIPE/ECONNRESET) — the retryable process-death class.
  agl::Status WriteFrame(const std::string& payload);

  /// Reads one frame. kUnavailable on clean EOF or a reset mid-frame,
  /// kCorruption on an insane length prefix.
  agl::Result<std::string> ReadFrame();

  /// Wakes a thread blocked in ReadFrame/WriteFrame on this socket without
  /// releasing the descriptor, so it is safe to call while another thread
  /// uses the socket. Close (or destruction) releases it afterwards.
  void Shutdown();

  void Close();

  const SocketStats& stats() const { return stats_; }

 private:
  int fd_ = -1;
  SocketStats stats_;
};

/// A listening socket on an ephemeral loopback port.
class Listener {
 public:
  Listener() = default;
  ~Listener() { Close(); }

  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Binds 127.0.0.1:0 and listens; the chosen port is in port().
  static agl::Result<Listener> Loopback();

  bool valid() const { return fd_ >= 0; }
  int port() const { return port_; }

  /// Blocks for the next connection. kUnavailable once Close() ran
  /// (the accept loop's shutdown signal).
  agl::Result<Socket> Accept();

  /// Unblocks pending Accept calls without releasing the descriptor, so
  /// it is safe to call while another thread is in Accept.
  void Shutdown();

  /// Unblocks pending Accept calls; idempotent.
  void Close();

 private:
  int fd_ = -1;
  int port_ = 0;
};

/// Connects to 127.0.0.1:`port`, retrying until `timeout_ms` — the server
/// process may still be binding when the client starts.
agl::Result<Socket> ConnectLoopback(int port, int timeout_ms = 10000);

}  // namespace agl::common
