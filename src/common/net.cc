#include "common/net.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "common/failpoint.h"

namespace agl::common {
namespace {

// Largest frame the transport accepts. Generous (a full exported PS state
// rides in one frame) while still rejecting garbage length prefixes from a
// desynchronized stream.
constexpr uint32_t kMaxFrameBytes = 1u << 30;

agl::Status Errno(const std::string& what) {
  return agl::Status::IoError(what + ": " + std::strerror(errno));
}

/// Full write, resuming across short writes and EINTR. Peer-gone errors
/// come back as kUnavailable so retry layers classify them as transient.
agl::Status WriteAll(int fd, const char* data, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w = ::write(fd, data + off, n - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET) {
        return agl::Status::Unavailable("peer closed the connection");
      }
      return Errno("socket write");
    }
    off += static_cast<std::size_t>(w);
  }
  return agl::Status::OK();
}

/// Full read; `eof_ok` distinguishes a clean close between frames from a
/// truncation inside one.
agl::Status ReadAll(int fd, char* data, std::size_t n, bool eof_ok) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t r = ::read(fd, data + off, n - off);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == ECONNRESET) {
        return agl::Status::Unavailable("peer reset the connection");
      }
      return Errno("socket read");
    }
    if (r == 0) {
      if (eof_ok && off == 0) {
        return agl::Status::Unavailable("peer closed the connection");
      }
      return agl::Status::Unavailable("connection closed mid-frame");
    }
    off += static_cast<std::size_t>(r);
  }
  return agl::Status::OK();
}

}  // namespace

Socket::Socket(Socket&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), stats_(other.stats_) {}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
    stats_ = other.stats_;
  }
  return *this;
}

agl::Status Socket::WriteFrame(const std::string& payload) {
  if (fd_ < 0) return agl::Status::FailedPrecondition("socket is closed");
  if (payload.size() > kMaxFrameBytes) {
    return agl::Status::InvalidArgument("frame exceeds the transport cap");
  }
  AGL_RETURN_IF_ERROR(fail::MaybeFail("rpc.send"));
  char prefix[4];
  const uint32_t n = static_cast<uint32_t>(payload.size());
  prefix[0] = static_cast<char>(n & 0xff);
  prefix[1] = static_cast<char>((n >> 8) & 0xff);
  prefix[2] = static_cast<char>((n >> 16) & 0xff);
  prefix[3] = static_cast<char>((n >> 24) & 0xff);
  AGL_RETURN_IF_ERROR(WriteAll(fd_, prefix, sizeof(prefix)));
  AGL_RETURN_IF_ERROR(WriteAll(fd_, payload.data(), payload.size()));
  stats_.frames_sent++;
  stats_.bytes_sent += static_cast<int64_t>(sizeof(prefix) + payload.size());
  return agl::Status::OK();
}

agl::Result<std::string> Socket::ReadFrame() {
  if (fd_ < 0) return agl::Status::FailedPrecondition("socket is closed");
  AGL_RETURN_IF_ERROR(fail::MaybeFail("rpc.recv"));
  char prefix[4];
  AGL_RETURN_IF_ERROR(ReadAll(fd_, prefix, sizeof(prefix), /*eof_ok=*/true));
  const uint32_t n = static_cast<uint32_t>(
      static_cast<unsigned char>(prefix[0]) |
      (static_cast<unsigned char>(prefix[1]) << 8) |
      (static_cast<unsigned char>(prefix[2]) << 16) |
      (static_cast<unsigned char>(prefix[3]) << 24));
  if (n > kMaxFrameBytes) {
    return agl::Status::Corruption("frame length prefix exceeds the cap");
  }
  std::string payload(n, '\0');
  if (n > 0) {
    AGL_RETURN_IF_ERROR(ReadAll(fd_, payload.data(), n, /*eof_ok=*/false));
  }
  stats_.frames_received++;
  stats_.bytes_received += static_cast<int64_t>(sizeof(prefix) + n);
  return payload;
}

void Socket::Shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    fd_ = -1;
  }
}

Listener::Listener(Listener&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), port_(other.port_) {}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
    port_ = other.port_;
  }
  return *this;
}

agl::Result<Listener> Listener::Loopback() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // ephemeral
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const agl::Status s = Errno("bind 127.0.0.1");
    ::close(fd);
    return s;
  }
  if (::listen(fd, 64) < 0) {
    const agl::Status s = Errno("listen");
    ::close(fd);
    return s;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    const agl::Status s = Errno("getsockname");
    ::close(fd);
    return s;
  }
  Listener l;
  l.fd_ = fd;
  l.port_ = ntohs(addr.sin_port);
  return l;
}

agl::Result<Socket> Listener::Accept() {
  if (fd_ < 0) return agl::Status::Unavailable("listener is closed");
  for (;;) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return Socket(fd);
    }
    if (errno == EINTR) continue;
    // Close() from another thread surfaces here as EBADF/EINVAL; report
    // it as the shutdown signal rather than an I/O failure.
    if (errno == EBADF || errno == EINVAL) {
      return agl::Status::Unavailable("listener is closed");
    }
    return Errno("accept");
  }
}

void Listener::Shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Listener::Close() {
  if (fd_ >= 0) {
    // shutdown() wakes a concurrently-blocked accept() on Linux; close()
    // alone may leave it parked forever.
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    fd_ = -1;
  }
}

agl::Result<Socket> ConnectLoopback(int port, int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return Errno("socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
        0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return Socket(fd);
    }
    ::close(fd);
    if (std::chrono::steady_clock::now() >= deadline) {
      return agl::Status::Unavailable(
          "connect 127.0.0.1:" + std::to_string(port) + " timed out");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

}  // namespace agl::common
