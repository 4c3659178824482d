// RAII TCP sockets (IPv4). The original Falkon used GT4 web services plus a
// custom TCP notification protocol; this layer provides the raw transport
// for both roles in our implementation.
#pragma once

#include <cstdint>
#include <string>

#include "common/result.h"
#include "wire/framing.h"

namespace falkon::net {

/// Owning file descriptor.
class FdHandle {
 public:
  FdHandle() = default;
  explicit FdHandle(int fd) : fd_(fd) {}
  ~FdHandle() { reset(); }

  FdHandle(const FdHandle&) = delete;
  FdHandle& operator=(const FdHandle&) = delete;
  FdHandle(FdHandle&& other) noexcept : fd_(other.release()) {}
  FdHandle& operator=(FdHandle&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.release();
    }
    return *this;
  }

  [[nodiscard]] int get() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  int release() {
    int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void reset();

 private:
  int fd_{-1};
};

/// Connected TCP stream; implements the framing layer's ByteStream.
class TcpStream final : public wire::ByteStream {
 public:
  TcpStream() = default;
  explicit TcpStream(FdHandle fd) : fd_(std::move(fd)) {}

  static Result<TcpStream> connect(const std::string& host, std::uint16_t port);

  Status write_all(const void* data, std::size_t size) override;
  Status write_gather(const ConstBuf* bufs, std::size_t count) override;
  Status read_exact(void* data, std::size_t size) override;

  /// Abort in-flight reads/writes from another thread (shutdown(2)).
  void shutdown();

  [[nodiscard]] bool valid() const { return fd_.valid(); }
  /// Raw descriptor, for poll()-style readiness checks (still owned here).
  [[nodiscard]] int fd() const { return fd_.get(); }

 private:
  FdHandle fd_;
};

/// Listening socket. Port 0 picks an ephemeral port, readable via port().
class TcpListener {
 public:
  /// The bind is exclusive (no SO_REUSEPORT): HA standby takeover relies on
  /// it failing while the primary still holds the port.
  static Result<TcpListener> bind(std::uint16_t port);

  Result<TcpStream> accept();

  /// Unblock accept() from another thread; further accepts fail kClosed.
  void close();

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] bool valid() const { return fd_.valid(); }
  /// Raw descriptor, for registering with an event loop (still owned here).
  [[nodiscard]] int fd() const { return fd_.get(); }

  TcpListener() = default;

 private:
  FdHandle fd_;
  std::uint16_t port_{0};
};

/// Put a descriptor into non-blocking mode (reactor-managed sockets).
Status set_nonblocking(int fd);

/// Set SO_SNDBUF. Tests shrink it to force partial writes and EAGAIN on the
/// reactor's write path; the kernel may round the value up.
Status set_send_buffer(int fd, int bytes);

}  // namespace falkon::net
