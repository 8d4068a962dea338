// Minimal blocking socket layer for the serve daemon.
//
// Unix-domain and loopback-TCP listeners and connections with poll(2)-based
// timeouts — nothing more.  Addresses are strings: `unix:/path/to.sock` or
// `tcp:PORT` (always bound to 127.0.0.1; the daemon is a local service, and
// exposing the simulator to a network is a deployment decision this layer
// refuses to make).  `tcp:0` binds an ephemeral port; `Listener::address()`
// reports the resolved one.
//
// Frame I/O (read_frame/write_frame) lives here so both the server and the
// client loop over the same code; the payload buffer is caller-owned and
// reused, keeping the steady-state receive path allocation-free once the
// buffer reaches its high-water mark.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "serve/protocol.h"

namespace dasched::serve {

/// RAII file descriptor with all-or-nothing send/recv helpers.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;

  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] int fd() const { return fd_; }
  void close();
  /// shutdown(2) both directions: wakes a peer (or own thread) blocked in
  /// recv without racing on the fd lifetime the way close() would.
  void shutdown_both();

  enum class IoStatus { kOk, kEof, kTimeout, kError };

  /// Sends the whole buffer (retrying partial writes); kOk or kError.
  IoStatus send_all(const void* data, std::size_t n);
  /// Receives exactly `n` bytes.  kEof only when the peer closed cleanly
  /// before the first byte; a mid-message close is kError.
  /// `timeout_ms` < 0 blocks forever.
  IoStatus recv_all(void* data, std::size_t n, int timeout_ms);

 private:
  int fd_ = -1;
};

/// Bound + listening socket for `unix:PATH` / `tcp:PORT` addresses.
class Listener {
 public:
  Listener() = default;
  ~Listener() { close(); }
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;
  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;

  /// Binds and listens; throws std::runtime_error with errno context.
  static Listener open(const std::string& address);

  /// Accepts one connection; invalid Socket on timeout, after wake() or
  /// after close().
  [[nodiscard]] Socket accept(int timeout_ms);

  /// Wakes a thread blocked in accept() without closing the fd: shutdown(2)
  /// on the listening socket makes it readable and every later accept
  /// fails at once.  Only reads the fd, so it may run concurrently with
  /// accept(); close() must not overlap either.
  void wake();

  /// Closes the listening fd and, for unix sockets, unlinks the path.  Not
  /// safe against a concurrent accept() or wake(): the owner calls it once
  /// the accepting thread has been joined.
  void close();

  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  /// Canonical address with any ephemeral TCP port resolved.
  [[nodiscard]] const std::string& address() const { return address_; }

 private:
  int fd_ = -1;
  std::string address_;
  std::string unlink_path_;
};

/// Connects to a listener address; throws std::runtime_error on failure.
[[nodiscard]] Socket connect_to(const std::string& address);

/// Reads one frame into (type, payload); payload is cleared and reused.
/// kEof = clean close at a frame boundary.  Throws ProtocolError on a
/// malformed length.
Socket::IoStatus read_frame(Socket& s, int timeout_ms, FrameType& type,
                            std::vector<std::uint8_t>& payload);

/// Writes one frame via `scratch` (reused; cleared on entry).
[[nodiscard]] bool write_frame(Socket& s, FrameType type,
                               std::span<const std::uint8_t> payload,
                               std::vector<std::uint8_t>& scratch);

}  // namespace dasched::serve
