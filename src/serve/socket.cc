#include "serve/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "util/parse.h"

namespace dasched::serve {

namespace {

[[noreturn]] void sys_fail(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

struct ParsedAddress {
  bool is_unix = false;
  std::string path;  // unix
  int port = 0;      // tcp
};

ParsedAddress parse_address(const std::string& address) {
  ParsedAddress out;
  if (address.rfind("unix:", 0) == 0) {
    out.is_unix = true;
    out.path = address.substr(5);
    if (out.path.empty()) {
      throw std::runtime_error("serve address: empty unix socket path");
    }
    sockaddr_un probe{};
    if (out.path.size() >= sizeof(probe.sun_path)) {
      throw std::runtime_error("serve address: unix socket path too long");
    }
    return out;
  }
  if (address.rfind("tcp:", 0) == 0) {
    const auto port = parse_i64(std::string_view(address).substr(4));
    if (!port || *port < 0 || *port > 65535) {
      throw std::runtime_error("serve address: invalid tcp port in '" +
                               address + "'");
    }
    out.port = static_cast<int>(*port);
    return out;
  }
  throw std::runtime_error(
      "serve address must be unix:PATH or tcp:PORT, got '" + address + "'");
}

/// Waits for readability; 1 ready, 0 timeout, -1 error.
int wait_readable(int fd, int timeout_ms) {
  pollfd p{fd, POLLIN, 0};
  while (true) {
    const int rc = ::poll(&p, 1, timeout_ms);
    if (rc >= 0) return rc > 0 ? 1 : 0;
    if (errno != EINTR) return -1;
  }
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::shutdown_both() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

Socket::IoStatus Socket::send_all(const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  while (n > 0) {
    const ssize_t sent = ::send(fd_, p, n, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return IoStatus::kError;
    }
    if (sent == 0) return IoStatus::kError;
    p += sent;
    n -= static_cast<std::size_t>(sent);
  }
  return IoStatus::kOk;
}

Socket::IoStatus Socket::recv_all(void* data, std::size_t n, int timeout_ms) {
  auto* p = static_cast<std::uint8_t*>(data);
  bool first = true;
  while (n > 0) {
    const int ready = wait_readable(fd_, timeout_ms);
    if (ready < 0) return IoStatus::kError;
    if (ready == 0) return IoStatus::kTimeout;
    const ssize_t got = ::recv(fd_, p, n, 0);
    if (got < 0) {
      if (errno == EINTR) continue;
      return IoStatus::kError;
    }
    if (got == 0) return first ? IoStatus::kEof : IoStatus::kError;
    first = false;
    p += got;
    n -= static_cast<std::size_t>(got);
  }
  return IoStatus::kOk;
}

Listener::Listener(Listener&& other) noexcept
    : fd_(other.fd_),
      address_(std::move(other.address_)),
      unlink_path_(std::move(other.unlink_path_)) {
  other.fd_ = -1;
  other.unlink_path_.clear();
}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    address_ = std::move(other.address_);
    unlink_path_ = std::move(other.unlink_path_);
    other.fd_ = -1;
    other.unlink_path_.clear();
  }
  return *this;
}

Listener Listener::open(const std::string& address) {
  const ParsedAddress parsed = parse_address(address);
  Listener out;
  if (parsed.is_unix) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) sys_fail("socket(AF_UNIX)");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, parsed.path.c_str(), sizeof(addr.sun_path) - 1);
    // A stale socket file from a crashed daemon would make bind fail;
    // removing it is safe because a live daemon holds the listen fd, not
    // the name.
    ::unlink(parsed.path.c_str());
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
      const int saved = errno;
      ::close(fd);
      errno = saved;
      sys_fail("bind(" + address + ")");
    }
    out.unlink_path_ = parsed.path;
    out.fd_ = fd;
    out.address_ = address;
  } else {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) sys_fail("socket(AF_INET)");
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(parsed.port));
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
      const int saved = errno;
      ::close(fd);
      errno = saved;
      sys_fail("bind(" + address + ")");
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
      const int saved = errno;
      ::close(fd);
      errno = saved;
      sys_fail("getsockname");
    }
    out.fd_ = fd;
    out.address_ = "tcp:" + std::to_string(ntohs(bound.sin_port));
  }
  if (::listen(out.fd_, 64) < 0) {
    const int saved = errno;
    out.close();
    errno = saved;
    sys_fail("listen(" + address + ")");
  }
  return out;
}

Socket Listener::accept(int timeout_ms) {
  if (fd_ < 0) return Socket{};
  const int ready = wait_readable(fd_, timeout_ms);
  if (ready <= 0) return Socket{};
  const int fd = ::accept(fd_, nullptr, nullptr);
  if (fd < 0) return Socket{};
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Socket{fd};
}

void Listener::wake() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Listener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  if (!unlink_path_.empty()) {
    ::unlink(unlink_path_.c_str());
    unlink_path_.clear();
  }
}

Socket connect_to(const std::string& address) {
  const ParsedAddress parsed = parse_address(address);
  int fd = -1;
  if (parsed.is_unix) {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) sys_fail("socket(AF_UNIX)");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, parsed.path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
        0) {
      const int saved = errno;
      ::close(fd);
      errno = saved;
      sys_fail("connect(" + address + ")");
    }
  } else {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) sys_fail("socket(AF_INET)");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(parsed.port));
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
        0) {
      const int saved = errno;
      ::close(fd);
      errno = saved;
      sys_fail("connect(" + address + ")");
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  return Socket{fd};
}

Socket::IoStatus read_frame(Socket& s, int timeout_ms, FrameType& type,
                            std::vector<std::uint8_t>& payload) {
  std::uint8_t head[4];
  const Socket::IoStatus h = s.recv_all(head, sizeof(head), timeout_ms);
  if (h != Socket::IoStatus::kOk) return h;
  std::uint32_t length = 0;
  for (int i = 0; i < 4; ++i) length |= static_cast<std::uint32_t>(head[i]) << (8 * i);
  if (length == 0 || length > kMaxFrameBytes) {
    throw ProtocolError("invalid frame length " + std::to_string(length));
  }
  std::uint8_t t = 0;
  const Socket::IoStatus ts = s.recv_all(&t, 1, timeout_ms);
  if (ts != Socket::IoStatus::kOk) {
    return ts == Socket::IoStatus::kEof ? Socket::IoStatus::kError : ts;
  }
  type = static_cast<FrameType>(t);
  payload.clear();
  // dasched-lint: allow(hot-alloc): reused buffer growth to high-water mark
  payload.resize(length - 1);
  if (length > 1) {
    const Socket::IoStatus ps =
        s.recv_all(payload.data(), payload.size(), timeout_ms);
    if (ps != Socket::IoStatus::kOk) {
      return ps == Socket::IoStatus::kEof ? Socket::IoStatus::kError : ps;
    }
  }
  return Socket::IoStatus::kOk;
}

bool write_frame(Socket& s, FrameType type,
                 std::span<const std::uint8_t> payload,
                 std::vector<std::uint8_t>& scratch) {
  scratch.clear();
  append_frame(scratch, type, payload);
  return s.send_all(scratch.data(), scratch.size()) == Socket::IoStatus::kOk;
}

}  // namespace dasched::serve
