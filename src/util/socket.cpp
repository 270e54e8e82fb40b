#include "util/socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace emorphic {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

constexpr char kFrameMagic[4] = {'E', 'M', 'S', '1'};

/// Disable Nagle's algorithm on a TCP connection. Every protocol message
/// is one small frame written with one send; with Nagle on, a frame sent
/// while the peer delays its ACK waits tens of milliseconds on the wire.
/// Best effort: a failure costs latency, never correctness.
void set_tcp_nodelay(const Socket& sock) {
  int one = 1;
  (void)::setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
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

Socket Socket::listen_unix(const std::string& path, int backlog) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("unix socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  Socket sock(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!sock.valid()) throw_errno("socket(AF_UNIX)");
  ::unlink(path.c_str());  // a stale file from a dead server blocks bind
  if (::bind(sock.fd(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    throw_errno("bind(" + path + ")");
  }
  if (::listen(sock.fd(), backlog) != 0) throw_errno("listen(" + path + ")");
  return sock;
}

Socket Socket::listen_tcp_loopback(std::uint16_t port,
                                   std::uint16_t* bound_port, int backlog) {
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) throw_errno("socket(AF_INET)");
  int one = 1;
  ::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(sock.fd(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    throw_errno("bind(127.0.0.1)");
  }
  if (::listen(sock.fd(), backlog) != 0) throw_errno("listen(tcp)");

  if (bound_port != nullptr) {
    sockaddr_in actual{};
    socklen_t len = sizeof(actual);
    if (::getsockname(sock.fd(), reinterpret_cast<sockaddr*>(&actual),
                      &len) != 0) {
      throw_errno("getsockname");
    }
    *bound_port = ntohs(actual.sin_port);
  }
  return sock;
}

Socket Socket::connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("unix socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  Socket sock(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!sock.valid()) throw_errno("socket(AF_UNIX)");
  if (::connect(sock.fd(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    throw_errno("connect(" + path + ")");
  }
  return sock;
}

Socket Socket::connect_tcp(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("connect_tcp: not an IPv4 address: " + host);
  }

  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) throw_errno("socket(AF_INET)");
  if (::connect(sock.fd(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    throw_errno("connect(" + host + ")");
  }
  set_tcp_nodelay(sock);
  return sock;
}

std::pair<Socket, Socket> Socket::pair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throw_errno("socketpair");
  }
  return {Socket(fds[0]), Socket(fds[1])};
}

Socket Socket::accept() const {
  while (true) {
    sockaddr_storage peer{};
    socklen_t len = sizeof(peer);
    int fd = ::accept(fd_, reinterpret_cast<sockaddr*>(&peer), &len);
    if (fd >= 0) {
      Socket conn(fd);
      if (peer.ss_family == AF_INET) set_tcp_nodelay(conn);
      return conn;
    }
    if (errno == EINTR) continue;
    // shutdown_both() on the listener surfaces as EINVAL (Linux); a closed
    // descriptor as EBADF. Both mean "the server is stopping".
    if (errno == EINVAL || errno == EBADF || errno == ECONNABORTED) {
      return Socket();
    }
    throw_errno("accept");
  }
}

void Socket::shutdown_both() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool Socket::read_exact(void* buffer, std::size_t n) const {
  char* out = static_cast<char*>(buffer);
  std::size_t got = 0;
  while (got < n) {
    ssize_t r = ::recv(fd_, out + got, n - got, 0);
    if (r > 0) {
      got += static_cast<std::size_t>(r);
      continue;
    }
    if (r == 0) {
      if (got == 0) return false;  // clean EOF on a message boundary
      throw std::runtime_error("socket: EOF mid-read");
    }
    if (errno == EINTR) continue;
    throw_errno("recv");
  }
  return true;
}

void Socket::write_all(const void* buffer, std::size_t n) const {
  const char* in = static_cast<const char*>(buffer);
  std::size_t sent = 0;
  while (sent < n) {
    // MSG_NOSIGNAL: a peer that hung up yields EPIPE here instead of a
    // process-killing SIGPIPE.
    ssize_t w = ::send(fd_, in + sent, n - sent, MSG_NOSIGNAL);
    if (w >= 0) {
      sent += static_cast<std::size_t>(w);
      continue;
    }
    if (errno == EINTR) continue;
    throw_errno("send");
  }
}

bool read_frame(const Socket& socket, std::string* payload,
                std::uint32_t max_bytes) {
  char header[8];
  if (!socket.read_exact(header, sizeof(header))) return false;
  if (std::memcmp(header, kFrameMagic, sizeof(kFrameMagic)) != 0) {
    throw std::runtime_error("frame: bad magic (not an EMS1 stream)");
  }
  std::uint32_t length = 0;
  for (int b = 3; b >= 0; --b) {
    length = (length << 8) | static_cast<unsigned char>(header[4 + b]);
  }
  if (length > max_bytes) {
    throw std::runtime_error("frame: payload of " + std::to_string(length) +
                             " bytes exceeds the " +
                             std::to_string(max_bytes) + "-byte limit");
  }
  payload->resize(length);
  if (length > 0 && !socket.read_exact(payload->data(), length)) {
    throw std::runtime_error("frame: EOF mid-payload");
  }
  return true;
}

void write_frame(const Socket& socket, std::string_view payload) {
  if (payload.size() > kMaxFrameBytes) {
    throw std::runtime_error("frame: payload too large to send");
  }
  char header[8];
  std::memcpy(header, kFrameMagic, sizeof(kFrameMagic));
  auto length = static_cast<std::uint32_t>(payload.size());
  for (int b = 0; b < 4; ++b) {
    header[4 + b] = static_cast<char>((length >> (8 * b)) & 0xff);
  }
  // One buffer, one send: keeps header+payload contiguous on the wire even
  // with concurrent writers serialized by the caller's session mutex.
  std::string frame;
  frame.reserve(sizeof(header) + payload.size());
  frame.append(header, sizeof(header));
  frame.append(payload);
  socket.write_all(frame.data(), frame.size());
}

}  // namespace emorphic
