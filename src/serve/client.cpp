#include "serve/client.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "obs/trace.hpp"

namespace chortle::serve {
namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

}  // namespace

Client Client::connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path)
    throw std::runtime_error("unix socket path too long: " + path);
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket(AF_UNIX)");
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("connect(" + path + ")");
  }
  return Client(fd);
}

Client Client::connect_tcp(const std::string& host, int port) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* result = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), std::to_string(port).c_str(),
                               &hints, &result);
  if (rc != 0)
    throw std::runtime_error("getaddrinfo(" + host + "): " +
                             ::gai_strerror(rc));
  int fd = -1;
  int saved_errno = ECONNREFUSED;
  for (addrinfo* ai = result; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    saved_errno = errno;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(result);
  if (fd < 0) {
    errno = saved_errno;
    throw_errno("connect(" + host + ":" + std::to_string(port) + ")");
  }
  return Client(fd);
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Client::Client(Client&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

MapResponse Client::map(const MapRequest& request) {
  MapRequest outgoing = request;
  if (!outgoing.context.valid())
    outgoing.context = obs::RequestContext::generate();
  obs::TraceSpan span("client.map", outgoing.context);
  std::optional<Frame> frame;
  try {
    write_frame(fd_, encode_request_header(outgoing), outgoing.blif);
  } catch (const std::exception& write_error) {
    // The server may reject-and-close before reading our request (busy
    // backpressure): the write fails with EPIPE, but the rejection
    // frame is already buffered on our side. Prefer it to the error.
    // The fallback read can itself fail (a crashed server, garbage on
    // the stream): report the ORIGINAL write failure then — that is
    // the error that describes what actually went wrong first — with
    // the read failure attached as context, not swallowed.
    try {
      frame = read_frame(fd_);
    } catch (const std::exception& read_error) {
      throw std::runtime_error(std::string(write_error.what()) +
                               " (no rejection frame either: " +
                               read_error.what() + ")");
    }
    if (!frame.has_value()) throw;
    return parse_map_response(*frame);
  }
  frame = read_frame(fd_);
  if (!frame.has_value())
    throw std::runtime_error("server closed the connection before replying");
  return parse_map_response(*frame);
}

obs::Json Client::stats() {
  write_frame(fd_, encode_stats_request_header(), "");
  const std::optional<Frame> frame = read_frame(fd_);
  if (!frame.has_value())
    throw std::runtime_error("server closed the connection before replying");
  return parse_stats_response(*frame);
}

}  // namespace chortle::serve
