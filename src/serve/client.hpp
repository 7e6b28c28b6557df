// Client side of the mapping service: a thin blocking wrapper around
// one connection to chortle_serve. One Client is one request stream —
// requests on it are served in order by a single server worker; open
// several Clients for concurrent in-flight requests (bench/suite's
// serve workloads do exactly that). Not thread-safe: callers serialize
// map() calls per Client.
#pragma once

#include <string>

#include "serve/protocol.hpp"

namespace chortle::serve {

class Client {
 public:
  /// Connect to a Unix-domain listener. Throws std::runtime_error when
  /// the connection cannot be established.
  static Client connect_unix(const std::string& path);
  /// Connect to a TCP listener (as set up by Server on 127.0.0.1).
  static Client connect_tcp(const std::string& host, int port);

  ~Client();
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Sends one mapping request (request.blif is the payload) and blocks
  /// for the response. A non-"ok" status is returned, not thrown;
  /// throws only on transport errors (connection lost, malformed
  /// response frame). Always attaches a trace context (the request's
  /// own, or a freshly generated one), so client-side "client.map"
  /// spans and the server's per-stage spans share a trace id.
  MapResponse map(const MapRequest& request);

  /// Fetches a live chortle-serve-stats/1 snapshot over this
  /// connection. Throws on transport errors or an invalid document.
  obs::Json stats();

 private:
  explicit Client(int fd) : fd_(fd) {}

  int fd_ = -1;
};

}  // namespace chortle::serve
