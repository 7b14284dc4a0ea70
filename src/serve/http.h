// Minimal HTTP/1.1 layer for twilld.
//
// Scope: exactly what a single-process JSON service needs — parse one
// request (request line, headers, Content-Length body) off a blocking
// socket, hand it to a handler, write one response, close. No TLS, no
// chunked encoding, no keep-alive (every response carries
// `Connection: close`); curl and every HTTP client negotiates that fine.
//
// Hostile-input posture mirrors the rest of the pipeline: header and body
// byte caps with structured 431/413 rejections, one deadline per request so
// a stalled or trickling client cannot hold its connection, and handlers
// that never see a malformed request.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace twill {

struct HttpRequest {
  std::string method;   // "GET", "POST", ... (uppercase as received)
  std::string target;   // origin-form, e.g. "/v1/jobs/3" (query not split)
  std::string version;  // "HTTP/1.1"
  std::vector<std::pair<std::string, std::string>> headers;  // name lowercased
  std::string body;

  /// First header with this (lowercase) name, or "" when absent.
  const std::string& header(const std::string& lowerName) const;
};

struct HttpResponse {
  int status = 200;
  std::string contentType = "application/json";
  std::string body;
};

/// Canonical reason phrase for the status codes this server emits.
const char* httpStatusText(int status);

/// Serializes status line + headers + body, ready for one write.
std::string renderHttpResponse(const HttpResponse& resp);

/// Parses one request out of `raw` (everything up to and including the
/// body). Returns false on malformed input with `error` describing it.
/// Exposed for tests and the fuzz harness; the server uses it internally.
bool parseHttpRequest(const std::string& raw, HttpRequest& out, std::string& error);

struct HttpServerConfig {
  std::string host = "127.0.0.1";
  uint16_t port = 0;           // 0 = ephemeral; see HttpServer::port()
  size_t maxHeaderBytes = 16 * 1024;
  size_t maxBodyBytes = 1 << 20;
  /// Deadline for reading a whole request (head and body), measured from
  /// accept; also the per-send timeout for the response.
  unsigned socketTimeoutSec = 10;
};

/// Blocking accept loops, a fixed number of them on one shared listen
/// socket: connections are served concurrently, so a stalled or slow client
/// holds only its own connection's loop. The handler runs on several
/// threads at once and must be thread-safe (TwillService::handle is). A
/// handler may block briefly — twilld holds a report poll until its job
/// finishes — but it ties up one loop while it does. stop() is safe from
/// any thread, signal handlers included (one atomic store; every loop
/// checks it at least every 200 ms).
class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  explicit HttpServer(HttpServerConfig cfg) : cfg_(std::move(cfg)) {}
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds + listens. False (with `error`) when the address is unusable.
  bool start(std::string& error);

  /// The bound port (the kernel's choice when cfg.port was 0). Valid after
  /// start().
  uint16_t port() const { return boundPort_; }

  /// Runs the accept loops; returns after stop(), once every loop has
  /// finished its connection. An exception a handler throws stops the
  /// server and is rethrown here. Call start() first.
  void serve(const Handler& handler);

  /// Unblocks serve() from any thread. Idempotent.
  void stop();

 private:
  void acceptLoop(const Handler& handler);
  void handleConnection(int fd, const Handler& handler);

  HttpServerConfig cfg_;
  int listenFd_ = -1;
  uint16_t boundPort_ = 0;
  std::atomic<bool> stopping_{false};
};

}  // namespace twill
