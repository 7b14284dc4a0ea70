#include "src/serve/http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <exception>
#include <mutex>
#include <thread>

namespace twill {

namespace {

const std::string kEmpty;

/// Accept loops serve() runs. Each serves one connection at a time, so this
/// many stalled clients (each held for at most socketTimeoutSec) or held
/// report polls are what it takes to delay a new connection.
constexpr unsigned kAcceptLoops = 8;

std::string toLower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

/// Strict nonnegative decimal (Content-Length); false on anything else.
bool parseSize(const std::string& s, size_t& out) {
  if (s.empty() || s.size() > 18) return false;
  size_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<size_t>(c - '0');
  }
  out = v;
  return true;
}

}  // namespace

const std::string& HttpRequest::header(const std::string& lowerName) const {
  for (const auto& [name, value] : headers)
    if (name == lowerName) return value;
  return kEmpty;
}

const char* httpStatusText(int status) {
  switch (status) {
    case 100: return "Continue";
    case 200: return "OK";
    case 202: return "Accepted";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 409: return "Conflict";
    case 412: return "Precondition Failed";
    case 413: return "Payload Too Large";
    case 422: return "Unprocessable Entity";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

std::string renderHttpResponse(const HttpResponse& resp) {
  std::string out = "HTTP/1.1 " + std::to_string(resp.status) + " " +
                    httpStatusText(resp.status) + "\r\n";
  out += "Content-Type: " + resp.contentType + "\r\n";
  out += "Content-Length: " + std::to_string(resp.body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += resp.body;
  return out;
}

namespace {

/// Parses the request line + headers of `raw` (whose head ends at
/// `headEnd`); leaves the body untouched.
bool parseHead(const std::string& raw, size_t headEnd, HttpRequest& out, std::string& error) {
  out = HttpRequest();
  // Request line: METHOD SP TARGET SP VERSION.
  const size_t lineEnd = raw.find("\r\n");
  const std::string line = raw.substr(0, lineEnd);
  const size_t sp1 = line.find(' ');
  const size_t sp2 = sp1 == std::string::npos ? std::string::npos : line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos || line.find(' ', sp2 + 1) != std::string::npos) {
    error = "malformed request line";
    return false;
  }
  out.method = line.substr(0, sp1);
  out.target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  out.version = line.substr(sp2 + 1);
  if (out.method.empty() || out.target.empty() || out.target[0] != '/' ||
      out.version.compare(0, 7, "HTTP/1.") != 0) {
    error = "malformed request line";
    return false;
  }
  for (char c : out.method)
    if (c < 'A' || c > 'Z') {
      error = "malformed method";
      return false;
    }

  // Headers: NAME ':' OWS VALUE, one per line.
  size_t pos = lineEnd + 2;
  while (pos < headEnd) {
    size_t eol = raw.find("\r\n", pos);
    const std::string h = raw.substr(pos, eol - pos);
    pos = eol + 2;
    const size_t colon = h.find(':');
    if (colon == std::string::npos || colon == 0) {
      error = "malformed header line";
      return false;
    }
    std::string name = h.substr(0, colon);
    for (char c : name)
      if (c <= ' ' || c >= 0x7F) {
        error = "malformed header name";
        return false;
      }
    size_t vstart = colon + 1;
    while (vstart < h.size() && (h[vstart] == ' ' || h[vstart] == '\t')) ++vstart;
    size_t vend = h.size();
    while (vend > vstart && (h[vend - 1] == ' ' || h[vend - 1] == '\t')) --vend;
    out.headers.emplace_back(toLower(std::move(name)), h.substr(vstart, vend - vstart));
  }
  return true;
}

}  // namespace

bool parseHttpRequest(const std::string& raw, HttpRequest& out, std::string& error) {
  const size_t headEnd = raw.find("\r\n\r\n");
  if (headEnd == std::string::npos) {
    error = "incomplete request head";
    return false;
  }
  if (!parseHead(raw, headEnd, out, error)) return false;

  const std::string& cl = out.header("content-length");
  size_t bodyLen = 0;
  if (!cl.empty() && !parseSize(cl, bodyLen)) {
    error = "malformed Content-Length";
    return false;
  }
  const size_t bodyStart = headEnd + 4;
  if (raw.size() - bodyStart < bodyLen) {
    error = "truncated body";
    return false;
  }
  out.body = raw.substr(bodyStart, bodyLen);
  return true;
}

// --- server ----------------------------------------------------------------

HttpServer::~HttpServer() {
  if (listenFd_ >= 0) ::close(listenFd_);
}

bool HttpServer::start(std::string& error) {
  listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listenFd_ < 0) {
    error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  int one = 1;
  ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(cfg_.port);
  if (::inet_pton(AF_INET, cfg_.host.c_str(), &addr.sin_addr) != 1) {
    error = "bad listen address '" + cfg_.host + "'";
    return false;
  }
  if (::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    error = "bind " + cfg_.host + ":" + std::to_string(cfg_.port) + ": " + std::strerror(errno);
    return false;
  }
  if (::listen(listenFd_, 16) < 0) {
    error = std::string("listen: ") + std::strerror(errno);
    return false;
  }
  // Every accept loop blocks in accept() on this socket: Linux wakes one of
  // them per connection, where polling the socket would wake them all. The
  // receive timeout, which Linux applies to accept(), returns each loop at
  // least every 200 ms to check stop(). Connection sockets inherit it, but
  // handleConnection only reads after poll() reports data.
  timeval tick{};
  tick.tv_usec = 200 * 1000;
  if (::setsockopt(listenFd_, SOL_SOCKET, SO_RCVTIMEO, &tick, sizeof(tick)) < 0) {
    error = std::string("setsockopt: ") + std::strerror(errno);
    return false;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listenFd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0)
    boundPort_ = ntohs(bound.sin_port);
  return true;
}

void HttpServer::serve(const Handler& handler) {
  std::mutex failureMu;
  std::exception_ptr failure;
  auto loop = [&] {
    try {
      acceptLoop(handler);
    } catch (...) {
      std::lock_guard<std::mutex> lock(failureMu);
      if (!failure) failure = std::current_exception();
      stop();
    }
  };
  std::vector<std::thread> loops;
  for (unsigned i = 1; i < kAcceptLoops; ++i) loops.emplace_back(loop);
  loop();  // the calling thread is one of the loops
  for (std::thread& t : loops) t.join();
  if (failure) std::rethrow_exception(failure);
}

void HttpServer::acceptLoop(const Handler& handler) {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listenFd_, nullptr, nullptr);
    if (fd < 0) continue;  // the 200 ms tick
    handleConnection(fd, handler);
    ::close(fd);
  }
}

void HttpServer::stop() { stopping_.store(true, std::memory_order_release); }

namespace {

void sendAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return;  // timeout or peer gone; nothing useful to do
    off += static_cast<size_t>(n);
  }
}

void sendError(int fd, int status, const std::string& message) {
  HttpResponse resp;
  resp.status = status;
  resp.body = "{\n  \"error\": \"" + message + "\"\n}\n";
  sendAll(fd, renderHttpResponse(resp));
}

}  // namespace

void HttpServer::handleConnection(int fd, const Handler& handler) {
  timeval tv{};
  tv.tv_sec = cfg_.socketTimeoutSec;
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));

  // One deadline for the whole request, not one per recv: a client
  // trickling a byte at a time would otherwise hold its connection, and so
  // an accept loop, forever.
  using Clock = std::chrono::steady_clock;
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(cfg_.socketTimeoutSec);
  std::string buf;
  // Appends the next bytes the client sends to `buf`. False when the
  // deadline passes first or the peer is gone.
  auto receive = [&] {
    const int64_t leftMs =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - Clock::now()).count();
    const int waitMs = static_cast<int>(std::min<int64_t>(leftMs, INT32_MAX));
    pollfd pfd{fd, POLLIN, 0};
    if (leftMs <= 0 || ::poll(&pfd, 1, waitMs) <= 0) return false;
    char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buf.append(chunk, static_cast<size_t>(n));
    return true;
  };

  // Read the head (request line + headers) under the header byte cap.
  size_t headEnd;
  for (;;) {
    headEnd = buf.find("\r\n\r\n");
    if (headEnd != std::string::npos) break;
    if (buf.size() > cfg_.maxHeaderBytes) {
      sendError(fd, 431, "request head exceeds " + std::to_string(cfg_.maxHeaderBytes) +
                             " bytes");
      return;
    }
    if (!receive()) {
      if (!buf.empty()) sendError(fd, 408, "timed out reading request head");
      return;
    }
  }
  // The terminator can arrive in the same read as an oversized head; the
  // cap applies to the head itself, not to how it was chunked.
  if (headEnd + 4 > cfg_.maxHeaderBytes) {
    sendError(fd, 431, "request head exceeds " + std::to_string(cfg_.maxHeaderBytes) +
                           " bytes");
    return;
  }

  // Parse the head alone first so the body cap can be enforced before any
  // body bytes are accepted.
  HttpRequest head;
  std::string error;
  if (!parseHead(buf, headEnd, head, error)) {
    sendError(fd, 400, error);
    return;
  }
  size_t bodyLen = 0;
  const std::string& cl = head.header("content-length");
  if (!cl.empty() && !parseSize(cl, bodyLen)) {
    sendError(fd, 400, "malformed Content-Length");
    return;
  }
  if (bodyLen > cfg_.maxBodyBytes) {
    sendError(fd, 413, "request body exceeds " + std::to_string(cfg_.maxBodyBytes) + " bytes");
    return;
  }
  // curl sends `Expect: 100-continue` before larger bodies and waits for
  // the interim response.
  if (toLower(head.header("expect")) == "100-continue")
    sendAll(fd, "HTTP/1.1 100 Continue\r\n\r\n");

  const size_t bodyStart = headEnd + 4;
  while (buf.size() - bodyStart < bodyLen) {
    if (!receive()) {
      sendError(fd, 408, "timed out reading request body");
      return;
    }
  }

  head.body = buf.substr(bodyStart, bodyLen);
  sendAll(fd, renderHttpResponse(handler(head)));
}

}  // namespace twill
