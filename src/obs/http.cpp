#include "obs/http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "obs/events.h"
#include "obs/json.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/promexport.h"

namespace litmus::obs {
namespace {

struct Request {
  std::string method;
  std::string path;
  std::string query;  ///< without the '?'
};

/// Reads the request head (up to the blank line) with a byte cap; the
/// server only needs the request line, so the body (GETs have none) is
/// never read. Returns false on timeout/overflow/close.
bool read_request(int fd, Request& req) {
  std::string head;
  char buf[1024];
  while (head.find("\r\n\r\n") == std::string::npos) {
    if (head.size() > 8192) return false;  // absurd header size: reject
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return false;  // closed, error, or SO_RCVTIMEO expiry
    head.append(buf, static_cast<std::size_t>(n));
  }
  const std::size_t line_end = head.find("\r\n");
  std::istringstream line(head.substr(0, line_end));
  std::string target, version;
  if (!(line >> req.method >> target >> version)) return false;
  const std::size_t q = target.find('?');
  req.path = target.substr(0, q);
  req.query = q == std::string::npos ? "" : target.substr(q + 1);
  return true;
}

void send_all(int fd, std::string_view data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return;  // peer went away; nothing useful to do
    off += static_cast<std::size_t>(n);
  }
}

void respond(int fd, int code, const char* reason,
             const std::string& content_type, const std::string& body) {
  std::ostringstream head;
  head << "HTTP/1.1 " << code << " " << reason << "\r\n"
       << "Content-Type: " << content_type << "\r\n"
       << "Content-Length: " << body.size() << "\r\n"
       << "Cache-Control: no-store\r\n"
       << "Connection: close\r\n\r\n";
  send_all(fd, head.str());
  send_all(fd, body);
}

std::uint64_t query_u64(const std::string& query, std::string_view key,
                        std::uint64_t fallback) {
  std::size_t pos = 0;
  while (pos < query.size()) {
    std::size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    const std::string_view pair(query.data() + pos, amp - pos);
    const std::size_t eq = pair.find('=');
    if (eq != std::string_view::npos && pair.substr(0, eq) == key) {
      const std::string_view v = pair.substr(eq + 1);
      std::uint64_t out = 0;
      const auto [p, ec] = std::from_chars(v.data(), v.data() + v.size(),
                                           out);
      if (ec == std::errc() && p == v.data() + v.size()) return out;
      return fallback;
    }
    pos = amp + 1;
  }
  return fallback;
}

/// Heartbeat age in milliseconds; nullopt when no heartbeat ever fired.
std::optional<std::uint64_t> heartbeat_age_ms() {
  const std::uint64_t hb = last_heartbeat_ns();
  if (hb == 0) return std::nullopt;
  const std::uint64_t now = now_ns();
  return now > hb ? (now - hb) / 1000000 : 0;
}

}  // namespace

std::optional<std::pair<std::string, std::uint16_t>> parse_serve_addr(
    std::string_view spec) {
  std::string host = "127.0.0.1";
  std::string_view port_part = spec;
  if (const std::size_t colon = spec.rfind(':');
      colon != std::string_view::npos) {
    if (colon == 0 || colon + 1 == spec.size()) return std::nullopt;
    host.assign(spec.substr(0, colon));
    port_part = spec.substr(colon + 1);
  }
  unsigned port = 0;
  const auto [p, ec] = std::from_chars(
      port_part.data(), port_part.data() + port_part.size(), port);
  if (ec != std::errc() || p != port_part.data() + port_part.size() ||
      port > 65535)
    return std::nullopt;
  return std::make_pair(host, static_cast<std::uint16_t>(port));
}

HttpServer::~HttpServer() { stop(); }

std::string HttpServer::start(const ServeOptions& options) {
  if (running()) throw std::runtime_error("HttpServer already running");
  options_ = options;
  stop_.store(false, std::memory_order_relaxed);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0)
    throw std::runtime_error(std::string("serve: socket: ") +
                             std::strerror(errno));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options.port);
  if (::inet_pton(AF_INET, options.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("serve: bad bind address: " + options.host);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 16) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("serve: cannot bind " + options.host + ":" +
                             std::to_string(options.port) + ": " + err);
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  address_ =
      options.host + ":" + std::to_string(ntohs(addr.sin_port));
  listen_fd_ = fd;
  started_ns_ = now_ns();
  thread_ = std::thread([this] { run_loop(); });
  return address_;
}

void HttpServer::stop() {
  if (!running()) return;
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void HttpServer::run_loop() {
  set_thread_name("obs-http");
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 100);
    if (rc <= 0 || !(pfd.revents & POLLIN)) continue;
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) continue;
    timeval tv{2, 0};  // a stuck client must not wedge the plane
    ::setsockopt(conn, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(conn, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    handle(conn);
    ::close(conn);
  }
}

void HttpServer::handle(int fd) {
  Request req;
  if (!read_request(fd, req)) return;

  Registry& reg = Registry::global();
  // Serve metrics count who polled the plane, never what the run computed.
  const auto counter = [&reg](std::string_view name) -> Counter& {
    return reg.counter(name, MetricClass::kMeasured);
  };
  // The request counters land in the same registry the scrape renders;
  // counting *before* rendering makes the very first scrape self-visible
  // (check_prom.py --require litmus_serve_requests_total holds from
  // request one).
  const bool count = enabled();
  if (count) counter("serve.requests").add();

  if (req.method != "GET") {
    respond(fd, 405, "Method Not Allowed", "text/plain; charset=utf-8",
            "read-only observability plane: GET only\n");
    return;
  }

  if (req.path == "/metrics") {
    if (count) counter("serve.requests.metrics").add();
    const std::uint64_t t0 = now_ns();
    const std::string body = prometheus_text(reg.snapshot());
    if (count)
      reg.histogram("serve.scrape_us", MetricClass::kMeasured)
          .record(static_cast<double>(now_ns() - t0) / 1000.0);
    respond(fd, 200, "OK", kPromContentType, body);
  } else if (req.path == "/healthz") {
    if (count) counter("serve.requests.healthz").add();
    respond(fd, 200, "OK", "text/plain; charset=utf-8", "ok\n");
  } else if (req.path == "/readyz") {
    if (count) counter("serve.requests.readyz").add();
    const auto age = heartbeat_age_ms();
    const bool ready = age && *age <= options_.ready_stale_after_ms;
    if (ready) {
      respond(fd, 200, "OK", "text/plain; charset=utf-8", "ready\n");
    } else {
      std::string body =
          age ? "stale: last heartbeat " + std::to_string(*age) +
                    " ms ago (threshold " +
                    std::to_string(options_.ready_stale_after_ms) + " ms)\n"
              : "stale: no heartbeat yet\n";
      respond(fd, 503, "Service Unavailable", "text/plain; charset=utf-8",
              body);
    }
  } else if (req.path == "/status") {
    if (count) counter("serve.requests.status").add();
    respond(fd, 200, "OK", "application/json", status_json());
  } else if (req.path == "/events") {
    if (count) counter("serve.requests.events").add();
    EventLog* log = events();
    std::ostringstream body;
    if (!log) {
      body << "{\"error\":\"no event log attached to this run\"}\n";
    } else {
      const std::uint64_t since = query_u64(req.query, "since", 0);
      const std::uint64_t max =
          std::min<std::uint64_t>(query_u64(req.query, "max", 256), 1024);
      const EventTail tail =
          log->tail(since, static_cast<std::size_t>(max));
      body << "{\"first_seq\":" << tail.first_seq
           << ",\"next_seq\":" << tail.next_seq
           << ",\"dropped\":" << tail.dropped << ",\"events\":[";
      for (std::size_t i = 0; i < tail.lines.size(); ++i) {
        if (i > 0) body << ",";
        body << tail.lines[i];  // each line is a complete JSON object
      }
      body << "]}\n";
    }
    respond(fd, 200, "OK", "application/json", body.str());
  } else {
    if (count) counter("serve.requests.not_found").add();
    respond(fd, 404, "Not Found", "text/plain; charset=utf-8",
            "unknown path; try /metrics /healthz /readyz /status "
            "/events\n");
  }
}

std::string HttpServer::status_json() const {
  std::ostringstream out;
  JsonWriter w(out);
  w.begin_object();
  w.member("version", kLitmusVersion);
  w.member("addr", address_);
  w.member("uptime_ms", (now_ns() - started_ns_) / 1000000);
  w.member("rss_bytes", rss_bytes());

  const auto age = heartbeat_age_ms();
  w.member("ready", age && *age <= options_.ready_stale_after_ms);
  if (age)
    w.member("heartbeat_age_ms", *age);
  else
    w.key("heartbeat_age_ms").null();
  w.member("ready_stale_after_ms", options_.ready_stale_after_ms);

  if (EventLog* log = events()) {
    const ProgressSnapshot progress = log->last_progress();
    w.key("events").begin_object();
    w.member("written", log->events_written());
    w.member("dropped", log->ring_dropped());
    w.end_object();
    if (progress.total > 0) {
      w.key("progress").begin_object();
      w.member("stage", progress.stage);
      w.member("done", progress.done);
      w.member("total", progress.total);
      w.end_object();
    }
  }

  if (status_fn_) status_fn_(w);

  if (manifest_) {
    w.key("manifest");
    manifest_->write(w);
  }
  w.end_object();
  out << "\n";
  return out.str();
}

}  // namespace litmus::obs
