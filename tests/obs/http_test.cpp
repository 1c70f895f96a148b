// Integration tests for the live observability plane (obs/http.h): a real
// loopback socket client against a running HttpServer — endpoint status
// codes and bodies, a /metrics scrape racing concurrent pool work (scraped
// counters must never exceed the final value), /readyz heartbeat
// staleness, /events paging, and parse_serve_addr.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>

#include "obs/events.h"
#include "obs/http.h"
#include "obs/json.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "parallel/pool.h"

namespace litmus::obs {
namespace {

struct HttpResponse {
  int status = 0;
  std::string headers;
  std::string body;
};

// Minimal blocking HTTP/1.1 client: one request, read to EOF (the server
// always closes), split head from body.
HttpResponse http_get(const std::string& address, const std::string& path) {
  const auto colon = address.rfind(':');
  const std::string host = address.substr(0, colon);
  const int port = std::stoi(address.substr(colon + 1));

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  EXPECT_EQ(::inet_pton(AF_INET, host.c_str(), &addr.sin_addr), 1);
  HttpResponse res;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return res;  // status 0: connection refused (server down)
  }
  const std::string req =
      "GET " + path + " HTTP/1.1\r\nHost: " + host + "\r\n\r\n";
  EXPECT_EQ(::send(fd, req.data(), req.size(), 0),
            static_cast<ssize_t>(req.size()));
  std::string raw;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0)
    raw.append(buf, static_cast<std::size_t>(n));
  ::close(fd);

  const auto split = raw.find("\r\n\r\n");
  if (split == std::string::npos) return res;
  res.headers = raw.substr(0, split);
  res.body = raw.substr(split + 4);
  if (raw.rfind("HTTP/1.1 ", 0) == 0) res.status = std::stoi(raw.substr(9));
  return res;
}

class HttpServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Registry::global().reset();
    set_enabled(true);
  }
  void TearDown() override {
    set_events(nullptr);
    set_enabled(false);
    Registry::global().reset();
  }
};

TEST_F(HttpServerTest, ParseServeAddrAcceptsPortAndAddrPortForms) {
  auto p = parse_serve_addr("9091");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->first, "127.0.0.1");
  EXPECT_EQ(p->second, 9091);

  p = parse_serve_addr("0.0.0.0:0");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->first, "0.0.0.0");
  EXPECT_EQ(p->second, 0);

  EXPECT_FALSE(parse_serve_addr("").has_value());
  EXPECT_FALSE(parse_serve_addr("notaport").has_value());
  EXPECT_FALSE(parse_serve_addr("127.0.0.1:").has_value());
  EXPECT_FALSE(parse_serve_addr("127.0.0.1:70000").has_value());
  EXPECT_FALSE(parse_serve_addr("-1").has_value());
}

TEST_F(HttpServerTest, ServesHealthMetricsStatusAndRejectsUnknown) {
  RunManifest manifest;
  manifest.tool = "http_test";
  Registry::global().counter("demo.count").add(7);

  HttpServer server;
  server.set_manifest(&manifest);
  server.set_status_fn([](JsonWriter& w) { w.member("extra", "here"); });
  const std::string addr = server.start({});
  ASSERT_TRUE(server.running());
  EXPECT_EQ(addr, server.address());
  EXPECT_EQ(addr.rfind("127.0.0.1:", 0), 0u) << addr;

  EXPECT_EQ(http_get(addr, "/healthz").status, 200);
  EXPECT_EQ(http_get(addr, "/healthz").body, "ok\n");

  const HttpResponse metrics = http_get(addr, "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.headers.find("text/plain; version=0.0.4"),
            std::string::npos)
      << metrics.headers;
  EXPECT_NE(metrics.body.find("litmus_demo_count_total 7"),
            std::string::npos)
      << metrics.body;
#if LITMUS_OBS_ENABLED
  // The scrape counts itself (visible on the next scrape at the latest;
  // the handler increments before rendering, so already on this one).
  // With the layer compiled out, serve.requests is never recorded.
  EXPECT_NE(metrics.body.find("litmus_serve_requests_total"),
            std::string::npos)
      << metrics.body;
#endif

  const HttpResponse status = http_get(addr, "/status");
  EXPECT_EQ(status.status, 200);
  std::string error;
  const auto doc = parse_json(status.body, &error);
  ASSERT_TRUE(doc.has_value()) << error << " in: " << status.body;
  EXPECT_EQ(doc->member_string("extra", ""), "here");
  EXPECT_EQ(doc->member_string("version", ""), kLitmusVersion);
  ASSERT_NE(doc->find("manifest"), nullptr);
  EXPECT_EQ(doc->find("manifest")->member_string("tool", ""), "http_test");

  EXPECT_EQ(http_get(addr, "/nope").status, 404);

  server.stop();
  EXPECT_FALSE(server.running());
  EXPECT_EQ(http_get(addr, "/healthz").status, 0);  // refused after stop
  server.stop();  // idempotent
}

TEST_F(HttpServerTest, ReadyzTracksHeartbeatStaleness) {
  ServeOptions options;
  options.ready_stale_after_ms = 200;
  HttpServer server;
  const std::string addr = server.start(options);

  // (The heartbeat watermark is process-global, so earlier tests may have
  // touched it already; only age-relative assertions are safe here.)
  touch_heartbeat();
  EXPECT_EQ(http_get(addr, "/readyz").status, 200);
  EXPECT_EQ(http_get(addr, "/readyz").body, "ready\n");

  std::this_thread::sleep_for(std::chrono::milliseconds(350));
  const HttpResponse stale = http_get(addr, "/readyz");
  EXPECT_EQ(stale.status, 503);
  EXPECT_NE(stale.body.find("stale"), std::string::npos) << stale.body;

  touch_heartbeat();  // recovery is symmetric
  EXPECT_EQ(http_get(addr, "/readyz").status, 200);
  server.stop();
}

TEST_F(HttpServerTest, EventsEndpointPagesTheRing) {
  EventLog ring_only;
  set_events(&ring_only);
  for (int i = 0; i < 5; ++i)
    ring_only.emit(EventType::kHeartbeat,
                   [&](JsonWriter& w) { w.member("i", std::int64_t{i}); });

  HttpServer server;
  const std::string addr = server.start({});
  const HttpResponse all = http_get(addr, "/events");
  EXPECT_EQ(all.status, 200);
  std::string error;
  const auto doc = parse_json(all.body, &error);
  ASSERT_TRUE(doc.has_value()) << error << " in: " << all.body;
  EXPECT_EQ(doc->member_number("next_seq", -1), 5);
  ASSERT_NE(doc->find("events"), nullptr);

  const HttpResponse page = http_get(addr, "/events?since=3&max=1");
  const auto pdoc = parse_json(page.body, &error);
  ASSERT_TRUE(pdoc.has_value()) << error << " in: " << page.body;
  EXPECT_EQ(pdoc->member_number("first_seq", -1), 3);
  EXPECT_EQ(pdoc->member_number("next_seq", -1), 4);

  server.stop();
  set_events(nullptr);
}

TEST_F(HttpServerTest, NonGetMethodsAre405) {
  HttpServer server;
  const std::string addr = server.start({});
  const auto colon = addr.rfind(':');
  const int port = std::stoi(addr.substr(colon + 1));
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)), 0);
  const std::string req = "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n";
  ASSERT_EQ(::send(fd, req.data(), req.size(), 0),
            static_cast<ssize_t>(req.size()));
  std::string raw;
  char buf[1024];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0)
    raw.append(buf, static_cast<std::size_t>(n));
  ::close(fd);
  EXPECT_EQ(raw.rfind("HTTP/1.1 405", 0), 0u) << raw;
  server.stop();
}

// The acceptance property for a lock-free scrape path: every counter value
// a concurrent scrape observes is <= the value the final snapshot reports,
// and successive scrapes observe monotonically non-decreasing values.
TEST_F(HttpServerTest, ConcurrentScrapesAreMonotoneAndNeverExceedFinal) {
  HttpServer server;
  const std::string addr = server.start({});
  ASSERT_EQ(http_get(addr, "/metrics").status, 200);

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> scrapes{0};
  std::vector<std::uint64_t> samples;  // scraper-owned until join

  std::thread scraper([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const HttpResponse res = http_get(addr, "/metrics");
      if (res.status != 200) continue;
      // Line-anchored: the family name also appears in # HELP / # TYPE.
      const std::string needle = "\nlitmus_work_items_total ";
      const auto pos = res.body.find(needle);
      if (pos != std::string::npos)
        samples.push_back(std::stoull(res.body.substr(pos + needle.size())));
      scrapes.fetch_add(1, std::memory_order_relaxed);
    }
  });

  // Produce rounds of counted pool work until the scraper has observed a
  // few mid-run snapshots (bounded so a slow box cannot hang the test).
  Counter& work = Registry::global().counter("work.items");
  constexpr std::uint64_t kRound = 5000;
  std::uint64_t total = 0;
  for (int round = 0;
       round < 200 && scrapes.load(std::memory_order_relaxed) < 3;
       ++round) {
    par::parallel_for(kRound, [&](std::size_t) { work.add(1); });
    total += kRound;
  }
  done.store(true, std::memory_order_relaxed);
  scraper.join();
  server.stop();

  EXPECT_GT(scrapes.load(), 0u);
  EXPECT_EQ(work.value(), total);
  // Every concurrent scrape saw a value <= the final total, and the
  // sequence of scraped values never decreased.
  std::uint64_t prev = 0;
  for (const std::uint64_t v : samples) {
    EXPECT_GE(v, prev);
    EXPECT_LE(v, total);
    prev = v;
  }
  // The final snapshot reports the exact total.
  const auto snap = Registry::global().snapshot();
  bool found = false;
  for (const auto& [name, value] : snap.counters)
    if (name == "work.items") {
      EXPECT_EQ(value, total);
      found = true;
    }
  EXPECT_TRUE(found);
}

TEST_F(HttpServerTest, DoublePortZeroServersBindDistinctPorts) {
  HttpServer a;
  HttpServer b;
  const std::string addr_a = a.start({});
  const std::string addr_b = b.start({});
  EXPECT_NE(addr_a, addr_b);
  EXPECT_EQ(http_get(addr_a, "/healthz").status, 200);
  EXPECT_EQ(http_get(addr_b, "/healthz").status, 200);
  a.stop();
  b.stop();
}

}  // namespace
}  // namespace litmus::obs
