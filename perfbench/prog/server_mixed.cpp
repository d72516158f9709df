/// \file server_mixed.cpp
/// Workload `server_mixed`: graphctd (server::Server, in this process)
/// over TCP loopback, two registry graphs, and an open-loop load
/// generator on the calling thread.
///
///   set-up  Server start + `load graph` of both graphs + cache warm-up
///           (`print components|degrees|kcores` on each), median of
///           --setups; the last server stays up for the load
///   load    Poisson arrivals at --rate requests/s for --seconds over four
///           connections (two per graph), framed v1 protocol pipelined
///           with `@<id>`: ~90 % cached reads, ~10 % BC misses
///           (`bc 16 auto <fresh budget>`), half of the misses sent at the
///           same instant on both connections of a graph
///
/// Latency is timed from each request's scheduled send time. A request
/// that is shed (`busy`), fails, is dropped or times out counts as failed
/// and as missing every latency limit. A run whose generator fell behind
/// its schedule by more than kMaxLateMs at p99 is invalid.
///
/// Check: every ok payload equals the reply to the same command issued
/// serially during set-up (BC payloads up to their `done in` timing, with
/// scores within a relative 1e-9: coarse/auto BC's float sum order
/// depends on the schedule).

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "server/server.hpp"
#include "util/framing.hpp"

namespace perfbench {

namespace {

using graphct::framing::TextReply;

constexpr double kScoreTolerance = 1e-9;
/// A run whose generator sent its p99 request later than this after its
/// scheduled time is invalid.
constexpr double kMaxLateMs = 20.0;
/// A request without a reply this long after the load ends has failed.
constexpr double kReplyTimeoutS = 30.0;
/// Result-cache budget: a long-running server bounds its cache; without
/// one every fresh-budget miss stays resident.
constexpr std::uint64_t kCacheBudgetBytes = std::uint64_t{16} << 20;
const char* const kReads[] = {"print components", "print degrees",
                              "print kcores"};

/// One framed-v1 reply: header fields plus payload.
struct Reply {
  TextReply::Status status = TextReply::Status::kOk;
  std::string id;
  double wall_s = -1.0;
  double queue_s = -1.0;
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::string payload;
};

/// Concatenate pieces (sidesteps GCC 12's -Wrestrict false positive on
/// `const char* + std::string&&`).
std::string cat(std::initializer_list<std::string_view> parts) {
  std::string out;
  for (const auto p : parts) out += p;
  return out;
}

/// `key=<number> <unit>` from a reply header, in seconds (-1 if absent).
double header_duration(const std::string& line, const std::string& key) {
  const auto p = line.find(" " + key + "=");
  if (p == std::string::npos) return -1.0;
  std::istringstream in(line.substr(p + key.size() + 2));
  double v = 0.0;
  std::string unit;
  in >> v >> unit;
  if (unit == "us") return v * 1e-6;
  if (unit == "ms") return v * 1e-3;
  if (unit == "s") return v;
  if (unit == "min") return v * 60.0;
  return -1.0;
}

/// A non-blocking client connection to the server.
class Conn {
 public:
  explicit Conn(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      throw std::runtime_error("connect to graphctd failed");
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
    // The server greets every connection with a banner line; switch the
    // connection to framed v1 (acknowledged in the compat framing, whose
    // terminator line starts with "ok").
    try {
      expect_line("graphctd ready");
      send_line("proto v1\n");
      expect_line("protocol set to gct/1 framed");
      expect_line("ok");
    } catch (...) {
      ::close(fd_);
      throw;
    }
  }
  ~Conn() { ::close(fd_); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  [[nodiscard]] int fd() const { return fd_; }
  [[nodiscard]] bool alive() const { return alive_; }

  /// Write the whole line (lines are short; waits only on a full socket).
  bool send_line(const std::string& line) {
    std::size_t off = 0;
    while (alive_ && off < line.size()) {
      const ssize_t n = ::send(fd_, line.data() + off, line.size() - off,
                               MSG_NOSIGNAL);
      if (n > 0) {
        off += static_cast<std::size_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
        pollfd p{fd_, POLLOUT, 0};
        ::poll(&p, 1, 100);
      } else {
        alive_ = false;
      }
    }
    return alive_;
  }

  /// Read what is available; marks the connection dead on EOF or error.
  void fill() {
    char buf[65536];
    while (alive_) {
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n > 0) {
        in_.append(buf, static_cast<std::size_t>(n));
      } else if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
        return;
      } else {
        alive_ = false;
      }
    }
  }

  /// Pop one complete reply from the buffer, if there is one.
  bool next_reply(Reply& out) {
    const auto eol = in_.find('\n');
    if (eol == std::string::npos) return false;
    const std::string header = in_.substr(0, eol);
    graphct::framing::TextHeader h;
    if (!graphct::framing::parse_text_header(header, h)) {
      throw std::runtime_error("malformed reply header: " + header);
    }
    std::size_t end = eol + 1;
    for (std::size_t i = 0; i < h.lines; ++i) {
      const auto nl = in_.find('\n', end);
      if (nl == std::string::npos) return false;
      end = nl + 1;
    }
    out = Reply{};
    out.status = h.status;
    out.id = h.request_id;
    out.payload = in_.substr(eol + 1, end - eol - 1);
    out.wall_s = header_duration(header, "wall");
    out.queue_s = header_duration(header, "queue");
    const auto c = header.find(" cache=");
    if (c != std::string::npos) {
      long long h = 0, m = 0;
      if (std::sscanf(header.c_str() + c, " cache=%lld/%lld", &h, &m) == 2) {
        out.hits = h;
        out.misses = m;
      }
    }
    in_.erase(0, end);
    return true;
  }

  /// Wait for one raw line and require it to equal `want`.
  void expect_line(const std::string& want) {
    const double deadline = now_s() + 10.0;
    while (alive_ && in_.find('\n') == std::string::npos && now_s() < deadline) {
      pollfd p{fd_, POLLIN, 0};
      ::poll(&p, 1, 100);
      fill();
    }
    const auto eol = in_.find('\n');
    if (eol == std::string::npos || in_.compare(0, eol, want) != 0) {
      throw std::runtime_error("graphctd handshake: expected '" + want + "'");
    }
    in_.erase(0, eol + 1);
  }

  /// Blocking request/reply for set-up; throws unless the reply is ok.
  Reply call(const std::string& command) {
    if (!send_line(command + "\n")) throw std::runtime_error("send failed");
    Reply r;
    const double deadline = now_s() + 120.0;
    while (!next_reply(r)) {
      if (!alive_ || now_s() > deadline) {
        throw std::runtime_error("no reply to '" + command + "'");
      }
      pollfd p{fd_, POLLIN, 0};
      ::poll(&p, 1, 100);
      fill();
    }
    if (r.status != TextReply::Status::kOk) {
      throw std::runtime_error("'" + command + "' failed: " + r.payload);
    }
    return r;
  }

 private:
  int fd_ = -1;
  bool alive_ = true;
  std::string in_;
};

/// The in-process daemon with its event loop on a thread.
class RunningServer {
 public:
  explicit RunningServer(const graphct::server::ServerOptions& opts)
      : server_(opts), loop_([this] { server_.serve_tcp(0); }) {
    while (server_.port() == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  ~RunningServer() {
    server_.request_stop();
    loop_.join();
  }
  RunningServer(const RunningServer&) = delete;
  RunningServer& operator=(const RunningServer&) = delete;

  [[nodiscard]] int port() const { return server_.port(); }

 private:
  graphct::server::Server server_;
  std::thread loop_;
};

struct Request {
  double due = 0.0;  ///< seconds after the schedule origin
  int conn = 0;
  bool miss = false;
  std::string command;
};

/// Poisson arrivals of read / single-miss / paired-miss events such that
/// misses are 10 % of requests and half of them come in pairs (36:2:1
/// events). A miss event gets a budget no other event uses, so it misses
/// the result cache; a pair shares one.
std::vector<Request> make_schedule(std::uint64_t seed, double rate,
                                   double seconds, int graphs) {
  std::mt19937_64 rng(seed);
  const auto uniform = [&rng] {
    return static_cast<double>(rng() >> 11) * 0x1.0p-53;
  };
  const double event_rate = rate * 39.0 / 40.0;
  std::vector<Request> out;
  double t = 0.0;
  for (int event = 0;; ++event) {
    t += -std::log(1.0 - uniform()) / event_rate;
    if (t >= seconds) break;
    const int g = static_cast<int>(uniform() * graphs);
    const int c = 2 * g + (uniform() < 0.5 ? 0 : 1);
    const double kind = uniform() * 39.0;
    if (kind < 36.0) {
      out.push_back({t, c, false, kReads[static_cast<int>(uniform() * 3)]});
      continue;
    }
    const std::string bc = cat({"bc 16 auto ", std::to_string(64 + event)});
    if (kind < 38.0) {
      out.push_back({t, c, true, bc});
    } else {
      out.push_back({t, 2 * g, true, bc});
      out.push_back({t, 2 * g + 1, true, bc});
    }
  }
  return out;
}

/// Payload with any `done in <duration>` timing cut off each line.
std::vector<std::string> payload_lines(const std::string& payload) {
  std::vector<std::string> lines;
  std::istringstream in(payload);
  std::string line;
  while (std::getline(in, line)) {
    const auto p = line.find(": done in ");
    if (p != std::string::npos) line.resize(p);
    lines.push_back(line);
  }
  return lines;
}

/// BC payload equality: same header and vertices, scores within 1e-9.
bool same_bc_payload(const std::string& got, const std::string& want) {
  const auto a = payload_lines(got);
  const auto b = payload_lines(want);
  if (a.size() != b.size() || a.empty() || a[0] != b[0]) return false;
  for (std::size_t i = 1; i < a.size(); ++i) {
    long long va = 0, vb = 0;
    double sa = 0.0, sb = 0.0;
    if (std::sscanf(a[i].c_str(), " vertex %lld score %lf", &va, &sa) != 2 ||
        std::sscanf(b[i].c_str(), " vertex %lld score %lf", &vb, &sb) != 2) {
      return false;
    }
    if (va != vb ||
        std::abs(sa - sb) > kScoreTolerance * std::max(1.0, std::abs(sb))) {
      return false;
    }
  }
  return true;
}

struct Outcome {
  double sent = -1.0;
  double done = -1.0;
  bool ok = false;
  bool busy = false;
  Reply reply;
};

double ms(double s) { return s * 1e3; }

}  // namespace

int run_server_mixed(const Args& args) {
  const std::vector<std::string> graphs = {args.required("graph0"),
                                           args.required("graph1")};
  const double seconds = args.f64("seconds", 10.0);
  const bool traced = args.i64("trace", 0) != 0;
  const int setups = static_cast<int>(args.i64("setups", 5));
  const int workers = static_cast<int>(args.i64("workers", 2));
  const int threads = static_cast<int>(args.i64("threads", 2));
  const double rate = args.f64("rate", 340.0);
  const auto seed = static_cast<std::uint64_t>(args.i64("seed", 1));
  const std::int64_t calibrate = args.i64("calibrate", 0);

  Result res("server_mixed");
  require_no_oversubscription("server_mixed job workers x threads",
                              workers * threads);
  Trace trace(traced);

  graphct::server::ServerOptions sopts;
  sopts.workers = workers;
  sopts.limits.cache_budget_bytes = kCacheBudgetBytes;

  // --- set-up: start, load, warm; keep the last server running ---
  std::vector<double> setup, load_wall, cc_wall, kcore_wall;
  std::map<std::string, std::string> reference;  // "<graph> <cmd>" -> payload
  std::unique_ptr<RunningServer> server;
  std::vector<std::unique_ptr<Conn>> conns;
  // peak_rss_mb is the peak of the first set-up: a fresh server holding
  // both graphs, warmed. Later set-ups and the load reuse freed memory or
  // not depending on which allocator arena each job thread lands in, which
  // moves the process peak by +-20 % between identical runs; the peak
  // under load is reported per layer.
  double setup_rss_mb = 0.0;
  for (int i = 0; i < setups; ++i) {
    conns.clear();
    server.reset();
    Timed t(trace, "server.setup");
    server = std::make_unique<RunningServer>(sopts);
    for (std::size_t g = 0; g < graphs.size(); ++g) {
      for (int k = 0; k < 2; ++k) {
        auto c = std::make_unique<Conn>(server->port());
        c->call(cat({"threads ", std::to_string(threads)}));
        const std::string name = cat({"g", std::to_string(g)});
        if (k == 0) {
          load_wall.push_back(
              c->call(cat({"load graph ", name, " ", graphs[g]})).wall_s);
        } else {
          c->call(cat({"use graph ", name}));
        }
        conns.push_back(std::move(c));
      }
      Conn& c = *conns[2 * g];
      for (const char* cmd : kReads) {
        const Reply r = c.call(cmd);
        reference[cat({"g", std::to_string(g), " ", cmd})] = r.payload;
        if (std::strcmp(cmd, "print components") == 0) cc_wall.push_back(r.wall_s);
        if (std::strcmp(cmd, "print kcores") == 0) kcore_wall.push_back(r.wall_s);
      }
    }
    setup.push_back(t.stop());
    if (i == 0) setup_rss_mb = peak_rss_mb(false);
  }
  // Serial BC references, under a budget the load never uses.
  for (std::size_t g = 0; g < graphs.size(); ++g) {
    reference[cat({"g", std::to_string(g), " bc"})] =
        conns[2 * g]->call("bc 16 auto 63").payload;
  }

  if (calibrate > 0) {
    std::vector<double> walls;
    for (std::int64_t i = 0; i < calibrate; ++i) {
      walls.push_back(
          conns[0]->call(cat({"bc 16 auto ", std::to_string(1000000 + i)})).wall_s);
    }
    const double m = median(walls);
    std::fprintf(stderr,
                 "calibrate: miss service %.2f ms (median of %lld); miss "
                 "capacity %.1f/s over %d workers; half of it at 10%% "
                 "misses = %.0f requests/s\n",
                 ms(m), static_cast<long long>(calibrate), workers / m,
                 workers, 10.0 / m * workers / 2.0);
    return 0;
  }

  // --- open loop ---
  const auto schedule = make_schedule(seed, rate, seconds, 2);
  std::vector<Outcome> outcome(schedule.size());
  std::vector<double> late;
  std::size_t next = 0, outstanding = 0;
  std::vector<std::size_t> inflight(conns.size(), 0);
  const int load_span = trace.open("server.open_loop");
  const double origin = now_s() + 0.01;
  std::vector<pollfd> fds(conns.size());
  while (true) {
    const double now = now_s();
    while (next < schedule.size() && origin + schedule[next].due <= now) {
      const Request& rq = schedule[next];
      Outcome& o = outcome[next];
      o.sent = now_s();
      late.push_back(o.sent - (origin + rq.due));
      const auto c = static_cast<std::size_t>(rq.conn);
      if (conns[c]->send_line(
              cat({"@", std::to_string(next), " ", rq.command, "\n"}))) {
        ++outstanding;
        ++inflight[c];
      }
      ++next;
    }
    if (next == schedule.size() &&
        (outstanding == 0 || now > origin + seconds + kReplyTimeoutS)) {
      break;
    }
    for (std::size_t i = 0; i < conns.size(); ++i) {
      fds[i] = {conns[i]->alive() ? conns[i]->fd() : -1, POLLIN, 0};
    }
    const double wait =
        next < schedule.size() ? origin + schedule[next].due - now_s() : 0.05;
    timespec ts{};
    if (wait > 0.0) {
      ts.tv_sec = static_cast<time_t>(wait);
      ts.tv_nsec = static_cast<long>((wait - static_cast<double>(ts.tv_sec)) * 1e9);
    }
    ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    for (std::size_t i = 0; i < conns.size(); ++i) {
      if (fds[i].revents == 0) continue;
      conns[i]->fill();
      Reply r;
      while (conns[i]->next_reply(r)) {
        const std::size_t id = std::stoull(r.id);
        Outcome& o = outcome.at(id);
        o.done = now_s();
        o.ok = r.status == TextReply::Status::kOk;
        o.busy = r.status == TextReply::Status::kBusy;
        o.reply = std::move(r);
        --outstanding;
        --inflight[i];
      }
      if (!conns[i]->alive()) {
        // Dropped: its in-flight requests never complete (they fail).
        outstanding -= inflight[i];
        inflight[i] = 0;
      }
    }
  }
  const double makespan = now_s() - origin;
  if (traced) {
    for (std::size_t k = 0; k < schedule.size(); ++k) {
      if (outcome[k].done < 0) continue;
      trace.add(schedule[k].miss ? "server.uncached" : "server.cached",
                origin + schedule[k].due, outcome[k].done);
    }
  }
  trace.close(load_span);
  conns.clear();
  server.reset();

  // --- accounting and checks ---
  const double fail_ms = ms(kReplyTimeoutS);
  std::vector<double> cached, uncached, c_queue, c_run, u_queue, u_run,
      transport;
  std::int64_t ok = 0, busy = 0, hits = 0, lookups = 0;
  std::int64_t mismatched = 0;
  std::string first_mismatch;
  for (std::size_t k = 0; k < schedule.size(); ++k) {
    const Request& rq = schedule[k];
    const Outcome& o = outcome[k];
    res.attempt();
    const double latency = o.ok ? ms(o.done - (origin + rq.due)) : fail_ms;
    (rq.miss ? uncached : cached).push_back(latency);
    if (o.busy) ++busy;
    if (!o.ok) {
      res.fail();
      continue;
    }
    ++ok;
    const Reply& r = o.reply;
    (rq.miss ? u_queue : c_queue).push_back(ms(r.queue_s));
    (rq.miss ? u_run : c_run).push_back(ms(r.wall_s));
    transport.push_back(latency - ms(r.queue_s) - ms(r.wall_s));
    const std::string g = cat({"g", std::to_string(rq.conn / 2)});
    bool same = false;
    if (rq.miss) {
      hits += r.hits;
      lookups += r.hits + r.misses;
      same = same_bc_payload(r.payload, reference.at(g + " bc"));
    } else {
      same = r.payload == reference.at(g + " " + rq.command);
    }
    if (!same && mismatched++ == 0) {
      first_mismatch = cat({"@", std::to_string(k), " ", rq.command});
    }
  }
  res.check("payloads_match_serial", mismatched == 0 && ok > 0,
            std::to_string(ok) + " ok payloads compared with serial set-up "
            "replies" + (mismatched > 0 ? "; first mismatch " + first_mismatch
                                        : std::string()));

  const double late_p99 = ms(quantile(late, 0.99));
  if (late_p99 > kMaxLateMs) {
    char why[160];
    std::snprintf(why, sizeof why,
                  "load generator ran %.3f ms late at p99 (bound %.1f ms)",
                  late_p99, kMaxLateMs);
    res.invalidate(why);
  }
  std::fprintf(stderr,
               "server: %zu requests (%zu cached, %zu uncached), %lld ok, "
               "%lld busy, generator late p99 %.3f ms\n",
               schedule.size(), cached.size(), uncached.size(),
               static_cast<long long>(ok), static_cast<long long>(busy),
               late_p99);

  const auto q = [](const std::vector<double>& v, double p) {
    return v.empty() ? 0.0 : quantile(v, p);
  };
  res.set("setup_s", median(setup));
  res.set("run_s", makespan);
  res.set("peak_rss_mb", setup_rss_mb);
  res.set("cached_p50_ms", q(cached, 0.50));
  res.set("cached_p99_ms", q(cached, 0.99));
  res.set("uncached_p50_ms", q(uncached, 0.50));
  res.set("uncached_p90_ms", q(uncached, 0.90));
  res.set("served_rps", static_cast<double>(ok) / makespan);
  res.info("cached_samples", std::to_string(cached.size()));
  res.info("uncached_samples", std::to_string(uncached.size()));
  if (traced) {
    res.set("server.cached.queue_p99_ms", q(c_queue, 0.99));
    res.set("server.cached.run_p99_ms", q(c_run, 0.99));
    res.set("server.uncached.queue_p50_ms", q(u_queue, 0.50));
    res.set("server.uncached.run_p50_ms", q(u_run, 0.50));
    res.set("server.transport_p99_ms", q(transport, 0.99));
    res.set("util.result_cache.hit_ratio",
            lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups)
                        : 0.0);
    res.set("server.busy", static_cast<double>(busy));
    res.set("generator.late_p99_ms", late_p99);
    res.set("server.load_peak_rss_mb", peak_rss_mb(false));
    res.set("core.toolkit_load_s", median(load_wall));
    res.set("algs.components_s", median(cc_wall));
    res.set("algs.kcore_s", median(kcore_wall));
  }
  std::printf("%s\n", res.to_json(trace).c_str());
  return 0;
}

}  // namespace perfbench
