#include "dist/coordinator.hpp"

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <limits>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace graphct::dist {

namespace {

// Source requests each worker holds in overlapped betweenness: enough that
// a worker always has its next source queued while the previous vector
// crosses the wire.
constexpr std::int64_t kBcPipelineDepth = 4;

obs::Counter& steps_counter(const char* kernel) {
  return obs::registry().counter(
      std::string("gct_dist_steps_total{kernel=\"") +
      obs::prom_label_value(kernel) + "\"}");
}

obs::Histogram& step_seconds() {
  static obs::Histogram& h =
      obs::registry().histogram("gct_dist_step_seconds");
  return h;
}

obs::Counter& failures_counter() {
  static obs::Counter& c =
      obs::registry().counter("gct_dist_worker_failures_total");
  return c;
}

}  // namespace

Coordinator::~Coordinator() { shutdown(); }

void Coordinator::require_ready() const {
  if (degraded_) {
    throw Error("dist: substrate is degraded (" + degraded_reason_ +
                "); restart the workers and reconnect");
  }
  GCT_CHECK(!conns_.empty(), "dist: no workers connected");
}

void Coordinator::fail(int worker, const std::string& what,
                       const std::string& detail) {
  degraded_ = true;
  degraded_reason_ = "worker " + std::to_string(worker) + " failed during " +
                     what + ": " + detail;
  failures_counter().add(1);
  // A dead worker poisons every in-flight exchange: close all sockets so
  // nothing ever blocks on a reply that cannot arrive.
  for (auto& c : conns_) c.close();
  throw Error("dist: " + degraded_reason_ +
              " — job cancelled; the graph remains serviceable through "
              "single-process kernels");
}

void Coordinator::send_to(int w, Msg type, std::string_view payload,
                          const char* what) {
  send_frame_to(
      w, framing::encode_frame(static_cast<std::uint8_t>(type), payload),
      what);
}

void Coordinator::send_frame_to(int w, std::string_view frame,
                                const char* what) {
  try {
    conns_[static_cast<std::size_t>(w)].send_frame(frame);
  } catch (const Error& e) {
    fail(w, what, e.what());
  }
}

std::string Coordinator::recv_from(int w, Msg expect, const char* what) {
  Msg type;
  std::string payload;
  try {
    if (!conns_[static_cast<std::size_t>(w)].recv(type, payload)) {
      fail(w, what, "connection closed (worker died)");
    }
  } catch (const Error& e) {
    fail(w, what, e.what());
  }
  if (type == Msg::kError) {
    WireReader r(payload);
    fail(w, what, "worker reported: " + r.str());
  }
  if (type != expect) {
    fail(w, what,
         std::string("unexpected reply ") + msg_name(type) + " (wanted " +
             msg_name(expect) + ")");
  }
  return payload;
}

void Coordinator::exchange(
    Msg type, const std::vector<std::string>& payloads, Msg expect,
    const char* what,
    const std::function<void(int, std::string&)>& on_reply) {
  const int nw = num_workers();
  const bool broadcast = payloads.size() == 1;
  GCT_CHECK(broadcast || static_cast<int>(payloads.size()) == nw,
            "dist: exchange payload count mismatch");

  if (!overlap_) {
    // Lockstep: send everything, then drain replies in worker order. Kept
    // for the overlap ablation (bench/dist_profile --no-overlap rows).
    for (int w = 0; w < nw; ++w) {
      send_to(w, type, payloads[broadcast ? 0 : static_cast<std::size_t>(w)],
              what);
    }
    for (int w = 0; w < nw; ++w) {
      std::string reply = recv_from(w, expect, what);
      on_reply(w, reply);
    }
    return;
  }

  // Overlapped: queue every request into the per-connection outbox (never
  // blocks), then poll() all sockets at once — flushing sends and merging
  // each reply the moment it completes, so a fast worker's reply is
  // consumed while a slow worker is still computing or receiving.
  for (int w = 0; w < nw; ++w) {
    auto& c = conns_[static_cast<std::size_t>(w)];
    try {
      c.queue_send(type,
                   payloads[broadcast ? 0 : static_cast<std::size_t>(w)]);
    } catch (const Error& e) {
      fail(w, what, e.what());
    }
  }

  std::vector<pollfd> fds(static_cast<std::size_t>(nw));
  std::vector<char> done(static_cast<std::size_t>(nw), 0);
  int remaining = nw;
  Msg rtype{};
  std::string rpayload;
  while (remaining > 0) {
    for (int w = 0; w < nw; ++w) {
      auto& p = fds[static_cast<std::size_t>(w)];
      if (done[static_cast<std::size_t>(w)]) {
        p.fd = -1;  // negative fds are ignored by poll()
        p.events = 0;
      } else {
        const auto& c = conns_[static_cast<std::size_t>(w)];
        p.fd = c.fd();
        p.events = POLLIN;
        if (c.send_pending()) p.events |= POLLOUT;
      }
      p.revents = 0;
    }
    const int rc = ::poll(fds.data(), static_cast<nfds_t>(nw), -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      fail(0, what, std::string("poll: ") + std::strerror(errno));
    }
    for (int w = 0; w < nw; ++w) {
      if (done[static_cast<std::size_t>(w)]) continue;
      const short re = fds[static_cast<std::size_t>(w)].revents;
      if (re == 0) continue;
      auto& c = conns_[static_cast<std::size_t>(w)];
      try {
        // On POLLERR/POLLHUP the I/O calls themselves produce the precise
        // error (or drain the final bytes a closing peer already sent).
        if (c.send_pending() && (re & (POLLOUT | POLLERR | POLLHUP)) != 0) {
          c.flush_some();
        }
        if ((re & (POLLIN | POLLERR | POLLHUP)) != 0 &&
            c.recv_some(rtype, rpayload)) {
          if (rtype == Msg::kError) {
            WireReader r(rpayload);
            fail(w, what, "worker reported: " + r.str());
          }
          if (rtype != expect) {
            fail(w, what,
                 std::string("unexpected reply ") + msg_name(rtype) +
                     " (wanted " + msg_name(expect) + ")");
          }
          done[static_cast<std::size_t>(w)] = 1;
          --remaining;
          on_reply(w, rpayload);
        }
      } catch (const Error& e) {
        fail(w, what, e.what());
      }
    }
  }
}

std::pair<std::int64_t, std::int64_t> Coordinator::owned_span(
    const std::vector<vid>& sorted, int w) const {
  const BlockInfo& b = partition_.blocks[static_cast<std::size_t>(w)];
  const auto lo = std::lower_bound(sorted.begin(), sorted.end(), b.begin);
  const auto hi = std::lower_bound(lo, sorted.end(), b.end);
  return {lo - sorted.begin(), hi - lo};
}

void Coordinator::connect(const std::vector<int>& ports) {
  GCT_CHECK(!ports.empty(), "dist: need at least one worker port");
  shutdown();
  degraded_ = false;
  degraded_reason_.clear();
  loaded_ = false;
  conns_.clear();
  conns_.reserve(ports.size());
  for (const int port : ports) conns_.push_back(connect_local(port));
  for (int w = 0; w < num_workers(); ++w) {
    WireWriter hello;
    hello.u64(kProtocolVersion);
    hello.i64(w);
    hello.i64(num_workers());
    send_to(w, Msg::kHello, hello.take(), "handshake");
  }
  for (int w = 0; w < num_workers(); ++w) {
    const std::string ack = recv_from(w, Msg::kHelloAck, "handshake");
    WireReader r(ack);
    const std::uint64_t version = r.u64();
    if (version != kProtocolVersion) {
      fail(w, "handshake",
           "worker speaks protocol version " + std::to_string(version));
    }
  }
}

void Coordinator::load_graph(const CsrGraph& g) {
  require_ready();
  GCT_SPAN("dist.load");
  partition_ = partition_graph(g, num_workers());
  global_n_ = g.num_vertices();
  directed_ = g.directed();
  out_degree_.resize(static_cast<std::size_t>(global_n_));
  for (vid v = 0; v < global_n_; ++v) {
    out_degree_[static_cast<std::size_t>(v)] = g.degree(v);
  }

  // One payload for every worker: the whole graph plus every block's
  // bounds (a worker owns the block at the index it got at hello), encoded
  // and checksummed once. Ids that fit 32 bits ship as int32, narrowed
  // straight into the payload.
  std::vector<std::int64_t> bounds;
  bounds.reserve(partition_.blocks.size() + 1);
  for (const BlockInfo& b : partition_.blocks) bounds.push_back(b.begin);
  bounds.push_back(global_n_);
  WireWriter msg;
  msg.u8(directed_ ? 1 : 0);
  msg.u8(g.sorted_adjacency() ? 1 : 0);
  msg.i64(g.num_self_loops());
  msg.i64_span(bounds);
  msg.i64_span(g.offsets());
  if (global_n_ <= std::numeric_limits<std::int32_t>::max()) {
    msg.u8(4);
    msg.i32_span(g.adjacency());
  } else {
    msg.u8(8);
    msg.i64_span(g.adjacency());
  }
  const std::string frame = framing::encode_frame(
      static_cast<std::uint8_t>(Msg::kLoadBlock), msg.take());
  for (int w = 0; w < num_workers(); ++w) send_frame_to(w, frame, "load");
  for (int w = 0; w < num_workers(); ++w) {
    const std::string ack = recv_from(w, Msg::kLoadAck, "load");
    WireReader r(ack);
    if (r.i64() != g.num_adjacency_entries()) {
      fail(w, "load", "load-ack does not match the shipped graph");
    }
  }
  loaded_ = true;
}

DistStats Coordinator::snapshot_traffic() const {
  DistStats s;
  for (const auto& c : conns_) {
    const Traffic& t = c.traffic();
    s.messages_sent += t.messages_sent;
    s.messages_received += t.messages_received;
    s.bytes_sent += t.bytes_sent;
    s.bytes_received += t.bytes_received;
  }
  s.steps = total_steps_;
  return s;
}

DistStats Coordinator::stats() const { return snapshot_traffic(); }

void Coordinator::begin_kernel() {
  require_ready();
  GCT_CHECK(loaded_, "dist: no graph loaded (call load_graph first)");
  kernel_base_ = snapshot_traffic();
}

void Coordinator::end_kernel(const char* kernel, std::int64_t steps) {
  total_steps_ += steps;
  const DistStats now = snapshot_traffic();
  last_kernel_.messages_sent = now.messages_sent - kernel_base_.messages_sent;
  last_kernel_.messages_received =
      now.messages_received - kernel_base_.messages_received;
  last_kernel_.bytes_sent = now.bytes_sent - kernel_base_.bytes_sent;
  last_kernel_.bytes_received =
      now.bytes_received - kernel_base_.bytes_received;
  last_kernel_.steps = steps;
  steps_counter(kernel).add(steps);
}

std::vector<vid> Coordinator::bfs_distances(vid source, vid max_depth) {
  begin_kernel();
  GCT_CHECK(source >= 0 && source < global_n_,
            "dist bfs: source out of range");
  obs::KernelScope scope("dist.bfs");
  std::vector<vid> dist(static_cast<std::size_t>(global_n_), kNoVertex);
  dist[static_cast<std::size_t>(source)] = 0;

  exchange(Msg::kBfsStart, {std::string()}, Msg::kAck, "bfs",
           [](int, std::string&) {});

  std::vector<vid> frontier{source};
  std::vector<std::string> payloads(
      static_cast<std::size_t>(num_workers()));
  std::vector<std::int64_t> candidates;
  vid level = 0;
  std::int64_t steps = 0;
  while (!frontier.empty() &&
         (max_depth == kNoVertex || level < max_depth)) {
    GCT_SPAN("dist.bfs.step");
    Timer step_timer;
    // The frontier is sorted ascending, so each worker's owned slice is
    // one contiguous range: [lower_bound(begin), lower_bound(end)).
    for (int w = 0; w < num_workers(); ++w) {
      const auto [off, len] = owned_span(frontier, w);
      WireWriter msg;
      msg.i64_span(std::span<const std::int64_t>(
          frontier.data() + off, static_cast<std::size_t>(len)));
      payloads[static_cast<std::size_t>(w)] = msg.take();
    }
    std::vector<vid> next;
    // First-assignment dedup then a sort: merge order never matters.
    exchange(Msg::kBfsStep, payloads, Msg::kBfsFrontier, "bfs",
             [&](int, std::string& reply) {
               WireReader r(reply);
               r.i64_vec(candidates);
               for (const std::int64_t c : candidates) {
                 auto& d = dist[static_cast<std::size_t>(c)];
                 if (d == kNoVertex) {
                   d = level + 1;
                   next.push_back(static_cast<vid>(c));
                 }
               }
             });
    std::sort(next.begin(), next.end());
    frontier.swap(next);
    ++level;
    ++steps;
    step_seconds().observe(step_timer.seconds());
    obs::add_work(static_cast<std::int64_t>(frontier.size()), 0);
  }
  end_kernel("bfs", steps);
  return dist;
}

std::vector<vid> Coordinator::components() {
  begin_kernel();
  obs::KernelScope scope("dist.components");
  std::vector<vid> labels(static_cast<std::size_t>(global_n_));
  for (vid v = 0; v < global_n_; ++v) {
    labels[static_cast<std::size_t>(v)] = v;
  }

  exchange(Msg::kCcStart, {std::string()}, Msg::kAck, "components",
           [](int, std::string&) {});

  // Delta exchange: broadcast the vertices whose master label changed last
  // round, collect proposals, repeat until a round changes nothing.
  std::vector<std::int64_t> delta_v;
  std::vector<std::int64_t> delta_l;
  std::vector<std::int64_t> prop_v;
  std::vector<std::int64_t> prop_l;
  std::vector<vid> changed;
  std::int64_t steps = 0;
  for (;;) {
    GCT_SPAN("dist.components.step");
    Timer step_timer;
    WireWriter msg;
    msg.i64_span(delta_v);
    msg.i64_span(delta_l);
    changed.clear();
    // Monotone min-merge: applying workers' proposals in any order
    // reaches the same labels, so completion-order delivery is safe.
    exchange(Msg::kCcStep, {msg.take()}, Msg::kCcDelta, "components",
             [&](int w, std::string& reply) {
               WireReader r(reply);
               r.i64_vec(prop_v);
               r.i64_vec(prop_l);
               if (prop_v.size() != prop_l.size()) {
                 fail(w, "components", "mismatched delta arrays");
               }
               for (std::size_t i = 0; i < prop_v.size(); ++i) {
                 auto& cur = labels[static_cast<std::size_t>(prop_v[i])];
                 if (prop_l[i] < cur) {
                   cur = static_cast<vid>(prop_l[i]);
                   changed.push_back(static_cast<vid>(prop_v[i]));
                 }
               }
             });
    ++steps;
    step_seconds().observe(step_timer.seconds());
    if (changed.empty()) break;
    std::sort(changed.begin(), changed.end());
    changed.erase(std::unique(changed.begin(), changed.end()),
                  changed.end());
    delta_v.assign(changed.begin(), changed.end());
    delta_l.resize(changed.size());
    for (std::size_t i = 0; i < changed.size(); ++i) {
      delta_l[i] = labels[static_cast<std::size_t>(changed[i])];
    }
  }
  end_kernel("components", steps);
  return labels;
}

PageRankResult Coordinator::pagerank(const PageRankOptions& opts) {
  begin_kernel();
  GCT_CHECK(opts.damping > 0.0 && opts.damping < 1.0,
            "pagerank: damping must be in (0,1)");
  GCT_CHECK(opts.max_iterations >= 1, "pagerank: need >= 1 iteration");
  obs::KernelScope scope("dist.pagerank");
  PageRankResult result;
  if (global_n_ == 0) return result;

  exchange(Msg::kPrStart, {std::string()}, Msg::kAck, "pagerank",
           [](int, std::string&) {});

  const double inv_n = 1.0 / static_cast<double>(global_n_);
  std::vector<double> rank(static_cast<std::size_t>(global_n_), inv_n);
  std::vector<double> next(static_cast<std::size_t>(global_n_), 0.0);
  std::vector<double> contrib(static_cast<std::size_t>(global_n_), 0.0);
  std::vector<double> block;
  std::int64_t steps = 0;

  for (std::int64_t it = 0; it < opts.max_iterations; ++it) {
    GCT_SPAN("dist.pagerank.step");
    Timer step_timer;
    double dangling = 0.0;
    for (vid v = 0; v < global_n_; ++v) {
      const vid d = out_degree_[static_cast<std::size_t>(v)];
      if (d == 0) {
        dangling += rank[static_cast<std::size_t>(v)];
        contrib[static_cast<std::size_t>(v)] = 0.0;
      } else {
        contrib[static_cast<std::size_t>(v)] =
            rank[static_cast<std::size_t>(v)] / static_cast<double>(d);
      }
    }
    const double base =
        (1.0 - opts.damping) * inv_n + opts.damping * dangling * inv_n;

    WireWriter msg;
    msg.f64(base);
    msg.f64(opts.damping);
    msg.f64_span(contrib);
    // Disjoint block copies: any completion order lands the same ranks.
    exchange(Msg::kPrStep, {msg.take()}, Msg::kPrRanks, "pagerank",
             [&](int w, std::string& reply) {
               WireReader r(reply);
               r.f64_vec(block);
               const BlockInfo& b =
                   partition_.blocks[static_cast<std::size_t>(w)];
               if (static_cast<vid>(block.size()) != b.num_vertices()) {
                 fail(w, "pagerank", "rank block length mismatch");
               }
               std::copy(block.begin(), block.end(),
                         next.begin() +
                             static_cast<std::ptrdiff_t>(b.begin));
             });

    double delta = 0.0;
    for (vid v = 0; v < global_n_; ++v) {
      delta += std::abs(next[static_cast<std::size_t>(v)] -
                        rank[static_cast<std::size_t>(v)]);
    }
    rank.swap(next);
    result.iterations = it + 1;
    result.residual = delta;
    ++steps;
    step_seconds().observe(step_timer.seconds());
    if (delta < opts.tolerance) {
      result.converged = true;
      break;
    }
  }
  result.score = std::move(rank);
  end_kernel("pagerank", steps);
  return result;
}

std::vector<double> Coordinator::betweenness(std::span<const vid> sources) {
  begin_kernel();
  GCT_CHECK(!directed_,
            "dist bc: distributed betweenness requires an undirected graph");
  GCT_CHECK(!sources.empty(), "dist bc: need at least one source");
  for (const vid s : sources) {
    GCT_CHECK(s >= 0 && s < global_n_, "dist bc: source out of range");
  }
  obs::KernelScope scope("dist.bc");
  const auto n = static_cast<std::size_t>(global_n_);
  const auto k = static_cast<std::int64_t>(sources.size());
  const int nw = num_workers();

  // Source i runs on worker i % nw, and a worker answers its requests in
  // order, so reply i is worker (i % nw)'s next frame. Each worker holds
  // up to `depth` requests: overlapped, it computes its next source while
  // the last vector crosses the wire; lockstep (depth 1), it idles for
  // every round trip. Requests are tiny and bounded by the depth, so the
  // blocking sends below can never stall on a worker that is itself
  // blocked sending a reply.
  const std::int64_t depth = overlap_ ? kBcPipelineDepth : 1;
  const std::int64_t ahead = std::min<std::int64_t>(k, depth * nw);
  const auto request = [&](std::int64_t i) {
    WireWriter msg;
    msg.i64(sources[static_cast<std::size_t>(i)]);
    send_to(static_cast<int>(i % nw), Msg::kBcRun, msg.take(), "bc");
  };
  for (std::int64_t i = 0; i < ahead; ++i) request(i);

  std::vector<double> score(n, 0.0);
  std::vector<double> delta;
  std::string reply;
  for (std::int64_t i = 0; i < k; ++i) {
    Timer step_timer;
    const int w = static_cast<int>(i % nw);
    {
      GCT_SPAN("dist.bc.wait");
      reply = recv_from(w, Msg::kBcDelta, "bc");
    }
    if (i + ahead < k) request(i + ahead);  // same worker: ahead % nw == 0
    GCT_SPAN("dist.bc.accumulate");
    WireReader r(reply);
    r.f64_vec(delta);
    if (delta.size() != n) {
      fail(w, "bc", "dependency vector length mismatch");
    }
    // Sources add in the caller's order: fine mode's score[v] += dv
    // sequence, bit for bit (entries a source does not reach are +0.0).
    for (std::size_t v = 0; v < n; ++v) score[v] += delta[v];
    step_seconds().observe(step_timer.seconds());
  }
  obs::add_work(k * global_n_, 0);
  end_kernel("bc", k);
  return score;
}

void Coordinator::shutdown() {
  for (std::size_t w = 0; w < conns_.size(); ++w) {
    auto& c = conns_[w];
    if (!c.valid()) continue;
    try {
      c.send(Msg::kShutdown, "");
      Msg type;
      std::string payload;
      c.recv(type, payload);  // best-effort ack
    } catch (const std::exception&) {
      // Teardown is best-effort by design; a dead worker is already gone.
    }
    c.close();
  }
}

}  // namespace graphct::dist
