#include "dist/worker.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <omp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "graph/transforms.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace graphct::dist {

namespace {

// Local-sweep chunking, matching the single-process level scheduler
// (kBcLevelChunk / kBcLevelSerialBelow in core/betweenness.cpp).
constexpr std::int64_t kSweepChunk = 64;
constexpr std::int64_t kSweepSerialBelow = 512;

// Receive buffers above this size are released after their message.
constexpr std::size_t kKeepPayloadBytes = std::size_t{1} << 20;

}  // namespace

WorkerServer::WorkerServer(const WorkerOptions& opts) : opts_(opts) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  GCT_CHECK(fd >= 0, "dist worker: cannot create listen socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(opts.port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd, 1) != 0) {
    const int err = errno;
    ::close(fd);
    throw Error("dist worker: cannot bind 127.0.0.1:" +
                std::to_string(opts.port) + ": " + std::strerror(err));
  }
  socklen_t len = sizeof(addr);
  GCT_CHECK(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0,
            "dist worker: getsockname failed");
  port_ = ntohs(addr.sin_port);
  listen_fd_.store(fd);
}

WorkerServer::~WorkerServer() { stop(); }

void WorkerServer::stop() {
  const int fd = listen_fd_.exchange(-1);
  if (fd >= 0) {
    // shutdown() unblocks a racing accept(); close() alone may not.
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

void WorkerServer::release() {
  const int fd = listen_fd_.exchange(-1);
  if (fd >= 0) ::close(fd);
}

void WorkerServer::serve() {
  // Pin this thread's team size before any core code asks
  // omp_get_max_threads(): a forked worker would otherwise inherit the
  // parent's default team.
  omp_set_num_threads(opts_.threads);
  int cfd = -1;
  for (;;) {
    const int lfd = listen_fd_.load();
    if (lfd < 0) return;  // stopped before a coordinator arrived
    cfd = ::accept(lfd, nullptr, nullptr);
    if (cfd >= 0) break;
    if (errno == EINTR) continue;
    return;  // listen socket closed under us (stop()) or fatal error
  }
  stop();  // one coordinator per worker; no further accepts
  const int one = 1;
  ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  FrameConn conn(cfd);

  std::int64_t received = 0;
  Msg type;
  std::string payload;
  for (;;) {
    try {
      if (!conn.recv(type, payload)) return;  // coordinator hung up
    } catch (const std::exception&) {
      return;  // transport corrupt/dead; nothing to report it on
    }
    ++received;
    if (opts_.fail_after >= 0 && received > opts_.fail_after) {
      // Injected death: drop the connection without replying, exactly as
      // a crashed worker would.
      conn.close();
      return;
    }
    if (type == Msg::kShutdown) {
      try {
        conn.send(Msg::kAck, "");
      } catch (const std::exception&) {
      }
      return;
    }
    try {
      handle(type, payload, conn);
    } catch (const std::exception& e) {
      // Handler failure is a protocol-level error: report it in the reply
      // slot and keep serving. Only a failing send ends the loop.
      try {
        WireWriter w;
        w.str(e.what());
        conn.send(Msg::kError, w.take());
      } catch (const std::exception&) {
        return;
      }
    }
    // A load leaves a graph-sized receive buffer behind; hand it back
    // instead of carrying it through every later kernel.
    if (payload.capacity() > kKeepPayloadBytes) std::string().swap(payload);
  }
}

void WorkerServer::handle(Msg type, const std::string& payload,
                          FrameConn& conn) {
  WireReader r(payload);
  WireWriter reply;
  Msg reply_type = Msg::kAck;
  switch (type) {
    case Msg::kHello: {
      const std::uint64_t version = r.u64();
      GCT_CHECK(version == kProtocolVersion,
                "dist worker: unsupported protocol version " +
                    std::to_string(version));
      index_ = r.i64();
      num_workers_ = r.i64();
      GCT_CHECK(num_workers_ >= 1 && index_ >= 0 && index_ < num_workers_,
                "dist worker: bad worker index in hello");
      reply.u64(kProtocolVersion);
      reply.u64(static_cast<std::uint64_t>(::getpid()));
      reply_type = Msg::kHelloAck;
      break;
    }
    case Msg::kLoadBlock:
      handle_load(r, reply);
      reply_type = Msg::kLoadAck;
      break;
    case Msg::kBfsStart:
      require_loaded("bfs-start");
      proposed_.resize(graph_.num_vertices());
      proposed_.clear();
      break;
    case Msg::kBfsStep:
      handle_bfs_step(r, reply);
      reply_type = Msg::kBfsFrontier;
      break;
    case Msg::kCcStart:
      require_loaded("cc-start");
      labels_.resize(static_cast<std::size_t>(graph_.num_vertices()));
      for (vid v = 0; v < graph_.num_vertices(); ++v) {
        labels_[static_cast<std::size_t>(v)] = v;
      }
      break;
    case Msg::kCcStep:
      handle_cc_step(r, reply);
      reply_type = Msg::kCcDelta;
      break;
    case Msg::kPrStart:
      require_loaded("pr-start");
      break;
    case Msg::kPrStep:
      handle_pr_step(r, reply);
      reply_type = Msg::kPrRanks;
      break;
    case Msg::kBcRun:
      handle_bc_run(r, reply);
      reply_type = Msg::kBcDelta;
      break;
    default:
      throw Error(std::string("dist worker: unexpected message ") +
                  msg_name(type));
  }
  conn.send(reply_type, reply.take());
}

void WorkerServer::require_loaded(const char* what) const {
  GCT_CHECK(loaded_, std::string("dist worker: ") + what +
                         " before load-block");
}

void WorkerServer::handle_load(WireReader& r, WireWriter& reply) {
  // Drop the previous graph before decoding the next one.
  loaded_ = false;
  bc_.reset();
  graph_ = CsrGraph();
  reverse_ = CsrGraph();
  const bool directed = r.u8() != 0;
  const bool sorted = r.u8() != 0;
  const vid self_loops = r.i64();
  std::vector<std::int64_t> bounds;
  r.i64_vec(bounds);
  GCT_CHECK(static_cast<std::int64_t>(bounds.size()) == num_workers_ + 1,
            "dist worker: block bounds do not match the worker count");
  std::vector<eid> offsets;
  r.i64_vec(offsets);
  std::vector<vid> adjacency;
  const std::uint8_t width = r.u8();
  if (width == 4) {
    r.i32_vec(adjacency);
  } else {
    GCT_CHECK(width == 8, "dist worker: bad adjacency width");
    r.i64_vec(adjacency);
  }
  // The constructor validates offsets and every target id.
  graph_ = CsrGraph(std::move(offsets), std::move(adjacency), directed,
                    self_loops, sorted);
  reverse_ = directed ? reverse(graph_) : CsrGraph();
  begin_ = bounds[static_cast<std::size_t>(index_)];
  end_ = bounds[static_cast<std::size_t>(index_) + 1];
  GCT_CHECK(begin_ >= 0 && begin_ <= end_ && end_ <= graph_.num_vertices(),
            "dist worker: bad block range");
  loaded_ = true;
  reply.i64(graph_.num_adjacency_entries());
}

void WorkerServer::expand_owned_rows(std::span<const std::int64_t> owned,
                                     std::vector<vid>& candidates) {
  candidates.clear();
  const auto count = static_cast<std::int64_t>(owned.size());
  if (opts_.threads <= 1 || count < kSweepSerialBelow) {
    for (const std::int64_t u : owned) {
      GCT_CHECK(u >= begin_ && u < end_,
                "dist worker: frontier vertex not owned by this block");
      // The frontier vertex itself is visited; never propose it again.
      proposed_.set(static_cast<vid>(u));
      for (const vid v : graph_.neighbors(static_cast<vid>(u))) {
        if (!proposed_.test(v)) {
          proposed_.set(v);
          candidates.push_back(v);
        }
      }
    }
    return;
  }
  // Parallel expansion: per-thread candidate lists, bitmap dedup with
  // set_atomic. Two threads racing on the same neighbor may both emit it
  // (test-then-set is not atomic as a pair) — benign, the coordinator
  // dedups against its global distance array and sorts the merged
  // frontier, so the resulting levels are identical to the serial path's.
  std::vector<std::vector<vid>> per_thread(
      static_cast<std::size_t>(opts_.threads));
#pragma omp parallel num_threads(opts_.threads)
  {
    auto& mine = per_thread[static_cast<std::size_t>(omp_get_thread_num())];
#pragma omp for schedule(dynamic, 64)
    for (std::int64_t i = 0; i < count; ++i) {
      const auto u = static_cast<vid>(owned[static_cast<std::size_t>(i)]);
      if (u < begin_ || u >= end_) continue;  // checked below
      proposed_.set_atomic(u);
      for (const vid v : graph_.neighbors(u)) {
        if (!proposed_.test(v)) {
          proposed_.set_atomic(v);
          mine.push_back(v);
        }
      }
    }
  }
  for (const std::int64_t u : owned) {
    GCT_CHECK(u >= begin_ && u < end_,
              "dist worker: frontier vertex not owned by this block");
  }
  for (auto& pt : per_thread) {
    candidates.insert(candidates.end(), pt.begin(), pt.end());
  }
}

void WorkerServer::handle_bfs_step(WireReader& r, WireWriter& reply) {
  GCT_CHECK(loaded_ && proposed_.size() == graph_.num_vertices(),
            "dist worker: bfs-step before bfs-start");
  r.i64_vec(scratch_i64_);
  std::vector<vid> candidates;
  expand_owned_rows(scratch_i64_, candidates);
  reply.i64_span(candidates);
}

void WorkerServer::handle_cc_step(WireReader& r, WireWriter& reply) {
  GCT_CHECK(loaded_ && !labels_.empty(),
            "dist worker: cc-step before cc-start");
  // Apply the coordinator's merged delta first (monotone min, idempotent).
  r.i64_vec(scratch_i64_);
  std::vector<std::int64_t> delta_labels;
  r.i64_vec(delta_labels);
  GCT_CHECK(scratch_i64_.size() == delta_labels.size(),
            "dist worker: cc delta arrays disagree");
  for (std::size_t i = 0; i < scratch_i64_.size(); ++i) {
    const auto v = static_cast<std::size_t>(scratch_i64_[i]);
    GCT_CHECK(v < labels_.size(), "dist worker: cc delta vertex out of range");
    if (delta_labels[i] < labels_[v]) labels_[v] = delta_labels[i];
  }

  // Scan owned rows, absorbing labels across each arc in both directions
  // (weak components: a directed arc still merges its endpoints). Updates
  // apply locally as they are found — monotone minima converge to the same
  // fixed point in any order — and every locally lowered vertex is
  // proposed to the coordinator.
  std::vector<vid> changed;
  if (opts_.threads <= 1 || end_ - begin_ < kSweepSerialBelow) {
    auto lower = [&](vid v, vid label) {
      auto& cur = labels_[static_cast<std::size_t>(v)];
      if (label < cur) {
        cur = label;
        changed.push_back(v);  // may repeat across arcs; deduped below
      }
    };
    for (vid u = begin_; u < end_; ++u) {
      for (const vid v : graph_.neighbors(u)) {
        const vid lu = labels_[static_cast<std::size_t>(u)];
        const vid lv = labels_[static_cast<std::size_t>(v)];
        if (lu < lv) {
          lower(v, lu);
        } else if (lv < lu) {
          lower(u, lv);
        }
      }
    }
  } else {
    // Parallel absorption: atomic_min keeps every lowering monotone, and
    // per-thread changed lists merge below. A round may propose slightly
    // different intermediates than the serial scan (absorption chains
    // cascade differently across threads), but the fixed point — the
    // canonical min-vertex-id labeling — is identical, which is what the
    // kernel-level parity gates assert.
    std::vector<std::vector<vid>> per_thread(
        static_cast<std::size_t>(opts_.threads));
#pragma omp parallel num_threads(opts_.threads)
    {
      auto& mine = per_thread[static_cast<std::size_t>(omp_get_thread_num())];
#pragma omp for schedule(dynamic, 256)
      for (vid u = begin_; u < end_; ++u) {
        for (const vid v : graph_.neighbors(u)) {
          const vid lu = labels_[static_cast<std::size_t>(u)];
          const vid lv = labels_[static_cast<std::size_t>(v)];
          if (lu < lv) {
            if (atomic_min(labels_[static_cast<std::size_t>(v)], lu)) {
              mine.push_back(v);
            }
          } else if (lv < lu) {
            if (atomic_min(labels_[static_cast<std::size_t>(u)], lv)) {
              mine.push_back(u);
            }
          }
        }
      }
    }
    for (auto& pt : per_thread) {
      changed.insert(changed.end(), pt.begin(), pt.end());
    }
  }
  // Dedup: a vertex lowered several times reports its final label once.
  std::sort(changed.begin(), changed.end());
  changed.erase(std::unique(changed.begin(), changed.end()), changed.end());
  std::vector<std::int64_t> out_labels(changed.size());
  for (std::size_t i = 0; i < changed.size(); ++i) {
    out_labels[i] = labels_[static_cast<std::size_t>(changed[i])];
  }
  reply.i64_span(changed);
  reply.i64_span(out_labels);
}

void WorkerServer::handle_pr_step(WireReader& r, WireWriter& reply) {
  require_loaded("pr-step");
  // Pull over in-edges: the reverse graph when directed.
  const CsrGraph& pull = graph_.directed() ? reverse_ : graph_;
  const double base = r.f64();
  const double damping = r.f64();
  r.f64_vec(contrib_);
  GCT_CHECK(static_cast<vid>(contrib_.size()) == graph_.num_vertices(),
            "dist worker: contrib vector length mismatch");
  next_.resize(static_cast<std::size_t>(end_ - begin_));
  // Per-vertex accumulation in adjacency order: floating-point addition is
  // order-dependent, and this order is exactly the single-process
  // kernel's, which is what makes per-vertex sums match it bitwise given
  // identical inputs. Rows parallelize freely — each sum is per-vertex
  // exclusive and internally sequential, so the result is bit-identical at
  // any thread count (stealing_for runs inline at threads=1).
  stealing_for(wq_, begin_, end_, kSweepChunk, kSweepSerialBelow,
               opts_.threads, [&](std::int64_t b, std::int64_t e) {
                 for (vid v = b; v < e; ++v) {
                   double acc = 0.0;
                   for (const vid u : pull.neighbors(v)) {
                     acc += contrib_[static_cast<std::size_t>(u)];
                   }
                   next_[static_cast<std::size_t>(v - begin_)] =
                       base + damping * acc;
                 }
               });
  reply.f64_span(next_);
}

void WorkerServer::handle_bc_run(WireReader& r, WireWriter& reply) {
  require_loaded("bc-run");
  GCT_CHECK(!graph_.directed(),
            "dist worker: distributed betweenness is undirected-only");
  const vid source = r.i64();  // range-checked by the engine
  // No adjacency narrowing: the int32 copy would double the worker's
  // graph memory and buys no time at the sizes workers hold.
  if (!bc_) {
    bc_ = std::make_unique<BcSourceEngine>(graph_, BetweennessOptions{},
                                           /*narrow_adjacency=*/false);
  }
  // delta_s = 0 + dv exactly, so the coordinator's score[v] += delta_s[v]
  // in source order repeats fine mode's adds bit for bit.
  delta_.assign(static_cast<std::size_t>(graph_.num_vertices()), 0.0);
  bc_->accumulate(source, delta_);
  reply.f64_span(delta_);
}

}  // namespace graphct::dist
