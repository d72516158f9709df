#pragma once

/// \file worker.hpp
/// The dist substrate's worker: holds a full copy of the loaded graph and
/// serves kernel RPCs to a single coordinator.
///
/// A WorkerServer binds a loopback listen socket at construction (port 0 =
/// ephemeral, the default — the chosen port is readable immediately via
/// port(), which is what lets tests and benches run collision-free), then
/// serve() accepts exactly one coordinator connection and answers frames
/// until kShutdown, peer EOF, or an injected failure.
///
/// Every worker receives the whole graph (one shared kLoadBlock frame) and
/// keeps its own contiguous vertex block, named by the index the
/// coordinator sent at hello:
///
///   * BFS, components and PageRank are vertex-partitioned: each step
///     sweeps the owned rows only, through the same bitmap/work-queue
///     engines as the single-process kernels.
///   * Betweenness is source-partitioned: each kBcRun runs one source
///     through the single-process engine (core/betweenness.hpp
///     BcSourceEngine) over the full graph and replies with that source's
///     dependency vector. No per-level state crosses the wire.
///
/// Sweeps run on `WorkerOptions::threads` OpenMP threads (default 1 = the
/// exact serial paths; surfaced as CLI `worker --threads` and script
/// `workers <n> ... threads=<k>`). serve() pins the thread's OpenMP team
/// size to that count, so core code sized by omp_get_max_threads() never
/// inherits a parent process's team. Every floating-point sum a worker
/// produces is per-vertex exclusive and runs in adjacency order, so results
/// are bit-identical at any thread count.
///
/// Failure semantics: a handler exception is reported to the coordinator
/// as a kError frame (the reply slot for that request) and the worker
/// keeps serving; only transport-level failures end the loop. The
/// `fail_after` option abruptly closes the connection after N received
/// messages without replying — deterministic mid-kernel worker death for
/// the coordinator's failure-path tests.

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/betweenness.hpp"
#include "dist/wire.hpp"
#include "graph/csr_graph.hpp"
#include "util/bitmap.hpp"
#include "util/work_queue.hpp"

namespace graphct::dist {

struct WorkerOptions {
  int port = 0;  ///< listen port; 0 = kernel-assigned ephemeral port

  /// OpenMP threads for local sweeps (1 = serial, the default so a
  /// one-core host is never oversubscribed by a multi-worker set).
  int threads = 1;

  /// Abruptly close the coordinator connection after this many received
  /// messages (fault injection; -1 = never). The dropped message gets no
  /// reply, so the coordinator observes a dead socket mid-kernel.
  std::int64_t fail_after = -1;
};

class WorkerServer {
 public:
  explicit WorkerServer(const WorkerOptions& opts = {});
  ~WorkerServer();
  WorkerServer(const WorkerServer&) = delete;
  WorkerServer& operator=(const WorkerServer&) = delete;

  /// The bound listen port (resolved even when opts.port was 0).
  [[nodiscard]] int port() const { return port_; }

  /// Accept one coordinator and serve frames until kShutdown, EOF, an
  /// injected failure, or stop(). Always returns normally; handler errors
  /// are reported to the coordinator as kError replies.
  void serve();

  /// Unblock a concurrently running serve() (thread-mode teardown).
  /// Idempotent; safe to call from another thread.
  void stop();

  /// Drop this process's copy of the listen fd *without* shutting the
  /// socket down. Fork-mode parents call this after fork(): shutdown()
  /// would kill the shared listening socket under the child, close() alone
  /// leaves the child's copy accepting.
  void release();

 private:
  void handle(Msg type, const std::string& payload, FrameConn& conn);
  void handle_load(WireReader& r, WireWriter& reply);
  void handle_bfs_step(WireReader& r, WireWriter& reply);
  void handle_cc_step(WireReader& r, WireWriter& reply);
  void handle_pr_step(WireReader& r, WireWriter& reply);
  void handle_bc_run(WireReader& r, WireWriter& reply);
  void require_loaded(const char* what) const;

  /// Expand owned frontier rows, proposing every not-yet-proposed
  /// neighbor: serial at threads=1 (deterministic candidate order),
  /// per-thread candidate lists above that (the coordinator dedups and
  /// sorts either way).
  void expand_owned_rows(std::span<const std::int64_t> owned,
                         std::vector<vid>& candidates);

  WorkerOptions opts_;
  std::atomic<int> listen_fd_{-1};
  int port_ = 0;

  // Position in the coordinator's worker list (from kHello).
  std::int64_t index_ = 0;
  std::int64_t num_workers_ = 1;

  // The resident graph, its reverse (directed graphs only: PageRank pulls
  // over in-edges), and the owned block [begin_, end_).
  bool loaded_ = false;
  CsrGraph graph_;
  CsrGraph reverse_;
  vid begin_ = 0;
  vid end_ = 0;

  // BFS: vertices already proposed during this search (never worth
  // re-proposing — once proposed at level d they are visited by d+1). A
  // bitmap so multi-threaded expansion can mark with set_atomic.
  Bitmap proposed_;
  // Components: mirrored full label array.
  std::vector<vid> labels_;
  // PageRank scratch buffers.
  std::vector<double> contrib_;
  std::vector<double> next_;
  std::vector<std::int64_t> scratch_i64_;
  WorkQueue wq_;  ///< row scheduler for PageRank
  // Betweenness: the per-source engine over graph_ (built on the first
  // kBcRun after a load) and the reply's dependency vector.
  std::unique_ptr<BcSourceEngine> bc_;
  std::vector<double> delta_;
};

}  // namespace graphct::dist
