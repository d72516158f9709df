/// Tests for the dist substrate: partitioning invariants, distributed
/// kernel parity against the single-process kernels, and worker-failure
/// semantics (explicit error, no wedge, graph stays serviceable).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "algs/bfs.hpp"
#include "algs/connected_components.hpp"
#include "algs/pagerank.hpp"
#include "core/betweenness.hpp"
#include "core/toolkit.hpp"
#include "dist/coordinator.hpp"
#include "dist/local_worker_set.hpp"
#include "dist/partition.hpp"
#include "dist/wire.hpp"
#include "gen/rmat.hpp"
#include "test_support.hpp"
#include "util/error.hpp"

namespace graphct::dist {
namespace {

using testing::make_directed;
using testing::make_undirected;

CsrGraph test_rmat(std::int64_t scale, bool directed) {
  RmatOptions opts;
  opts.scale = scale;
  opts.edge_factor = 8;
  opts.seed = directed ? 7 : 11;
  CsrGraph g = rmat_graph(opts);
  if (!directed) g = to_undirected(g);
  return g;
}

/// Spin up `n` in-process workers, connect a coordinator, load `g`, and
/// hand the coordinator to `body`. Teardown is exercised on every path.
template <typename Body>
void with_coordinator(const CsrGraph& g, int n, Body&& body) {
  LocalWorkerSetOptions wopts;
  wopts.num_workers = n;
  LocalWorkerSet workers(wopts);
  Coordinator coord;
  coord.connect(workers.ports());
  coord.load_graph(g);
  body(coord);
  coord.shutdown();
}

// --------------------------------------------------------------- partition

TEST(PartitionTest, BlocksAreContiguousAndCoverEveryVertex) {
  const CsrGraph g = test_rmat(9, true);
  for (const int n : {1, 2, 3, 4, 7}) {
    const Partition p = partition_graph(g, n);
    ASSERT_EQ(p.num_blocks(), n);
    EXPECT_EQ(p.num_vertices, g.num_vertices());
    EXPECT_EQ(p.total_entries, g.num_adjacency_entries());
    vid expect_begin = 0;
    eid entries = 0;
    for (const BlockInfo& b : p.blocks) {
      EXPECT_EQ(b.begin, expect_begin);
      EXPECT_LE(b.begin, b.end);
      EXPECT_LE(b.cut_entries, b.entries);
      expect_begin = b.end;
      entries += b.entries;
    }
    EXPECT_EQ(expect_begin, g.num_vertices());
    EXPECT_EQ(entries, g.num_adjacency_entries());
  }
}

TEST(PartitionTest, OwnerAgreesWithBlockRanges) {
  const CsrGraph g = test_rmat(8, false);
  const Partition p = partition_graph(g, 4);
  for (vid v = 0; v < g.num_vertices(); ++v) {
    const int o = p.owner(v);
    ASSERT_GE(o, 0);
    ASSERT_LT(o, p.num_blocks());
    EXPECT_GE(v, p.blocks[static_cast<std::size_t>(o)].begin);
    EXPECT_LT(v, p.blocks[static_cast<std::size_t>(o)].end);
  }
}

TEST(PartitionTest, SingleBlockHasNoCut) {
  const CsrGraph g = test_rmat(8, true);
  const Partition p = partition_graph(g, 1);
  EXPECT_EQ(p.blocks[0].cut_entries, 0);
  EXPECT_DOUBLE_EQ(p.edge_cut_fraction(), 0.0);
  EXPECT_DOUBLE_EQ(p.imbalance(), 1.0);
}

TEST(PartitionTest, CutMatchesBruteForceCount) {
  const CsrGraph g = make_undirected(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4},
                                         {4, 5}, {0, 5}, {1, 4}});
  const Partition p = partition_graph(g, 2);
  const auto offsets = g.offsets();
  const auto adjacency = g.adjacency();
  eid expect_cut = 0;
  for (const BlockInfo& b : p.blocks) {
    eid cut = 0;
    for (eid e = offsets[static_cast<std::size_t>(b.begin)];
         e < offsets[static_cast<std::size_t>(b.end)]; ++e) {
      const vid t = adjacency[static_cast<std::size_t>(e)];
      if (t < b.begin || t >= b.end) ++cut;
    }
    EXPECT_EQ(b.cut_entries, cut);
    expect_cut += cut;
  }
  EXPECT_DOUBLE_EQ(p.edge_cut_fraction(),
                   static_cast<double>(expect_cut) /
                       static_cast<double>(g.num_adjacency_entries()));
}

TEST(PartitionTest, MoreBlocksThanVerticesYieldsEmptyBlocks) {
  const CsrGraph g = make_undirected(3, {{0, 1}, {1, 2}});
  const Partition p = partition_graph(g, 8);
  ASSERT_EQ(p.num_blocks(), 8);
  vid covered = 0;
  int empty = 0;
  for (const BlockInfo& b : p.blocks) {
    covered += b.num_vertices();
    if (b.num_vertices() == 0) ++empty;
  }
  EXPECT_EQ(covered, 3);
  EXPECT_GE(empty, 5);  // only 3 vertices exist; empty blocks are legal
  EXPECT_GE(p.imbalance(), 1.0);
}

TEST(PartitionTest, RejectsNonPositiveBlockCount) {
  const CsrGraph g = make_undirected(2, {{0, 1}});
  EXPECT_THROW(partition_graph(g, 0), Error);
  EXPECT_THROW(partition_graph(g, -3), Error);
}

TEST(PartitionTest, EdgeBalanceBeatsNaiveVertexSplitOnSkew) {
  // A star: vertex 0 owns half of all entries. An edge-balanced 2-way
  // split must isolate the hub rather than cutting vertices in half.
  EdgeList el(64);
  for (vid v = 1; v < 64; ++v) el.add(0, v);
  BuildOptions b;
  b.symmetrize = true;
  const CsrGraph g = build_csr(el, b);
  const Partition p = partition_graph(g, 2);
  EXPECT_LT(p.blocks[0].num_vertices(), 32);
  EXPECT_LE(p.imbalance(), 1.5);
}

// ------------------------------------------------------------------ parity

void expect_bfs_parity(const CsrGraph& g, int workers, vid source) {
  const auto expect = bfs(g, source).distance;
  with_coordinator(g, workers, [&](Coordinator& c) {
    const auto got = c.bfs_distances(source);
    ASSERT_EQ(got.size(), expect.size());
    EXPECT_EQ(got, expect) << "bfs parity failed, workers=" << workers;
  });
}

void expect_cc_parity(const CsrGraph& g, int workers) {
  const auto expect = weak_components(g);
  with_coordinator(g, workers, [&](Coordinator& c) {
    const auto got = c.components();
    ASSERT_EQ(got.size(), expect.size());
    EXPECT_EQ(got, expect) << "cc parity failed, workers=" << workers;
  });
}

void expect_pr_parity(const CsrGraph& g, int workers) {
  const auto expect = pagerank(g);
  with_coordinator(g, workers, [&](Coordinator& c) {
    const auto got = c.pagerank();
    ASSERT_EQ(got.score.size(), expect.score.size());
    EXPECT_EQ(got.iterations, expect.iterations);
    EXPECT_EQ(got.converged, expect.converged);
    double max_abs = 0.0;
    for (std::size_t i = 0; i < got.score.size(); ++i) {
      max_abs = std::max(max_abs, std::fabs(got.score[i] - expect.score[i]));
    }
    // Identical adjacency-order accumulation; only the dangling-mass
    // reduction order differs from the OpenMP single-process kernel.
    EXPECT_LE(max_abs, 1e-12) << "pr parity failed, workers=" << workers;
  });
}

TEST(DistParityTest, BfsMatchesSingleProcessUndirected) {
  const CsrGraph g = test_rmat(11, false);
  for (const int w : {1, 2, 4}) expect_bfs_parity(g, w, 0);
}

TEST(DistParityTest, BfsMatchesSingleProcessDirected) {
  const CsrGraph g = test_rmat(11, true);
  for (const int w : {1, 2, 4}) expect_bfs_parity(g, w, 1);
}

TEST(DistParityTest, BoundedBfsHonorsMaxDepth) {
  const CsrGraph g = test_rmat(10, false);
  BfsOptions opts;
  opts.max_depth = 2;
  const auto expect = bfs(g, 0, opts).distance;
  with_coordinator(g, 3, [&](Coordinator& c) {
    EXPECT_EQ(c.bfs_distances(0, 2), expect);
  });
}

TEST(DistParityTest, ComponentsMatchSingleProcessUndirected) {
  const CsrGraph g = test_rmat(11, false);
  for (const int w : {1, 2, 4}) expect_cc_parity(g, w);
}

TEST(DistParityTest, ComponentsMatchSingleProcessDirected) {
  // Weak components: a directed arc still merges its endpoints.
  const CsrGraph g = test_rmat(11, true);
  for (const int w : {1, 2, 4}) expect_cc_parity(g, w);
}

TEST(DistParityTest, PageRankMatchesSingleProcessUndirected) {
  const CsrGraph g = test_rmat(11, false);
  for (const int w : {1, 2, 4}) expect_pr_parity(g, w);
}

TEST(DistParityTest, PageRankMatchesSingleProcessDirected) {
  const CsrGraph g = test_rmat(11, true);
  for (const int w : {1, 2, 4}) expect_pr_parity(g, w);
}

TEST(DistParityTest, DisconnectedSourcesAndIsolatedVertices) {
  const CsrGraph g =
      make_undirected(9, {{0, 1}, {1, 2}, {4, 5}, {5, 6}});  // 3,7,8 isolated
  with_coordinator(g, 4, [&](Coordinator& c) {
    EXPECT_EQ(c.bfs_distances(4), testing::reference_bfs_distances(g, 4));
    EXPECT_EQ(c.components(), weak_components(g));
  });
}

TEST(DistParityTest, KernelsAreRerunnableOnOneCoordinator) {
  const CsrGraph g = test_rmat(10, false);
  with_coordinator(g, 2, [&](Coordinator& c) {
    const auto d0 = c.bfs_distances(0);
    EXPECT_EQ(c.bfs_distances(0), d0);  // state fully reset between runs
    const auto cc = c.components();
    EXPECT_EQ(c.components(), cc);
    EXPECT_EQ(c.bfs_distances(7), bfs(g, 7).distance);
  });
}

TEST(DistParityTest, ReloadingADifferentGraphWorks) {
  const CsrGraph a = test_rmat(9, false);
  const CsrGraph b = test_rmat(10, true);
  with_coordinator(a, 2, [&](Coordinator& c) {
    EXPECT_EQ(c.components(), weak_components(a));
    c.load_graph(b);
    EXPECT_EQ(c.components(), weak_components(b));
    EXPECT_EQ(c.bfs_distances(0), bfs(b, 0).distance);
  });
}

TEST(DistParityTest, StatsCountTrafficAndSteps) {
  const CsrGraph g = test_rmat(9, false);
  with_coordinator(g, 2, [&](Coordinator& c) {
    const DistStats before = c.stats();
    EXPECT_GT(before.messages_sent, 0);  // hello + load traffic
    c.bfs_distances(0);
    const DistStats& k = c.last_kernel_stats();
    EXPECT_GT(k.steps, 0);
    EXPECT_GT(k.messages_sent, 0);
    EXPECT_GT(k.bytes_received, 0);
    const DistStats after = c.stats();
    EXPECT_GE(after.messages_sent, before.messages_sent + k.messages_sent);
    EXPECT_EQ(after.steps, k.steps);
  });
}

// -------------------------------------------------------------------- wire

TEST(WireTest, Int32ArraysRoundTripThroughI64) {
  const std::vector<std::int64_t> values{
      0, 1, -1, 42, std::numeric_limits<std::int32_t>::max(),
      std::numeric_limits<std::int32_t>::min()};
  WireWriter w;
  w.i32_span(values);
  w.u8(7);
  const std::string payload = w.take();
  EXPECT_EQ(payload.size(), 8 + 4 * values.size() + 1);
  WireReader r(payload);
  std::vector<std::int64_t> back;
  r.i32_vec(back);
  EXPECT_EQ(back, values);
  EXPECT_EQ(r.u8(), 7);
  EXPECT_TRUE(r.done());
}

TEST(WireTest, TruncatedInt32ArrayThrows) {
  WireWriter w;
  w.i32_span(std::vector<std::int64_t>{1, 2, 3});
  const std::string payload = w.take();
  const std::string cut = payload.substr(0, payload.size() - 1);
  WireReader r(cut);
  std::vector<std::int64_t> back;
  EXPECT_THROW(r.i32_vec(back), Error);
}

// ------------------------------------------------------------- betweenness

/// Single-process fine-mode reference over the same source list the dist
/// engine will run — the contract is bit-identical scores.
std::vector<double> reference_bc(const CsrGraph& g,
                                 const BetweennessOptions& opts,
                                 std::vector<vid>* sources_out = nullptr) {
  const GraphView v(g);
  if (sources_out) *sources_out = choose_sources(v, opts);
  BetweennessOptions fine = opts;
  fine.parallelism = BcParallelism::kFine;
  return betweenness_centrality(v, fine).score;
}

void expect_bc_bit_parity(const CsrGraph& g, int workers, bool fork_mode,
                          int worker_threads, std::int64_t num_sources = 24) {
  BetweennessOptions opts;
  opts.num_sources = num_sources;
  opts.seed = 5;
  std::vector<vid> sources;
  const std::vector<double> expect = reference_bc(g, opts, &sources);
  LocalWorkerSetOptions wopts;
  wopts.num_workers = workers;
  wopts.fork_mode = fork_mode;
  wopts.threads = worker_threads;
  LocalWorkerSet set(wopts);
  Coordinator coord;
  coord.connect(set.ports());
  coord.load_graph(g);
  const std::vector<double> got = coord.betweenness(sources);
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    // Bitwise, not approximate: workers run fine mode's per-source engine
    // and the coordinator adds the vectors in fine mode's source order.
    ASSERT_EQ(got[i], expect[i])
        << "bc score diverged at vertex " << i << " (workers=" << workers
        << " fork=" << fork_mode << " threads=" << worker_threads << ")";
  }
  coord.shutdown();
}

TEST(DistBcTest, BitIdenticalToFineModeAcrossWorkerCounts) {
  const CsrGraph g = test_rmat(10, false);
  for (const int w : {1, 2, 4}) {
    expect_bc_bit_parity(g, w, /*fork_mode=*/false, /*worker_threads=*/1);
  }
}

TEST(DistBcTest, BitIdenticalInForkMode) {
  const CsrGraph g = test_rmat(10, false);
  for (const int w : {1, 2, 4}) {
    expect_bc_bit_parity(g, w, /*fork_mode=*/true, /*worker_threads=*/1);
  }
}

TEST(DistBcTest, BitIdenticalWithMultithreadedWorkers) {
  const CsrGraph g = test_rmat(10, false);
  expect_bc_bit_parity(g, 2, /*fork_mode=*/false, /*worker_threads=*/2);
  expect_bc_bit_parity(g, 2, /*fork_mode=*/true, /*worker_threads=*/2);
}

TEST(DistBcTest, FewerSourcesThanWorkers) {
  // Two sources across four workers: two workers get no request at all,
  // and the scores still match fine mode bit for bit.
  const CsrGraph g = test_rmat(9, false);
  expect_bc_bit_parity(g, 4, /*fork_mode=*/false, /*worker_threads=*/1,
                       /*num_sources=*/2);
}

TEST(DistBcTest, LockstepExchangeMatchesOverlapped) {
  // Overlapped pipelines several source requests per worker; lockstep
  // keeps one in flight. Replies arrive at different times relative to
  // each other, and the scores must not care.
  const CsrGraph g = test_rmat(9, false);
  BetweennessOptions opts;
  opts.num_sources = 40;
  std::vector<vid> sources;
  const std::vector<double> expect = reference_bc(g, opts, &sources);
  with_coordinator(g, 3, [&](Coordinator& c) {
    ASSERT_TRUE(c.overlap());
    const auto overlapped = c.betweenness(sources);
    const DistStats pipelined = c.last_kernel_stats();
    c.set_overlap(false);
    const auto lockstep = c.betweenness(sources);
    const DistStats& one_at_a_time = c.last_kernel_stats();
    c.set_overlap(true);
    EXPECT_EQ(overlapped, expect);
    EXPECT_EQ(lockstep, expect);
    // Same protocol either way: one request and one reply per source.
    EXPECT_EQ(pipelined.steps, 40);
    EXPECT_EQ(pipelined.messages_sent, 40);
    EXPECT_EQ(pipelined.messages_received, 40);
    EXPECT_EQ(one_at_a_time.messages_sent, 40);
    EXPECT_EQ(one_at_a_time.bytes_received, pipelined.bytes_received);
  });
}

TEST(DistBcTest, DisconnectedGraphAndIsolatedSources) {
  const CsrGraph g =
      make_undirected(9, {{0, 1}, {1, 2}, {4, 5}, {5, 6}});  // 3,7,8 isolated
  std::vector<vid> sources(static_cast<std::size_t>(g.num_vertices()));
  for (vid v = 0; v < g.num_vertices(); ++v) {
    sources[static_cast<std::size_t>(v)] = v;
  }
  BetweennessOptions fine;
  fine.parallelism = BcParallelism::kFine;
  const auto expect = betweenness_centrality(GraphView(g), fine).score;
  with_coordinator(g, 4, [&](Coordinator& c) {
    EXPECT_EQ(c.betweenness(sources), expect);
  });
}

TEST(DistBcTest, RejectsDirectedGraphsAndBadSources) {
  const CsrGraph g = make_directed(4, {{0, 1}, {1, 2}, {2, 3}});
  ASSERT_TRUE(g.directed());
  with_coordinator(g, 2, [&](Coordinator& c) {
    EXPECT_THROW(c.betweenness(std::vector<vid>{0}), Error);
  });
  const CsrGraph u = test_rmat(8, false);
  with_coordinator(u, 2, [&](Coordinator& c) {
    EXPECT_THROW(c.betweenness(std::vector<vid>{}), Error);
    EXPECT_THROW(c.betweenness(std::vector<vid>{u.num_vertices()}), Error);
    EXPECT_THROW(c.betweenness(std::vector<vid>{0, -1}), Error);
    // Rejected before any request goes out: the substrate stays healthy.
    EXPECT_FALSE(c.degraded());
    BetweennessOptions fine;
    fine.parallelism = BcParallelism::kFine;
    fine.num_sources = 2;
    fine.seed = 3;
    const auto sources = choose_sources(GraphView(u), fine);
    EXPECT_EQ(c.betweenness(sources),
              betweenness_centrality(GraphView(u), fine).score);
  });
}

// ----------------------------------------------------------------- failure

TEST(DistFailureTest, DeadWorkerCancelsKernelWithExplicitError) {
  const CsrGraph g = test_rmat(10, false);
  LocalWorkerSetOptions wopts;
  wopts.num_workers = 3;
  wopts.fail_worker = 1;
  wopts.fail_after = 4;  // dies mid-kernel, after handshake + loads
  LocalWorkerSet workers(wopts);
  Coordinator coord;
  coord.connect(workers.ports());
  coord.load_graph(g);

  try {
    coord.components();
    FAIL() << "expected the kernel to be cancelled by the dead worker";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("worker 1"), std::string::npos) << what;
    EXPECT_NE(what.find("job cancelled"), std::string::npos) << what;
  }
  EXPECT_TRUE(coord.degraded());

  // No wedge: later kernel calls fail fast with the stored reason instead
  // of touching dead sockets.
  try {
    coord.bfs_distances(0);
    FAIL() << "expected degraded coordinator to fail fast";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("degraded"), std::string::npos);
  }

  // The graph itself stays fully serviceable through single-process runs.
  EXPECT_EQ(weak_components(g).size(),
            static_cast<std::size_t>(g.num_vertices()));
  coord.shutdown();  // must not throw or hang on a degraded substrate
}

/// Run `sources` on 3 workers whose worker `fail_worker` dies after
/// `fail_after` received messages, and check the whole failure contract:
/// an explicit error naming the worker and the bc job, a degraded
/// coordinator that fails fast, and an intact single-process path.
void expect_bc_worker_death(const CsrGraph& g,
                            const std::vector<vid>& sources, int fail_worker,
                            std::int64_t fail_after) {
  LocalWorkerSetOptions wopts;
  wopts.num_workers = 3;
  wopts.fail_worker = fail_worker;
  wopts.fail_after = fail_after;
  LocalWorkerSet workers(wopts);
  Coordinator coord;
  coord.connect(workers.ports());
  coord.load_graph(g);
  try {
    coord.betweenness(sources);
    FAIL() << "expected the bc job to be cancelled by the dead worker";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("worker " + std::to_string(fail_worker)),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("bc"), std::string::npos) << what;
    EXPECT_NE(what.find("job cancelled"), std::string::npos) << what;
  }
  EXPECT_TRUE(coord.degraded());
  try {
    coord.betweenness(sources);
    FAIL() << "expected degraded coordinator to fail fast";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("degraded"), std::string::npos);
  }
  // Single-process betweenness on the same graph is untouched.
  BetweennessOptions fine;
  fine.parallelism = BcParallelism::kFine;
  fine.num_sources = 3;
  EXPECT_EQ(betweenness_centrality(GraphView(g), fine).score.size(),
            static_cast<std::size_t>(g.num_vertices()));
  coord.shutdown();  // must not throw or hang on a degraded substrate
}

TEST(DistFailureTest, DeadWorkerOnBcRequestCancelsExactlyThatJob) {
  // Per-worker receive order: hello, load, then one kBcRun per source.
  // fail_after = 2: worker 1 dies on its first bc request.
  expect_bc_worker_death(test_rmat(9, false), {0, 3, 5}, /*fail_worker=*/1,
                         /*fail_after=*/2);
}

TEST(DistFailureTest, DeadWorkerAfterDeltaRepliesCancelsExactlyThatJob) {
  // Nine sources on three workers: worker 2 runs sources 2, 5 and 8. With
  // fail_after = 2 + k it sends k dependency vectors, then dies on its
  // next request — after the coordinator has added part of the scores.
  const std::vector<vid> sources{0, 3, 5, 7, 11, 13, 17, 19, 23};
  for (const std::int64_t k : {1, 2}) {
    expect_bc_worker_death(test_rmat(9, false), sources, /*fail_worker=*/2,
                           /*fail_after=*/2 + k);
  }
}

TEST(DistFailureTest, DegradedBcRunNeverPoisonsCachedResults) {
  // Worker 0 runs 4 of the 8 sources. fail_after = 2: it dies on its first
  // bc request; fail_after = 5: after three dependency vectors.
  for (const std::int64_t fail_after : {2, 5}) {
    Toolkit tk(test_rmat(9, false));
    BetweennessOptions opts;
    opts.num_sources = 8;
    opts.parallelism = BcParallelism::kFine;
    const std::vector<double> expect = tk.betweenness(opts).score;

    LocalWorkerSetOptions wopts;
    wopts.num_workers = 2;
    wopts.fail_worker = 0;
    wopts.fail_after = fail_after;
    LocalWorkerSet failing(wopts);
    Coordinator coord;
    coord.connect(failing.ports());
    EXPECT_THROW(tk.betweenness_dist(coord, opts), Error);

    // The single-process cache entry is intact, and a fresh healthy worker
    // set computes the dist entry cleanly — bit-identical to fine mode.
    EXPECT_EQ(tk.betweenness(opts).score, expect);
    LocalWorkerSetOptions hopts;
    hopts.num_workers = 2;
    LocalWorkerSet healthy(hopts);
    Coordinator coord2;
    coord2.connect(healthy.ports());
    EXPECT_EQ(tk.betweenness_dist(coord2, opts).score, expect)
        << "fail_after=" << fail_after;
    coord2.shutdown();
  }
}

TEST(DistFailureTest, ConnectToDeadPortFailsExplicitly) {
  Coordinator coord;
  int dead_port;
  {
    // Bind-then-close: the port existed a moment ago and is now free, so
    // connecting to it must fail fast rather than wedge.
    WorkerServer probe;
    dead_port = probe.port();
  }
  EXPECT_THROW(coord.connect({dead_port}), Error);
}

TEST(DistFailureTest, KernelBeforeLoadIsAnError) {
  LocalWorkerSet workers(LocalWorkerSetOptions{.num_workers = 2});
  Coordinator coord;
  coord.connect(workers.ports());
  EXPECT_THROW(coord.components(), Error);
  EXPECT_THROW(coord.bfs_distances(0), Error);
}

TEST(DistFailureTest, BfsRejectsOutOfRangeSource) {
  const CsrGraph g = make_undirected(4, {{0, 1}, {2, 3}});
  with_coordinator(g, 2, [&](Coordinator& c) {
    EXPECT_THROW(c.bfs_distances(-1), Error);
    EXPECT_THROW(c.bfs_distances(4), Error);
  });
}

// --------------------------------------------------------------- fork mode

TEST(DistForkTest, ForkedWorkersMatchSingleProcess) {
  // Genuine multi-process execution: each worker is a fork()ed child.
  const CsrGraph g = test_rmat(10, false);
  LocalWorkerSetOptions wopts;
  wopts.num_workers = 2;
  wopts.fork_mode = true;
  LocalWorkerSet workers(wopts);
  ASSERT_TRUE(workers.fork_mode());
  Coordinator coord;
  coord.connect(workers.ports());
  coord.load_graph(g);
  EXPECT_EQ(coord.components(), weak_components(g));
  EXPECT_EQ(coord.bfs_distances(0), bfs(g, 0).distance);
  coord.shutdown();
  workers.stop();  // children exited on kShutdown; reap must not hang
}

}  // namespace
}  // namespace graphct::dist
