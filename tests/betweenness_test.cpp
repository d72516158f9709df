#include "core/betweenness.hpp"

#include <gtest/gtest.h>

#include <set>

#include "algs/ranking.hpp"
#include "gen/random_graphs.hpp"
#include "gen/rmat.hpp"
#include "gen/shapes.hpp"
#include "graph/builder.hpp"
#include "test_support.hpp"
#include "twitter/corpus_gen.hpp"
#include "twitter/mention_graph.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace graphct {
namespace {

using testing::make_directed;
using testing::make_undirected;
using testing::reference_betweenness;

void expect_scores_near(const std::vector<double>& got,
                        const std::vector<double>& want, double tol = 1e-9) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], tol) << "vertex " << i;
  }
}

TEST(BetweennessTest, PathAnalytic) {
  // Path 0-1-2-3-4: interior vertex v lies on all pairs crossing it; with
  // directed-pair counting BC(v) = 2*(v+1-0)*(n-1-v) for interior vertices
  // counting ordered pairs (left x right): v=1: 2*2*3=12? Careful: pairs
  // strictly through v: left={0..v-1} (v choices... vertex count v... )
  const auto g = path_graph(5);
  const auto r = betweenness_centrality(g);
  // v=1: pairs {0}x{2,3,4} -> 3 ordered both ways = 6.
  // v=2: {0,1}x{3,4} -> 4 pairs -> 8. v=3: symmetric with v=1.
  expect_scores_near(r.score, {0, 6, 8, 6, 0});
  EXPECT_EQ(r.sources_used, 5);
}

TEST(BetweennessTest, StarAnalytic) {
  const auto g = star_graph(6);  // hub + 5 spokes
  const auto r = betweenness_centrality(g);
  // Hub carries all 5*4 ordered spoke pairs.
  expect_scores_near(r.score, {20, 0, 0, 0, 0, 0});
}

TEST(BetweennessTest, CycleAndCompleteAreFlat) {
  const auto cyc = betweenness_centrality(cycle_graph(7));
  for (std::size_t v = 1; v < 7; ++v) {
    EXPECT_NEAR(cyc.score[v], cyc.score[0], 1e-9);
  }
  const auto comp = betweenness_centrality(complete_graph(5));
  for (double s : comp.score) EXPECT_NEAR(s, 0.0, 1e-12);
}

TEST(BetweennessTest, BarbellBridgeDominates) {
  const auto g = barbell_graph(6);
  const auto r = betweenness_centrality(g);
  const auto top = top_k(std::span<const double>(r.score.data(), r.score.size()), 2);
  const std::set<vid> bridge{5, 6};
  EXPECT_TRUE(bridge.count(top[0]));
  EXPECT_TRUE(bridge.count(top[1]));
}

TEST(BetweennessTest, DisconnectedComponentsIndependent) {
  // Two paths; scores must match two independent path computations.
  const auto g = make_undirected(6, {{0, 1}, {1, 2}, {3, 4}, {4, 5}});
  const auto r = betweenness_centrality(g);
  expect_scores_near(r.score, {0, 2, 0, 0, 2, 0});
}

TEST(BetweennessTest, SelfLoopIgnored) {
  const auto with = betweenness_centrality(
      make_undirected(3, {{0, 1}, {1, 2}, {1, 1}}));
  const auto without =
      betweenness_centrality(make_undirected(3, {{0, 1}, {1, 2}}));
  expect_scores_near(with.score, without.score);
}

TEST(BetweennessTest, DirectedThrows) {
  const auto g = make_directed(3, {{0, 1}});
  EXPECT_THROW(betweenness_centrality(g), Error);
}

TEST(BetweennessTest, FineAndCoarseAgree) {
  const auto g = erdos_renyi(120, 500, 3);
  BetweennessOptions coarse;
  BetweennessOptions fine;
  fine.parallelism = BcParallelism::kFine;
  expect_scores_near(betweenness_centrality(g, coarse).score,
                     betweenness_centrality(g, fine).score, 1e-7);
}

TEST(BetweennessTest, AutoAgreesWithFineAndCoarse) {
  const auto g = erdos_renyi(120, 500, 3);
  BetweennessOptions coarse;
  BetweennessOptions fine;
  fine.parallelism = BcParallelism::kFine;
  BetweennessOptions aut;
  aut.parallelism = BcParallelism::kAuto;
  const auto rc = betweenness_centrality(g, coarse);
  const auto rf = betweenness_centrality(g, fine);
  const auto ra = betweenness_centrality(g, aut);
  expect_scores_near(ra.score, rc.score, 1e-7);
  expect_scores_near(ra.score, rf.score, 1e-7);
}

TEST(BetweennessTest, AutoTinyBudgetBatchesAndStaysUnderBudget) {
  // n = 200 so one score buffer is 1600 bytes. A 4000-byte budget affords
  // two buffers -> team <= 2, batches of <= 16 sources; 64 sources must run
  // in at least 4 batches while peak buffer memory stays under the budget.
  const auto g = erdos_renyi(200, 800, 21);
  BetweennessOptions o;
  o.parallelism = BcParallelism::kAuto;
  o.num_sources = 64;
  o.seed = 5;
  o.score_memory_budget_bytes = 4000;
  const auto r = betweenness_centrality(g, o);
  EXPECT_EQ(r.parallelism_used, BcParallelism::kCoarse);
  EXPECT_GE(r.batches, 2);
  EXPECT_GT(r.peak_buffer_bytes, 0u);
  EXPECT_LE(r.peak_buffer_bytes, o.score_memory_budget_bytes);

  // Batched execution must not change the scores.
  BetweennessOptions one_batch = o;
  one_batch.parallelism = BcParallelism::kCoarse;
  expect_scores_near(r.score, betweenness_centrality(g, one_batch).score,
                     1e-7);
}

TEST(BetweennessTest, AutoFallsBackToFineWhenBudgetTooSmall) {
  const auto g = erdos_renyi(100, 300, 9);
  BetweennessOptions o;
  o.parallelism = BcParallelism::kAuto;
  o.score_memory_budget_bytes = 100;  // cannot fit even one 800-byte buffer
  const auto r = betweenness_centrality(g, o);
  EXPECT_EQ(r.parallelism_used, BcParallelism::kFine);
  EXPECT_EQ(r.batches, 0);
  expect_scores_near(r.score, betweenness_centrality(g).score, 1e-7);
}

TEST(BcPlanTest, BudgetArithmetic) {
  BetweennessOptions o;
  o.parallelism = BcParallelism::kAuto;

  // Budget affords 2 buffers for n=200 (1600 B each): team = 2,
  // batches of 16 over 64 sources = 4 batches.
  o.score_memory_budget_bytes = 4000;
  const auto p = plan_betweenness(/*n=*/200, /*num_sources=*/64,
                                  /*threads=*/8, o);
  EXPECT_EQ(p.mode, BcParallelism::kCoarse);
  EXPECT_EQ(p.team, 2);
  EXPECT_EQ(p.batch_sources, 16);
  EXPECT_EQ(p.num_batches, 4);
  EXPECT_LE(p.buffer_bytes, o.score_memory_budget_bytes);

  // Plenty of budget: team capped by threads, sources in one batch when few.
  o.score_memory_budget_bytes = std::uint64_t{1} << 30;
  const auto wide = plan_betweenness(200, 10, 4, o);
  EXPECT_EQ(wide.mode, BcParallelism::kCoarse);
  EXPECT_LE(wide.team, 4);
  EXPECT_EQ(wide.num_batches, 1);

  // Budget below one buffer: fine fallback.
  o.score_memory_budget_bytes = 100;
  EXPECT_EQ(plan_betweenness(200, 64, 8, o).mode, BcParallelism::kFine);

  // Explicit modes pass through regardless of budget.
  o.parallelism = BcParallelism::kCoarse;
  EXPECT_EQ(plan_betweenness(200, 64, 8, o).mode, BcParallelism::kCoarse);
  o.parallelism = BcParallelism::kFine;
  EXPECT_EQ(plan_betweenness(200, 64, 8, o).mode, BcParallelism::kFine);
}

TEST(BetweennessTest, SampledSubsetOfSourcesUnderestimates) {
  const auto g = erdos_renyi(150, 600, 5);
  BetweennessOptions o;
  o.num_sources = 30;
  o.seed = 9;
  const auto approx = betweenness_centrality(g, o);
  const auto exact = betweenness_centrality(g);
  EXPECT_EQ(approx.sources_used, 30);
  for (std::size_t v = 0; v < approx.score.size(); ++v) {
    EXPECT_LE(approx.score[v], exact.score[v] + 1e-9);
  }
}

TEST(BetweennessTest, RescaleMatchesMagnitudeInExpectation) {
  const auto g = erdos_renyi(200, 1000, 7);
  const auto exact = betweenness_centrality(g);
  BetweennessOptions o;
  o.num_sources = 100;
  o.rescale = true;
  o.seed = 3;
  const auto approx = betweenness_centrality(g, o);
  double sum_exact = 0, sum_approx = 0;
  for (std::size_t v = 0; v < exact.score.size(); ++v) {
    sum_exact += exact.score[v];
    sum_approx += approx.score[v];
  }
  EXPECT_NEAR(sum_approx / sum_exact, 1.0, 0.25);
}

TEST(BetweennessTest, SampleFractionOverridesNumSources) {
  const auto g = erdos_renyi(100, 300, 11);
  BetweennessOptions o;
  o.num_sources = 3;
  o.sample_fraction = 0.25;
  const auto r = betweenness_centrality(g, o);
  EXPECT_EQ(r.sources_used, 25);
}

TEST(BetweennessTest, DeterministicForFixedSeed) {
  const auto g = erdos_renyi(100, 400, 13);
  BetweennessOptions o;
  o.num_sources = 20;
  o.seed = 77;
  const auto a = betweenness_centrality(g, o);
  const auto b = betweenness_centrality(g, o);
  expect_scores_near(a.score, b.score, 0.0);
}

TEST(ChooseSourcesTest, ExactUsesAllVertices) {
  const auto g = path_graph(7);
  BetweennessOptions o;
  const auto s = choose_sources(g, o);
  EXPECT_EQ(s.size(), 7u);
}

TEST(ChooseSourcesTest, UniformSampleSizeAndRange) {
  const auto g = erdos_renyi(500, 1000, 17);
  BetweennessOptions o;
  o.num_sources = 50;
  const auto s = choose_sources(g, o);
  EXPECT_EQ(s.size(), 50u);
  std::set<vid> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 50u);
}

TEST(ChooseSourcesTest, ComponentAwareCoversEveryComponent) {
  // Five components; uniform sampling of 5 sources will often miss some,
  // but component-aware sampling must hit all five.
  EdgeList el(50);
  for (vid c = 0; c < 5; ++c) {
    const vid base = c * 10;
    for (vid i = 0; i < 9; ++i) el.add(base + i, base + i + 1);
  }
  const auto g = build_csr(el);
  BetweennessOptions o;
  o.num_sources = 5;
  o.sampling = BcSampling::kComponentAware;
  o.seed = 3;
  const auto sources = choose_sources(g, o);
  ASSERT_EQ(sources.size(), 5u);
  std::set<vid> comps;
  for (vid s : sources) comps.insert(s / 10);
  EXPECT_EQ(comps.size(), 5u);
}

TEST(ChooseSourcesTest, InvalidArgumentsThrow) {
  const auto g = path_graph(5);
  BetweennessOptions o;
  o.num_sources = 0;
  EXPECT_THROW(choose_sources(g, o), Error);
  o.num_sources = kNoVertex;
  o.sample_fraction = 1.5;
  EXPECT_THROW(choose_sources(g, o), Error);
}

TEST(BetweennessTest, EmptyGraph) {
  CsrGraph g;
  const auto r = betweenness_centrality(g);
  EXPECT_TRUE(r.score.empty());
  EXPECT_EQ(r.sources_used, 0);
}

// ---- Forward-engine parity ----
//
// The hybrid direction-optimizing sweep and the pure top-down sweep both
// pull sigma in adjacency order over identical predecessor sets, and the
// backward sweep is shared, so on undirected graphs the two engines must
// produce BIT-IDENTICAL scores — compared with EXPECT_EQ, not a tolerance.

std::vector<double> run_forward_engine(const CsrGraph& g, BcForwardEngine e,
                                       BcParallelism mode,
                                       std::int64_t num_sources = kNoVertex) {
  BetweennessOptions o;
  o.forward = e;
  o.parallelism = mode;
  o.num_sources = num_sources;
  o.seed = 7;
  auto r = betweenness_centrality(g, o);
  EXPECT_EQ(r.forward_used, e == BcForwardEngine::kAuto
                                ? BcForwardEngine::kHybrid
                                : e);
  return r.score;
}

void expect_scores_bitwise_equal(const std::vector<double>& a,
                                 const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "vertex " << i;
  }
}

// Two components: a 6-path and a 5-clique with a pendant, so the hybrid
// heuristic sees both a high-diameter sparse piece and a dense piece, and
// unreached-vertex handling (stale sigma entries) is exercised.
CsrGraph two_component_graph() {
  return make_undirected(13, {{0, 1},
                              {1, 2},
                              {2, 3},
                              {3, 4},
                              {4, 5},
                              {6, 7},
                              {6, 8},
                              {6, 9},
                              {7, 8},
                              {7, 9},
                              {8, 9},
                              {9, 10},
                              {10, 11},
                              {10, 12}});
}

TEST(BcForwardEngineTest, HybridMatchesTopDownBitExactOnShapes) {
  const CsrGraph graphs[] = {star_graph(64), path_graph(200),
                             two_component_graph()};
  for (const auto& g : graphs) {
    for (auto mode : {BcParallelism::kCoarse, BcParallelism::kFine}) {
      expect_scores_bitwise_equal(
          run_forward_engine(g, BcForwardEngine::kHybrid, mode),
          run_forward_engine(g, BcForwardEngine::kTopDown, mode));
    }
  }
}

TEST(BcForwardEngineTest, HybridMatchesTopDownBitExactOnRmat) {
  RmatOptions r;
  r.scale = 11;
  r.edge_factor = 16;
  r.seed = 3;
  const auto g = rmat_graph(r);  // low diameter: bottom-up levels engage
  for (auto mode : {BcParallelism::kCoarse, BcParallelism::kFine}) {
    expect_scores_bitwise_equal(
        run_forward_engine(g, BcForwardEngine::kHybrid, mode, 128),
        run_forward_engine(g, BcForwardEngine::kTopDown, mode, 128));
  }
}

TEST(BcForwardEngineTest, AutoResolvesToHybridOnUndirected) {
  const auto g = star_graph(16);
  BetweennessOptions o;  // forward defaults to kAuto
  const auto r = betweenness_centrality(g, o);
  EXPECT_EQ(r.forward_used, BcForwardEngine::kHybrid);
}

TEST(BcForwardEngineTest, DirectedFallsBackToTopDown) {
  RmatOptions ro;
  ro.scale = 11;
  ro.edge_factor = 8;
  ro.seed = 4;
  BuildOptions bo;
  bo.symmetrize = false;
  const auto g = build_csr(rmat_edges(ro), bo);
  ASSERT_TRUE(g.directed());

  BetweennessOptions o;
  o.num_sources = 64;
  o.seed = 7;
  const auto auto_run = directed_betweenness_centrality(g, o);
  EXPECT_EQ(auto_run.forward_used, BcForwardEngine::kTopDown);

  BetweennessOptions td = o;
  td.forward = BcForwardEngine::kTopDown;
  expect_scores_bitwise_equal(auto_run.score,
                              directed_betweenness_centrality(g, td).score);

  BetweennessOptions hy = o;
  hy.forward = BcForwardEngine::kHybrid;
  EXPECT_THROW(directed_betweenness_centrality(g, hy), Error);
}

TEST(BcForwardEngineTest, CoarseModeMatchesAcrossThreadCounts) {
  // Coarse workers run the full sweep machinery from inside a parallel
  // region, where nested utilities (level compaction's prefix scan, the
  // work-stealing scheduler's in-parallel guard) take their serial paths.
  // Regression: exclusive_scan once returned a stale 0 total for nested
  // callers, truncating every BFS level to empty — coarse multi-thread
  // runs silently produced all-zero scores while every threads=1 and
  // fine-mode test stayed green. Scores reassociate across the per-thread
  // buffers (dynamic source assignment), hence near, not bitwise.
  RmatOptions ro;
  ro.scale = 10;
  ro.edge_factor = 16;
  ro.seed = 9;
  const auto g = rmat_graph(ro);
  BetweennessOptions o;
  o.num_sources = 96;
  o.seed = 5;
  o.parallelism = BcParallelism::kCoarse;
  set_num_threads(1);
  const auto base = betweenness_centrality(g, o);
  double sum = 0.0;
  for (const double s : base.score) sum += s;
  EXPECT_GT(sum, 0.0);
  for (int t : {2, 8}) {
    set_num_threads(t);
    const auto got = betweenness_centrality(g, o);
    set_num_threads(0);
    expect_scores_near(got.score, base.score, 1e-7);
  }
  set_num_threads(0);
}

TEST(BcForwardEngineTest, FineModeBitIdenticalAcrossThreadCounts) {
  // Fine mode has no atomic accumulations left: sigma is pulled and the
  // backward coefficient sums run in adjacency order, so scores must be
  // bit-identical for any thread count, hybrid and top-down alike.
  RmatOptions ro;
  ro.scale = 10;
  ro.edge_factor = 16;
  ro.seed = 9;
  const auto g = rmat_graph(ro);
  for (auto engine : {BcForwardEngine::kHybrid, BcForwardEngine::kTopDown}) {
    set_num_threads(1);
    const auto base =
        run_forward_engine(g, engine, BcParallelism::kFine, 96);
    for (int t : {2, 8}) {
      set_num_threads(t);
      const auto got =
          run_forward_engine(g, engine, BcParallelism::kFine, 96);
      set_num_threads(0);
      expect_scores_bitwise_equal(base, got);
    }
  }
  set_num_threads(0);
}

// ---- Locality-ordered BC graph ----
//
// Betweenness runs both sweeps over a BFS-relabeled int32 copy of the
// graph whose rows keep their neighbor order. Row order, not vertex ids,
// fixes the bits: relabeling the input any other row-order-preserving way
// must give bitwise the same score at each vertex's new id.

/// g relabeled by `to_new` (old id -> new id), each row keeping its
/// neighbor order.
CsrGraph relabel_keeping_row_order(const CsrGraph& g,
                                   const std::vector<vid>& to_new) {
  const vid n = g.num_vertices();
  std::vector<vid> to_old(static_cast<std::size_t>(n));
  for (vid v = 0; v < n; ++v) {
    to_old[static_cast<std::size_t>(to_new[static_cast<std::size_t>(v)])] = v;
  }
  std::vector<eid> offsets{0};
  std::vector<vid> adj;
  for (vid i = 0; i < n; ++i) {
    for (vid u : g.neighbors(to_old[static_cast<std::size_t>(i)])) {
      adj.push_back(to_new[static_cast<std::size_t>(u)]);
    }
    offsets.push_back(static_cast<eid>(adj.size()));
  }
  return CsrGraph(std::move(offsets), std::move(adj), g.directed(),
                  g.num_self_loops(), /*sorted_adjacency=*/false);
}

/// A random permutation of [0, n) that maps every vertex of `fixed` to
/// itself.
std::vector<vid> random_relabel(vid n, std::uint64_t seed,
                                const std::vector<vid>& fixed = {}) {
  std::vector<char> pinned(static_cast<std::size_t>(n), 0);
  for (vid v : fixed) pinned[static_cast<std::size_t>(v)] = 1;
  std::vector<vid> movable;
  for (vid v = 0; v < n; ++v) {
    if (!pinned[static_cast<std::size_t>(v)]) movable.push_back(v);
  }
  std::vector<vid> shuffled = movable;
  Rng rng(seed);
  rng.shuffle(shuffled);
  std::vector<vid> to_new(static_cast<std::size_t>(n));
  for (vid v = 0; v < n; ++v) to_new[static_cast<std::size_t>(v)] = v;
  for (std::size_t i = 0; i < movable.size(); ++i) {
    to_new[static_cast<std::size_t>(movable[i])] = shuffled[i];
  }
  return to_new;
}

void expect_bitwise_equal_after_relabel(const std::vector<double>& orig,
                                        const std::vector<double>& relabeled,
                                        const std::vector<vid>& to_new) {
  ASSERT_EQ(orig.size(), relabeled.size());
  for (std::size_t v = 0; v < orig.size(); ++v) {
    ASSERT_EQ(orig[v],
              relabeled[static_cast<std::size_t>(to_new[v])])
        << "vertex " << v;
  }
}

CsrGraph small_mention_graph() {
  twitter::CorpusOptions co;
  co.user_pool = 3000;
  co.num_tweets = 4000;
  co.seed = 11;
  twitter::MentionGraphBuilder b;
  for (const auto& tw : twitter::generate_corpus(co)) b.add(tw);
  return std::move(b).build().undirected();
}

CsrGraph small_rmat() {
  RmatOptions ro;
  ro.scale = 10;
  ro.edge_factor = 16;
  ro.seed = 13;
  return rmat_graph(ro);
}

// The modes whose scores are bitwise reproducible: fine at any thread
// count, coarse with its single buffer at t=1.
struct BitwiseRun {
  BcParallelism mode;
  int threads;
};
constexpr BitwiseRun kBitwiseRuns[] = {{BcParallelism::kFine, 1},
                                       {BcParallelism::kFine, 4},
                                       {BcParallelism::kCoarse, 1}};

TEST(BcGraphTest, RelabelingTheInputKeepsScoresBitwise) {
  // Sources are chosen on the caller's ids (uniform sampling depends only
  // on n, k and the seed), so the relabel pins them: both runs then add
  // the same per-source terms in the same order, per vertex.
  for (const auto& g : {small_rmat(), small_mention_graph()}) {
    BetweennessOptions o;
    o.num_sources = 64;
    o.seed = 5;
    const auto sources = choose_sources(g, o);
    const auto to_new = random_relabel(g.num_vertices(), 17, sources);
    const auto h = relabel_keeping_row_order(g, to_new);
    ASSERT_EQ(choose_sources(h, o), sources);
    for (const BitwiseRun& run : kBitwiseRuns) {
      o.parallelism = run.mode;
      set_num_threads(run.threads);
      const auto a = betweenness_centrality(g, o);
      const auto b = betweenness_centrality(h, o);
      set_num_threads(0);
      double sum = 0.0;
      for (double x : a.score) sum += x;
      EXPECT_GT(sum, 0.0);
      expect_bitwise_equal_after_relabel(a.score, b.score, to_new);
    }
  }
}

TEST(BcGraphTest, SourceEngineIsBitwiseUnderAnyRelabel) {
  // The per-source engine takes sources and scores in the caller's ids, so
  // a relabel need not pin anything: run the mapped sources in the same
  // order and compare at the mapped ids.
  for (const auto& g : {small_rmat(), small_mention_graph()}) {
    BetweennessOptions o;
    o.num_sources = 48;
    o.seed = 9;
    const auto sources = choose_sources(g, o);
    const auto to_new = random_relabel(g.num_vertices(), 23);
    const auto h = relabel_keeping_row_order(g, to_new);
    for (int t : {1, 4}) {
      set_num_threads(t);
      std::vector<double> a(static_cast<std::size_t>(g.num_vertices()), 0.0);
      std::vector<double> b(a.size(), 0.0);
      BcSourceEngine ea(g, o);
      BcSourceEngine eb(h, o);
      for (vid s : sources) {
        ea.accumulate(s, a);
        eb.accumulate(to_new[static_cast<std::size_t>(s)], b);
      }
      set_num_threads(0);
      expect_bitwise_equal_after_relabel(a, b, to_new);
    }
  }
}

TEST(BcGraphTest, StarHubWithLargestIdScoresAtItsOwnId) {
  // The BC graph roots its BFS order at the highest-degree vertex, so the
  // hub moves from the last id to the first; its score must come back to
  // the caller's id.
  constexpr vid kSpokes = 8;
  EdgeList el(kSpokes + 1);
  for (vid v = 0; v < kSpokes; ++v) el.add(kSpokes, v);
  BuildOptions bo;
  bo.symmetrize = true;
  const auto g = build_csr(el, bo);
  std::vector<double> want(static_cast<std::size_t>(kSpokes) + 1, 0.0);
  want.back() = static_cast<double>(kSpokes * (kSpokes - 1));
  for (auto mode : {BcParallelism::kFine, BcParallelism::kCoarse,
                    BcParallelism::kAuto}) {
    BetweennessOptions o;
    o.parallelism = mode;
    expect_scores_bitwise_equal(betweenness_centrality(g, o).score, want);
  }
  std::vector<double> score(want.size(), 0.0);
  BcSourceEngine engine(g);
  for (vid s = 0; s <= kSpokes; ++s) engine.accumulate(s, score);
  expect_scores_bitwise_equal(score, want);
}

TEST(BcGraphTest, NoCopyBudgetGivesBitwiseTheSameScores) {
  // score_memory_budget_bytes = 0 leaves no room for the BC graph, so both
  // sweeps read the caller's graph directly.
  for (const auto& g : {small_rmat(), small_mention_graph()}) {
    BetweennessOptions with_copy;
    with_copy.num_sources = 64;
    with_copy.seed = 3;
    BetweennessOptions no_copy = with_copy;
    no_copy.score_memory_budget_bytes = 0;
    for (const BitwiseRun& run : kBitwiseRuns) {
      with_copy.parallelism = no_copy.parallelism = run.mode;
      set_num_threads(run.threads);
      const auto a = betweenness_centrality(g, with_copy);
      const auto b = betweenness_centrality(g, no_copy);
      set_num_threads(0);
      expect_scores_bitwise_equal(a.score, b.score);
    }
  }
}

// Property sweep: parallel implementation matches the serial Brandes
// reference exactly (modulo float noise) across random graphs.
class BetweennessPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BetweennessPropertyTest, MatchesSerialBrandes) {
  Rng rng(GetParam());
  const vid n = 10 + static_cast<vid>(rng.next_below(80));
  const auto m = static_cast<std::int64_t>(n * (1 + rng.next_below(4)));
  const auto g = erdos_renyi(n, m, GetParam() * 101 + 13);
  const auto expect = reference_betweenness(g);
  const auto got = betweenness_centrality(g);
  expect_scores_near(got.score, expect, 1e-7);
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, BetweennessPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 25));

}  // namespace
}  // namespace graphct
