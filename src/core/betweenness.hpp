#pragma once

/// \file betweenness.hpp
/// Betweenness centrality — GraphCT's flagship kernel.
///
/// BC(v) = sum over s != v != t of sigma_st(v) / sigma_st, the fraction of
/// shortest paths passing through v (§II-A). Exact evaluation runs Brandes'
/// dependency accumulation from every source; the massive-graph mode samples
/// a random subset of sources ("Approximating this metric by randomly
/// sampling a small number of source vertices improves the running times",
/// §II-A, after Bader et al. 2007). The paper's headline numbers use 256
/// sampled sources.
///
/// Parallel decomposition mirrors §II-B:
///  * coarse — independent sources run concurrently, each with O(m+n)
///    private storage, per-thread score buffers reduced at the end;
///  * fine — one source at a time, with the BFS, path-count, and dependency
///    sweeps parallel across each level. The dependency sweep pulls over
///    each vertex's own adjacency row, so its writes are per-vertex
///    exclusive and need no atomics, and scores are bitwise equal at any
///    thread count. (On one socket, coarse wins when sources are many; fine
///    is the XMT-style mode and the ablation point.)
///
/// Both sweeps run over a locality-ordered BC graph built once per call:
/// an int32 copy of the adjacency with vertices relabeled in BFS order
/// (undirected graphs; directed ones keep their ids), so a row's neighbors
/// sit close in memory. Sources are chosen on the caller's ids and scores
/// come back in them. Each row keeps its neighbor order, and row order,
/// not vertex ids, fixes the bits of every per-vertex sum
/// (algs/bc_accum.hpp): scores are bitwise those of a sweep over the
/// caller's graph, with or without the copy.
///
/// BcSourceEngine exposes fine mode's per-source pass on its own; the
/// distributed workers (dist/worker.hpp) run their sources through it.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/csr_graph.hpp"
#include "storage/graph_view.hpp"

namespace graphct {

/// How per-source contributions reach the global score array.
enum class BcParallelism {
  kCoarse,  ///< parallel over sources, per-thread buffers
  kFine,    ///< sources serial, level-parallel sweeps (atomic-free)
  kAuto,    ///< memory-bounded coarse: buffer team sized to the score
            ///< memory budget, sources in batches with a parallel tree
            ///< reduction per batch; falls back to kFine when even two
            ///< buffers exceed the budget
};

/// Which forward-sweep engine accumulate_source runs.
enum class BcForwardEngine {
  kAuto,     ///< hybrid on undirected graphs, top-down on directed
  kTopDown,  ///< classic push: BFS + sigma fetch-and-add (exact baseline)
  kHybrid,   ///< fused direction-optimizing sweep (bc_forward_sweep);
             ///< undirected only — the bottom-up pull reads out-neighbors
             ///< as in-neighbors
};

/// How sampled sources are chosen.
enum class BcSampling {
  kUniform,         ///< uniform over all vertices (the paper's scheme)
  kComponentAware,  ///< stratified by component size; addresses the paper's
                    ///< §V conjecture that unguided sampling misses
                    ///< components in disconnected graphs
};

/// Options for betweenness_centrality().
struct BetweennessOptions {
  /// Number of sampled source vertices; kNoVertex (or >= n) = exact BC over
  /// all sources. The paper's massive runs use 256.
  std::int64_t num_sources = kNoVertex;

  /// Alternative sampling spec: fraction of vertices in (0, 1]. Ignored when
  /// negative; overrides num_sources when set (the paper's Figs. 4/5 sample
  /// 10%, 25%, 50% of nodes).
  double sample_fraction = -1.0;

  std::uint64_t seed = 1;
  BcParallelism parallelism = BcParallelism::kCoarse;
  BcSampling sampling = BcSampling::kUniform;

  /// Forward-sweep engine. kAuto picks the hybrid sweep whenever the graph
  /// is undirected; kTopDown forces the push baseline (the ablation point —
  /// scores are bit-identical between the two, see bc_forward_sweep).
  BcForwardEngine forward = BcForwardEngine::kAuto;

  /// Hybrid switch thresholds, forwarded to BcSweepOptions. Negative =
  /// keep the sweep defaults (alpha 28, beta 24).
  double sweep_alpha = -1.0;
  double sweep_beta = -1.0;

  /// Scale sampled scores by n/num_sources so magnitudes estimate exact BC
  /// (rankings are unaffected; off by default to match GraphCT's raw sums).
  bool rescale = false;

  /// kAuto only: cap on the total bytes of per-thread score buffers the
  /// coarse engine may hold live at once (default 1 GiB). The buffer team is
  /// sized to fit (budget / (n * 8) buffers, at most one per thread) and
  /// sources run in batches of 8 x team so each tree reduction amortizes
  /// over several sources. When the budget cannot fit two buffers the engine
  /// falls back to fine-grained mode, whose score memory is O(1) buffers.
  /// In every mode it also gates the BC graph: the int32 copy (4 bytes per
  /// adjacency entry) is built only when it fits; 0 disables it.
  std::uint64_t score_memory_budget_bytes = std::uint64_t{1} << 30;
};

/// Result of a betweenness run.
struct BetweennessResult {
  std::vector<double> score;       ///< per-vertex centrality
  std::int64_t sources_used = 0;   ///< how many sources were accumulated
  double seconds = 0.0;            ///< kernel wall time (excludes setup)

  /// Mode the engine actually ran (kAuto resolves to kCoarse or kFine).
  BcParallelism parallelism_used = BcParallelism::kCoarse;
  std::int64_t batches = 0;             ///< coarse source batches (0 = fine)
  std::uint64_t peak_buffer_bytes = 0;  ///< high-water score-buffer memory

  /// Forward engine actually run (kAuto resolves per graph direction).
  BcForwardEngine forward_used = BcForwardEngine::kTopDown;
};

/// Execution plan the coarse/auto engine derives from the vertex count,
/// source count, thread count, and memory budget — exposed so tests can
/// assert the budget arithmetic without running a kernel.
struct BcPlan {
  BcParallelism mode = BcParallelism::kCoarse;  ///< kCoarse or kFine
  int team = 1;                    ///< concurrent score buffers (coarse)
  std::int64_t batch_sources = 0;  ///< sources per batch (coarse)
  std::int64_t num_batches = 0;
  std::uint64_t buffer_bytes = 0;  ///< team * n * sizeof(double)

  /// Forward engine (kTopDown or kHybrid, never kAuto after planning).
  BcForwardEngine forward = BcForwardEngine::kTopDown;
};

/// Resolve BetweennessOptions::parallelism against a graph size and thread
/// count. kCoarse and kFine pass through (kCoarse = one batch, one buffer
/// per thread, budget ignored); kAuto applies the score memory budget.
/// BcForwardEngine::kAuto resolves to kHybrid on undirected graphs and
/// kTopDown on directed ones (no in-neighbor CSR to pull from).
BcPlan plan_betweenness(vid n, std::int64_t num_sources, int threads,
                        const BetweennessOptions& opts, bool directed = false);

/// Compute (approximate) betweenness centrality of an undirected graph.
/// Self-loops never lie on shortest paths and are ignored.
BetweennessResult betweenness_centrality(const GraphView& g,
                                         const BetweennessOptions& opts = {});

/// Directed betweenness centrality: shortest paths follow arc direction
/// (the paper's §I-A "directed model [that] could model directed flow ...
/// of future interest"). Pairs (s, t) are ordered, counted once each.
/// Component-aware sampling falls back to uniform (weak components do not
/// bound directed reachability).
BetweennessResult directed_betweenness_centrality(
    const GraphView& g, const BetweennessOptions& opts = {});

/// Pick the BC source set for the given options — exposed for tests and for
/// harnesses that must reuse one sample across kernels.
std::vector<vid> choose_sources(const GraphView& g,
                                const BetweennessOptions& opts);

/// One source's Brandes pass: the loop body of fine mode, which runs every
/// source through this engine. Holds the per-source workspace (sigma, the
/// packed distance+coefficient state, BFS buffers) sized once for `g` and
/// reused across sources. Each pass is level-parallel over the caller's
/// OpenMP threads and bitwise independent of their number.
class BcSourceEngine {
 public:
  /// Plans the forward engine and sweep thresholds from `opts` exactly as
  /// betweenness_centrality does. `narrow_adjacency` allows the one-time
  /// locality-ordered int32 copy (the BC graph; built only when ids fit
  /// and the copy fits opts.score_memory_budget_bytes); false reads `g`
  /// directly, which gives bitwise the same scores with one adjacency copy
  /// less. Sources and scores are in `g`'s ids either way.
  explicit BcSourceEngine(const GraphView& g,
                          const BetweennessOptions& opts = {},
                          bool narrow_adjacency = true);
  ~BcSourceEngine();
  BcSourceEngine(const BcSourceEngine&) = delete;
  BcSourceEngine& operator=(const BcSourceEngine&) = delete;

  /// Add source s's dependencies into `score` (size n): score[v] +=
  /// delta_s(v) for every v != s with a deeper neighbor on a shortest
  /// path from s; every other entry is untouched.
  void accumulate(vid s, std::span<double> score);

 private:
  struct State;
  std::unique_ptr<State> st_;
};

}  // namespace graphct
