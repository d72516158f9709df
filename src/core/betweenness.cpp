#include "core/betweenness.hpp"

#include <omp.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <unordered_map>

#include "algs/bc_accum.hpp"
#include "algs/bfs.hpp"
#include "algs/connected_components.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/work_queue.hpp"

namespace graphct {

namespace {

// Level chunking for the work-stealing backward sweep (matches the forward
// sweep's granularity in bfs.cpp).
constexpr std::int64_t kBcLevelChunk = 64;
constexpr std::int64_t kBcLevelSerialBelow = 512;

// Per-vertex backward-sweep state (DistCoef) and the canonical 4-lane
// accumulation rows live in algs/bc_accum.hpp, shared with the forward
// pulls in algs/bfs.cpp and the distributed worker in dist/worker.cpp.

/// Per-source scratch reused across sources by one thread.
struct BcWorkspace {
  std::vector<double> sigma;
  std::vector<DistCoef> dc;  // backward sweep state, see DistCoef
  BfsResult bfs_buffer;      // reused so the hot loop never allocates
  WorkQueue queue;           // level scheduler for the backward sweep

  explicit BcWorkspace(vid n)
      : sigma(static_cast<std::size_t>(n)),
        dc(static_cast<std::size_t>(n), DistCoef{0.0, 0}) {}
};

/// Directed forward pass: the push baseline. Directed CSR stores
/// out-neighbors only, so the pull engine (which reads a vertex's neighbor
/// list as its in-edges) cannot run; sigma flows by fetch-and-add pushes
/// along arcs instead. Levels come out ascending (deterministic bitmap path
/// for packed stores, post-sort otherwise) so the backward sweep's reads
/// stay sequential and scores stay bitwise equal across storage backends.
void forward_push_directed(const GraphView& g, vid s, BfsResult& b,
                           std::vector<double>& sigma) {
  BfsOptions bopts;
  bopts.deterministic_order = g.store_backed();
  bopts.compute_parents = false;  // predecessors come from distances
  {
    // Spans here record only in fine mode, where this runs on the
    // orchestrating thread; coarse-mode workers have no sink.
    GCT_SPAN("bc.bfs");
    bfs_into(g, s, bopts, b);
    b.sort_levels();
  }
  const auto& dist = b.distance;
  const vid reached = b.num_reached();
  // Pushes accumulate, so reached entries must start at zero (the pull
  // engine skips this: it assigns each sigma exactly once).
  for (eid i = 0; i < reached; ++i) {
    sigma[static_cast<std::size_t>(b.order[static_cast<std::size_t>(i)])] = 0.0;
  }
  sigma[static_cast<std::size_t>(s)] = 1.0;

  GCT_SPAN("bc.forward");
  const std::int64_t num_levels =
      static_cast<std::int64_t>(b.level_offsets.size()) - 1;
  for (std::int64_t d = 0; d + 1 < num_levels; ++d) {
    const eid lo = b.level_offsets[static_cast<std::size_t>(d)];
    const eid hi = b.level_offsets[static_cast<std::size_t>(d) + 1];
#pragma omp parallel for schedule(dynamic, 64) if (hi - lo >= kBcLevelSerialBelow)
    for (eid i = lo; i < hi; ++i) {
      const vid u = b.order[static_cast<std::size_t>(i)];
      const double su = sigma[static_cast<std::size_t>(u)];
      for (vid v : g.neighbors(u)) {
        if (dist[static_cast<std::size_t>(v)] ==
            dist[static_cast<std::size_t>(u)] + 1) {
          fetch_add(sigma[static_cast<std::size_t>(v)], su);
        }
      }
    }
  }
}

/// Narrowed adjacency shared by every source of one betweenness run: vid is
/// 8 bytes, but the backward sweep streams the whole adjacency array once
/// per source, so on graphs whose ids fit 32 bits a one-time narrowed copy
/// halves the dominant stream (and halves the cache pollution that evicts
/// the per-vertex state between random accesses). Built once per
/// betweenness call, read-only afterwards; empty when ids would not fit or
/// the copy would not be worth the memory (see betweenness_impl).
struct NarrowAdjacency {
  std::vector<eid> offsets;
  std::vector<std::int32_t> adj;

  [[nodiscard]] bool active() const { return !offsets.empty(); }
};

/// Narrow the adjacency to 32-bit ids when ids fit and the copy fits the
/// score-memory budget; otherwise return an inactive (empty) copy and the
/// sweep reads the GraphView directly.
NarrowAdjacency narrow_adjacency(const GraphView& g,
                                 const BetweennessOptions& opts) {
  NarrowAdjacency na;
  const vid n = g.num_vertices();
  if (n > std::numeric_limits<std::int32_t>::max() ||
      static_cast<std::uint64_t>(g.num_adjacency_entries()) *
              sizeof(std::int32_t) >
          opts.score_memory_budget_bytes) {
    return na;
  }
  GCT_SPAN("bc.narrow_adjacency");
  na.offsets.resize(static_cast<std::size_t>(n) + 1);
  na.adj.resize(static_cast<std::size_t>(g.num_adjacency_entries()));
  eid pos = 0;
  for (vid v = 0; v < n; ++v) {
    na.offsets[static_cast<std::size_t>(v)] = pos;
    for (vid u : g.neighbors(v)) {
      na.adj[static_cast<std::size_t>(pos++)] = static_cast<std::int32_t>(u);
    }
  }
  na.offsets[static_cast<std::size_t>(n)] = pos;
  return na;
}

/// Hybrid-sweep settings for a planned forward engine.
BcSweepOptions sweep_options(const BetweennessOptions& opts,
                             BcForwardEngine forward) {
  BcSweepOptions sweep;
  sweep.hybrid = forward == BcForwardEngine::kHybrid;
  if (opts.sweep_alpha > 0.0) sweep.alpha = opts.sweep_alpha;
  if (opts.sweep_beta > 0.0) sweep.beta = opts.sweep_beta;
  return sweep;
}

/// One backward dependency sweep, deepest level first, over the packed
/// distance+coefficient array (already loaded with this source's
/// distances). `nbrs_of(v)` yields v's neighbor span — int32 from the
/// narrowed copy or vid from the GraphView — hence the template.
template <typename NbrFn>
void backward_sweep_impl(const GraphView& g, vid s, const BfsResult& b,
                         BcWorkspace& ws, std::span<double> score,
                         const NbrFn& nbrs_of, int nthreads, bool profiling) {
  const auto& sigma = ws.sigma;
  DistCoef* dc = ws.dc.data();
  const std::int64_t num_levels =
      static_cast<std::int64_t>(b.level_offsets.size()) - 1;
  {
    // The deepest level has no deeper neighbors: its dependency sum is
    // exactly zero, so the scan collapses to the closed form
    // coef = 1/sigma (and no score contribution).
    const eid lo = b.level_offsets[static_cast<std::size_t>(num_levels - 1)];
    const eid hi = b.level_offsets[static_cast<std::size_t>(num_levels)];
    if (profiling) obs::add_work(hi - lo, 0);
    for (eid i = lo; i < hi; ++i) {
      const vid v = b.order[static_cast<std::size_t>(i)];
      dc[v].coef = 1.0 / sigma[static_cast<std::size_t>(v)];
    }
  }
  for (std::int64_t d = num_levels - 2; d >= 0; --d) {
    const eid lo = b.level_offsets[static_cast<std::size_t>(d)];
    const eid hi = b.level_offsets[static_cast<std::size_t>(d) + 1];
    if (profiling) {
      std::int64_t fe = 0;
      for (eid i = lo; i < hi; ++i) {
        fe += g.degree(b.order[static_cast<std::size_t>(i)]);
      }
      obs::add_work(hi - lo, fe);
    }
    const std::int64_t deeper = d + 1;
    stealing_for(
        ws.queue, lo, hi, kBcLevelChunk, kBcLevelSerialBelow, nthreads,
        [&](std::int64_t i0, std::int64_t i1) {
          for (std::int64_t i = i0; i < i1; ++i) {
            const vid v = b.order[static_cast<std::size_t>(i)];
            // Branchless accumulation: levels interleave unpredictably in
            // adjacency order, so `if (dist == deeper)` mispredicts often
            // as a branch. bc_pull_coef_row multiplies by the comparison
            // instead (coef * 1.0 or coef * 0.0 — exact either way, coef
            // is always finite) with the canonical 4-lane layout from
            // algs/bc_accum.hpp, so the summation order is fixed for any
            // thread count, mode, forward engine, or (dist path) worker
            // count.
            const auto nbrs = nbrs_of(v);
            const double acc =
                bc_pull_coef_row(nbrs.data(),
                                 static_cast<std::int64_t>(nbrs.size()), dc,
                                 deeper);
            const double sv = sigma[static_cast<std::size_t>(v)];
            const double dv = sv * acc;
            dc[v].coef = (1.0 + dv) / sv;
            if (v != s) score[static_cast<std::size_t>(v)] += dv;
          }
        });
  }
}

void backward_sweep(const GraphView& g, vid s, const BfsResult& b,
                    BcWorkspace& ws, std::span<double> score,
                    const NarrowAdjacency& na, int nthreads, bool profiling) {
  if (na.active()) {
    const eid* off = na.offsets.data();
    const std::int32_t* adj = na.adj.data();
    backward_sweep_impl(
        g, s, b, ws, score,
        [off, adj](vid v) {
          return std::span<const std::int32_t>(
              adj + off[v], static_cast<std::size_t>(off[v + 1] - off[v]));
        },
        nthreads, profiling);
  } else {
    backward_sweep_impl(
        g, s, b, ws, score, [&g](vid v) { return g.neighbors(v); }, nthreads,
        profiling);
  }
}

/// Brandes accumulation from one source into `score`.
///
/// Forward: undirected graphs run bc_forward_sweep (fused direction-
/// optimizing BFS + pull sigma; `sweep.hybrid` false = pure top-down, the
/// ablation baseline — bit-identical scores either way). Directed graphs
/// take the push baseline above.
///
/// Backward: coefficient form. Instead of delta we keep
/// coef[v] = (1 + delta[v]) / sigma[v], so each vertex does ONE division and
/// the per-edge work is a plain add: delta[v] = sigma[v] * sum of coef[w]
/// over neighbors one level deeper. The sum runs in adjacency order and
/// every write (coef, score) is per-vertex exclusive — no atomics in any
/// mode, and bit-identical results for any thread count. Levels are
/// scheduled through the work-stealing queue; under coarse mode
/// stealing_for detects the enclosing parallel region and runs inline.
void accumulate_source(const GraphView& g, vid s, BcWorkspace& ws,
                       std::span<double> score,
                       const BcSweepOptions& sweep,
                       const NarrowAdjacency& na) {
  BfsResult& b = ws.bfs_buffer;
  auto& sigma = ws.sigma;
  if (g.directed()) {
    forward_push_directed(g, s, b, sigma);
  } else {
    bc_forward_sweep(g, s, sweep, b, sigma);
  }

  const int nthreads = num_threads();
  const bool profiling = obs::profile_active();

  GCT_SPAN("bc.backward");
  // Load this source's distances into the packed per-vertex state (one
  // sequential O(n) pass, cheap next to the O(m) sweep; the coef halves
  // keep whatever the previous source left — finite, and rewritten before
  // any vertex reads them because coef[w] is only read from one level up).
  {
    const vid n = g.num_vertices();
    const auto& dist = b.distance;
    DistCoef* dc = ws.dc.data();
    for (vid v = 0; v < n; ++v) {
      dc[v].dist = dist[static_cast<std::size_t>(v)];
    }
  }
  backward_sweep(g, s, b, ws, score, na, nthreads, profiling);
}

std::vector<vid> sample_component_aware(const GraphView& g, std::int64_t k,
                                        Rng& rng) {
  const auto labels = connected_components(g);
  const auto stats = component_stats(labels);
  const vid n = g.num_vertices();

  // Bucket vertices by component, largest component first.
  std::vector<std::vector<vid>> buckets;
  std::unordered_map<vid, std::size_t> slot;
  buckets.reserve(stats.sizes.size());
  for (const auto& [label, size] : stats.sizes) {
    slot[label] = buckets.size();
    buckets.emplace_back();
    buckets.back().reserve(static_cast<std::size_t>(size));
  }
  for (vid v = 0; v < n; ++v) {
    buckets[slot[labels[static_cast<std::size_t>(v)]]].push_back(v);
  }

  // Proportional allocation with a floor of one source per component (while
  // budget lasts, biggest first), so no component is left unsampled — the
  // failure mode the paper conjectures for unguided sampling (§V).
  std::vector<std::int64_t> quota(buckets.size(), 0);
  std::int64_t assigned = 0;
  for (std::size_t i = 0; i < buckets.size() && assigned < k; ++i) {
    quota[i] = 1;
    ++assigned;
  }
  while (assigned < k) {
    // Distribute the remainder proportionally to residual capacity.
    bool progressed = false;
    for (std::size_t i = 0; i < buckets.size() && assigned < k; ++i) {
      const auto cap = static_cast<std::int64_t>(buckets[i].size());
      if (quota[i] < cap) {
        const double share = static_cast<double>(cap) /
                             static_cast<double>(n) *
                             static_cast<double>(k);
        if (static_cast<double>(quota[i]) < share || !progressed) {
          ++quota[i];
          ++assigned;
          progressed = true;
        }
      }
    }
    if (!progressed) break;  // every component saturated
  }

  std::vector<vid> sources;
  sources.reserve(static_cast<std::size_t>(k));
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const auto cap = static_cast<std::int64_t>(buckets[i].size());
    const std::int64_t q = std::min(quota[i], cap);
    auto picks = rng.sample_without_replacement(cap, q);
    for (auto p : picks) {
      sources.push_back(buckets[i][static_cast<std::size_t>(p)]);
    }
  }
  std::sort(sources.begin(), sources.end());
  return sources;
}

// Sources per buffer-team slot in one auto-mode batch: large enough that
// each tree reduction amortizes over several sources, small enough that a
// tiny budget still exercises multi-batch execution.
constexpr std::int64_t kBcSourcesPerSlot = 8;

}  // namespace

BcPlan plan_betweenness(vid n, std::int64_t num_sources, int threads,
                        const BetweennessOptions& opts, bool directed) {
  BcPlan p;
  if (threads < 1) threads = 1;
  if (num_sources < 1) num_sources = 1;

  GCT_CHECK(!(directed && opts.forward == BcForwardEngine::kHybrid),
            "betweenness: the hybrid forward sweep requires an undirected "
            "graph (bottom-up pulls use out-neighbors as in-neighbors)");
  p.forward = opts.forward == BcForwardEngine::kAuto
                  ? (directed ? BcForwardEngine::kTopDown
                              : BcForwardEngine::kHybrid)
                  : opts.forward;
  const std::uint64_t per_buffer =
      static_cast<std::uint64_t>(n) * sizeof(double);

  if (opts.parallelism == BcParallelism::kFine) {
    p.mode = BcParallelism::kFine;
    return p;
  }
  if (opts.parallelism == BcParallelism::kCoarse) {
    // Legacy coarse: one buffer per thread, all sources in a single batch,
    // budget ignored.
    p.mode = BcParallelism::kCoarse;
    p.team = threads;
    p.batch_sources = num_sources;
    p.num_batches = 1;
    p.buffer_bytes = static_cast<std::uint64_t>(threads) * per_buffer;
    return p;
  }

  // kAuto: fit the buffer team inside the budget. Fine mode keeps threads
  // busy on level-parallel sweeps with O(1) score buffers, so it is the
  // right fallback when n is large relative to threads x budget.
  const std::int64_t affordable =
      per_buffer == 0 ? threads
                      : static_cast<std::int64_t>(
                            opts.score_memory_budget_bytes / per_buffer);
  if (affordable < 1 || (threads > 1 && affordable < 2)) {
    p.mode = BcParallelism::kFine;
    return p;
  }
  p.mode = BcParallelism::kCoarse;
  p.team = static_cast<int>(std::min<std::int64_t>(
      {threads, affordable, num_sources}));
  p.batch_sources = std::min(num_sources, p.team * kBcSourcesPerSlot);
  p.num_batches = (num_sources + p.batch_sources - 1) / p.batch_sources;
  p.buffer_bytes = static_cast<std::uint64_t>(p.team) * per_buffer;
  return p;
}

std::vector<vid> choose_sources(const GraphView& g,
                                const BetweennessOptions& opts) {
  const vid n = g.num_vertices();
  std::int64_t k = opts.num_sources;
  if (opts.sample_fraction > 0.0) {
    GCT_CHECK(opts.sample_fraction <= 1.0,
              "betweenness: sample_fraction must be in (0, 1]");
    k = static_cast<std::int64_t>(
        std::ceil(static_cast<double>(n) * opts.sample_fraction));
  }
  if (k == kNoVertex || k >= n) {
    std::vector<vid> all(static_cast<std::size_t>(n));
    for (vid v = 0; v < n; ++v) all[static_cast<std::size_t>(v)] = v;
    return all;
  }
  GCT_CHECK(k > 0, "betweenness: num_sources must be positive");
  Rng rng(opts.seed);
  if (opts.sampling == BcSampling::kComponentAware) {
    return sample_component_aware(g, k, rng);
  }
  return rng.sample_without_replacement(n, k);
}

namespace {

// Shared implementation. Brandes' forward/backward sweeps read only
// out-neighbors with dist == dist(v) + 1, which is correct for directed
// and undirected CSR alike; only the pair-counting interpretation differs.
BetweennessResult betweenness_impl(const GraphView& g,
                                   const BetweennessOptions& opts) {
  const vid n = g.num_vertices();
  BetweennessResult result;
  result.score.assign(static_cast<std::size_t>(n), 0.0);
  if (n == 0) return result;
  obs::KernelScope scope("bc");

  std::vector<vid> sources;
  {
    GCT_SPAN("bc.choose_sources");
    sources = choose_sources(g, opts);
  }
  result.sources_used = static_cast<std::int64_t>(sources.size());

  const BcPlan plan = plan_betweenness(n, result.sources_used, num_threads(),
                                       opts, g.directed());
  result.parallelism_used = plan.mode;
  result.forward_used = plan.forward;

  if (plan.mode == BcParallelism::kFine) {
    // Sources serial; each sweep is level-parallel (work-stealing chunks,
    // no atomics — every write is per-vertex exclusive). The per-source
    // sweeps record exact work counters into the bc.forward_td /
    // bc.forward_bu / bc.backward phases (fine mode runs on the profiling
    // thread).
    BcSourceEngine engine(g, opts);
    GCT_SPAN("bc.accumulate");
    for (vid s : sources) engine.accumulate(s, result.score);
  } else {
    const BcSweepOptions sweep = sweep_options(opts, plan.forward);
    const NarrowAdjacency na = narrow_adjacency(g, opts);
    // Coarse: sources in parallel across a buffer team, batch by batch; each
    // batch ends with a parallel tree reduction that folds the buffers into
    // the global scores and re-zeroes them for the next batch, so peak
    // score-buffer memory stays at plan.buffer_bytes for the whole run.
    result.batches = plan.num_batches;
    result.peak_buffer_bytes = plan.buffer_bytes;
    const int team = plan.team;
    std::vector<std::vector<double>> buffers(
        static_cast<std::size_t>(team),
        std::vector<double>(static_cast<std::size_t>(n), 0.0));
    std::vector<BcWorkspace> workspaces;
    workspaces.reserve(static_cast<std::size_t>(team));
    for (int t = 0; t < team; ++t) workspaces.emplace_back(n);

    const auto num_sources = static_cast<std::int64_t>(sources.size());
    for (std::int64_t b0 = 0; b0 < num_sources; b0 += plan.batch_sources) {
      const std::int64_t b1 = std::min(num_sources, b0 + plan.batch_sources);
      {
        GCT_SPAN("bc.accumulate");
        {
          obs::SuspendCollection pause;  // accounted in bulk below
#pragma omp parallel num_threads(team)
          {
            const int t = omp_get_thread_num();
#pragma omp for schedule(dynamic, 1)
            for (std::int64_t i = b0; i < b1; ++i) {
              accumulate_source(g, sources[static_cast<std::size_t>(i)],
                                workspaces[static_cast<std::size_t>(t)],
                                buffers[static_cast<std::size_t>(t)], sweep,
                                na);
            }
          }
        }
        // BFS-equivalent convention: one full-adjacency traversal per source
        // (see docs/OBSERVABILITY.md on TEPS for sampled kernels).
        obs::add_work((b1 - b0) * static_cast<std::int64_t>(n),
                      (b1 - b0) * g.num_adjacency_entries());
      }
      GCT_SPAN("bc.reduce_tree");
      tree_reduce_buffers(buffers,
                          std::span<double>(result.score.data(),
                                            result.score.size()),
                          /*clear_buffers=*/b1 < num_sources);
    }
  }

  if (opts.rescale && result.sources_used > 0 &&
      result.sources_used < n) {
    GCT_SPAN("bc.rescale");
    const double scale = static_cast<double>(n) /
                         static_cast<double>(result.sources_used);
#pragma omp parallel for schedule(static)
    for (vid v = 0; v < n; ++v) {
      result.score[static_cast<std::size_t>(v)] *= scale;
    }
  }
  result.seconds = scope.seconds();
  return result;
}

}  // namespace

struct BcSourceEngine::State {
  GraphView g;
  BcSweepOptions sweep;
  NarrowAdjacency na;
  BcWorkspace ws;
};

BcSourceEngine::BcSourceEngine(const GraphView& g,
                               const BetweennessOptions& opts,
                               bool narrow_adjacency_copy)
    : st_(std::make_unique<State>(State{
          g,
          sweep_options(opts, plan_betweenness(g.num_vertices(), 1, 1, opts,
                                               g.directed())
                                  .forward),
          narrow_adjacency_copy ? narrow_adjacency(g, opts)
                                : NarrowAdjacency{},
          BcWorkspace(g.num_vertices())})) {}

BcSourceEngine::~BcSourceEngine() = default;

void BcSourceEngine::accumulate(vid s, std::span<double> score) {
  GCT_CHECK(s >= 0 && s < st_->g.num_vertices(),
            "betweenness: source out of range");
  GCT_CHECK(static_cast<vid>(score.size()) == st_->g.num_vertices(),
            "betweenness: score span does not match the graph");
  accumulate_source(st_->g, s, st_->ws, score, st_->sweep, st_->na);
}

BetweennessResult betweenness_centrality(const GraphView& g,
                                         const BetweennessOptions& opts) {
  GCT_CHECK(!g.directed(),
            "betweenness_centrality: graph must be undirected (the paper "
            "treats mention graphs as undirected, §I-A); use "
            "directed_betweenness_centrality for the directed flow model");
  return betweenness_impl(g, opts);
}

BetweennessResult directed_betweenness_centrality(
    const GraphView& g, const BetweennessOptions& opts) {
  GCT_CHECK(g.directed(),
            "directed_betweenness_centrality: graph must be directed");
  BetweennessOptions o = opts;
  // Weak components say nothing about directed reachability; stratifying
  // by them would be misleading, so fall back to uniform sampling.
  o.sampling = BcSampling::kUniform;
  return betweenness_impl(g, o);
}

}  // namespace graphct
