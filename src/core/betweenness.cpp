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

/// Locality-ordered BC graph shared by every source of one betweenness
/// run: an int32 copy of the adjacency with vertices relabeled in BFS
/// order. vid is 8 bytes, and both sweeps stream the whole adjacency once
/// per source, so the narrowing halves the dominant stream. The relabel
/// matters more: mention-graph ids come in first-seen order, effectively
/// random with respect to structure, so every sigma/distance/coefficient
/// access along a row is a cache miss; in BFS order a row's neighbors sit
/// near each other and near the row's own vertex.
///
/// Each row keeps its original neighbor order (only the ids in it are
/// renamed), so every per-vertex 4-lane sum (algs/bc_accum.hpp) sees the
/// same terms in the same order and scores are bitwise those of a sweep
/// over the caller's graph. Sources are mapped in (`to_bc`) and scores
/// mapped back (`to_caller`); directed graphs keep the identity order
/// (their push forward engine walks the GraphView), so their maps are
/// empty. Built once per betweenness call, read-only afterwards; inactive
/// (empty) when ids would not fit or the copy would not be worth the
/// memory (see build_bc_graph).
struct BcGraph {
  std::vector<eid> offsets;
  std::vector<std::int32_t> adj;
  std::vector<std::int32_t> to_bc;      // caller id -> BC id (empty: identity)
  std::vector<std::int32_t> to_caller;  // BC id -> caller id (empty: identity)

  [[nodiscard]] bool active() const { return !offsets.empty(); }
  [[nodiscard]] bool relabeled() const { return !to_bc.empty(); }
  [[nodiscard]] vid bc_id(vid v) const {
    return relabeled() ? to_bc[static_cast<std::size_t>(v)] : v;
  }
  [[nodiscard]] Int32Rows rows() const {
    return {offsets.data(), adj.data(),
            static_cast<vid>(offsets.size()) - 1};
  }
};

/// BFS relabel of an undirected graph: rooted at the highest-degree vertex
/// (lowest id on ties), then at each still-unvisited vertex in id order.
/// O(n + m), serial, no sort. Fills `bg.to_bc` / `bg.to_caller`.
void bfs_relabel(const GraphView& g, BcGraph& bg) {
  const vid n = g.num_vertices();
  bg.to_bc.assign(static_cast<std::size_t>(n), -1);
  bg.to_caller.resize(static_cast<std::size_t>(n));
  vid root = 0;
  for (vid v = 1; v < n; ++v) {
    if (g.degree(v) > g.degree(root)) root = v;
  }
  // to_caller doubles as the BFS queue: [head, tail) are visited vertices
  // whose rows are not yet scanned.
  std::int32_t head = 0;
  std::int32_t tail = 0;
  auto visit = [&bg, &tail](vid v) {
    bg.to_bc[static_cast<std::size_t>(v)] = tail;
    bg.to_caller[static_cast<std::size_t>(tail++)] =
        static_cast<std::int32_t>(v);
  };
  visit(root);
  vid next_root = 0;
  for (;;) {
    while (head < tail) {
      const vid u = bg.to_caller[static_cast<std::size_t>(head++)];
      for (vid w : g.neighbors(u)) {
        if (bg.to_bc[static_cast<std::size_t>(w)] < 0) visit(w);
      }
    }
    while (next_root < n &&
           bg.to_bc[static_cast<std::size_t>(next_root)] >= 0) {
      ++next_root;
    }
    if (next_root == n) break;
    visit(next_root);
  }
}

/// Build the BC graph when ids fit int32 and the copy fits the
/// score-memory budget; otherwise return an inactive (empty) graph and the
/// sweeps read the GraphView directly.
BcGraph build_bc_graph(const GraphView& g, const BetweennessOptions& opts) {
  BcGraph bg;
  const vid n = g.num_vertices();
  if (n == 0 || n > std::numeric_limits<std::int32_t>::max() ||
      static_cast<std::uint64_t>(g.num_adjacency_entries()) *
              sizeof(std::int32_t) >
          opts.score_memory_budget_bytes) {
    return bg;
  }
  GCT_SPAN("bc.narrow_adjacency");
  bg.offsets.resize(static_cast<std::size_t>(n) + 1);
  bg.adj.resize(static_cast<std::size_t>(g.num_adjacency_entries()));
  if (!g.directed()) bfs_relabel(g, bg);
  bg.offsets[0] = 0;
  for (vid i = 0; i < n; ++i) {
    const vid v =
        bg.relabeled() ? bg.to_caller[static_cast<std::size_t>(i)] : i;
    bg.offsets[static_cast<std::size_t>(i) + 1] =
        bg.offsets[static_cast<std::size_t>(i)] + g.degree(v);
  }
  // Rows are read in the caller's id order (sequential over a packed store)
  // and written to their BC slots, renamed but in their original order.
#pragma omp parallel for schedule(dynamic, 1024)
  for (vid v = 0; v < n; ++v) {
    eid pos = bg.offsets[static_cast<std::size_t>(bg.bc_id(v))];
    for (vid u : g.neighbors(v)) {
      bg.adj[static_cast<std::size_t>(pos++)] =
          static_cast<std::int32_t>(bg.bc_id(u));
    }
  }
  return bg;
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
/// distances). `rows` is the BC graph's Int32Rows or the GraphView, hence
/// the template. `score_ids`, when non-null, maps a row id to its slot in
/// `score` (BcSourceEngine callers index scores by their own ids).
template <typename Rows>
void backward_sweep(const Rows& rows, vid s, const BfsResult& b,
                    BcWorkspace& ws, std::span<double> score,
                    const std::int32_t* score_ids, int nthreads,
                    bool profiling) {
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
        fe += rows.degree(b.order[static_cast<std::size_t>(i)]);
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
            // thread count, mode, forward engine, vertex labeling, or
            // (dist path) worker count.
            const auto nbrs = rows.neighbors(v);
            const double acc =
                bc_pull_coef_row(nbrs.data(),
                                 static_cast<std::int64_t>(nbrs.size()), dc,
                                 deeper);
            const double sv = sigma[static_cast<std::size_t>(v)];
            const double dv = sv * acc;
            dc[v].coef = (1.0 + dv) / sv;
            if (v != s) {
              score[static_cast<std::size_t>(
                  score_ids != nullptr ? score_ids[v] : v)] += dv;
            }
          }
        });
  }
}

/// Brandes accumulation from one source into `score`.
///
/// `s` is a BC-graph id, and `score` is indexed by BC-graph id unless
/// `score_ids` maps BC ids to its slots. With an inactive BC graph, BC
/// ids are the caller's.
///
/// Forward: undirected graphs run bc_forward_sweep (fused direction-
/// optimizing BFS + pull sigma; `sweep.hybrid` false = pure top-down, the
/// ablation baseline — bit-identical scores either way), over the BC graph
/// when there is one. Directed graphs take the push baseline above.
///
/// Backward: coefficient form. Instead of delta we keep
/// coef[v] = (1 + delta[v]) / sigma[v], so each vertex does ONE division and
/// the per-edge work is a plain add: delta[v] = sigma[v] * sum of coef[w]
/// over neighbors one level deeper. The sum runs in adjacency order and
/// every write (coef, score) is per-vertex exclusive — no atomics in any
/// mode, and bit-identical results for any thread count. Levels are
/// scheduled through the work-stealing queue; under coarse mode
/// stealing_for detects the enclosing parallel region and runs inline.
void accumulate_source(const GraphView& g, const BcGraph& bg, vid s,
                       BcWorkspace& ws, std::span<double> score,
                       const std::int32_t* score_ids,
                       const BcSweepOptions& sweep) {
  BfsResult& b = ws.bfs_buffer;
  auto& sigma = ws.sigma;
  if (g.directed()) {
    forward_push_directed(g, s, b, sigma);
  } else if (bg.active()) {
    bc_forward_sweep(bg.rows(), s, sweep, b, sigma);
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
  if (bg.active()) {
    backward_sweep(bg.rows(), s, b, ws, score, score_ids, nthreads,
                   profiling);
  } else {
    backward_sweep(g, s, b, ws, score, score_ids, nthreads, profiling);
  }
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
    const BcGraph bg = build_bc_graph(g, opts);
    // Coarse: sources in parallel across a buffer team, batch by batch; each
    // batch ends with a parallel tree reduction that folds the buffers into
    // the global scores and re-zeroes them for the next batch, so peak
    // score-buffer memory stays at plan.buffer_bytes for the whole run.
    // Buffers and scores are indexed by BC-graph id until the end.
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
              accumulate_source(g, bg,
                                bg.bc_id(sources[static_cast<std::size_t>(i)]),
                                workspaces[static_cast<std::size_t>(t)],
                                buffers[static_cast<std::size_t>(t)],
                                /*score_ids=*/nullptr, sweep);
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
    if (bg.relabeled()) {
      // Once per call: the spent first buffer takes the scores back in the
      // caller's ids (a permutation, so every slot is overwritten).
      GCT_SPAN("bc.reduce_tree");
      std::vector<double>& out = buffers.front();
#pragma omp parallel for schedule(static)
      for (vid v = 0; v < n; ++v) {
        const auto slot = bg.to_caller[static_cast<std::size_t>(v)];
        out[static_cast<std::size_t>(slot)] =
            result.score[static_cast<std::size_t>(v)];
      }
      result.score.swap(out);
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
  BcGraph bg;
  BcWorkspace ws;
};

BcSourceEngine::BcSourceEngine(const GraphView& g,
                               const BetweennessOptions& opts,
                               bool narrow_adjacency)
    : st_(std::make_unique<State>(State{
          g,
          sweep_options(opts, plan_betweenness(g.num_vertices(), 1, 1, opts,
                                               g.directed())
                                  .forward),
          narrow_adjacency ? build_bc_graph(g, opts) : BcGraph{},
          BcWorkspace(g.num_vertices())})) {}

BcSourceEngine::~BcSourceEngine() = default;

void BcSourceEngine::accumulate(vid s, std::span<double> score) {
  GCT_CHECK(s >= 0 && s < st_->g.num_vertices(),
            "betweenness: source out of range");
  GCT_CHECK(static_cast<vid>(score.size()) == st_->g.num_vertices(),
            "betweenness: score span does not match the graph");
  const BcGraph& bg = st_->bg;
  accumulate_source(st_->g, bg, bg.bc_id(s), st_->ws, score,
                    bg.relabeled() ? bg.to_caller.data() : nullptr,
                    st_->sweep);
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
