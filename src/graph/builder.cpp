#include "graph/builder.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/parallel.hpp"

namespace graphct {

namespace {

// Builds with fewer vertices plus edges than this run serially: below it,
// opening OpenMP teams costs more than the build (the 4-thread crossover
// measured ~4k edges on ~2.7k vertices).
constexpr std::int64_t kBuildSerialBelow = 8192;

}  // namespace

CsrGraph build_csr(const EdgeList& edges, const BuildOptions& opts) {
  GCT_CHECK(!opts.dedup || opts.sort_adjacency,
            "build_csr: dedup requires sort_adjacency");
  // An explicit hint is authoritative: endpoints beyond it are input errors,
  // not a request to grow the graph.
  const vid n = edges.num_vertices_hint() != kNoVertex
                    ? edges.num_vertices_hint()
                    : edges.inferred_num_vertices();
  const std::int64_t m = static_cast<std::int64_t>(edges.size());
  const auto& es = edges.edges();
  const bool par = n + m >= kBuildSerialBelow;

  // Validate endpoints (cheap, catches generator/parser bugs early).
  bool ok = true;
#pragma omp parallel for reduction(&& : ok) schedule(static) if (par)
  for (std::int64_t i = 0; i < m; ++i) {
    const Edge& e = es[static_cast<std::size_t>(i)];
    ok = ok && e.src >= 0 && e.src < n && e.dst >= 0 && e.dst < n;
  }
  GCT_CHECK(ok, "build_csr: edge endpoint out of range");

  // Pass 1: degree counting with atomic fetch-and-add.
  std::vector<std::int64_t> degree(static_cast<std::size_t>(n) + 1, 0);
#pragma omp parallel for schedule(static) if (par)
  for (std::int64_t i = 0; i < m; ++i) {
    const Edge& e = es[static_cast<std::size_t>(i)];
    if (e.src == e.dst) {
      if (opts.remove_self_loops) continue;
      fetch_add(degree[static_cast<std::size_t>(e.src)], 1);
      continue;
    }
    fetch_add(degree[static_cast<std::size_t>(e.src)], 1);
    if (opts.symmetrize) {
      fetch_add(degree[static_cast<std::size_t>(e.dst)], 1);
    }
  }

  // Offsets = exclusive scan of degrees; the (n+1)-th entry becomes total.
  std::vector<eid> offsets(static_cast<std::size_t>(n) + 1, 0);
  const std::int64_t entries = exclusive_scan(
      std::span<const std::int64_t>(degree.data(), degree.size() - 1),
      std::span<std::int64_t>(offsets.data(), offsets.size() - 1));
  offsets.back() = entries;

  // Pass 2: scatter through per-vertex atomic cursors.
  std::vector<eid> cursor(offsets.begin(), offsets.end() - 1);
  std::vector<vid> adjacency(static_cast<std::size_t>(entries));
#pragma omp parallel for schedule(static) if (par)
  for (std::int64_t i = 0; i < m; ++i) {
    const Edge& e = es[static_cast<std::size_t>(i)];
    if (e.src == e.dst) {
      if (opts.remove_self_loops) continue;
      const eid slot = fetch_add(cursor[static_cast<std::size_t>(e.src)], 1);
      adjacency[static_cast<std::size_t>(slot)] = e.dst;
      continue;
    }
    const eid s = fetch_add(cursor[static_cast<std::size_t>(e.src)], 1);
    adjacency[static_cast<std::size_t>(s)] = e.dst;
    if (opts.symmetrize) {
      const eid t = fetch_add(cursor[static_cast<std::size_t>(e.dst)], 1);
      adjacency[static_cast<std::size_t>(t)] = e.src;
    }
  }

  // Pass 3: per-vertex sort (+ dedup compaction).
  if (opts.sort_adjacency) {
#pragma omp parallel for schedule(dynamic, 64) if (par)
    for (vid v = 0; v < n; ++v) {
      auto* lo = adjacency.data() + offsets[static_cast<std::size_t>(v)];
      auto* hi = adjacency.data() + offsets[static_cast<std::size_t>(v) + 1];
      std::sort(lo, hi);
    }
  }

  if (opts.dedup) {
    std::vector<std::int64_t> uniq(static_cast<std::size_t>(n), 0);
#pragma omp parallel for schedule(dynamic, 64) if (par)
    for (vid v = 0; v < n; ++v) {
      const auto lo = static_cast<std::size_t>(offsets[static_cast<std::size_t>(v)]);
      const auto hi =
          static_cast<std::size_t>(offsets[static_cast<std::size_t>(v) + 1]);
      std::int64_t u = 0;
      for (std::size_t i = lo; i < hi; ++i) {
        if (i == lo || adjacency[i] != adjacency[i - 1]) ++u;
      }
      uniq[static_cast<std::size_t>(v)] = u;
    }
    std::vector<eid> new_offsets(static_cast<std::size_t>(n) + 1, 0);
    const std::int64_t new_entries = exclusive_scan(
        std::span<const std::int64_t>(uniq.data(), uniq.size()),
        std::span<std::int64_t>(new_offsets.data(), new_offsets.size() - 1));
    new_offsets.back() = new_entries;
    std::vector<vid> new_adj(static_cast<std::size_t>(new_entries));
#pragma omp parallel for schedule(dynamic, 64) if (par)
    for (vid v = 0; v < n; ++v) {
      const auto lo = static_cast<std::size_t>(offsets[static_cast<std::size_t>(v)]);
      const auto hi =
          static_cast<std::size_t>(offsets[static_cast<std::size_t>(v) + 1]);
      auto out = static_cast<std::size_t>(new_offsets[static_cast<std::size_t>(v)]);
      for (std::size_t i = lo; i < hi; ++i) {
        if (i == lo || adjacency[i] != adjacency[i - 1]) {
          new_adj[out++] = adjacency[i];
        }
      }
    }
    offsets = std::move(new_offsets);
    adjacency = std::move(new_adj);
  }

  // Count self-loops in the final structure (stored once per vertex list).
  std::int64_t self_loops = 0;
#pragma omp parallel for reduction(+ : self_loops) schedule(dynamic, 64) \
    if (par)
  for (vid v = 0; v < n; ++v) {
    const auto lo = static_cast<std::size_t>(offsets[static_cast<std::size_t>(v)]);
    const auto hi =
        static_cast<std::size_t>(offsets[static_cast<std::size_t>(v) + 1]);
    for (std::size_t i = lo; i < hi; ++i) {
      if (adjacency[i] == v) ++self_loops;
    }
  }

  return CsrGraph(std::move(offsets), std::move(adjacency),
                  /*directed=*/!opts.symmetrize, self_loops,
                  opts.sort_adjacency);
}

}  // namespace graphct
