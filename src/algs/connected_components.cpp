#include "algs/connected_components.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace graphct {

std::vector<vid> connected_components(const GraphView& g) {
  GCT_CHECK(!g.directed(),
            "connected_components: input must be undirected "
            "(use weak_components for directed graphs)");
  obs::KernelScope scope("components");
  const vid n = g.num_vertices();
  std::vector<vid> label(static_cast<std::size_t>(n));
  {
    GCT_SPAN("cc.init");
#pragma omp parallel for schedule(static)
    for (vid v = 0; v < n; ++v) label[static_cast<std::size_t>(v)] = v;
  }

  // Alternate hooking (absorb the higher color into the lower across every
  // edge) with pointer-jumping compression until a fixed point. Each phase
  // is fully parallel; atomic_min is the only synchronization.
  bool changed = true;
  while (changed) {
    changed = false;
    bool local_changed = false;
    {
      GCT_SPAN("cc.hook");
#pragma omp parallel for reduction(|| : local_changed) schedule(dynamic, 256)
      for (vid u = 0; u < n; ++u) {
        const vid lu = label[static_cast<std::size_t>(u)];
        for (vid v : g.neighbors(u)) {
          const vid lv = label[static_cast<std::size_t>(v)];
          if (lu < lv) {
            if (atomic_min(label[static_cast<std::size_t>(lv)], lu)) {
              local_changed = true;
            }
          } else if (lv < lu) {
            if (atomic_min(label[static_cast<std::size_t>(lu)], lv)) {
              local_changed = true;
            }
          }
        }
      }
      // Every hooking round touches the full adjacency.
      obs::add_work(n, g.num_adjacency_entries());
    }
    changed = local_changed;

    // Compress: chase labels to their root (label[x] == x). Pointer-jumping
    // converges in O(log n) rounds; the serial-looking inner loop is fine
    // because chains are short after the first few iterations.
    GCT_SPAN("cc.compress");
#pragma omp parallel for schedule(static)
    for (vid v = 0; v < n; ++v) {
      vid l = label[static_cast<std::size_t>(v)];
      while (label[static_cast<std::size_t>(l)] != l) {
        l = label[static_cast<std::size_t>(l)];
      }
      label[static_cast<std::size_t>(v)] = l;
    }
  }
  return label;
}

std::vector<vid> weak_components(const GraphView& g) {
  if (!g.directed()) return connected_components(g);
  // Symmetrizing needs CSR surgery; a store-backed directed graph decodes
  // to DRAM first (weak components of a >DRAM directed graph would need an
  // out-of-core transpose — not provided).
  if (const CsrGraph* csr = g.as_csr()) {
    return connected_components(to_undirected(*csr));
  }
  return connected_components(to_undirected(g.materialize()));
}

ComponentStats component_stats(std::span<const vid> labels) {
  // Every labeling here names a component by one of its vertex ids, so the
  // sizes are counted in an array indexed by label.
  std::vector<std::int64_t> counts(labels.size(), 0);
  for (vid l : labels) {
    GCT_CHECK(l >= 0 && static_cast<std::size_t>(l) < labels.size(),
              "component_stats: a label is not a vertex id");
    ++counts[static_cast<std::size_t>(l)];
  }
  ComponentStats s;
  for (std::size_t l = 0; l < counts.size(); ++l) {
    if (counts[l] > 0) s.sizes.emplace_back(static_cast<vid>(l), counts[l]);
  }
  s.num_components = static_cast<std::int64_t>(s.sizes.size());
  std::sort(s.sizes.begin(), s.sizes.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  return s;
}

Subgraph largest_component(const CsrGraph& g) {
  return nth_largest_component(g, 0);
}

Subgraph nth_largest_component(const CsrGraph& g, std::int64_t i) {
  const auto labels = weak_components(g);
  const auto stats = component_stats(labels);
  GCT_CHECK(i >= 0 && i < stats.num_components,
            "nth_largest_component: component index out of range");
  return extract_by_label(g, labels, stats.sizes[static_cast<std::size_t>(i)].first);
}

}  // namespace graphct
