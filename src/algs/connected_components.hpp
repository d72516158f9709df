#pragma once

/// \file connected_components.hpp
/// Parallel connected components via greedy label absorption.
///
/// GraphCT finds components "through a technique similar to Kahan's
/// algorithm" (§II-A): colors spread from every vertex simultaneously,
/// colliding colors absorb the higher label into the lower, and relabelling
/// repeats until no collisions remain. This implementation does the same
/// with atomic-min label propagation plus pointer-jumping compression
/// (Shiloach-Vishkin style); the fixed point labels every vertex with the
/// minimum vertex id in its component, which makes results canonical and
/// schedule-independent.

#include <cstdint>
#include <vector>

#include "graph/csr_graph.hpp"
#include "graph/transforms.hpp"
#include "storage/graph_view.hpp"

namespace graphct {

/// Per-vertex component labels for an undirected graph: labels[v] is the
/// smallest vertex id in v's component. Throws for directed input (use
/// weak_components). Runs over DRAM CSR or a packed store via GraphView.
std::vector<vid> connected_components(const GraphView& g);

/// Weakly connected components: symmetrizes a directed graph first
/// (materializing a store-backed directed graph to do so), otherwise
/// identical to connected_components.
std::vector<vid> weak_components(const GraphView& g);

/// Aggregate component statistics.
struct ComponentStats {
  std::int64_t num_components = 0;

  /// Component labels paired with sizes, largest first (ties by label).
  std::vector<std::pair<vid, std::int64_t>> sizes;

  [[nodiscard]] vid largest_label() const {
    return sizes.empty() ? kNoVertex : sizes.front().first;
  }
  [[nodiscard]] std::int64_t largest_size() const {
    return sizes.empty() ? 0 : sizes.front().second;
  }
};

/// Summarize a label array from connected_components() (or any labeling
/// that names each component by one of its vertex ids, 0 <= label < n).
ComponentStats component_stats(std::span<const vid> labels);

/// Extract the largest (weakly) connected component as a subgraph — the
/// paper's LWCC used throughout Table III. For directed graphs membership is
/// decided on the symmetrized graph but the extracted subgraph keeps arcs.
Subgraph largest_component(const CsrGraph& g);

/// Extract the i-th largest component (0 = largest), as the scripting
/// interface's `extract component <i+1>`.
Subgraph nth_largest_component(const CsrGraph& g, std::int64_t i);

}  // namespace graphct
