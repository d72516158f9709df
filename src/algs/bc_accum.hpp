#pragma once

/// \file bc_accum.hpp
/// The canonical 4-lane branchless accumulation rows shared by every sigma
/// / dependency sweep in the repo: the top-down pull and the fused
/// bottom-up sweep in algs/bfs.cpp and the coefficient-form backward pass
/// in core/betweenness.cpp (which the distributed workers also run).
///
/// These helpers ARE the bit-identity contract. A per-vertex sum is: four
/// independent accumulator lanes assigned by neighbor index (j % 4), each
/// term `value * static_cast<double>(predicate)` (multiply-by-comparison —
/// exact, because the factor is exactly 0.0 or 1.0), a scalar remainder
/// into lane 0, and the final combine `(a0 + a1) + (a2 + a3)`. The lane
/// assignment depends only on the neighbor index, so for a fixed adjacency
/// row the sum is bitwise identical across thread counts, fine/coarse/auto
/// modes, both forward engines, and the single-process vs distributed
/// paths (dist_test and bench/dist_profile pin the last one).
///
/// Row order, not vertex ids, fixes the bits: the ids inside a row only
/// select which values are summed. Betweenness runs its sweeps over a
/// BFS-relabeled copy of the graph (core/betweenness.cpp, BcGraph) whose
/// rows keep their neighbor order, and gets the same bits as a sweep over
/// the caller's ids; reordering a row would not.
///
/// Change the lane count, the combine order, or the prefetch distance here
/// and every parity gate in CI moves together — which is the point of
/// sharing it.
///
/// Predicates take the neighbor id and return bool; values are looked up
/// by the same id. The prefetch functor is given ids ~16 neighbors ahead
/// (the adjacency stream provides them for free) and should touch whatever
/// array dominates the random traffic — sigma for the forward pulls, the
/// packed DistCoef line for the backward pass.

#include <cstdint>

namespace graphct {

/// Backward-sweep per-vertex state, packed so the per-edge random access
/// touches ONE cache line instead of two: the sweep reads a neighbor's
/// distance and, when it is one level deeper, its coefficient
/// (1 + delta) / sigma — keeping them in separate arrays doubles the random
/// line traffic that dominates the pass.
struct alignas(16) DistCoef {
  double coef;
  std::int64_t dist;
};

/// Sum `value_at(u) * pred_at(u)` over one adjacency row in the canonical
/// lane order. `nb[0..deg)` is the row (any integral id type — vid or the
/// narrowed int32 copy), `prefetch_at(u)` warms the value line.
template <typename Nbr, typename ValueAt, typename PredAt,
          typename PrefetchAt>
inline double bc_lane_sum(const Nbr* nb, std::int64_t deg,
                          const ValueAt& value_at, const PredAt& pred_at,
                          const PrefetchAt& prefetch_at) {
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  std::int64_t j = 0;
  for (; j + 4 <= deg; j += 4) {
    if (j + 20 <= deg) {
      // The value lines are random; the adjacency stream gives the
      // addresses ~4 iterations ahead for free.
      prefetch_at(nb[j + 16]);
      prefetch_at(nb[j + 17]);
      prefetch_at(nb[j + 18]);
      prefetch_at(nb[j + 19]);
    }
    a0 += value_at(nb[j]) * static_cast<double>(pred_at(nb[j]));
    a1 += value_at(nb[j + 1]) * static_cast<double>(pred_at(nb[j + 1]));
    a2 += value_at(nb[j + 2]) * static_cast<double>(pred_at(nb[j + 2]));
    a3 += value_at(nb[j + 3]) * static_cast<double>(pred_at(nb[j + 3]));
  }
  for (; j < deg; ++j) {
    a0 += value_at(nb[j]) * static_cast<double>(pred_at(nb[j]));
  }
  return (a0 + a1) + (a2 + a3);
}

/// Sigma pull over one row: sum sigma[u] over neighbors u satisfying
/// `pred_at(u)` (== "u is one level up" — as a distance compare top-down,
/// as a frontier-bitmap test bottom-up; same booleans, same sum). sigma of
/// a failing neighbor is stale but finite, so the unconditional load is
/// safe and the multiply-by-comparison keeps the loop branch-free.
template <typename Nbr, typename PredAt>
inline double bc_pull_sigma_row(const Nbr* nb, std::int64_t deg,
                                const double* sigma, const PredAt& pred_at) {
  return bc_lane_sum(
      nb, deg,
      [sigma](Nbr u) { return sigma[static_cast<std::size_t>(u)]; }, pred_at,
      [sigma](Nbr u) { __builtin_prefetch(&sigma[static_cast<std::size_t>(u)]); });
}

/// Coefficient pull over one row: sum coef[u] over neighbors u exactly one
/// level deeper, reading the packed DistCoef line once per neighbor.
template <typename Nbr>
inline double bc_pull_coef_row(const Nbr* nb, std::int64_t deg,
                               const DistCoef* dc, std::int64_t deeper) {
  return bc_lane_sum(
      nb, deg, [dc](Nbr u) { return dc[u].coef; },
      [dc, deeper](Nbr u) { return dc[u].dist == deeper; },
      [dc](Nbr u) { __builtin_prefetch(&dc[u]); });
}

}  // namespace graphct
