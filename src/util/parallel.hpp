#pragma once

/// \file parallel.hpp
/// OpenMP-based parallel primitives shared by every GraphCT kernel.
///
/// The paper's algorithms need exactly one synchronization primitive — an
/// atomic fetch-and-add — plus parallel loops and prefix sums; this header
/// provides portable versions of those on top of OpenMP. On the Cray XMT the
/// same roles were played by hardware int_fetch_add and the Threadstorm
/// stream scheduler.

#include <cstdint>
#include <span>
#include <vector>

namespace graphct {

/// Number of OpenMP threads a parallel region will use. This is the
/// *requested* count (omp_get_max_threads); the runtime may deliver fewer.
int num_threads();

/// Number of threads a parallel region actually materializes right now —
/// measured, not requested (OMP_THREAD_LIMIT, nesting, or the runtime can
/// cap the request). Spawns a trivial parallel region, so don't call it on
/// a hot path; profiles and job records use this.
int effective_num_threads();

/// Override the number of threads for subsequent parallel regions
/// (0 restores the runtime default). Records the requested and effective
/// counts as gauges (gct_omp_threads_{requested,effective}).
void set_num_threads(int n);

/// Atomic fetch-and-add on a 64-bit integer; returns the previous value.
/// This is the paper's sole synchronization primitive (§II-B).
std::int64_t fetch_add(std::int64_t& target, std::int64_t delta);

/// Atomic fetch-and-add on a double (used by centrality accumulation).
double fetch_add(double& target, double delta);

/// Atomic compare-and-swap: if target == expected, store desired and return
/// true. Used by label-absorption in connected components.
bool compare_and_swap(std::int64_t& target, std::int64_t expected,
                      std::int64_t desired);

/// Atomic minimum: target = min(target, value); returns true when the stored
/// value changed. Lock-free CAS loop.
bool atomic_min(std::int64_t& target, std::int64_t value);

/// Exclusive prefix sum of `in`, written to `out` (out[0] = 0); returns the
/// total. `in` and `out` may alias. Parallel two-pass block algorithm;
/// short inputs (under 16k elements) are summed serially.
std::int64_t exclusive_scan(std::span<const std::int64_t> in,
                            std::span<std::int64_t> out);

/// In-place exclusive prefix sum over a vector; returns the total.
std::int64_t exclusive_scan_inplace(std::vector<std::int64_t>& v);

/// Parallel sum reduction.
std::int64_t reduce_sum(std::span<const std::int64_t> v);
double reduce_sum(std::span<const double> v);

/// Parallel maximum; returns `identity` for an empty span.
std::int64_t reduce_max(std::span<const std::int64_t> v,
                        std::int64_t identity = 0);

/// Fill a span with a value in parallel.
void parallel_fill(std::span<std::int64_t> v, std::int64_t value);
void parallel_fill(std::span<double> v, double value);

/// Tree-combine equal-length per-thread accumulation buffers into `out`:
/// out[i] += Σ_b buffers[b][i]. Pairwise stages (log2 B of them), each a
/// parallel loop over the index range, replacing the sequential per-buffer
/// reduce that serialized the coarse centrality kernels. The buffers are
/// consumed: contents are unspecified afterwards unless `clear_buffers` is
/// set, which re-zeroes every buffer in the final pass so a batched
/// accumulator can reuse them without a separate fill sweep.
void tree_reduce_buffers(std::vector<std::vector<double>>& buffers,
                         std::span<double> out, bool clear_buffers = false);

}  // namespace graphct
