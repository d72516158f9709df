#include "util/parallel.hpp"

#include <omp.h>

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace graphct {

namespace {

// Scans shorter than this run serially: a team costs more than the sum.
constexpr std::int64_t kScanSerialBelow = 16384;

}  // namespace

int num_threads() { return omp_get_max_threads(); }

int effective_num_threads() { return obs::effective_threads(); }

void set_num_threads(int n) {
  if (n <= 0) {
    omp_set_num_threads(omp_get_num_procs());
  } else {
    omp_set_num_threads(n);
  }
  obs::registry()
      .gauge("gct_omp_threads_requested")
      .set(static_cast<double>(num_threads()));
  obs::registry()
      .gauge("gct_omp_threads_effective")
      .set(static_cast<double>(effective_num_threads()));
}

std::int64_t fetch_add(std::int64_t& target, std::int64_t delta) {
  std::int64_t old;
#pragma omp atomic capture
  {
    old = target;
    target += delta;
  }
  return old;
}

double fetch_add(double& target, double delta) {
  double old;
#pragma omp atomic capture
  {
    old = target;
    target += delta;
  }
  return old;
}

bool compare_and_swap(std::int64_t& target, std::int64_t expected,
                      std::int64_t desired) {
  return __atomic_compare_exchange_n(&target, &expected, desired,
                                     /*weak=*/false, __ATOMIC_SEQ_CST,
                                     __ATOMIC_SEQ_CST);
}

bool atomic_min(std::int64_t& target, std::int64_t value) {
  std::int64_t cur = __atomic_load_n(&target, __ATOMIC_RELAXED);
  while (value < cur) {
    if (__atomic_compare_exchange_n(&target, &cur, value, /*weak=*/true,
                                    __ATOMIC_SEQ_CST, __ATOMIC_RELAXED)) {
      return true;
    }
  }
  return false;
}

std::int64_t exclusive_scan(std::span<const std::int64_t> in,
                            std::span<std::int64_t> out) {
  GCT_ASSERT(in.size() == out.size());
  const std::int64_t n = static_cast<std::int64_t>(in.size());
  if (n < kScanSerialBelow) {
    std::int64_t run = 0;
    for (std::int64_t i = 0; i < n; ++i) {
      const std::int64_t x = in[static_cast<std::size_t>(i)];
      out[static_cast<std::size_t>(i)] = run;
      run += x;
    }
    return run;
  }

  const int nt = num_threads();
  std::vector<std::int64_t> block_sum(static_cast<std::size_t>(nt) + 1, 0);

  // The region may get fewer threads than requested (most importantly when
  // the caller is already inside a parallel region and nesting is off, where
  // the team collapses to 1) — so the total lives at block_sum[actual team
  // size], not block_sum[nt]. Indexing by nt here returned a stale 0 for
  // nested callers, which silently emptied every compacted BFS level.
  int team = 1;
#pragma omp parallel num_threads(nt)
  {
    const int t = omp_get_thread_num();
    const int p = omp_get_num_threads();
    const std::int64_t lo = n * t / p;
    const std::int64_t hi = n * (t + 1) / p;
    std::int64_t s = 0;
    for (std::int64_t i = lo; i < hi; ++i) s += in[static_cast<std::size_t>(i)];
    block_sum[static_cast<std::size_t>(t) + 1] = s;
#pragma omp barrier
#pragma omp single
    {
      for (int b = 0; b < p; ++b) block_sum[b + 1] += block_sum[b];
      team = p;
    }
    std::int64_t run = block_sum[static_cast<std::size_t>(t)];
    for (std::int64_t i = lo; i < hi; ++i) {
      const std::int64_t v = in[static_cast<std::size_t>(i)];
      out[static_cast<std::size_t>(i)] = run;
      run += v;
    }
  }
  return block_sum[static_cast<std::size_t>(team)];
}

std::int64_t exclusive_scan_inplace(std::vector<std::int64_t>& v) {
  return exclusive_scan(std::span<const std::int64_t>(v.data(), v.size()),
                        std::span<std::int64_t>(v.data(), v.size()));
}

std::int64_t reduce_sum(std::span<const std::int64_t> v) {
  std::int64_t s = 0;
  const std::int64_t n = static_cast<std::int64_t>(v.size());
#pragma omp parallel for reduction(+ : s) schedule(static)
  for (std::int64_t i = 0; i < n; ++i) s += v[static_cast<std::size_t>(i)];
  return s;
}

double reduce_sum(std::span<const double> v) {
  double s = 0;
  const std::int64_t n = static_cast<std::int64_t>(v.size());
#pragma omp parallel for reduction(+ : s) schedule(static)
  for (std::int64_t i = 0; i < n; ++i) s += v[static_cast<std::size_t>(i)];
  return s;
}

std::int64_t reduce_max(std::span<const std::int64_t> v,
                        std::int64_t identity) {
  std::int64_t m = identity;
  const std::int64_t n = static_cast<std::int64_t>(v.size());
#pragma omp parallel for reduction(max : m) schedule(static)
  for (std::int64_t i = 0; i < n; ++i)
    m = std::max(m, v[static_cast<std::size_t>(i)]);
  return m;
}

void parallel_fill(std::span<std::int64_t> v, std::int64_t value) {
  const std::int64_t n = static_cast<std::int64_t>(v.size());
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = value;
}

void parallel_fill(std::span<double> v, double value) {
  const std::int64_t n = static_cast<std::int64_t>(v.size());
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = value;
}

void tree_reduce_buffers(std::vector<std::vector<double>>& buffers,
                         std::span<double> out, bool clear_buffers) {
  const auto nb = static_cast<std::int64_t>(buffers.size());
  const auto n = static_cast<std::int64_t>(out.size());
  if (nb == 0) return;
  for (const auto& b : buffers) {
    GCT_ASSERT(static_cast<std::int64_t>(b.size()) >= n);
  }
  // Pairwise combine: after the last stage buffers[0] holds the full sum.
  // Summation order is fixed by the tree shape, not the schedule, so results
  // are reproducible for a given buffer count.
  for (std::int64_t stride = 1; stride < nb; stride *= 2) {
#pragma omp parallel for schedule(static)
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t b = 0; b + stride < nb; b += 2 * stride) {
        buffers[static_cast<std::size_t>(b)][static_cast<std::size_t>(i)] +=
            buffers[static_cast<std::size_t>(b + stride)]
                   [static_cast<std::size_t>(i)];
      }
    }
  }
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < n; ++i) {
    out[static_cast<std::size_t>(i)] +=
        buffers[0][static_cast<std::size_t>(i)];
    if (clear_buffers) {
      for (std::int64_t b = 0; b < nb; ++b) {
        buffers[static_cast<std::size_t>(b)][static_cast<std::size_t>(i)] = 0.0;
      }
    }
  }
}

}  // namespace graphct
