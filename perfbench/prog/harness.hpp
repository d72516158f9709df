#pragma once

/// \file harness.hpp
/// Shared pieces of the benchmark program: argument parsing, the in-memory
/// span log of a traced run, small order statistics, and the one-line JSON
/// result every workload prints for perfbench/run.py to check and format.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

/// Seconds on the steady clock since the program started.
double now_s();

/// `--key value` pairs after the subcommand; every option takes a value.
class Args {
 public:
  Args(int argc, char** argv, int first);
  [[nodiscard]] std::string required(const std::string& key) const;
  [[nodiscard]] std::int64_t i64(const std::string& key,
                                 std::int64_t fallback) const;
  [[nodiscard]] double f64(const std::string& key, double fallback) const;

 private:
  std::map<std::string, std::string> kv_;
};

/// Spans recorded by the benchmark around its calls into the library:
/// name, start, end and parent, kept in memory and emitted with the result
/// when the run ends. A disabled log records nothing.
class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled) {}
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Open a span under the innermost open one; -1 when disabled.
  int open(const std::string& name);
  void close(int index);

  /// Record an already finished span under the innermost open one (for
  /// overlapping work such as pipelined requests).
  void add(const std::string& name, double start, double end);

  /// JSON array of {"name","start","end","parent"} objects.
  [[nodiscard]] std::string to_json() const;

 private:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
  };
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Times a block always (the stage times are results in every run) and
/// records it as a span when the trace is enabled.
class Timed {
 public:
  Timed(Trace& trace, const std::string& name)
      : trace_(trace), index_(trace.open(name)), start_(now_s()) {}
  ~Timed() { stop(); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

  /// Close the span (idempotent) and return its duration in seconds.
  double stop();

 private:
  Trace& trace_;
  int index_ = -1;
  double start_ = 0.0;
  double seconds_ = -1.0;
};

/// Median of a non-empty sample (mean of the middle two for even sizes).
double median(std::vector<double> v);

/// Nearest-rank quantile q in (0, 1] of a non-empty sample.
double quantile(std::vector<double> v, double q);

/// Peak resident set of this process (plus, optionally, the largest
/// reaped child) in MiB.
double peak_rss_mb(bool include_children);

class Result;

/// Report the BC kernel's obs profiles (median seconds and MTEPS, and the
/// depth-1 phase split of the last run) as core.bc.* per-layer values.
void report_bc_profiles(Result& res,
                        const std::vector<graphct::obs::KernelProfile>& bc);

/// Everything a workload run reports.
class Result {
 public:
  explicit Result(std::string workload) : workload_(std::move(workload)) {}

  void set(const std::string& name, double value);
  void check(const std::string& name, bool ok, const std::string& detail);
  void info(const std::string& key, const std::string& value);
  void attempt(std::int64_t n = 1) { attempted_ += n; }
  void fail(std::int64_t n = 1) { failed_ += n; }
  /// Mark the run invalid: run.py reports the reason and no result.
  void invalidate(const std::string& reason) { invalid_ = reason; }

  /// The whole result (values, checks, counts, host facts, run facts,
  /// spans) as one line of JSON.
  [[nodiscard]] std::string to_json(const Trace& trace) const;

 private:
  struct Check {
    std::string name;
    bool ok = false;
    std::string detail;
  };
  std::string workload_;
  std::vector<std::pair<std::string, double>> values_;
  std::vector<Check> checks_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::string invalid_;
};

/// Fail (throw) when `threads` requested exceeds the host's processors:
/// an oversubscribed configuration measures the scheduler, not the code.
void require_no_oversubscription(const std::string& what, int threads);

/// The timed passes of a batch workload.
template <class Pass>
struct Passes {
  std::vector<Pass> plain;   ///< untraced; plain[0] ran first in the process
  std::vector<Pass> traced;  ///< with spans and the obs kernel profile on
  std::vector<graphct::obs::KernelProfile> bc_profiles;  ///< of traced passes
};

/// Untraced runs start passes while less than `budget` seconds have
/// elapsed (at least one). Traced runs do one untraced pass first, which
/// pays the process's first-touch costs, then alternate traced and
/// untraced passes while the budget lasts (at least one of each); traced
/// passes also collect the obs profiles of their BC kernel runs.
template <class Pass, class Fn>
Passes<Pass> run_passes(double budget, Trace& trace, Fn&& pass) {
  Passes<Pass> out;
  Trace off(false);
  const double start = now_s();
  out.plain.push_back(pass(off));
  if (!trace.enabled()) {
    while (now_s() - start < budget) out.plain.push_back(pass(off));
    return out;
  }
  do {
    graphct::obs::clear_profiles();
    graphct::obs::set_profiling_enabled(true);
    out.traced.push_back(pass(trace));
    graphct::obs::set_profiling_enabled(false);
    for (auto& p : graphct::obs::drain_profiles()) {
      if (p.kernel == "bc") out.bc_profiles.push_back(std::move(p));
    }
    out.plain.push_back(pass(off));
  } while (now_s() - start < budget);
  return out;
}

/// Median of `field` over passes.
template <class Pass, class F>
double median_of(const std::vector<Pass>& passes, F field) {
  std::vector<double> v;
  for (const auto& p : passes) v.push_back(field(p));
  return median(v);
}

/// Traced minus untraced median pass time, leaving out the first
/// untraced pass (it alone pays first-touch costs).
template <class Pass>
double trace_overhead(const Passes<Pass>& ps) {
  const std::vector<Pass> warm(ps.plain.begin() + 1, ps.plain.end());
  const auto secs = [](const Pass& p) { return p.seconds; };
  return median_of(ps.traced, secs) - median_of(warm, secs);
}

/// Workload entry points; each prints its Result as the last stdout line
/// and returns the process exit code.
int run_pipeline(const Args& args);
int run_kernels(const Args& args);
int run_server_mixed(const Args& args);
int run_dist_bc(const Args& args);

/// Input generators (the harness side: run.py calls them before the
/// measured program starts, so the program receives only files).
int gen_corpus(const Args& args);
int gen_rmat(const Args& args);

}  // namespace perfbench
