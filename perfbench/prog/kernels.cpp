/// \file kernels.cpp
/// Workload `rmat_kernels`: the paper's §V kernel set on an R-MAT graph
/// (scale 17, edge factor 16, A/B/C/D = 0.55/0.10/0.10/0.25), through the
/// Toolkit facade.
///
///   set-up  Toolkit::load_binary, which runs the 256-BFS diameter
///           estimate (median of --setups loads)
///   pass    components -> kcore -> clustering -> BC (256 sources) ->
///           k-BC (k = 1, 64 sources); the result cache is invalidated
///           between passes, outside the timed part, so each pass computes
///
/// Checks: the Brandes identity sum_v BC(v) = sum_s sum_t (d(s,t) - 1) over
/// the sampled sources (distances from library BFS, relative 1e-9), and
/// kernel outputs that repeat exactly across passes. run.py compares the
/// component count with the generator's serial union-find.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "algs/bfs.hpp"
#include "core/betweenness.hpp"
#include "core/toolkit.hpp"
#include "harness.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"

namespace perfbench {

namespace {

constexpr std::int64_t kSources = 256;  // the paper's §V sample
constexpr std::int64_t kKbcSources = 64;

struct Pass {
  double seconds = 0.0;
  double components = 0.0, kcore = 0.0, clustering = 0.0, bc = 0.0, kbc = 0.0;
  std::int64_t num_components = 0;
  std::int64_t max_core = 0;
  std::int64_t triangles = 0;
  double bc_sum = 0.0;
  double kbc_sum = 0.0;
};

}  // namespace

int run_kernels(const Args& args) {
  const std::string path = args.required("graph");
  const double budget = args.f64("seconds", 10.0);
  const bool traced = args.i64("trace", 0) != 0;
  const int setups = static_cast<int>(args.i64("setups", 3));
  const auto seed = static_cast<std::uint64_t>(args.i64("seed", 1));

  graphct::ToolkitOptions topts;
  topts.seed = seed;
  graphct::BetweennessOptions bo;
  bo.num_sources = kSources;
  bo.seed = seed;
  graphct::KBetweennessOptions ko;
  ko.k = 1;
  ko.num_sources = kKbcSources;
  ko.seed = seed;

  Result res("rmat_kernels");
  require_no_oversubscription("rmat_kernels kernels", graphct::num_threads());
  Trace trace(traced);

  std::vector<double> setup;
  std::unique_ptr<graphct::Toolkit> tk;
  for (int i = 0; i < setups; ++i) {
    tk.reset();
    Timed t(trace, "core.toolkit_load");
    tk = std::make_unique<graphct::Toolkit>(
        graphct::Toolkit::load_binary(path, topts));
    setup.push_back(t.stop());
    res.attempt();
  }
  std::fprintf(stderr, "kernels: %lld vertices, %lld edges, load %.3f s\n",
               static_cast<long long>(tk->graph().num_vertices()),
               static_cast<long long>(tk->graph().num_edges()), median(setup));

  std::vector<double> last_bc;
  auto one_pass = [&](Trace& tr) {
    Pass p;
    Timed pass(tr, "kernels.pass");
    {
      Timed t(tr, "algs.components");
      p.num_components = tk->components_stats().num_components;
      p.components = t.stop();
    }
    {
      Timed t(tr, "algs.kcore");
      tk->core_numbers();
      p.kcore = t.stop();
    }
    {
      Timed t(tr, "algs.clustering");
      p.triangles = tk->clustering().total_triangles;
      p.clustering = t.stop();
    }
    {
      Timed t(tr, "core.bc");
      tk->betweenness(bo);
      p.bc = t.stop();
    }
    {
      Timed t(tr, "core.kbc");
      tk->k_betweenness(ko);
      p.kbc = t.stop();
    }
    p.seconds = pass.stop();
    res.attempt(5);
    const auto& cores = tk->core_numbers();
    p.max_core = cores.empty() ? 0 : *std::max_element(cores.begin(), cores.end());
    last_bc = tk->betweenness(bo).score;
    p.bc_sum = std::accumulate(last_bc.begin(), last_bc.end(), 0.0);
    const auto& kbc = tk->k_betweenness(ko).score;
    p.kbc_sum = std::accumulate(kbc.begin(), kbc.end(), 0.0);
    tk->invalidate();
    std::fprintf(stderr,
                 "kernels pass: cc %.3f  kcore %.3f  clustering %.3f  bc %.3f  "
                 "kbc %.3f  total %.3f s\n",
                 p.components, p.kcore, p.clustering, p.bc, p.kbc, p.seconds);
    return p;
  };

  const Passes<Pass> ps = run_passes<Pass>(budget, trace, one_pass);
  const auto secs = [](const Pass& p) { return p.seconds; };

  // --- checks ---
  const Pass& first = ps.plain.front();
  bool same = true;
  for (const auto* set : {&ps.plain, &ps.traced}) {
    for (const auto& p : *set) {
      same = same && p.num_components == first.num_components &&
             p.max_core == first.max_core && p.triangles == first.triangles &&
             std::abs(p.bc_sum - first.bc_sum) <= 1e-9 * first.bc_sum &&
             std::abs(p.kbc_sum - first.kbc_sum) <= 1e-9 * first.kbc_sum;
    }
  }
  res.check("kernels_repeatable", same,
            std::to_string(first.num_components) + " components, max core " +
                std::to_string(first.max_core) + ", " +
                std::to_string(first.triangles) + " triangles");

  const graphct::GraphView view = tk->view();
  const auto sources = graphct::choose_sources(view, bo);
  double path_sum = 0.0;
  for (const auto s : sources) {
    const auto r = graphct::bfs(view, s);
    for (const auto d : r.distance) {
      if (d != graphct::kNoVertex && d > 0) path_sum += static_cast<double>(d - 1);
    }
  }
  const double bc_sum = std::accumulate(last_bc.begin(), last_bc.end(), 0.0);
  const bool identity = std::abs(bc_sum - path_sum) <= 1e-9 * std::max(1.0, path_sum);
  char detail[160];
  std::snprintf(detail, sizeof detail,
                "sum BC %.6f vs sum (d-1) %.6f over %zu sources", bc_sum,
                path_sum, sources.size());
  res.check("brandes_identity", identity, detail);

  // --- results ---
  res.set("setup_s", median(setup));
  res.set("run_s", median_of(ps.plain, secs));
  res.set("peak_rss_mb", peak_rss_mb(false));
  res.set("out.components", static_cast<double>(first.num_components));
  res.set("out.vertices", static_cast<double>(view.num_vertices()));
  res.info("passes", std::to_string(ps.plain.size()));

  if (traced) {
    res.set("obs.trace_overhead_s", trace_overhead(ps));
    res.set("core.toolkit_load_s", median(setup));
    res.set("algs.components_s",
            median_of(ps.traced, [](const Pass& p) { return p.components; }));
    res.set("algs.kcore_s",
            median_of(ps.traced, [](const Pass& p) { return p.kcore; }));
    res.set("algs.clustering_s",
            median_of(ps.traced, [](const Pass& p) { return p.clustering; }));
    res.set("core.kbc_s",
            median_of(ps.traced, [](const Pass& p) { return p.kbc; }));
    report_bc_profiles(res, ps.bc_profiles);
    graphct::set_num_threads(1);
    {
      Timed t(trace, "core.bc.t1");
      graphct::betweenness_centrality(view, bo);
      res.set("core.bc.t1_s", t.stop());
    }
    graphct::set_num_threads(0);
  }
  std::printf("%s\n", res.to_json(trace).c_str());
  return 0;
}

}  // namespace perfbench
