/// \file dist_bc.cpp
/// Workload `dist_bc`: distributed Brandes BC over loopback worker
/// processes (fork mode, --workers x --threads), driven through
/// dist::Coordinator on an R-MAT graph.
///
///   set-up  LocalWorkerSet spawn + Coordinator connect + load_graph
///           (median of --setups; every worker set is forked before this
///           process runs its first OpenMP region, because a child forked
///           after one blocks forever in libgomp)
///   pass    Coordinator::betweenness over the sampled sources
///
/// Check: every pass's scores bitwise equal to single-process fine-mode BC
/// over the same sources.

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/betweenness.hpp"
#include "dist/coordinator.hpp"
#include "dist/local_worker_set.hpp"
#include "graph/io_binary.hpp"
#include "harness.hpp"

namespace perfbench {

namespace {

constexpr std::int64_t kSources = 256;  // the paper's §V sample
constexpr int kWorkerThreads = 1;

struct Pass {
  double seconds = 0.0;
  std::vector<double> scores;
  graphct::dist::DistStats stats;
};

}  // namespace

int run_dist_bc(const Args& args) {
  const std::string path = args.required("graph");
  const double budget = args.f64("seconds", 10.0);
  const bool traced = args.i64("trace", 0) != 0;
  const int setups = static_cast<int>(args.i64("setups", 11));
  const int workers = static_cast<int>(args.i64("workers", 2));

  graphct::BetweennessOptions bo;
  bo.num_sources = kSources;
  bo.seed = static_cast<std::uint64_t>(args.i64("seed", 1));

  Result res("dist_bc");
  require_no_oversubscription("dist_bc workers x threads",
                              workers * kWorkerThreads);
  Trace trace(traced);

  graphct::dist::LocalWorkerSetOptions wo;
  wo.num_workers = workers;
  wo.fork_mode = true;
  wo.threads = kWorkerThreads;
  std::vector<std::unique_ptr<graphct::dist::LocalWorkerSet>> sets;
  std::vector<double> spawn;
  for (int i = 0; i < setups; ++i) {
    Timed t(trace, "dist.spawn");
    sets.push_back(std::make_unique<graphct::dist::LocalWorkerSet>(wo));
    spawn.push_back(t.stop());
  }

  const graphct::CsrGraph g = graphct::read_binary(path);
  std::vector<double> load, setup;
  std::unique_ptr<graphct::dist::Coordinator> coord;
  for (int i = 0; i < setups; ++i) {
    coord.reset();
    if (i > 0) sets[static_cast<std::size_t>(i) - 1]->stop();
    Timed t(trace, "dist.load");
    coord = std::make_unique<graphct::dist::Coordinator>();
    coord->connect(sets[static_cast<std::size_t>(i)]->ports());
    coord->load_graph(g);
    load.push_back(t.stop());
    setup.push_back(spawn[static_cast<std::size_t>(i)] + load.back());
    res.attempt();
  }

  const auto sources = graphct::choose_sources(g, bo);
  auto one_pass = [&](Trace& tr) {
    Pass p;
    Timed t(tr, "dist.bc");
    p.scores = coord->betweenness(sources);
    p.seconds = t.stop();
    p.stats = coord->last_kernel_stats();
    res.attempt();
    std::fprintf(stderr, "dist pass: bc %.3f s, %lld steps\n", p.seconds,
                 static_cast<long long>(p.stats.steps));
    return p;
  };
  const Passes<Pass> ps = run_passes<Pass>(budget, trace, one_pass);
  coord.reset();
  sets.back()->stop();

  graphct::BetweennessOptions fine = bo;
  fine.parallelism = graphct::BcParallelism::kFine;
  const double local_start = now_s();
  const auto local = graphct::betweenness_centrality(g, fine);
  const double local_seconds = now_s() - local_start;
  bool bitwise = true;
  for (const auto* set : {&ps.plain, &ps.traced}) {
    for (const auto& p : *set) {
      bitwise = bitwise && p.scores.size() == local.score.size() &&
                std::memcmp(p.scores.data(), local.score.data(),
                            local.score.size() * sizeof(double)) == 0;
    }
  }
  res.check("bitwise_vs_fine", bitwise,
            "every pass's " + std::to_string(local.score.size()) +
                " scores from " + std::to_string(workers) +
                " workers vs single-process fine mode over " +
                std::to_string(sources.size()) + " sources");

  const auto secs = [](const Pass& p) { return p.seconds; };
  res.set("setup_s", median(setup));
  res.set("run_s", median_of(ps.plain, secs));
  res.set("peak_rss_mb", peak_rss_mb(true));
  res.info("passes", std::to_string(ps.plain.size()));
  if (traced) {
    const double bc_s = median_of(ps.traced, secs);
    const graphct::dist::DistStats& stats = ps.traced.back().stats;
    res.set("obs.trace_overhead_s", trace_overhead(ps));
    res.set("dist.spawn_s", median(spawn));
    res.set("dist.load_s", median(load));
    res.set("dist.bc_s", bc_s);
    res.set("dist.steps", static_cast<double>(stats.steps));
    res.set("dist.messages",
            static_cast<double>(stats.messages_sent + stats.messages_received));
    res.set("dist.bytes",
            static_cast<double>(stats.bytes_sent + stats.bytes_received));
    res.set("dist.step_us",
            stats.steps > 0 ? bc_s / static_cast<double>(stats.steps) * 1e6 : 0.0);
    res.set("dist.local_bc_s", local_seconds);
  }
  std::printf("%s\n", res.to_json(trace).c_str());
  return 0;
}

}  // namespace perfbench
