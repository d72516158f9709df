/// \file pipeline.cpp
/// Workload `pipeline_sep1`: the paper's §III flow on a generated tweet
/// corpus, through the twitter layer's public calls.
///
///   set-up  tweet_io::read_tweets (median of --setups loads)
///   pass    MentionGraphBuilder add+build -> subcommunity_filter ->
///           rank_users_by_betweenness(top 15, 256 sources)
///
/// Passes start while less than --seconds have elapsed (at least one);
/// run_s is their median. Checks: the funnel counts repeat exactly across
/// passes (run.py compares them with the generator's), and the top 15
/// match a fine-mode BC reference over the same sources within a relative
/// 1e-9 — coarse BC's float sum order depends on the schedule, so it is
/// not bitwise reproducible at more than one thread.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "core/betweenness.hpp"
#include "harness.hpp"
#include "obs/trace.hpp"
#include "twitter/conversation.hpp"
#include "twitter/mention_graph.hpp"
#include "twitter/tweet_io.hpp"
#include "util/parallel.hpp"

namespace perfbench {

namespace {

using namespace graphct::twitter;

constexpr double kScoreTolerance = 1e-9;
constexpr std::int64_t kTopUsers = 15;
constexpr std::int64_t kSources = 256;  // the paper's §V sample

struct Funnel {
  std::int64_t tweets = 0, users = 0, unique_interactions = 0;
  std::int64_t lwcc_vertices = 0, lwcc_edges = 0;
  std::int64_t mutual_vertices = 0, mutual_edges = 0;
  std::int64_t mutual_lwcc_vertices = 0;
  bool operator==(const Funnel&) const = default;
};

struct Pass {
  double seconds = 0.0;
  double build = 0.0, filter = 0.0, rank = 0.0;
  Funnel funnel;
  std::vector<RankedUser> top;
};

bool close_enough(double a, double b) {
  return std::abs(a - b) <= kScoreTolerance * std::max(1.0, std::abs(b));
}

}  // namespace

int run_pipeline(const Args& args) {
  const std::string path = args.required("tweets");
  const double budget = args.f64("seconds", 10.0);
  const bool traced = args.i64("trace", 0) != 0;
  const int setups = static_cast<int>(args.i64("setups", 3));

  graphct::BetweennessOptions bo;
  bo.num_sources = kSources;
  bo.seed = static_cast<std::uint64_t>(args.i64("seed", 1));

  Result res("pipeline_sep1");
  require_no_oversubscription("pipeline_sep1 kernels", graphct::num_threads());
  Trace trace(traced);

  std::vector<double> setup;
  std::vector<Tweet> tweets;
  for (int i = 0; i < setups; ++i) {
    std::vector<Tweet>().swap(tweets);  // each load allocates afresh
    Timed t(trace, "twitter.read");
    tweets = read_tweets(path);
    setup.push_back(t.stop());
    res.attempt();
  }
  std::fprintf(stderr, "pipeline: %zu tweets loaded in %.3f s (median)\n",
               tweets.size(), median(setup));

  MentionGraph last_mg;
  auto one_pass = [&](Trace& tr) {
    last_mg = MentionGraph{};  // one mention graph resident at a time
    Pass p;
    Timed pass(tr, "pipeline.pass");
    MentionGraph mg;
    {
      Timed t(tr, "twitter.build");
      MentionGraphBuilder builder;
      for (const auto& tw : tweets) builder.add(tw);
      mg = std::move(builder).build();
      p.build = t.stop();
    }
    SubcommunityResult sub;
    {
      Timed t(tr, "twitter.filter");
      sub = subcommunity_filter(mg);
      p.filter = t.stop();
    }
    {
      Timed t(tr, "twitter.rank");
      p.top = rank_users_by_betweenness(mg, kTopUsers, bo);
      p.rank = t.stop();
    }
    p.seconds = pass.stop();
    res.attempt(3);
    p.funnel = {mg.num_tweets,        mg.num_users,
                mg.unique_interactions, sub.lwcc_vertices,
                sub.lwcc_edges,       sub.mutual_vertices,
                sub.mutual_edges,     sub.mutual_lwcc_vertices};
    std::fprintf(stderr,
                 "pipeline pass: build %.3f  filter %.3f  rank %.3f  total "
                 "%.3f s\n",
                 p.build, p.filter, p.rank, p.seconds);
    last_mg = std::move(mg);
    return p;
  };

  const Passes<Pass> ps = run_passes<Pass>(budget, trace, one_pass);
  const auto secs = [](const Pass& p) { return p.seconds; };
  const double run_s = median_of(ps.plain, secs);

  // --- checks ---
  const Pass& ref_pass = ps.plain.front();
  bool same = true;
  for (const auto* set : {&ps.plain, &ps.traced}) {
    for (const auto& p : *set) same = same && p.funnel == ref_pass.funnel;
  }
  res.check("funnel_repeatable", same,
            "funnel counts identical over " +
                std::to_string(ps.plain.size() + ps.traced.size()) +
                " passes");

  const graphct::CsrGraph und = last_mg.undirected();
  graphct::BetweennessOptions fine = bo;
  fine.parallelism = graphct::BcParallelism::kFine;
  const auto ref = graphct::betweenness_centrality(und, fine);
  std::vector<double> ref_sorted = ref.score;
  std::sort(ref_sorted.begin(), ref_sorted.end(), std::greater<>());
  bool top_ok = static_cast<std::int64_t>(ref_pass.top.size()) ==
                std::min<std::int64_t>(kTopUsers, und.num_vertices());
  for (std::size_t i = 0; top_ok && i < ref_pass.top.size(); ++i) {
    const auto& u = ref_pass.top[i];
    top_ok = close_enough(u.score, ref.score[static_cast<std::size_t>(u.vertex)]) &&
             close_enough(u.score, ref_sorted[i]) &&
             u.name == last_mg.users[static_cast<std::size_t>(u.vertex)];
  }
  res.check("top15_vs_fine_reference", top_ok,
            "top " + std::to_string(ref_pass.top.size()) +
                " scores within 1e-9 relative of fine-mode BC (" +
                std::to_string(ref.sources_used) + " sources); leader " +
                (ref_pass.top.empty() ? std::string("-")
                                      : ref_pass.top.front().name));

  // --- results ---
  res.set("setup_s", median(setup));
  res.set("run_s", run_s);
  res.set("peak_rss_mb", peak_rss_mb(false));
  const Funnel& f = ref_pass.funnel;
  res.set("out.tweets", static_cast<double>(f.tweets));
  res.set("out.users", static_cast<double>(f.users));
  res.set("out.unique_interactions", static_cast<double>(f.unique_interactions));
  res.set("out.lwcc_vertices", static_cast<double>(f.lwcc_vertices));
  res.set("out.lwcc_edges", static_cast<double>(f.lwcc_edges));
  res.set("out.mutual_vertices", static_cast<double>(f.mutual_vertices));
  res.set("out.mutual_edges", static_cast<double>(f.mutual_edges));
  res.set("out.mutual_lwcc_vertices", static_cast<double>(f.mutual_lwcc_vertices));
  res.info("bc_graph", std::to_string(und.num_vertices()) + " vertices, " +
                           std::to_string(und.num_edges()) + " edges");
  res.info("passes", std::to_string(ps.plain.size()));

  if (traced) {
    res.set("obs.trace_overhead_s", trace_overhead(ps));
    res.set("twitter.read_s", median(setup));
    res.set("twitter.build_s",
            median_of(ps.traced, [](const Pass& p) { return p.build; }));
    res.set("twitter.filter_s",
            median_of(ps.traced, [](const Pass& p) { return p.filter; }));
    res.set("twitter.rank_s",
            median_of(ps.traced, [](const Pass& p) { return p.rank; }));
    res.set("twitter.tweets", static_cast<double>(f.tweets));
    res.set("twitter.users", static_cast<double>(f.users));
    res.set("twitter.mutual_vertices", static_cast<double>(f.mutual_vertices));
    {
      // graph.undirected is called inside filter and rank; a probe call
      // times one undirected view of this mention graph.
      Timed t(trace, "graph.undirected");
      const auto probe = last_mg.undirected();
      res.set("graph.undirected_s", t.stop());
    }
    report_bc_profiles(res, ps.bc_profiles);
    {
      graphct::set_num_threads(1);
      Timed t(trace, "core.bc.t1");
      const auto one = graphct::betweenness_centrality(und, bo);
      res.set("core.bc.t1_s", t.stop());
      graphct::set_num_threads(0);
    }
  }
  std::printf("%s\n", res.to_json(trace).c_str());
  return 0;
}

}  // namespace perfbench
