/// \file gen.cpp
/// Input generators. They run as their own process before the measured
/// one, write the inputs, and write the expected values the checks in
/// run.py compare the measured program's outputs against. The expected
/// values come from a different route than the measured one: the funnel
/// from the in-memory corpus (no TSV round trip), the component count from
/// a serial union-find written here.

#include <cstdio>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "gen/rmat.hpp"
#include "graph/io_binary.hpp"
#include "harness.hpp"
#include "twitter/conversation.hpp"
#include "twitter/datasets.hpp"
#include "twitter/mention_graph.hpp"
#include "twitter/tweet_io.hpp"

namespace perfbench {

namespace {

void write_expected(const std::string& path,
                    const std::vector<std::pair<std::string, double>>& kv) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "{";
  for (std::size_t i = 0; i < kv.size(); ++i) {
    out << (i > 0 ? "," : "") << "\"" << kv[i].first << "\":";
    out << static_cast<long long>(kv[i].second);
  }
  out << "}\n";
}

std::int64_t count_components(const graphct::CsrGraph& g) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  std::vector<std::size_t> parent(n);
  std::iota(parent.begin(), parent.end(), std::size_t{0});
  auto find = [&parent](std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  std::int64_t components = static_cast<std::int64_t>(n);
  for (std::size_t u = 0; u < n; ++u) {
    for (const auto v : g.neighbors(static_cast<graphct::vid>(u))) {
      const std::size_t a = find(u);
      const std::size_t b = find(static_cast<std::size_t>(v));
      if (a != b) {
        parent[a] = b;
        --components;
      }
    }
  }
  return components;
}

}  // namespace

int gen_corpus(const Args& args) {
  auto preset = graphct::twitter::dataset_preset(args.required("preset"));
  preset.corpus.seed = static_cast<std::uint64_t>(args.i64("seed", 1));
  const auto tweets = graphct::twitter::generate_corpus(preset.corpus);
  graphct::twitter::write_tweets(tweets, args.required("out"));

  graphct::twitter::MentionGraphBuilder builder;
  for (const auto& t : tweets) builder.add(t);
  const auto mg = std::move(builder).build();
  const auto sub = graphct::twitter::subcommunity_filter(mg);
  write_expected(args.required("expected"),
                 {{"tweets", static_cast<double>(mg.num_tweets)},
                  {"users", static_cast<double>(mg.num_users)},
                  {"unique_interactions",
                   static_cast<double>(mg.unique_interactions)},
                  {"lwcc_vertices", static_cast<double>(sub.lwcc_vertices)},
                  {"lwcc_edges", static_cast<double>(sub.lwcc_edges)},
                  {"mutual_vertices", static_cast<double>(sub.mutual_vertices)},
                  {"mutual_edges", static_cast<double>(sub.mutual_edges)},
                  {"mutual_lwcc_vertices",
                   static_cast<double>(sub.mutual_lwcc_vertices)}});
  std::fprintf(stderr, "gen-corpus: %zu tweets, %lld users\n", tweets.size(),
               static_cast<long long>(mg.num_users));
  return 0;
}

int gen_rmat(const Args& args) {
  graphct::RmatOptions opts;
  opts.scale = args.i64("scale", 14);
  opts.edge_factor = 16;
  opts.seed = static_cast<std::uint64_t>(args.i64("seed", 1));
  const auto g = graphct::rmat_graph(opts);
  graphct::write_binary(g, args.required("out"));
  write_expected(args.required("expected"),
                 {{"vertices", static_cast<double>(g.num_vertices())},
                  {"edges", static_cast<double>(g.num_edges())},
                  {"components", static_cast<double>(count_components(g))}});
  std::fprintf(stderr, "gen-rmat: scale %lld, %lld vertices, %lld edges\n",
               static_cast<long long>(opts.scale),
               static_cast<long long>(g.num_vertices()),
               static_cast<long long>(g.num_edges()));
  return 0;
}

}  // namespace perfbench
