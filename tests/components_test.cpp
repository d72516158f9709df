#include "algs/connected_components.hpp"

#include <gtest/gtest.h>

#include "gen/random_graphs.hpp"
#include "gen/shapes.hpp"
#include "test_support.hpp"
#include "util/error.hpp"

namespace graphct {
namespace {

using testing::make_directed;
using testing::make_undirected;
using testing::reference_components;

TEST(ComponentsTest, SingleComponent) {
  const auto g = cycle_graph(8);
  const auto labels = connected_components(g);
  for (vid v = 0; v < 8; ++v) {
    EXPECT_EQ(labels[static_cast<std::size_t>(v)], 0);
  }
}

TEST(ComponentsTest, AllIsolated) {
  const auto g = make_undirected(5, {});
  const auto labels = connected_components(g);
  for (vid v = 0; v < 5; ++v) {
    EXPECT_EQ(labels[static_cast<std::size_t>(v)], v);
  }
  const auto stats = component_stats(labels);
  EXPECT_EQ(stats.num_components, 5);
  EXPECT_EQ(stats.largest_size(), 1);
}

TEST(ComponentsTest, TwoComponentsMinLabel) {
  const auto g = make_undirected(6, {{3, 5}, {1, 2}, {2, 0}});
  const auto labels = connected_components(g);
  EXPECT_EQ(labels[0], 0);
  EXPECT_EQ(labels[1], 0);
  EXPECT_EQ(labels[2], 0);
  EXPECT_EQ(labels[3], 3);
  EXPECT_EQ(labels[5], 3);
  EXPECT_EQ(labels[4], 4);
}

TEST(ComponentsTest, DirectedInputThrows) {
  const auto g = make_directed(3, {{0, 1}});
  EXPECT_THROW(connected_components(g), Error);
}

TEST(WeakComponentsTest, SymmetrizesDirected) {
  const auto g = make_directed(4, {{0, 1}, {2, 1}, {3, 3}});
  const auto labels = weak_components(g);
  EXPECT_EQ(labels[0], 0);
  EXPECT_EQ(labels[1], 0);
  EXPECT_EQ(labels[2], 0);
  EXPECT_EQ(labels[3], 3);
}

TEST(ComponentStatsTest, SortsBySizeThenLabel) {
  std::vector<vid> labels{0, 0, 0, 3, 3, 5, 6};
  const auto stats = component_stats(labels);
  EXPECT_EQ(stats.num_components, 4);
  EXPECT_EQ(stats.sizes[0], (std::pair<vid, std::int64_t>{0, 3}));
  EXPECT_EQ(stats.sizes[1], (std::pair<vid, std::int64_t>{3, 2}));
  EXPECT_EQ(stats.sizes[2], (std::pair<vid, std::int64_t>{5, 1}));
  EXPECT_EQ(stats.sizes[3], (std::pair<vid, std::int64_t>{6, 1}));
  EXPECT_EQ(stats.largest_label(), 0);
  EXPECT_EQ(stats.largest_size(), 3);
}

TEST(ComponentStatsTest, RejectsLabelsThatAreNotVertexIds) {
  EXPECT_THROW(component_stats(std::vector<vid>{0, 2}), Error);
  EXPECT_THROW(component_stats(std::vector<vid>{0, kNoVertex}), Error);
  EXPECT_EQ(component_stats(std::vector<vid>{}).num_components, 0);
}

TEST(LargestComponentTest, ExtractsIt) {
  const auto g = make_undirected(7, {{0, 1}, {1, 2}, {2, 3}, {5, 6}});
  const auto sub = largest_component(g);
  EXPECT_EQ(sub.graph.num_vertices(), 4);
  EXPECT_EQ(sub.orig_ids, (std::vector<vid>{0, 1, 2, 3}));
}

TEST(NthLargestComponentTest, SecondComponent) {
  const auto g = make_undirected(7, {{0, 1}, {1, 2}, {2, 3}, {5, 6}});
  const auto sub = nth_largest_component(g, 1);
  EXPECT_EQ(sub.graph.num_vertices(), 2);
  EXPECT_EQ(sub.orig_ids, (std::vector<vid>{5, 6}));
}

TEST(NthLargestComponentTest, OutOfRangeThrows) {
  const auto g = make_undirected(3, {{0, 1}});
  EXPECT_THROW(nth_largest_component(g, 5), Error);
}

TEST(LargestComponentTest, DirectedKeepsArcs) {
  const auto g = make_directed(4, {{0, 1}, {1, 2}});
  const auto sub = largest_component(g);
  EXPECT_TRUE(sub.graph.directed());
  EXPECT_EQ(sub.graph.num_vertices(), 3);
  EXPECT_TRUE(sub.graph.has_edge(0, 1));
  EXPECT_FALSE(sub.graph.has_edge(1, 0));
}

// Property sweep: parallel labels match the serial BFS reference exactly
// (both are canonical min-id labels) across random fragmented graphs.
class ComponentsPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ComponentsPropertyTest, MatchesReferenceLabels) {
  Rng rng(GetParam());
  const vid n = 30 + static_cast<vid>(rng.next_below(300));
  // Sparse: expected fragmentation into many components.
  const auto m = static_cast<std::int64_t>(n / (1 + rng.next_below(3)));
  const auto g = erdos_renyi(n, m, GetParam() * 13 + 5);
  EXPECT_EQ(connected_components(g), reference_components(g));
}

INSTANTIATE_TEST_SUITE_P(RandomSparseGraphs, ComponentsPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 25));

TEST(ComponentsScaleTest, StarOfCliquesStructure) {
  const auto g = star_of_cliques(10, 5);
  const auto labels = connected_components(g);
  const auto stats = component_stats(labels);
  EXPECT_EQ(stats.num_components, 1);  // hub joins every clique
}

}  // namespace
}  // namespace graphct
