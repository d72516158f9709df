#include "twitter/conversation.hpp"

#include <gtest/gtest.h>

#include <set>

#include "algs/connected_components.hpp"
#include "twitter/datasets.hpp"

namespace graphct::twitter {
namespace {

Tweet tw(std::int64_t id, const std::string& author, const std::string& text) {
  return Tweet{id, author, text, id};
}

MentionGraph build(std::initializer_list<Tweet> tweets) {
  MentionGraphBuilder b;
  for (const auto& t : tweets) b.add(t);
  return std::move(b).build();
}

// A broadcast star (fans citing a hub) with one embedded conversation pair.
MentionGraph broadcast_with_conversation() {
  MentionGraphBuilder b;
  std::int64_t id = 1;
  for (int f = 0; f < 10; ++f) {
    b.add(tw(id++, "fan" + std::to_string(f), "RT @hub the news"));
  }
  b.add(tw(id++, "alice", "what do you think @bob"));
  b.add(tw(id++, "bob", "@alice I think so"));
  return std::move(b).build();
}

TEST(SubcommunityTest, MutualFilterStripsBroadcast) {
  const auto mg = broadcast_with_conversation();
  const auto r = subcommunity_filter(mg);
  // 13 users total (10 fans + hub + alice + bob).
  EXPECT_EQ(r.original_vertices, 13);
  // Only the reciprocated alice<->bob pair survives.
  EXPECT_EQ(r.mutual_vertices, 2);
  EXPECT_EQ(r.mutual_edges, 1);
  EXPECT_EQ(r.mutual_lwcc_vertices, 2);
  EXPECT_GT(r.reduction_factor, 6.0);
}

TEST(SubcommunityTest, OrigIdsPointIntoMentionGraph) {
  const auto mg = broadcast_with_conversation();
  const auto r = subcommunity_filter(mg);
  std::set<std::string> names;
  for (vid v : r.mutual.orig_ids) {
    names.insert(mg.users[static_cast<std::size_t>(v)]);
  }
  EXPECT_EQ(names, (std::set<std::string>{"alice", "bob"}));
  // Composed relabeling for the LWCC too.
  std::set<std::string> lwcc_names;
  for (vid v : r.mutual_lwcc.orig_ids) {
    lwcc_names.insert(mg.users[static_cast<std::size_t>(v)]);
  }
  EXPECT_EQ(lwcc_names, names);
}

TEST(SubcommunityTest, NoConversationsMeansEmptyMutualGraph) {
  const auto mg = build({tw(1, "a", "@hub"), tw(2, "b", "@hub")});
  const auto r = subcommunity_filter(mg);
  EXPECT_EQ(r.mutual_vertices, 0);
  EXPECT_EQ(r.mutual_lwcc_vertices, 0);
  EXPECT_DOUBLE_EQ(r.reduction_factor, 3.0);  // degenerate: reports original
}

TEST(SubcommunityTest, LwccOfOriginalComputed) {
  const auto mg = build({tw(1, "a", "@b"), tw(2, "c", "@d"), tw(3, "b", "@e")});
  const auto r = subcommunity_filter(mg);
  EXPECT_EQ(r.original_vertices, 5);
  EXPECT_EQ(r.lwcc_vertices, 3);  // a-b-e
  EXPECT_EQ(r.lwcc_edges, 2);
}

TEST(SubcommunityTest, LwccCountsMatchExtraction) {
  // Two largest components of 3 users each; the first-seen one (a, b, c)
  // has the smaller ids and so the smaller label, and wins the tie. Its
  // self-loop counts once. The other (d, e, f) has more edges, so the
  // tie-break shows in lwcc_edges. lone is isolated; quiet only mentions
  // themself.
  const auto mg = build({
      tw(1, "a", "@a @b"), tw(2, "b", "@c"),
      tw(3, "lone", "no mentions"),
      tw(4, "d", "@e @d"), tw(5, "e", "@f"), tw(6, "f", "@d @f"),
      tw(7, "quiet", "@quiet"),
  });
  const auto r = subcommunity_filter(mg);
  const graphct::Subgraph lwcc = graphct::largest_component(mg.undirected());
  EXPECT_EQ(r.lwcc_vertices, lwcc.graph.num_vertices());
  EXPECT_EQ(r.lwcc_edges, lwcc.graph.num_edges());
  EXPECT_EQ(r.lwcc_vertices, 3);
  EXPECT_EQ(r.lwcc_edges, 3);  // a-b, b-c and the loop at a
  std::set<std::string> names;
  for (vid v : lwcc.orig_ids) {
    names.insert(mg.users[static_cast<std::size_t>(v)]);
  }
  EXPECT_EQ(names, (std::set<std::string>{"a", "b", "c"}));
}

TEST(SubcommunityTest, LwccCountsMatchExtractionOnGeneratedCorpus) {
  MentionGraphBuilder b;
  for (const auto& t : generate_corpus(dataset_preset("tiny").corpus)) b.add(t);
  const auto mg = std::move(b).build();
  const auto r = subcommunity_filter(mg);
  const graphct::Subgraph lwcc = graphct::largest_component(mg.undirected());
  EXPECT_EQ(r.lwcc_vertices, lwcc.graph.num_vertices());
  EXPECT_EQ(r.lwcc_edges, lwcc.graph.num_edges());
}

TEST(SubcommunityTest, EmptyMentionGraph) {
  const auto r = subcommunity_filter(MentionGraphBuilder{}.build());
  EXPECT_EQ(r.original_vertices, 0);
  EXPECT_EQ(r.lwcc_vertices, 0);
  EXPECT_EQ(r.lwcc_edges, 0);
  EXPECT_EQ(r.mutual_vertices, 0);
}

TEST(SubcommunityTest, SelfReferenceIsNotAConversation) {
  const auto mg = build({tw(1, "echo", "@echo"), tw(2, "a", "@b"), tw(3, "b", "@a")});
  const auto r = subcommunity_filter(mg);
  EXPECT_EQ(r.mutual_vertices, 2);  // only a<->b
}

TEST(SubcommunityTest, TwoConversationClustersLwccPicksLarger) {
  const auto mg = build({
      tw(1, "a", "@b"), tw(2, "b", "@a"),            // pair
      tw(3, "x", "@y"), tw(4, "y", "@x"),            // triangle x-y-z
      tw(5, "y", "@z"), tw(6, "z", "@y"),
      tw(7, "z", "@x"), tw(8, "x", "@z"),
  });
  const auto r = subcommunity_filter(mg);
  EXPECT_EQ(r.mutual_vertices, 5);
  EXPECT_EQ(r.mutual_lwcc_vertices, 3);
  EXPECT_EQ(r.mutual_lwcc_edges, 3);
}

TEST(SccConversationsTest, FindsThreeWayLoopTheMutualFilterMisses) {
  // A -> B -> C -> A is a conversation ring with no reciprocated pair.
  const auto mg = build({
      tw(1, "a", "@b right?"),
      tw(2, "b", "@c agree?"),
      tw(3, "c", "@a yes!"),
      tw(4, "fan", "@hub news"),
  });
  const auto mutual = subcommunity_filter(mg);
  EXPECT_EQ(mutual.mutual_vertices, 0);  // mutual filter finds nothing
  const auto sccs = scc_conversations(mg);
  ASSERT_EQ(sccs.size(), 1u);
  EXPECT_EQ(sccs[0].graph.num_vertices(), 3);
  std::set<std::string> names;
  for (vid v : sccs[0].orig_ids) {
    names.insert(mg.users[static_cast<std::size_t>(v)]);
  }
  EXPECT_EQ(names, (std::set<std::string>{"a", "b", "c"}));
}

TEST(SccConversationsTest, SupersetOfMutualPairs) {
  const auto mg = build({tw(1, "a", "@b"), tw(2, "b", "@a"),
                         tw(3, "x", "@y"), tw(4, "y", "@x")});
  const auto sccs = scc_conversations(mg);
  EXPECT_EQ(sccs.size(), 2u);
  for (const auto& s : sccs) EXPECT_EQ(s.graph.num_vertices(), 2);
}

TEST(SccConversationsTest, SortsLargestFirstAndRespectsMinSize) {
  const auto mg = build({
      tw(1, "a", "@b"), tw(2, "b", "@c"), tw(3, "c", "@d"), tw(4, "d", "@a"),
      tw(5, "x", "@y"), tw(6, "y", "@x"),
      tw(7, "solo", "@hub"),
  });
  const auto sccs = scc_conversations(mg, 2);
  ASSERT_EQ(sccs.size(), 2u);
  EXPECT_EQ(sccs[0].graph.num_vertices(), 4);
  EXPECT_EQ(sccs[1].graph.num_vertices(), 2);
  const auto big_only = scc_conversations(mg, 3);
  EXPECT_EQ(big_only.size(), 1u);
}

TEST(RankUsersTest, HubDominatesBroadcastGraph) {
  const auto mg = broadcast_with_conversation();
  const auto ranked = rank_users_by_betweenness(mg, 3);
  ASSERT_EQ(ranked.size(), 3u);
  EXPECT_EQ(ranked[0].name, "hub");
  EXPECT_GT(ranked[0].score, 0.0);
  EXPECT_GE(ranked[0].score, ranked[1].score);
  EXPECT_GE(ranked[1].score, ranked[2].score);
}

TEST(RankUsersTest, CountClamps) {
  const auto mg = build({tw(1, "a", "@b")});
  const auto ranked = rank_users_by_betweenness(mg, 100);
  EXPECT_EQ(ranked.size(), 2u);
}

TEST(RankUsersTest, VertexIdsMatchNames) {
  const auto mg = broadcast_with_conversation();
  for (const auto& ru : rank_users_by_betweenness(mg, 5)) {
    EXPECT_EQ(mg.users[static_cast<std::size_t>(ru.vertex)], ru.name);
  }
}

}  // namespace
}  // namespace graphct::twitter
