#include "twitter/mention_graph.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <unordered_map>

#include "graph/builder.hpp"
#include "test_support.hpp"
#include "twitter/datasets.hpp"
#include "twitter/tweet_parser.hpp"
#include "util/parallel.hpp"

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

// The builder as written before interning moved into build(): parse_tweet,
// a serial first-seen dictionary, and one CSR build over every mention arc.
MentionGraph reference_build(const std::vector<Tweet>& tweets) {
  MentionGraph g;
  std::unordered_map<std::string, vid> ids;
  const auto intern = [&](const std::string& name) {
    const auto next = static_cast<vid>(g.users.size());
    auto [it, inserted] = ids.try_emplace(name, next);
    if (inserted) g.users.push_back(name);
    return it->second;
  };
  graphct::EdgeList el;
  std::vector<std::pair<std::size_t, std::size_t>> tweet_arcs;
  for (const Tweet& t : tweets) {
    const ParsedTweet p = parse_tweet(t);
    ++g.num_tweets;
    if (p.is_retweet) ++g.retweets;
    const vid author = intern(p.author);
    if (p.mentions.empty()) continue;
    ++g.tweets_with_mentions;
    const std::size_t first = el.size();
    bool self = false;
    for (const auto& m : p.mentions) {
      const vid target = intern(m);
      self = self || target == author;
      el.add(author, target);
    }
    if (self) ++g.self_references;
    tweet_arcs.emplace_back(first, el.size());
  }
  g.num_users = static_cast<std::int64_t>(g.users.size());
  el.set_num_vertices_hint(static_cast<vid>(g.users.size()));
  graphct::BuildOptions opts;
  opts.symmetrize = false;
  opts.dedup = true;
  g.directed = graphct::build_csr(el, opts);
  g.unique_interactions = g.directed.num_edges() - g.directed.num_self_loops();
  for (const auto& [first, last] : tweet_arcs) {
    for (std::size_t a = first; a < last; ++a) {
      const graphct::Edge e = el.edges()[a];
      if (e.dst != e.src && g.directed.has_edge(e.dst, e.src)) {
        ++g.tweets_with_responses;
        break;
      }
    }
  }
  return g;
}

MentionGraph build_all(const std::vector<Tweet>& tweets) {
  MentionGraphBuilder b;
  for (const auto& t : tweets) b.add(t);
  return std::move(b).build();
}

void expect_same_graph(const MentionGraph& got, const MentionGraph& want) {
  EXPECT_EQ(got.users, want.users);
  // Offsets, adjacency, flags and the self-loop count.
  EXPECT_TRUE(got.directed == want.directed);
  EXPECT_EQ(got.num_tweets, want.num_tweets);
  EXPECT_EQ(got.num_users, want.num_users);
  EXPECT_EQ(got.unique_interactions, want.unique_interactions);
  EXPECT_EQ(got.tweets_with_mentions, want.tweets_with_mentions);
  EXPECT_EQ(got.tweets_with_responses, want.tweets_with_responses);
  EXPECT_EQ(got.self_references, want.self_references);
  EXPECT_EQ(got.retweets, want.retweets);
  std::int64_t misplaced = 0;
  for (std::size_t v = 0; v < got.users.size(); ++v) {
    misplaced += got.id_of(got.users[v]) == static_cast<vid>(v) ? 0 : 1;
  }
  EXPECT_EQ(misplaced, 0);
}

// Tweets whose authors and texts repeat a small name pool in mixed case,
// with every scanner edge case in the texts.
std::vector<Tweet> random_tweets(std::size_t count, std::uint64_t seed) {
  static const char* const kAuthors[] = {"Bob", "bob", "AL_1", "x", "Zed",
                                         "cdc_ehealth", "u1", "U1"};
  graphct::Rng rng(seed);
  std::vector<Tweet> out;
  for (std::size_t i = 0; i < count; ++i) {
    std::string author = kAuthors[rng.next_below(std::size(kAuthors))];
    if (rng.next_bool(0.5)) author += std::to_string(rng.next_below(200));
    const auto id = static_cast<std::int64_t>(i);
    out.push_back({id, author, graphct::testing::random_tweet_text(rng), id});
  }
  return out;
}

// Parity with the reference at 1, 2 and 4 threads.
void expect_parity_across_threads(const std::vector<Tweet>& tweets) {
  const MentionGraph ref = reference_build(tweets);
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    graphct::set_num_threads(threads);
    expect_same_graph(build_all(tweets), ref);
  }
  graphct::set_num_threads(0);
}

TEST(MentionGraphParityTest, RandomTextsMatchSerialReference) {
  const auto tweets = random_tweets(6000, 14);
  ASSERT_GE(tweets.size(), MentionGraphBuilder::kSerialBelow);
  expect_parity_across_threads(tweets);
}

TEST(MentionGraphParityTest, H1n1PresetMatchesSerialReference) {
  const auto tweets = generate_corpus(dataset_preset("h1n1").corpus);
  ASSERT_GE(tweets.size(), MentionGraphBuilder::kSerialBelow);
  expect_parity_across_threads(tweets);
}

TEST(MentionGraphParityTest, TinyPresetBelowCutoffMatchesSerialReference) {
  const auto tweets = generate_corpus(dataset_preset("tiny").corpus);
  ASSERT_LT(tweets.size(), MentionGraphBuilder::kSerialBelow);
  expect_parity_across_threads(tweets);
}

TEST(MentionGraphParityTest, SmallBuildBelowCutoffMatchesSerialReference) {
  const auto tweets = random_tweets(60, 7);
  ASSERT_LT(tweets.size(), MentionGraphBuilder::kSerialBelow);
  expect_parity_across_threads(tweets);
}

TEST(MentionGraphTest, SingleMentionMakesOneArc) {
  const auto g = build({tw(1, "alice", "hi @bob")});
  EXPECT_EQ(g.num_users, 2);
  EXPECT_EQ(g.unique_interactions, 1);
  EXPECT_EQ(g.num_tweets, 1);
  EXPECT_EQ(g.tweets_with_mentions, 1);
  const vid a = g.id_of("alice");
  const vid b = g.id_of("bob");
  ASSERT_NE(a, graphct::kNoVertex);
  ASSERT_NE(b, graphct::kNoVertex);
  EXPECT_TRUE(g.directed.has_edge(a, b));
  EXPECT_FALSE(g.directed.has_edge(b, a));
}

TEST(MentionGraphTest, DuplicateInteractionsThrownOut) {
  const auto g = build({tw(1, "alice", "hi @bob"), tw(2, "alice", "yo @bob"),
                        tw(3, "ALICE", "again @BOB")});
  EXPECT_EQ(g.num_tweets, 3);
  EXPECT_EQ(g.unique_interactions, 1);  // the paper's dedup rule
}

TEST(MentionGraphTest, PlainTweetsAddIsolatedAuthors) {
  const auto g = build({tw(1, "alice", "just lunch"), tw(2, "bob", "hi @carol")});
  EXPECT_EQ(g.num_users, 3);
  EXPECT_EQ(g.tweets_with_mentions, 1);
  EXPECT_EQ(g.directed.degree(g.id_of("alice")), 0);
}

TEST(MentionGraphTest, SelfReferenceCounted) {
  const auto g = build({tw(1, "echo", "quoting @echo")});
  EXPECT_EQ(g.self_references, 1);
  EXPECT_EQ(g.unique_interactions, 0);  // self-loops are not interactions
  EXPECT_EQ(g.directed.num_self_loops(), 1);
}

TEST(MentionGraphTest, RetweetCounted) {
  const auto g = build({tw(1, "fan", "RT @hub the news")});
  EXPECT_EQ(g.retweets, 1);
  EXPECT_EQ(g.unique_interactions, 1);
}

TEST(MentionGraphTest, ResponsesAreReciprocatedTweets) {
  const auto g = build({
      tw(1, "a", "question for @b"),   // has a response (b mentions a)
      tw(2, "b", "answer to @a"),      // has a response (a mentions b)
      tw(3, "c", "shoutout @a"),       // no response: a never mentions c
  });
  EXPECT_EQ(g.tweets_with_responses, 2);
}

TEST(MentionGraphTest, MultiMentionTweetCountsOncePerTweet) {
  const auto g = build({
      tw(1, "a", "hey @b and @c"),  // reciprocated via b only
      tw(2, "b", "ok @a"),
  });
  EXPECT_EQ(g.tweets_with_responses, 2);
  EXPECT_EQ(g.unique_interactions, 3);
}

TEST(MentionGraphTest, UndirectedViewMergesDirections) {
  const auto g = build({tw(1, "a", "@b"), tw(2, "b", "@a"), tw(3, "a", "@c")});
  const auto u = g.undirected();
  EXPECT_FALSE(u.directed());
  EXPECT_EQ(u.num_edges(), 2);  // {a,b} and {a,c}
}

TEST(MentionGraphTest, IdOfUnknownUserIsNoVertex) {
  const auto g = build({tw(1, "a", "@b")});
  EXPECT_EQ(g.id_of("nobody"), graphct::kNoVertex);
}

TEST(MentionGraphTest, UsersArrayMatchesIds) {
  const auto g = build({tw(1, "a", "@b and @c")});
  for (vid v = 0; v < g.directed.num_vertices(); ++v) {
    EXPECT_EQ(g.id_of(g.users[static_cast<std::size_t>(v)]), v);
  }
}

TEST(MentionGraphTest, EmptyBuilder) {
  MentionGraphBuilder b;
  const auto g = std::move(b).build();
  EXPECT_EQ(g.num_users, 0);
  EXPECT_EQ(g.directed.num_vertices(), 0);
  EXPECT_EQ(g.id_of("anyone"), graphct::kNoVertex);
  EXPECT_EQ(MentionGraph{}.id_of("anyone"), graphct::kNoVertex);
}

TEST(MentionGraphTest, PaperConversationFigure1) {
  // The Fig. 1 H1N1 exchange: jaketapper <-> dancharles is a conversation.
  const auto g = build({
      tw(1, "jaketapper", "@EdMorrissey Asserting that all thats being done"),
      tw(2, "jaketapper", "@dancharles as someone with a pregnant wife"),
      tw(3, "dancharles", "RT @jaketapper @Slate: Sanjay Gupta has swine flu"),
  });
  const vid jt = g.id_of("jaketapper");
  const vid dc = g.id_of("dancharles");
  EXPECT_TRUE(g.directed.has_edge(jt, dc));
  EXPECT_TRUE(g.directed.has_edge(dc, jt));
  EXPECT_GE(g.tweets_with_responses, 2);
}

}  // namespace
}  // namespace graphct::twitter
