#pragma once

/// \file mention_graph.hpp
/// Building the user-to-user interaction graph from a tweet stream
/// (paper §III-B): "User interaction graphs are created by adding an edge
/// into the graph for every mention (denoted by the prefix @) of a user by
/// the tweet author. Duplicate user interactions are thrown out so that only
/// unique user-interactions are represented in the graph."

#include <string>
#include <string_view>
#include <vector>

#include "graph/csr_graph.hpp"
#include "twitter/tweet.hpp"
#include "twitter/tweet_parser.hpp"

namespace graphct::twitter {

using graphct::CsrGraph;
using graphct::vid;

/// Name -> vertex id lookup over a list of distinct user names: an
/// open-addressing table (linear probing, at most half full) of vertex ids,
/// keyed by hash_username(users[v]). It stores no names of its own, so it
/// answers only for the list it was built from, unchanged.
class UserIndex {
 public:
  UserIndex() = default;

  /// Index every name of `users`, which must be distinct. Filled in
  /// parallel from MentionGraphBuilder::kSerialBelow names on; the answers
  /// do not depend on the fill order.
  explicit UserIndex(const std::vector<std::string>& users);

  /// The v with users[v] == name, or kNoVertex.
  [[nodiscard]] vid find(std::string_view name,
                         const std::vector<std::string>& users) const;

 private:
  std::vector<vid> slots_;  // kNoVertex marks an empty slot
};

/// The mention graph plus the user-name dictionary and corpus statistics.
struct MentionGraph {
  /// Directed graph: arc author -> mentioned user, duplicates removed.
  /// Self-references (an author mentioning themself) are self-loops.
  CsrGraph directed;

  /// users[v] is the (normalized) name of vertex v. Vertex ids are given in
  /// first-seen order: the author, then the mentions, of each tweet in turn.
  std::vector<std::string> users;

  /// Reverse lookup over `users` (see id_of).
  UserIndex user_index;

  // --- Table III statistics ---
  std::int64_t num_tweets = 0;           ///< tweets ingested
  std::int64_t num_users = 0;            ///< distinct authors + mentionees
  std::int64_t unique_interactions = 0;  ///< distinct (author, mentionee)
                                         ///< pairs, author != mentionee
  std::int64_t tweets_with_mentions = 0; ///< tweets carrying >= 1 mention
  std::int64_t tweets_with_responses = 0;///< tweets mentioning a user who
                                         ///< mentions the author back
                                         ///< somewhere in the corpus
  std::int64_t self_references = 0;      ///< tweets whose author mentions
                                         ///< themself (§III-C "echo chamber")
  std::int64_t retweets = 0;             ///< tweets with the RT marker

  /// Undirected, deduplicated view — the form GraphCT's metrics consume.
  [[nodiscard]] CsrGraph undirected() const;

  /// Vertex id for a user name (kNoVertex when absent).
  [[nodiscard]] vid id_of(const std::string& normalized_name) const;
};

/// Incrementally ingest tweets and build the mention graph.
///
/// add() scans the tweet (TweetScan, no allocation per tweet) and appends
/// its lowercased author and distinct mentions to one flat name buffer.
/// build() does the rest in parallel — hashing every name occurrence,
/// interning them by hash shard, and building the CSR — and gives the same
/// ids as a serial first-seen dictionary at any thread count.
class MentionGraphBuilder {
 public:
  /// Builds of fewer tweets than this run serially, without opening an
  /// OpenMP team (the measured 4-thread crossover is ~2,000 tweets).
  static constexpr std::size_t kSerialBelow = 2048;

  /// Ingest one raw tweet.
  void add(const Tweet& tweet);

  /// Finish: intern names, deduplicate, build CSR, and compute the response
  /// statistics. The builder is consumed.
  MentionGraph build() &&;

 private:
  // A tweet with mentions: the occurrence index of its author (its mentions
  // are the occurrences right after) and the index of its first arc.
  struct MentionRun {
    std::size_t author = 0;
    std::size_t first_arc = 0;
  };

  TweetScan scan_;
  std::string names_;              // lowercased names, back to back
  // Occurrence i is names_[ends_[i-1], ends_[i]).
  std::vector<std::size_t> ends_;
  std::vector<MentionRun> runs_;
  std::size_t num_arcs_ = 0;
  std::int64_t num_tweets_ = 0;
  std::int64_t tweets_with_mentions_ = 0;
  std::int64_t self_references_ = 0;
  std::int64_t retweets_ = 0;
};

}  // namespace graphct::twitter
