#include "twitter/mention_graph.hpp"

#include <omp.h>

#include <algorithm>
#include <bit>

#include "graph/builder.hpp"
#include "graph/edge_list.hpp"
#include "graph/transforms.hpp"
#include "util/parallel.hpp"

namespace graphct::twitter {

namespace {

// Interning splits the name occurrences into 2^kShardBits shards by the top
// bits of their hash; one thread owns a shard. Any shard count gives the
// same ids.
constexpr int kShardBits = 8;
constexpr std::size_t kShards = std::size_t{1} << kShardBits;
constexpr std::size_t kNone = static_cast<std::size_t>(-1);

// Smallest power of two holding `n` entries at most half full.
std::size_t table_capacity(std::size_t n) { return std::bit_ceil(2 * n + 2); }

std::size_t shard_of(std::uint64_t hash) { return hash >> (64 - kShardBits); }

// The name occurrences of the builder's flat buffer: occurrence i is
// names[ends[i-1], ends[i]).
struct Occurrences {
  const std::string& names;
  const std::vector<std::size_t>& ends;

  [[nodiscard]] std::string_view operator[](std::size_t i) const {
    const std::size_t b = i == 0 ? 0 : ends[i - 1];
    return {names.data() + b, ends[i] - b};
  }
};

struct Interned {
  std::vector<vid> id;             // vertex id of each occurrence
  std::vector<std::string> users;  // name of each vertex id
};

// Give every distinct name the position of its first occurrence among the
// distinct names — the ids of a serial first-seen dictionary — in parallel:
//  1. hash each occurrence and bucket the occurrences by hash shard,
//     keeping them in occurrence order within a shard;
//  2. each shard's thread walks its occurrences in order, so the first one
//     it meets of a name is that name's first occurrence overall;
//  3. an exclusive scan over the "first occurrence" flags numbers the
//     first occurrences in order; every other occurrence copies the id of
//     its name's first one.
// Nothing here depends on the thread count, the block split or kShards.
Interned intern(const Occurrences& occ, bool par) {
  const std::size_t n = occ.ends.size();
  std::vector<std::uint64_t> hash(n);
  std::vector<std::size_t> by_shard(n);  // occurrences grouped by shard
  std::vector<std::size_t> first(n);     // first occurrence of the same name
  std::vector<std::size_t> shard_begin(kShards + 1, 0);
  std::vector<std::size_t> counts;  // per thread: shard counts, then firsts
  Interned out;
  out.id.resize(n);

#pragma omp parallel if (par)
  {
    const auto nt = static_cast<std::size_t>(omp_get_num_threads());
    const auto t = static_cast<std::size_t>(omp_get_thread_num());
    const std::size_t lo = n * t / nt;
    const std::size_t hi = n * (t + 1) / nt;
#pragma omp single
    counts.assign(nt * kShards, 0);
    std::size_t* mine = counts.data() + t * kShards;
    for (std::size_t i = lo; i < hi; ++i) {
      hash[i] = hash_username(occ[i]);
      ++mine[shard_of(hash[i])];
    }
#pragma omp barrier
#pragma omp single
    {
      // Shard-major, then block order: block t's share of shard s lands
      // after every earlier block's, so each shard stays in occurrence order.
      std::size_t at = 0;
      for (std::size_t s = 0; s < kShards; ++s) {
        shard_begin[s] = at;
        for (std::size_t b = 0; b < nt; ++b) {
          const std::size_t c = counts[b * kShards + s];
          counts[b * kShards + s] = at;
          at += c;
        }
      }
      shard_begin[kShards] = at;
    }
    for (std::size_t i = lo; i < hi; ++i) {
      by_shard[mine[shard_of(hash[i])]++] = i;
    }
#pragma omp barrier

    std::vector<std::size_t> table;  // this thread's open-addressing table
#pragma omp for schedule(dynamic, 1)
    for (std::size_t s = 0; s < kShards; ++s) {
      const std::size_t b = shard_begin[s];
      const std::size_t e = shard_begin[s + 1];
      table.assign(table_capacity(e - b), kNone);
      const std::size_t mask = table.size() - 1;
      for (std::size_t j = b; j < e; ++j) {
        const std::size_t i = by_shard[j];
        std::size_t slot = hash[i] & mask;
        while (table[slot] != kNone &&
               (hash[table[slot]] != hash[i] || occ[table[slot]] != occ[i])) {
          slot = (slot + 1) & mask;
        }
        if (table[slot] == kNone) table[slot] = i;
        first[i] = table[slot];
      }
    }

    // Exclusive scan over the first-occurrence flags, in blocks.
    std::size_t firsts = 0;
    for (std::size_t i = lo; i < hi; ++i) firsts += first[i] == i ? 1 : 0;
    counts[t] = firsts;
#pragma omp barrier
#pragma omp single
    {
      std::size_t at = 0;
      for (std::size_t b = 0; b < nt; ++b) {
        const std::size_t c = counts[b];
        counts[b] = at;
        at += c;
      }
      out.users.resize(at);
    }
    auto next = static_cast<vid>(counts[t]);
    for (std::size_t i = lo; i < hi; ++i) {
      if (first[i] != i) continue;
      out.users[static_cast<std::size_t>(next)] = occ[i];
      out.id[i] = next++;
    }
#pragma omp barrier
    for (std::size_t i = lo; i < hi; ++i) {
      if (first[i] != i) out.id[i] = out.id[first[i]];
    }
  }
  return out;
}

}  // namespace

UserIndex::UserIndex(const std::vector<std::string>& users) {
  if (users.empty()) return;
  slots_.assign(table_capacity(users.size()), graphct::kNoVertex);
  const std::size_t mask = slots_.size() - 1;
  const auto n = static_cast<vid>(users.size());
  // Names are distinct and no slot is ever emptied, so whatever order the
  // slots are claimed in, probing from a name's hash finds it before any
  // empty slot.
#pragma omp parallel for schedule(static) \
    if (users.size() >= MentionGraphBuilder::kSerialBelow)
  for (vid v = 0; v < n; ++v) {
    std::size_t slot = hash_username(users[static_cast<std::size_t>(v)]) & mask;
    while (!graphct::compare_and_swap(slots_[slot], graphct::kNoVertex, v)) {
      slot = (slot + 1) & mask;
    }
  }
}

vid UserIndex::find(std::string_view name,
                    const std::vector<std::string>& users) const {
  if (slots_.empty()) return graphct::kNoVertex;
  const std::size_t mask = slots_.size() - 1;
  std::size_t slot = hash_username(name) & mask;
  while (slots_[slot] != graphct::kNoVertex &&
         users[static_cast<std::size_t>(slots_[slot])] != name) {
    slot = (slot + 1) & mask;
  }
  return slots_[slot];
}

CsrGraph MentionGraph::undirected() const {
  return graphct::to_undirected(directed);
}

vid MentionGraph::id_of(const std::string& normalized_name) const {
  return user_index.find(normalized_name, users);
}

void MentionGraphBuilder::add(const Tweet& tweet) {
  scan_.scan(tweet.text);
  ++num_tweets_;
  if (scan_.is_retweet()) ++retweets_;

  const std::size_t author = ends_.size();
  const auto author_begin = static_cast<std::ptrdiff_t>(names_.size());
  names_.append(tweet.author);
  std::transform(names_.begin() + author_begin, names_.end(),
                 names_.begin() + author_begin, to_lower_ascii);
  ends_.push_back(names_.size());
  const std::size_t mentions = scan_.num_mentions();
  if (mentions == 0) return;

  ++tweets_with_mentions_;
  const std::string_view lowered = Occurrences{names_, ends_}[author];
  bool self = false;
  for (std::size_t m = 0; m < mentions; ++m) {
    self = self || scan_.mention(m) == lowered;
  }
  if (self) ++self_references_;
  for (std::size_t m = 0; m < mentions; ++m) {
    names_.append(scan_.mention(m));
    ends_.push_back(names_.size());
  }
  runs_.push_back({author, num_arcs_});
  num_arcs_ += mentions;
}

MentionGraph MentionGraphBuilder::build() && {
  const bool par = static_cast<std::size_t>(num_tweets_) >= kSerialBelow &&
                   graphct::num_threads() > 1;
  Interned in = intern(Occurrences{names_, ends_}, par);
  std::string().swap(names_);
  std::vector<std::size_t>().swap(ends_);

  MentionGraph g;
  g.num_tweets = num_tweets_;
  g.tweets_with_mentions = tweets_with_mentions_;
  g.self_references = self_references_;
  g.retweets = retweets_;
  g.num_users = static_cast<std::int64_t>(in.users.size());

  // One arc per mention occurrence: run r's arcs follow its author.
  graphct::EdgeList el(static_cast<vid>(in.users.size()));
  auto& arcs = el.edges();
  arcs.resize(num_arcs_);
  const auto nr = static_cast<std::int64_t>(runs_.size());
  const auto arcs_end = [&](std::int64_t r) {
    return r + 1 < nr ? runs_[static_cast<std::size_t>(r) + 1].first_arc
                      : num_arcs_;
  };
#pragma omp parallel for schedule(static) if (par)
  for (std::int64_t r = 0; r < nr; ++r) {
    const MentionRun& run = runs_[static_cast<std::size_t>(r)];
    const vid author = in.id[run.author];
    std::size_t o = run.author;
    for (std::size_t a = run.first_arc; a < arcs_end(r); ++a) {
      arcs[a] = {author, in.id[++o]};
    }
  }
  std::vector<vid>().swap(in.id);

  graphct::BuildOptions opts;
  opts.symmetrize = false;   // keep direction for the conversation filter
  opts.dedup = true;         // "duplicate user interactions are thrown out"
  opts.remove_self_loops = false;
  opts.sort_adjacency = true;
  g.directed = graphct::build_csr(el, opts);

  // Unique interactions exclude self-loops (an interaction needs two users).
  g.unique_interactions =
      g.directed.num_edges() - g.directed.num_self_loops();

  // A tweet "has a response" when it mentions at least one user who mentions
  // the author back somewhere in the corpus — i.e. it lies on a reciprocated
  // (conversation) arc.
  std::int64_t responses = 0;
#pragma omp parallel for reduction(+ : responses) schedule(dynamic, 256) \
    if (par)
  for (std::int64_t r = 0; r < nr; ++r) {
    const std::size_t begin = runs_[static_cast<std::size_t>(r)].first_arc;
    const vid author = arcs[begin].src;
    for (std::size_t a = begin; a < arcs_end(r); ++a) {
      const vid target = arcs[a].dst;
      if (target != author && g.directed.has_edge(target, author)) {
        ++responses;
        break;
      }
    }
  }
  g.tweets_with_responses = responses;

  g.users = std::move(in.users);
  g.user_index = UserIndex(g.users);
  return g;
}

}  // namespace graphct::twitter
