#pragma once

/// \file test_support.hpp
/// Shared test fixtures: simple serial reference implementations that the
/// parallel kernels are validated against, plus small-graph helpers.

#include <algorithm>
#include <deque>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "graph/builder.hpp"
#include "graph/csr_graph.hpp"
#include "graph/edge_list.hpp"
#include "util/rng.hpp"

namespace graphct::testing {

/// Build an undirected deduplicated graph from an initializer list of edges.
inline CsrGraph make_undirected(vid n,
                                std::initializer_list<std::pair<vid, vid>> es) {
  EdgeList el(n);
  for (auto [u, v] : es) el.add(u, v);
  BuildOptions b;
  b.symmetrize = true;
  b.dedup = true;
  return build_csr(el, b);
}

/// Build a directed graph from an initializer list of arcs.
inline CsrGraph make_directed(vid n,
                              std::initializer_list<std::pair<vid, vid>> es) {
  EdgeList el(n);
  for (auto [u, v] : es) el.add(u, v);
  BuildOptions b;
  b.symmetrize = false;
  b.dedup = true;
  return build_csr(el, b);
}

/// Serial reference BFS distances (kNoVertex = unreachable).
inline std::vector<vid> reference_bfs_distances(const CsrGraph& g, vid s) {
  std::vector<vid> dist(static_cast<std::size_t>(g.num_vertices()), kNoVertex);
  std::deque<vid> q{s};
  dist[static_cast<std::size_t>(s)] = 0;
  while (!q.empty()) {
    const vid u = q.front();
    q.pop_front();
    for (vid v : g.neighbors(u)) {
      if (dist[static_cast<std::size_t>(v)] == kNoVertex) {
        dist[static_cast<std::size_t>(v)] = dist[static_cast<std::size_t>(u)] + 1;
        q.push_back(v);
      }
    }
  }
  return dist;
}

/// Serial reference connected components (min-id labels), undirected input.
inline std::vector<vid> reference_components(const CsrGraph& g) {
  const vid n = g.num_vertices();
  std::vector<vid> label(static_cast<std::size_t>(n), kNoVertex);
  for (vid s = 0; s < n; ++s) {
    if (label[static_cast<std::size_t>(s)] != kNoVertex) continue;
    std::deque<vid> q{s};
    label[static_cast<std::size_t>(s)] = s;
    while (!q.empty()) {
      const vid u = q.front();
      q.pop_front();
      for (vid v : g.neighbors(u)) {
        if (label[static_cast<std::size_t>(v)] == kNoVertex) {
          label[static_cast<std::size_t>(v)] = s;
          q.push_back(v);
        }
      }
    }
  }
  return label;
}

/// Serial reference Brandes betweenness (all sources, unnormalized,
/// directed-pair counting — each unordered pair contributes twice).
inline std::vector<double> reference_betweenness(const CsrGraph& g) {
  const vid n = g.num_vertices();
  std::vector<double> bc(static_cast<std::size_t>(n), 0.0);
  for (vid s = 0; s < n; ++s) {
    std::vector<double> sigma(static_cast<std::size_t>(n), 0.0);
    std::vector<double> delta(static_cast<std::size_t>(n), 0.0);
    std::vector<vid> dist(static_cast<std::size_t>(n), kNoVertex);
    std::vector<vid> stack;
    std::deque<vid> q{s};
    sigma[static_cast<std::size_t>(s)] = 1.0;
    dist[static_cast<std::size_t>(s)] = 0;
    while (!q.empty()) {
      const vid u = q.front();
      q.pop_front();
      stack.push_back(u);
      for (vid v : g.neighbors(u)) {
        if (dist[static_cast<std::size_t>(v)] == kNoVertex) {
          dist[static_cast<std::size_t>(v)] =
              dist[static_cast<std::size_t>(u)] + 1;
          q.push_back(v);
        }
        if (dist[static_cast<std::size_t>(v)] ==
            dist[static_cast<std::size_t>(u)] + 1) {
          sigma[static_cast<std::size_t>(v)] +=
              sigma[static_cast<std::size_t>(u)];
        }
      }
    }
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
      const vid w = *it;
      for (vid v : g.neighbors(w)) {
        if (dist[static_cast<std::size_t>(v)] ==
            dist[static_cast<std::size_t>(w)] - 1) {
          delta[static_cast<std::size_t>(v)] +=
              sigma[static_cast<std::size_t>(v)] /
              sigma[static_cast<std::size_t>(w)] *
              (1.0 + delta[static_cast<std::size_t>(w)]);
        }
      }
      if (w != s) bc[static_cast<std::size_t>(w)] += delta[static_cast<std::size_t>(w)];
    }
  }
  return bc;
}

/// Brute-force k-betweenness by walk enumeration: for every source s and
/// target t, enumerate all level-constrained walks of length <= d(t)+k via
/// DFS over the recurrence's step rule (each step may change BFS depth by
/// at most +1, and the running slack (length - depth) never exceeds k).
/// Credits each *intermediate occurrence* of a vertex, matching the library
/// semantics documented in kbetweenness.hpp. Exponential — tiny graphs only.
inline std::vector<double> brute_force_kbc(const CsrGraph& g, std::int64_t k) {
  const vid n = g.num_vertices();
  std::vector<double> bc(static_cast<std::size_t>(n), 0.0);
  for (vid s = 0; s < n; ++s) {
    const auto dist = reference_bfs_distances(g, s);
    // walks[t] = list of walks (vertex sequences) from s to t within slack k.
    std::map<vid, std::vector<std::vector<vid>>> walks;
    std::vector<vid> cur{s};
    // DFS over walks; a walk may end at any point (every prefix is a walk to
    // its endpoint), so record at each step.
    auto record = [&](const std::vector<vid>& w) {
      walks[w.back()].push_back(w);
    };
    // Iterative DFS with explicit stack of (walk, next neighbor index).
    struct Frame {
      vid v;
      std::size_t next = 0;
    };
    std::vector<Frame> st{{s, 0}};
    record(cur);
    while (!st.empty()) {
      Frame& f = st.back();
      const auto nbrs = g.neighbors(f.v);
      bool descended = false;
      while (f.next < nbrs.size()) {
        const vid u = nbrs[f.next++];
        if (dist[static_cast<std::size_t>(u)] == kNoVertex) continue;
        const std::int64_t len = static_cast<std::int64_t>(cur.size());  // new length
        const std::int64_t slack = len - dist[static_cast<std::size_t>(u)];
        if (slack < 0 || slack > k) continue;
        cur.push_back(u);
        st.push_back({u, 0});
        record(cur);
        descended = true;
        break;
      }
      if (!descended) {
        st.pop_back();
        cur.pop_back();
      }
    }
    // Accumulate pair dependencies.
    for (auto& [t, ws] : walks) {
      if (t == s) continue;
      const double total = static_cast<double>(ws.size());
      std::map<vid, double> through;
      for (const auto& w : ws) {
        for (std::size_t i = 1; i + 1 < w.size(); ++i) {
          if (w[i] == s) continue;  // BC excludes v == s (pairs s != v != t)
          through[w[i]] += 1.0;
        }
      }
      for (auto& [v, cnt] : through) {
        bc[static_cast<std::size_t>(v)] += cnt / total;
      }
    }
  }
  return bc;
}

/// Random tweet text made of the mention scanner's edge cases: '@' and '#'
/// at word edges, "RT @" with and without a name after optional leading
/// whitespace, mixed-case repeats of a few names, bytes >= 0x80 next to
/// '@', bare symbols, and names at the very end of the text.
inline std::string random_tweet_text(Rng& rng) {
  static const char* const kNames[] = {
      "bob", "Bob", "BOB", "al_1", "x", "CDC_eHealth", "cdc_ehealth", "z9",
      "a_rather_long_user_name_17"};
  static const char* const kLeads[] = {"", " ", "\t\n "};
  static const char* const kSeps[] = {" ", "", ",", "\t", "(", ")", ":",
                                      "\xC3\xA9", "\xFF", "-", "."};
  const auto pick = [&rng](const auto& list) {
    return list[rng.next_below(std::size(list))];
  };
  std::string t = pick(kLeads);
  if (rng.next_bool(0.3)) {
    t += "RT @";
    if (rng.next_bool(0.8)) t += pick(kNames);
  }
  const std::int64_t parts = rng.next_in(0, 10);
  for (std::int64_t p = 0; p < parts; ++p) {
    t += pick(kSeps);
    switch (rng.next_below(8)) {
      case 0:
      case 1:
      case 2:  // a mention
        t += '@';
        t += pick(kNames);
        break;
      case 3:  // a hashtag
        t += '#';
        t += pick(kNames);
        break;
      case 4:  // a word the next symbol may be glued to
        t += pick(kNames);
        break;
      case 5:  // a bare symbol
        t += rng.next_bool(0.5) ? '@' : '#';
        break;
      case 6:  // a high byte right before or after a mention
        t += "\xC3\xA9@";
        t += pick(kNames);
        if (rng.next_bool(0.5)) t += "\xE2\x80\xA6";
        break;
      default:  // doubled symbols
        t += rng.next_bool(0.5) ? "@@" : "#@";
        t += pick(kNames);
        break;
    }
  }
  return t;
}

}  // namespace graphct::testing
