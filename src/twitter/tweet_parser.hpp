#pragma once

/// \file tweet_parser.hpp
/// Extraction of @mentions, #hashtags, and retweet markers from tweet text
/// (the Table I symbols).
///
/// TweetScan holds the one implementation of the extraction rules;
/// parse_tweet and MentionGraphBuilder both run on it.

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "twitter/tweet.hpp"

namespace graphct::twitter {

/// True for characters Twitter allows in a user name: ASCII letters, digits
/// and '_'. Bytes >= 0x80 never are, so "é@bob" mentions bob.
constexpr bool is_username_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

/// ASCII lowercase; every other byte is returned unchanged.
constexpr char to_lower_ascii(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

/// Normalize a user name: lowercase (Twitter handles are case-insensitive).
std::string normalize_username(std::string_view name);

/// 64-bit hash of a (normalized) user name, shared by the scanner's
/// duplicate check, the mention-graph interning and its name index. The
/// words are mixed with the splitmix64 finalizer, so both the top and the
/// bottom bits are usable as table indices.
inline std::uint64_t hash_username(std::string_view name) {
  const auto mix = [](std::uint64_t x) {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  };
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ name.size();
  std::size_t i = 0;
  for (; i + 8 <= name.size(); i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, name.data() + i, 8);
    h = mix(h ^ w);
  }
  std::uint64_t tail = 0;
  if (i < name.size()) std::memcpy(&tail, name.data() + i, name.size() - i);
  return mix(h ^ tail);
}

/// The Table I symbols of one tweet text. The rules:
///  * `RT @user` after optional leading whitespace marks a retweet of user
///    (a bare `RT @` is no retweet);
///  * a symbol glued to the end of a word ("mail@example") is no mention
///    or hashtag, and a bare '@' or '#' is none either;
///  * names and tags are lowercased;
///  * a user mentioned twice counts once, in first-occurrence order.
/// The found names are stored back to back in one buffer that each scan
/// reuses, so once the buffers fit the longest text a scan allocates
/// nothing.
class TweetScan {
 public:
  /// Scan `text`, replacing the previous result. Views returned below stay
  /// valid until the next scan.
  void scan(std::string_view text);

  [[nodiscard]] bool is_retweet() const { return is_retweet_; }
  /// The retweeted user ("" unless is_retweet()).
  [[nodiscard]] std::string_view retweet_of() const {
    return view(retweet_of_);
  }

  /// Distinct @-targets, in first-occurrence order.
  [[nodiscard]] std::size_t num_mentions() const { return mentions_.size(); }
  [[nodiscard]] std::string_view mention(std::size_t i) const {
    return view(mentions_[i]);
  }

  /// Every #-topic in text order, duplicates kept.
  [[nodiscard]] std::size_t num_hashtags() const { return hashtags_.size(); }
  [[nodiscard]] std::string_view hashtag(std::size_t i) const {
    return view(hashtags_[i]);
  }

 private:
  struct Span {
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  [[nodiscard]] std::string_view view(Span s) const {
    return {names_.data() + s.begin, s.end - s.begin};
  }
  Span append_lower(std::string_view raw);
  bool add_mention(Span name);

  std::string names_;
  std::vector<Span> mentions_;
  std::vector<Span> hashtags_;
  Span retweet_of_;
  bool is_retweet_ = false;
  // Open-addressing set of mention indices (linear probing), keyed by
  // hash_username, so a text with k mentions costs O(k). It keeps the size
  // of the longest text so far; used_ lists the slots the last scan filled,
  // which the next scan empties.
  std::vector<std::size_t> seen_;
  std::vector<std::size_t> used_;
};

/// Parse one tweet with TweetScan's rules into owned strings. Hashtags are
/// deduplicated too, in first-occurrence order.
ParsedTweet parse_tweet(const Tweet& tweet);

}  // namespace graphct::twitter
