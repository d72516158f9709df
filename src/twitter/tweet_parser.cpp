#include "twitter/tweet_parser.hpp"

#include <algorithm>
#include <bit>
#include <limits>

namespace graphct::twitter {

namespace {

constexpr std::size_t kNoMention = std::numeric_limits<std::size_t>::max();

bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

// End of the user name starting at text[b] (b itself when there is none).
std::size_t name_end(std::string_view text, std::size_t b) {
  while (b < text.size() && is_username_char(text[b])) ++b;
  return b;
}

}  // namespace

std::string normalize_username(std::string_view name) {
  std::string out(name);
  std::transform(out.begin(), out.end(), out.begin(), to_lower_ascii);
  return out;
}

TweetScan::Span TweetScan::append_lower(std::string_view raw) {
  const Span s{names_.size(), names_.size() + raw.size()};
  const auto begin = static_cast<std::ptrdiff_t>(s.begin);
  names_.append(raw);
  std::transform(names_.begin() + begin, names_.end(), names_.begin() + begin,
                 to_lower_ascii);
  return s;
}

bool TweetScan::add_mention(Span name) {
  const std::string_view n = view(name);
  const std::size_t mask = seen_.size() - 1;
  std::size_t slot = hash_username(n) & mask;
  for (; seen_[slot] != kNoMention; slot = (slot + 1) & mask) {
    if (view(mentions_[seen_[slot]]) == n) return false;
  }
  seen_[slot] = mentions_.size();
  used_.push_back(slot);
  mentions_.push_back(name);
  return true;
}

void TweetScan::scan(std::string_view text) {
  names_.clear();
  mentions_.clear();
  hashtags_.clear();
  for (const std::size_t slot : used_) seen_[slot] = kNoMention;
  used_.clear();
  // A mention takes at least two bytes, so a set of text.size() + 1 slots
  // stays at most half full.
  const std::size_t slots = std::bit_ceil(text.size() + 1);
  if (seen_.size() < slots) seen_.assign(slots, kNoMention);
  retweet_of_ = {};
  is_retweet_ = false;

  // Retweet marker: optional leading whitespace, then "RT @user".
  std::size_t start = 0;
  while (start < text.size() && is_space(text[start])) ++start;
  if (text.substr(start, 4) == "RT @") {
    const std::size_t b = start + 4;
    const std::size_t q = name_end(text, b);
    if (q > b) {
      is_retweet_ = true;
      retweet_of_ = append_lower(text.substr(b, q - b));
    }
  }

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c != '@' && c != '#') continue;
    // A symbol glued to the end of a word ("mail@example") is not a mention.
    if (i > 0 && is_username_char(text[i - 1])) continue;
    const std::size_t q = name_end(text, i + 1);
    if (q == i + 1) continue;  // bare '@' or '#'
    const Span token = append_lower(text.substr(i + 1, q - i - 1));
    if (c == '#') {
      hashtags_.push_back(token);
    } else if (!add_mention(token)) {
      names_.resize(token.begin);  // a repeat: drop its bytes
    }
    i = q - 1;
  }
}

ParsedTweet parse_tweet(const Tweet& tweet) {
  TweetScan scan;
  scan.scan(tweet.text);

  ParsedTweet p;
  p.id = tweet.id;
  p.author = normalize_username(tweet.author);
  p.timestamp = tweet.timestamp;
  p.is_retweet = scan.is_retweet();
  p.retweet_of = scan.retweet_of();
  p.mentions.reserve(scan.num_mentions());
  for (std::size_t i = 0; i < scan.num_mentions(); ++i) {
    p.mentions.emplace_back(scan.mention(i));
  }
  for (std::size_t i = 0; i < scan.num_hashtags(); ++i) {
    const std::string_view tag = scan.hashtag(i);
    if (std::find(p.hashtags.begin(), p.hashtags.end(), tag) ==
        p.hashtags.end()) {
      p.hashtags.emplace_back(tag);
    }
  }
  return p;
}

}  // namespace graphct::twitter
