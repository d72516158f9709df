#include "twitter/tweet_parser.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <unordered_set>

#include "test_support.hpp"

namespace graphct::twitter {
namespace {

Tweet tw(const std::string& author, const std::string& text) {
  return Tweet{1, author, text, 0};
}

TEST(TweetParserTest, SimpleMention) {
  const auto p = parse_tweet(tw("alice", "hello @bob how are you"));
  EXPECT_EQ(p.author, "alice");
  ASSERT_EQ(p.mentions.size(), 1u);
  EXPECT_EQ(p.mentions[0], "bob");
  EXPECT_FALSE(p.is_retweet);
}

TEST(TweetParserTest, MultipleMentionsInOrder) {
  const auto p = parse_tweet(tw("a", "@zed then @amy then @bob"));
  EXPECT_EQ(p.mentions, (std::vector<std::string>{"zed", "amy", "bob"}));
}

TEST(TweetParserTest, DuplicateMentionsCollapse) {
  const auto p = parse_tweet(tw("a", "@bob and @bob again @BOB"));
  EXPECT_EQ(p.mentions, (std::vector<std::string>{"bob"}));
}

TEST(TweetParserTest, NormalizesCase) {
  const auto p = parse_tweet(tw("ALICE", "cc @JakeTapper"));
  EXPECT_EQ(p.author, "alice");
  EXPECT_EQ(p.mentions[0], "jaketapper");
}

TEST(TweetParserTest, Hashtags) {
  const auto p = parse_tweet(tw("a", "flood pics #atlflood more #ATLflood #rain"));
  EXPECT_EQ(p.hashtags, (std::vector<std::string>{"atlflood", "rain"}));
}

TEST(TweetParserTest, RetweetDetection) {
  const auto p = parse_tweet(tw("dancharles", "RT @jaketapper @Slate: Sanjay Gupta has swine flu"));
  EXPECT_TRUE(p.is_retweet);
  EXPECT_EQ(p.retweet_of, "jaketapper");
  // Both the retweeted source and the nested mention count as mentions.
  EXPECT_EQ(p.mentions, (std::vector<std::string>{"jaketapper", "slate"}));
}

TEST(TweetParserTest, RetweetWithLeadingSpaces) {
  const auto p = parse_tweet(tw("a", "  RT @hub breaking"));
  EXPECT_TRUE(p.is_retweet);
  EXPECT_EQ(p.retweet_of, "hub");
}

TEST(TweetParserTest, RtWithoutAtIsNotRetweet) {
  const auto p = parse_tweet(tw("a", "RT this if you agree"));
  EXPECT_FALSE(p.is_retweet);
}

TEST(TweetParserTest, BareSymbolsIgnored) {
  const auto p = parse_tweet(tw("a", "email me @ home # yes"));
  EXPECT_TRUE(p.mentions.empty());
  EXPECT_TRUE(p.hashtags.empty());
}

TEST(TweetParserTest, EmbeddedAtIsNotAMention) {
  const auto p = parse_tweet(tw("a", "mail me at bob@example.com"));
  EXPECT_TRUE(p.mentions.empty());
}

TEST(TweetParserTest, MentionWithUnderscoreAndDigits) {
  const auto p = parse_tweet(tw("a", "props to @CDC_eHealth and @user123"));
  EXPECT_EQ(p.mentions, (std::vector<std::string>{"cdc_ehealth", "user123"}));
}

TEST(TweetParserTest, PunctuationTerminatesNames) {
  const auto p = parse_tweet(tw("a", "thanks @bob, @carol! and (@dave)"));
  EXPECT_EQ(p.mentions, (std::vector<std::string>{"bob", "carol", "dave"}));
}

TEST(TweetParserTest, SelfMention) {
  const auto p = parse_tweet(tw("echo", "I quote myself @echo all day"));
  ASSERT_EQ(p.mentions.size(), 1u);
  EXPECT_EQ(p.mentions[0], p.author);
}

TEST(TweetParserTest, EmptyText) {
  const auto p = parse_tweet(tw("a", ""));
  EXPECT_TRUE(p.mentions.empty());
  EXPECT_FALSE(p.is_retweet);
}

TEST(TweetParserTest, PaperExampleConversation) {
  // From Fig. 1 of the paper.
  const auto p = parse_tweet(tw(
      "jaketapper",
      "@EdMorrissey Asserting that all thats being done to prevent the "
      "spread of H1N1 is offering that hand-washing advice is just not true."));
  EXPECT_EQ(p.mentions, (std::vector<std::string>{"edmorrissey"}));
  EXPECT_FALSE(p.is_retweet);
}

TEST(TweetParserTest, BareRetweetMarkerIsNoRetweet) {
  const auto p = parse_tweet(tw("a", "RT @ look at @Bob"));
  EXPECT_FALSE(p.is_retweet);
  EXPECT_EQ(p.retweet_of, "");
  EXPECT_EQ(p.mentions, (std::vector<std::string>{"bob"}));
}

TEST(TweetParserTest, RetweetMarkerAfterTabsAndAtEnd) {
  const auto p = parse_tweet(tw("a", "\t\n RT @CDC"));
  EXPECT_TRUE(p.is_retweet);
  EXPECT_EQ(p.retweet_of, "cdc");
  EXPECT_EQ(p.mentions, (std::vector<std::string>{"cdc"}));
  EXPECT_FALSE(parse_tweet(tw("a", "rt @cdc")).is_retweet);
  EXPECT_FALSE(parse_tweet(tw("a", "x RT @cdc")).is_retweet);
}

TEST(TweetParserTest, SymbolsGluedToWordsAreIgnored) {
  const auto p = parse_tweet(tw("a", "word#tag and word@bob and _@carol 9#x"));
  EXPECT_TRUE(p.mentions.empty());
  EXPECT_TRUE(p.hashtags.empty());
}

TEST(TweetParserTest, DoubledSymbols) {
  // The first symbol is bare; the second follows a non-name byte.
  const auto p = parse_tweet(tw("a", "@@bob #@carol ##tag @#x"));
  EXPECT_EQ(p.mentions, (std::vector<std::string>{"bob", "carol"}));
  EXPECT_EQ(p.hashtags, (std::vector<std::string>{"tag", "x"}));
}

TEST(TweetParserTest, HighBytesAroundMentions) {
  // Bytes >= 0x80 are never part of a name: they neither glue a symbol to
  // a word nor extend a name.
  const auto p = parse_tweet(
      tw("a", "caf\xC3\xA9@Bob @carol\xE2\x80\xA6 @\xC3\xA9" "dave #\xFFtag"));
  EXPECT_EQ(p.mentions, (std::vector<std::string>{"bob", "carol"}));
  EXPECT_TRUE(p.hashtags.empty());
}

TEST(TweetParserTest, NamesAtEndOfText) {
  EXPECT_EQ(parse_tweet(tw("a", "hi @Zed")).mentions,
            (std::vector<std::string>{"zed"}));
  EXPECT_EQ(parse_tweet(tw("a", "hi #Zed")).hashtags,
            (std::vector<std::string>{"zed"}));
  EXPECT_TRUE(parse_tweet(tw("a", "hi @")).mentions.empty());
  EXPECT_TRUE(parse_tweet(tw("a", "@")).mentions.empty());
  EXPECT_EQ(parse_tweet(tw("a", "@b")).mentions,
            (std::vector<std::string>{"b"}));
}

TEST(TweetParserTest, MixedCaseHashtagsDeduplicated) {
  const auto p = parse_tweet(tw("a", "#Flu #FLU #flu #rain #Flu"));
  EXPECT_EQ(p.hashtags, (std::vector<std::string>{"flu", "rain"}));
}

TEST(TweetParserTest, ManyMentionsDeduplicatedInOrder) {
  // Forty names, then every third one again in reverse and upper case:
  // only the first occurrence of each stays, in text order.
  std::string text;
  std::vector<std::string> want;
  for (int i = 0; i < 40; ++i) {
    text += "@User" + std::to_string(i) + " ";
    want.push_back("user" + std::to_string(i));
  }
  for (int i = 39; i >= 0; i -= 3) text += "@USER" + std::to_string(i) + " ";
  text += "@late";
  want.emplace_back("late");
  EXPECT_EQ(parse_tweet(tw("a", text)).mentions, want);
}

// The parser as written before it moved onto TweetScan, kept as the oracle
// for the shared scanner.
ParsedTweet reference_parse(const Tweet& tweet) {
  const auto is_name = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
  };
  const auto lower = [](std::string_view s) {
    std::string out(s);
    for (char& c : out) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    return out;
  };
  ParsedTweet p;
  p.id = tweet.id;
  p.author = lower(tweet.author);
  p.timestamp = tweet.timestamp;
  const std::string_view text = tweet.text;
  std::unordered_set<std::string> seen;
  std::size_t start = 0;
  while (start < text.size() &&
         std::isspace(static_cast<unsigned char>(text[start]))) {
    ++start;
  }
  if (start + 4 <= text.size() && text.substr(start, 4) == "RT @") {
    std::size_t q = start + 4;
    while (q < text.size() && is_name(text[q])) ++q;
    if (q > start + 4) {
      p.is_retweet = true;
      p.retweet_of = lower(text.substr(start + 4, q - start - 4));
    }
  }
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c != '@' && c != '#') continue;
    if (i > 0 && is_name(text[i - 1])) continue;
    std::size_t q = i + 1;
    while (q < text.size() && is_name(text[q])) ++q;
    if (q == i + 1) continue;
    std::string token = lower(text.substr(i + 1, q - i - 1));
    if (c == '@') {
      if (seen.insert(token).second) p.mentions.push_back(std::move(token));
    } else if (std::find(p.hashtags.begin(), p.hashtags.end(), token) ==
               p.hashtags.end()) {
      p.hashtags.push_back(std::move(token));
    }
    i = q - 1;
  }
  return p;
}

TEST(TweetParserTest, RandomTextsMatchReferenceParser) {
  graphct::Rng rng(2009);
  for (int i = 0; i < 20000; ++i) {
    Tweet t{i, rng.next_bool(0.5) ? "Al_1" : "cdc_EHEALTH",
            graphct::testing::random_tweet_text(rng), i};
    const ParsedTweet got = parse_tweet(t);
    const ParsedTweet want = reference_parse(t);
    ASSERT_EQ(got.author, want.author) << t.text;
    ASSERT_EQ(got.mentions, want.mentions) << t.text;
    ASSERT_EQ(got.hashtags, want.hashtags) << t.text;
    ASSERT_EQ(got.is_retweet, want.is_retweet) << t.text;
    ASSERT_EQ(got.retweet_of, want.retweet_of) << t.text;
    ASSERT_EQ(got.id, want.id);
    ASSERT_EQ(got.timestamp, want.timestamp);
  }
}

TEST(TweetScanTest, ReusedScannerForgetsThePreviousText) {
  TweetScan scan;
  scan.scan("RT @hub #flu @a @b @a");
  ASSERT_EQ(scan.num_mentions(), 3u);
  scan.scan("plain @c");
  EXPECT_FALSE(scan.is_retweet());
  EXPECT_EQ(scan.retweet_of(), "");
  ASSERT_EQ(scan.num_mentions(), 1u);
  EXPECT_EQ(scan.mention(0), "c");
  EXPECT_EQ(scan.num_hashtags(), 0u);
}

TEST(TweetScanTest, ReusedScannerForgetsThePreviousMentions) {
  // A long text sizes the duplicate set; a shorter one after it mentions
  // the same names and must keep each once.
  TweetScan scan;
  std::string text;
  for (int i = 0; i < 30; ++i) text += "@u" + std::to_string(i) + " ";
  scan.scan(text);
  ASSERT_EQ(scan.num_mentions(), 30u);
  scan.scan("@u7 @u0 @U7 @new");
  ASSERT_EQ(scan.num_mentions(), 3u);
  EXPECT_EQ(scan.mention(0), "u7");
  EXPECT_EQ(scan.mention(1), "u0");
  EXPECT_EQ(scan.mention(2), "new");
}

TEST(NormalizeUsernameTest, Lowercases) {
  EXPECT_EQ(normalize_username("JakeTapper"), "jaketapper");
  EXPECT_EQ(normalize_username("CDC_eHealth"), "cdc_ehealth");
  EXPECT_EQ(normalize_username(""), "");
}

TEST(IsUsernameCharTest, Alphabet) {
  EXPECT_TRUE(is_username_char('a'));
  EXPECT_TRUE(is_username_char('Z'));
  EXPECT_TRUE(is_username_char('5'));
  EXPECT_TRUE(is_username_char('_'));
  EXPECT_FALSE(is_username_char(' '));
  EXPECT_FALSE(is_username_char('-'));
  EXPECT_FALSE(is_username_char('@'));
  EXPECT_FALSE(is_username_char('\xC3'));
  EXPECT_FALSE(is_username_char('\xFF'));
}

TEST(HashUsernameTest, EqualNamesHashEqual) {
  const std::string a = "a_rather_long_user_name_17";
  EXPECT_EQ(hash_username(a), hash_username(std::string_view(a)));
  EXPECT_NE(hash_username("bob"), hash_username("bob_"));
  EXPECT_NE(hash_username(""), hash_username(std::string_view("\0", 1)));
}

}  // namespace
}  // namespace graphct::twitter
