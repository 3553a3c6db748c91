// Movie directory tests: entry schema, generic attributes, filter algebra
// (with a property check), DSA operations and chained distributed search,
// and a seeded differential test against a naive linear-scan model.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <set>

#include "common/rng.hpp"
#include "common/strf.hpp"
#include "directory/directory.hpp"

namespace mcam::directory {
namespace {

MovieEntry sample(const std::string& title, Format fmt = Format::Mjpeg,
                  const std::string& rights = "public") {
  MovieEntry e;
  e.title = title;
  e.format = fmt;
  e.width = 320;
  e.height = 240;
  e.fps = 25.0;
  e.duration_frames = 1500;
  e.location_host = "ksr1";
  e.location_path = "/movies/" + title;
  e.rights = rights;
  e.size_bytes = 12'000'000;
  return e;
}

TEST(MovieEntry, AttributeRoundTrip) {
  MovieEntry e = sample("casablanca");
  EXPECT_EQ(*e.attribute("title"), "casablanca");
  EXPECT_EQ(*e.attribute("format"), "mjpeg");
  EXPECT_EQ(*e.attribute("width"), "320");
  EXPECT_EQ(*e.attribute("duration"), "1500");
  EXPECT_FALSE(e.attribute("nonsense").has_value());

  ASSERT_TRUE(e.set_attribute("format", "mpeg1").ok());
  EXPECT_EQ(e.format, Format::Mpeg1);
  ASSERT_TRUE(e.set_attribute("width", "640").ok());
  EXPECT_EQ(e.width, 640);
  EXPECT_FALSE(e.set_attribute("format", "divx").ok());
  EXPECT_FALSE(e.set_attribute("width", "not-a-number").ok());
  EXPECT_FALSE(e.set_attribute("nonsense", "x").ok());
}

TEST(MovieEntry, NumericAttributesParseStrictly) {
  MovieEntry e = sample("strict");
  // Each value must be a whole number of the field's type; a rejected value
  // leaves the field as it was.
  const std::pair<const char*, const char*> rejected[] = {
      {"width", "640x"},     {"width", " 640"},  {"width", ""},
      {"height", "2.5"},     {"width", "+640"},  {"size", "-1"},
      {"duration", "-1500"}, {"size", "12MB"},   {"fps", "nan"},
      {"fps", "inf"},        {"fps", "-inf"},    {"fps", "25fps"},
      {"fps", ""},           {"width", "99999999999"},
  };
  for (const auto& [name, value] : rejected) {
    auto st = e.set_attribute(name, value);
    ASSERT_FALSE(st.ok()) << name << "=" << value;
    EXPECT_EQ(st.error().code, kBadAttribute) << name << "=" << value;
  }
  EXPECT_EQ(e.width, 320);
  EXPECT_EQ(e.height, 240);
  EXPECT_EQ(e.size_bytes, 12'000'000u);
  EXPECT_EQ(e.duration_frames, 1500u);
  EXPECT_DOUBLE_EQ(e.fps, 25.0);

  ASSERT_TRUE(e.set_attribute("fps", "29.97").ok());
  EXPECT_EQ(*e.attribute("fps"), "29.970");
  ASSERT_TRUE(e.set_attribute("size", "18446744073709551615").ok());
  EXPECT_EQ(*e.attribute("size"), "18446744073709551615");
  ASSERT_TRUE(e.set_attribute("width", "-5").ok());  // signed field
  EXPECT_EQ(*e.attribute("width"), "-5");
}

TEST(MovieEntry, AttributeTextMatchesAttribute) {
  MovieEntry e = sample("text");
  e.fps = 1e300;  // %.3f of a huge value still fits the buffer
  AttrBuffer buf;
  for (std::size_t i = 0; i < kAttrCount; ++i) {
    const auto id = static_cast<AttrId>(i);
    EXPECT_EQ(attr_id(attr_name(id)), id);
    EXPECT_EQ(std::string(e.attribute_text(id, buf)),
              *e.attribute(attr_name(id)));
  }
  EXPECT_EQ(*e.attribute("fps"), common::strf("%.3f", 1e300));
  EXPECT_FALSE(attr_id("nonsense").has_value());
}

TEST(MovieEntry, AttributesListsAllTen) {
  const auto attrs = sample("x").attributes();
  EXPECT_EQ(attrs.size(), 10u);
  EXPECT_EQ(attrs.front().first, "title");
}

TEST(Formats, NamesRoundTrip) {
  for (Format f : {Format::RawRgb, Format::Colormap, Format::Mjpeg,
                   Format::Mpeg1}) {
    EXPECT_EQ(format_from(format_name(f)), f);
  }
  EXPECT_FALSE(format_from("vhs").has_value());
}

TEST(Filter, BasicOperators) {
  const MovieEntry e = sample("the third man", Format::Mjpeg, "alice");
  EXPECT_TRUE(Filter::all().matches(e));
  EXPECT_TRUE(Filter::present("title").matches(e));
  EXPECT_FALSE(Filter::present("bogus").matches(e));
  EXPECT_TRUE(Filter::equal("format", "mjpeg").matches(e));
  EXPECT_FALSE(Filter::equal("format", "mpeg1").matches(e));
  EXPECT_TRUE(Filter::substring("title", "third").matches(e));
  EXPECT_FALSE(Filter::substring("title", "fourth").matches(e));
  EXPECT_TRUE(Filter::and_({Filter::equal("rights", "alice"),
                            Filter::substring("title", "man")})
                  .matches(e));
  EXPECT_TRUE(Filter::or_({Filter::equal("format", "mpeg1"),
                           Filter::equal("format", "mjpeg")})
                  .matches(e));
  EXPECT_FALSE(Filter::not_(Filter::all()).matches(e));
}

TEST(Filter, DeMorganProperty) {
  // !(A && B) == !A || !B over random entries.
  common::Rng rng(31);
  for (int i = 0; i < 200; ++i) {
    MovieEntry e = sample("m" + std::to_string(rng.below(10)),
                          static_cast<Format>(rng.below(4)),
                          rng.chance(0.5) ? "public" : "bob");
    e.width = static_cast<int>(160 + rng.below(4) * 160);
    const Filter a = Filter::equal("rights", "public");
    const Filter b = Filter::substring("title", "m1");
    const bool lhs = Filter::not_(Filter::and_({a, b})).matches(e);
    const bool rhs =
        Filter::or_({Filter::not_(a), Filter::not_(b)}).matches(e);
    ASSERT_EQ(lhs, rhs);
  }
}

TEST(Filter, ToStringIsLdapLike) {
  const Filter f = Filter::and_(
      {Filter::equal("format", "mjpeg"), Filter::not_(Filter::present("x"))});
  EXPECT_EQ(f.to_string(), "(&(format=mjpeg)(!(x=*)))");
}

TEST(Dsa, AddReadModifyRemove) {
  Dsa dsa("ksr1");
  auto id = dsa.add(sample("casablanca"));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(dsa.size(), 1u);

  auto read = dsa.read(id.value());
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().title, "casablanca");
  EXPECT_EQ(read.value().id, id.value());

  ASSERT_TRUE(dsa.modify(id.value(), "fps", "30").ok());
  EXPECT_DOUBLE_EQ(dsa.read(id.value()).value().fps, 30.0);
  EXPECT_FALSE(dsa.modify(id.value(), "bogus", "1").ok());
  EXPECT_FALSE(dsa.modify(9999, "fps", "30").ok());

  ASSERT_TRUE(dsa.remove(id.value()).ok());
  EXPECT_FALSE(dsa.read(id.value()).ok());
  EXPECT_FALSE(dsa.remove(id.value()).ok());
}

TEST(Dsa, DuplicateTitlesRejected) {
  Dsa dsa("ksr1");
  ASSERT_TRUE(dsa.add(sample("unique")).ok());
  auto dup = dsa.add(sample("unique"));
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.error().code, kDuplicateTitle);
}

TEST(Dsa, RenameToTakenTitleRejected) {
  Dsa dsa("ksr1");
  const auto alpha = dsa.add(sample("alpha")).value();
  const auto beta = dsa.add(sample("beta")).value();

  auto st = dsa.modify(beta, "title", "alpha");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, kDuplicateTitle);
  EXPECT_EQ(dsa.read(beta).value().title, "beta");
  EXPECT_EQ(dsa.find_by_title("alpha").value().id, alpha);
  EXPECT_EQ(dsa.find_by_title("beta").value().id, beta);
}

TEST(Dsa, RenameToOwnTitleIsNoOp) {
  Dsa dsa("ksr1");
  const auto alpha = dsa.add(sample("alpha")).value();
  ASSERT_TRUE(dsa.modify(alpha, "title", "alpha").ok());
  EXPECT_EQ(dsa.find_by_title("alpha").value().id, alpha);
  EXPECT_EQ(dsa.size(), 1u);
}

TEST(Dsa, RenameMovesTitleLookup) {
  Dsa dsa("ksr1");
  const auto alpha = dsa.add(sample("alpha")).value();
  ASSERT_TRUE(dsa.modify(alpha, "title", "gamma").ok());
  EXPECT_FALSE(dsa.find_by_title("alpha").ok());
  EXPECT_EQ(dsa.find_by_title("gamma").value().id, alpha);
  // The old title is free again; the removed entry's title too.
  const auto reuse = dsa.add(sample("alpha"));
  ASSERT_TRUE(reuse.ok());
  ASSERT_TRUE(dsa.remove(alpha).ok());
  EXPECT_FALSE(dsa.find_by_title("gamma").ok());
  EXPECT_TRUE(dsa.add(sample("gamma")).ok());
}

TEST(Dsa, CopyKeepsItsOwnTitleIndex) {
  Dsa original("ksr1");
  const auto id = original.add(sample("alpha")).value();
  const Dsa copy = original;
  ASSERT_TRUE(original.modify(id, "title", "beta").ok());
  ASSERT_TRUE(original.add(sample("alpha")).ok());
  EXPECT_EQ(copy.find_by_title("alpha").value().id, id);
  EXPECT_FALSE(copy.find_by_title("beta").ok());
  EXPECT_EQ(copy.size(), 1u);
  EXPECT_EQ(original.find_by_title("beta").value().id, id);
}

TEST(Dsa, SearchWithFilters) {
  Dsa dsa("ksr1");
  (void)dsa.add(sample("news-1994-06", Format::Mjpeg));
  (void)dsa.add(sample("news-1994-07", Format::Mjpeg));
  (void)dsa.add(sample("lecture-db", Format::Mpeg1, "alice"));

  EXPECT_EQ(dsa.search(Filter::all()).size(), 3u);
  EXPECT_EQ(dsa.search(Filter::substring("title", "news")).size(), 2u);
  EXPECT_EQ(dsa.search(Filter::equal("format", "mpeg1")).size(), 1u);
  EXPECT_EQ(dsa.search(Filter::and_({Filter::substring("title", "news"),
                                     Filter::equal("format", "mpeg1")}))
                .size(),
            0u);
}

std::vector<std::uint64_t> ids_of(const std::vector<MovieEntry>& entries) {
  std::vector<std::uint64_t> ids;
  for (const MovieEntry& e : entries) ids.push_back(e.id);
  return ids;
}

TEST(TitleSignature, CoversEveryTrigramOfASubstring) {
  EXPECT_EQ(TitleSignature::of(""), TitleSignature{});
  EXPECT_EQ(TitleSignature::of("ab"), TitleSignature{});
  EXPECT_NE(TitleSignature::of("abc"), TitleSignature{});
  const std::string title = "news-1994-\xC3\xA9t\xC3\xA9";
  const TitleSignature sig = TitleSignature::of(title);
  for (std::size_t at = 0; at < title.size(); ++at)
    for (std::size_t len = 0; at + len <= title.size(); ++len)
      EXPECT_TRUE(sig.covers(TitleSignature::of(title.substr(at, len))))
          << at << "+" << len;
}

TEST(TitleSignature, HighBytesSpreadLikeAscii) {
  // 32 distinct trigrams sharing their last byte should set many of the
  // 128 bits whether that byte is ASCII or not. Reading bytes as signed
  // char sign-extends a trailing 0xE9 over the other two, and every one of
  // these trigrams would then hash to the same bit.
  for (const char last : {'z', '\xE9'}) {
    TitleSignature all;
    for (char a = 'a'; a < 'i'; ++a)
      for (char b = 'a'; b < 'e'; ++b)
        all |= TitleSignature::of(std::string{a, b, last});
    const int spread =
        std::popcount(all.bits[0]) + std::popcount(all.bits[1]);
    EXPECT_GE(spread, 16) << "last byte " << int(last);
  }
}

TEST(Filter, RequiredTitleTrigrams) {
  const TitleSignature news = TitleSignature::of("news");
  EXPECT_EQ(Filter::substring("title", "news").required_title(), news);
  EXPECT_EQ(Filter::equal("title", "news").required_title(), news);
  TitleSignature both = news;
  both |= TitleSignature::of("-19");
  EXPECT_EQ(Filter::and_({Filter::substring("title", "news"),
                          Filter::equal("format", "mjpeg"),
                          Filter::substring("title", "-19")})
                .required_title(),
            both);
  // Nothing else narrows the title.
  for (const Filter& f :
       {Filter::or_({Filter::substring("title", "news"),
                     Filter::substring("title", "news")}),
        Filter::not_(Filter::substring("title", "news")),
        Filter::present("title"), Filter::all(),
        Filter::substring("rights", "public"),
        Filter::substring("title", "ne"), Filter::and_({})})
    EXPECT_EQ(f.required_title(), TitleSignature{}) << f.to_string();
}

TEST(Dsa, EmptyNeedleMatchesEveryEntry) {
  Dsa dsa("ksr1");
  (void)dsa.add(sample("a"));
  (void)dsa.add(sample("news-06"));
  (void)dsa.add(sample("lecture-db"));
  EXPECT_EQ(dsa.search(Filter::substring("title", "")).size(), 3u);
}

TEST(Dsa, RenameMovesTitleBetweenSearches) {
  Dsa dsa("ksr1");
  (void)dsa.add(sample("lecture-db"));
  const std::uint64_t id = dsa.add(sample("news-1994")).value();
  const Filter news = Filter::substring("title", "news");
  const Filter cartoon = Filter::substring("title", "cartoon");
  EXPECT_EQ(ids_of(dsa.search(news)), std::vector<std::uint64_t>{id});
  EXPECT_TRUE(dsa.search(cartoon).empty());

  ASSERT_TRUE(dsa.modify(id, "title", "cartoon-1994").ok());
  EXPECT_TRUE(dsa.search(news).empty());
  EXPECT_EQ(ids_of(dsa.search(cartoon)), std::vector<std::uint64_t>{id});
}

TEST(Dsa, RemovedTitleIsFoundAgainOnceReAdded) {
  Dsa dsa("ksr1");
  const std::uint64_t first = dsa.add(sample("news-06")).value();
  const std::uint64_t second = dsa.add(sample("news-07")).value();
  ASSERT_TRUE(dsa.remove(first).ok());
  const Filter f = Filter::substring("title", "news-06");
  EXPECT_TRUE(dsa.search(f).empty());
  EXPECT_EQ(ids_of(dsa.search(Filter::all())),
            std::vector<std::uint64_t>{second});

  const std::uint64_t again = dsa.add(sample("news-06")).value();
  EXPECT_EQ(ids_of(dsa.search(f)), std::vector<std::uint64_t>{again});
  EXPECT_EQ(ids_of(dsa.search(Filter::all())),
            (std::vector<std::uint64_t>{second, again}));
  EXPECT_EQ(dsa.find_by_title("news-06").value().id, again);
}

TEST(Dsa, CopySearchesItsOwnEntries) {
  Dsa original("ksr1");
  const std::uint64_t a = original.add(sample("news-06")).value();
  const std::uint64_t b = original.add(sample("news-07")).value();
  const std::uint64_t c = original.add(sample("lecture-db")).value();
  const Dsa copy = original;

  ASSERT_TRUE(original.modify(a, "title", "cartoon-06").ok());
  ASSERT_TRUE(original.remove(b).ok());
  (void)original.add(sample("news-08"));
  ASSERT_TRUE(original.modify(c, "title", "news-db").ok());

  const Filter news = Filter::substring("title", "news");
  EXPECT_EQ(ids_of(copy.search(news)), (std::vector<std::uint64_t>{a, b}));
  EXPECT_EQ(ids_of(copy.search(Filter::all())),
            (std::vector<std::uint64_t>{a, b, c}));
  EXPECT_TRUE(copy.search(Filter::substring("title", "cartoon")).empty());
}

TEST(Dsa, ChainedSearchAcrossPeers) {
  Dsa a("hostA"), b("hostB"), c("hostC");
  a.add_peer(b);
  b.add_peer(c);
  b.add_peer(a);  // cycle must not loop forever
  c.add_peer(a);
  (void)a.add(sample("only-on-a"));
  (void)b.add(sample("only-on-b"));
  (void)c.add(sample("only-on-c"));

  auto everywhere = a.search_chained(Filter::substring("title", "only-on"));
  EXPECT_EQ(everywhere.size(), 3u);

  // Hop limit 0: local only.
  EXPECT_EQ(a.search_chained(Filter::all(), 0).size(), 1u);
  // Hop limit 1: a + direct peer b.
  EXPECT_EQ(a.search_chained(Filter::all(), 1).size(), 2u);
}

TEST(Dua, LookupFallsBackToChaining) {
  Dsa home("client-domain"), remote("server-domain");
  home.add_peer(remote);
  (void)remote.add(sample("remote-movie"));
  Dua dua(home);

  auto found = dua.lookup("remote-movie");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value().title, "remote-movie");
  EXPECT_FALSE(dua.lookup("nowhere").ok());

  EXPECT_EQ(dua.search(Filter::all()).size(), 1u);
  EXPECT_EQ(dua.search(Filter::all(), /*chained=*/false).size(), 0u);
}

// ---------------------------------------------------------------------------
// Differential test: Dsa against a naive model that keeps entries in a list,
// finds titles by linear scan and evaluates filters on attribute strings
// rendered the way the directory always has (std::to_string, "%.3f").

std::optional<std::string> reference_attribute(const MovieEntry& e,
                                               const std::string& name) {
  if (name == "title") return e.title;
  if (name == "format") return std::string(format_name(e.format));
  if (name == "width") return std::to_string(e.width);
  if (name == "height") return std::to_string(e.height);
  if (name == "fps") return common::strf("%.3f", e.fps);
  if (name == "duration") return std::to_string(e.duration_frames);
  if (name == "location-host") return e.location_host;
  if (name == "location-path") return e.location_path;
  if (name == "rights") return e.rights;
  if (name == "size") return std::to_string(e.size_bytes);
  return std::nullopt;
}

bool reference_matches(const Filter& f, const MovieEntry& e) {
  switch (f.op()) {
    case Filter::Op::All:
      return true;
    case Filter::Op::Present:
      return reference_attribute(e, f.attr()).has_value();
    case Filter::Op::Equal: {
      const auto v = reference_attribute(e, f.attr());
      return v && *v == f.value();
    }
    case Filter::Op::Substring: {
      const auto v = reference_attribute(e, f.attr());
      return v && v->find(f.value()) != std::string::npos;
    }
    case Filter::Op::And:
      for (const Filter& c : f.children())
        if (!reference_matches(c, e)) return false;
      return true;
    case Filter::Op::Or:
      for (const Filter& c : f.children())
        if (reference_matches(c, e)) return true;
      return false;
    case Filter::Op::Not:
      return !reference_matches(f.children().front(), e);
  }
  return false;
}

struct ModelDsa {
  explicit ModelDsa(std::string d) : domain(std::move(d)) {}

  std::string domain;
  std::vector<MovieEntry> entries;  // ascending id
  std::uint64_t next_id = 1;

  MovieEntry* find(std::uint64_t id) {
    for (MovieEntry& e : entries)
      if (e.id == id) return &e;
    return nullptr;
  }
  const MovieEntry* find_title(const std::string& title) const {
    for (const MovieEntry& e : entries)
      if (e.title == title) return &e;
    return nullptr;
  }
  std::optional<std::uint64_t> add(MovieEntry e) {
    if (find_title(e.title) != nullptr) return std::nullopt;
    e.id = next_id++;
    entries.push_back(std::move(e));
    return entries.back().id;
  }
  bool remove(std::uint64_t id) {
    auto it = std::find_if(entries.begin(), entries.end(),
                           [&](const MovieEntry& e) { return e.id == id; });
    if (it == entries.end()) return false;
    entries.erase(it);
    return true;
  }
  /// Error code of the modification, 0 on success.
  int modify(std::uint64_t id, const std::string& attr,
             const std::string& value) {
    MovieEntry* e = find(id);
    if (e == nullptr) return kNoSuchEntry;
    if (attr == "title") {
      const MovieEntry* holder = find_title(value);
      if (holder != nullptr && holder != e) return kDuplicateTitle;
      e->title = value;
      return 0;
    }
    auto st = e->set_attribute(attr, value);
    return st.ok() ? 0 : st.error().code;
  }
  std::vector<MovieEntry> search(const Filter& f) const {
    std::vector<MovieEntry> out;
    for (const MovieEntry& e : entries)
      if (reference_matches(f, e)) out.push_back(e);
    return out;
  }
};

/// Chained search over models reached in breadth-first order, duplicate-
/// free by (domain, id).
std::vector<MovieEntry> model_search_chained(
    const std::vector<const ModelDsa*>& reached, const Filter& f) {
  std::vector<MovieEntry> out;
  std::set<std::pair<std::string, std::uint64_t>> seen;
  for (const ModelDsa* m : reached)
    for (const MovieEntry& e : m->search(f))
      if (seen.emplace(m->domain, e.id).second) out.push_back(e);
  return out;
}

void expect_same_entries(const std::vector<MovieEntry>& got,
                         const std::vector<MovieEntry>& want,
                         const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << what << " #" << i;
    EXPECT_EQ(got[i].attributes(), want[i].attributes()) << what << " #" << i;
  }
}

// "\xC3\xA9t\xC3\xA9" is "été" in UTF-8: titles with bytes >= 0x80.
const char* const kTitleWords[] = {"news", "lecture", "cartoon", "archive",
                                   "\xC3\xA9t\xC3\xA9"};
// Titles shorter than a trigram.
const char* const kShortTitles[] = {"a", "s-", "\xE9", "1\xC3"};

std::string random_title(common::Rng& rng) {
  // A small title space, so duplicate adds and renames happen often.
  if (rng.chance(0.1)) return kShortTitles[rng.below(4)];
  return std::string(kTitleWords[rng.below(5)]) + "-" +
         std::to_string(rng.below(12));
}

/// A title substring needle: slices of 0 to 4 bytes (across the word and
/// number boundary, and through multi-byte characters), whole titles, and
/// needles longer than any title.
std::string random_needle(common::Rng& rng) {
  const std::string title = random_title(rng);
  switch (rng.below(4)) {
    case 0:
    case 1: {
      const std::size_t len =
          rng.below(std::min<std::size_t>(title.size(), 4) + 1);
      return title.substr(rng.below(title.size() - len + 1), len);
    }
    case 2:
      return title;
    default:
      return title + "-" + random_title(rng);
  }
}

Filter random_leaf(common::Rng& rng) {
  switch (rng.below(14)) {
    case 0:
      return Filter::substring("title", kTitleWords[rng.below(4)]);
    case 1:
      return Filter::substring("title", "-" + std::to_string(rng.below(12)));
    case 2:
      return Filter::equal("title", random_title(rng));
    case 3:
      return Filter::present(rng.chance(0.5) ? "title" : "fps");
    case 4:
      return Filter::equal("fps", rng.chance(0.5) ? "25.000" : "29.970");
    case 5:
      return Filter::substring("fps", rng.chance(0.5) ? "25" : ".5");
    case 6:
      return Filter::equal("width", rng.chance(0.5) ? "320" : "640");
    case 7:
      return Filter::substring("size", std::to_string(rng.below(10)));
    case 8:
      return Filter::equal("format", format_name(static_cast<Format>(
                                         rng.below(4))));
    case 9: {
      // Unknown attributes match nothing, under every operator.
      const int op = static_cast<int>(rng.below(3));
      if (op == 0) return Filter::present("bogus");
      if (op == 1) return Filter::equal("bogus", "");
      return Filter::substring("bogus", "");
    }
    case 10:
      return Filter::equal("rights", rng.chance(0.5) ? "public" : "alice");
    case 11:
      return Filter::substring("title", random_needle(rng));
    case 12: {
      // A title needle narrowed by a leaf on another attribute.
      Filter needle = Filter::substring("title", random_needle(rng));
      Filter other = random_leaf(rng);
      if (rng.chance(0.5)) std::swap(needle, other);
      return Filter::and_({std::move(needle), std::move(other)});
    }
    default:
      return Filter::all();
  }
}

Filter random_filter(common::Rng& rng, int depth = 0) {
  if (depth >= 3 || rng.chance(0.4)) return random_leaf(rng);
  switch (rng.below(3)) {
    case 0:
    case 1: {
      std::vector<Filter> kids;
      const auto n = 1 + rng.below(3);
      for (std::uint64_t i = 0; i < n; ++i)
        kids.push_back(random_filter(rng, depth + 1));
      return rng.below(2) == 0 ? Filter::and_(std::move(kids))
                               : Filter::or_(std::move(kids));
    }
    default:
      return Filter::not_(random_filter(rng, depth + 1));
  }
}

MovieEntry random_entry(common::Rng& rng) {
  MovieEntry e;
  e.title = random_title(rng);
  e.format = static_cast<Format>(rng.below(4));
  const int widths[] = {160, 320, 640};
  e.width = widths[rng.below(3)];
  e.height = e.width * 3 / 4;
  const double rates[] = {25.0, 29.97, 12.5, 30.0};
  e.fps = rates[rng.below(4)];
  e.duration_frames = rng.below(100'000);
  e.location_host = "ksr1";
  e.location_path = "/movies/" + e.title;
  e.rights = rng.chance(0.7) ? "public" : "alice";
  e.size_bytes = rng.below(1'000'000'000);
  return e;
}

/// An attribute change, sometimes malformed or a title rename.
std::pair<std::string, std::string> random_change(common::Rng& rng) {
  switch (rng.below(8)) {
    case 0:
    case 1:
      return {"title", random_title(rng)};
    case 2:
      return {"fps", rng.chance(0.8) ? "29.97" : "nan"};
    case 3:
      return {"width", rng.chance(0.8) ? "640" : "640x"};
    case 4:
      return {"size", rng.chance(0.8) ? std::to_string(rng.below(1u << 30))
                                      : "-1"};
    case 5:
      return {"rights", rng.chance(0.5) ? "public" : "alice"};
    case 6:
      return {"format", rng.chance(0.8) ? "mpeg1" : "divx"};
    default:
      return {"bogus", "1"};
  }
}

/// One random operation against (dsa, model), checking every result.
void step(common::Rng& rng, Dsa& dsa, ModelDsa& model,
          const std::string& where) {
  const auto pick_id = [&]() -> std::uint64_t {
    // Mostly ids that exist, sometimes one that never did or was removed.
    if (!model.entries.empty() && rng.chance(0.85))
      return model.entries[rng.below(model.entries.size())].id;
    return 1 + rng.below(model.next_id + 2);
  };
  switch (rng.below(6)) {
    case 0: {
      MovieEntry e = random_entry(rng);
      auto got = dsa.add(e);
      auto want = model.add(e);
      ASSERT_EQ(got.ok(), want.has_value()) << where << " add " << e.title;
      if (got.ok()) {
        EXPECT_EQ(got.value(), *want) << where;
      } else {
        EXPECT_EQ(got.error().code, kDuplicateTitle) << where;
      }
      break;
    }
    case 1: {
      const std::uint64_t id = pick_id();
      ASSERT_EQ(dsa.remove(id).ok(), model.remove(id)) << where << " rm";
      break;
    }
    case 2:
    case 3: {
      const std::uint64_t id = pick_id();
      const auto [attr, value] = random_change(rng);
      auto got = dsa.modify(id, attr, value);
      const int want = model.modify(id, attr, value);
      ASSERT_EQ(got.ok() ? 0 : got.error().code, want)
          << where << " modify " << id << " " << attr << "=" << value;
      break;
    }
    case 4: {
      const std::string title = random_title(rng);
      auto got = dsa.find_by_title(title);
      const MovieEntry* want = model.find_title(title);
      ASSERT_EQ(got.ok(), want != nullptr) << where << " find " << title;
      if (want != nullptr) {
        EXPECT_EQ(got.value().id, want->id) << where;
        const MovieEntry* in_place = dsa.find_title(title);
        ASSERT_NE(in_place, nullptr);
        EXPECT_EQ(in_place->id, want->id) << where;
      }
      break;
    }
    default: {
      const Filter f = random_filter(rng);
      expect_same_entries(dsa.search(f), model.search(f),
                          where + " search " + f.to_string());
      break;
    }
  }
}

TEST(DsaDifferential, MatchesLinearScanModel) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    common::Rng rng(seed);
    // a -> {b, c}; b and c share a domain, so chained search must drop
    // c's entries whose ids b already returned.
    Dsa a("west"), b("east"), c("east");
    a.add_peer(b);
    a.add_peer(c);
    ModelDsa ma("west"), mb("east"), mc("east");
    Dsa* dsas[] = {&a, &b, &c};
    ModelDsa* models[] = {&ma, &mb, &mc};

    std::optional<Dsa> snapshot;
    std::optional<ModelDsa> snapshot_model;
    constexpr int kSteps = 1500;
    for (int i = 0; i < kSteps; ++i) {
      const std::string where =
          "seed " + std::to_string(seed) + " step " + std::to_string(i);
      const auto k = rng.below(3);
      step(rng, *dsas[k], *models[k], where);
      if (::testing::Test::HasFatalFailure()) return;
      if (i == kSteps / 2) {
        snapshot = a;  // copied by value, peers and all
        snapshot_model = ma;
      }
      if (snapshot) {
        step(rng, *snapshot, *snapshot_model, where + " (copy)");
        if (::testing::Test::HasFatalFailure()) return;
      }
      if (i % 10 == 0) {
        const Filter f = random_filter(rng);
        const int hops = static_cast<int>(rng.below(3)) - 1;  // -1, 0, 1
        std::vector<const ModelDsa*> reached;
        if (hops >= 0) reached.push_back(&ma);
        if (hops >= 1) reached.insert(reached.end(), {&mb, &mc});
        expect_same_entries(a.search_chained(f, hops),
                            model_search_chained(reached, f),
                            where + " chained " + f.to_string());
      }
    }
    // The copy diverged from `a` after the midpoint; both still agree with
    // their own models, entry for entry.
    ASSERT_TRUE(snapshot.has_value());
    expect_same_entries(snapshot->search(Filter::all()),
                        snapshot_model->search(Filter::all()),
                        "copy at end, seed " + std::to_string(seed));
    expect_same_entries(a.search(Filter::all()), ma.search(Filter::all()),
                        "a at end, seed " + std::to_string(seed));
    for (const MovieEntry& e : snapshot_model->entries)
      EXPECT_EQ(snapshot->find_by_title(e.title).value().id, e.id);
  }
}

}  // namespace
}  // namespace mcam::directory
