// Movie directory service — the Directory System of Fig. 1.
//
// "The movie directory is used as a repository for movie information, such
// as digital image format and storage location" (§2). The paper backs it
// with X.500 DSAs; we implement the same service semantics in-process
// (DESIGN.md §2): typed movie entries with a generic attribute interface,
// X.500-style filters (presence/equality/substring with and/or/not), and
// chained operation between DSAs (a query not answerable locally is
// forwarded to peer DSAs, hop-limited).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <variant>
#include <vector>

#include "common/result.hpp"

namespace mcam::directory {

/// Digital image formats of the XMovie era.
enum class Format { RawRgb, Colormap, Mjpeg, Mpeg1 };

[[nodiscard]] const char* format_name(Format f) noexcept;
[[nodiscard]] std::optional<Format> format_from(const std::string& name);

/// The generic attribute names, in the stable order `attributes()` lists.
enum class AttrId : std::uint8_t {
  Title,
  Format,
  Width,
  Height,
  Fps,
  Duration,
  LocationHost,
  LocationPath,
  Rights,
  Size,
};
inline constexpr std::size_t kAttrCount = 10;

[[nodiscard]] const char* attr_name(AttrId id) noexcept;
[[nodiscard]] std::optional<AttrId> attr_id(std::string_view name) noexcept;

/// Scratch space a numeric attribute is formatted into. Large enough for any
/// `%.3f` double: DBL_MAX has 309 integer digits.
using AttrBuffer = std::array<char, 320>;

/// One directory entry. Fixed schema plus the generic attribute view used
/// by the MCAM AttributeQuery/AttributeModify operations.
struct MovieEntry {
  std::uint64_t id = 0;
  std::string title;
  Format format = Format::Mjpeg;
  int width = 320;
  int height = 240;
  double fps = 25.0;
  std::uint64_t duration_frames = 0;
  std::string location_host;  // storage location (server host)
  std::string location_path;
  std::string rights = "public";
  std::uint64_t size_bytes = 0;

  /// Attribute `id` as text, without allocating: string fields are viewed
  /// in place, numeric fields are formatted into `buf` (fps as `%.3f`). The
  /// view lives as long as both this entry and `buf` are unchanged.
  [[nodiscard]] std::string_view attribute_text(AttrId id,
                                                AttrBuffer& buf) const;
  /// Generic attribute access. Known names: title, format, width, height,
  /// fps, duration, location-host, location-path, rights, size.
  [[nodiscard]] std::optional<std::string> attribute(
      std::string_view name) const;
  /// Numeric values must be a whole decimal number (unsigned ones without a
  /// sign, fps finite); anything else is kBadAttribute.
  common::Status set_attribute(std::string_view name,
                               const std::string& value);
  /// All attributes as (name, value) pairs, stable order.
  [[nodiscard]] std::vector<std::pair<std::string, std::string>> attributes()
      const;
};

/// The set of a text's trigrams, hashed into 128 bits: one bit per run of
/// three bytes, each byte read as unsigned char. A title can hold a needle
/// only if the title's signature covers the needle's; the converse does not
/// hold (hashes collide), so a signature only rules entries out.
struct TitleSignature {
  std::array<std::uint64_t, 2> bits{};

  /// Texts shorter than three bytes have no trigrams: the empty signature.
  [[nodiscard]] static TitleSignature of(std::string_view text) noexcept;
  [[nodiscard]] bool covers(const TitleSignature& need) const noexcept {
    return (bits[0] & need.bits[0]) == need.bits[0] &&
           (bits[1] & need.bits[1]) == need.bits[1];
  }
  TitleSignature& operator|=(const TitleSignature& o) noexcept {
    bits[0] |= o.bits[0];
    bits[1] |= o.bits[1];
    return *this;
  }
  bool operator==(const TitleSignature&) const = default;
};

/// X.500-style search filter. The attribute name is resolved once, when the
/// filter is built, and `matches` reads values without allocating.
class Filter {
 public:
  static Filter present(std::string attr);
  static Filter equal(std::string attr, std::string value);
  static Filter substring(std::string attr, std::string needle);
  static Filter all();  // matches everything
  static Filter and_(std::vector<Filter> fs);
  static Filter or_(std::vector<Filter> fs);
  static Filter not_(Filter f);

  [[nodiscard]] bool matches(const MovieEntry& entry) const;
  [[nodiscard]] std::string to_string() const;
  /// Trigrams every matching entry's title must hold: those of a title
  /// Equal or Substring value, united over And. Or, Not, Present, All and
  /// other attributes require none.
  [[nodiscard]] TitleSignature required_title() const noexcept;

  /// Structural introspection (used by the MCAM wire codec, which carries
  /// filters inside MovieSearch PDUs).
  enum class Op { Present, Equal, Substring, All, And, Or, Not };
  [[nodiscard]] Op op() const noexcept { return op_; }
  [[nodiscard]] const std::string& attr() const noexcept { return attr_; }
  [[nodiscard]] const std::string& value() const noexcept { return value_; }
  [[nodiscard]] const std::vector<Filter>& children() const noexcept {
    return children_;
  }

  bool operator==(const Filter& other) const;

 private:
  Op op_ = Op::All;
  std::optional<AttrId> attr_id_;  // resolved attr_; empty if unknown
  std::string attr_;
  std::string value_;
  std::vector<Filter> children_;
};

enum DirectoryError : int {
  kNoSuchEntry = 4001,
  kDuplicateTitle = 4002,
  kBadAttribute = 4003,
  kAccessDenied = 4004,
};

/// Directory System Agent: one per administrative domain (server host).
/// Peers form the distributed directory; search_chained consults them when
/// the local base has no match.
///
/// Cost model: title lookups (find_title, find_by_title, and the duplicate
/// checks of add and modify) go through a hashed title -> id index, O(1).
/// Searches walk a column of title signatures (24 bytes per entry, sorted
/// by id) and run the filter only on entries whose signature covers
/// `Filter::required_title()`; a filter that requires no trigrams runs on
/// every entry. for_each_match hands matches over in place; search and
/// search_chained copy them. remove erases from the column, O(n).
class Dsa {
 public:
  /// Default hop limit of a chained operation.
  static constexpr int kChainHops = 3;

  explicit Dsa(std::string domain);

  [[nodiscard]] const std::string& domain() const noexcept { return domain_; }

  /// Add an entry (id assigned). Titles are unique per DSA.
  common::Result<std::uint64_t> add(MovieEntry entry);
  common::Status remove(std::uint64_t id);
  /// The entry itself, read in place; nullptr if absent. Valid until the
  /// entry is removed.
  [[nodiscard]] const MovieEntry* find(std::uint64_t id) const;
  [[nodiscard]] const MovieEntry* find_title(std::string_view title) const;
  [[nodiscard]] common::Result<MovieEntry> read(std::uint64_t id) const;
  common::Result<MovieEntry> find_by_title(const std::string& title) const;
  /// A title rename to a title another entry holds is kDuplicateTitle;
  /// renaming an entry to its own title succeeds and changes nothing.
  common::Status modify(std::uint64_t id, const std::string& attr,
                        const std::string& value);

  /// Call `visit(owner, entry)` for every entry matching `filter` in this
  /// DSA and in the peers reached breadth-first within `hop_limit` hops
  /// (none when negative), each DSA's entries in ascending id order.
  /// Duplicate-free by (domain, id): an entry is skipped when a DSA of the
  /// same domain reached earlier holds a matching entry under its id.
  using Visitor = std::function<void(const Dsa& owner, const MovieEntry&)>;
  void for_each_match(const Filter& filter, int hop_limit,
                      const Visitor& visit) const;

  /// Matches in this DSA only, in ascending id order.
  [[nodiscard]] std::vector<MovieEntry> search(const Filter& filter) const;
  /// Matches here and in peers, as for_each_match reports them.
  [[nodiscard]] std::vector<MovieEntry> search_chained(
      const Filter& filter, int hop_limit = kChainHops) const;

  void add_peer(Dsa& peer) { peers_.push_back(&peer); }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

 private:
  // One row of the signature column.
  struct TitleRow {
    std::uint64_t id;
    TitleSignature sig;
  };

  /// Call `visit(entry)` for each local entry that matches `filter`, running
  /// the filter only on rows whose signature covers `need`.
  template <typename Visit>
  void scan(const Filter& filter, const TitleSignature& need,
            Visit&& visit) const;
  /// The column row of an entry that exists.
  [[nodiscard]] std::vector<TitleRow>::iterator row(std::uint64_t id);

  struct TitleHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::string domain_;
  std::uint64_t next_id_ = 1;
  std::map<std::uint64_t, MovieEntry> entries_;
  // Ids, not pointers into entries_, so a copied Dsa stays consistent.
  std::unordered_map<std::string, std::uint64_t, TitleHash, std::equal_to<>>
      by_title_;
  // Same ids as entries_, same order: add only appends larger ids.
  std::vector<TitleRow> titles_;
  std::vector<Dsa*> peers_;
};

/// Directory User Agent: the client-side facade (one per MCAM entity).
class Dua {
 public:
  explicit Dua(Dsa& home) : home_(home) {}

  common::Result<MovieEntry> lookup(const std::string& title) const;
  [[nodiscard]] std::vector<MovieEntry> search(const Filter& filter,
                                               bool chained = true) const;

 private:
  Dsa& home_;
};

}  // namespace mcam::directory
