#include "directory/directory.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace mcam::directory {

using common::Error;
using common::Result;
using common::Status;

const char* format_name(Format f) noexcept {
  switch (f) {
    case Format::RawRgb:
      return "raw-rgb";
    case Format::Colormap:
      return "colormap";
    case Format::Mjpeg:
      return "mjpeg";
    case Format::Mpeg1:
      return "mpeg1";
  }
  return "?";
}

std::optional<Format> format_from(const std::string& name) {
  if (name == "raw-rgb") return Format::RawRgb;
  if (name == "colormap") return Format::Colormap;
  if (name == "mjpeg") return Format::Mjpeg;
  if (name == "mpeg1") return Format::Mpeg1;
  return std::nullopt;
}

const char* attr_name(AttrId id) noexcept {
  switch (id) {
    case AttrId::Title:
      return "title";
    case AttrId::Format:
      return "format";
    case AttrId::Width:
      return "width";
    case AttrId::Height:
      return "height";
    case AttrId::Fps:
      return "fps";
    case AttrId::Duration:
      return "duration";
    case AttrId::LocationHost:
      return "location-host";
    case AttrId::LocationPath:
      return "location-path";
    case AttrId::Rights:
      return "rights";
    case AttrId::Size:
      return "size";
  }
  return "?";
}

std::optional<AttrId> attr_id(std::string_view name) noexcept {
  for (std::size_t i = 0; i < kAttrCount; ++i) {
    const auto id = static_cast<AttrId>(i);
    if (name == attr_name(id)) return id;
  }
  return std::nullopt;
}

namespace {

template <typename Int>
std::string_view format_int(Int v, AttrBuffer& buf) {
  const auto [end, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), v);
  return {buf.data(), static_cast<std::size_t>(end - buf.data())};
}

/// Parse all of `text` as a decimal number: no sign on unsigned types, no
/// leading blanks, no trailing characters.
template <typename Num>
bool parse_whole(std::string_view text, Num& out) {
  Num v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end) return false;
  out = v;
  return true;
}

}  // namespace

std::string_view MovieEntry::attribute_text(AttrId id, AttrBuffer& buf) const {
  switch (id) {
    case AttrId::Title:
      return title;
    case AttrId::Format:
      return format_name(format);
    case AttrId::Width:
      return format_int(width, buf);
    case AttrId::Height:
      return format_int(height, buf);
    case AttrId::Fps: {
      const int n = std::snprintf(buf.data(), buf.size(), "%.3f", fps);
      return {buf.data(), static_cast<std::size_t>(std::max(n, 0))};
    }
    case AttrId::Duration:
      return format_int(duration_frames, buf);
    case AttrId::LocationHost:
      return location_host;
    case AttrId::LocationPath:
      return location_path;
    case AttrId::Rights:
      return rights;
    case AttrId::Size:
      return format_int(size_bytes, buf);
  }
  return {};
}

std::optional<std::string> MovieEntry::attribute(std::string_view name) const {
  const auto id = attr_id(name);
  if (!id) return std::nullopt;
  AttrBuffer buf;
  return std::string(attribute_text(*id, buf));
}

Status MovieEntry::set_attribute(std::string_view name,
                                 const std::string& value) {
  const auto id = attr_id(name);
  if (!id)
    return Error::make(kBadAttribute,
                       "unknown attribute " + std::string(name));
  bool ok = true;
  switch (*id) {
    case AttrId::Title:
      title = value;
      break;
    case AttrId::Format: {
      auto f = format_from(value);
      if (!f) return Error::make(kBadAttribute, "unknown format " + value);
      format = *f;
      break;
    }
    case AttrId::Width:
      ok = parse_whole(value, width);
      break;
    case AttrId::Height:
      ok = parse_whole(value, height);
      break;
    case AttrId::Fps: {
      double v = 0.0;
      ok = parse_whole(value, v) && std::isfinite(v);
      if (ok) fps = v;
      break;
    }
    case AttrId::Duration:
      ok = parse_whole(value, duration_frames);
      break;
    case AttrId::LocationHost:
      location_host = value;
      break;
    case AttrId::LocationPath:
      location_path = value;
      break;
    case AttrId::Rights:
      rights = value;
      break;
    case AttrId::Size:
      ok = parse_whole(value, size_bytes);
      break;
  }
  if (!ok)
    return Error::make(kBadAttribute, "bad value '" + value +
                                          "' for attribute " + attr_name(*id));
  return Status{};
}

std::vector<std::pair<std::string, std::string>> MovieEntry::attributes()
    const {
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(kAttrCount);
  AttrBuffer buf;
  for (std::size_t i = 0; i < kAttrCount; ++i) {
    const auto id = static_cast<AttrId>(i);
    out.emplace_back(attr_name(id), attribute_text(id, buf));
  }
  return out;
}

// ---------------------------------------------------------------------------
// TitleSignature

TitleSignature TitleSignature::of(std::string_view text) noexcept {
  TitleSignature sig;
  for (std::size_t i = 0; i + 3 <= text.size(); ++i) {
    const auto byte = [&](std::size_t k) {
      return static_cast<std::uint32_t>(static_cast<unsigned char>(text[k]));
    };
    const std::uint32_t trigram =
        byte(i) << 16 | byte(i + 1) << 8 | byte(i + 2);
    // Fibonacci hashing: the top 7 bits of the product pick one of 128.
    const std::uint32_t bit = (trigram * 0x9E3779B1u) >> 25;
    sig.bits[bit >> 6] |= std::uint64_t{1} << (bit & 63);
  }
  return sig;
}

// ---------------------------------------------------------------------------
// Filter

Filter Filter::present(std::string attr) {
  Filter f;
  f.op_ = Op::Present;
  f.attr_id_ = attr_id(attr);
  f.attr_ = std::move(attr);
  return f;
}
Filter Filter::equal(std::string attr, std::string value) {
  Filter f;
  f.op_ = Op::Equal;
  f.attr_id_ = attr_id(attr);
  f.attr_ = std::move(attr);
  f.value_ = std::move(value);
  return f;
}
Filter Filter::substring(std::string attr, std::string needle) {
  Filter f;
  f.op_ = Op::Substring;
  f.attr_id_ = attr_id(attr);
  f.attr_ = std::move(attr);
  f.value_ = std::move(needle);
  return f;
}
Filter Filter::all() { return Filter{}; }
Filter Filter::and_(std::vector<Filter> fs) {
  Filter f;
  f.op_ = Op::And;
  f.children_ = std::move(fs);
  return f;
}
Filter Filter::or_(std::vector<Filter> fs) {
  Filter f;
  f.op_ = Op::Or;
  f.children_ = std::move(fs);
  return f;
}
Filter Filter::not_(Filter inner) {
  Filter f;
  f.op_ = Op::Not;
  f.children_.push_back(std::move(inner));
  return f;
}

bool Filter::matches(const MovieEntry& entry) const {
  switch (op_) {
    case Op::All:
      return true;
    case Op::Present:
      return attr_id_.has_value();
    case Op::Equal: {
      if (!attr_id_) return false;
      AttrBuffer buf;
      return entry.attribute_text(*attr_id_, buf) == value_;
    }
    case Op::Substring: {
      if (!attr_id_) return false;
      AttrBuffer buf;
      return entry.attribute_text(*attr_id_, buf).find(value_) !=
             std::string_view::npos;
    }
    case Op::And:
      return std::all_of(children_.begin(), children_.end(),
                         [&](const Filter& f) { return f.matches(entry); });
    case Op::Or:
      return std::any_of(children_.begin(), children_.end(),
                         [&](const Filter& f) { return f.matches(entry); });
    case Op::Not:
      return !children_.front().matches(entry);
  }
  return false;
}

TitleSignature Filter::required_title() const noexcept {
  switch (op_) {
    case Op::Equal:
    case Op::Substring:
      return attr_id_ == AttrId::Title ? TitleSignature::of(value_)
                                       : TitleSignature{};
    case Op::And: {
      TitleSignature need;
      for (const Filter& f : children_) need |= f.required_title();
      return need;
    }
    default:
      return {};
  }
}

bool Filter::operator==(const Filter& other) const {
  return op_ == other.op_ && attr_ == other.attr_ && value_ == other.value_ &&
         children_ == other.children_;
}

std::string Filter::to_string() const {
  switch (op_) {
    case Op::All:
      return "(*)";
    case Op::Present:
      return "(" + attr_ + "=*)";
    case Op::Equal:
      return "(" + attr_ + "=" + value_ + ")";
    case Op::Substring:
      return "(" + attr_ + "~=" + value_ + ")";
    case Op::And:
    case Op::Or: {
      std::string s = op_ == Op::And ? "(&" : "(|";
      for (const Filter& f : children_) s += f.to_string();
      return s + ")";
    }
    case Op::Not:
      return "(!" + children_.front().to_string() + ")";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Dsa

Dsa::Dsa(std::string domain) : domain_(std::move(domain)) {}

Result<std::uint64_t> Dsa::add(MovieEntry entry) {
  if (!by_title_.try_emplace(entry.title, next_id_).second)
    return Error::make(kDuplicateTitle,
                       "title already present: " + entry.title);
  entry.id = next_id_++;
  const std::uint64_t id = entry.id;
  titles_.push_back(TitleRow{id, TitleSignature::of(entry.title)});
  entries_.emplace(id, std::move(entry));
  return id;
}

std::vector<Dsa::TitleRow>::iterator Dsa::row(std::uint64_t id) {
  return std::lower_bound(
      titles_.begin(), titles_.end(), id,
      [](const TitleRow& r, std::uint64_t key) { return r.id < key; });
}

Status Dsa::remove(std::uint64_t id) {
  auto it = entries_.find(id);
  if (it == entries_.end())
    return Error::make(kNoSuchEntry, "no entry " + std::to_string(id));
  by_title_.erase(it->second.title);
  titles_.erase(row(id));
  entries_.erase(it);
  return Status{};
}

const MovieEntry* Dsa::find(std::uint64_t id) const {
  auto it = entries_.find(id);
  return it == entries_.end() ? nullptr : &it->second;
}

const MovieEntry* Dsa::find_title(std::string_view title) const {
  auto it = by_title_.find(title);
  return it == by_title_.end() ? nullptr : find(it->second);
}

Result<MovieEntry> Dsa::read(std::uint64_t id) const {
  if (const MovieEntry* e = find(id)) return *e;
  return Error::make(kNoSuchEntry, "no entry " + std::to_string(id));
}

Result<MovieEntry> Dsa::find_by_title(const std::string& title) const {
  if (const MovieEntry* e = find_title(title)) return *e;
  return Error::make(kNoSuchEntry, "no movie titled '" + title + "'");
}

Status Dsa::modify(std::uint64_t id, const std::string& attr,
                   const std::string& value) {
  auto it = entries_.find(id);
  if (it == entries_.end())
    return Error::make(kNoSuchEntry, "no entry " + std::to_string(id));
  MovieEntry& entry = it->second;
  if (attr_id(attr) != AttrId::Title) return entry.set_attribute(attr, value);
  if (value == entry.title) return Status{};
  if (by_title_.contains(value))
    return Error::make(kDuplicateTitle, "title already present: " + value);
  auto node = by_title_.extract(entry.title);
  node.key() = value;
  by_title_.insert(std::move(node));
  entry.title = value;
  row(id)->sig = TitleSignature::of(value);
  return Status{};
}

template <typename Visit>
void Dsa::scan(const Filter& filter, const TitleSignature& need,
               Visit&& visit) const {
  // Rows and entries share ids and order, so a run of candidate rows steps
  // the map iterator; a skipped stretch costs one search.
  auto it = entries_.begin();
  for (const TitleRow& row : titles_) {
    if (!row.sig.covers(need)) continue;
    if (it == entries_.end() || it->first != row.id)
      it = entries_.lower_bound(row.id);
    if (it == entries_.end()) break;
    if (filter.matches(it->second)) visit(it->second);
    ++it;
  }
}

void Dsa::for_each_match(const Filter& filter, int hop_limit,
                         const Visitor& visit) const {
  if (hop_limit < 0) return;
  // Breadth-first over the DSA graph; reached[begin, end) is one hop level.
  std::vector<const Dsa*> reached{this};
  for (std::size_t begin = 0, hop = 0;
       hop < static_cast<std::size_t>(hop_limit) && begin < reached.size();
       ++hop) {
    const std::size_t end = reached.size();
    for (std::size_t i = begin; i < end; ++i)
      for (const Dsa* peer : reached[i]->peers_)
        if (std::find(reached.begin(), reached.end(), peer) == reached.end())
          reached.push_back(peer);
    begin = end;
  }
  const TitleSignature need = filter.required_title();
  for (std::size_t k = 0; k < reached.size(); ++k) {
    const Dsa& dsa = *reached[k];
    dsa.scan(filter, need, [&](const MovieEntry& entry) {
      for (std::size_t j = 0; j < k; ++j) {
        if (reached[j]->domain_ != dsa.domain_) continue;
        const MovieEntry* twin = reached[j]->find(entry.id);
        if (twin != nullptr && filter.matches(*twin)) return;
      }
      visit(dsa, entry);
    });
  }
}

std::vector<MovieEntry> Dsa::search(const Filter& filter) const {
  return search_chained(filter, 0);
}

std::vector<MovieEntry> Dsa::search_chained(const Filter& filter,
                                            int hop_limit) const {
  std::vector<MovieEntry> out;
  for_each_match(filter, hop_limit,
                 [&](const Dsa&, const MovieEntry& e) { out.push_back(e); });
  return out;
}

// ---------------------------------------------------------------------------
// Dua

Result<MovieEntry> Dua::lookup(const std::string& title) const {
  auto local = home_.find_by_title(title);
  if (local.ok()) return local;
  auto results = home_.search_chained(Filter::equal("title", title));
  if (results.empty())
    return Error::make(kNoSuchEntry, "no movie titled '" + title + "'");
  return results.front();
}

std::vector<MovieEntry> Dua::search(const Filter& filter, bool chained) const {
  return chained ? home_.search_chained(filter) : home_.search(filter);
}

}  // namespace mcam::directory
