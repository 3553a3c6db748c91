#include "asn1/ber.hpp"

#include <limits>
#include <string>

namespace mcam::asn1 {

using common::Bytes;
using common::ByteSpan;
using common::Error;
using common::Result;

// ---- cursor ----------------------------------------------------------------

Asn1Error Reader::next(Tlv& out) noexcept {
  if (depth_ > kMaxDecodeDepth) return kDepthExceeded;
  const std::uint8_t* p = data_.data() + pos_;
  const std::uint8_t* const end = data_.data() + data_.size();
  if (p == end) return kTruncated;
  const std::uint8_t first = *p++;
  std::uint64_t tag = first & 0x1f;
  if (tag == 0x1f) {
    // High-tag-number form: base-128, MSB first, at most five octets, and
    // the number must fit the 32 bits every caller keeps it in.
    tag = 0;
    std::uint8_t octet = 0;
    int count = 0;
    do {
      if (p == end) return kTruncated;
      octet = *p++;
      if (++count > 5) return kBadTag;
      tag = (tag << 7) | (octet & 0x7f);
      if (tag > std::numeric_limits<std::uint32_t>::max()) return kBadTag;
    } while (octet & 0x80);
  }
  if (p == end) return kTruncated;
  const std::uint8_t len0 = *p++;
  std::size_t len = len0;
  if (len0 == 0x80) return kBadLength;  // indefinite form
  if (len0 > 0x80) {
    const int n = len0 & 0x7f;
    if (n > 8) return kBadLength;
    len = 0;
    for (int i = 0; i < n; ++i) {
      if (p == end) return kTruncated;
      len = (len << 8) | *p++;
    }
  }
  if (len > static_cast<std::size_t>(end - p)) return kTruncated;
  out.cls = static_cast<TagClass>(first >> 6);
  out.tag = static_cast<std::uint32_t>(tag);
  out.constructed = (first & 0x20) != 0;
  out.content = ByteSpan{p, len};
  out.depth = depth_;
  pos_ = static_cast<std::size_t>(p - data_.data()) + len;
  return kOk;
}

Asn1Error Reader::validate() noexcept {
  Tlv t;
  while (!empty()) {
    if (Asn1Error e = next(t)) return e;
    if (t.constructed)
      if (Asn1Error e = t.enter().validate()) return e;
  }
  return kOk;
}

std::size_t Reader::count() const noexcept {
  Reader r = *this;
  Tlv t;
  std::size_t n = 0;
  while (!r.empty() && r.next(t) == kOk) ++n;
  return n;
}

Reader Tlv::enter() const noexcept {
  return Reader(constructed ? content : ByteSpan{}, depth + 1);
}

bool Tlv::first(Tlv& out) const noexcept {
  Reader in = enter();
  return !in.empty() && in.next(out) == kOk;
}

bool Tlv::unwrap(Tlv& out) const noexcept {
  return enter().count() == 1 && first(out);
}

bool Tlv::find_context(std::uint32_t t, Tlv& out) const noexcept {
  for (Reader in = enter(); !in.empty() && in.next(out) == kOk;)
    if (out.is_context(t)) return true;
  return false;
}

std::int64_t Tlv::integer_or(std::int64_t fallback) const noexcept {
  std::int64_t v = 0;
  return integer(v) == kOk ? v : fallback;
}

Asn1Error Tlv::integer(std::int64_t& out) const noexcept {
  const bool int_like = is_universal(UniversalTag::Integer) ||
                        is_universal(UniversalTag::Enumerated) ||
                        cls == TagClass::ContextSpecific;
  if (!int_like || constructed) return kWrongType;
  if (content.empty() || content.size() > 8) return kBadLength;
  std::uint64_t v = (content[0] & 0x80) ? ~0ull : 0;
  for (std::uint8_t octet : content) v = (v << 8) | octet;
  out = static_cast<std::int64_t>(v);
  return kOk;
}

Asn1Error Tlv::text(std::string_view& out) const noexcept {
  const bool string_like = is_universal(UniversalTag::Ia5String) ||
                           is_universal(UniversalTag::Utf8String) ||
                           is_universal(UniversalTag::PrintableString) ||
                           is_universal(UniversalTag::GeneralizedTime) ||
                           cls == TagClass::ContextSpecific;
  if (!string_like || constructed) return kWrongType;
  out = std::string_view(reinterpret_cast<const char*>(content.data()),
                         content.size());
  return kOk;
}

Asn1Error Tlv::boolean(bool& out) const noexcept {
  if (!is_universal(UniversalTag::Boolean) || constructed ||
      content.size() != 1)
    return kWrongType;
  out = content[0] != 0;
  return kOk;
}

Asn1Error Tlv::octets(ByteSpan& out) const noexcept {
  if (constructed) return kWrongType;
  out = content;
  return kOk;
}

Asn1Error Tlv::oid(std::vector<std::uint32_t>& out) const {
  if (!is_universal(UniversalTag::ObjectIdentifier) || constructed ||
      content.empty())
    return kWrongType;
  out.assign({content[0] / 40u, content[0] % 40u});
  std::uint32_t acc = 0;
  for (std::size_t i = 1; i < content.size(); ++i) {
    acc = (acc << 7) | (content[i] & 0x7f);
    if ((content[i] & 0x80) == 0) {
      out.push_back(acc);
      acc = 0;
    }
  }
  return kOk;
}

Asn1Error read_one(ByteSpan data, Tlv& out) noexcept {
  Reader r(data);
  if (Asn1Error e = r.next(out)) return e;
  if (Asn1Error e = out.enter().validate()) return e;
  return r.empty() ? kOk : kTrailingBytes;
}

Error to_error(Asn1Error code) {
  static constexpr const char* kWhat[] = {
      "wrong ASN.1 type", "truncated BER",          "bad BER length",
      "bad BER tag",      "trailing octets after BER", "BER nesting too deep"};
  const int i = code - kWrongType;
  return Error::make(code, i >= 0 && i < 6 ? kWhat[i] : "BER error");
}

// ---- writer ----------------------------------------------------------------

namespace {

std::size_t tag_octets(std::uint32_t tag) noexcept {
  std::size_t n = 1;
  if (tag >= 31)
    for (; tag != 0; tag >>= 7) ++n;
  return n;
}

std::size_t length_octets(std::size_t len) noexcept {
  std::size_t n = 1;
  if (len >= 128)
    for (; len != 0; len >>= 8) ++n;
  return n;
}

std::size_t int_octets(std::int64_t v) noexcept {
  std::size_t n = 1;
  for (; v > 127 || v < -128; v >>= 8) ++n;
  return n;
}

}  // namespace

void Writer::identifier(TagClass cls, std::uint32_t tag, bool constructed) {
  const auto first = static_cast<std::uint8_t>(
      (static_cast<unsigned>(cls) << 6) | (constructed ? 0x20u : 0u));
  if (tag < 31) {
    out_.push_back(static_cast<std::uint8_t>(first | tag));
    return;
  }
  out_.push_back(first | 0x1f);
  for (std::size_t i = tag_octets(tag) - 1; i-- > 0;)
    out_.push_back(static_cast<std::uint8_t>((i != 0 ? 0x80u : 0u) |
                                             ((tag >> (7 * i)) & 0x7f)));
}

void Writer::length(std::size_t len) {
  const std::size_t n = length_octets(len) - 1;
  if (n == 0) {
    out_.push_back(static_cast<std::uint8_t>(len));
    return;
  }
  out_.push_back(static_cast<std::uint8_t>(0x80 | n));
  for (std::size_t i = n; i-- > 0;)
    out_.push_back(static_cast<std::uint8_t>(len >> (8 * i)));
}

std::size_t Writer::open(TagClass cls, std::uint32_t tag, bool constructed) {
  identifier(cls, tag, constructed);
  out_.push_back(0);
  return out_.size() - 1;
}

void Writer::close(std::size_t mark) {
  const std::size_t len = out_.size() - mark - 1;
  const std::size_t n = length_octets(len) - 1;
  if (n == 0) {
    out_[mark] = static_cast<std::uint8_t>(len);
    return;
  }
  out_.insert(out_.begin() + static_cast<std::ptrdiff_t>(mark + 1), n, 0);
  out_[mark] = static_cast<std::uint8_t>(0x80 | n);
  for (std::size_t i = 0; i < n; ++i)
    out_[mark + 1 + i] = static_cast<std::uint8_t>(len >> (8 * (n - 1 - i)));
}

void Writer::primitive(TagClass cls, std::uint32_t tag, ByteSpan content) {
  identifier(cls, tag, false);
  length(content.size());
  out_.insert(out_.end(), content.begin(), content.end());
}

void Writer::int_content(std::int64_t v) {
  for (std::size_t i = int_octets(v); i-- > 0;)
    out_.push_back(
        static_cast<std::uint8_t>(static_cast<std::uint64_t>(v) >> (8 * i)));
}

void Writer::integer(std::int64_t v, UniversalTag t) {
  identifier(TagClass::Universal, static_cast<std::uint32_t>(t), false);
  length(int_octets(v));
  int_content(v);
}

void Writer::oid_content(std::span<const std::uint32_t> arcs) {
  // ISO 8825 §8.19: the first two arcs pack into one octet; the rest are
  // base-128, MSB first, with continuation bits.
  if (arcs.empty()) return;
  out_.push_back(static_cast<std::uint8_t>(
      arcs[0] * 40 + (arcs.size() >= 2 ? arcs[1] : 0)));
  for (std::size_t i = 2; i < arcs.size(); ++i) {
    std::size_t groups = 1;
    for (std::uint32_t a = arcs[i] >> 7; a != 0; a >>= 7) ++groups;
    for (std::size_t g = groups; g-- > 0;)
      out_.push_back(static_cast<std::uint8_t>(
          (g != 0 ? 0x80u : 0u) | ((arcs[i] >> (7 * g)) & 0x7f)));
  }
}

void Writer::oid(std::span<const std::uint32_t> arcs) {
  const std::size_t mark = open(
      TagClass::Universal,
      static_cast<std::uint32_t>(UniversalTag::ObjectIdentifier), false);
  oid_content(arcs);
  close(mark);
}

void Writer::value(const Value& v) {
  if (!v.constructed()) {
    primitive(v.tag_class(), v.tag(), v.content());
    return;
  }
  const std::size_t mark = open(v.tag_class(), v.tag());
  for (const Value& c : v.children()) value(c);
  close(mark);
}

Bytes& detail::scratch_buffer() noexcept {
  thread_local Bytes buf;
  return buf;
}

// ---- value tree ------------------------------------------------------------

namespace {

Result<Value> decode_one(Reader& r) {
  Tlv t;
  if (Asn1Error e = r.next(t)) return to_error(e);
  if (!t.constructed)
    return Value::raw(t.cls, t.tag, false,
                      Bytes(t.content.begin(), t.content.end()), {});
  std::vector<Value> children;
  for (Reader inner = t.enter(); !inner.empty();) {
    auto child = decode_one(inner);
    if (!child.ok()) return child;
    children.push_back(std::move(child).take());
  }
  return Value::raw(t.cls, t.tag, true, {}, std::move(children));
}

}  // namespace

std::size_t encoded_length(const Value& v) {
  std::size_t content = v.constructed() ? 0 : v.content().size();
  if (v.constructed())
    for (const Value& c : v.children()) content += encoded_length(c);
  return tag_octets(v.tag()) + length_octets(content) + content;
}

void encode_to(const Value& v, Bytes& out) { Writer(out).value(v); }

Bytes encode(const Value& v) {
  return encode_with([&](Writer& w) { w.value(v); });
}

Result<Value> decode(ByteSpan data) {
  Reader r(data);
  auto v = decode_one(r);
  if (!v.ok()) return v;
  if (!r.empty())
    return Error::make(kTrailingBytes,
                       std::to_string(data.size() - r.consumed()) +
                           " trailing bytes");
  return v;
}

Result<Value> decode_prefix(ByteSpan data, std::size_t& offset) {
  Reader r(data.subspan(offset));
  auto v = decode_one(r);
  if (v.ok()) offset += r.consumed();
  return v;
}

}  // namespace mcam::asn1
