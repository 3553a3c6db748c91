// BER transfer syntax (ISO 8825), definite-length form: what the paper's
// generated ASN.1 encode/decode routines implement. High-tag-number form
// and multi-octet lengths are supported; indefinite length is neither
// produced nor accepted (the paper's toolchain emitted definite lengths).
//
// Reader (a TLV cursor yielding views) and Writer (appends to a caller's
// buffer, back-patching lengths) carry the typed codecs: MCAM PDUs, PPDUs,
// ACSE APDUs and the transport's per-message frames. encode/decode of a
// Value tree run on the same two, so both accept and emit the same octets.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "asn1/value.hpp"
#include "common/bytes.hpp"
#include "common/result.hpp"

namespace mcam::asn1 {

/// Maximum nesting depth accepted by the decoder; deeper input is rejected
/// with kDepthExceeded rather than recursing unboundedly on hostile data.
inline constexpr int kMaxDecodeDepth = 64;

class Reader;

/// One decoded TLV: its identifier, its content octets (a view into the
/// input) and its nesting depth. The getters accept exactly what Value's
/// checked accessors accept.
struct Tlv {
  TagClass cls = TagClass::Universal;
  std::uint32_t tag = 0;
  bool constructed = false;
  ByteSpan content;
  int depth = 0;

  [[nodiscard]] bool is_universal(UniversalTag t) const noexcept {
    return cls == TagClass::Universal && tag == static_cast<std::uint32_t>(t);
  }
  [[nodiscard]] bool is_context(std::uint32_t t) const noexcept {
    return cls == TagClass::ContextSpecific && tag == t;
  }

  /// Primitive INTEGER, ENUMERATED or [n]; 1..8 two's-complement octets.
  [[nodiscard]] Asn1Error integer(std::int64_t& out) const noexcept;
  /// Primitive IA5String, UTF8String, PrintableString, GeneralizedTime or [n].
  [[nodiscard]] Asn1Error text(std::string_view& out) const noexcept;
  /// Primitive BOOLEAN of one octet.
  [[nodiscard]] Asn1Error boolean(bool& out) const noexcept;
  /// Content octets of any primitive.
  [[nodiscard]] Asn1Error octets(ByteSpan& out) const noexcept;
  /// OBJECT IDENTIFIER arcs.
  [[nodiscard]] Asn1Error oid(std::vector<std::uint32_t>& out) const;
  /// integer(), or `fallback` when that fails.
  [[nodiscard]] std::int64_t integer_or(std::int64_t fallback) const noexcept;

  /// Cursor over the children, one level deeper; empty when primitive.
  [[nodiscard]] Reader enter() const noexcept;
  /// The first child; false when there is none.
  [[nodiscard]] bool first(Tlv& out) const noexcept;
  /// The only child of an [n] EXPLICIT wrapper; false unless exactly one.
  [[nodiscard]] bool unwrap(Tlv& out) const noexcept;
  /// The first child carrying context tag `t` (OPTIONAL components).
  [[nodiscard]] bool find_context(std::uint32_t t, Tlv& out) const noexcept;
};

/// Cursor over a run of sibling TLVs.
class Reader {
 public:
  explicit Reader(ByteSpan data, int depth = 0) noexcept
      : data_(data), depth_(depth) {}

  [[nodiscard]] bool empty() const noexcept { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t consumed() const noexcept { return pos_; }

  /// Parse the next header and step past its content. Errors:
  /// kDepthExceeded, kTruncated, kBadTag, kBadLength.
  [[nodiscard]] Asn1Error next(Tlv& out) noexcept;
  /// Check every remaining TLV, at every depth, without keeping any.
  [[nodiscard]] Asn1Error validate() noexcept;
  /// Number of remaining siblings (up to the first malformed header).
  [[nodiscard]] std::size_t count() const noexcept;

 private:
  ByteSpan data_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

/// `data` as exactly one well-formed TLV, every nested TLV checked, no
/// trailing octets: the cursor counterpart of decode(), with the same
/// verdicts and error codes.
[[nodiscard]] Asn1Error read_one(ByteSpan data, Tlv& out) noexcept;

/// An Error carrying `code` and a fixed description of it.
[[nodiscard]] common::Error to_error(Asn1Error code);

/// Appends minimal BER (shortest lengths and INTEGERs) to a caller's
/// buffer. open() writes one placeholder length octet; close() patches it,
/// shifting the content up once it reached 128 octets or more. With the
/// buffer warm, writing allocates nothing.
class Writer {
 public:
  explicit Writer(Bytes& out) noexcept : out_(out) {}

  /// Identifier plus a placeholder length; returns the mark for close().
  std::size_t open(TagClass cls, std::uint32_t tag, bool constructed = true);
  void close(std::size_t mark);

  template <typename Body>
  void constructed(TagClass cls, std::uint32_t tag, Body&& body) {
    const std::size_t mark = open(cls, tag);
    body();
    close(mark);
  }
  template <typename Body>
  void sequence(Body&& body) {
    constructed(TagClass::Universal,
                static_cast<std::uint32_t>(UniversalTag::Sequence), body);
  }
  /// [n] EXPLICIT around whatever `body` writes.
  template <typename Body>
  void context(std::uint32_t tag, Body&& body) {
    constructed(TagClass::ContextSpecific, tag, body);
  }

  void integer(std::int64_t v, UniversalTag t = UniversalTag::Integer);
  void boolean(bool v) {
    const std::uint8_t octet = v ? 0xff : 0x00;
    universal(UniversalTag::Boolean, {&octet, 1});
  }
  void string(std::string_view s, UniversalTag t = UniversalTag::Ia5String) {
    universal(t, {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  }
  void octets(ByteSpan data) { universal(UniversalTag::OctetString, data); }
  void oid(std::span<const std::uint32_t> arcs);
  void null() { universal(UniversalTag::Null, {}); }
  /// A whole Value tree.
  void value(const Value& v);

  /// Content octets only, for Value's factories.
  void int_content(std::int64_t v);
  void oid_content(std::span<const std::uint32_t> arcs);

 private:
  void primitive(TagClass cls, std::uint32_t tag, ByteSpan content);
  void universal(UniversalTag t, ByteSpan content) {
    primitive(TagClass::Universal, static_cast<std::uint32_t>(t), content);
  }
  void identifier(TagClass cls, std::uint32_t tag, bool constructed);
  void length(std::size_t len);

  Bytes& out_;
};

namespace detail {
/// The calling thread's encode buffer (see encode_with).
Bytes& scratch_buffer() noexcept;
}  // namespace detail

/// Run `body` on a Writer over the thread's reused buffer and return an
/// exact-size copy: one allocation per encoded value, whatever its shape.
/// A nested call finds the buffer taken and works on a fresh one.
template <typename Body>
Bytes encode_with(Body&& body) {
  Bytes buf = std::move(detail::scratch_buffer());
  buf.clear();
  Writer w(buf);
  body(w);
  Bytes out(buf.begin(), buf.end());
  detail::scratch_buffer() = std::move(buf);
  return out;
}

/// Encode a value tree to definite-length BER.
common::Bytes encode(const Value& v);

/// Append the encoding of `v` to `out`.
void encode_to(const Value& v, common::Bytes& out);

/// Number of octets `encode(v)` will produce.
std::size_t encoded_length(const Value& v);

/// Decode exactly one value; trailing bytes are an error.
common::Result<Value> decode(common::ByteSpan data);

/// Decode one value starting at `offset`; on success advances `offset` past
/// it. Permits trailing data (used when PDUs are concatenated in a stream).
common::Result<Value> decode_prefix(common::ByteSpan data,
                                    std::size_t& offset);

}  // namespace mcam::asn1
