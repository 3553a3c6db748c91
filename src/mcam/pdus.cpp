#include "mcam/pdus.hpp"

#include <concepts>
#include <string_view>

#include "asn1/ber.hpp"

namespace mcam::core {

using asn1::Reader;
using asn1::TagClass;
using asn1::Tlv;
using asn1::Writer;
using common::ByteSpan;
using common::Error;
using common::Result;
using directory::Filter;

namespace {

// The variant lists the PDUs in Op order: alternative i carries Op i + 1,
// and the two high-tag PDUs close the list.
constexpr std::size_t kLowOps = 32;
constexpr auto kFirstHighOp = static_cast<std::uint32_t>(Op::PositionInd);
static_assert(std::variant_size_v<Pdu> == kLowOps + 2);
static_assert(std::is_same_v<std::variant_alternative_t<0, Pdu>, AssociateReq>);
static_assert(std::is_same_v<std::variant_alternative_t<kLowOps - 1, Pdu>,
                             MovieSearchResp>);
static_assert(
    std::is_same_v<std::variant_alternative_t<kLowOps, Pdu>, PositionInd>);

/// Variant index of an operation tag; std::variant_npos when unknown.
constexpr std::size_t index_of(std::uint32_t tag) noexcept {
  if (tag >= 1 && tag <= kLowOps) return tag - 1;
  if (tag >= kFirstHighOp && tag < kFirstHighOp + 2)
    return kLowOps + (tag - kFirstHighOp);
  return std::variant_npos;
}

}  // namespace

const char* op_name(Op op) noexcept {
  static constexpr const char* kNames[] = {
      "AssociateReq",     "AssociateResp",   "ReleaseReq",
      "ReleaseResp",      "MovieCreateReq",  "MovieCreateResp",
      "MovieDeleteReq",   "MovieDeleteResp", "MovieSelectReq",
      "MovieSelectResp",  "AttrQueryReq",    "AttrQueryResp",
      "AttrModifyReq",    "AttrModifyResp",  "PlayReq",
      "PlayResp",         "StopReq",         "StopResp",
      "PauseReq",         "PauseResp",       "ResumeReq",
      "ResumeResp",       "RecordReq",       "RecordResp",
      "RecordStopReq",    "RecordStopResp",  "EquipListReq",
      "EquipListResp",    "EquipControlReq", "EquipControlResp",
      "MovieSearchReq",   "MovieSearchResp", "PositionInd",
      "ErrorResp"};
  static_assert(std::size(kNames) == std::variant_size_v<Pdu>);
  const std::size_t i = index_of(static_cast<std::uint32_t>(op));
  return i < std::size(kNames) ? kNames[i] : "?";
}

const char* result_name(ResultCode rc) noexcept {
  static constexpr const char* kNames[] = {
      "success",          "no-such-movie",   "duplicate-movie",
      "not-selected",     "access-denied",   "bad-attribute",
      "no-such-equipment", "equipment-busy", "protocol-error",
      "not-playing",      "already-playing", "not-associated",
      "internal-error"};
  const auto i = static_cast<std::size_t>(rc);
  return i < std::size(kNames) ? kNames[i] : "?";
}

namespace {

template <typename T, typename... U>
constexpr bool is_one_of = (std::is_same_v<T, U> || ...);

/// The components of every PDU body and row type, in wire order: the
/// SEQUENCE components of the MCAM ASN.1 module. Encoding and decoding both
/// walk this one list. (PlayReq's OPTIONAL QoS tail is handled apart.)
template <typename P, typename F>
void fields(P& p, F&& f) {
  using T = std::remove_const_t<P>;
  if constexpr (is_one_of<T, ReleaseReq, ReleaseResp>) {
  } else if constexpr (std::is_same_v<T, Attr>) {
    f(p.name), f(p.value);
  } else if constexpr (std::is_same_v<T, AssociateReq>) {
    f(p.user), f(p.version);
  } else if constexpr (is_one_of<T, AssociateResp, ErrorResp>) {
    f(p.result), f(p.diagnostic);
  } else if constexpr (std::is_same_v<T, MovieCreateReq>) {
    f(p.title), f(p.attrs);
  } else if constexpr (is_one_of<T, MovieCreateResp, RecordResp>) {
    f(p.result), f(p.movie_id);
  } else if constexpr (is_one_of<T, MovieDeleteReq, StopReq, PauseReq,
                                 ResumeReq, RecordStopReq>) {
    f(p.movie_id);
  } else if constexpr (is_one_of<T, MovieDeleteResp, AttrModifyResp,
                                 PauseResp, ResumeResp>) {
    f(p.result);
  } else if constexpr (std::is_same_v<T, MovieSelectReq>) {
    f(p.title);
  } else if constexpr (std::is_same_v<T, MovieSelectResp>) {
    f(p.result), f(p.movie_id), f(p.attrs);
  } else if constexpr (std::is_same_v<T, AttrQueryReq>) {
    f(p.movie_id), f(p.names);
  } else if constexpr (std::is_same_v<T, AttrQueryResp>) {
    f(p.result), f(p.attrs);
  } else if constexpr (std::is_same_v<T, AttrModifyReq>) {
    f(p.movie_id), f(p.attrs);
  } else if constexpr (std::is_same_v<T, PlayReq>) {
    f(p.movie_id), f(p.start_frame), f(p.dest_host), f(p.dest_port);
  } else if constexpr (std::is_same_v<T, PlayResp>) {
    f(p.result), f(p.stream_id);
  } else if constexpr (std::is_same_v<T, StopResp>) {
    f(p.result), f(p.position);
  } else if constexpr (std::is_same_v<T, RecordReq>) {
    f(p.title), f(p.equipment_id), f(p.attrs);
  } else if constexpr (std::is_same_v<T, RecordStopResp>) {
    f(p.result), f(p.frames);
  } else if constexpr (std::is_same_v<T, EquipListReq>) {
    f(p.kind);
  } else if constexpr (std::is_same_v<T, EquipItem>) {
    f(p.id), f(p.kind), f(p.name), f(p.powered), f(p.reserved_by);
  } else if constexpr (std::is_same_v<T, EquipListResp>) {
    f(p.result), f(p.items);
  } else if constexpr (std::is_same_v<T, EquipControlReq>) {
    f(p.equipment_id), f(p.command), f(p.param), f(p.value);
  } else if constexpr (std::is_same_v<T, EquipControlResp>) {
    f(p.result), f(p.powered), f(p.value), f(p.reserved_by);
  } else if constexpr (std::is_same_v<T, MovieSearchReq>) {
    f(p.filter), f(p.chained);
  } else if constexpr (std::is_same_v<T, MovieSearchResp>) {
    f(p.result), f(p.hits);
  } else if constexpr (std::is_same_v<T, SearchHit>) {
    f(p.movie_id), f(p.attrs);
  } else {
    static_assert(std::is_same_v<T, PositionInd>);
    f(p.movie_id), f(p.frame);
  }
}

/// Number of components of a row type (the SEQUENCE arity a decoder checks).
template <typename Row>
std::size_t arity() {
  static const std::size_t n = [] {
    Row r{};
    std::size_t k = 0;
    fields(r, [&](auto&) { ++k; });
    return k;
  }();
  return n;
}

// ---- encode ----

void put_field(Writer& w, const std::string& s) { w.string(s); }
void put_field(Writer& w, bool b) { w.boolean(b); }
void put_field(Writer& w, ResultCode rc) {
  w.integer(static_cast<int>(rc), asn1::UniversalTag::Enumerated);
}
template <std::integral I>
void put_field(Writer& w, I v) {
  w.integer(static_cast<std::int64_t>(v));
}

/// Filter CHOICE: [0] and, [1] or, [2] not, [3] equality, [4] substring,
/// [5] present, [6] all.
void put_field(Writer& w, const Filter& f) {
  using F = Filter::Op;
  switch (f.op()) {
    case F::And:
    case F::Or:
      return w.context(f.op() == F::And ? 0 : 1, [&] {
        w.sequence([&] {
          for (const Filter& c : f.children()) put_field(w, c);
        });
      });
    case F::Not:
      return w.context(2, [&] { put_field(w, f.children().front()); });
    case F::Equal:
    case F::Substring:
      return w.context(f.op() == F::Equal ? 3 : 4, [&] {
        w.sequence([&] { w.string(f.attr()), w.string(f.value()); });
      });
    case F::Present:
      return w.context(5, [&] { w.string(f.attr()); });
    case F::All:
      break;
  }
  w.context(6, [&] { w.null(); });
}

/// SEQUENCE OF IA5String, or SEQUENCE OF SEQUENCE { row components }.
template <typename Row>
void put_field(Writer& w, const std::vector<Row>& rows) {
  w.sequence([&] {
    for (const Row& r : rows) {
      if constexpr (std::is_same_v<Row, std::string>)
        put_field(w, r);
      else
        w.sequence([&] { fields(r, [&](const auto& x) { put_field(w, x); }); });
    }
  });
}

void write_pdu(Writer& w, const Pdu& pdu) {
  std::visit(
      [&](const auto& p) {
        w.constructed(TagClass::Application,
                      static_cast<std::uint32_t>(op_of(pdu)), [&] {
          fields(p, [&](const auto& x) { put_field(w, x); });
          if constexpr (std::is_same_v<std::decay_t<decltype(p)>, PlayReq>) {
            // §6 QoS extension: OPTIONAL context-tagged fields.
            if (p.qos_max_delay_ms != 0)
              w.context(0, [&] { w.integer(p.qos_max_delay_ms); });
            if (p.qos_max_jitter_ms != 0)
              w.context(1, [&] { w.integer(p.qos_max_jitter_ms); });
          }
        });
      },
      pdu);
}

// ---- decode ----
// A decode step returns 0, an asn1::Asn1Error or a McamCodecError; the
// input was checked as a whole by asn1::read_one before any field is read.

using Code = int;

Error error(Code code) {
  switch (code) {
    case kUnknownOp: return Error::make(code, "not an MCAM PDU");
    case kBadPduBody: return Error::make(code, "malformed MCAM PDU body");
    case kBadFilter: return Error::make(code, "malformed directory filter");
  }
  return asn1::to_error(static_cast<asn1::Asn1Error>(code));
}

Code get_field(const Tlv& t, std::string& x) {
  std::string_view s;
  if (Code e = t.text(s)) return e;
  x.assign(s);
  return 0;
}
Code get_field(const Tlv& t, bool& x) { return t.boolean(x); }
template <typename I>
  requires std::integral<I> || std::is_enum_v<I>
Code get_field(const Tlv& t, I& x) {
  std::int64_t v = 0;
  if (Code e = t.integer(v)) return e;
  x = static_cast<I>(v);
  return 0;
}

template <typename P>
Code get_fields(Reader& in, P& p);
template <typename Row>
Code get_field(const Tlv& t, std::vector<Row>& rows);

Code get_filter(const Tlv& v, Filter& out, int depth) {
  if (depth > 32) return kBadFilter;  // nesting bomb
  Tlv body;
  if (v.cls != TagClass::ContextSpecific || !v.unwrap(body)) return kBadFilter;
  switch (v.tag) {
    case 0:
    case 1: {
      std::vector<Filter> kids;
      Tlv t;
      for (Reader k = body.enter(); !k.empty();) {
        Filter kid;
        if (Code e = k.next(t)) return e;
        if (Code e = get_filter(t, kid, depth + 1)) return e;
        kids.push_back(std::move(kid));
      }
      out = v.tag == 0 ? Filter::and_(std::move(kids))
                       : Filter::or_(std::move(kids));
      return 0;
    }
    case 2: {
      Filter inner;
      if (Code e = get_filter(body, inner, depth + 1)) return e;
      out = Filter::not_(std::move(inner));
      return 0;
    }
    case 3:
    case 4: {  // SEQUENCE { attr, value }: the shape of an Attr row
      Reader m = body.enter();
      Attr match;
      if (m.count() != 2) return kBadFilter;
      if (Code e = get_fields(m, match)) return e;
      out = v.tag == 3 ? Filter::equal(match.name, match.value)
                       : Filter::substring(match.name, match.value);
      return 0;
    }
    case 5: {
      std::string_view attr;
      if (Code e = body.text(attr)) return e;
      out = Filter::present(std::string(attr));
      return 0;
    }
    case 6:
      out = Filter::all();
      return 0;
  }
  return kBadFilter;
}

Code get_field(const Tlv& t, Filter& x) { return get_filter(t, x, 0); }

/// The components of `p`, in order, from the siblings left in `in`; a
/// missing one is kBadPduBody, extra ones are ignored.
template <typename P>
Code get_fields(Reader& in, P& p) {
  Code code = 0;
  fields(p, [&](auto& x) {
    Tlv t;
    if (code != 0) return;
    if (in.empty())
      code = kBadPduBody;
    else if (Code e = in.next(t))
      code = e;
    else
      code = get_field(t, x);
  });
  return code;
}

/// A primitive list field reads as empty; a row must have exactly its
/// components (kBadPduBody), and an equipment item reports any defect as
/// kBadPduBody.
template <typename Row>
Code get_field(const Tlv& t, std::vector<Row>& rows) {
  Reader in = t.enter();
  rows.reserve(in.count());
  Tlv row;
  while (!in.empty()) {
    if (Code e = in.next(row)) return e;
    Row r{};
    if constexpr (std::is_same_v<Row, std::string>) {
      if (Code e = get_field(row, r)) return e;
    } else {
      Reader cols = row.enter();
      const Code e =
          cols.count() != arity<Row>() ? kBadPduBody : get_fields(cols, r);
      if (e != 0) return std::is_same_v<Row, EquipItem> ? kBadPduBody : e;
    }
    rows.push_back(std::move(r));
  }
  return 0;
}

/// §6 QoS extension: the first [tag] component anywhere in the body counts
/// when it wraps exactly one INTEGER; otherwise the bound is 0.
std::uint32_t get_qos(const Tlv& body, std::uint32_t tag) {
  Tlv wrapper, v;
  return body.find_context(tag, wrapper) && wrapper.unwrap(v)
             ? static_cast<std::uint32_t>(v.integer_or(0))
             : 0;
}

template <typename P>
Result<Pdu> decode_body(const Tlv& pdu) {
  P p{};
  Reader in = pdu.enter();
  // A search request's arity is checked before its filter is read.
  const Code code = std::is_same_v<P, MovieSearchReq> && in.count() < 2
                        ? kBadPduBody
                        : get_fields(in, p);
  if (code != 0) return error(code);
  if constexpr (std::is_same_v<P, PlayReq>) {
    p.qos_max_delay_ms = get_qos(pdu, 0);
    p.qos_max_jitter_ms = get_qos(pdu, 1);
  }
  return Pdu{std::move(p)};
}

template <std::size_t... I>
Result<Pdu> decode_alternative(std::size_t index, const Tlv& pdu,
                               std::index_sequence<I...>) {
  using Decoder = Result<Pdu> (*)(const Tlv&);
  static constexpr Decoder kDecoders[] = {
      &decode_body<std::variant_alternative_t<I, Pdu>>...};
  return kDecoders[index](pdu);
}

}  // namespace

Op op_of(const Pdu& pdu) noexcept {
  const std::size_t i = pdu.index();
  return static_cast<Op>(i < kLowOps ? i + 1 : kFirstHighOp + (i - kLowOps));
}

Bytes encode(const Pdu& pdu) {
  return asn1::encode_with([&](Writer& w) { write_pdu(w, pdu); });
}

void encode_to(const Pdu& pdu, Bytes& out) {
  Writer w(out);
  write_pdu(w, pdu);
}

common::Result<Op> peek_op(ByteSpan raw) {
  Tlv pdu;
  if (asn1::Asn1Error e = asn1::read_one(raw, pdu)) return asn1::to_error(e);
  if (pdu.cls != TagClass::Application) return error(kUnknownOp);
  return static_cast<Op>(pdu.tag);
}

common::Result<Pdu> decode(ByteSpan raw) {
  Tlv pdu;
  if (asn1::Asn1Error e = asn1::read_one(raw, pdu)) return asn1::to_error(e);
  if (pdu.cls != TagClass::Application || !pdu.constructed)
    return error(kUnknownOp);
  const std::size_t index = index_of(pdu.tag);
  if (index == std::variant_npos)
    return Error::make(kUnknownOp, "unknown MCAM operation tag " +
                                       std::to_string(pdu.tag));
  return decode_alternative(index, pdu,
                            std::make_index_sequence<kLowOps + 2>{});
}

Bytes encode_filter(const Filter& filter) {
  return asn1::encode_with([&](Writer& w) { put_field(w, filter); });
}

common::Result<Filter> decode_filter(ByteSpan raw) {
  Tlv t;
  if (asn1::Asn1Error e = asn1::read_one(raw, t)) return asn1::to_error(e);
  Filter f;
  if (Code e = get_filter(t, f, 0)) return error(e);
  return f;
}

}  // namespace mcam::core
