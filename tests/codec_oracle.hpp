// The tree-based MCAM, PPDU and ACSE codecs: each PDU built as an
// asn1::Value tree and encoded with asn1::encode, each received PDU decoded
// into a tree with asn1::decode and read through Value's accessors. This was
// the library's codec before the typed codecs moved onto the cursor and
// writer; it stays here as the reference the differential test
// (codec_differential_test) holds them to: same octets out, same verdicts,
// error codes and decoded fields in.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "asn1/ber.hpp"
#include "mcam/pdus.hpp"
#include "osi/acse.hpp"
#include "osi/presentation.hpp"

namespace mcam::core::oracle {

using asn1::Value;
using asn1::values;
using common::Error;
using common::Result;

// ---- encode helpers ----

inline Value enc_attrs(const std::vector<Attr>& attrs) {
  std::vector<Value> rows;
  rows.reserve(attrs.size());
  for (const Attr& a : attrs)
    rows.push_back(Value::sequence(
        values(Value::ia5string(a.name), Value::ia5string(a.value))));
  return Value::sequence(std::move(rows));
}

inline Value enc_names(const std::vector<std::string>& names) {
  std::vector<Value> rows;
  rows.reserve(names.size());
  for (const std::string& n : names) rows.push_back(Value::ia5string(n));
  return Value::sequence(std::move(rows));
}

inline Value enc_result(ResultCode rc) {
  return Value::enumerated(static_cast<int>(rc));
}

// ---- decode helpers ----

/// Sequential reader over the field list of a decoded PDU body.
class Fields {
 public:
  explicit Fields(const Value& pdu) : pdu_(pdu) {}

  Result<std::int64_t> integer() {
    auto v = next();
    if (!v.ok()) return v.error();
    return v.value().get().as_int();
  }
  Result<std::string> text() {
    auto v = next();
    if (!v.ok()) return v.error();
    return v.value().get().as_string();
  }
  Result<ResultCode> result_code() {
    auto v = integer();
    if (!v.ok()) return v.error();
    return static_cast<ResultCode>(v.value());
  }
  Result<bool> boolean() {
    auto v = next();
    if (!v.ok()) return v.error();
    return v.value().get().as_bool();
  }
  Result<std::vector<Attr>> attrs() {
    auto v = next();
    if (!v.ok()) return v.error();
    std::vector<Attr> out;
    for (const Value& row : v.value().get().children()) {
      if (row.size() != 2)
        return Error::make(kBadPduBody, "attr row arity");
      auto name = row.child(0).as_string();
      auto value = row.child(1).as_string();
      if (!name.ok()) return name.error();
      if (!value.ok()) return value.error();
      out.push_back(Attr{name.value(), value.value()});
    }
    return out;
  }
  Result<std::vector<std::string>> names() {
    auto v = next();
    if (!v.ok()) return v.error();
    std::vector<std::string> out;
    for (const Value& row : v.value().get().children()) {
      auto s = row.as_string();
      if (!s.ok()) return s.error();
      out.push_back(s.value());
    }
    return out;
  }

 private:
  Result<std::reference_wrapper<const Value>> next() {
    if (index_ >= pdu_.size())
      return Error::make(kBadPduBody, "missing PDU field");
    return std::cref(pdu_.child(index_++));
  }

  const Value& pdu_;
  std::size_t index_ = 0;
};

inline asn1::Value encode_filter(const directory::Filter& filter) {
  using directory::Filter;
  switch (filter.op()) {
    case Filter::Op::And:
    case Filter::Op::Or: {
      std::vector<Value> kids;
      kids.reserve(filter.children().size());
      for (const Filter& c : filter.children())
        kids.push_back(encode_filter(c));
      return Value::context(filter.op() == Filter::Op::And ? 0 : 1,
                            Value::sequence(std::move(kids)));
    }
    case Filter::Op::Not:
      return Value::context(2, encode_filter(filter.children().front()));
    case Filter::Op::Equal:
      return Value::context(
          3, Value::sequence(values(Value::ia5string(filter.attr()),
                                    Value::ia5string(filter.value()))));
    case Filter::Op::Substring:
      return Value::context(
          4, Value::sequence(values(Value::ia5string(filter.attr()),
                                    Value::ia5string(filter.value()))));
    case Filter::Op::Present:
      return Value::context(5, Value::ia5string(filter.attr()));
    case Filter::Op::All:
      return Value::context(6, Value::null());
  }
  return Value::context(6, Value::null());
}

inline common::Result<directory::Filter> decode_filter(const asn1::Value& v,
                                                int depth = 0) {
  using directory::Filter;
  if (depth > 32)
    return Error::make(kBadFilter, "filter nesting too deep");
  if (v.tag_class() != asn1::TagClass::ContextSpecific || !v.constructed() ||
      v.size() != 1)
    return Error::make(kBadFilter, "malformed filter node");
  const Value& body = v.child(0);
  switch (v.tag()) {
    case 0:
    case 1: {
      std::vector<Filter> kids;
      for (const Value& c : body.children()) {
        auto k = decode_filter(c, depth + 1);
        if (!k.ok()) return k.error();
        kids.push_back(std::move(k).take());
      }
      return v.tag() == 0 ? Filter::and_(std::move(kids))
                          : Filter::or_(std::move(kids));
    }
    case 2: {
      auto inner = decode_filter(body, depth + 1);
      if (!inner.ok()) return inner.error();
      return Filter::not_(std::move(inner).take());
    }
    case 3:
    case 4: {
      if (body.size() != 2)
        return Error::make(kBadFilter, "match filter arity");
      auto attr = body.child(0).as_string();
      auto value = body.child(1).as_string();
      if (!attr.ok()) return attr.error();
      if (!value.ok()) return value.error();
      return v.tag() == 3 ? Filter::equal(attr.value(), value.value())
                          : Filter::substring(attr.value(), value.value());
    }
    case 5: {
      auto attr = body.as_string();
      if (!attr.ok()) return attr.error();
      return Filter::present(attr.value());
    }
    case 6:
      return Filter::all();
    default:
      return Error::make(kBadFilter, "unknown filter tag");
  }
}

inline Bytes encode(const Pdu& pdu) {
  const Op op = op_of(pdu);
  std::vector<Value> fields = std::visit(
      [](const auto& p) -> std::vector<Value> {
        using T = std::decay_t<decltype(p)>;
        if constexpr (std::is_same_v<T, AssociateReq>) {
          return values(Value::ia5string(p.user), Value::integer(p.version));
        } else if constexpr (std::is_same_v<T, AssociateResp>) {
          return values(enc_result(p.result), Value::ia5string(p.diagnostic));
        } else if constexpr (std::is_same_v<T, ReleaseReq> ||
                             std::is_same_v<T, ReleaseResp>) {
          return values();
        } else if constexpr (std::is_same_v<T, MovieCreateReq>) {
          return values(Value::ia5string(p.title), enc_attrs(p.attrs));
        } else if constexpr (std::is_same_v<T, MovieCreateResp>) {
          return values(enc_result(p.result),
                        Value::integer(static_cast<std::int64_t>(p.movie_id)));
        } else if constexpr (std::is_same_v<T, MovieDeleteReq>) {
          return values(Value::integer(static_cast<std::int64_t>(p.movie_id)));
        } else if constexpr (std::is_same_v<T, MovieDeleteResp>) {
          return values(enc_result(p.result));
        } else if constexpr (std::is_same_v<T, MovieSelectReq>) {
          return values(Value::ia5string(p.title));
        } else if constexpr (std::is_same_v<T, MovieSelectResp>) {
          return values(enc_result(p.result),
                        Value::integer(static_cast<std::int64_t>(p.movie_id)),
                        enc_attrs(p.attrs));
        } else if constexpr (std::is_same_v<T, AttrQueryReq>) {
          return values(Value::integer(static_cast<std::int64_t>(p.movie_id)),
                        enc_names(p.names));
        } else if constexpr (std::is_same_v<T, AttrQueryResp>) {
          return values(enc_result(p.result), enc_attrs(p.attrs));
        } else if constexpr (std::is_same_v<T, AttrModifyReq>) {
          return values(Value::integer(static_cast<std::int64_t>(p.movie_id)),
                        enc_attrs(p.attrs));
        } else if constexpr (std::is_same_v<T, AttrModifyResp>) {
          return values(enc_result(p.result));
        } else if constexpr (std::is_same_v<T, PlayReq>) {
          std::vector<Value> fields =
              values(Value::integer(static_cast<std::int64_t>(p.movie_id)),
                     Value::integer(static_cast<std::int64_t>(p.start_frame)),
                     Value::ia5string(p.dest_host),
                     Value::integer(p.dest_port));
          // §6 QoS extension: OPTIONAL context-tagged fields.
          if (p.qos_max_delay_ms != 0)
            fields.push_back(Value::context(0, Value::integer(p.qos_max_delay_ms)));
          if (p.qos_max_jitter_ms != 0)
            fields.push_back(
                Value::context(1, Value::integer(p.qos_max_jitter_ms)));
          return fields;
        } else if constexpr (std::is_same_v<T, PlayResp>) {
          return values(enc_result(p.result), Value::integer(p.stream_id));
        } else if constexpr (std::is_same_v<T, StopReq>) {
          return values(Value::integer(static_cast<std::int64_t>(p.movie_id)));
        } else if constexpr (std::is_same_v<T, StopResp>) {
          return values(enc_result(p.result),
                        Value::integer(static_cast<std::int64_t>(p.position)));
        } else if constexpr (std::is_same_v<T, PauseReq>) {
          return values(Value::integer(static_cast<std::int64_t>(p.movie_id)));
        } else if constexpr (std::is_same_v<T, PauseResp>) {
          return values(enc_result(p.result));
        } else if constexpr (std::is_same_v<T, ResumeReq>) {
          return values(Value::integer(static_cast<std::int64_t>(p.movie_id)));
        } else if constexpr (std::is_same_v<T, ResumeResp>) {
          return values(enc_result(p.result));
        } else if constexpr (std::is_same_v<T, RecordReq>) {
          return values(Value::ia5string(p.title),
                        Value::integer(p.equipment_id), enc_attrs(p.attrs));
        } else if constexpr (std::is_same_v<T, RecordResp>) {
          return values(enc_result(p.result),
                        Value::integer(static_cast<std::int64_t>(p.movie_id)));
        } else if constexpr (std::is_same_v<T, RecordStopReq>) {
          return values(Value::integer(static_cast<std::int64_t>(p.movie_id)));
        } else if constexpr (std::is_same_v<T, RecordStopResp>) {
          return values(enc_result(p.result),
                        Value::integer(static_cast<std::int64_t>(p.frames)));
        } else if constexpr (std::is_same_v<T, EquipListReq>) {
          return values(Value::integer(p.kind));
        } else if constexpr (std::is_same_v<T, EquipListResp>) {
          std::vector<Value> rows;
          rows.reserve(p.items.size());
          for (const EquipItem& item : p.items)
            rows.push_back(Value::sequence(
                values(Value::integer(item.id), Value::integer(item.kind),
                       Value::ia5string(item.name),
                       Value::boolean(item.powered),
                       Value::ia5string(item.reserved_by))));
          return values(enc_result(p.result), Value::sequence(std::move(rows)));
        } else if constexpr (std::is_same_v<T, EquipControlReq>) {
          return values(Value::integer(p.equipment_id),
                        Value::integer(p.command), Value::ia5string(p.param),
                        Value::integer(p.value));
        } else if constexpr (std::is_same_v<T, EquipControlResp>) {
          return values(enc_result(p.result), Value::boolean(p.powered),
                        Value::integer(p.value),
                        Value::ia5string(p.reserved_by));
        } else if constexpr (std::is_same_v<T, MovieSearchReq>) {
          return values(encode_filter(p.filter), Value::boolean(p.chained));
        } else if constexpr (std::is_same_v<T, MovieSearchResp>) {
          std::vector<Value> hits;
          hits.reserve(p.hits.size());
          for (const SearchHit& hit : p.hits)
            hits.push_back(Value::sequence(
                values(Value::integer(static_cast<std::int64_t>(hit.movie_id)),
                       enc_attrs(hit.attrs))));
          return values(enc_result(p.result), Value::sequence(std::move(hits)));
        } else if constexpr (std::is_same_v<T, PositionInd>) {
          return values(Value::integer(static_cast<std::int64_t>(p.movie_id)),
                        Value::integer(static_cast<std::int64_t>(p.frame)));
        } else {  // ErrorResp
          return values(enc_result(p.result), Value::ia5string(p.diagnostic));
        }
      },
      pdu);
  return asn1::encode(
      Value::application(static_cast<std::uint32_t>(op), std::move(fields)));
}

inline common::Result<Op> peek_op(common::ByteSpan raw) {
  auto decoded = asn1::decode(raw);
  if (!decoded.ok()) return decoded.error();
  if (decoded.value().tag_class() != asn1::TagClass::Application)
    return Error::make(kUnknownOp, "not an MCAM PDU");
  return static_cast<Op>(decoded.value().tag());
}

inline common::Result<Pdu> decode(common::ByteSpan raw) {
  auto decoded = asn1::decode(raw);
  if (!decoded.ok()) return decoded.error();
  const Value& v = decoded.value();
  if (v.tag_class() != asn1::TagClass::Application || !v.constructed())
    return Error::make(kUnknownOp, "not an MCAM PDU: " + v.to_string());

  Fields f(v);
  switch (static_cast<Op>(v.tag())) {
    case Op::AssociateReq: {
      auto user = f.text();
      auto version = f.integer();
      if (!user.ok()) return user.error();
      if (!version.ok()) return version.error();
      return Pdu{AssociateReq{user.value(), static_cast<int>(version.value())}};
    }
    case Op::AssociateResp: {
      auto rc = f.result_code();
      auto diag = f.text();
      if (!rc.ok()) return rc.error();
      if (!diag.ok()) return diag.error();
      return Pdu{AssociateResp{rc.value(), diag.value()}};
    }
    case Op::ReleaseReq:
      return Pdu{ReleaseReq{}};
    case Op::ReleaseResp:
      return Pdu{ReleaseResp{}};
    case Op::MovieCreateReq: {
      auto title = f.text();
      auto attrs = f.attrs();
      if (!title.ok()) return title.error();
      if (!attrs.ok()) return attrs.error();
      return Pdu{MovieCreateReq{title.value(), attrs.value()}};
    }
    case Op::MovieCreateResp: {
      auto rc = f.result_code();
      auto id = f.integer();
      if (!rc.ok()) return rc.error();
      if (!id.ok()) return id.error();
      return Pdu{MovieCreateResp{rc.value(),
                                 static_cast<std::uint64_t>(id.value())}};
    }
    case Op::MovieDeleteReq: {
      auto id = f.integer();
      if (!id.ok()) return id.error();
      return Pdu{MovieDeleteReq{static_cast<std::uint64_t>(id.value())}};
    }
    case Op::MovieDeleteResp: {
      auto rc = f.result_code();
      if (!rc.ok()) return rc.error();
      return Pdu{MovieDeleteResp{rc.value()}};
    }
    case Op::MovieSelectReq: {
      auto title = f.text();
      if (!title.ok()) return title.error();
      return Pdu{MovieSelectReq{title.value()}};
    }
    case Op::MovieSelectResp: {
      auto rc = f.result_code();
      auto id = f.integer();
      auto attrs = f.attrs();
      if (!rc.ok()) return rc.error();
      if (!id.ok()) return id.error();
      if (!attrs.ok()) return attrs.error();
      return Pdu{MovieSelectResp{rc.value(),
                                 static_cast<std::uint64_t>(id.value()),
                                 attrs.value()}};
    }
    case Op::AttrQueryReq: {
      auto id = f.integer();
      auto names = f.names();
      if (!id.ok()) return id.error();
      if (!names.ok()) return names.error();
      return Pdu{AttrQueryReq{static_cast<std::uint64_t>(id.value()),
                              names.value()}};
    }
    case Op::AttrQueryResp: {
      auto rc = f.result_code();
      auto attrs = f.attrs();
      if (!rc.ok()) return rc.error();
      if (!attrs.ok()) return attrs.error();
      return Pdu{AttrQueryResp{rc.value(), attrs.value()}};
    }
    case Op::AttrModifyReq: {
      auto id = f.integer();
      auto attrs = f.attrs();
      if (!id.ok()) return id.error();
      if (!attrs.ok()) return attrs.error();
      return Pdu{AttrModifyReq{static_cast<std::uint64_t>(id.value()),
                               attrs.value()}};
    }
    case Op::AttrModifyResp: {
      auto rc = f.result_code();
      if (!rc.ok()) return rc.error();
      return Pdu{AttrModifyResp{rc.value()}};
    }
    case Op::PlayReq: {
      auto id = f.integer();
      auto start = f.integer();
      auto host = f.text();
      auto port = f.integer();
      if (!id.ok()) return id.error();
      if (!start.ok()) return start.error();
      if (!host.ok()) return host.error();
      if (!port.ok()) return port.error();
      PlayReq req{static_cast<std::uint64_t>(id.value()),
                  static_cast<std::uint64_t>(start.value()), host.value(),
                  static_cast<std::uint16_t>(port.value()), 0, 0};
      if (const Value* qd = v.find_context(0); qd && qd->size() == 1)
        req.qos_max_delay_ms = static_cast<std::uint32_t>(
            qd->child(0).as_int().value_or(0));
      if (const Value* qj = v.find_context(1); qj && qj->size() == 1)
        req.qos_max_jitter_ms = static_cast<std::uint32_t>(
            qj->child(0).as_int().value_or(0));
      return Pdu{req};
    }
    case Op::PlayResp: {
      auto rc = f.result_code();
      auto stream = f.integer();
      if (!rc.ok()) return rc.error();
      if (!stream.ok()) return stream.error();
      return Pdu{PlayResp{rc.value(),
                          static_cast<std::uint16_t>(stream.value())}};
    }
    case Op::StopReq: {
      auto id = f.integer();
      if (!id.ok()) return id.error();
      return Pdu{StopReq{static_cast<std::uint64_t>(id.value())}};
    }
    case Op::StopResp: {
      auto rc = f.result_code();
      auto pos = f.integer();
      if (!rc.ok()) return rc.error();
      if (!pos.ok()) return pos.error();
      return Pdu{StopResp{rc.value(), static_cast<std::uint64_t>(pos.value())}};
    }
    case Op::PauseReq: {
      auto id = f.integer();
      if (!id.ok()) return id.error();
      return Pdu{PauseReq{static_cast<std::uint64_t>(id.value())}};
    }
    case Op::PauseResp: {
      auto rc = f.result_code();
      if (!rc.ok()) return rc.error();
      return Pdu{PauseResp{rc.value()}};
    }
    case Op::ResumeReq: {
      auto id = f.integer();
      if (!id.ok()) return id.error();
      return Pdu{ResumeReq{static_cast<std::uint64_t>(id.value())}};
    }
    case Op::ResumeResp: {
      auto rc = f.result_code();
      if (!rc.ok()) return rc.error();
      return Pdu{ResumeResp{rc.value()}};
    }
    case Op::RecordReq: {
      auto title = f.text();
      auto equip = f.integer();
      auto attrs = f.attrs();
      if (!title.ok()) return title.error();
      if (!equip.ok()) return equip.error();
      if (!attrs.ok()) return attrs.error();
      return Pdu{RecordReq{title.value(),
                           static_cast<std::uint32_t>(equip.value()),
                           attrs.value()}};
    }
    case Op::RecordResp: {
      auto rc = f.result_code();
      auto id = f.integer();
      if (!rc.ok()) return rc.error();
      if (!id.ok()) return id.error();
      return Pdu{RecordResp{rc.value(),
                            static_cast<std::uint64_t>(id.value())}};
    }
    case Op::RecordStopReq: {
      auto id = f.integer();
      if (!id.ok()) return id.error();
      return Pdu{RecordStopReq{static_cast<std::uint64_t>(id.value())}};
    }
    case Op::RecordStopResp: {
      auto rc = f.result_code();
      auto frames = f.integer();
      if (!rc.ok()) return rc.error();
      if (!frames.ok()) return frames.error();
      return Pdu{RecordStopResp{rc.value(),
                                static_cast<std::uint64_t>(frames.value())}};
    }
    case Op::EquipListReq: {
      auto kind = f.integer();
      if (!kind.ok()) return kind.error();
      return Pdu{EquipListReq{static_cast<int>(kind.value())}};
    }
    case Op::EquipListResp: {
      auto rc = f.result_code();
      if (!rc.ok()) return rc.error();
      if (v.size() < 2) return Error::make(kBadPduBody, "missing item list");
      EquipListResp resp;
      resp.result = rc.value();
      for (const Value& row : v.child(1).children()) {
        if (row.size() != 5) return Error::make(kBadPduBody, "item arity");
        EquipItem item;
        auto id = row.child(0).as_int();
        auto kind = row.child(1).as_int();
        auto name = row.child(2).as_string();
        auto powered = row.child(3).as_bool();
        auto reserved = row.child(4).as_string();
        if (!id.ok() || !kind.ok() || !name.ok() || !powered.ok() ||
            !reserved.ok())
          return Error::make(kBadPduBody, "bad equipment item");
        item.id = static_cast<std::uint32_t>(id.value());
        item.kind = static_cast<int>(kind.value());
        item.name = name.value();
        item.powered = powered.value();
        item.reserved_by = reserved.value();
        resp.items.push_back(std::move(item));
      }
      return Pdu{std::move(resp)};
    }
    case Op::EquipControlReq: {
      auto id = f.integer();
      auto cmd = f.integer();
      auto param = f.text();
      auto value = f.integer();
      if (!id.ok()) return id.error();
      if (!cmd.ok()) return cmd.error();
      if (!param.ok()) return param.error();
      if (!value.ok()) return value.error();
      return Pdu{EquipControlReq{static_cast<std::uint32_t>(id.value()),
                                 static_cast<int>(cmd.value()), param.value(),
                                 static_cast<int>(value.value())}};
    }
    case Op::EquipControlResp: {
      auto rc = f.result_code();
      auto powered = f.boolean();
      auto value = f.integer();
      auto reserved = f.text();
      if (!rc.ok()) return rc.error();
      if (!powered.ok()) return powered.error();
      if (!value.ok()) return value.error();
      if (!reserved.ok()) return reserved.error();
      return Pdu{EquipControlResp{rc.value(), powered.value(),
                                  static_cast<int>(value.value()),
                                  reserved.value()}};
    }
    case Op::MovieSearchReq: {
      if (v.size() < 2) return Error::make(kBadPduBody, "short search req");
      auto filter = decode_filter(v.child(0));
      if (!filter.ok()) return filter.error();
      auto chained = v.child(1).as_bool();
      if (!chained.ok()) return chained.error();
      return Pdu{MovieSearchReq{std::move(filter).take(), chained.value()}};
    }
    case Op::MovieSearchResp: {
      auto rc = f.result_code();
      if (!rc.ok()) return rc.error();
      if (v.size() < 2) return Error::make(kBadPduBody, "short search resp");
      MovieSearchResp resp;
      resp.result = rc.value();
      for (const Value& row : v.child(1).children()) {
        if (row.size() != 2) return Error::make(kBadPduBody, "hit arity");
        auto id = row.child(0).as_int();
        if (!id.ok()) return id.error();
        SearchHit hit;
        hit.movie_id = static_cast<std::uint64_t>(id.value());
        for (const Value& attr_row : row.child(1).children()) {
          if (attr_row.size() != 2)
            return Error::make(kBadPduBody, "hit attr arity");
          auto name = attr_row.child(0).as_string();
          auto value = attr_row.child(1).as_string();
          if (!name.ok()) return name.error();
          if (!value.ok()) return value.error();
          hit.attrs.push_back(Attr{name.value(), value.value()});
        }
        resp.hits.push_back(std::move(hit));
      }
      return Pdu{std::move(resp)};
    }
    case Op::PositionInd: {
      auto id = f.integer();
      auto frame = f.integer();
      if (!id.ok()) return id.error();
      if (!frame.ok()) return frame.error();
      return Pdu{PositionInd{static_cast<std::uint64_t>(id.value()),
                             static_cast<std::uint64_t>(frame.value())}};
    }
    case Op::ErrorResp: {
      auto rc = f.result_code();
      auto diag = f.text();
      if (!rc.ok()) return rc.error();
      if (!diag.ok()) return diag.error();
      return Pdu{ErrorResp{rc.value(), diag.value()}};
    }
  }
  return Error::make(kUnknownOp,
                     "unknown MCAM operation tag " + std::to_string(v.tag()));
}


}  // namespace mcam::core::oracle

namespace mcam::osi::oracle {

using asn1::Value;
using asn1::values;
using common::Bytes;
using common::Error;
using common::Result;

// Outer PPDU discriminator tags.
inline constexpr std::uint32_t kTagCp = 1;
inline constexpr std::uint32_t kTagCpa = 2;
inline constexpr std::uint32_t kTagCpr = 3;
inline constexpr std::uint32_t kTagTd = 4;

inline Bytes wrap(std::uint32_t tag, Value body) {
  return asn1::encode(Value::context(tag, std::move(body)));
}

inline Bytes build_cp(int context_id, const Bytes& user_data) {
  Value ctx = Value::sequence(
      values(Value::integer(context_id), Value::oid(oids::kMcamAbstractSyntax),
             Value::sequence(values(Value::oid(oids::kBerTransferSyntax)))));
  Value body = Value::sequence(
      values(Value::sequence(values(std::move(ctx))),
             Value::context(0, Value::octet_string(user_data))));
  return wrap(kTagCp, std::move(body));
}

inline Bytes build_cpa(int context_id, const Bytes& user_data) {
  Value result = Value::sequence(
      values(Value::integer(context_id),
             Value::enumerated(0),  // acceptance
             Value::oid(oids::kBerTransferSyntax)));
  Value body = Value::sequence(
      values(Value::sequence(values(std::move(result))),
             Value::context(0, Value::octet_string(user_data))));
  return wrap(kTagCpa, std::move(body));
}

inline Bytes build_cpr(int reason, const Bytes& user_data) {
  Value body = Value::sequence(
      values(Value::enumerated(reason),
             Value::context(0, Value::octet_string(user_data))));
  return wrap(kTagCpr, std::move(body));
}

inline Bytes build_td(int context_id, const Bytes& user_data) {
  Value body = Value::sequence(
      values(Value::integer(context_id), Value::octet_string(user_data)));
  return wrap(kTagTd, std::move(body));
}

inline common::Result<PpduView> parse_ppdu(const Bytes& raw) {
  auto decoded = asn1::decode(raw);
  if (!decoded.ok()) return decoded.error();
  const Value& outer = decoded.value();
  if (outer.tag_class() != asn1::TagClass::ContextSpecific ||
      !outer.constructed() || outer.size() != 1)
    return common::Error::make(asn1::kBadTag, "malformed PPDU wrapper");
  const Value& body = outer.child(0);

  PpduView v;
  auto user_data_of = [&](const Value& seq) -> Bytes {
    if (const Value* ud = seq.find_context(0); ud && ud->size() == 1)
      return ud->child(0).as_octets().value_or({});
    return {};
  };

  switch (outer.tag()) {
    case kTagCp: {
      v.type = PpduView::Type::CP;
      if (body.size() >= 1 && body.child(0).size() >= 1 &&
          body.child(0).child(0).size() >= 1)
        v.context_id = static_cast<int>(
            body.child(0).child(0).child(0).as_int().value_or(0));
      v.user_data = user_data_of(body);
      return v;
    }
    case kTagCpa: {
      v.type = PpduView::Type::CPA;
      if (body.size() >= 1 && body.child(0).size() >= 1 &&
          body.child(0).child(0).size() >= 1)
        v.context_id = static_cast<int>(
            body.child(0).child(0).child(0).as_int().value_or(0));
      v.user_data = user_data_of(body);
      return v;
    }
    case kTagCpr: {
      v.type = PpduView::Type::CPR;
      if (body.size() >= 1)
        v.reason = static_cast<int>(body.child(0).as_int().value_or(0));
      v.user_data = user_data_of(body);
      return v;
    }
    case kTagTd: {
      v.type = PpduView::Type::TD;
      if (body.size() >= 2) {
        v.context_id = static_cast<int>(body.child(0).as_int().value_or(0));
        v.user_data = body.child(1).as_octets().value_or({});
      }
      return v;
    }
    default:
      return common::Error::make(asn1::kBadTag, "unknown PPDU tag");
  }
}


inline constexpr std::uint32_t kTagAarq = 0;
inline constexpr std::uint32_t kTagAare = 1;
inline constexpr std::uint32_t kTagRlrq = 2;
inline constexpr std::uint32_t kTagRlre = 3;
inline constexpr std::uint32_t kTagAbrt = 4;
inline constexpr std::uint32_t kUserInfoTag = 30;

inline Value user_info(const Bytes& data) {
  return Value::context(kUserInfoTag, Value::octet_string(data));
}

inline Bytes user_info_of(const Value& apdu) {
  if (const Value* ui = apdu.find_context(kUserInfoTag);
      ui != nullptr && ui->size() == 1)
    return ui->child(0).as_octets().value_or({});
  return {};
}

inline Bytes build_aarq(const std::vector<std::uint32_t>& context,
                 const Bytes& user_information) {
  return asn1::encode(Value::application(
      kTagAarq, values(Value::integer(1), Value::oid(context),
                       user_info(user_information))));
}

inline Bytes build_aare(AcseResult result, const std::vector<std::uint32_t>& context,
                 const Bytes& user_information) {
  return asn1::encode(Value::application(
      kTagAare, values(Value::enumerated(static_cast<int>(result)),
                       Value::oid(context), user_info(user_information))));
}

inline Bytes build_rlrq(int reason, const Bytes& user_information) {
  return asn1::encode(Value::application(
      kTagRlrq, values(Value::integer(reason), user_info(user_information))));
}

inline Bytes build_rlre(int reason, const Bytes& user_information) {
  return asn1::encode(Value::application(
      kTagRlre, values(Value::integer(reason), user_info(user_information))));
}

inline Bytes build_abrt(int source) {
  return asn1::encode(
      Value::application(kTagAbrt, values(Value::enumerated(source))));
}

inline Result<AcseApdu> parse_acse(const Bytes& raw) {
  auto decoded = asn1::decode(raw);
  if (!decoded.ok()) return decoded.error();
  const Value& v = decoded.value();
  if (v.tag_class() != asn1::TagClass::Application || !v.constructed())
    return Error::make(asn1::kBadTag, "not an ACSE APDU");

  AcseApdu apdu;
  apdu.user_information = user_info_of(v);
  switch (v.tag()) {
    case kTagAarq: {
      apdu.type = AcseApdu::Type::AARQ;
      if (v.size() < 2) return Error::make(asn1::kBadTag, "short AARQ");
      apdu.version = static_cast<int>(v.child(0).as_int().value_or(1));
      auto ctx = v.child(1).as_oid();
      if (!ctx.ok()) return ctx.error();
      apdu.context = ctx.value();
      return apdu;
    }
    case kTagAare: {
      apdu.type = AcseApdu::Type::AARE;
      if (v.size() < 2) return Error::make(asn1::kBadTag, "short AARE");
      apdu.result = static_cast<AcseResult>(
          v.child(0).as_int().value_or(1));
      auto ctx = v.child(1).as_oid();
      if (!ctx.ok()) return ctx.error();
      apdu.context = ctx.value();
      return apdu;
    }
    case kTagRlrq:
    case kTagRlre: {
      apdu.type =
          v.tag() == kTagRlrq ? AcseApdu::Type::RLRQ : AcseApdu::Type::RLRE;
      if (v.size() >= 1)
        apdu.reason = static_cast<int>(v.child(0).as_int().value_or(0));
      return apdu;
    }
    case kTagAbrt: {
      apdu.type = AcseApdu::Type::ABRT;
      if (v.size() >= 1)
        apdu.reason = static_cast<int>(v.child(0).as_int().value_or(0));
      return apdu;
    }
    default:
      return Error::make(asn1::kBadTag, "unknown ACSE APDU tag");
  }
}


}  // namespace mcam::osi::oracle
