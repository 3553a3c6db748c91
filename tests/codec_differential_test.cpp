// Differential test of the typed codecs (MCAM PDUs, PPDUs, ACSE APDUs over
// the asn1 cursor and writer) against the tree-based oracle in
// codec_oracle.hpp. Over seeded random PDUs, and over mutations of their
// octets, the two must agree on:
//   * the encoding (same octets out);
//   * accept/reject and the error code of a rejection;
//   * every decoded field, including the oracle's leniencies (extra
//     trailing components ignored, a primitive list read as empty, the
//     first [0]/[1]/[30] component found anywhere in a body);
//   * peek_op.
// Mutations: bit flips, truncations, length-octet changes and tag swaps on
// the octets, plus structural edits on the decoded tree (drop, duplicate,
// swap or replace a component, retag a node) that keep the BER well-formed
// so the field-level decoders are reached. Counts are fixed per seed;
// MCAM_SOAK_SPECS widens the sweep (default 50).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>

#include "codec_oracle.hpp"
#include "common/rng.hpp"

namespace mcam {
namespace {

using asn1::Value;
using common::Bytes;
using common::ByteSpan;
using common::Rng;

int sweep() {
  if (const char* env = std::getenv("MCAM_SOAK_SPECS"))
    return std::max(1, std::atoi(env));
  return 50;
}

std::string hex(ByteSpan b) { return common::hexdump(b, b.size()); }

// ---- random values -----------------------------------------------------------

std::string random_string(Rng& rng) {
  // Mostly short (inside the SSO buffer), sometimes long enough to need a
  // heap buffer or a multi-octet length.
  const std::size_t n = rng.chance(0.1) ? 16 + rng.below(200) : rng.below(12);
  std::string s;
  for (std::size_t i = 0; i < n; ++i)
    s.push_back(static_cast<char>('a' + rng.below(26)));
  return s;
}

Bytes random_bytes(Rng& rng, std::size_t max) {
  Bytes b(rng.below(max + 1));
  for (auto& octet : b) octet = static_cast<std::uint8_t>(rng());
  return b;
}

std::int64_t random_int(Rng& rng) {
  switch (rng.below(4)) {
    case 0: return static_cast<std::int64_t>(rng.below(200));
    case 1: return -static_cast<std::int64_t>(rng.below(70000));
    case 2: return static_cast<std::int64_t>(rng());
    default: return static_cast<std::int64_t>(rng.below(1u << 20));
  }
}

std::vector<core::Attr> random_attrs(Rng& rng, std::size_t max = 5) {
  std::vector<core::Attr> attrs(rng.below(max + 1));
  for (auto& a : attrs) a = {random_string(rng), random_string(rng)};
  return attrs;
}

directory::Filter random_filter(Rng& rng, int depth) {
  using directory::Filter;
  switch (depth <= 0 ? rng.below(4) : rng.below(7)) {
    case 0: return Filter::all();
    case 1: return Filter::present(random_string(rng));
    case 2: return Filter::equal(random_string(rng), random_string(rng));
    case 3: return Filter::substring(random_string(rng), random_string(rng));
    case 4: return Filter::not_(random_filter(rng, depth - 1));
    default: {
      std::vector<Filter> kids(rng.below(4));
      for (auto& k : kids) k = random_filter(rng, depth - 1);
      return rng.chance(0.5) ? Filter::and_(std::move(kids))
                             : Filter::or_(std::move(kids));
    }
  }
}

core::ResultCode random_rc(Rng& rng) {
  return static_cast<core::ResultCode>(rng.below(13));
}

/// One random PDU of every operation in turn (index `i` picks it).
core::Pdu random_pdu(Rng& rng, std::size_t i) {
  using namespace core;
  const auto u64 = [&] { return static_cast<std::uint64_t>(random_int(rng)); };
  const auto u32 = [&] { return static_cast<std::uint32_t>(random_int(rng)); };
  const auto i32 = [&] { return static_cast<int>(random_int(rng)); };
  switch (i % std::variant_size_v<Pdu>) {
    case 0: return AssociateReq{random_string(rng), i32()};
    case 1: return AssociateResp{random_rc(rng), random_string(rng)};
    case 2: return ReleaseReq{};
    case 3: return ReleaseResp{};
    case 4: return MovieCreateReq{random_string(rng), random_attrs(rng)};
    case 5: return MovieCreateResp{random_rc(rng), u64()};
    case 6: return MovieDeleteReq{u64()};
    case 7: return MovieDeleteResp{random_rc(rng)};
    case 8: return MovieSelectReq{random_string(rng)};
    case 9: return MovieSelectResp{random_rc(rng), u64(), random_attrs(rng)};
    case 10: {
      AttrQueryReq r{u64(), {}};
      for (std::size_t n = rng.below(4); n-- > 0;)
        r.names.push_back(random_string(rng));
      return r;
    }
    case 11: return AttrQueryResp{random_rc(rng), random_attrs(rng, 12)};
    case 12: return AttrModifyReq{u64(), random_attrs(rng)};
    case 13: return AttrModifyResp{random_rc(rng)};
    case 14:
      return PlayReq{u64(),
                     u64(),
                     random_string(rng),
                     static_cast<std::uint16_t>(rng.below(65536)),
                     rng.chance(0.5) ? u32() : 0,
                     rng.chance(0.5) ? u32() : 0};
    case 15:
      return PlayResp{random_rc(rng),
                      static_cast<std::uint16_t>(rng.below(65536))};
    case 16: return StopReq{u64()};
    case 17: return StopResp{random_rc(rng), u64()};
    case 18: return PauseReq{u64()};
    case 19: return PauseResp{random_rc(rng)};
    case 20: return ResumeReq{u64()};
    case 21: return ResumeResp{random_rc(rng)};
    case 22: return RecordReq{random_string(rng), u32(), random_attrs(rng)};
    case 23: return RecordResp{random_rc(rng), u64()};
    case 24: return RecordStopReq{u64()};
    case 25: return RecordStopResp{random_rc(rng), u64()};
    case 26: return EquipListReq{i32()};
    case 27: {
      EquipListResp r{random_rc(rng), {}};
      for (std::size_t n = rng.below(4); n-- > 0;)
        r.items.push_back({u32(), i32(), random_string(rng), rng.chance(0.5),
                           random_string(rng)});
      return r;
    }
    case 28:
      return EquipControlReq{u32(), i32(), random_string(rng), i32()};
    case 29:
      return EquipControlResp{random_rc(rng), rng.chance(0.5), i32(),
                              random_string(rng)};
    case 30: return MovieSearchReq{random_filter(rng, 4), rng.chance(0.5)};
    case 31: {
      // Up to 40 hits of up to 10 attributes: multi-octet lengths at every
      // level above the attribute rows.
      MovieSearchResp r{random_rc(rng), {}};
      for (std::size_t n = rng.below(41); n-- > 0;)
        r.hits.push_back({u64(), random_attrs(rng, 10)});
      return r;
    }
    case 32: return PositionInd{u64(), u64()};
    default: return ErrorResp{random_rc(rng), random_string(rng)};
  }
}

// ---- mutations -----------------------------------------------------------------

/// Offsets of every identifier octet and every first length octet in a
/// well-formed encoding.
void header_offsets(ByteSpan data, std::size_t base, std::vector<std::size_t>& ids,
                    std::vector<std::size_t>& lens) {
  asn1::Reader r(data);
  asn1::Tlv t;
  std::size_t at = 0;
  while (!r.empty() && r.next(t) == asn1::kOk) {
    ids.push_back(base + at);
    const std::size_t content_at =
        static_cast<std::size_t>(t.content.data() - data.data());
    std::size_t len_at = at + 1;
    if ((data[at] & 0x1f) == 0x1f)
      while (data[len_at++] & 0x80) {
      }
    lens.push_back(base + len_at);
    if (t.constructed) header_offsets(t.content, base + content_at, ids, lens);
    at = r.consumed();
  }
}

/// Every node of a tree, preorder.
void nodes_of(Value& v, std::vector<Value*>& out) {
  out.push_back(&v);
  if (v.constructed())
    for (std::size_t i = 0; i < v.size(); ++i)
      nodes_of(const_cast<Value&>(v.child(i)), out);
}

Value random_leaf(Rng& rng) {
  switch (rng.below(6)) {
    case 0: return Value::integer(random_int(rng));
    case 1: return Value::boolean(rng.chance(0.5));
    case 2: return Value::ia5string(random_string(rng));
    case 3: return Value::octet_string(random_bytes(rng, 8));
    case 4: return Value::null();
    default: return Value::oid({1, 3, static_cast<std::uint32_t>(rng.below(9999))});
  }
}

/// A structural edit of a decoded tree, re-encoded: well-formed BER of
/// the wrong shape.
Bytes tree_mutation(Rng& rng, const Bytes& wire) {
  auto decoded = asn1::decode(wire);
  if (!decoded.ok()) return wire;
  Value root = std::move(decoded).take();
  std::vector<Value*> nodes;
  nodes_of(root, nodes);
  Value& n = *nodes[rng.below(nodes.size())];
  std::vector<Value> kids = n.children();
  switch (rng.below(6)) {
    case 0:  // drop a component
      if (!kids.empty())
        kids.erase(kids.begin() + static_cast<long>(rng.below(kids.size())));
      break;
    case 1:  // append a duplicate or a stray value (extra trailing field)
      kids.push_back(!kids.empty() && rng.chance(0.5)
                         ? kids[rng.below(kids.size())]
                         : random_leaf(rng));
      break;
    case 2:  // swap two components
      if (kids.size() >= 2)
        std::swap(kids[rng.below(kids.size())], kids[rng.below(kids.size())]);
      break;
    case 3:  // replace a component
      if (!kids.empty()) kids[rng.below(kids.size())] = random_leaf(rng);
      break;
    case 4: {  // retag the node (class and number), keeping its form
      const auto cls = static_cast<asn1::TagClass>(rng.below(4));
      const std::uint32_t tag = rng.chance(0.5)
                                    ? static_cast<std::uint32_t>(rng.below(40))
                                    : static_cast<std::uint32_t>(rng());
      n = Value::raw(cls, tag, n.constructed(), n.content(), n.children());
      return asn1::encode(root);
    }
    default:  // flip the node between primitive and constructed
      n = n.constructed() ? Value::raw(n.tag_class(), n.tag(), false,
                                       asn1::encode(Value::sequence(n.children())),
                                       {})
                          : Value::raw(n.tag_class(), n.tag(), true, {},
                                       {random_leaf(rng)});
      return asn1::encode(root);
  }
  if (n.constructed())
    n = Value::raw(n.tag_class(), n.tag(), true, {}, std::move(kids));
  return asn1::encode(root);
}

/// One random mutation of `wire`.
Bytes mutate(Rng& rng, const Bytes& wire) {
  Bytes m = wire;
  std::vector<std::size_t> ids, lens;
  header_offsets(wire, 0, ids, lens);
  switch (rng.below(6)) {
    case 0:  // bit flips
      for (std::size_t n = 1 + rng.below(3); n-- > 0 && !m.empty();)
        m[rng.below(m.size())] ^= static_cast<std::uint8_t>(1u << rng.below(8));
      return m;
    case 1:  // truncation
      m.resize(rng.below(m.size() + 1));
      return m;
    case 2: {  // length octet changed: off by one, or any value
      if (lens.empty()) return m;
      const std::size_t at = lens[rng.below(lens.size())];
      m[at] = rng.chance(0.5)
                  ? static_cast<std::uint8_t>(m[at] + (rng.chance(0.5) ? 1 : -1))
                  : static_cast<std::uint8_t>(rng());
      return m;
    }
    case 3: {  // tag swap: another TLV's identifier, or any identifier
      if (ids.empty()) return m;
      const std::size_t at = ids[rng.below(ids.size())];
      m[at] = rng.chance(0.5) ? wire[ids[rng.below(ids.size())]]
                              : static_cast<std::uint8_t>(rng());
      return m;
    }
    default:
      return tree_mutation(rng, wire);
  }
}

// ---- comparison --------------------------------------------------------------

template <typename T>
::testing::AssertionResult same_verdict(const common::Result<T>& got,
                                        const common::Result<T>& want) {
  if (got.ok() != want.ok())
    return ::testing::AssertionFailure()
           << "cursor " << (got.ok() ? "accepts" : "rejects") << ", oracle "
           << (want.ok() ? "accepts" : "rejects: " + want.error().message);
  if (!got.ok() && got.error().code != want.error().code)
    return ::testing::AssertionFailure()
           << "error code " << got.error().code << " vs oracle "
           << want.error().code;
  return ::testing::AssertionSuccess();
}

/// What the oracle made of one input: accepted, rejected as malformed BER,
/// or rejected by a field-level decoder (well-formed BER of the wrong
/// shape). The sweeps check that each class is reached.
enum Verdict { kAccepted, kBadBer, kBadFields, kVerdicts };

template <typename T>
Verdict verdict_of(const Bytes& wire, const common::Result<T>& want) {
  if (want.ok()) return kAccepted;
  return asn1::decode(wire).ok() ? kBadFields : kBadBer;
}

void expect_same_mcam(const Bytes& wire, Verdict* verdict) {
  SCOPED_TRACE(hex(wire));
  const auto got = core::decode(wire);
  const auto want = core::oracle::decode(wire);
  *verdict = verdict_of(wire, want);
  ASSERT_TRUE(same_verdict(got, want));
  if (got.ok()) {
    EXPECT_TRUE(got.value() == want.value())
        << core::op_name(core::op_of(got.value())) << " vs "
        << core::op_name(core::op_of(want.value()));
  }
  const auto got_op = core::peek_op(wire);
  const auto want_op = core::oracle::peek_op(wire);
  ASSERT_TRUE(same_verdict(got_op, want_op));
  if (got_op.ok()) {
    EXPECT_EQ(got_op.value(), want_op.value());
  }
}

void expect_same_ppdu(const Bytes& wire, Verdict* verdict) {
  SCOPED_TRACE(hex(wire));
  const auto got = osi::parse_ppdu(wire);
  const auto want = osi::oracle::parse_ppdu(wire);
  *verdict = verdict_of(wire, want);
  ASSERT_TRUE(same_verdict(got, want));
  if (!got.ok()) return;
  EXPECT_EQ(got.value().type, want.value().type);
  EXPECT_EQ(got.value().context_id, want.value().context_id);
  EXPECT_EQ(got.value().reason, want.value().reason);
  EXPECT_EQ(got.value().user_data, want.value().user_data);
}

void expect_same_acse(const Bytes& wire, Verdict* verdict) {
  SCOPED_TRACE(hex(wire));
  const auto got = osi::parse_acse(wire);
  const auto want = osi::oracle::parse_acse(wire);
  *verdict = verdict_of(wire, want);
  ASSERT_TRUE(same_verdict(got, want));
  if (!got.ok()) return;
  EXPECT_EQ(got.value().type, want.value().type);
  EXPECT_EQ(got.value().version, want.value().version);
  EXPECT_EQ(static_cast<int>(got.value().result),
            static_cast<int>(want.value().result));
  EXPECT_EQ(got.value().context, want.value().context);
  EXPECT_EQ(got.value().reason, want.value().reason);
  EXPECT_EQ(got.value().user_information, want.value().user_information);
}

constexpr int kMutationsPerPdu = 12;

/// Verdict counts of one sweep.
struct Tally {
  int n[kVerdicts] = {};

  /// The decoders agree on `wire`, on kMutationsPerPdu mutations of it and
  /// on a stretch of random octets.
  template <typename Check>
  void sweep(Rng& rng, const Bytes& wire, Check&& check) {
    Verdict v = kAccepted;
    check(wire, &v);
    ++n[v];
    for (int m = 0; m < kMutationsPerPdu; ++m) {
      check(mutate(rng, wire), &v);
      ++n[v];
    }
    check(random_bytes(rng, 24), &v);
    ++n[v];
  }

  /// Every class holds at least 2% of the inputs: mutations reach the
  /// field-level decoders, not only the BER check. (The PPDU parser, the
  /// most lenient, rejects about 5% at field level.)
  void expect_coverage() const {
    const int total = n[kAccepted] + n[kBadBer] + n[kBadFields];
    for (int v = 0; v < kVerdicts; ++v)
      EXPECT_GE(n[v] * 50, total) << "verdict " << v << ": " << n[v] << " of "
                                  << total;
  }
};

class CodecDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodecDifferential, McamPdusAgreeWithTreeOracle) {
  Rng rng(GetParam());
  Tally tally;
  const int pdus = 4 * sweep();
  for (int i = 0; i < pdus; ++i) {
    const core::Pdu pdu = random_pdu(rng, static_cast<std::size_t>(i));
    const Bytes wire = core::encode(pdu);
    ASSERT_EQ(hex(wire), hex(core::oracle::encode(pdu)))
        << core::op_name(core::op_of(pdu));
    tally.sweep(rng, wire, expect_same_mcam);
    if (HasFatalFailure()) return;
  }
  tally.expect_coverage();
}

TEST_P(CodecDifferential, PpdusAgreeWithTreeOracle) {
  Rng rng(GetParam());
  Tally tally;
  const int ppdus = 2 * sweep();
  for (int i = 0; i < ppdus; ++i) {
    const int n = static_cast<int>(random_int(rng));
    const Bytes data = random_bytes(rng, rng.chance(0.2) ? 400 : 24);
    Bytes wire, want;
    switch (i % 4) {
      case 0:
        wire = osi::build_cp(n, data);
        want = osi::oracle::build_cp(n, data);
        break;
      case 1:
        wire = osi::build_cpa(n, data);
        want = osi::oracle::build_cpa(n, data);
        break;
      case 2:
        wire = osi::build_cpr(n, data);
        want = osi::oracle::build_cpr(n, data);
        break;
      default:
        wire = osi::build_td(n, data);
        want = osi::oracle::build_td(n, data);
    }
    ASSERT_EQ(hex(wire), hex(want));
    tally.sweep(rng, wire, expect_same_ppdu);
    if (HasFatalFailure()) return;
  }
  tally.expect_coverage();
}

TEST_P(CodecDifferential, AcseApdusAgreeWithTreeOracle) {
  Rng rng(GetParam());
  Tally tally;
  const int apdus = 2 * sweep();
  for (int i = 0; i < apdus; ++i) {
    const int n = static_cast<int>(random_int(rng));
    const Bytes data = random_bytes(rng, rng.chance(0.2) ? 400 : 24);
    std::vector<std::uint32_t> context = {
        static_cast<std::uint32_t>(rng.below(3)),
        static_cast<std::uint32_t>(rng.below(40))};
    for (std::size_t k = rng.below(5); k-- > 0;)
      context.push_back(static_cast<std::uint32_t>(rng()));
    const auto result = static_cast<osi::AcseResult>(rng.below(3));
    Bytes wire, want;
    switch (i % 5) {
      case 0:
        wire = osi::build_aarq(context, data);
        want = osi::oracle::build_aarq(context, data);
        break;
      case 1:
        wire = osi::build_aare(result, context, data);
        want = osi::oracle::build_aare(result, context, data);
        break;
      case 2:
        wire = osi::build_rlrq(n, data);
        want = osi::oracle::build_rlrq(n, data);
        break;
      case 3:
        wire = osi::build_rlre(n, data);
        want = osi::oracle::build_rlre(n, data);
        break;
      default:
        wire = osi::build_abrt(n);
        want = osi::oracle::build_abrt(n);
    }
    ASSERT_EQ(hex(wire), hex(want));
    tally.sweep(rng, wire, expect_same_acse);
    if (HasFatalFailure()) return;
  }
  tally.expect_coverage();
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecDifferential,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---- hand-picked edges -----------------------------------------------------------

/// `depth` SEQUENCEs around an INTEGER, inside the given outer identifier.
Bytes nested(std::uint8_t outer, int depth) {
  Value v = Value::integer(1);
  for (int i = 0; i < depth; ++i) v = Value::sequence(asn1::values(std::move(v)));
  Bytes body = asn1::encode(v);
  Bytes wire = asn1::encode(Value::raw(asn1::TagClass::Universal, 4, false,
                                       body, {}));
  wire[0] = outer;
  return wire;
}

TEST(CodecDifferentialEdges, NestingAtAndPastTheDepthLimit) {
  for (int depth : {asn1::kMaxDecodeDepth - 2, asn1::kMaxDecodeDepth - 1,
                    asn1::kMaxDecodeDepth, asn1::kMaxDecodeDepth + 1}) {
    SCOPED_TRACE(depth);
    // The innermost INTEGER sits at depth + 1.
    const bool too_deep = depth + 1 > asn1::kMaxDecodeDepth;
    Verdict v = kAccepted;
    expect_same_mcam(nested(0x6c, depth), &v);  // [APPLICATION 12] AttrQueryResp
    EXPECT_EQ(v == kBadBer, too_deep);
    expect_same_ppdu(nested(0xa1, depth), &v);  // [1] CP
    EXPECT_EQ(v == kBadBer, too_deep);
    expect_same_acse(nested(0x60, depth), &v);  // [APPLICATION 0] AARQ
    EXPECT_EQ(v == kBadBer, too_deep);
  }
}

TEST(CodecDifferentialEdges, LenientShapesAgree) {
  using core::Op;
  const auto app = [](Op op, std::vector<Value> kids) {
    return asn1::encode(
        Value::application(static_cast<std::uint32_t>(op), std::move(kids)));
  };
  const auto verdict = [](const Bytes& wire) {
    Verdict v = kAccepted;
    expect_same_mcam(wire, &v);
    return v;
  };
  // A primitive where a list belongs reads as an empty list.
  EXPECT_EQ(verdict(app(Op::AttrQueryResp,
                        asn1::values(Value::enumerated(0), Value::null()))),
            kAccepted);
  // Extra trailing components are ignored.
  EXPECT_EQ(verdict(app(Op::StopReq, asn1::values(Value::integer(7),
                                                  Value::ia5string("x")))),
            kAccepted);
  // A context-tagged primitive reads as a string (or as an INTEGER).
  EXPECT_EQ(verdict(app(Op::MovieSelectReq,
                        asn1::values(Value::context_primitive(
                            3, common::to_bytes("abc"))))),
            kAccepted);
  // PlayReq: the first [0] is the movie id (primitive), so the QoS bound
  // behind it is not read.
  EXPECT_EQ(verdict(app(Op::PlayReq,
                        asn1::values(Value::context_primitive(0, {7}),
                                     Value::integer(1), Value::ia5string("h"),
                                     Value::integer(2),
                                     Value::context(0, Value::integer(250))))),
            kAccepted);
  // MovieSearchReq with a bad filter and no chained flag: the arity is
  // checked first.
  EXPECT_EQ(verdict(app(Op::MovieSearchReq,
                        asn1::values(Value::context(9, Value::null())))),
            kBadFields);
  // An unknown operation, and a primitive APPLICATION value.
  EXPECT_EQ(verdict(app(static_cast<Op>(500), {})), kBadFields);
  EXPECT_EQ(verdict(asn1::encode(Value::raw(asn1::TagClass::Application, 9,
                                            false, {1}, {}))),
            kBadFields);
}

}  // namespace
}  // namespace mcam
