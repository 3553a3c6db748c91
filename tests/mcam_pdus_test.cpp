// MCAM PDU codec tests: typed round-trips for every operation, malformed
// input handling, and a property-style random round-trip over the variant.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "asn1/ber.hpp"
#include "mcam/pdus.hpp"

namespace mcam::core {
namespace {

using common::ByteSpan;

template <typename T>
void expect_roundtrip(const T& pdu) {
  const Bytes wire = encode(Pdu{pdu});
  auto decoded = decode(wire);
  ASSERT_TRUE(decoded.ok()) << op_name(op_of(Pdu{pdu})) << ": "
                            << decoded.error().message;
  ASSERT_TRUE(std::holds_alternative<T>(decoded.value()))
      << op_name(op_of(decoded.value()));
  EXPECT_EQ(std::get<T>(decoded.value()), pdu);
  auto op = peek_op(wire);
  ASSERT_TRUE(op.ok());
  EXPECT_EQ(op.value(), op_of(Pdu{pdu}));
}

/// The exact octets of `pdu`, as "aa bb ..." for readable failure output.
std::string wire_hex(const Pdu& pdu) {
  const Bytes wire = encode(pdu);
  return common::hexdump(wire, wire.size());
}

// Golden octets, captured before the encoders built their value trees by
// move: how a tree is assembled must never change what goes on the wire.
TEST(McamPdus, GoldenWireBytes) {
  EXPECT_EQ(wire_hex(MovieSearchResp{
                ResultCode::Success,
                {{7, {{"title", "casablanca"}, {"fps", "25.000"}}},
                 {9, {{"title", "metropolis"}, {"width", "640"}}}}}),
            "7f 20 5a 0a 01 00 30 55 30 29 02 01 07 30 24 30 "
            "13 16 05 74 69 74 6c 65 16 0a 63 61 73 61 62 6c "
            "61 6e 63 61 30 0d 16 03 66 70 73 16 06 32 35 2e "
            "30 30 30 30 28 02 01 09 30 23 30 13 16 05 74 69 "
            "74 6c 65 16 0a 6d 65 74 72 6f 70 6f 6c 69 73 30 "
            "0c 16 05 77 69 64 74 68 16 03 36 34 30");
  EXPECT_EQ(wire_hex(AttrQueryResp{ResultCode::Success,
                                   {{"fps", "25.000"}, {"format", "mjpeg"}}}),
            "6c 25 0a 01 00 30 20 30 0d 16 03 66 70 73 16 06 "
            "32 35 2e 30 30 30 30 0f 16 06 66 6f 72 6d 61 74 "
            "16 05 6d 6a 70 65 67");
  EXPECT_EQ(wire_hex(EquipListResp{ResultCode::Success,
                                   {{1, 0, "cam0", true, "alice"},
                                    {2, 1, "mic0", false, ""}}}),
            "7c 30 0a 01 00 30 2b 30 16 02 01 01 02 01 00 16 "
            "04 63 61 6d 30 01 01 ff 16 05 61 6c 69 63 65 30 "
            "11 02 01 02 02 01 01 16 04 6d 69 63 30 01 01 00 "
            "16 00");
  // Both OPTIONAL QoS fields present.
  EXPECT_EQ(wire_hex(PlayReq{7, 100, "client1", 7000, 250, 40}),
            "6f 1e 02 01 07 02 01 64 16 07 63 6c 69 65 6e 74 "
            "31 02 02 1b 58 a0 04 02 02 00 fa a1 03 02 01 28");
}

TEST(McamPdus, AssociationRoundTrips) {
  expect_roundtrip(AssociateReq{"alice", 1});
  expect_roundtrip(AssociateResp{ResultCode::Success, "welcome"});
  expect_roundtrip(AssociateResp{ResultCode::AccessDenied, "go away"});
  expect_roundtrip(ReleaseReq{});
  expect_roundtrip(ReleaseResp{});
}

TEST(McamPdus, MovieAccessRoundTrips) {
  expect_roundtrip(MovieCreateReq{
      "casablanca",
      {{"format", "mjpeg"}, {"fps", "25.000"}, {"duration", "1500"}}});
  expect_roundtrip(MovieCreateResp{ResultCode::Success, 42});
  expect_roundtrip(MovieDeleteReq{42});
  expect_roundtrip(MovieDeleteResp{ResultCode::NoSuchMovie});
  expect_roundtrip(MovieSelectReq{"casablanca"});
  expect_roundtrip(MovieSelectResp{
      ResultCode::Success, 42, {{"title", "casablanca"}, {"fps", "25"}}});
}

TEST(McamPdus, ManagementRoundTrips) {
  expect_roundtrip(AttrQueryReq{7, {"fps", "format"}});
  expect_roundtrip(AttrQueryReq{7, {}});  // all attributes
  expect_roundtrip(AttrQueryResp{ResultCode::Success, {{"fps", "25.000"}}});
  expect_roundtrip(AttrModifyReq{7, {{"rights", "public"}}});
  expect_roundtrip(AttrModifyResp{ResultCode::AccessDenied});
}

TEST(McamPdus, ControlRoundTrips) {
  expect_roundtrip(PlayReq{7, 100, "client1", 7000});
  expect_roundtrip(PlayResp{ResultCode::Success, 3});
  expect_roundtrip(StopReq{7});
  expect_roundtrip(StopResp{ResultCode::Success, 1499});
  expect_roundtrip(PauseReq{7});
  expect_roundtrip(PauseResp{ResultCode::NotPlaying});
  expect_roundtrip(ResumeReq{7});
  expect_roundtrip(ResumeResp{ResultCode::Success});
  expect_roundtrip(RecordReq{"lecture", 2, {{"fps", "25"}}});
  expect_roundtrip(RecordResp{ResultCode::Success, 99});
  expect_roundtrip(RecordStopReq{99});
  expect_roundtrip(RecordStopResp{ResultCode::Success, 750});
}

TEST(McamPdus, EquipmentRoundTrips) {
  expect_roundtrip(EquipListReq{-1});
  expect_roundtrip(EquipListReq{0});
  expect_roundtrip(EquipListResp{
      ResultCode::Success,
      {{1, 0, "studio-cam", true, "alice"}, {2, 2, "speaker", false, ""}}});
  expect_roundtrip(EquipControlReq{1, 2, "volume", 80});
  expect_roundtrip(EquipControlResp{ResultCode::Success, true, 80, "alice"});
}

TEST(McamPdus, NotificationsRoundTrip) {
  expect_roundtrip(PositionInd{7, 1234});  // high-tag-number PDU
  expect_roundtrip(ErrorResp{ResultCode::ProtocolError, "bad"});
}

TEST(McamPdus, EmptyStringsAndLists) {
  expect_roundtrip(AssociateReq{"", 1});
  expect_roundtrip(MovieCreateReq{"", {}});
  expect_roundtrip(EquipListResp{ResultCode::Success, {}});
}

TEST(McamPdus, DecodeRejectsGarbage) {
  EXPECT_FALSE(decode(common::to_bytes("junk")).ok());
  EXPECT_FALSE(decode({}).ok());
  EXPECT_FALSE(peek_op(common::to_bytes("junk")).ok());
}

TEST(McamPdus, DecodeRejectsUnknownTag) {
  // APPLICATION[500] is not an MCAM operation.
  const Bytes wire =
      ::mcam::asn1::encode(asn1::Value::application(500, {asn1::Value::integer(1)}));
  auto r = decode(wire);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, kUnknownOp);
}

TEST(McamPdus, DecodeRejectsWrongUniversalClass) {
  const Bytes wire = ::mcam::asn1::encode(asn1::Value::sequence({}));
  EXPECT_FALSE(decode(wire).ok());
}

TEST(McamPdus, DecodeRejectsMissingFields) {
  // AssociateReq with only one of two fields.
  const Bytes wire = ::mcam::asn1::encode(asn1::Value::application(
      static_cast<std::uint32_t>(Op::AssociateReq),
      {asn1::Value::ia5string("alice")}));
  auto r = decode(wire);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, kBadPduBody);
}

TEST(McamPdus, DecodeRejectsWrongFieldTypes) {
  const Bytes wire = ::mcam::asn1::encode(asn1::Value::application(
      static_cast<std::uint32_t>(Op::MovieDeleteReq),
      {asn1::Value::ia5string("not-an-integer")}));
  EXPECT_FALSE(decode(wire).ok());
}

// A high tag number that does not fit 32 bits must not wrap: 7f 90 80 80
// ed 31 is tag 2^32 + 14001, which once read as PositionInd (14001).
TEST(McamPdus, TagNumberBeyond32BitsIsRejected) {
  Bytes wire = encode(Pdu{PositionInd{7, 1234}});
  ASSERT_EQ(common::hexdump(ByteSpan{wire}.first(3), 3), "7f ed 31");
  const Bytes overflow = {0x90, 0x80, 0x80};
  wire.insert(wire.begin() + 1, overflow.begin(), overflow.end());
  auto decoded = decode(wire);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code, asn1::kBadTag);
  auto op = peek_op(wire);
  ASSERT_FALSE(op.ok());
  EXPECT_EQ(op.error().code, asn1::kBadTag);
  auto tree = asn1::decode(wire);
  ASSERT_FALSE(tree.ok());
  EXPECT_EQ(tree.error().code, asn1::kBadTag);

  // The largest 32-bit tag number still decodes.
  const Bytes max_tag = asn1::encode(asn1::Value::application(0xffffffffu, {}));
  EXPECT_EQ(common::hexdump(max_tag, max_tag.size()), "7f 8f ff ff ff 7f 00");
  auto v = asn1::decode(max_tag);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value().tag(), 0xffffffffu);
  auto peeked = peek_op(max_tag);
  ASSERT_TRUE(peeked.ok());
  EXPECT_EQ(static_cast<std::uint32_t>(peeked.value()), 0xffffffffu);
}

TEST(McamPdus, TruncatedWireNeverDecodes) {
  const Bytes full = encode(Pdu{MovieSelectResp{
      ResultCode::Success, 42, {{"title", "x"}, {"rights", "public"}}}});
  for (std::size_t cut = 1; cut < full.size(); ++cut) {
    Bytes partial(full.begin(), full.begin() + static_cast<long>(cut));
    EXPECT_FALSE(decode(partial).ok()) << cut;
  }
}

// ---- property: random PDUs round-trip ----

std::string random_name(common::Rng& rng) {
  std::string s;
  const std::size_t n = rng.below(12);
  for (std::size_t i = 0; i < n; ++i)
    s.push_back(static_cast<char>('a' + rng.below(26)));
  return s;
}

std::vector<Attr> random_attrs(common::Rng& rng) {
  std::vector<Attr> attrs;
  const std::size_t n = rng.below(5);
  for (std::size_t i = 0; i < n; ++i)
    attrs.push_back(Attr{random_name(rng), random_name(rng)});
  return attrs;
}

Pdu random_pdu(common::Rng& rng) {
  switch (rng.below(12)) {
    case 0:
      return AssociateReq{random_name(rng), 1};
    case 1:
      return MovieCreateReq{random_name(rng), random_attrs(rng)};
    case 2:
      return MovieSelectResp{static_cast<ResultCode>(rng.below(13)), rng(),
                             random_attrs(rng)};
    case 3:
      return AttrQueryReq{rng(), {random_name(rng), random_name(rng)}};
    case 4:
      return AttrModifyReq{rng(), random_attrs(rng)};
    case 5:
      return PlayReq{rng(), rng(), random_name(rng),
                     static_cast<std::uint16_t>(rng.below(65536))};
    case 6:
      return StopResp{static_cast<ResultCode>(rng.below(13)), rng()};
    case 7:
      return RecordReq{random_name(rng),
                       static_cast<std::uint32_t>(rng.below(100)),
                       random_attrs(rng)};
    case 8: {
      EquipListResp resp;
      resp.result = static_cast<ResultCode>(rng.below(13));
      const std::size_t n = rng.below(4);
      for (std::size_t i = 0; i < n; ++i)
        resp.items.push_back(EquipItem{
            static_cast<std::uint32_t>(rng.below(100)),
            static_cast<int>(rng.below(4)), random_name(rng),
            rng.chance(0.5), random_name(rng)});
      return resp;
    }
    case 9:
      return PositionInd{rng(), rng()};
    case 10:
      return EquipControlReq{static_cast<std::uint32_t>(rng.below(100)),
                             static_cast<int>(rng.below(6)),
                             random_name(rng), static_cast<int>(rng.below(101))};
    default:
      return ErrorResp{static_cast<ResultCode>(rng.below(13)),
                       random_name(rng)};
  }
}

class McamPduProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(McamPduProperty, RandomPdusRoundTrip) {
  common::Rng rng(GetParam());
  for (int i = 0; i < 300; ++i) {
    const Pdu pdu = random_pdu(rng);
    auto decoded = decode(encode(pdu));
    ASSERT_TRUE(decoded.ok()) << op_name(op_of(pdu));
    EXPECT_TRUE(decoded.value() == pdu) << op_name(op_of(pdu));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, McamPduProperty,
                         ::testing::Values(101, 202, 303, 404, 505));

TEST(McamPdus, NamesAreStable) {
  EXPECT_STREQ(op_name(Op::PlayReq), "PlayReq");
  EXPECT_STREQ(op_name(Op::PositionInd), "PositionInd");
  EXPECT_STREQ(result_name(ResultCode::Success), "success");
  EXPECT_STREQ(result_name(ResultCode::NoSuchMovie), "no-such-movie");
}

}  // namespace
}  // namespace mcam::core
