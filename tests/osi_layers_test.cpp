// Per-layer isolation tests for session and presentation: each layer driven
// directly by user modules with a raw channel below it (no full stack), so
// state transitions and PDU emissions can be asserted one hop at a time.
#include <gtest/gtest.h>

#include "estelle/executor.hpp"
#include "osi/presentation.hpp"
#include "osi/session.hpp"

namespace mcam::osi {
namespace {

using common::Bytes;
using estelle::Attribute;
using estelle::Interaction;
using estelle::InteractionPoint;
using estelle::Module;
using estelle::make_executor;
using estelle::Specification;

/// One session entity with a user module above and a "wire probe" module
/// below (stands in for the transport service; the test plays transport).
struct SessionRig {
  Specification spec{"sess"};
  SessionModule* session;
  Module* user;
  Module* wire;

  SessionRig() {
    auto& sys =
        spec.root().create_child<Module>("sys", Attribute::SystemProcess);
    session = &sys.create_child<SessionModule>("session");
    user = &sys.create_child<Module>("user", Attribute::Process);
    wire = &sys.create_child<Module>("wire", Attribute::Process);
    estelle::connect(user->ip("svc"), session->upper());
    estelle::connect(wire->ip("tp"), session->lower());
    spec.initialize();
  }

  InteractionPoint& up() { return user->ip("svc"); }
  InteractionPoint& down() { return wire->ip("tp"); }
};

TEST(SessionLayer, InitiatorEmitsTConThenCn) {
  SessionRig rig;
  auto sched = make_executor(rig.spec);
  rig.up().output(Interaction(kSConReq, common::to_bytes("cp-bytes")));
  sched->run();

  // First the transport connect request...
  ASSERT_TRUE(rig.down().has_input());
  EXPECT_EQ(rig.down().pop().kind, kTConReq);
  EXPECT_EQ(rig.session->state(), SessionModule::kWaitTCon);

  // ...then, after T-CONNECT confirm, the CN SPDU carrying the user data.
  rig.down().output(Interaction(kTConConf));
  sched->run();
  ASSERT_TRUE(rig.down().has_input());
  Interaction cn = rig.down().pop();
  EXPECT_EQ(cn.kind, kTDatReq);
  const SpduView spdu = parse_spdu(cn.payload);
  EXPECT_EQ(spdu.type, Spdu::CN);
  EXPECT_EQ(spdu.user_data, common::to_bytes("cp-bytes"));
  EXPECT_EQ(rig.session->state(), SessionModule::kWaitAC);
}

TEST(SessionLayer, ResponderIndicatesAndAccepts) {
  SessionRig rig;
  auto sched = make_executor(rig.spec);
  rig.down().output(
      Interaction(kTDatInd, build_spdu(Spdu::CN, common::to_bytes("x"))));
  sched->run();
  ASSERT_TRUE(rig.up().has_input());
  Interaction ind = rig.up().pop();
  EXPECT_EQ(ind.kind, kSConInd);
  EXPECT_EQ(ind.payload, common::to_bytes("x"));
  EXPECT_EQ(rig.session->state(), SessionModule::kConnInd);

  rig.up().output(Interaction(kSConResp, asn1::Value::boolean(true),
                              common::to_bytes("y")));
  sched->run();
  ASSERT_TRUE(rig.down().has_input());
  const SpduView ac = parse_spdu(rig.down().pop().payload);
  EXPECT_EQ(ac.type, Spdu::AC);
  EXPECT_EQ(ac.user_data, common::to_bytes("y"));
  EXPECT_EQ(rig.session->state(), SessionModule::kOpen);
}

TEST(SessionLayer, ResponderRefusesWithRf) {
  SessionRig rig;
  auto sched = make_executor(rig.spec);
  rig.down().output(Interaction(kTDatInd, build_spdu(Spdu::CN, {})));
  sched->run();
  (void)rig.up().pop();
  rig.up().output(Interaction(kSConResp, asn1::Value::boolean(false),
                              common::to_bytes("no")));
  sched->run();
  ASSERT_TRUE(rig.down().has_input());
  EXPECT_EQ(parse_spdu(rig.down().pop().payload).type, Spdu::RF);
  EXPECT_EQ(rig.session->state(), SessionModule::kIdle);
}

TEST(SessionLayer, AbortFromEitherSide) {
  SessionRig rig;
  auto sched = make_executor(rig.spec);
  // Bring it to open via the responder path.
  rig.down().output(Interaction(kTDatInd, build_spdu(Spdu::CN, {})));
  sched->run();
  (void)rig.up().pop();
  rig.up().output(Interaction(kSConResp, asn1::Value::boolean(true)));
  sched->run();
  (void)rig.down().pop();  // AC
  ASSERT_EQ(rig.session->state(), SessionModule::kOpen);

  // Peer abort (AB SPDU) surfaces as S-ABORT indication.
  rig.down().output(Interaction(kTDatInd, build_spdu(Spdu::AB, {})));
  sched->run();
  ASSERT_TRUE(rig.up().has_input());
  EXPECT_EQ(rig.up().pop().kind, kSAbortInd);
  EXPECT_EQ(rig.session->state(), SessionModule::kIdle);
}

TEST(SessionLayer, TransportFailureAbortsOpenSession) {
  SessionRig rig;
  auto sched = make_executor(rig.spec);
  rig.down().output(Interaction(kTDatInd, build_spdu(Spdu::CN, {})));
  sched->run();
  (void)rig.up().pop();
  rig.up().output(Interaction(kSConResp, asn1::Value::boolean(true)));
  sched->run();
  (void)rig.down().pop();

  rig.down().output(Interaction(kTDisInd));
  sched->run();
  ASSERT_TRUE(rig.up().has_input());
  EXPECT_EQ(rig.up().pop().kind, kSAbortInd);
  EXPECT_EQ(rig.session->state(), SessionModule::kIdle);
}

// ---------------------------------------------------------------------------

/// Presentation entity over a probe that plays the session service.
struct PresRig {
  Specification spec{"pres"};
  PresentationModule* pres;
  Module* user;
  Module* wire;

  PresRig() {
    auto& sys =
        spec.root().create_child<Module>("sys", Attribute::SystemProcess);
    pres = &sys.create_child<PresentationModule>("pres");
    user = &sys.create_child<Module>("user", Attribute::Process);
    wire = &sys.create_child<Module>("wire", Attribute::Process);
    estelle::connect(user->ip("svc"), pres->upper());
    estelle::connect(wire->ip("ss"), pres->lower());
    spec.initialize();
  }
  InteractionPoint& up() { return user->ip("svc"); }
  InteractionPoint& down() { return wire->ip("ss"); }
};

TEST(PresentationLayer, ConnectCarriesCpWithContextList) {
  PresRig rig;
  auto sched = make_executor(rig.spec);
  rig.up().output(Interaction(kPConReq, common::to_bytes("user-data")));
  sched->run();
  ASSERT_TRUE(rig.down().has_input());
  Interaction out = rig.down().pop();
  EXPECT_EQ(out.kind, kSConReq);
  auto cp = parse_ppdu(out.payload);
  ASSERT_TRUE(cp.ok());
  EXPECT_EQ(cp.value().type, PpduView::Type::CP);
  EXPECT_EQ(cp.value().context_id, 1);
  EXPECT_EQ(cp.value().user_data, common::to_bytes("user-data"));
  EXPECT_EQ(rig.pres->state(), PresentationModule::kWaitConf);
  EXPECT_TRUE(rig.pres->transfer_syntax().empty());  // not negotiated yet
}

TEST(PresentationLayer, CpaCompletesNegotiation) {
  PresRig rig;
  auto sched = make_executor(rig.spec);
  rig.up().output(Interaction(kPConReq, Bytes{}));
  sched->run();
  (void)rig.down().pop();
  rig.down().output(
      Interaction(kSConConf, build_cpa(1, common::to_bytes("welcome"))));
  sched->run();
  ASSERT_TRUE(rig.up().has_input());
  Interaction conf = rig.up().pop();
  EXPECT_EQ(conf.kind, kPConConf);
  EXPECT_EQ(conf.payload, common::to_bytes("welcome"));
  EXPECT_EQ(rig.pres->transfer_syntax(), oids::kBerTransferSyntax);
  EXPECT_EQ(rig.pres->state(), PresentationModule::kOpen);
}

TEST(PresentationLayer, CprMeansRefusal) {
  PresRig rig;
  auto sched = make_executor(rig.spec);
  rig.up().output(Interaction(kPConReq, Bytes{}));
  sched->run();
  (void)rig.down().pop();
  rig.down().output(
      Interaction(kSConConf, build_cpr(2, common::to_bytes("denied"))));
  sched->run();
  ASSERT_TRUE(rig.up().has_input());
  Interaction refused = rig.up().pop();
  EXPECT_EQ(refused.kind, kPConRefuse);
  EXPECT_EQ(refused.payload, common::to_bytes("denied"));
  EXPECT_EQ(rig.pres->state(), PresentationModule::kIdle);
}

std::string hex(const Bytes& b) { return common::hexdump(b, b.size()); }

// Golden octets, captured before the builders assembled their value trees by
// move: how a PPDU is built must never change what goes on the wire.
TEST(PresentationCodec, GoldenWireBytes) {
  EXPECT_EQ(hex(build_cp(1, common::to_bytes("hello"))),
            "a1 1e 30 1c 30 11 30 0f 02 01 01 06 04 2b ce 0f "
            "01 30 04 06 02 51 01 a0 07 04 05 68 65 6c 6c 6f");
  EXPECT_EQ(hex(build_cpa(1, common::to_bytes("welcome"))),
            "a2 1b 30 19 30 0c 30 0a 02 01 01 0a 01 00 06 02 "
            "51 01 a0 09 04 07 77 65 6c 63 6f 6d 65");
  EXPECT_EQ(hex(build_td(1, common::to_bytes("payload"))),
            "a4 0e 30 0c 02 01 01 04 07 70 61 79 6c 6f 61 64");
}

TEST(PresentationLayer, DataWrappedInTd) {
  PresRig rig;
  auto sched = make_executor(rig.spec);
  // Open via responder path.
  rig.down().output(Interaction(kSConInd, build_cp(1, {})));
  sched->run();
  (void)rig.up().pop();
  rig.up().output(Interaction(kPConResp, asn1::Value::boolean(true)));
  sched->run();
  (void)rig.down().pop();  // CPA
  ASSERT_EQ(rig.pres->state(), PresentationModule::kOpen);

  rig.up().output(Interaction(kPDatReq, common::to_bytes("mcam-pdu")));
  sched->run();
  ASSERT_TRUE(rig.down().has_input());
  auto td = parse_ppdu(rig.down().pop().payload);
  ASSERT_TRUE(td.ok());
  EXPECT_EQ(td.value().type, PpduView::Type::TD);
  EXPECT_EQ(td.value().user_data, common::to_bytes("mcam-pdu"));

  // Non-TD garbage on the session service is ignored, not crashed on.
  rig.down().output(Interaction(kSDatInd, common::to_bytes("junk")));
  sched->run();
  EXPECT_FALSE(rig.up().has_input());
}

TEST(PresentationLayer, UserAbortCascadesDown) {
  PresRig rig;
  auto sched = make_executor(rig.spec);
  rig.down().output(Interaction(kSConInd, build_cp(1, {})));
  sched->run();
  (void)rig.up().pop();
  rig.up().output(Interaction(kPConResp, asn1::Value::boolean(true)));
  sched->run();
  (void)rig.down().pop();

  rig.up().output(Interaction(kPAbortReq));
  sched->run();
  ASSERT_TRUE(rig.down().has_input());
  EXPECT_EQ(rig.down().pop().kind, kSAbortReq);
  EXPECT_EQ(rig.pres->state(), PresentationModule::kIdle);
}

}  // namespace
}  // namespace mcam::osi
