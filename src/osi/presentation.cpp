#include "osi/presentation.hpp"

#include "asn1/ber.hpp"

namespace mcam::osi {

using asn1::Value;
using asn1::values;
using common::Bytes;
using estelle::Interaction;
using estelle::kAnyState;

namespace {
// Outer PPDU discriminator tags.
constexpr std::uint32_t kTagCp = 1;
constexpr std::uint32_t kTagCpa = 2;
constexpr std::uint32_t kTagCpr = 3;
constexpr std::uint32_t kTagTd = 4;

Bytes wrap(std::uint32_t tag, Value body) {
  return asn1::encode(Value::context(tag, std::move(body)));
}
}  // namespace

Bytes build_cp(int context_id, const Bytes& user_data) {
  Value ctx = Value::sequence(
      values(Value::integer(context_id), Value::oid(oids::kMcamAbstractSyntax),
             Value::sequence(values(Value::oid(oids::kBerTransferSyntax)))));
  Value body = Value::sequence(
      values(Value::sequence(values(std::move(ctx))),
             Value::context(0, Value::octet_string(user_data))));
  return wrap(kTagCp, std::move(body));
}

Bytes build_cpa(int context_id, const Bytes& user_data) {
  Value result = Value::sequence(
      values(Value::integer(context_id),
             Value::enumerated(0),  // acceptance
             Value::oid(oids::kBerTransferSyntax)));
  Value body = Value::sequence(
      values(Value::sequence(values(std::move(result))),
             Value::context(0, Value::octet_string(user_data))));
  return wrap(kTagCpa, std::move(body));
}

Bytes build_cpr(int reason, const Bytes& user_data) {
  Value body = Value::sequence(
      values(Value::enumerated(reason),
             Value::context(0, Value::octet_string(user_data))));
  return wrap(kTagCpr, std::move(body));
}

Bytes build_td(int context_id, const Bytes& user_data) {
  Value body = Value::sequence(
      values(Value::integer(context_id), Value::octet_string(user_data)));
  return wrap(kTagTd, std::move(body));
}

common::Result<PpduView> parse_ppdu(const Bytes& raw) {
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

PresentationModule::PresentationModule(std::string name)
    : PresentationModule(std::move(name), Config{}) {}

PresentationModule::PresentationModule(std::string name, Config cfg)
    : Module(std::move(name), estelle::Attribute::Process), cfg_(cfg) {
  upper();
  lower();
  define_transitions();
}

void PresentationModule::define_transitions() {
  auto& u = upper();
  auto& d = lower();
  const auto cost = cfg_.per_ppdu_cost;

  auto ppdu_type_is = [](PpduView::Type want) {
    return [want](Module&, const Interaction* msg) {
      if (msg == nullptr) return false;
      auto v = parse_ppdu(msg->payload);
      return v.ok() && v.value().type == want;
    };
  };

  // --- initiator ---
  trans("p-con-req")
      .from(kIdle)
      .when(u, kPConReq)
      .to(kWaitConf)
      .cost(cost)
      .action([this](Module&, const Interaction* msg) {
        ++sent_;
        lower().output(Interaction(
            kSConReq, build_cp(cfg_.context_id, msg->payload)));
      });
  trans("p-cpa-recv")
      .from(kWaitConf)
      .when(d, kSConConf)
      .provided(ppdu_type_is(PpduView::Type::CPA))
      .to(kOpen)
      .cost(cost)
      .action([this](Module&, const Interaction* msg) {
        auto v = parse_ppdu(msg->payload);
        transfer_syntax_ = oids::kBerTransferSyntax;
        upper().output(Interaction(kPConConf, std::move(v.value().user_data)));
      });
  trans("p-cpr-recv")
      .from(kWaitConf)
      .when(d, kSConConf)
      .provided(ppdu_type_is(PpduView::Type::CPR))
      .to(kIdle)
      .cost(cost)
      .action([this](Module&, const Interaction* msg) {
        auto v = parse_ppdu(msg->payload);
        upper().output(
            Interaction(kPConRefuse, std::move(v.value().user_data)));
      });
  trans("p-refused")
      .from(kWaitConf)
      .when(d, kSConRefuse)
      .to(kIdle)
      .cost(cost)
      .action([this](Module&, const Interaction* msg) {
        // Session-level refusal; user data may still carry a CPR.
        auto v = parse_ppdu(msg->payload);
        upper().output(Interaction(
            kPConRefuse, v.ok() ? std::move(v.value().user_data) : Bytes{}));
      });

  // --- responder ---
  trans("p-cp-recv")
      .from(kIdle)
      .when(d, kSConInd)
      .provided(ppdu_type_is(PpduView::Type::CP))
      .to(kConnInd)
      .cost(cost)
      .action([this](Module&, const Interaction* msg) {
        auto v = parse_ppdu(msg->payload);
        upper().output(Interaction(kPConInd, std::move(v.value().user_data)));
      });
  trans("p-con-resp")
      .from(kConnInd)
      .when(u, kPConResp)
      .cost(cost)
      .action([this](Module& m, const Interaction* msg) {
        const bool accept = msg->value.as_bool().value_or(true);
        ++sent_;
        Interaction out(kSConResp, asn1::Value::boolean(accept),
                        accept ? build_cpa(cfg_.context_id, msg->payload)
                               : build_cpr(/*reason=*/2, msg->payload));
        lower().output(std::move(out));
        if (accept) transfer_syntax_ = oids::kBerTransferSyntax;
        m.set_state(accept ? kOpen : kIdle);
      });

  // --- data transfer ---
  trans("p-dat-req")
      .from(kOpen)
      .when(u, kPDatReq)
      .cost(cost)
      .action([this](Module&, const Interaction* msg) {
        ++sent_;
        lower().output(
            Interaction(kSDatReq, build_td(cfg_.context_id, msg->payload)));
      });
  trans("p-td-recv")
      .from(kOpen)
      .when(d, kSDatInd)
      .cost(cost)
      .action([this](Module&, const Interaction* msg) {
        auto v = parse_ppdu(msg->payload);
        if (v.ok() && v.value().type == PpduView::Type::TD)
          upper().output(Interaction(kPDatInd, std::move(v.value().user_data)));
      });

  // --- release: presentation kernel is pass-through over S-RELEASE ---
  trans("p-rel-req")
      .from(kOpen)
      .when(u, kPRelReq)
      .to(kRelSent)
      .cost(cost)
      .action([this](Module&, const Interaction* msg) {
        lower().output(Interaction(kSRelReq, msg->payload));
      });
  trans("p-rel-ind")
      .from(kOpen)
      .when(d, kSRelInd)
      .to(kRelInd)
      .cost(cost)
      .action([this](Module&, const Interaction* msg) {
        upper().output(Interaction(kPRelInd, msg->payload));
      });
  trans("p-rel-resp")
      .from(kRelInd)
      .when(u, kPRelResp)
      .to(kIdle)
      .cost(cost)
      .action([this](Module&, const Interaction* msg) {
        lower().output(Interaction(kSRelResp, msg->payload));
      });
  trans("p-rel-conf")
      .from(kRelSent)
      .when(d, kSRelConf)
      .to(kIdle)
      .cost(cost)
      .action([this](Module&, const Interaction* msg) {
        upper().output(Interaction(kPRelConf, msg->payload));
      });

  // --- abort: user-initiated (P-U-ABORT) and provider indications ---
  trans("p-abort-req")
      .from(kAnyState)
      .when(u, kPAbortReq)
      .to(kIdle)
      .priority(1)
      .cost(cost)
      .action([this](Module&, const Interaction*) {
        lower().output(Interaction(kSAbortReq));
      });
  trans("p-abort-ind")
      .from(kAnyState)
      .when(d, kSAbortInd)
      .to(kIdle)
      .priority(1)
      .cost(cost)
      .action([this](Module& m, const Interaction*) {
        if (m.state() != kIdle)
          upper().output(Interaction(kPAbortInd));
      });

  // --- catch-alls ---
  trans("p-discard-upper")
      .when(u)
      .priority(1000)
      .cost(cost)
      .action([](Module&, const Interaction*) {});
  trans("p-discard-lower")
      .when(d)
      .priority(1000)
      .cost(cost)
      .action([](Module&, const Interaction*) {});
}

}  // namespace mcam::osi
