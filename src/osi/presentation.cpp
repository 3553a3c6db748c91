#include "osi/presentation.hpp"

#include "asn1/ber.hpp"

namespace mcam::osi {

using asn1::Reader;
using asn1::Tlv;
using asn1::Writer;
using common::ByteSpan;
using common::Bytes;
using estelle::Interaction;
using estelle::kAnyState;

namespace {
// Outer PPDU discriminator tags.
constexpr std::uint32_t kTagCp = 1;
constexpr std::uint32_t kTagCpa = 2;
constexpr std::uint32_t kTagCpr = 3;
constexpr std::uint32_t kTagTd = 4;

/// [tag] EXPLICIT SEQUENCE { body }, the shape of every PPDU.
template <typename Body>
Bytes build(std::uint32_t tag, Body&& body) {
  return asn1::encode_with([&](Writer& w) {
    w.context(tag, [&] { w.sequence([&] { body(w); }); });
  });
}

/// The CP/CPA presentation-context list with one entry.
template <typename Entry>
void context_list(Writer& w, Entry&& entry) {
  w.sequence([&] { w.sequence([&] { entry(); }); });
}

/// user-data [0]: the first [0] component, when it wraps exactly one
/// primitive value.
Bytes user_data_of(const Tlv& seq) {
  Tlv wrapper, v;
  ByteSpan data;
  if (seq.find_context(0, wrapper) && wrapper.unwrap(v) &&
      v.octets(data) == asn1::kOk)
    return Bytes(data.begin(), data.end());
  return {};
}
}  // namespace

Bytes build_cp(int context_id, ByteSpan user_data) {
  return build(kTagCp, [&](Writer& w) {
    context_list(w, [&] {
      w.integer(context_id);
      w.oid(oids::kMcamAbstractSyntax);
      w.sequence([&] { w.oid(oids::kBerTransferSyntax); });
    });
    w.context(0, [&] { w.octets(user_data); });
  });
}

Bytes build_cpa(int context_id, ByteSpan user_data) {
  return build(kTagCpa, [&](Writer& w) {
    context_list(w, [&] {
      w.integer(context_id);
      w.integer(0, asn1::UniversalTag::Enumerated);  // acceptance
      w.oid(oids::kBerTransferSyntax);
    });
    w.context(0, [&] { w.octets(user_data); });
  });
}

Bytes build_cpr(int reason, ByteSpan user_data) {
  return build(kTagCpr, [&](Writer& w) {
    w.integer(reason, asn1::UniversalTag::Enumerated);
    w.context(0, [&] { w.octets(user_data); });
  });
}

Bytes build_td(int context_id, ByteSpan user_data) {
  return build(kTagTd, [&](Writer& w) {
    w.integer(context_id);
    w.octets(user_data);
  });
}

common::Result<PpduView> parse_ppdu(ByteSpan raw) {
  Tlv outer;
  if (asn1::Asn1Error e = asn1::read_one(raw, outer))
    return asn1::to_error(e);
  Tlv body;
  if (outer.cls != asn1::TagClass::ContextSpecific || !outer.unwrap(body))
    return common::Error::make(asn1::kBadTag, "malformed PPDU wrapper");

  PpduView v;
  switch (outer.tag) {
    case kTagCp:
    case kTagCpa: {
      v.type = outer.tag == kTagCp ? PpduView::Type::CP : PpduView::Type::CPA;
      // context-id of the first entry of the context list.
      Tlv list, entry, id;
      if (body.first(list) && list.first(entry) && entry.first(id))
        v.context_id = static_cast<int>(id.integer_or(0));
      v.user_data = user_data_of(body);
      return v;
    }
    case kTagCpr: {
      v.type = PpduView::Type::CPR;
      if (Tlv reason; body.first(reason))
        v.reason = static_cast<int>(reason.integer_or(0));
      v.user_data = user_data_of(body);
      return v;
    }
    case kTagTd: {
      v.type = PpduView::Type::TD;
      Reader fields = body.enter();
      Tlv id, data;
      ByteSpan octets;
      if (fields.next(id) == asn1::kOk && fields.next(data) == asn1::kOk) {
        v.context_id = static_cast<int>(id.integer_or(0));
        if (data.octets(octets) == asn1::kOk)
          v.user_data.assign(octets.begin(), octets.end());
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
