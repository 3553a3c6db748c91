#include "osi/acse.hpp"

#include "asn1/ber.hpp"

namespace mcam::osi {

using asn1::Reader;
using asn1::Tlv;
using asn1::Writer;
using common::ByteSpan;
using common::Bytes;
using common::Error;
using common::Result;
using estelle::Interaction;
using estelle::kAnyState;

namespace {
constexpr std::uint32_t kTagAarq = 0;
constexpr std::uint32_t kTagAare = 1;
constexpr std::uint32_t kTagRlrq = 2;
constexpr std::uint32_t kTagRlre = 3;
constexpr std::uint32_t kTagAbrt = 4;
constexpr std::uint32_t kUserInfoTag = 30;

/// [APPLICATION tag] { body }, optionally closed by user-information [30].
template <typename Body>
Bytes build(std::uint32_t tag, Body&& body,
            const ByteSpan* user_information = nullptr) {
  return asn1::encode_with([&](Writer& w) {
    w.constructed(asn1::TagClass::Application, tag, [&] {
      body(w);
      if (user_information != nullptr)
        w.context(kUserInfoTag, [&] { w.octets(*user_information); });
    });
  });
}

/// user-information [30]: the first [30] component, when it wraps exactly
/// one primitive value.
Bytes user_info_of(const Tlv& apdu) {
  Tlv wrapper, v;
  ByteSpan data;
  if (apdu.find_context(kUserInfoTag, wrapper) && wrapper.unwrap(v) &&
      v.octets(data) == asn1::kOk)
    return Bytes(data.begin(), data.end());
  return {};
}
}  // namespace

Bytes build_aarq(const std::vector<std::uint32_t>& context,
                 ByteSpan user_information) {
  return build(
      kTagAarq,
      [&](Writer& w) {
        w.integer(1);
        w.oid(context);
      },
      &user_information);
}

Bytes build_aare(AcseResult result, const std::vector<std::uint32_t>& context,
                 ByteSpan user_information) {
  return build(
      kTagAare,
      [&](Writer& w) {
        w.integer(static_cast<int>(result), asn1::UniversalTag::Enumerated);
        w.oid(context);
      },
      &user_information);
}

Bytes build_rlrq(int reason, ByteSpan user_information) {
  return build(kTagRlrq, [&](Writer& w) { w.integer(reason); },
               &user_information);
}

Bytes build_rlre(int reason, ByteSpan user_information) {
  return build(kTagRlre, [&](Writer& w) { w.integer(reason); },
               &user_information);
}

Bytes build_abrt(int source) {
  return build(kTagAbrt, [&](Writer& w) {
    w.integer(source, asn1::UniversalTag::Enumerated);
  });
}

Result<AcseApdu> parse_acse(ByteSpan raw) {
  Tlv v;
  if (asn1::Asn1Error e = asn1::read_one(raw, v)) return asn1::to_error(e);
  if (v.cls != asn1::TagClass::Application || !v.constructed)
    return Error::make(asn1::kBadTag, "not an ACSE APDU");

  AcseApdu apdu;
  apdu.user_information = user_info_of(v);
  Reader fields = v.enter();
  const std::size_t n = fields.count();
  Tlv first, second;
  // read_one checked every component, so these reads cannot fail.
  if (n >= 1) (void)fields.next(first);
  if (n >= 2) (void)fields.next(second);
  switch (v.tag) {
    case kTagAarq:
    case kTagAare: {
      const bool aarq = v.tag == kTagAarq;
      apdu.type = aarq ? AcseApdu::Type::AARQ : AcseApdu::Type::AARE;
      if (n < 2)
        return Error::make(asn1::kBadTag, aarq ? "short AARQ" : "short AARE");
      if (aarq)
        apdu.version = static_cast<int>(first.integer_or(1));
      else
        apdu.result = static_cast<AcseResult>(first.integer_or(1));
      if (asn1::Asn1Error e = second.oid(apdu.context))
        return asn1::to_error(e);
      return apdu;
    }
    case kTagRlrq:
    case kTagRlre:
    case kTagAbrt:
      apdu.type = v.tag == kTagRlrq   ? AcseApdu::Type::RLRQ
                  : v.tag == kTagRlre ? AcseApdu::Type::RLRE
                                      : AcseApdu::Type::ABRT;
      if (n >= 1) apdu.reason = static_cast<int>(first.integer_or(0));
      return apdu;
    default:
      return Error::make(asn1::kBadTag, "unknown ACSE APDU tag");
  }
}

AcseModule::AcseModule(std::string name)
    : AcseModule(std::move(name), Config{}) {}

AcseModule::AcseModule(std::string name, Config cfg)
    : Module(std::move(name), estelle::Attribute::Process),
      cfg_(std::move(cfg)) {
  upper();
  lower();
  define_transitions();
}

void AcseModule::define_transitions() {
  auto& u = upper();
  auto& d = lower();
  const auto cost = cfg_.per_apdu_cost;

  // --- association (initiator) ---
  trans("a-assoc-req")
      .from(kIdle)
      .when(u, kPConReq)
      .to(kAssocPending)
      .cost(cost)
      .action([this](Module&, const Interaction* msg) {
        ++sent_;
        lower().output(Interaction(
            kPConReq, build_aarq(cfg_.context, msg->payload)));
      });
  trans("a-assoc-conf")
      .from(kAssocPending)
      .when(d, kPConConf)
      .cost(cost)
      .action([this](Module& m, const Interaction* msg) {
        auto apdu = parse_acse(msg->payload);
        if (apdu.ok() && apdu.value().type == AcseApdu::Type::AARE &&
            apdu.value().result == AcseResult::Accepted) {
          m.set_state(kOpen);
          upper().output(
              Interaction(kPConConf, std::move(apdu.value().user_information)));
        } else {
          m.set_state(kIdle);
          upper().output(Interaction(
              kPConRefuse,
              apdu.ok() ? std::move(apdu.value().user_information)
                        : common::Bytes{}));
        }
      });
  trans("a-assoc-refused")
      .from(kAssocPending)
      .when(d, kPConRefuse)
      .to(kIdle)
      .cost(cost)
      .action([this](Module&, const Interaction* msg) {
        auto apdu = parse_acse(msg->payload);
        upper().output(Interaction(
            kPConRefuse, apdu.ok() ? std::move(apdu.value().user_information)
                                   : common::Bytes{}));
      });

  // --- association (responder) ---
  trans("a-assoc-ind")
      .from(kIdle)
      .when(d, kPConInd)
      .cost(cost)
      .action([this](Module& m, const Interaction* msg) {
        auto apdu = parse_acse(msg->payload);
        if (!apdu.ok() || apdu.value().type != AcseApdu::Type::AARQ) {
          ++sent_;
          lower().output(Interaction(
              kPConResp, asn1::Value::boolean(false),
              build_aare(AcseResult::RejectedPermanent, cfg_.context, {})));
          return;
        }
        if (apdu.value().context != cfg_.context) {
          // X.227: the responder refuses an unacceptable application
          // context before any user data reaches the application.
          ++context_rejections_;
          ++sent_;
          lower().output(Interaction(
              kPConResp, asn1::Value::boolean(false),
              build_aare(AcseResult::RejectedContextMismatch, cfg_.context,
                         {})));
          return;
        }
        m.set_state(kAssocInd);
        upper().output(Interaction(
            kPConInd, std::move(apdu.value().user_information)));
      });
  trans("a-assoc-resp")
      .from(kAssocInd)
      .when(u, kPConResp)
      .cost(cost)
      .action([this](Module& m, const Interaction* msg) {
        const bool accept = msg->value.as_bool().value_or(true);
        ++sent_;
        lower().output(Interaction(
            kPConResp, asn1::Value::boolean(accept),
            build_aare(accept ? AcseResult::Accepted
                              : AcseResult::RejectedPermanent,
                       cfg_.context, msg->payload)));
        m.set_state(accept ? kOpen : kIdle);
      });

  // --- data: pass-through (P-DATA is not ACSE's business) ---
  trans("a-dat-req")
      .from(kOpen)
      .when(u, kPDatReq)
      .cost(cost)
      .action([this](Module&, const Interaction* msg) {
        lower().output(Interaction(kPDatReq, msg->payload));
      });
  trans("a-dat-ind")
      .from(kOpen)
      .when(d, kPDatInd)
      .cost(cost)
      .action([this](Module&, const Interaction* msg) {
        upper().output(Interaction(kPDatInd, msg->payload));
      });

  // --- release (A-RELEASE wraps RLRQ/RLRE) ---
  trans("a-rel-req")
      .from(kOpen)
      .when(u, kPRelReq)
      .to(kRelPending)
      .cost(cost)
      .action([this](Module&, const Interaction* msg) {
        ++sent_;
        lower().output(Interaction(kPRelReq, build_rlrq(0, msg->payload)));
      });
  trans("a-rel-ind")
      .from(kOpen)
      .when(d, kPRelInd)
      .to(kRelInd)
      .cost(cost)
      .action([this](Module&, const Interaction* msg) {
        auto apdu = parse_acse(msg->payload);
        upper().output(Interaction(
            kPRelInd, apdu.ok() ? std::move(apdu.value().user_information)
                                : common::Bytes{}));
      });
  trans("a-rel-resp")
      .from(kRelInd)
      .when(u, kPRelResp)
      .to(kIdle)
      .cost(cost)
      .action([this](Module&, const Interaction* msg) {
        ++sent_;
        lower().output(Interaction(kPRelResp, build_rlre(0, msg->payload)));
      });
  trans("a-rel-conf")
      .from(kRelPending)
      .when(d, kPRelConf)
      .to(kIdle)
      .cost(cost)
      .action([this](Module&, const Interaction* msg) {
        auto apdu = parse_acse(msg->payload);
        upper().output(Interaction(
            kPRelConf, apdu.ok() ? std::move(apdu.value().user_information)
                                 : common::Bytes{}));
      });

  // --- abort ---
  trans("a-abort-req")
      .from(kAnyState)
      .when(u, kPAbortReq)
      .to(kIdle)
      .priority(1)
      .cost(cost)
      .action([this](Module&, const Interaction*) {
        lower().output(Interaction(kPAbortReq, build_abrt(0)));
      });
  trans("a-abort-ind")
      .from(kAnyState)
      .when(d, kPAbortInd)
      .to(kIdle)
      .priority(1)
      .cost(cost)
      .action([this](Module& m, const Interaction*) {
        if (m.state() != kIdle) upper().output(Interaction(kPAbortInd));
      });

  // --- catch-alls ---
  trans("a-discard-upper")
      .from(kIdle)
      .when(u)
      .priority(1000)
      .cost(cost)
      .action([](Module&, const Interaction*) {});
  trans("a-discard-lower")
      .when(d)
      .priority(1000)
      .cost(cost)
      .action([](Module&, const Interaction*) {});
}

}  // namespace mcam::osi
