// Self-test of the benchmark's own code: the request generator is a pure
// function of its seed and issues only requests the server accepts, its
// response checks reject wrong responses, the echo stamp check rejects a
// wrong stamp, and the percentile and host-speed scaling arithmetic is
// right. Exits non-zero on any failure.
//
// The generator is driven against McamServerCore::handle directly (no
// Estelle stack), completing the users' outstanding exchanges round-robin,
// so a check failure here is the generator's or its model's, never the
// runtime's.
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "echo_stamp.hpp"
#include "generator.hpp"
#include "mcam/server_core.hpp"
#include "net/network.hpp"
#include "outcome.hpp"
#include "reference_work.hpp"
#include "stats.hpp"

namespace core = mcam::core;
using perfbench::Generator;
using perfbench::Mix;

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (ok) return;
  std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
  ++g_failures;
}

struct Drive {
  std::vector<mcam::common::Bytes> requests;  // encoded, in issue order
  std::set<perfbench::Kind> kinds;
  int check_failures = 0;
  int corruptions_tried = 0;
  int corruptions_passed = 0;  // wrong responses the checks accepted
};

/// Wrong versions of the correct response `good`: another operation, an
/// ErrorResp, a failing ResultCode, and, where the response carries them, a
/// value, hit count or new movie id that disagrees with the model.
std::vector<std::pair<const char*, core::Pdu>> corruptions(
    const core::Pdu& good) {
  std::vector<std::pair<const char*, core::Pdu>> bad;
  bad.emplace_back("wrong op", core::ReleaseResp{});
  bad.emplace_back("ErrorResp",
                   core::ErrorResp{core::ResultCode::InternalError, "x"});
  core::Pdu failed = good;
  std::visit(
      [](auto& r) {
        if constexpr (requires { r.result; })
          r.result = core::ResultCode::AccessDenied;
      },
      failed);
  bad.emplace_back("result code", std::move(failed));
  core::Pdu stale = good;
  const bool has_value = std::visit(
      [](auto& r) {
        using T = std::decay_t<decltype(r)>;
        if constexpr (std::is_same_v<T, core::MovieSelectResp> ||
                      std::is_same_v<T, core::AttrQueryResp>) {
          for (core::Attr& a : r.attrs) a.value += "?";
          return !r.attrs.empty();
        } else if constexpr (std::is_same_v<T, core::EquipControlResp>) {
          ++r.value;
          return true;
        } else if constexpr (std::is_same_v<T, core::EquipListResp>) {
          if (r.items.empty()) return false;
          r.items.front().powered = false;
          return true;
        } else if constexpr (std::is_same_v<T, core::MovieSearchResp>) {
          if (r.hits.empty()) r.hits.emplace_back();
          else r.hits.pop_back();
          return true;
        } else if constexpr (std::is_same_v<T, core::MovieCreateResp>) {
          r.movie_id = 0;
          return true;
        } else {
          return false;
        }
      },
      stale);
  if (has_value) bad.emplace_back("stale value", std::move(stale));
  return bad;
}

/// Feed each corruption of `good` to a copy of `gen` (complete() changes
/// the model and releases locks) and count those the checks accept.
void try_corruptions(const Generator& gen, const perfbench::Exchange& ex,
                     const core::Pdu& good, Drive& d) {
  for (auto& [what, bad] : corruptions(good)) {
    Generator probe = gen;
    ++d.corruptions_tried;
    if (!probe.complete(ex, bad).empty()) continue;
    if (d.corruptions_passed++ < 5)
      std::fprintf(stderr, "  %s: %s response accepted\n",
                   perfbench::kind_name(ex.kind), what);
  }
}

Drive drive(Mix mix, std::uint64_t seed, int exchanges) {
  Generator::Config cfg;
  cfg.mix = mix;
  cfg.seed = seed;
  cfg.connections = mix == Mix::Control ? 64 : 8;
  cfg.movies = mix == Mix::Control ? 200 : 2000;
  Generator gen(cfg);
  mcam::net::SimNetwork net(seed);
  core::McamServerCore server(net, "ksr1");
  gen.provision(server.directory(), server.eca());
  std::vector<std::uint64_t> sessions;
  for (int c = 0; c < cfg.connections; ++c)
    sessions.push_back(
        server.associate(core::AssociateReq{Generator::user_of(c), 1})
            .value());

  Drive d;
  std::map<perfbench::Kind, int> probed;
  constexpr int kProbesPerKind = 3;
  std::vector<perfbench::Exchange> inflight;
  for (int u = 0; u < Generator::kUsers; ++u) {
    inflight.push_back(gen.next(u));
    d.requests.push_back(core::encode(inflight.back().request));
  }
  for (int i = 0; i < exchanges; ++i) {
    const int u = i % Generator::kUsers;
    perfbench::Exchange& ex = inflight[static_cast<std::size_t>(u)];
    d.kinds.insert(ex.kind);
    const core::Pdu response = server.handle(
        sessions[static_cast<std::size_t>(ex.conn)], ex.request);
    auto decoded = core::decode(core::encode(response));
    if (decoded.ok() && probed[ex.kind]++ < kProbesPerKind)
      try_corruptions(gen, ex, decoded.value(), d);
    const std::string verdict =
        decoded.ok() ? gen.complete(ex, decoded.value())
                     : gen.complete(ex, core::ErrorResp{});
    if (!verdict.empty()) {
      if (d.check_failures++ < 5)
        std::fprintf(stderr, "  %s: %s\n", perfbench::kind_name(ex.kind),
                     verdict.c_str());
    }
    ex = gen.next(u);
    d.requests.push_back(core::encode(ex.request));
  }
  return d;
}

void test_generator(Mix mix, const char* name,
                    std::set<perfbench::Kind> want_kinds) {
  constexpr int kExchanges = 2000;
  const Drive a = drive(mix, 7, kExchanges);
  const Drive b = drive(mix, 7, kExchanges);
  const Drive c = drive(mix, 8, kExchanges);
  expect(a.requests == b.requests,
         std::string(name) + ": same seed gives different requests");
  expect(a.requests != c.requests,
         std::string(name) + ": different seeds give the same requests");
  expect(a.check_failures == 0 && c.check_failures == 0,
         std::string(name) + ": " +
             std::to_string(a.check_failures + c.check_failures) +
             " responses of the real server core failed the model checks");
  for (const perfbench::Kind k : want_kinds)
    expect(a.kinds.contains(k), std::string(name) + ": mix never issues " +
                                    perfbench::kind_name(k));
  expect(a.corruptions_tried >= 3 * static_cast<int>(want_kinds.size()),
         std::string(name) + ": too few wrong responses tried");
  expect(a.corruptions_passed == 0,
         std::string(name) + ": " + std::to_string(a.corruptions_passed) +
             " wrong responses passed the model checks");
}

void test_echo_stamp() {
  using perfbench::stamp;
  using perfbench::stamped;
  const mcam::common::Bytes b = stamp(0x0102030405060708u, 77);
  expect(b.size() == 16, "an echo stamp is 16 bytes");
  expect(stamped(b, 0x0102030405060708u, 77), "a stamp matches itself");
  expect(!stamped(b, 0x0102030405060709u, 77),
         "a wrong sequence number is rejected");
  expect(!stamped(b, 0x0102030405060708u, 78), "a wrong tag is rejected");
  expect(!stamped(mcam::common::Bytes(b.begin(), b.end() - 1),
                  0x0102030405060708u, 77),
         "a truncated stamp is rejected");
}

void test_percentiles() {
  using perfbench::percentile_sorted;
  using perfbench::samples_beyond;
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  expect(percentile_sorted(v, 50) == 500, "p50 of 1..1000 is 500");
  expect(percentile_sorted(v, 99) == 990, "p99 of 1..1000 is 990");
  expect(percentile_sorted(v, 100) == 1000, "p100 of 1..1000 is 1000");
  expect(samples_beyond(1000, 99) == 10, "1000 samples leave 10 beyond p99");
  expect(samples_beyond(999, 99) == 9, "999 samples leave 9 beyond p99");
  expect(samples_beyond(perfbench::kMinSamples, 99) >= 10,
         "a window's minimum sample count leaves 10 beyond p99");
  expect(percentile_sorted({42.0}, 99) == 42, "p99 of one sample");
  expect(perfbench::median({3, 1, 2}) == 2, "median of an odd count");
  expect(perfbench::median({4, 1, 3, 2}) == 2.5, "median of an even count");
  const perfbench::LatencySummary s = perfbench::summarize({5, 1, 4, 2, 3});
  expect(s.samples == 5 && s.p50_us == 3 && s.p99_us == 5,
         "summarize sorts before taking percentiles");
}

void test_reference_scaling() {
  using perfbench::ReferenceWork;
  using perfbench::nominal_factor;
  constexpr double n = ReferenceWork::kNominalSeconds;
  expect(nominal_factor(n, n) == 1.0, "the nominal host scales by 1");
  expect(nominal_factor(2 * n, 2 * n) == 0.5,
         "a host at half speed scales times by 1/2");
  expect(nominal_factor(n, 3 * n) == 0.5,
         "the factor uses the mean of the reference runs on either side");
  ReferenceWork reference;
  expect(reference.run() > 0, "the reference work takes CPU time");
}

}  // namespace

int main() {
  using K = perfbench::Kind;
  test_percentiles();
  test_reference_scaling();
  test_echo_stamp();
  test_generator(Mix::Control, "control",
                 {K::Select, K::Play, K::Pause, K::Resume, K::Stop,
                  K::QueryOne, K::EquipList, K::EquipSet, K::EquipGet});
  test_generator(Mix::Catalog, "catalog",
                 {K::Search, K::QueryAll, K::Create, K::Modify, K::Delete});
  if (g_failures != 0) return 1;
  std::fprintf(stderr, "selftest passed\n");
  return 0;
}
