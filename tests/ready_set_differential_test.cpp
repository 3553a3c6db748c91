// Dirty-set vs full-scan differential testing (ready_set.hpp).
//
// The event-driven schedulers owe one thing above all: the ready-set
// candidate collection must equal the legacy full-tree scan, every round, on
// every specification that keeps the guard-input contract (ReadinessProbe):
// a guard reads its own module's variables and queues, and code changing a
// guard input from elsewhere marks the module — the ill-formed shared-budget
// flavor does so from its action. Three layers of checking:
//
//   * ExecutorConfig::verify_ready_set — the scheduler itself recomputes the
//     reference full scan after every dirty-set collection and throws on the
//     first divergence; the sweep here runs the shared random-spec generator
//     through Sequential, Sharded and FreeRunning with the flag on, so the
//     shard backends' per-shard dirty sets are checked every round (and
//     random_spec_differential_test pins their traces to Sequential's).
//   * mode differential — Sequential full runs under {full_scan, dirty-set}
//     must agree on the world snapshot and fired count always, and on the
//     exact trace whenever the spec has no delay clauses (the two modes
//     charge different virtual scan costs, so delay maturation may legally
//     reorder rounds). full_scan is the Sequential baseline only; the other
//     backends ignore it.
//   * hot-path assertions — on a sparse world (N idle, K active) the
//     dirty-set scheduler must examine an order of magnitude fewer guards
//     per firing than the full scan, and steady-state rounds must not grow
//     any scheduler buffer (rounds_with_allocation == 0 on a warmed
//     executor).
//
// Also pinned here: topology changes (new module) and dynamically registered
// transitions invalidate the ready state — a reused executor must not skip
// them — and MetricsObserver carries the hot-path counters.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "estelle/executor.hpp"
#include "estelle/metrics.hpp"
#include "estelle/module.hpp"
#include "estelle/trace.hpp"
#include "random_spec_gen.hpp"

namespace mcam::estelle {
namespace {

using common::SimTime;

int spec_count() {
  if (const char* env = std::getenv("MCAM_SOAK_SPECS"))
    return std::max(1, std::atoi(env));
  return 50;
}

struct Outcome {
  std::vector<std::string> trace;
  std::string world;
  StopReason reason{};
  std::uint64_t fired = 0;
  RunReport report;
};

Outcome run_mode(std::uint64_t seed, ExecutorKind kind, bool full_scan,
                 bool verify) {
  specgen::GeneratedWorld g = specgen::generate(seed);
  ExecutorConfig cfg;
  cfg.kind = kind;
  cfg.processors = 4;
  cfg.threads = 4;
  cfg.full_scan = full_scan;
  cfg.verify_ready_set = verify;
  auto executor = make_executor(*g.spec, cfg);

  TraceRecorder trace;
  Outcome out;
  out.report = executor->run({.observers = {&trace}});
  out.reason = out.report.reason;
  out.fired = out.report.fired;
  out.trace.reserve(trace.events().size());
  for (const TraceEvent& e : trace.events())
    out.trace.push_back(e.module_path + "/" + e.transition);
  out.world = specgen::world_snapshot(*g.spec);
  return out;
}

TEST(ReadySetDifferential, VerifiedAgainstFullScanEveryRound) {
  // verify_ready_set makes every round self-checking: any candidate-set
  // divergence between the dirty-set collector and the reference full scan
  // throws std::logic_error out of run(). Sweeping the generator (ill-formed
  // flavors, sparse flavor, delays, multi-shard) with the flag on is the
  // strongest exactness statement this suite can make.
  const int n = spec_count();
  for (std::uint64_t seed = 1; seed <= static_cast<std::uint64_t>(n); ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    for (ExecutorKind kind :
         {ExecutorKind::Sequential, ExecutorKind::Sharded,
          ExecutorKind::FreeRunning}) {
      SCOPED_TRACE(executor_kind_name(kind));
      const Outcome out = run_mode(seed, kind, /*full_scan=*/false,
                                   /*verify=*/true);
      EXPECT_EQ(out.reason, StopReason::Quiescent);
      EXPECT_GT(out.fired, 0u);
    }
  }
}

TEST(ReadySetDifferential, ReadyAndFullScanModesAgree) {
  const int n = spec_count();
  for (std::uint64_t seed = 1; seed <= static_cast<std::uint64_t>(n); ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const specgen::GeneratedWorld probe = specgen::generate(seed);
    const Outcome full =
        run_mode(seed, ExecutorKind::Sequential, /*full_scan=*/true, false);
    const Outcome ready =
        run_mode(seed, ExecutorKind::Sequential, /*full_scan=*/false, false);
    EXPECT_EQ(ready.world, full.world) << "world diverged across modes";
    EXPECT_EQ(ready.fired, full.fired);
    EXPECT_EQ(ready.reason, full.reason);
    if (!probe.has_delay) {
      // Without delay clauses both modes produce identical rounds, so the
      // trace must match exactly; with delays the differing virtual scan
      // costs legally reschedule maturation (compare as multisets via the
      // world+fired equality above).
      EXPECT_EQ(ready.trace, full.trace) << "trace diverged across modes";
    }
  }
}

// ---------------------------------------------------------------------------
// Sparse-activity hot path

/// An open protocol entity with nothing to do, carrying the stack's two
/// guarded idle transitions: an open transport's `t-retransmit` (a guarded
/// delay re-armed by to(kOpen)) and a server MCA's `m-position` (a guarded
/// spontaneous transition). Both guards read only the module's own
/// variables, which stay zero while it idles.
class GuardedIdle : public Module {
 public:
  static constexpr int kOpen = 1;

  explicit GuardedIdle(std::string name)
      : Module(std::move(name), Attribute::Process) {
    set_state(kOpen);
    trans("t-retransmit")
        .from(kOpen)
        .to(kOpen)
        .delay(SimTime::from_ms(200))
        .provided([this](Module&, const Interaction*) { return unacked > 0; })
        .action([this](Module&, const Interaction*) { --unacked; });
    trans("m-position")
        .from(kOpen)
        .priority(20)
        .provided([this](Module&, const Interaction*) { return reports > 0; })
        .action([this](Module&, const Interaction*) { --reports; });
  }

  int unacked = 0;
  int reports = 0;
};

/// N idle entities (consumers of never-written channels, optionally
/// GuardedIdle) plus K ping-pong pairs exchanging one token forever — the
/// bench_hot_path shape, small.
struct SparseWorld {
  Specification spec{"sparse"};
  Module* sys = nullptr;
  std::vector<Module*> pongs;

  explicit SparseWorld(int idle, int pairs, bool guarded = false) {
    sys = &spec.root().create_child<Module>("sys", Attribute::SystemProcess);
    auto& mute = sys->create_child<Module>("mute", Attribute::Process);
    for (int i = 0; i < idle; ++i) {
      const std::string name = "idle" + std::to_string(i);
      Module& m = guarded ? sys->create_child<GuardedIdle>(name)
                          : sys->create_child<Module>(name, Attribute::Process);
      connect(mute.ip("o" + std::to_string(i)), m.ip("in"));
      m.trans("never").when(m.ip("in")).action(
          [](Module&, const Interaction*) {});
    }
    for (int p = 0; p < pairs; ++p) {
      auto& a = sys->create_child<Module>("ping" + std::to_string(p),
                                          Attribute::Process);
      auto& b = sys->create_child<Module>("pong" + std::to_string(p),
                                          Attribute::Process);
      connect(a.ip("out"), b.ip("in"));
      connect(b.ip("out"), a.ip("in"));
      for (Module* m : {&a, &b}) {
        m->trans("hit").when(m->ip("in")).action(
            [m](Module&, const Interaction*) {
              m->ip("out").output(Interaction(1));
            });
      }
      pongs.push_back(&b);
    }
    spec.initialize();
    // Arm each pair: the token enters ping's inbox through the pong link.
    for (Module* b : pongs) b->ip("out").output(Interaction(1));
  }
};

TEST(ReadySetDifferential, SparseWorldExaminesOnlyActiveGuards) {
  constexpr int kIdle = 512;
  constexpr int kPairs = 4;
  constexpr std::uint64_t kRounds = 200;

  const auto guards_per_firing = [](bool full_scan) {
    SparseWorld world(kIdle, kPairs);
    auto executor = make_executor(world.spec, {.full_scan = full_scan});
    const RunReport r =
        executor->run({.stop = {StopCondition::max_steps(kRounds)}});
    EXPECT_EQ(r.reason, StopReason::StepLimit);
    EXPECT_GT(r.fired, 0u);
    return static_cast<double>(r.guards_examined) /
           static_cast<double>(r.fired);
  };

  const double full = guards_per_firing(true);
  const double ready = guards_per_firing(false);
  // K active modules among N idle: the full scan pays for every idle guard
  // every round; the dirty set examines only what moved. The 10x bar is the
  // PR's acceptance line; at 512/4 the real ratio is far larger.
  EXPECT_GE(full / ready, 10.0)
      << "full=" << full << " guards/firing, ready=" << ready;

  // Steady state allocates nothing: a warmed executor's next run must not
  // grow any scheduler buffer.
  SparseWorld world(kIdle, kPairs);
  auto executor = make_executor(world.spec, {});
  const RunReport warm =
      executor->run({.stop = {StopCondition::max_steps(kRounds)}});
  EXPECT_GT(warm.fired, 0u);
  const RunReport steady =
      executor->run({.stop = {StopCondition::max_steps(kRounds)}});
  EXPECT_GT(steady.fired, 0u);
  EXPECT_EQ(steady.rounds_with_allocation, 0u)
      << "steady-state rounds must not allocate";
}

TEST(ReadySetDifferential, IdleGuardedModulesCostNothingPerRound) {
  // The MCAM control shape: most associations open but idle, each holding a
  // retransmission timer and a position-report guard. A guard is evaluated
  // again only when one of its inputs changed, so the steady-state scan work
  // per firing must not grow with the number of idle modules.
  constexpr int kPairs = 4;  // K = 8 active modules
  constexpr std::uint64_t kRounds = 200;

  const auto guards_per_firing = [](int idle) {
    SparseWorld world(idle, kPairs, /*guarded=*/true);
    auto executor = make_executor(world.spec, {.verify_ready_set = true});
    // The first run evaluates every module once; measure the next one.
    const RunReport warm =
        executor->run({.stop = {StopCondition::max_steps(kRounds)}});
    EXPECT_EQ(warm.reason, StopReason::StepLimit);
    const RunReport r =
        executor->run({.stop = {StopCondition::max_steps(kRounds)}});
    EXPECT_EQ(r.reason, StopReason::StepLimit);
    EXPECT_GT(r.fired, 0u);
    return static_cast<double>(r.guards_examined) /
           static_cast<double>(r.fired);
  };

  const double small = guards_per_firing(64);
  const double large = guards_per_firing(1024);
  EXPECT_LE(large, 2.0 * small)
      << "N=64: " << small << " guards/firing, N=1024: " << large;
}

TEST(ReadySetDifferential, TopologyMutationInvalidatesReadyState) {
  for (ExecutorKind kind :
       {ExecutorKind::Sequential, ExecutorKind::Sharded,
        ExecutorKind::FreeRunning}) {
    SCOPED_TRACE(executor_kind_name(kind));
    Specification spec("mutate");
    auto& sys =
        spec.root().create_child<Module>("sys", Attribute::SystemProcess);
    auto& base = sys.create_child<Module>("base", Attribute::Process);
    int base_fired = 0;
    base.trans("once")
        .from(0)
        .to(1)
        .action([&base_fired](Module&, const Interaction*) { ++base_fired; });
    spec.initialize();

    ExecutorConfig cfg;
    cfg.kind = kind;
    cfg.threads = 2;
    auto executor = make_executor(spec, cfg);
    EXPECT_EQ(executor->run().fired, 1u);
    EXPECT_EQ(base_fired, 1);

    // (a) A module created after a completed run (topology change): the
    // reused executor must reseed and fire its transition.
    int late_fired = 0;
    auto& late = sys.create_child<Module>("late", Attribute::Process);
    late.trans("hello")
        .from(0)
        .to(1)
        .action([&late_fired](Module&, const Interaction*) { ++late_fired; });
    EXPECT_EQ(executor->run().fired, 1u);
    EXPECT_EQ(late_fired, 1);

    // (b) A transition registered on an existing, long-idle module (no
    // topology change — the dirty hook in add_transition must cover it).
    int extra_fired = 0;
    base.trans("extra")
        .from(1)
        .to(2)
        .action([&extra_fired](Module&, const Interaction*) { ++extra_fired; });
    EXPECT_EQ(executor->run().fired, 1u);
    EXPECT_EQ(extra_fired, 1);
  }
}

TEST(ReadySetDifferential, MetricsObserverCarriesHotPathCounters) {
  SparseWorld world(16, 2);
  auto executor = make_executor(world.spec, {});
  MetricsObserver metrics;
  const RunReport r = executor->run(
      {.stop = {StopCondition::max_steps(50)}, .observers = {&metrics}});
  EXPECT_GT(r.guards_examined, 0u);
  EXPECT_GT(r.candidates_considered, 0u);
  EXPECT_EQ(metrics.guards_examined(), r.guards_examined);
  EXPECT_EQ(metrics.candidates_considered(), r.candidates_considered);
  EXPECT_EQ(metrics.rounds_with_allocation(), r.rounds_with_allocation);
  EXPECT_GT(metrics.guards_per_firing(), 0.0);
  EXPECT_NE(metrics.to_string().find("hot path:"), std::string::npos);
}

}  // namespace
}  // namespace mcam::estelle
