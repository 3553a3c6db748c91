// MetricsObserver: per-module firing counts and the firing-gap histogram,
// published into RunReport from the on_report hook.
#include <gtest/gtest.h>

#include <numeric>

#include "estelle/metrics.hpp"
#include "estelle/module.hpp"

namespace mcam::estelle {
namespace {

using common::SimTime;

/// `fast` and `slow` tick in one system module; `sharded` moves `slow` into
/// a second system module and adds an idle third, so the sharded backends
/// see three shards, two of them active.
struct TickWorld {
  Specification spec{"ticks"};
  Module* fast = nullptr;
  Module* slow = nullptr;

  explicit TickWorld(bool sharded = false) {
    auto& sys =
        spec.root().create_child<Module>("sys", Attribute::SystemProcess);
    Module& slow_parent =
        sharded ? spec.root().create_child<Module>("sys2",
                                                   Attribute::SystemProcess)
                : sys;
    if (sharded)
      spec.root().create_child<Module>("sys3", Attribute::SystemProcess);
    fast = &sys.create_child<Module>("fast", Attribute::Process);
    slow = &slow_parent.create_child<Module>("slow", Attribute::Process);
    const auto counting = [](int limit) {
      return [limit](Module& m, const Interaction*) {
        return m.state() < limit;
      };
    };
    fast->trans("tick")
        .cost(SimTime::from_us(10))
        .provided(counting(8))
        .action([](Module& m, const Interaction*) {
          m.set_state(m.state() + 1);
        });
    slow->trans("tock")
        .cost(SimTime::from_us(10))
        .provided(counting(3))
        .action([](Module& m, const Interaction*) {
          m.set_state(m.state() + 1);
        });
    spec.initialize();
  }
};

TEST(MetricsObserverTest, CountsPerModuleAndPublishesIntoReport) {
  TickWorld world;
  MetricsObserver metrics;
  auto executor = make_executor(world.spec);
  const RunReport report = executor->run({.observers = {&metrics}});

  EXPECT_EQ(metrics.total_fired(), report.fired);
  EXPECT_EQ(metrics.fired_by("spec:ticks.sys.fast"), 8u);
  EXPECT_EQ(metrics.fired_by("spec:ticks.sys.slow"), 3u);
  EXPECT_EQ(metrics.fired_by("spec:ticks.sys.never"), 0u);

  // on_report published the snapshot into the RunReport itself.
  ASSERT_EQ(report.module_metrics.size(), 2u);
  EXPECT_EQ(report.module_metrics[0].module_path, "spec:ticks.sys.fast");
  EXPECT_EQ(report.module_metrics[0].fired, 8u);
  EXPECT_GT(report.module_metrics[0].mean_gap.ns, 0);
  EXPECT_EQ(report.module_metrics[1].fired, 3u);

  // Histogram: one gap per consecutive same-module pair.
  const std::uint64_t gaps =
      std::accumulate(report.firing_gap_histogram.begin(),
                      report.firing_gap_histogram.end(), std::uint64_t{0});
  EXPECT_EQ(gaps, (8u - 1) + (3u - 1));
  EXPECT_NE(metrics.to_string().find("fast"), std::string::npos);
}

TEST(MetricsObserverTest, PersistentAttachmentAggregatesAcrossRuns) {
  TickWorld world;
  MetricsObserver metrics;
  auto executor = make_executor(world.spec);
  executor->add_run_observer(&metrics);

  executor->run();
  EXPECT_EQ(metrics.total_fired(), 11u);

  // Re-arm and pump again: the same observer keeps aggregating, and every
  // report of this executor carries the cumulative metrics.
  world.fast->set_state(0);
  const RunReport second = executor->run();
  EXPECT_EQ(metrics.total_fired(), 19u);
  ASSERT_FALSE(second.module_metrics.empty());
  EXPECT_EQ(second.module_metrics[0].fired, 16u);

  metrics.clear();
  EXPECT_EQ(metrics.total_fired(), 0u);
}

TEST(MetricsObserverTest, RealThreadBackendsHonorWorkerCountOptions) {
  // The real-thread backends size a persistent pool from
  // ExecutorConfig::threads (0 ⇒ hardware_concurrency()) with
  // RunOptions::worker_count overriding per run — and the metrics must be
  // identical whatever the width, because announcements stay on the run
  // thread.
  for (ExecutorKind kind : {ExecutorKind::Sharded, ExecutorKind::FreeRunning}) {
    SCOPED_TRACE(executor_kind_name(kind));
    TickWorld world(/*sharded=*/true);
    auto executor = make_executor(world.spec, {.kind = kind});
    EXPECT_EQ(executor->unit_count(), resolve_worker_count(0));

    MetricsObserver metrics;
    executor->run({.observers = {&metrics}, .worker_count = 3});
    EXPECT_EQ(executor->unit_count(), 3);  // pool resized for this run
    EXPECT_EQ(metrics.total_fired(), 11u);
    EXPECT_EQ(metrics.fired_by("spec:ticks.sys.fast"), 8u);
    EXPECT_EQ(metrics.fired_by("spec:ticks.sys2.slow"), 3u);

    // Explicit config width; a run without an override restores it.
    TickWorld world2(/*sharded=*/true);
    auto executor2 =
        make_executor(world2.spec, {.kind = kind, .threads = 2});
    EXPECT_EQ(executor2->unit_count(), 2);
    MetricsObserver metrics2;
    executor2->run({.observers = {&metrics2}});
    EXPECT_EQ(executor2->unit_count(), 2);
    EXPECT_EQ(metrics2.total_fired(), 11u);
  }
}

TEST(MetricsObserverTest, ReportsEmptyWithoutObserver) {
  TickWorld world;
  const RunReport report = make_executor(world.spec)->run();
  EXPECT_TRUE(report.module_metrics.empty());
  EXPECT_TRUE(report.firing_gap_histogram.empty());
}

}  // namespace
}  // namespace mcam::estelle
