// Robustness (Section V.A "Robust") and elasticity (Section V.A "Elastic")
// integration tests: worker isolation, the requeue extension, and elastic
// add/remove of workers through the controller.
#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "frieda/partition.hpp"
#include "frieda/run.hpp"
#include "workload/synthetic.hpp"

namespace frieda::core {
namespace {

using cluster::VirtualCluster;
using workload::SyntheticModel;
using workload::SyntheticParams;

struct Scenario {
  std::unique_ptr<sim::Simulation> sim;
  std::unique_ptr<VirtualCluster> cluster;
  std::unique_ptr<SyntheticModel> app;
  std::vector<WorkUnit> units;
  std::vector<cluster::VmId> vms;
};

Scenario make_scenario(SyntheticParams params, std::size_t vm_count, unsigned cores,
                       std::uint64_t seed = 7) {
  Scenario s;
  s.sim = std::make_unique<sim::Simulation>(seed);
  s.cluster = std::make_unique<VirtualCluster>(*s.sim);
  auto type = cluster::c1_xlarge();
  type.cores = cores;
  type.boot_time = 0.0;
  s.vms = s.cluster->provision(type, vm_count);
  s.app = std::make_unique<SyntheticModel>(params);
  s.units = PartitionGenerator::generate(PartitionScheme::kSingleFile, s.app->catalog());
  return s;
}

SyntheticParams small_load() {
  SyntheticParams params;
  params.file_count = 40;
  params.mean_file_bytes = MB;
  params.mean_task_seconds = 2.0;
  return params;
}

TEST(Failure, IsolationWithoutRequeueLosesOnlyAffectedUnits) {
  auto s = make_scenario(small_load(), 2, 2);
  RunOptions opt;
  opt.strategy = PlacementStrategy::kRealTime;
  opt.requeue_on_failure = false;
  FriedaRun run(*s.cluster, s.app->catalog(), s.units, *s.app, CommandTemplate("app $inp1"),
                opt);
  cluster::FailureInjector injector(*s.cluster);
  injector.schedule(s.vms[1], 10.0);
  const auto report = run.run();

  EXPECT_EQ(injector.injected(), 1u);
  EXPECT_EQ(report.workers_isolated, 2u);  // both workers on the failed VM
  EXPECT_GT(report.units_completed, 0u);
  EXPECT_LT(report.units_completed, report.units_total);
  // Everything is accounted: completed + failed + unprocessed == total.
  EXPECT_EQ(report.units_completed + report.units_failed + report.units_unprocessed,
            report.units_total);
  // The paper's base system does NOT restart failed tasks (Section V.A).
  for (const auto& rec : report.units) {
    if (rec.status == UnitStatus::kFailed) {
      EXPECT_EQ(rec.attempts, 1);
    }
  }
  // The surviving VM's workers kept processing after the failure.
  for (const auto& w : report.workers) {
    if (w.vm == s.vms[0]) {
      EXPECT_GT(w.units_completed, 5u);
    }
  }
}

TEST(Failure, RequeueExtensionCompletesEverything) {
  auto s = make_scenario(small_load(), 2, 2);
  RunOptions opt;
  opt.strategy = PlacementStrategy::kRealTime;
  opt.requeue_on_failure = true;  // the paper's future-work fault recovery
  FriedaRun run(*s.cluster, s.app->catalog(), s.units, *s.app, CommandTemplate("app $inp1"),
                opt);
  cluster::FailureInjector injector(*s.cluster);
  injector.schedule(s.vms[1], 10.0);
  const auto report = run.run();

  EXPECT_EQ(injector.injected(), 1u);
  EXPECT_TRUE(report.all_completed()) << report.summary();
  // Some units needed more than one attempt.
  bool retried = false;
  for (const auto& rec : report.units) retried |= rec.attempts > 1;
  EXPECT_TRUE(retried);
}

TEST(Failure, LastLiveWorkerFailingMidFlightKeepsAccountingClosed) {
  // The hard corner of the requeue path: requeue_on_failure is on, but the
  // failing worker was the LAST live one, so units in flight cannot requeue
  // (no live worker) and must go terminal instead of lingering kInFlight.
  auto s = make_scenario(small_load(), 1, 2);
  RunOptions opt;
  opt.strategy = PlacementStrategy::kRealTime;
  opt.requeue_on_failure = true;
  cluster::FailureInjector injector(*s.cluster);
  injector.schedule(s.vms[0], 10.0);  // the only VM dies mid-run
  FriedaRun run(*s.cluster, s.app->catalog(), s.units, *s.app, CommandTemplate("app $inp1"),
                opt);
  const auto report = run.run();

  EXPECT_EQ(injector.injected(), 1u);
  EXPECT_GT(report.units_completed, 0u);
  EXPECT_LT(report.units_completed, report.units_total);
  // Terminal accounting stays closed: every unit is exactly one of
  // completed / failed / unprocessed...
  EXPECT_EQ(report.units_completed + report.units_failed + report.units_unprocessed,
            report.units_total);
  // ...and none is stranded in a non-terminal state.
  for (const auto& rec : report.units) {
    EXPECT_NE(rec.status, UnitStatus::kInFlight) << "unit " << rec.unit;
    EXPECT_NE(rec.status, UnitStatus::kPending) << "unit " << rec.unit;
  }
}

TEST(Failure, ExhaustedAttemptsGoTerminalWithRequeueEnabled) {
  // requeue_on_failure with max_attempts == 1: a unit lost to a failure has
  // already spent its only attempt and must go kFailed (not requeue forever,
  // not linger in flight), while the surviving VM finishes the rest.
  auto s = make_scenario(small_load(), 2, 2);
  RunOptions opt;
  opt.strategy = PlacementStrategy::kRealTime;
  opt.requeue_on_failure = true;
  opt.max_attempts = 1;
  cluster::FailureInjector injector(*s.cluster);
  injector.schedule(s.vms[1], 10.0);
  FriedaRun run(*s.cluster, s.app->catalog(), s.units, *s.app, CommandTemplate("app $inp1"),
                opt);
  const auto report = run.run();

  EXPECT_EQ(injector.injected(), 1u);
  EXPECT_GT(report.units_failed, 0u);  // the in-flight casualties
  EXPECT_EQ(report.units_completed + report.units_failed + report.units_unprocessed,
            report.units_total);
  for (const auto& rec : report.units) {
    EXPECT_NE(rec.status, UnitStatus::kInFlight) << "unit " << rec.unit;
    if (rec.status == UnitStatus::kFailed) {
      EXPECT_EQ(rec.attempts, 1);
    }
  }
}

TEST(Failure, PrePartitionLosesTheFailedWorkersShare) {
  auto s = make_scenario(small_load(), 2, 2);
  RunOptions opt;
  opt.strategy = PlacementStrategy::kPrePartitionRemote;
  opt.requeue_on_failure = false;
  FriedaRun run(*s.cluster, s.app->catalog(), s.units, *s.app, CommandTemplate("app $inp1"),
                opt);
  cluster::FailureInjector injector(*s.cluster);
  injector.schedule(s.vms[0], 15.0);
  const auto report = run.run();
  EXPECT_GT(report.units_unprocessed, 0u);  // the share that never ran
  EXPECT_EQ(report.units_completed + report.units_failed + report.units_unprocessed,
            report.units_total);
}

TEST(Failure, PrePartitionWithRequeueRedistributes) {
  auto s = make_scenario(small_load(), 2, 2);
  RunOptions opt;
  opt.strategy = PlacementStrategy::kPrePartitionRemote;
  opt.requeue_on_failure = true;
  FriedaRun run(*s.cluster, s.app->catalog(), s.units, *s.app, CommandTemplate("app $inp1"),
                opt);
  cluster::FailureInjector injector(*s.cluster);
  injector.schedule(s.vms[0], 15.0);
  const auto report = run.run();
  EXPECT_TRUE(report.all_completed()) << report.summary();
  // Units from the dead VM's share were re-staged to the survivor.
  EXPECT_GT(report.bytes_moved, s.app->catalog().total_bytes());
}

TEST(Failure, AllVmsFailMarksRemainingUnprocessed) {
  auto s = make_scenario(small_load(), 2, 1);
  RunOptions opt;
  opt.strategy = PlacementStrategy::kRealTime;
  FriedaRun run(*s.cluster, s.app->catalog(), s.units, *s.app, CommandTemplate("app $inp1"),
                opt);
  cluster::FailureInjector injector(*s.cluster);
  injector.schedule(s.vms[0], 5.0);
  injector.schedule(s.vms[1], 7.0);
  const auto report = run.run();
  EXPECT_EQ(report.units_completed + report.units_failed + report.units_unprocessed,
            report.units_total);
  EXPECT_GT(report.units_unprocessed, 0u);
  EXPECT_LT(report.units_completed, report.units_total);
}

TEST(Failure, FailureDuringStagingIsSurvivable) {
  auto params = small_load();
  params.mean_file_bytes = 20 * MB;  // staging takes ~64 s per node share
  auto s = make_scenario(params, 2, 2);
  RunOptions opt;
  opt.strategy = PlacementStrategy::kPrePartitionRemote;
  opt.requeue_on_failure = true;
  FriedaRun run(*s.cluster, s.app->catalog(), s.units, *s.app, CommandTemplate("app $inp1"),
                opt);
  cluster::FailureInjector injector(*s.cluster);
  injector.schedule(s.vms[1], 5.0);  // mid-staging
  const auto report = run.run();
  EXPECT_TRUE(report.all_completed()) << report.summary();
}

TEST(Elasticity, AddVmMidRunSpeedsCompletion) {
  auto params = small_load();
  params.mean_task_seconds = 5.0;
  auto run_with = [&](bool elastic) {
    auto s = make_scenario(params, 1, 2);
    RunOptions opt;
    opt.strategy = PlacementStrategy::kRealTime;
    FriedaRun run(*s.cluster, s.app->catalog(), s.units, *s.app, CommandTemplate("app $inp1"),
                  opt);
    if (elastic) {
      cluster::ActionPlan plan(*s.sim);
      plan.at(20.0, [&run] {
        auto type = cluster::c1_xlarge();
        type.cores = 2;
        type.boot_time = 5.0;
        run.add_vm(type);
      });
    }
    return run.run();
  };
  const auto base = run_with(false);
  const auto elastic = run_with(true);
  EXPECT_TRUE(base.all_completed());
  EXPECT_TRUE(elastic.all_completed());
  EXPECT_LT(elastic.makespan(), base.makespan());
  EXPECT_EQ(elastic.workers.size(), 4u);  // 2 original + 2 elastic
  // Elastic workers actually processed units.
  std::size_t elastic_units = 0;
  for (const auto& w : elastic.workers) {
    if (w.worker >= 2) elastic_units += w.units_completed;
  }
  EXPECT_GT(elastic_units, 0u);
}

TEST(Elasticity, RemoveVmDrainsAndTerminates) {
  auto params = small_load();
  params.mean_task_seconds = 3.0;
  auto s = make_scenario(params, 2, 2);
  RunOptions opt;
  opt.strategy = PlacementStrategy::kRealTime;
  FriedaRun run(*s.cluster, s.app->catalog(), s.units, *s.app, CommandTemplate("app $inp1"),
                opt);
  cluster::ActionPlan plan(*s.sim);
  const auto victim = s.vms[1];
  plan.at(10.0, [&run, victim] { run.remove_vm(victim); });
  const auto report = run.run();
  EXPECT_TRUE(report.all_completed()) << report.summary();
  EXPECT_EQ(s.cluster->vm(victim).state(), cluster::VmState::kTerminated);
  // Remaining units were finished by the surviving VM's workers.
  std::size_t survivor_units = 0;
  for (const auto& w : report.workers) {
    if (w.vm == s.vms[0]) survivor_units += w.units_completed;
    if (w.vm == victim) {
      EXPECT_TRUE(w.drained);
    }
  }
  EXPECT_GT(survivor_units, 20u);
}

TEST(Elasticity, ElasticWorkerGetsNothingInPrePartitionMode) {
  // The ablation behind design decision D2: pre-partitioning cannot absorb
  // elastic capacity because shares were fixed at staging time.
  auto params = small_load();
  params.mean_task_seconds = 5.0;
  auto s = make_scenario(params, 1, 2);
  RunOptions opt;
  opt.strategy = PlacementStrategy::kPrePartitionRemote;
  FriedaRun run(*s.cluster, s.app->catalog(), s.units, *s.app, CommandTemplate("app $inp1"),
                opt);
  cluster::ActionPlan plan(*s.sim);
  plan.at(20.0, [&run] {
    auto type = cluster::c1_xlarge();
    type.cores = 2;
    type.boot_time = 5.0;
    run.add_vm(type);
  });
  const auto report = run.run();
  EXPECT_TRUE(report.all_completed());
  for (const auto& w : report.workers) {
    if (w.worker >= 2) {
      EXPECT_EQ(w.units_completed, 0u);
    }
  }
}

}  // namespace
}  // namespace frieda::core
