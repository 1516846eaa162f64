#include "cluster/cluster.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"

namespace frieda::cluster {
namespace {

TEST(InstanceType, PaperFlavor) {
  const auto t = c1_xlarge();
  EXPECT_EQ(t.cores, 4u);
  EXPECT_EQ(t.memory, 4 * GiB);
  EXPECT_DOUBLE_EQ(t.nic_up, mbps(100));
  EXPECT_EQ(c1_medium().cores, 1u);
  EXPECT_EQ(m1_large().cores, 2u);
}

TEST(VmState, Names) {
  EXPECT_STREQ(to_string(VmState::kProvisioning), "provisioning");
  EXPECT_STREQ(to_string(VmState::kRunning), "running");
  EXPECT_STREQ(to_string(VmState::kFailed), "failed");
  EXPECT_STREQ(to_string(VmState::kTerminated), "terminated");
}

TEST(VirtualCluster, ProvisioningBootsAfterDelay) {
  sim::Simulation sim;
  VirtualCluster cluster(sim);
  auto type = c1_xlarge();
  type.boot_time = 30.0;
  const VmId id = cluster.provision(type);
  EXPECT_EQ(cluster.vm(id).state(), VmState::kProvisioning);
  int became_running = 0;
  cluster.on_running([&](VmId) { ++became_running; });
  bool waited = false;
  sim.spawn([](VirtualCluster& c, VmId v, bool& w, sim::Simulation& s) -> sim::Task<> {
    co_await c.wait_running(v);
    EXPECT_DOUBLE_EQ(s.now(), 30.0);
    w = true;
  }(cluster, id, waited, sim));
  sim.run();
  EXPECT_TRUE(waited);
  EXPECT_EQ(became_running, 1);
  EXPECT_TRUE(cluster.vm(id).running());
}

TEST(VirtualCluster, SourceNodeExists) {
  sim::Simulation sim;
  VirtualCluster cluster(sim);
  EXPECT_EQ(cluster.network().topology().node_count(), 1u);
  EXPECT_EQ(cluster.network().topology().name(cluster.source_node()), "source");
}

TEST(VirtualCluster, ProvisionManyAndCountCores) {
  sim::Simulation sim;
  VirtualCluster cluster(sim);
  const auto ids = cluster.provision(c1_xlarge(), 4);
  EXPECT_EQ(ids.size(), 4u);
  EXPECT_EQ(cluster.total_running_cores(), 0u);  // still booting
  sim.spawn([](VirtualCluster& c, std::vector<VmId> v) -> sim::Task<> {
    co_await c.wait_all_running(v);
  }(cluster, ids));
  sim.run();
  EXPECT_EQ(cluster.total_running_cores(), 16u);
  EXPECT_EQ(cluster.running_vms().size(), 4u);
  EXPECT_EQ(cluster.all_vms().size(), 4u);
}

TEST(Vm, ComputeOccupiesCoreForServiceTime) {
  sim::Simulation sim;
  VirtualCluster cluster(sim);
  auto type = c1_medium();
  type.boot_time = 0.0;
  const VmId id = cluster.provision(type);
  ComputeResult result;
  sim.spawn([](VirtualCluster& c, VmId v, ComputeResult& out) -> sim::Task<> {
    co_await c.wait_running(v);
    out = co_await c.vm(v).compute(5.0);
  }(cluster, id, result));
  sim.run();
  EXPECT_TRUE(result.completed);
  EXPECT_NEAR(result.duration, 5.0, 1e-9);
  EXPECT_NEAR(cluster.vm(id).core_seconds_used(), 5.0, 1e-9);
}

TEST(Vm, MulticoreRunsInParallelQueuesWhenFull) {
  sim::Simulation sim;
  VirtualCluster cluster(sim);
  auto type = m1_large();  // 2 cores
  type.boot_time = 0.0;
  const VmId id = cluster.provision(type);
  std::vector<double> finish_times;
  for (int i = 0; i < 4; ++i) {
    sim.spawn([](VirtualCluster& c, VmId v, std::vector<double>& out,
                 sim::Simulation& s) -> sim::Task<> {
      co_await c.wait_running(v);
      (void)co_await c.vm(v).compute(10.0);
      out.push_back(s.now());
    }(cluster, id, finish_times, sim));
  }
  sim.run();
  ASSERT_EQ(finish_times.size(), 4u);
  // 4 tasks, 2 cores, 10 s each: two waves.
  EXPECT_NEAR(finish_times[0], 10.0, 1e-9);
  EXPECT_NEAR(finish_times[1], 10.0, 1e-9);
  EXPECT_NEAR(finish_times[2], 20.0, 1e-9);
  EXPECT_NEAR(finish_times[3], 20.0, 1e-9);
}

TEST(Vm, FailureInterruptsCompute) {
  sim::Simulation sim;
  VirtualCluster cluster(sim);
  auto type = c1_medium();
  type.boot_time = 0.0;
  const VmId id = cluster.provision(type);
  ComputeResult result;
  sim.spawn([](VirtualCluster& c, VmId v, ComputeResult& out) -> sim::Task<> {
    co_await c.wait_running(v);
    out = co_await c.vm(v).compute(100.0);
  }(cluster, id, result));
  sim.schedule_at(30.0, [&] { cluster.fail_vm(id); });
  sim.run();
  EXPECT_FALSE(result.completed);
  EXPECT_NEAR(result.duration, 30.0, 1e-9);
  EXPECT_EQ(cluster.vm(id).state(), VmState::kFailed);
  EXPECT_DOUBLE_EQ(cluster.vm(id).core_seconds_used(), 0.0);
}

TEST(Vm, FailureResumesRunningSlicesInStartOrder) {
  sim::Simulation sim;
  VirtualCluster cluster(sim);
  auto type = c1_xlarge();  // 4 cores
  type.boot_time = 0.0;
  const VmId id = cluster.provision(type);
  struct Woken {
    int slice;
    ComputeResult result;
  };
  std::vector<Woken> woke;
  // Spawned in order 0..3 but started at 3, 1, 2, 0 s: start order 3, 1, 2, 0.
  const std::vector<double> start_at{3.0, 1.0, 2.0, 0.0};
  for (int i = 0; i < 4; ++i) {
    sim.spawn([](sim::Simulation& s, VirtualCluster& c, VmId v, std::vector<Woken>& out,
                 int me, double at) -> sim::Task<> {
      co_await c.wait_running(v);
      co_await s.delay(at);
      const auto r = co_await c.vm(v).compute(100.0);
      out.push_back({me, r});
    }(sim, cluster, id, woke, i, start_at[static_cast<std::size_t>(i)]));
  }
  sim.schedule_at(10.0, [&] { cluster.fail_vm(id); });
  sim.run();
  ASSERT_EQ(woke.size(), 4u);
  const std::vector<int> start_order{3, 1, 2, 0};
  for (std::size_t k = 0; k < woke.size(); ++k) {
    EXPECT_EQ(woke[k].slice, start_order[k]);
    EXPECT_FALSE(woke[k].result.completed);
    EXPECT_NEAR(woke[k].result.duration, 10.0 - start_at[static_cast<std::size_t>(woke[k].slice)],
                1e-9);
  }
  EXPECT_EQ(cluster.vm(id).busy_cores(), 0u);
  EXPECT_DOUBLE_EQ(cluster.vm(id).core_seconds_used(), 0.0);

  // A failed VM accepts no new compute.
  ComputeResult late{true, 99.0};
  sim.spawn([](VirtualCluster& c, VmId v, ComputeResult& out) -> sim::Task<> {
    out = co_await c.vm(v).compute(1.0);
  }(cluster, id, late));
  sim.run();
  EXPECT_FALSE(late.completed);
  EXPECT_DOUBLE_EQ(late.duration, 0.0);
  EXPECT_EQ(cluster.vm(id).busy_cores(), 0u);
}

TEST(Vm, ComputeOnFailedVmReturnsImmediately) {
  sim::Simulation sim;
  VirtualCluster cluster(sim);
  auto type = c1_medium();
  type.boot_time = 0.0;
  const VmId id = cluster.provision(type);
  sim.run();  // boot
  cluster.fail_vm(id);
  ComputeResult result{true, 99.0};
  sim.spawn([](VirtualCluster& c, VmId v, ComputeResult& out) -> sim::Task<> {
    out = co_await c.vm(v).compute(10.0);
  }(cluster, id, result));
  sim.run();
  EXPECT_FALSE(result.completed);
  EXPECT_DOUBLE_EQ(result.duration, 0.0);
}

TEST(VirtualCluster, FailureNotifiesObserversAndNetwork) {
  sim::Simulation sim;
  VirtualCluster cluster(sim);
  auto type = c1_xlarge();
  type.boot_time = 0.0;
  const VmId id = cluster.provision(type);
  sim.run();
  std::vector<VmId> failures;
  cluster.on_failure([&](VmId v) { failures.push_back(v); });
  cluster.fail_vm(id);
  EXPECT_EQ(failures, (std::vector<VmId>{id}));
  EXPECT_TRUE(cluster.network().node_failed(cluster.vm(id).node()));
  cluster.fail_vm(id);  // idempotent: no double notification
  EXPECT_EQ(failures.size(), 1u);
}

TEST(VirtualCluster, TerminateRequiresDrainedVm) {
  sim::Simulation sim;
  VirtualCluster cluster(sim);
  auto type = c1_medium();
  type.boot_time = 0.0;
  const VmId id = cluster.provision(type);
  sim.run();
  cluster.terminate_vm(id);
  EXPECT_EQ(cluster.vm(id).state(), VmState::kTerminated);
  EXPECT_TRUE(cluster.running_vms().empty());
}

TEST(FailureInjector, ScheduledFailureFires) {
  sim::Simulation sim;
  VirtualCluster cluster(sim);
  auto type = c1_medium();
  type.boot_time = 0.0;
  const VmId id = cluster.provision(type);
  FailureInjector injector(cluster);
  injector.schedule(id, 10.0);
  sim.run();
  EXPECT_EQ(injector.injected(), 1u);
  EXPECT_EQ(cluster.vm(id).state(), VmState::kFailed);
}

TEST(FailureInjector, ScheduledFailureSkipsNonRunningVm) {
  sim::Simulation sim;
  VirtualCluster cluster(sim);
  auto type = c1_medium();
  type.boot_time = 100.0;  // still provisioning at t=10
  const VmId id = cluster.provision(type);
  FailureInjector injector(cluster);
  injector.schedule(id, 10.0);
  sim.run();
  EXPECT_EQ(injector.injected(), 0u);
  EXPECT_TRUE(cluster.vm(id).running());
}

TEST(FailureInjector, RandomFailuresAreDeterministicPerSeed) {
  auto run_once = [](std::uint64_t seed) {
    sim::Simulation sim(seed);
    VirtualCluster cluster(sim);
    auto type = c1_medium();
    type.boot_time = 0.0;
    cluster.provision(type, 8);
    FailureInjector injector(cluster);
    injector.enable_random(/*rate=*/0.01, /*max_failures=*/3);
    sim.run();
    std::vector<VmState> states;
    for (VmId id : cluster.all_vms()) states.push_back(cluster.vm(id).state());
    return std::make_pair(injector.injected(), states);
  };
  const auto a = run_once(7);
  const auto b = run_once(7);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.first, 3u);
}

TEST(ActionPlan, FiresAtScheduledTimes) {
  sim::Simulation sim;
  ActionPlan plan(sim);
  std::vector<double> fired;
  plan.at(5.0, [&] { fired.push_back(sim.now()); });
  plan.at(2.0, [&] { fired.push_back(sim.now()); });
  EXPECT_EQ(plan.count(), 2u);
  sim.run();
  EXPECT_EQ(fired, (std::vector<double>{2.0, 5.0}));
}

}  // namespace
}  // namespace frieda::cluster
