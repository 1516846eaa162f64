// EXP-M0 — google-benchmark microbenchmarks of the substrate primitives:
// event queue throughput, coroutine channel round trips, the max-min fair
// solver, partition generation, the master's per-arrival dispatch, a full
// small FRIEDA run per iteration, and sweep-engine throughput (1 thread vs.
// a pool) on a fixed scenario grid.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "cluster/cluster.hpp"
#include "exp/grid.hpp"
#include "frieda/master_core.hpp"
#include "frieda/partition.hpp"
#include "frieda/run.hpp"
#include "net/fairshare.hpp"
#include "net/network.hpp"
#include "sim/channel.hpp"
#include "sim/simulation.hpp"
#include "workload/scenarios.hpp"
#include "workload/synthetic.hpp"

namespace {

using namespace frieda;

void BM_EventQueuePushPop(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue q;
    for (std::size_t i = 0; i < n; ++i) {
      q.push(static_cast<double>((i * 2654435761u) % 1000), [] {});
    }
    while (!q.empty()) q.pop();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1024)->Arg(16384);

void BM_SimulationDelays(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    auto ticker = [](sim::Simulation& s, int count) -> sim::Task<> {
      for (int i = 0; i < count; ++i) co_await s.delay(1.0);
    };
    sim.spawn(ticker(sim, n));
    sim.run();
    benchmark::DoNotOptimize(sim.events_processed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_SimulationDelays)->Arg(1000)->Arg(10000);

void BM_ChannelRoundTrip(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    sim::Channel<int> ch(sim);
    sim.spawn([](sim::Simulation& s, sim::Channel<int>& c, int count) -> sim::Task<> {
      for (int i = 0; i < count; ++i) {
        int v = i;
        co_await c.send(std::move(v));
        co_await s.delay(0.0);
      }
      c.close();
    }(sim, ch, n));
    sim.spawn([](sim::Channel<int>& c) -> sim::Task<> {
      while (co_await c.recv()) {
      }
    }(ch));
    sim.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_ChannelRoundTrip)->Arg(1000);

void BM_MaxMinFairSolve(benchmark::State& state) {
  const std::size_t flows = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  std::vector<Bandwidth> caps(32);
  for (auto& c : caps) c = rng.uniform(1.0, 100.0);
  std::vector<net::FlowConstraints> constraints(flows);
  for (auto& fc : constraints) {
    fc.resources = {rng.index(32), rng.index(32)};
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::max_min_fair_rates(caps, constraints));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(flows));
}
BENCHMARK(BM_MaxMinFairSolve)->Arg(16)->Arg(256);

void BM_NetworkManyFlows(benchmark::State& state) {
  // Many-flow fluid-model stress: a staging-like pattern where a handful of
  // data servers feed a large worker pool, with mixed destinations, payload
  // sizes and per-transfer stream counts.  With Arg(512) this puts ~1.3k
  // concurrent flows into the network at once, which is the regime the
  // flow-class coalescing / incremental-recompute fast path targets.
  const std::size_t transfers = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kServers = 8;
  constexpr std::size_t kWorkers = 32;
  std::size_t flows = 0;
  for (auto _ : state) {
    sim::Simulation sim(7);
    net::Topology topo;
    for (std::size_t i = 0; i < kServers; ++i) {
      topo.add_node("srv" + std::to_string(i), gbps(1), gbps(1));
    }
    for (std::size_t i = 0; i < kWorkers; ++i) {
      topo.add_node("wrk" + std::to_string(i), mbps(100), mbps(100));
    }
    net::Network netw(sim, std::move(topo), /*latency=*/1e-3);
    Rng rng(13);
    flows = 0;
    for (std::size_t i = 0; i < transfers; ++i) {
      const auto src = static_cast<net::NodeId>(rng.index(kServers));
      const auto dst = static_cast<net::NodeId>(kServers + rng.index(kWorkers));
      const unsigned streams = 1 + static_cast<unsigned>(rng.index(4));
      const Bytes bytes = (1 + rng.index(8)) * MB;
      flows += streams;
      sim.spawn([](net::Network& n, net::NodeId s, net::NodeId d, Bytes b,
                   unsigned st) -> sim::Task<> {
        (void)co_await n.transfer(s, d, b, st);
      }(netw, src, dst, bytes, streams));
    }
    sim.run();
    benchmark::DoNotOptimize(netw.total_bytes_moved());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(flows));
}
BENCHMARK(BM_NetworkManyFlows)
    ->Arg(128)
    ->Arg(512)
    ->Arg(4096)
    ->Arg(16384)
    ->Unit(benchmark::kMillisecond);

void BM_NetworkChurn(benchmark::State& state) {
  // Churn-heavy incremental-solver stress: a hierarchical rack topology where
  // long-lived cross-rack background flows (which chain every rack together
  // through the uplinks) coexist with rapid-fire intra-rack transfers.  Each
  // churn arrival/departure perturbs exactly one flow class while the
  // background classes are untouched, so a minority of flows change per
  // solve — the regime where dirty-set propagation beats re-solving the
  // whole network.
  const std::size_t churn = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kRacks = 48;
  constexpr std::size_t kPerRack = 4;
  const auto node = [](std::size_t rack, std::size_t i) {
    return static_cast<net::NodeId>(rack * kPerRack + i);
  };
  for (auto _ : state) {
    sim::Simulation sim(23);
    net::Topology topo;
    for (std::size_t r = 0; r < kRacks; ++r) {
      for (std::size_t i = 0; i < kPerRack; ++i) {
        const auto id = topo.add_node("r" + std::to_string(r) + "n" + std::to_string(i),
                                      gbps(1), gbps(1));
        topo.set_rack(id, static_cast<net::RackId>(r));
      }
      topo.set_rack_uplink(static_cast<net::RackId>(r), gbps(4));
    }
    net::Network netw(sim, std::move(topo), /*latency=*/1e-4);
    // Long-lived background: four streams per rack to the next rack over,
    // outlasting the entire churn phase.
    for (std::size_t r = 0; r < kRacks; ++r) {
      sim.spawn([](net::Network& n, net::NodeId s, net::NodeId d) -> sim::Task<> {
        (void)co_await n.transfer(s, d, 100 * GB, /*streams=*/4);
      }(netw, node(r, 0), node((r + 1) % kRacks, 1)));
    }
    // Churn lanes: per rack, a back-to-back sequence of small intra-rack
    // transfers — every completion immediately triggers the next arrival.
    const std::size_t per_lane = churn / kRacks;
    for (std::size_t r = 0; r < kRacks; ++r) {
      sim.spawn([](net::Network& n, net::NodeId s, net::NodeId d,
                   std::size_t count) -> sim::Task<> {
        for (std::size_t i = 0; i < count; ++i) {
          (void)co_await n.transfer(s, d, 4 * MB);
        }
      }(netw, node(r, 2), node(r, 3), per_lane));
    }
    sim.run();
    benchmark::DoNotOptimize(netw.total_bytes_moved());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(churn / kRacks * kRacks));
}
BENCHMARK(BM_NetworkChurn)->Arg(2304)->Arg(9216)->Unit(benchmark::kMillisecond);

void BM_PartitionGenerate(benchmark::State& state) {
  storage::FileCatalog cat;
  for (int i = 0; i < 2000; ++i) cat.add_file("f" + std::to_string(i), MB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::PartitionGenerator::generate(core::PartitionScheme::kPairwiseAdjacent, cat));
  }
}
BENCHMARK(BM_PartitionGenerate);

void BM_MasterArrivalDispatch(benchmark::State& state) {
  // One open-loop arrival per iteration at the master: enqueue the unit,
  // top every worker up, then report the unit done.  Every worker holds one
  // busy unit of two credits, so any worker could take the arrival; the
  // cost per arrival should not grow with Arg(workers).
  const auto workers = static_cast<core::WorkerId>(state.range(0));
  constexpr std::size_t kArrivals = std::size_t{1} << 16;
  std::vector<core::WorkUnit> units(workers + kArrivals);
  for (std::size_t i = 0; i < units.size(); ++i) units[i].id = static_cast<core::WorkUnitId>(i);
  core::WorkerId taker = 0;
  core::MasterHooks hooks;
  hooks.dispatch = [&taker](core::WorkerId w, core::WorkUnitId) { taker = w; };
  hooks.release = [](core::WorkerId) {};
  std::unique_ptr<core::MasterCore> master;
  core::WorkUnitId next = 0;
  const auto fresh = [&] {
    master = std::make_unique<core::MasterCore>(units, core::MasterPolicy{.credits = 2}, hooks);
    for (core::WorkerId w = 0; w < workers; ++w) {
      master->add_worker();
      master->assign_share(w, {w});  // the busy unit
    }
    master->top_up_all(0.0);
    next = workers;
  };
  fresh();
  double now = 0.0;
  for (auto _ : state) {
    if (next == units.size()) {
      state.PauseTiming();
      fresh();
      state.ResumeTiming();
    }
    const core::WorkUnitId u = next++;
    now += 1.0;
    master->enqueue(u);
    master->top_up_all(now);
    master->on_status(taker, u, true, now);
    benchmark::DoNotOptimize(taker);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MasterArrivalDispatch)->Arg(64)->Arg(1024)->Arg(8192);

void BM_FullFriedaRun(benchmark::State& state) {
  // A complete small real-time run per iteration: controller, master,
  // 8 workers, 128 units, network staging and execution.
  for (auto _ : state) {
    sim::Simulation sim(11);
    cluster::VirtualCluster cluster(sim);
    auto type = cluster::c1_xlarge();
    type.boot_time = 0.0;
    cluster.provision(type, 2);
    workload::SyntheticParams params;
    params.file_count = 128;
    params.mean_file_bytes = MB;
    params.mean_task_seconds = 1.0;
    workload::SyntheticModel app(params);
    auto units = core::PartitionGenerator::generate(core::PartitionScheme::kSingleFile,
                                                    app.catalog());
    core::RunOptions opt;
    opt.strategy = core::PlacementStrategy::kRealTime;
    core::FriedaRun run(cluster, app.catalog(), std::move(units), app,
                        core::CommandTemplate("app $inp1"), opt);
    const auto report = run.run();
    benchmark::DoNotOptimize(report.units_completed);
  }
}
BENCHMARK(BM_FullFriedaRun)->Unit(benchmark::kMillisecond);

void BM_SweepThroughput(benchmark::State& state) {
  // The tentpole measurement: a fixed 32-job BLAST grid (8 seeds x 4
  // strategies at 10% scale, one shared immutable model) executed per
  // iteration on Arg(n) pool threads.  Arg(1) is the sequential baseline;
  // the per-iteration wall time ratio is the sweep speedup.
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  workload::PaperScenarioOptions base;
  base.scale = 0.1;
  const auto model =
      std::make_shared<const workload::BlastModel>(workload::make_blast_model(base));
  for (auto _ : state) {
    exp::Grid grid;
    for (std::uint64_t s = 0; s < 8; ++s) {
      auto opt = base;
      opt.seed = exp::derive_seed(2012, s);
      grid.add_blast(core::PlacementStrategy::kNoPartitionCommon, opt, model);
      grid.add_blast(core::PlacementStrategy::kPrePartitionRemote, opt, model);
      grid.add_blast(core::PlacementStrategy::kPrePartitionLocal, opt, model);
      grid.add_blast(core::PlacementStrategy::kRealTime, opt, model);
    }
    exp::SweepOptions sopt{threads};
    sopt.memoize = false;  // measuring execution, not memoization
    exp::SweepRunner<> runner(sopt);
    const auto outcomes = runner.run(grid.take());
    for (const auto& o : outcomes) benchmark::DoNotOptimize(o.get().units_completed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 32);
}
BENCHMARK(BM_SweepThroughput)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
