// Open-loop service mode tests.
//
// Covers the arrival-process generators (shape, determinism, validation),
// the FriedaRun open-loop path (sojourn percentiles, sustained throughput,
// constraint checking), the queue-depth-reactive elasticity policy, and the
// determinism guarantees the committed ablation_service.csv relies on: the
// same seed + config must produce bit-identical latency percentiles across
// repeated runs and across sweep thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "exp/grid.hpp"
#include "exp/sweep.hpp"
#include "workload/arrivals.hpp"
#include "workload/scenarios.hpp"

namespace frieda::workload {
namespace {

using core::PlacementStrategy;

// ---------------------------------------------------------------------------
// Arrival processes.
// ---------------------------------------------------------------------------

void expect_valid_offsets(const std::vector<SimTime>& t, std::size_t count) {
  ASSERT_EQ(t.size(), count);
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_GE(t[i], 0.0) << "offset " << i;
    EXPECT_TRUE(std::isfinite(t[i])) << "offset " << i;
    if (i > 0) {
      EXPECT_GE(t[i], t[i - 1]) << "offset " << i << " not ascending";
    }
  }
}

TEST(Arrivals, PoissonShapeAndMeanRate) {
  ArrivalConfig cfg;
  cfg.kind = ArrivalKind::kPoisson;
  cfg.rate = 2.0;
  const auto t = generate_arrivals(cfg, 20000);
  expect_valid_offsets(t, 20000);
  // Law of large numbers: the empirical rate over 20k arrivals lands within
  // a few percent of nominal.
  const double empirical = static_cast<double>(t.size()) / t.back();
  EXPECT_NEAR(empirical, cfg.rate, 0.1);
}

TEST(Arrivals, BurstyShapeAndMeanRate) {
  ArrivalConfig cfg;
  cfg.kind = ArrivalKind::kBursty;
  cfg.rate = 2.0;
  cfg.burst_factor = 4.0;
  cfg.burst_fraction = 0.2;
  const auto t = generate_arrivals(cfg, 20000);
  expect_valid_offsets(t, 20000);
  // The MMPP is rate-balanced: ON/OFF dwells are chosen so the long-run mean
  // equals the nominal rate.  Dwell correlation slows convergence, so the
  // tolerance is looser than the Poisson one.
  const double empirical = static_cast<double>(t.size()) / t.back();
  EXPECT_NEAR(empirical, cfg.rate, 0.4);
}

TEST(Arrivals, BurstyIsBurstierThanPoisson) {
  ArrivalConfig poisson;
  poisson.kind = ArrivalKind::kPoisson;
  poisson.rate = 2.0;
  ArrivalConfig bursty = poisson;
  bursty.kind = ArrivalKind::kBursty;
  bursty.burst_factor = 8.0;
  bursty.burst_fraction = 0.1;
  auto cv2 = [](const std::vector<SimTime>& t) {
    std::vector<double> gaps;
    for (std::size_t i = 1; i < t.size(); ++i) gaps.push_back(t[i] - t[i - 1]);
    double mean = 0.0;
    for (double g : gaps) mean += g;
    mean /= static_cast<double>(gaps.size());
    double var = 0.0;
    for (double g : gaps) var += (g - mean) * (g - mean);
    var /= static_cast<double>(gaps.size());
    return var / (mean * mean);
  };
  // Exponential gaps have squared-CV 1; the MMPP mixture is overdispersed.
  EXPECT_GT(cv2(generate_arrivals(bursty, 20000)),
            cv2(generate_arrivals(poisson, 20000)));
}

TEST(Arrivals, DiurnalShape) {
  ArrivalConfig cfg;
  cfg.kind = ArrivalKind::kDiurnal;
  cfg.rate = 2.0;
  cfg.period_s = 600.0;
  const auto t = generate_arrivals(cfg, 5000);
  expect_valid_offsets(t, 5000);
}

TEST(Arrivals, DeterministicPerSeed) {
  for (auto kind : {ArrivalKind::kPoisson, ArrivalKind::kBursty, ArrivalKind::kDiurnal}) {
    ArrivalConfig cfg;
    cfg.kind = kind;
    cfg.rate = 3.0;
    cfg.seed = 7;
    const auto a = generate_arrivals(cfg, 500);
    const auto b = generate_arrivals(cfg, 500);
    EXPECT_EQ(a, b) << to_string(kind);  // bit-identical, not approximate
    cfg.seed = 8;
    EXPECT_NE(generate_arrivals(cfg, 500), a) << to_string(kind);
  }
}

TEST(Arrivals, KindNamesRoundTrip) {
  for (auto kind : {ArrivalKind::kPoisson, ArrivalKind::kBursty, ArrivalKind::kDiurnal}) {
    EXPECT_EQ(parse_arrival_kind(to_string(kind)), kind);
  }
  EXPECT_EQ(parse_arrival_kind("weibull"), std::nullopt);
}

TEST(Arrivals, RejectsInvalidConfig) {
  ArrivalConfig cfg;
  cfg.rate = 0.0;
  EXPECT_THROW(generate_arrivals(cfg, 10), FriedaError);
  cfg.rate = -1.0;
  EXPECT_THROW(generate_arrivals(cfg, 10), FriedaError);
  cfg = {};
  cfg.kind = ArrivalKind::kBursty;
  cfg.burst_factor = 0.5;  // must be >= 1
  EXPECT_THROW(generate_arrivals(cfg, 10), FriedaError);
  cfg = {};
  cfg.kind = ArrivalKind::kBursty;
  cfg.burst_fraction = 1.0;  // must be in (0, 1)
  EXPECT_THROW(generate_arrivals(cfg, 10), FriedaError);
  cfg = {};
  cfg.kind = ArrivalKind::kDiurnal;
  cfg.period_s = 0.0;
  EXPECT_THROW(generate_arrivals(cfg, 10), FriedaError);
}

// ---------------------------------------------------------------------------
// Open-loop runs.
// ---------------------------------------------------------------------------

PaperScenarioOptions service_opt(double rate, bool reactive = false) {
  PaperScenarioOptions opt;
  opt.scale = 0.004;  // 30 BLAST queries
  opt.service.open_loop = true;
  opt.service.arrivals.kind = ArrivalKind::kPoisson;
  opt.service.arrivals.rate = rate;
  opt.service.arrivals.seed = 42;
  if (reactive) {
    opt.service.elastic.enabled = true;
    opt.service.elastic.scale_out_depth = 8;
    opt.service.elastic.scale_in_depth = 2;
    opt.service.elastic.check_interval = 2.0;
    opt.service.elastic.hysteresis = 1;
    opt.service.elastic.max_extra_vms = 4;
  }
  return opt;
}

TEST(Service, OpenLoopRunReportsLatencyPercentiles) {
  const auto r = run_blast(PlacementStrategy::kRealTime, service_opt(1.0));
  ASSERT_TRUE(r.all_completed());
  EXPECT_TRUE(r.open_loop);
  EXPECT_EQ(r.latency.count(), r.units_completed);
  // Sojourn >= service time, and the percentile curve is monotone.
  EXPECT_GT(r.latency_p(50.0), 0.0);
  EXPECT_LE(r.latency_p(50.0), r.latency_p(95.0));
  EXPECT_LE(r.latency_p(95.0), r.latency_p(99.0));
  EXPECT_GT(r.sustained_throughput(), 0.0);
  // The run cannot finish before the last unit has even arrived.
  EXPECT_GE(r.end_time, r.serve_start);
  // Per-unit records carry arrivals and finish after them.
  for (const auto& u : r.units) {
    EXPECT_GE(u.finished, u.arrival);
  }
}

TEST(Service, ClosedBatchReportsNoLatency) {
  PaperScenarioOptions opt;
  opt.scale = 0.004;
  const auto r = run_blast(PlacementStrategy::kRealTime, opt);
  ASSERT_TRUE(r.all_completed());
  EXPECT_FALSE(r.open_loop);
  EXPECT_EQ(r.latency.count(), 0u);
  EXPECT_EQ(r.sustained_throughput(), 0.0);
  EXPECT_EQ(r.scale_outs, 0u);
  EXPECT_EQ(r.scale_ins, 0u);
}

TEST(Service, StreamingStrategiesSupportOpenLoop) {
  for (auto strategy : {PlacementStrategy::kRemoteRead, PlacementStrategy::kSharedVolume}) {
    const auto r = run_blast(strategy, service_opt(1.0));
    EXPECT_TRUE(r.all_completed());
    EXPECT_GT(r.latency.count(), 0u);
  }
}

TEST(Service, StagedStrategiesRejectOpenLoop) {
  // Ahead-of-time staging needs the full batch up front; arrivals make no
  // sense there and the run constructor says so instead of mis-measuring.
  for (auto strategy : {PlacementStrategy::kPrePartitionLocal,
                        PlacementStrategy::kPrePartitionRemote,
                        PlacementStrategy::kNoPartitionCommon}) {
    EXPECT_THROW(run_blast(strategy, service_opt(1.0)), FriedaError);
  }
}

TEST(Service, ReactivePolicyScalesOutUnderOverload) {
  // ~1.96 units/s capacity on the fixed fleet; rate 10 swamps it.  A bigger
  // batch than the smoke tests use: the dispatch queue only backs up past
  // the per-worker prefetch buffers once arrivals outrun the whole pipeline.
  auto fopt = service_opt(10.0, false);
  auto ropt = service_opt(10.0, true);
  fopt.scale = ropt.scale = 0.01;  // 75 queries
  const auto fixed = run_blast(PlacementStrategy::kRealTime, fopt);
  const auto reactive = run_blast(PlacementStrategy::kRealTime, ropt);
  ASSERT_TRUE(fixed.all_completed());
  ASSERT_TRUE(reactive.all_completed());
  EXPECT_EQ(fixed.scale_outs, 0u);
  EXPECT_GT(reactive.scale_outs, 0u);
  EXPECT_LE(reactive.scale_ins, reactive.scale_outs);
  // Extra capacity can only help the backlogged tail.
  EXPECT_LE(reactive.latency_p(99.0), fixed.latency_p(99.0));
  EXPECT_LE(reactive.makespan(), fixed.makespan());
}

TEST(Service, ReactivePolicyIdleBelowCapacity) {
  const auto r = run_blast(PlacementStrategy::kRealTime, service_opt(0.5, true));
  ASSERT_TRUE(r.all_completed());
  EXPECT_EQ(r.scale_outs, 0u);
  EXPECT_EQ(r.scale_ins, 0u);
}

// ---------------------------------------------------------------------------
// Determinism: the property the committed ablation CSV depends on.
// ---------------------------------------------------------------------------

TEST(Service, RepeatedRunsAreBitIdentical) {
  const auto a = run_blast(PlacementStrategy::kRealTime, service_opt(3.0, true));
  const auto b = run_blast(PlacementStrategy::kRealTime, service_opt(3.0, true));
  for (double p : {50.0, 90.0, 95.0, 99.0}) {
    EXPECT_EQ(a.latency_p(p), b.latency_p(p)) << "p" << p;
  }
  EXPECT_EQ(a.sustained_throughput(), b.sustained_throughput());
  EXPECT_EQ(a.makespan(), b.makespan());
  EXPECT_EQ(a.scale_outs, b.scale_outs);
  EXPECT_EQ(a.scale_ins, b.scale_ins);
  EXPECT_EQ(a.units_csv(), b.units_csv());
}

TEST(Service, SweepThreadCountInvariance) {
  auto jobs = [] {
    exp::Grid grid;
    for (double rate : {1.0, 3.0, 10.0}) {
      grid.add_blast(PlacementStrategy::kRealTime, service_opt(rate, true));
      grid.add_blast(PlacementStrategy::kRemoteRead, service_opt(rate, false));
    }
    return grid.take();
  };
  exp::SweepRunner<> one(exp::SweepOptions{1});
  exp::SweepRunner<> many(exp::SweepOptions{4});
  const auto seq = one.run(jobs());
  const auto par = many.run(jobs());
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    ASSERT_TRUE(seq[i].ok()) << seq[i].error;
    ASSERT_TRUE(par[i].ok()) << par[i].error;
    const auto& a = seq[i].get();
    const auto& b = par[i].get();
    EXPECT_EQ(a.latency_p(50.0), b.latency_p(50.0)) << i;
    EXPECT_EQ(a.latency_p(95.0), b.latency_p(95.0)) << i;
    EXPECT_EQ(a.latency_p(99.0), b.latency_p(99.0)) << i;
    EXPECT_EQ(a.sustained_throughput(), b.sustained_throughput()) << i;
    EXPECT_EQ(a.scale_outs, b.scale_outs) << i;
    EXPECT_EQ(a.units_csv(), b.units_csv()) << i;
  }
}

TEST(Service, OpenLoopChangesTheFingerprint) {
  // The memo cache must never serve a closed-batch report for a service run
  // (or vice versa), and distinct service configs must not collide.
  auto fp = [](const PaperScenarioOptions& opt) {
    StableHasher h;
    hash_options(h, opt);
    return h.digest();
  };
  PaperScenarioOptions closed;
  closed.scale = 0.004;
  const auto open = service_opt(1.0);
  const auto reactive = service_opt(1.0, true);
  auto faster = service_opt(2.0);
  EXPECT_NE(fp(closed), fp(open));
  EXPECT_NE(fp(open), fp(reactive));
  EXPECT_NE(fp(open), fp(faster));
}

}  // namespace
}  // namespace frieda::workload
