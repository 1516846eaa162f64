// Sweep engine tests: thread-count invariance of real scenario runs, seed
// derivation, deterministic result ordering under skewed job timings,
// exception isolation, memoization (fingerprint stability, in-batch twins,
// opt-out), cost-aware longest-first scheduling, FRIEDA_SWEEP_THREADS
// validation, ScenarioSweep lifecycle, runner accounting, concurrent
// create-or-get on a shared MetricsRegistry (the test the tsan preset
// exists for), live progress reporting, and shared-cursor dispatch.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "exp/cost.hpp"
#include "exp/grid.hpp"
#include "exp/sweep.hpp"
#include "obs/metrics.hpp"
#include "obs/report_sink.hpp"
#include "workload/scenarios.hpp"

namespace frieda::exp {
namespace {

using core::PlacementStrategy;
using workload::PaperScenarioOptions;

// ---------------------------------------------------------------------------
// Field-by-field RunReport comparison (simulated runs are deterministic, so
// every field — including derived doubles — must match exactly).
// ---------------------------------------------------------------------------

void expect_reports_equal(const core::RunReport& a, const core::RunReport& b) {
  EXPECT_EQ(a.app, b.app);
  EXPECT_EQ(a.strategy, b.strategy);
  EXPECT_EQ(a.scheme, b.scheme);
  EXPECT_EQ(a.ready_time, b.ready_time);
  EXPECT_EQ(a.start_time, b.start_time);
  EXPECT_EQ(a.staging_end, b.staging_end);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.units_total, b.units_total);
  EXPECT_EQ(a.units_completed, b.units_completed);
  EXPECT_EQ(a.units_failed, b.units_failed);
  EXPECT_EQ(a.units_unprocessed, b.units_unprocessed);
  EXPECT_EQ(a.bytes_moved, b.bytes_moved);
  EXPECT_EQ(a.transfers, b.transfers);
  EXPECT_EQ(a.workers_isolated, b.workers_isolated);
  EXPECT_EQ(a.transfer_busy(), b.transfer_busy());
  EXPECT_EQ(a.compute_busy(), b.compute_busy());
  EXPECT_EQ(a.overlap(), b.overlap());
  // Per-unit and per-worker records, via their canonical CSV renderings.
  EXPECT_EQ(a.units_csv(), b.units_csv());
  EXPECT_EQ(a.workers_csv(), b.workers_csv());
}

std::vector<Job<core::RunReport>> scenario_jobs() {
  Grid grid;
  PaperScenarioOptions opt;
  opt.scale = 0.1;
  grid.add_als(PlacementStrategy::kPrePartitionRemote, opt);
  grid.add_als(PlacementStrategy::kRealTime, opt);
  grid.add_blast(PlacementStrategy::kNoPartitionCommon, opt);
  grid.add_blast(PlacementStrategy::kRealTime, opt);
  return grid.take();
}

TEST(Sweep, ThreadCountInvariance) {
  SweepRunner<> one(SweepOptions{1});
  SweepRunner<> eight(SweepOptions{8});
  const auto seq = one.run(scenario_jobs());
  const auto par = eight.run(scenario_jobs());
  EXPECT_EQ(one.threads_used(), 1u);
  EXPECT_EQ(eight.threads_used(), 4u);  // capped at the job count
  EXPECT_EQ(one.runs_executed(), 4u);
  EXPECT_EQ(eight.runs_executed(), 4u);
  EXPECT_EQ(eight.cache_hits(), 0u);
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    ASSERT_TRUE(seq[i].ok()) << seq[i].error;
    ASSERT_TRUE(par[i].ok()) << par[i].error;
    EXPECT_EQ(seq[i].tag, par[i].tag);
    expect_reports_equal(seq[i].get(), par[i].get());
  }
}

TEST(Sweep, SharedModelMatchesPerJobModel) {
  PaperScenarioOptions opt;
  opt.scale = 0.1;
  const auto shared =
      std::make_shared<const workload::ImageCompareModel>(workload::make_als_model(opt));
  Grid grid;
  grid.add_als(PlacementStrategy::kRealTime, opt);
  grid.add_als(PlacementStrategy::kRealTime, opt, shared);
  // Both cells carry the same fingerprint (the model is a pure function of
  // opt.scale); disable memoization so both actually execute — the point is
  // that the shared-model code path computes the same report.
  SweepOptions sopt;
  sopt.memoize = false;
  SweepRunner<> runner(sopt);
  const auto out = runner.run(grid.take());
  EXPECT_EQ(runner.runs_executed(), 2u);
  expect_reports_equal(out[0].get(), out[1].get());
}

// ---------------------------------------------------------------------------
// Seed derivation.
// ---------------------------------------------------------------------------

TEST(Sweep, DerivedSeedsDoNotCollide) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t base : {0ull, 1ull, 2012ull, 0xdeadbeefull}) {
    for (std::uint64_t i = 0; i < 256; ++i) {
      EXPECT_TRUE(seen.insert(derive_seed(base, i)).second)
          << "collision at base=" << base << " index=" << i;
    }
  }
}

TEST(Sweep, DerivedSeedsAreAppendStable) {
  // A job's seed depends only on (base, index) — adding jobs after it (or
  // asking again) never changes it.
  EXPECT_EQ(derive_seed(2012, 3), derive_seed(2012, 3));
  EXPECT_NE(derive_seed(2012, 3), derive_seed(2012, 4));
  EXPECT_NE(derive_seed(2012, 0), derive_seed(2013, 0));
  EXPECT_NE(derive_seed(2012, 0), 2012u);  // whitened, not passed through
}

// ---------------------------------------------------------------------------
// Configuration fingerprints.
// ---------------------------------------------------------------------------

TEST(Sweep, FingerprintIsStable) {
  PaperScenarioOptions opt;
  opt.scale = 0.2;
  const auto a = scenario_fingerprint("als", "real-time", opt);
  const auto b = scenario_fingerprint("als", "real-time", opt);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*a, *b);  // same options => same hash, every time
}

TEST(Sweep, FingerprintSeesEveryField) {
  const PaperScenarioOptions base;
  const auto fp0 = scenario_fingerprint("blast", "real-time", base);
  ASSERT_TRUE(fp0.has_value());

  std::vector<std::pair<const char*, PaperScenarioOptions>> variants;
  auto vary = [&](const char* field, auto mutate) {
    PaperScenarioOptions v = base;
    mutate(v);
    variants.emplace_back(field, std::move(v));
  };
  vary("worker_vms", [](auto& v) { v.worker_vms = 5; });
  vary("cores_per_vm", [](auto& v) { v.cores_per_vm = 2; });
  vary("nic", [](auto& v) { v.nic = mbps(10); });
  vary("multicore", [](auto& v) { v.multicore = false; });
  vary("scale", [](auto& v) { v.scale = 0.5; });
  vary("seed", [](auto& v) { v.seed = 2013; });
  vary("prefetch", [](auto& v) { v.prefetch = 2; });
  vary("requeue_on_failure", [](auto& v) { v.requeue_on_failure = true; });

  std::set<Fingerprint> seen{*fp0};
  for (const auto& [field, opt] : variants) {
    const auto fp = scenario_fingerprint("blast", "real-time", opt);
    ASSERT_TRUE(fp.has_value()) << field;
    EXPECT_TRUE(seen.insert(*fp).second)
        << "changing field '" << field << "' did not change the fingerprint";
  }
  // App kind and mode are part of the key too.
  EXPECT_NE(*fp0, *scenario_fingerprint("als", "real-time", base));
  EXPECT_NE(*fp0, *scenario_fingerprint("blast", "sequential", base));
}

TEST(Sweep, HookedOptionsAreNotFingerprintable) {
  PaperScenarioOptions opt;
  EXPECT_TRUE(workload::fingerprintable(opt));
  PaperScenarioOptions arranged = opt;
  arranged.arrange = [](sim::Simulation&, cluster::VirtualCluster&, core::FriedaRun&) {};
  EXPECT_FALSE(workload::fingerprintable(arranged));
  EXPECT_FALSE(scenario_fingerprint("als", "real-time", arranged).has_value());
  obs::MetricsRegistry registry;
  PaperScenarioOptions metered = opt;
  metered.metrics = &registry;
  EXPECT_FALSE(workload::fingerprintable(metered));
  EXPECT_FALSE(scenario_fingerprint("als", "real-time", metered).has_value());
}

// ---------------------------------------------------------------------------
// Memoization: in-batch twins, opt-outs.
// ---------------------------------------------------------------------------

TEST(Sweep, CacheHitServesIdenticalReport) {
  // Duplicate cells are served from their executing twin, and the copy is
  // field-identical to running the cell on its own.
  PaperScenarioOptions opt;
  opt.scale = 0.1;
  opt.seed = 4242;
  Grid grid;
  const auto blast = grid.add_blast(PlacementStrategy::kRealTime, opt);
  const auto als = grid.add_als(PlacementStrategy::kPrePartitionRemote, opt);
  const auto blast_twin = grid.add_blast(PlacementStrategy::kRealTime, opt);
  const auto als_twin = grid.add_als(PlacementStrategy::kPrePartitionRemote, opt);
  SweepRunner<> runner;
  const auto out = runner.run(grid.take());
  EXPECT_EQ(runner.runs_requested(), 4u);
  EXPECT_EQ(runner.runs_executed(), 2u);
  EXPECT_EQ(runner.cache_hits(), 2u);
  for (const auto& [prime, twin] : {std::pair{blast, blast_twin}, std::pair{als, als_twin}}) {
    ASSERT_TRUE(out[prime].ok()) << out[prime].error;
    ASSERT_TRUE(out[twin].ok()) << out[twin].error;
    EXPECT_FALSE(out[prime].from_cache);
    EXPECT_TRUE(out[twin].from_cache);
    expect_reports_equal(out[prime].get(), out[twin].get());
  }
  expect_reports_equal(out[blast_twin].get(),
                       workload::run_blast(PlacementStrategy::kRealTime, opt));
  expect_reports_equal(out[als_twin].get(),
                       workload::run_als(PlacementStrategy::kPrePartitionRemote, opt));
}

TEST(Sweep, InBatchDuplicatesExecuteOnce) {
  PaperScenarioOptions opt;
  opt.scale = 0.1;
  opt.seed = 4243;
  Grid grid;
  const auto a = grid.add_blast(PlacementStrategy::kRealTime, opt);
  const auto b = grid.add_als(PlacementStrategy::kRealTime, opt);
  const auto c = grid.add_blast(PlacementStrategy::kRealTime, opt);  // duplicate of a
  SweepRunner<> runner(SweepOptions{2});
  const auto out = runner.run(grid.take());
  EXPECT_EQ(runner.runs_requested(), 3u);
  EXPECT_EQ(runner.runs_executed(), 2u);
  EXPECT_EQ(runner.cache_hits(), 1u);
  ASSERT_TRUE(out[a].ok());
  ASSERT_TRUE(out[b].ok());
  ASSERT_TRUE(out[c].ok());
  EXPECT_FALSE(out[a].from_cache);
  EXPECT_TRUE(out[c].from_cache);
  expect_reports_equal(out[a].get(), out[c].get());
}

TEST(Sweep, AdHocJobsAreNeverCached) {
  // Identical ad-hoc jobs carry no fingerprint, so each one executes.
  std::atomic<int> executed{0};
  Grid grid;
  for (int i = 0; i < 2; ++i) {
    grid.add("adhoc", [&executed] {
      ++executed;
      core::RunReport r;
      r.app = "adhoc";
      return r;
    });
  }
  SweepRunner<> runner;
  const auto out = runner.run(grid.take());
  EXPECT_EQ(runner.runs_executed(), 2u);
  EXPECT_EQ(runner.cache_hits(), 0u);
  EXPECT_EQ(executed.load(), 2);
  EXPECT_FALSE(out[0].from_cache);
  EXPECT_FALSE(out[1].from_cache);
}

TEST(Sweep, MemoizeOptOutExecutesEverything) {
  PaperScenarioOptions opt;
  opt.scale = 0.1;
  opt.seed = 4244;
  SweepOptions sopt;
  sopt.memoize = false;
  SweepRunner<> runner(sopt);
  Grid grid;
  grid.add_blast(PlacementStrategy::kRealTime, opt);
  grid.add_blast(PlacementStrategy::kRealTime, opt);  // duplicate, still runs
  const auto out = runner.run(grid.take());
  EXPECT_EQ(runner.runs_executed(), 2u);
  EXPECT_EQ(runner.cache_hits(), 0u);
  EXPECT_FALSE(out[1].from_cache);
  expect_reports_equal(out[0].get(), out[1].get());
}

// ---------------------------------------------------------------------------
// Cost-aware scheduling.
// ---------------------------------------------------------------------------

TEST(Sweep, LongestFirstIsStableOnTies) {
  EXPECT_EQ(detail::longest_first({1.0, 3.0, 2.0, 3.0}),
            (std::vector<std::size_t>{1, 3, 2, 0}));
  EXPECT_EQ(detail::longest_first({5.0, 5.0, 5.0}), (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_TRUE(detail::longest_first({}).empty());
}

TEST(Sweep, ScheduleIsLongestFirstWithJobOrderSlots) {
  // Ad-hoc jobs with explicit cost overrides, submitted cheapest-first; the
  // schedule must reverse them while outcome slots stay in job order.
  Grid grid;
  for (int i = 0; i < 6; ++i) {
    grid.add("cost" + std::to_string(i),
             [i] {
               core::RunReport r;
               r.units_total = static_cast<std::size_t>(i);
               return r;
             },
             /*cost=*/static_cast<double>(i));
  }
  SweepRunner<> runner(SweepOptions{3});
  const auto out = runner.run(grid.take());
  EXPECT_EQ(runner.schedule(), (std::vector<std::size_t>{5, 4, 3, 2, 1, 0}));
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_TRUE(out[i].ok());
    EXPECT_EQ(out[i].tag, "cost" + std::to_string(i));
    EXPECT_EQ(out[i].get().units_total, i);
  }
}

TEST(Sweep, ScenarioCostsOrderSensibly) {
  PaperScenarioOptions opt;
  opt.scale = 0.2;
  // A sequential baseline (1 slot) is the long pole of any Table-I grid.
  EXPECT_GT(scenario_cost("blast", true, opt), scenario_cost("blast", false, opt));
  // More data, more cost; more slots, less cost.
  PaperScenarioOptions big = opt;
  big.scale = 0.4;
  EXPECT_GT(scenario_cost("blast", false, big), scenario_cost("blast", false, opt));
  PaperScenarioOptions narrow = opt;
  narrow.multicore = false;
  EXPECT_GT(scenario_cost("blast", false, narrow), scenario_cost("blast", false, opt));
  // Grid stamps scenario jobs with these costs: sequential sorts first.
  Grid grid;
  grid.add_blast(PlacementStrategy::kRealTime, opt);
  grid.add_blast_sequential(opt);
  auto jobs = grid.take();
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_GT(jobs[1].cost, jobs[0].cost);
  SweepRunner<> runner(SweepOptions{1});
  const auto out = runner.run(std::move(jobs));
  EXPECT_EQ(runner.schedule(), (std::vector<std::size_t>{1, 0}));
  EXPECT_TRUE(out[0].ok() && out[1].ok());
}

// ---------------------------------------------------------------------------
// Ordering and isolation.
// ---------------------------------------------------------------------------

TEST(Sweep, ResultsKeepJobOrderUnderSkewedTimings) {
  // Early jobs sleep longest, so completion order is roughly the reverse of
  // submission order; result slots must still line up with job indices.
  constexpr std::size_t kJobs = 16;
  std::vector<Job<std::size_t>> jobs;
  for (std::size_t i = 0; i < kJobs; ++i) {
    jobs.push_back({"job" + std::to_string(i), [i] {
                      std::this_thread::sleep_for(
                          std::chrono::milliseconds((kJobs - i) * 3));
                      return i;
                    }});
  }
  SweepRunner<std::size_t> runner(SweepOptions{8});
  const auto out = runner.run(std::move(jobs));
  ASSERT_EQ(out.size(), kJobs);
  for (std::size_t i = 0; i < kJobs; ++i) {
    EXPECT_EQ(out[i].tag, "job" + std::to_string(i));
    ASSERT_TRUE(out[i].ok());
    EXPECT_EQ(out[i].get(), i);
  }
}

TEST(Sweep, ThrowingJobIsIsolated) {
  std::vector<Job<int>> jobs;
  jobs.push_back({"fine-a", [] { return 1; }});
  jobs.push_back({"boom", []() -> int { throw std::runtime_error("deliberate failure"); }});
  jobs.push_back({"fine-b", [] { return 3; }});
  SweepRunner<int> runner(SweepOptions{2});
  const auto out = runner.run(std::move(jobs));
  ASSERT_EQ(out.size(), 3u);
  EXPECT_TRUE(out[0].ok());
  EXPECT_EQ(out[0].get(), 1);
  EXPECT_FALSE(out[1].ok());
  EXPECT_NE(out[1].error.find("deliberate failure"), std::string::npos);
  EXPECT_THROW(out[1].get(), FriedaError);
  try {
    out[1].get();
  } catch (const FriedaError& e) {
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos)
        << "error must name the failed job";
  }
  EXPECT_TRUE(out[2].ok());
  EXPECT_EQ(out[2].get(), 3);
}

TEST(Sweep, FailedRunsAreNotCached) {
  // A failed primary serves its twin the same error, never a value.
  StableHasher h;
  const auto fp = h.mix_str("boom-key").digest();
  std::vector<Job<int>> jobs;
  jobs.push_back({"boom", []() -> int { throw std::runtime_error("nope"); }, fp});
  jobs.push_back({"boom-twin", []() -> int { return 1; }, fp});
  SweepRunner<int> runner;
  const auto out = runner.run(std::move(jobs));
  EXPECT_EQ(runner.runs_executed(), 1u);
  EXPECT_FALSE(out[0].ok());
  EXPECT_FALSE(out[1].ok());
  EXPECT_TRUE(out[1].from_cache);
  EXPECT_EQ(out[1].error, out[0].error);
  EXPECT_NE(out[1].error.find("nope"), std::string::npos);
}

TEST(Sweep, EmptyBatchAndThreadResolution) {
  SweepRunner<int> runner;
  EXPECT_TRUE(runner.run({}).empty());
  // Never more threads than jobs; at least one thread for a non-empty batch.
  EXPECT_EQ(detail::resolve_threads(8, 3), 3u);
  EXPECT_EQ(detail::resolve_threads(2, 100), 2u);
  EXPECT_GE(detail::resolve_threads(0, 100), 1u);
}

// ---------------------------------------------------------------------------
// FRIEDA_SWEEP_THREADS validation.
// ---------------------------------------------------------------------------

TEST(Sweep, EnvVarOverridesThreadCount) {
  ASSERT_EQ(setenv("FRIEDA_SWEEP_THREADS", "3", 1), 0);
  EXPECT_EQ(detail::resolve_threads(0, 100), 3u);
  EXPECT_EQ(detail::resolve_threads(0, 2), 2u);   // still capped by jobs
  EXPECT_EQ(detail::resolve_threads(5, 100), 5u); // explicit request wins
  ASSERT_EQ(unsetenv("FRIEDA_SWEEP_THREADS"), 0);
}

TEST(Sweep, EnvVarParserRejectsGarbage) {
  EXPECT_EQ(detail::parse_threads_env("4"), 4u);
  EXPECT_EQ(detail::parse_threads_env("4096"), 4096u);
  EXPECT_EQ(detail::parse_threads_env(nullptr), 0u);
  EXPECT_EQ(detail::parse_threads_env(""), 0u);
  EXPECT_EQ(detail::parse_threads_env("garbage"), 0u);
  EXPECT_EQ(detail::parse_threads_env("0"), 0u);
  EXPECT_EQ(detail::parse_threads_env("-3"), 0u);
  EXPECT_EQ(detail::parse_threads_env("8x"), 0u);          // trailing junk
  EXPECT_EQ(detail::parse_threads_env("3.5"), 0u);         // not an integer
  EXPECT_EQ(detail::parse_threads_env("4097"), 0u);        // above the cap
  EXPECT_EQ(detail::parse_threads_env("99999999999999999999"), 0u);  // overflow
}

TEST(Sweep, InvalidEnvVarFallsBackLikeUnset) {
  ASSERT_EQ(unsetenv("FRIEDA_SWEEP_THREADS"), 0);
  const std::size_t unset = detail::resolve_threads(0, 100);
  for (const char* bad : {"garbage", "0", "-3", "8x", "99999999999999999999"}) {
    ASSERT_EQ(setenv("FRIEDA_SWEEP_THREADS", bad, 1), 0);
    EXPECT_EQ(detail::resolve_threads(0, 100), unset)
        << "FRIEDA_SWEEP_THREADS='" << bad << "' must fall back to the unset default";
  }
  ASSERT_EQ(unsetenv("FRIEDA_SWEEP_THREADS"), 0);
}

// ---------------------------------------------------------------------------
// ScenarioSweep lifecycle.
// ---------------------------------------------------------------------------

TEST(Sweep, RunTwiceThrows) {
  ScenarioSweep sweep;
  sweep.grid().add("noop", [] { return core::RunReport{}; });
  EXPECT_FALSE(sweep.ran());
  sweep.run();
  EXPECT_TRUE(sweep.ran());
  EXPECT_TRUE(sweep.outcome(0).ok());
  EXPECT_THROW(sweep.run(), FriedaError);
}

TEST(Sweep, OutcomeBeforeRunThrows) {
  ScenarioSweep sweep;
  const auto id = sweep.grid().add("noop", [] { return core::RunReport{}; });
  EXPECT_THROW(sweep.outcome(id), FriedaError);
  EXPECT_THROW(sweep.report(id), FriedaError);
  sweep.run();
  EXPECT_TRUE(sweep.outcome(id).ok());
  EXPECT_THROW(sweep.outcome(id + 1), FriedaError);  // still range-checked
}

// ---------------------------------------------------------------------------
// Concurrency: shared MetricsRegistry across jobs.  Run this under the asan
// and tsan presets (see docs/performance.md).
// ---------------------------------------------------------------------------

TEST(Sweep, SharedMetricsRegistryAcrossJobs) {
  obs::MetricsRegistry registry;
  constexpr std::size_t kJobs = 32;
  std::vector<Job<int>> jobs;
  for (std::size_t i = 0; i < kJobs; ++i) {
    jobs.push_back({"metrics" + std::to_string(i), [i, &registry] {
                      const auto name = "job" + std::to_string(i);
                      auto& counter = registry.counter(name + ".units");
                      auto& stats = registry.stats(name + ".latency");
                      for (int k = 0; k < 100; ++k) {
                        counter.inc();
                        stats.add(static_cast<double>(k));
                      }
                      registry.gauge(name + ".makespan").set(static_cast<double>(i));
                      return static_cast<int>(registry.size() > 0);
                    }});
  }
  SweepRunner<int> runner(SweepOptions{8});
  const auto out = runner.run(std::move(jobs));
  EXPECT_EQ(registry.size(), 3 * kJobs);
  for (std::size_t i = 0; i < kJobs; ++i) {
    ASSERT_TRUE(out[i].ok()) << out[i].error;
    const auto name = "job" + std::to_string(i);
    const auto* counter = registry.find_counter(name + ".units");
    ASSERT_NE(counter, nullptr);
    EXPECT_EQ(counter->value(), 100u);
    const auto* stats = registry.find_stats(name + ".latency");
    ASSERT_NE(stats, nullptr);
    EXPECT_EQ(stats->count(), 100u);
    const auto* gauge = registry.find_gauge(name + ".makespan");
    ASSERT_NE(gauge, nullptr);
    EXPECT_EQ(gauge->value(), static_cast<double>(i));
  }
  // Exports see a consistent snapshot after the sweep.
  EXPECT_NE(registry.csv().find("job0.units,counter,100"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Live progress reporting (opt-in; silent by default).
// ---------------------------------------------------------------------------

std::string read_all(std::FILE* f) {
  std::fflush(f);
  std::rewind(f);
  std::string text;
  char buf[256];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, got);
  return text;
}

TEST(Progress, ReporterPrintsThrottledUpdatesAndFinishLine) {
  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  obs::ProgressOptions popt;
  popt.min_interval_s = 0.0;  // print every update
  popt.out = sink;
  obs::ProgressReporter reporter(popt);

  SweepRunner<int> runner(SweepOptions{2});
  runner.set_progress(&reporter);
  std::vector<Job<int>> jobs;
  for (int i = 0; i < 4; ++i) {
    jobs.push_back({"p" + std::to_string(i), [i] { return i; }});
  }
  const auto out = runner.run(std::move(jobs));
  for (const auto& o : out) EXPECT_TRUE(o.ok());

  EXPECT_GE(reporter.lines_printed(), 2u);  // >=1 update + the finish line
  const std::string text = read_all(sink);
  EXPECT_NE(text.find("sweep: ["), std::string::npos);
  EXPECT_NE(text.find("[4/4] done"), std::string::npos);
  std::fclose(sink);
}

TEST(Progress, ThrottleSuppressesIntermediateLines) {
  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  obs::ProgressOptions popt;
  popt.min_interval_s = 3600.0;  // nothing but the first update + finish
  popt.out = sink;
  popt.label = "grid";
  obs::ProgressReporter reporter(popt);

  reporter.begin(8, 8.0);
  for (int i = 1; i <= 8; ++i) reporter.update(static_cast<std::size_t>(i), 0, i, 0.001 * i);
  reporter.finish(8, 8, 0.01);
  EXPECT_EQ(reporter.lines_printed(), 2u);
  const std::string text = read_all(sink);
  EXPECT_NE(text.find("grid: [1/8]"), std::string::npos);
  EXPECT_NE(text.find("grid: [8/8] done"), std::string::npos);
  std::fclose(sink);
}

TEST(Progress, EtaIsCostWeighted) {
  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  obs::ProgressOptions popt;
  popt.min_interval_s = 0.0;
  popt.out = sink;
  obs::ProgressReporter reporter(popt);
  // Half the cost done in 10 s => eta ~10 s even though only 1 of 4 jobs
  // finished (the longest-first schedule front-loads the expensive cells).
  reporter.begin(4, 100.0);
  reporter.update(1, 3, 50.0, 10.0);
  const std::string text = read_all(sink);
  EXPECT_NE(text.find("[1/4] 3 in flight, eta ~10s"), std::string::npos);
  std::fclose(sink);
}

TEST(Progress, EtaExcludesMemoizedJobsFromCountFallback) {
  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  obs::ProgressOptions popt;
  popt.min_interval_s = 0.0;
  popt.out = sink;
  obs::ProgressReporter reporter(popt);
  // Duplicate-heavy grid without cost estimates: 8 of 10 jobs were served
  // from the cache at t=0.  After the first *real* job finishes at t=10,
  // half the real work remains, so eta ~10s — counting the served jobs at
  // full weight would have claimed 9/10 done and an eta near 1 s.
  reporter.begin(10, 0.0, /*served_jobs=*/8);
  reporter.update(9, 1, 0.0, 10.0);
  const std::string text = read_all(sink);
  EXPECT_NE(text.find("[9/10] 1 in flight, eta ~10s"), std::string::npos);
  std::fclose(sink);
}

TEST(Progress, DuplicateHeavyGridReportsServedJobsWithoutSkewingEta) {
  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  obs::ProgressOptions popt;
  popt.min_interval_s = 0.0;
  popt.out = sink;
  obs::ProgressReporter reporter(popt);

  // 12 jobs, only 3 distinct fingerprints: 9 are in-batch twins served at
  // zero cost.  Zero cost estimates force the count fallback — the path
  // that used to weight memoized jobs at full per-job cost.
  SweepRunner<int> runner(SweepOptions{2});
  runner.set_progress(&reporter);
  std::vector<Job<int>> jobs;
  for (int i = 0; i < 12; ++i) {
    StableHasher h;
    const auto fp = h.mix_str("dup-eta").mix_u64(static_cast<std::uint64_t>(i % 3)).digest();
    jobs.push_back({"dup" + std::to_string(i), [i] { return i % 3; },
                    fp, /*cost=*/0.0});
  }
  const auto out = runner.run(std::move(jobs));
  for (const auto& o : out) EXPECT_TRUE(o.ok());
  EXPECT_EQ(runner.cache_hits(), 9u);

  const std::string text = read_all(sink);
  // Every update line counts the 9 served jobs as already complete...
  EXPECT_NE(text.find("[10/12]"), std::string::npos);
  EXPECT_NE(text.find("[12/12] done"), std::string::npos);
  // ...but the first real completion must not claim the batch is 10/12
  // done rate-wise: 2 of 3 real jobs remain, so the eta is about twice
  // the elapsed time, far above the ~0.2x the inflated count implied.
  // (Wall times are nondeterministic, so assert structure, not digits.)
  EXPECT_EQ(text.find("[9/12]"), std::string::npos);  // updates fire post-completion
  std::fclose(sink);
}

TEST(Progress, FromEnvDisabledByDefault) {
  ::unsetenv("FRIEDA_SWEEP_PROGRESS");
  EXPECT_EQ(obs::ProgressReporter::from_env(), nullptr);
  ::setenv("FRIEDA_SWEEP_PROGRESS", "0", 1);
  EXPECT_EQ(obs::ProgressReporter::from_env(), nullptr);
  ::setenv("FRIEDA_SWEEP_PROGRESS", "2.5", 1);
  EXPECT_NE(obs::ProgressReporter::from_env(), nullptr);
  ::setenv("FRIEDA_SWEEP_PROGRESS", "yes", 1);
  EXPECT_NE(obs::ProgressReporter::from_env(), nullptr);
  ::unsetenv("FRIEDA_SWEEP_PROGRESS");
}

TEST(Progress, ParseIntervalEnvAcceptsSecondsOnly) {
  using obs::ProgressReporter;
  // Valid: plain seconds in [0, kMaxIntervalSeconds].
  EXPECT_DOUBLE_EQ(ProgressReporter::parse_interval_env("0"), 0.0);
  EXPECT_DOUBLE_EQ(ProgressReporter::parse_interval_env("2.5"), 2.5);
  EXPECT_DOUBLE_EQ(ProgressReporter::parse_interval_env("0.25"), 0.25);
  EXPECT_DOUBLE_EQ(ProgressReporter::parse_interval_env("1e2"), 100.0);
  EXPECT_DOUBLE_EQ(ProgressReporter::parse_interval_env("86400"),
                   ProgressReporter::kMaxIntervalSeconds);
  // Invalid: unset/empty, trailing junk, negatives, NaN/inf, out of range.
  EXPECT_LT(ProgressReporter::parse_interval_env(nullptr), 0.0);
  EXPECT_LT(ProgressReporter::parse_interval_env(""), 0.0);
  EXPECT_LT(ProgressReporter::parse_interval_env("yes"), 0.0);
  EXPECT_LT(ProgressReporter::parse_interval_env("2.5s"), 0.0);
  EXPECT_LT(ProgressReporter::parse_interval_env("1,5"), 0.0);
  EXPECT_LT(ProgressReporter::parse_interval_env("-1"), 0.0);
  EXPECT_LT(ProgressReporter::parse_interval_env("nan"), 0.0);
  EXPECT_LT(ProgressReporter::parse_interval_env("inf"), 0.0);
  EXPECT_LT(ProgressReporter::parse_interval_env("86401"), 0.0);
}

TEST(Progress, FromEnvInvalidValueFallsBackToDefaultInterval) {
  // Setting the variable expressed intent to see progress: a typo degrades
  // to the default interval (loudly, via kWarn) instead of going silent.
  ::setenv("FRIEDA_SWEEP_PROGRESS", "fast", 1);
  const auto reporter = obs::ProgressReporter::from_env();
  ASSERT_NE(reporter, nullptr);
  ::setenv("FRIEDA_SWEEP_PROGRESS", "-3", 1);
  EXPECT_NE(obs::ProgressReporter::from_env(), nullptr);
  ::unsetenv("FRIEDA_SWEEP_PROGRESS");
}

// ---------------------------------------------------------------------------
// Runner accounting.
// ---------------------------------------------------------------------------

TEST(Sweep, RunnerCountsTrackProgress) {
  PaperScenarioOptions opt;
  opt.scale = 0.1;
  opt.seed = 4245;
  SweepRunner<> runner(SweepOptions{2});
  Grid grid;
  grid.add_blast(PlacementStrategy::kRealTime, opt);
  grid.add_als(PlacementStrategy::kRealTime, opt);
  grid.add_blast(PlacementStrategy::kRealTime, opt);  // in-batch twin
  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  obs::ProgressOptions popt;
  popt.min_interval_s = 0.0;  // print every update
  popt.out = sink;
  obs::ProgressReporter progress(popt);
  runner.set_progress(&progress);
  const auto out = runner.run(grid.take());
  EXPECT_EQ(runner.runs_requested(), 3u);
  EXPECT_EQ(runner.runs_executed(), 2u);  // dispatched jobs only
  EXPECT_EQ(runner.cache_hits(), 1u);     // the twin was served
  EXPECT_EQ(runner.schedule().size(), 2u);
  EXPECT_GT(runner.wall_seconds(), 0.0);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_TRUE(out[2].from_cache);
  // The reporter saw both executed jobs complete, nothing left in flight.
  const std::string text = read_all(sink);
  std::fclose(sink);
  EXPECT_NE(text.find("[3/3] 0 in flight"), std::string::npos) << text;
  EXPECT_NE(text.find("[3/3] done"), std::string::npos) << text;
}

// ---------------------------------------------------------------------------
// Greedy dispatch from one shared cursor.
// ---------------------------------------------------------------------------

TEST(Pool, QuickJobsRunBesideALongPoleWithIdenticalResults) {
  // One long pole plus many quick cells.  The cost stamps pin the
  // longest-first schedule [pole, quick0, quick1, ...]; on two threads the
  // pole is claimed first, so quick1 can only run on the other thread.
  // With `gated`, the pole waits (bounded) until quick1 has run and returns
  // a distinct value if the deadline expired instead.
  constexpr std::size_t kPoleDone = 1000;
  constexpr std::size_t kPoleTimedOut = 9999;
  auto make_jobs = [](bool gated) {
    auto quick1_ran = std::make_shared<std::atomic<bool>>(false);
    std::vector<Job<std::size_t>> jobs;
    jobs.push_back({"pole",
                    [gated, quick1_ran] {
                      const auto deadline =
                          std::chrono::steady_clock::now() + std::chrono::seconds(30);
                      while (gated && !quick1_ran->load()) {
                        if (std::chrono::steady_clock::now() >= deadline) return kPoleTimedOut;
                        std::this_thread::sleep_for(std::chrono::milliseconds(1));
                      }
                      return kPoleDone;
                    },
                    std::nullopt, 100.0});
    for (std::size_t i = 0; i < 12; ++i) {
      jobs.push_back({"quick" + std::to_string(i),
                      [i, quick1_ran] {
                        if (i == 1) quick1_ran->store(true);
                        return i;
                      },
                      std::nullopt, 1.0});
    }
    return jobs;
  };

  SweepRunner<std::size_t> pool(SweepOptions{2});
  const auto gated = pool.run(make_jobs(/*gated=*/true));
  ASSERT_TRUE(gated[0].ok()) << gated[0].error;
  EXPECT_EQ(gated[0].get(), kPoleDone);  // quick1 ran while the pole waited

  // On one thread nothing could run quick1 while the pole waits, so this
  // run is ungated.
  SweepRunner<std::size_t> seq(SweepOptions{1});
  const auto serial = seq.run(make_jobs(/*gated=*/false));

  ASSERT_EQ(gated.size(), serial.size());
  for (std::size_t i = 0; i < gated.size(); ++i) {
    EXPECT_EQ(gated[i].tag, serial[i].tag);
    EXPECT_EQ(gated[i].get(), serial[i].get());
  }
}

}  // namespace
}  // namespace frieda::exp
