// Live telemetry tests.
//
// Covers the Timeseries container, the LatencyWindow ring buffer (exact
// against a reference sorted-window recomputation at every sample point,
// through warm-up, eviction boundaries, and emptiness), the SloMonitor's
// sample-and-hold breach intervals, the TelemetryProbe sampling contract,
// and both backend integrations: sim-clock probing in core::FriedaRun
// (deterministic, bit-identical timelines across repeated runs and sweep
// thread counts) and wall-clock probing in rt::RtEngine.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "exp/sweep.hpp"
#include "frieda/partition.hpp"
#include "obs/analysis.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "runtime/rt_engine.hpp"
#include "workload/scenarios.hpp"

namespace frieda::obs {
namespace {

using core::PlacementStrategy;
using workload::PaperScenarioOptions;

// ---------------------------------------------------------------------------
// Timeseries.
// ---------------------------------------------------------------------------

TEST(Timeseries, ChannelsKeepInsertionOrderAndSamplesAppend) {
  Timeseries ts;
  EXPECT_TRUE(ts.empty());
  ts.add("queue_depth", 1.0, 3.0);
  ts.add("throughput", 1.0, 0.5);
  ts.add("queue_depth", 2.0, 4.0);
  ASSERT_EQ(ts.channels().size(), 2u);
  EXPECT_EQ(ts.channels()[0].name, "queue_depth");
  EXPECT_EQ(ts.channels()[1].name, "throughput");
  EXPECT_EQ(ts.sample_count(), 3u);
  const auto* q = ts.find("queue_depth");
  ASSERT_NE(q, nullptr);
  ASSERT_EQ(q->t.size(), 2u);
  EXPECT_DOUBLE_EQ(q->t[1], 2.0);
  EXPECT_DOUBLE_EQ(q->v[1], 4.0);
  EXPECT_EQ(ts.find("nope"), nullptr);
}

TEST(Timeseries, CsvIsLongFormatWithRoundTripValues) {
  Timeseries ts;
  ts.add("a", 0.1, 1.0 / 3.0);
  ts.add("b", 0.2, 2.0);
  const std::string csv = ts.csv();
  std::istringstream in(csv);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "channel,t_s,value");
  ASSERT_TRUE(std::getline(in, line));
  // Values use the shortest round-trip decimal: parsing the text back must
  // reproduce the identical bits.
  const auto last_comma = line.rfind(',');
  const double parsed = std::strtod(line.substr(last_comma + 1).c_str(), nullptr);
  EXPECT_EQ(parsed, 1.0 / 3.0);
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line.substr(0, 2), "b,");
  EXPECT_FALSE(std::getline(in, line));
}

TEST(Timeseries, FormatSampleRoundTripsAwkwardDoubles) {
  for (const double v : {0.1, 1.0 / 3.0, 1e-17, 123456789.123456789, -0.0, 5.002}) {
    const std::string text = format_sample(v);
    EXPECT_EQ(std::strtod(text.c_str(), nullptr), v) << text;
  }
}

// ---------------------------------------------------------------------------
// LatencyWindow vs a reference sorted-window computation (satellite 3).
// ---------------------------------------------------------------------------

/// Deterministic value stream (no global RNG, no time dependence).
double lcg_value(std::uint64_t& state) {
  state = state * 6364136223846793005ull + 1442695040888963407ull;
  return static_cast<double>(state >> 11) / static_cast<double>(1ull << 53) * 100.0;
}

/// Reference percentile: feed the expected window contents to SampleSet,
/// the authority the windowed result must match bit for bit.
double reference_percentile(const std::vector<double>& window, double p) {
  SampleSet set;
  for (const double v : window) set.add(v);
  return set.percentile(p);
}

TEST(LatencyWindow, CountBoundedWindowMatchesReferenceAtEverySample) {
  const std::size_t kWindow = 8;
  LatencyWindow win(kWindow, 0.0);
  std::vector<double> all;
  std::uint64_t rng = 2012;
  for (std::size_t i = 0; i < 100; ++i) {
    const double t = 0.25 * static_cast<double>(i);
    const double v = lcg_value(rng);
    win.add(t, v);
    win.evict(t);  // no-op for count-bounded windows
    all.push_back(v);
    // Expected window: the last min(i+1, kWindow) values — covers warm-up
    // (window not yet full) and steady-state eviction at the count bound.
    const std::size_t n = all.size() < kWindow ? all.size() : kWindow;
    const std::vector<double> expect(all.end() - static_cast<long>(n), all.end());
    ASSERT_EQ(win.size(), n);
    for (const double p : {0.0, 25.0, 50.0, 95.0, 99.0, 100.0}) {
      EXPECT_EQ(win.percentile(p), reference_percentile(expect, p))
          << "sample " << i << " p" << p;
    }
  }
}

TEST(LatencyWindow, AgeBoundedWindowMatchesReferenceAcrossEvictionBoundaries) {
  const double kAge = 5.0;
  LatencyWindow win(0, kAge);
  std::vector<std::pair<double, double>> all;  // (t, v)
  std::uint64_t rng = 7;
  for (std::size_t i = 0; i < 80; ++i) {
    const double t = 0.7 * static_cast<double>(i);
    const double v = lcg_value(rng);
    win.add(t, v);
    win.evict(t);
    all.emplace_back(t, v);
    // Expected window: samples with t >= now - kAge (evict drops strictly
    // older ones), which repeatedly crosses the eviction boundary as time
    // advances in 0.7 s steps against a 5 s horizon.
    std::vector<double> expect;
    for (const auto& [st, sv] : all) {
      if (st >= t - kAge) expect.push_back(sv);
    }
    ASSERT_EQ(win.size(), expect.size()) << "sample " << i;
    for (const double p : {0.0, 50.0, 99.0, 100.0}) {
      EXPECT_EQ(win.percentile(p), reference_percentile(expect, p))
          << "sample " << i << " p" << p;
    }
  }
}

TEST(LatencyWindow, CombinedBoundsApplyWhicheverIsTighter) {
  LatencyWindow win(4, 2.0);
  for (int i = 0; i < 10; ++i) {
    win.add(0.5 * i, static_cast<double>(i));
    win.evict(0.5 * i);
  }
  // At t=4.5 the age bound keeps t >= 2.5 (values 5..9, five samples) but
  // the count bound trims to the last 4.
  ASSERT_EQ(win.size(), 4u);
  const auto vals = win.values();
  EXPECT_DOUBLE_EQ(vals.front(), 6.0);
  EXPECT_DOUBLE_EQ(vals.back(), 9.0);
}

TEST(LatencyWindow, EmptyWindowThrowsAndEvictionCanEmptyIt) {
  LatencyWindow win(0, 1.0);
  EXPECT_TRUE(win.empty());
  EXPECT_THROW(win.percentile(50.0), FriedaError);
  win.add(0.0, 1.0);
  EXPECT_EQ(win.percentile(50.0), 1.0);
  win.evict(10.0);  // everything aged out
  EXPECT_TRUE(win.empty());
  EXPECT_THROW(win.percentile(99.0), FriedaError);
}

// ---------------------------------------------------------------------------
// SloMonitor.
// ---------------------------------------------------------------------------

TEST(SloMonitor, SampleAndHoldBreachIntervalsMergeAndTrackPeak) {
  Timeseries ts;
  // queue: ok, breach, breach (merged), ok, breach (separate), held to end.
  ts.add("queue_depth", 0.0, 1.0);
  ts.add("queue_depth", 1.0, 5.0);
  ts.add("queue_depth", 2.0, 7.0);
  ts.add("queue_depth", 3.0, 2.0);
  ts.add("queue_depth", 4.0, 9.0);
  SloMonitor mon({{"queue_depth", 4.0}});
  const SloReport report = mon.evaluate(ts, 6.0);

  ASSERT_EQ(report.breaches.size(), 2u);
  EXPECT_DOUBLE_EQ(report.breaches[0].start, 1.0);
  EXPECT_DOUBLE_EQ(report.breaches[0].end, 3.0);  // two samples merged
  EXPECT_DOUBLE_EQ(report.breaches[0].peak, 7.0);
  // The last sample holds from t=4 to end_time=6.
  EXPECT_DOUBLE_EQ(report.breaches[1].start, 4.0);
  EXPECT_DOUBLE_EQ(report.breaches[1].end, 6.0);
  EXPECT_DOUBLE_EQ(report.breaches[1].peak, 9.0);
  EXPECT_DOUBLE_EQ(report.total_violation_s(), 4.0);
  ASSERT_EQ(report.targets.size(), 1u);
  EXPECT_EQ(report.targets[0].breaches, 2u);
  EXPECT_DOUBLE_EQ(report.targets[0].violation_s, 4.0);
  EXPECT_NE(report.summary().find("queue_depth"), std::string::npos);
}

TEST(SloMonitor, ExactlyAtTheLimitIsNotABreach) {
  Timeseries ts;
  ts.add("latency_p99", 0.0, 2.0);
  SloMonitor mon({{"latency_p99", 2.0}});
  EXPECT_EQ(mon.evaluate(ts, 5.0).total_breaches(), 0u);
}

TEST(SloMonitor, UnsampledChannelAndEmptyTargetsYieldNoBreaches) {
  Timeseries ts;
  ts.add("queue_depth", 0.0, 100.0);
  EXPECT_EQ(SloMonitor({}).evaluate(ts, 1.0).total_breaches(), 0u);
  const auto report = SloMonitor({{"latency_p99", 1.0}}).evaluate(ts, 1.0);
  EXPECT_EQ(report.total_breaches(), 0u);
  ASSERT_EQ(report.targets.size(), 1u);
  EXPECT_EQ(report.targets[0].breaches, 0u);
}

// ---------------------------------------------------------------------------
// TelemetryProbe sampling contract.
// ---------------------------------------------------------------------------

TEST(TelemetryProbe, DerivesThroughputAndSolverDeltasPerTick) {
  TelemetryOptions opt;
  opt.interval = 1.0;
  TelemetryProbe probe(opt);
  probe.begin(0.0, nullptr);

  TelemetryTick raw;
  raw.queue_depth = 3.0;
  raw.completed = 4.0;
  raw.net_solves = 10.0;
  probe.tick(2.0, raw);
  raw.completed = 10.0;
  raw.net_solves = 13.0;
  probe.tick(4.0, raw);

  const auto* tput = probe.series().find("throughput");
  ASSERT_NE(tput, nullptr);
  ASSERT_EQ(tput->v.size(), 2u);
  EXPECT_DOUBLE_EQ(tput->v[0], 2.0);  // 4 completed over the first 2 s
  EXPECT_DOUBLE_EQ(tput->v[1], 3.0);  // 6 more over the next 2 s
  const auto* solves = probe.series().find("net_solves");
  ASSERT_NE(solves, nullptr);
  EXPECT_DOUBLE_EQ(solves->v[0], 10.0);
  EXPECT_DOUBLE_EQ(solves->v[1], 3.0);  // per-tick delta, not cumulative
}

TEST(TelemetryProbe, RejectsNonAdvancingTicksAndSkipsEmptyLatencyWindow) {
  TelemetryProbe probe;
  probe.begin(0.0, nullptr);
  TelemetryTick raw;
  probe.tick(1.0, raw);
  probe.tick(1.0, raw);  // same instant: ignored (the final flush may collide)
  probe.tick(0.5, raw);  // time went backwards: ignored
  EXPECT_EQ(probe.tick_count(), 1u);
  // No latency observed yet -> no latency channels at all.
  EXPECT_EQ(probe.series().find("latency_p99"), nullptr);

  probe.observe_latency(1.5, 0.75);
  probe.tick(2.0, raw);
  const auto* p99 = probe.series().find("latency_p99");
  ASSERT_NE(p99, nullptr);
  ASSERT_EQ(p99->v.size(), 1u);
  EXPECT_DOUBLE_EQ(p99->v[0], 0.75);
}

TEST(TelemetryProbe, FinishIsIdempotentAndFreezesTheSloReport) {
  TelemetryOptions opt;
  opt.slo.push_back({"queue_depth", 2.0});
  TelemetryProbe probe(opt);
  probe.begin(0.0, nullptr);
  TelemetryTick raw;
  raw.queue_depth = 5.0;
  probe.tick(1.0, raw);
  probe.finish(3.0);
  EXPECT_TRUE(probe.finished());
  ASSERT_EQ(probe.slo().total_breaches(), 1u);
  EXPECT_DOUBLE_EQ(probe.slo().total_violation_s(), 2.0);  // held 1 s -> 3 s
  probe.finish(3.0);  // second call: no-op
  EXPECT_EQ(probe.slo().total_breaches(), 1u);
}

TEST(TelemetryProbe, BeginResetsForANewEpoch) {
  TelemetryProbe probe;
  probe.begin(0.0, nullptr);
  TelemetryTick raw;
  raw.completed = 8.0;
  probe.tick(2.0, raw);
  probe.finish(2.0);
  probe.begin(10.0, nullptr);
  EXPECT_FALSE(probe.finished());
  EXPECT_EQ(probe.tick_count(), 0u);
  EXPECT_TRUE(probe.series().empty());
  raw.completed = 1.0;
  probe.tick(12.0, raw);
  const auto* tput = probe.series().find("throughput");
  ASSERT_NE(tput, nullptr);
  EXPECT_DOUBLE_EQ(tput->v[0], 0.5);  // delta from the new epoch's baseline
}

// ---------------------------------------------------------------------------
// Sim-clock integration: probed FriedaRun via the paper scenarios.
// ---------------------------------------------------------------------------

PaperScenarioOptions probed_service_opt(double rate = 2.5) {
  PaperScenarioOptions opt;
  opt.scale = 0.004;  // 30 BLAST queries
  opt.service.open_loop = true;
  opt.service.arrivals.kind = workload::ArrivalKind::kPoisson;
  opt.service.arrivals.rate = rate;
  opt.service.arrivals.seed = 42;
  return opt;
}

TEST(ProbedRun, SamplesChannelsOnTheSimClock) {
  TelemetryOptions topt;
  topt.interval = 2.0;
  TelemetryProbe probe(topt);
  auto opt = probed_service_opt();
  opt.telemetry = &probe;
  const auto report = workload::run_blast(PlacementStrategy::kRealTime, opt);

  EXPECT_TRUE(probe.finished());
  EXPECT_GT(probe.tick_count(), 2u);
  for (const char* name : {"queue_depth", "in_flight", "active_workers", "active_vms",
                           "completed", "throughput", "net_solves", "scale_outs",
                           "scale_ins", "latency_p50", "latency_p95", "latency_p99"}) {
    EXPECT_NE(probe.series().find(name), nullptr) << name;
  }
  // Sample times are strictly increasing within each channel, and the final
  // completed-count sample equals the report's.
  for (const auto& ch : probe.series().channels()) {
    for (std::size_t i = 1; i < ch.t.size(); ++i) {
      EXPECT_GT(ch.t[i], ch.t[i - 1]) << ch.name;
    }
  }
  const auto* done = probe.series().find("completed");
  ASSERT_FALSE(done->v.empty());
  EXPECT_DOUBLE_EQ(done->v.back(), static_cast<double>(report.units_completed));
  // Probe timestamps are absolute sim time: the final flush lands exactly
  // at the run's end_time (makespan is end_time minus the setup offset).
  EXPECT_DOUBLE_EQ(done->t.back(), report.end_time);
}

TEST(ProbedRun, FinalWindowedPercentileMatchesRunReportLatency) {
  // A window wide enough to hold every sojourn makes the last windowed
  // percentile the whole-run percentile: it must agree bit for bit with
  // RunReport.latency_p (both use the SampleSet interpolation).
  TelemetryOptions topt;
  topt.interval = 2.0;
  topt.window_count = 0;  // unbounded window = whole run
  TelemetryProbe probe(topt);
  auto opt = probed_service_opt();
  opt.telemetry = &probe;
  const auto report = workload::run_blast(PlacementStrategy::kRealTime, opt);

  ASSERT_GT(report.latency.count(), 0u);
  const std::vector<std::pair<const char*, double>> channels = {
      {"latency_p50", 50.0}, {"latency_p95", 95.0}, {"latency_p99", 99.0}};
  for (const auto& [name, p] : channels) {
    const auto* ch = probe.series().find(name);
    ASSERT_NE(ch, nullptr) << name;
    ASSERT_FALSE(ch->v.empty());
    EXPECT_EQ(ch->v.back(), report.latency_p(p)) << name;
  }
}

TEST(ProbedRun, TimelineIsBitIdenticalAcrossRunsAndThreads) {
  const auto run_probed_csv = [] {
    TelemetryOptions topt;
    topt.interval = 2.0;
    TelemetryProbe probe(topt);
    auto opt = probed_service_opt();
    opt.telemetry = &probe;
    (void)workload::run_blast(PlacementStrategy::kRealTime, opt);
    return probe.timeline_csv();
  };

  const std::string base = run_probed_csv();
  EXPECT_NE(base.find("queue_depth"), std::string::npos);
  EXPECT_EQ(run_probed_csv(), base);  // repeated run

  // Through the sweep engine at varying thread counts.  The probe lives
  // inside the job closure (attached options are unfingerprintable, so the
  // job always executes).
  for (const std::size_t threads : {1u, 3u}) {
    exp::SweepOptions sopt;
    sopt.threads = threads;
    exp::SweepRunner<std::string> runner(sopt);
    std::vector<exp::Job<std::string>> jobs;
    jobs.push_back({"probed", [&] { return run_probed_csv(); }});
    jobs.push_back({"noise", [&] { return run_probed_csv(); }});
    const auto out = runner.run(std::move(jobs));
    ASSERT_TRUE(out[0].ok());
    EXPECT_EQ(out[0].get(), base) << threads << " threads";
    EXPECT_EQ(out[1].get(), base);
  }
}

TEST(ProbedRun, ProbeDoesNotPerturbTheSimulationOrDisableExecution) {
  auto opt = probed_service_opt();
  const auto plain = workload::run_blast(PlacementStrategy::kRealTime, opt);

  TelemetryProbe probe;
  opt.telemetry = &probe;
  const auto probed = workload::run_blast(PlacementStrategy::kRealTime, opt);

  EXPECT_EQ(probed.makespan(), plain.makespan());
  EXPECT_EQ(probed.units_completed, plain.units_completed);
  ASSERT_EQ(probed.latency.count(), plain.latency.count());
  EXPECT_EQ(probed.latency_p(99.0), plain.latency_p(99.0));
  // An attached probe disqualifies memoization (a cached result would skip
  // the side effects), like tracer/metrics.
  EXPECT_TRUE(workload::fingerprintable(probed_service_opt()));
  EXPECT_FALSE(workload::fingerprintable(opt));
}

TEST(ProbedRun, SloBreachesSurfaceInReportSummaryAndAnchorSpan) {
  // An impossible latency target guarantees breaches on a loaded run.
  TelemetryOptions topt;
  topt.interval = 2.0;
  topt.slo.push_back({"latency_p99", 1e-6});
  topt.slo.push_back({"queue_depth", 1e9});  // never breached
  TelemetryProbe probe(topt);
  Tracer tracer;
  auto opt = probed_service_opt(4.0);
  opt.telemetry = &probe;
  opt.tracer = &tracer;
  const auto report = workload::run_blast(PlacementStrategy::kRealTime, opt);
  (void)report;

  ASSERT_GT(probe.slo().total_breaches(), 0u);
  EXPECT_GT(probe.slo().total_violation_s(), 0.0);
  ASSERT_EQ(probe.slo().targets.size(), 2u);
  EXPECT_EQ(probe.slo().targets[1].breaches, 0u);

  // The trace carries the summary on the anchor span and one "slo" span per
  // breach interval; the analyzer parses both back.
  const auto events = load_chrome_trace(tracer.chrome_json());
  const auto analysis = TraceAnalyzer::analyze(events);
  EXPECT_TRUE(analysis.slo_stats);
  EXPECT_EQ(analysis.slo_breach_count, probe.slo().total_breaches());
  EXPECT_DOUBLE_EQ(analysis.slo_violation_s, probe.slo().total_violation_s());
  ASSERT_EQ(analysis.telemetry.breaches.size(), probe.slo().total_breaches());
  for (std::size_t i = 0; i < analysis.telemetry.breaches.size(); ++i) {
    EXPECT_EQ(analysis.telemetry.breaches[i].channel, probe.slo().breaches[i].channel);
    EXPECT_EQ(analysis.telemetry.breaches[i].start, probe.slo().breaches[i].start);
    EXPECT_EQ(analysis.telemetry.breaches[i].peak, probe.slo().breaches[i].peak);
  }
  const std::string rendered = render_report(analysis, 10);
  EXPECT_NE(rendered.find("SLO"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Counter events: Tracer round trip and the timeline renderer.
// ---------------------------------------------------------------------------

TEST(Counters, ChromeJsonRoundTripRebuildsTheSeriesBitForBit) {
  TelemetryOptions topt;
  topt.interval = 2.0;
  TelemetryProbe probe(topt);
  Tracer tracer;
  auto opt = probed_service_opt();
  opt.telemetry = &probe;
  opt.tracer = &tracer;
  (void)workload::run_blast(PlacementStrategy::kRealTime, opt);

  const auto events = load_chrome_trace(tracer.chrome_json());
  const auto analysis = TraceAnalyzer::analyze(events);
  const auto& parsed = analysis.telemetry.series;
  ASSERT_EQ(parsed.channels().size(), probe.series().channels().size());
  for (std::size_t c = 0; c < parsed.channels().size(); ++c) {
    const auto& got = parsed.channels()[c];
    const auto& want = probe.series().channels()[c];
    EXPECT_EQ(got.name, want.name);
    ASSERT_EQ(got.v.size(), want.v.size()) << got.name;
    for (std::size_t i = 0; i < got.v.size(); ++i) {
      // Values survive exactly (shortest round-trip decimals); timestamps
      // go through the exporter's microsecond grid, so they only match to
      // the tick.
      EXPECT_EQ(got.v[i], want.v[i]) << got.name << "[" << i << "]";
      EXPECT_NEAR(got.t[i], want.t[i], 1e-6) << got.name << "[" << i << "]";
    }
  }
}

TEST(Counters, DetachedTracerStillRecordsTheSeries) {
  TelemetryProbe probe;
  probe.begin(0.0, nullptr);
  TelemetryTick raw;
  raw.queue_depth = 1.0;
  probe.tick(1.0, raw);
  probe.finish(1.0);
  EXPECT_NE(probe.series().find("queue_depth"), nullptr);
}

TEST(Counters, RenderTimelineShowsChannelsSparklinesAndBreaches) {
  Tracer tracer;
  TelemetryOptions topt;
  topt.interval = 2.0;
  topt.slo.push_back({"queue_depth", 0.0});  // breach whenever nonempty
  TelemetryProbe probe(topt);
  auto opt = probed_service_opt(4.0);
  opt.telemetry = &probe;
  opt.tracer = &tracer;
  (void)workload::run_blast(PlacementStrategy::kRealTime, opt);

  const auto analysis = TraceAnalyzer::analyze(load_chrome_trace(tracer.chrome_json()));
  const std::string out = render_timeline(analysis, 32);
  EXPECT_NE(out.find("queue_depth"), std::string::npos);
  EXPECT_NE(out.find("throughput"), std::string::npos);
  EXPECT_NE(out.find("SLO"), std::string::npos);
  // Sparklines draw from the fixed ramp; a loaded run has at least one
  // non-blank, non-baseline glyph somewhere.
  EXPECT_NE(out.find_first_of(":-=+*#%@"), std::string::npos);

  // A trace without counters renders the fallback, not a crash.
  TraceEvent ev;
  ev.name = "exec unit 0";
  ev.cat = "exec";
  ev.process = kWorkerTrack;
  ev.end = 1.0;
  const auto bare_analysis = TraceAnalyzer::analyze({ev});
  const std::string empty_out = render_timeline(bare_analysis, 32);
  EXPECT_NE(empty_out.find("no telemetry"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Wall-clock integration: rt::RtEngine sampling thread.
// ---------------------------------------------------------------------------

TEST(RtTelemetry, ThreadedRunSamplesOnWallClockAndObservesLatency) {
  namespace fs = std::filesystem;
  const fs::path root = fs::path(testing::TempDir()) / "frieda_rt_telemetry";
  fs::remove_all(root);
  const auto catalog = rt::make_dataset((root / "src").string(), 8, 4 * KiB, 7);

  rt::RtOptions ropt;
  ropt.strategy = PlacementStrategy::kRealTime;
  ropt.worker_count = 2;
  ropt.staging_root = (root / "stage").string();
  TelemetryOptions topt;
  topt.interval = 0.005;  // sample fast enough to land several wall ticks
  topt.slo.push_back({"queue_depth", 1e9});
  TelemetryProbe probe(topt);
  ropt.telemetry = &probe;

  rt::RtEngine engine((root / "src").string(), ropt);
  auto units = core::PartitionGenerator::generate(core::PartitionScheme::kSingleFile,
                                                  engine.catalog());
  const auto report = engine.run(
      std::move(units), core::CommandTemplate("analyze $inp1"),
      [](const core::WorkUnit&, const std::vector<std::string>&, const std::string&) {
        // Enough work that the 5 ms sampler fires at least once mid-run.
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        return true;
      });

  EXPECT_TRUE(report.all_completed());
  EXPECT_TRUE(probe.finished());
  EXPECT_GE(probe.tick_count(), 1u);
  const auto* done = probe.series().find("completed");
  ASSERT_NE(done, nullptr);
  EXPECT_DOUBLE_EQ(done->v.back(), static_cast<double>(report.units_completed));
  // Every unit's dispatch->terminal sojourn was observed, so the windowed
  // percentile channel exists and the final tick covers all units.
  EXPECT_NE(probe.series().find("latency_p99"), nullptr);
  EXPECT_EQ(probe.slo().total_breaches(), 0u);
  fs::remove_all(root);
}

}  // namespace
}  // namespace frieda::obs
