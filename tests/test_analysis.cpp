// TraceAnalyzer tests: hand-built synthetic traces with known critical
// paths and attribution totals (results asserted exactly), the Chrome JSON
// round-trip, and a real traced fig6a run where the analyzer's invariants
// (path tiles the makespan, attribution sums to worker-seconds) must hold.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "obs/analysis.hpp"
#include "obs/trace.hpp"
#include "workload/scenarios.hpp"

namespace frieda::obs {
namespace {

TraceEvent span(const char* name, const char* cat, std::uint32_t process,
                std::uint32_t track, double start, double end,
                std::vector<TraceArg> args = {}) {
  TraceEvent ev;
  ev.kind = TraceEvent::Kind::kSpan;
  ev.name = name;
  ev.cat = cat;
  ev.process = process;
  ev.track = track;
  ev.start = start;
  ev.end = end;
  ev.args = std::move(args);
  return ev;
}

/// Two workers under a [0, 10] run anchor:
///   W0: "stage a" [0,2] (staging) then "exec unit 0" [2,7]
///   W1: "remote-read b" [0,3] (transfer) then "exec unit 1" [3,9]
std::vector<TraceEvent> two_worker_trace() {
  return {
      span("run", "run", kRunTrack, 0, 0.0, 10.0),
      span("stage a", "staging", kWorkerTrack, 0, 0.0, 2.0, {{"unit", "0"}}),
      span("exec unit 0", "exec", kWorkerTrack, 0, 2.0, 7.0, {{"unit", "0"}, {"vm", "0"}}),
      span("remote-read b", "staging", kWorkerTrack, 1, 0.0, 3.0, {{"unit", "1"}}),
      span("exec unit 1", "exec", kWorkerTrack, 1, 3.0, 9.0, {{"unit", "1"}, {"vm", "0"}}),
  };
}

TEST(Analysis, SyntheticAttributionIsExact) {
  const auto a = TraceAnalyzer::analyze(two_worker_trace());
  EXPECT_TRUE(a.anchored);
  EXPECT_DOUBLE_EQ(a.makespan(), 10.0);
  ASSERT_EQ(a.workers.size(), 2u);
  EXPECT_DOUBLE_EQ(a.worker_seconds(), 20.0);

  const auto& w0 = a.workers[0].attribution;
  EXPECT_DOUBLE_EQ(w0.staging, 2.0);
  EXPECT_DOUBLE_EQ(w0.compute, 5.0);
  EXPECT_DOUBLE_EQ(w0.transfer, 0.0);
  EXPECT_DOUBLE_EQ(w0.idle, 3.0);

  const auto& w1 = a.workers[1].attribution;
  EXPECT_DOUBLE_EQ(w1.transfer, 3.0);  // remote-read spans are transfer
  EXPECT_DOUBLE_EQ(w1.compute, 6.0);
  EXPECT_DOUBLE_EQ(w1.staging, 0.0);
  EXPECT_DOUBLE_EQ(w1.idle, 1.0);

  EXPECT_DOUBLE_EQ(a.totals.compute, 11.0);
  EXPECT_DOUBLE_EQ(a.totals.transfer, 3.0);
  EXPECT_DOUBLE_EQ(a.totals.staging, 2.0);
  EXPECT_DOUBLE_EQ(a.totals.idle, 4.0);
  EXPECT_DOUBLE_EQ(a.totals.total(), a.worker_seconds());
}

TEST(Analysis, SyntheticCriticalPathIsExact) {
  const auto a = TraceAnalyzer::analyze(two_worker_trace());
  // Backward last-finisher walk: wait [9,10] <- exec unit 1 [3,9] <- its own
  // staging "remote-read b" [0,3] (same-unit preference on the end tie).
  ASSERT_EQ(a.critical_path.size(), 3u);
  EXPECT_EQ(a.critical_path[0].name, "remote-read b");
  EXPECT_DOUBLE_EQ(a.critical_path[0].start, 0.0);
  EXPECT_DOUBLE_EQ(a.critical_path[0].end, 3.0);
  EXPECT_EQ(a.critical_path[1].name, "exec unit 1");
  EXPECT_EQ(a.critical_path[1].unit, 1);
  EXPECT_DOUBLE_EQ(a.critical_path[1].duration(), 6.0);
  EXPECT_TRUE(a.critical_path[2].wait);
  EXPECT_DOUBLE_EQ(a.critical_path[2].duration(), 1.0);
  EXPECT_DOUBLE_EQ(a.critical_path_seconds(), a.makespan());
  EXPECT_DOUBLE_EQ(a.path_seconds("exec"), 6.0);
  EXPECT_DOUBLE_EQ(a.path_seconds("staging"), 3.0);
  EXPECT_DOUBLE_EQ(a.path_seconds("wait"), 1.0);
}

TEST(Analysis, GanttMergesAdjacentSameCategoryIntervals) {
  const auto a = TraceAnalyzer::analyze(two_worker_trace());
  // W0: staging [0,2], compute [2,7], idle [7,10];
  // W1: transfer [0,3], compute [3,9], idle [9,10].
  ASSERT_EQ(a.gantt.size(), 6u);
  EXPECT_EQ(a.gantt[0].worker, 0u);
  EXPECT_EQ(a.gantt[0].category, TimeCategory::kStaging);
  EXPECT_EQ(a.gantt[1].category, TimeCategory::kCompute);
  EXPECT_DOUBLE_EQ(a.gantt[1].start, 2.0);
  EXPECT_DOUBLE_EQ(a.gantt[1].end, 7.0);
  EXPECT_EQ(a.gantt[2].category, TimeCategory::kIdle);
  EXPECT_EQ(a.gantt[3].worker, 1u);
  EXPECT_EQ(a.gantt[3].category, TimeCategory::kTransfer);
  // Every worker's intervals tile the run window.
  double covered = 0.0;
  for (const auto& g : a.gantt) covered += g.end - g.start;
  EXPECT_DOUBLE_EQ(covered, a.worker_seconds());
}

TEST(Analysis, GapsBecomeWaitSegments) {
  const std::vector<TraceEvent> events = {
      span("run", "run", kRunTrack, 0, 0.0, 10.0),
      span("exec unit 0", "exec", kWorkerTrack, 0, 0.0, 4.0, {{"unit", "0"}}),
      span("exec unit 1", "exec", kWorkerTrack, 0, 6.0, 10.0, {{"unit", "1"}}),
  };
  const auto a = TraceAnalyzer::analyze(events);
  ASSERT_EQ(a.critical_path.size(), 3u);
  EXPECT_EQ(a.critical_path[0].name, "exec unit 0");
  EXPECT_TRUE(a.critical_path[1].wait);
  EXPECT_DOUBLE_EQ(a.critical_path[1].start, 4.0);
  EXPECT_DOUBLE_EQ(a.critical_path[1].end, 6.0);
  EXPECT_EQ(a.critical_path[2].name, "exec unit 1");
  EXPECT_DOUBLE_EQ(a.critical_path_seconds(), 10.0);
}

TEST(Analysis, OverlappingChainClipsPredecessor) {
  // B overlaps A's tail; the chain clips A out entirely (nothing *ends*
  // before B starts), leaving a wait for the window before B.
  const std::vector<TraceEvent> events = {
      span("run", "run", kRunTrack, 0, 0.0, 9.0),
      span("exec unit 0", "exec", kWorkerTrack, 0, 0.0, 5.0, {{"unit", "0"}}),
      span("exec unit 1", "exec", kWorkerTrack, 1, 4.0, 9.0, {{"unit", "1"}}),
  };
  const auto a = TraceAnalyzer::analyze(events);
  ASSERT_EQ(a.critical_path.size(), 2u);
  EXPECT_TRUE(a.critical_path[0].wait);
  EXPECT_DOUBLE_EQ(a.critical_path[0].end, 4.0);
  EXPECT_EQ(a.critical_path[1].name, "exec unit 1");
  EXPECT_DOUBLE_EQ(a.critical_path_seconds(), 9.0);
}

TEST(Analysis, OverlapOnOneWorkerResolvesByPriority) {
  // Prefetch pipelining: a remote-read runs *under* an exec span on the same
  // worker; the busier category (compute) wins the overlapped seconds.
  const std::vector<TraceEvent> events = {
      span("run", "run", kRunTrack, 0, 0.0, 10.0),
      span("exec unit 0", "exec", kWorkerTrack, 0, 0.0, 10.0, {{"unit", "0"}}),
      span("remote-read b", "staging", kWorkerTrack, 0, 2.0, 4.0, {{"unit", "1"}}),
  };
  const auto a = TraceAnalyzer::analyze(events);
  ASSERT_EQ(a.workers.size(), 1u);
  EXPECT_DOUBLE_EQ(a.workers[0].attribution.compute, 10.0);
  EXPECT_DOUBLE_EQ(a.workers[0].attribution.transfer, 0.0);
  EXPECT_DOUBLE_EQ(a.workers[0].attribution.idle, 0.0);
}

TEST(Analysis, NodeLevelStagingAttributesToTheVmsWorkers) {
  // stage-common runs on the run track (lane = VM id); both workers that
  // exec on that VM get charged for it.
  const std::vector<TraceEvent> events = {
      span("run", "run", kRunTrack, 0, 0.0, 10.0),
      span("stage-common db", "staging", kRunTrack, 0, 0.0, 4.0),
      span("exec unit 0", "exec", kWorkerTrack, 0, 4.0, 9.0, {{"unit", "0"}, {"vm", "0"}}),
      span("exec unit 1", "exec", kWorkerTrack, 1, 4.0, 8.0, {{"unit", "1"}, {"vm", "0"}}),
  };
  const auto a = TraceAnalyzer::analyze(events);
  ASSERT_EQ(a.workers.size(), 2u);
  EXPECT_DOUBLE_EQ(a.workers[0].attribution.staging, 4.0);
  EXPECT_DOUBLE_EQ(a.workers[1].attribution.staging, 4.0);
  EXPECT_DOUBLE_EQ(a.workers[0].attribution.compute, 5.0);
  EXPECT_DOUBLE_EQ(a.workers[1].attribution.compute, 4.0);
  EXPECT_DOUBLE_EQ(a.totals.total(), a.worker_seconds());
}

TEST(Analysis, UnanchoredTraceFallsBackToEventExtent) {
  const std::vector<TraceEvent> events = {
      span("exec unit 0", "exec", kWorkerTrack, 0, 1.0, 5.0, {{"unit", "0"}}),
  };
  const auto a = TraceAnalyzer::analyze(events);
  EXPECT_FALSE(a.anchored);
  EXPECT_DOUBLE_EQ(a.run_start, 1.0);
  EXPECT_DOUBLE_EQ(a.run_end, 5.0);
  EXPECT_DOUBLE_EQ(a.critical_path_seconds(), 4.0);
}

TEST(Analysis, EmptyTraceYieldsEmptyAnalysis) {
  const auto a = TraceAnalyzer::analyze(std::vector<TraceEvent>{});
  EXPECT_EQ(a.events, 0u);
  EXPECT_TRUE(a.critical_path.empty());
  EXPECT_TRUE(a.workers.empty());
  EXPECT_DOUBLE_EQ(a.makespan(), 0.0);
}

TEST(Analysis, SpansOutsideTheRunWindowAreClipped) {
  // Warm-up staging before the anchor and a straggler after it must not
  // leak into attribution: totals still sum to worker-seconds.
  const std::vector<TraceEvent> events = {
      span("run", "run", kRunTrack, 0, 2.0, 8.0),
      span("stage a", "staging", kWorkerTrack, 0, 0.0, 3.0, {{"unit", "0"}}),
      span("exec unit 0", "exec", kWorkerTrack, 0, 3.0, 9.0, {{"unit", "0"}}),
  };
  const auto a = TraceAnalyzer::analyze(events);
  EXPECT_DOUBLE_EQ(a.makespan(), 6.0);
  ASSERT_EQ(a.workers.size(), 1u);
  EXPECT_DOUBLE_EQ(a.workers[0].attribution.staging, 1.0);  // [2,3]
  EXPECT_DOUBLE_EQ(a.workers[0].attribution.compute, 5.0);  // [3,8]
  EXPECT_DOUBLE_EQ(a.totals.total(), a.worker_seconds());
  EXPECT_NEAR(a.critical_path_seconds(), a.makespan(), 1e-9);
}

// ---------------------------------------------------------------------------
// Chrome JSON round-trip
// ---------------------------------------------------------------------------

TEST(Analysis, ChromeJsonRoundTripPreservesAnalysis) {
  Tracer tracer;
  for (auto& ev : two_worker_trace()) tracer.span(std::move(ev));
  const auto direct = TraceAnalyzer::analyze(tracer);

  const auto events = load_chrome_trace(tracer.chrome_json());
  ASSERT_EQ(events.size(), tracer.event_count());
  const auto loaded = TraceAnalyzer::analyze(events);

  // The export rounds to integer microseconds; everything must agree to
  // that resolution.
  constexpr double kTol = 2e-6;
  EXPECT_TRUE(loaded.anchored);
  EXPECT_NEAR(loaded.makespan(), direct.makespan(), kTol);
  EXPECT_EQ(loaded.workers.size(), direct.workers.size());
  EXPECT_NEAR(loaded.totals.compute, direct.totals.compute, kTol);
  EXPECT_NEAR(loaded.totals.transfer, direct.totals.transfer, kTol);
  EXPECT_NEAR(loaded.totals.staging, direct.totals.staging, kTol);
  EXPECT_NEAR(loaded.totals.idle, direct.totals.idle, kTol);
  ASSERT_EQ(loaded.critical_path.size(), direct.critical_path.size());
  for (std::size_t i = 0; i < loaded.critical_path.size(); ++i) {
    EXPECT_EQ(loaded.critical_path[i].name, direct.critical_path[i].name);
  }
}

TEST(Analysis, LoadChromeTraceRejectsGarbage) {
  EXPECT_THROW(load_chrome_trace("not json"), FriedaError);
  EXPECT_THROW(load_chrome_trace("{\"traceEvents\":42}"), FriedaError);
  EXPECT_THROW(load_chrome_trace("{\"traceEvents\":[{\"ph\":\"X\"}]}"), FriedaError);
  EXPECT_THROW(load_chrome_trace("{\"traceEvents\":[]} trailing"), FriedaError);
  // Metadata-only documents are valid (and analyze to nothing).
  const auto events = load_chrome_trace(
      "{\"traceEvents\":[{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1}]}");
  EXPECT_TRUE(events.empty());
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

TEST(Analysis, RenderReportAndCsvExports) {
  const auto a = TraceAnalyzer::analyze(two_worker_trace());
  const auto report = render_report(a);
  EXPECT_NE(report.find("compute"), std::string::npos);
  EXPECT_NE(report.find("Critical path"), std::string::npos);
  EXPECT_NE(report.find("remote-read b"), std::string::npos);

  const auto gantt = gantt_csv(a);
  EXPECT_EQ(gantt.substr(0, gantt.find('\n')), "worker,category,start_s,end_s,dur_s");
  std::size_t lines = 0;
  for (const char c : gantt) lines += c == '\n';
  EXPECT_EQ(lines, 1 + a.gantt.size());

  const auto path = critical_path_csv(a);
  EXPECT_NE(path.find("wait"), std::string::npos);
  EXPECT_NE(path.find("exec unit 1"), std::string::npos);
}

TEST(Analysis, TruncatedTraceIsFlaggedInAnalysisAndReport) {
  Tracer tracer;
  tracer.set_max_events(2);
  for (auto& ev : two_worker_trace()) tracer.span(std::move(ev));
  ASSERT_GT(tracer.dropped_events(), 0u);

  const auto direct = TraceAnalyzer::analyze(tracer);
  EXPECT_TRUE(direct.truncated());
  EXPECT_NE(render_report(direct).find("truncated"), std::string::npos);

  // The marker survives the JSON round trip.
  const auto loaded = TraceAnalyzer::analyze(load_chrome_trace(tracer.chrome_json()));
  EXPECT_TRUE(loaded.truncated());
  EXPECT_EQ(loaded.dropped_events, tracer.dropped_events());
}

TEST(Analysis, SolverStatsParseFromTheAnchorSpan) {
  auto events = two_worker_trace();
  events[0].args = {{"net_solves", "40"},
                    {"net_full_solves", "4"},
                    {"net_dirty_classes", "120"}};
  const auto a = TraceAnalyzer::analyze(events);
  ASSERT_TRUE(a.solver_stats);
  EXPECT_EQ(a.net_solves, 40u);
  EXPECT_EQ(a.net_full_solves, 4u);
  EXPECT_EQ(a.net_dirty_classes, 120u);
  EXPECT_DOUBLE_EQ(a.incremental_share(), 0.9);
  EXPECT_DOUBLE_EQ(a.avg_dirty_classes(), 3.0);

  const auto report = render_report(a);
  EXPECT_NE(report.find("Network solver: 40 solves"), std::string::npos);
  EXPECT_NE(report.find("90.0% incremental"), std::string::npos);

  // Traces recorded before the solver args existed analyze fine without them.
  const auto legacy = TraceAnalyzer::analyze(two_worker_trace());
  EXPECT_FALSE(legacy.solver_stats);
  EXPECT_EQ(render_report(legacy).find("Network solver"), std::string::npos);
}

TEST(Analysis, ServiceLatencyParsesFromTheAnchorSpan) {
  auto events = two_worker_trace();
  events[0].args = {{"latency_p50", "12.5"},
                    {"latency_p95", "30.25"},
                    {"latency_p99", "41"},
                    {"sustained_tput", "1.875"}};
  const auto a = TraceAnalyzer::analyze(events);
  ASSERT_TRUE(a.latency_stats);
  EXPECT_DOUBLE_EQ(a.latency_p50, 12.5);
  EXPECT_DOUBLE_EQ(a.latency_p95, 30.25);
  EXPECT_DOUBLE_EQ(a.latency_p99, 41.0);
  EXPECT_DOUBLE_EQ(a.sustained_tput, 1.875);

  const auto report = render_report(a);
  EXPECT_NE(report.find("Open-loop latency"), std::string::npos);
  EXPECT_NE(report.find("p99 41.000 s"), std::string::npos);

  // Closed-batch traces carry no latency args and render no latency line.
  const auto closed = TraceAnalyzer::analyze(two_worker_trace());
  EXPECT_FALSE(closed.latency_stats);
  EXPECT_EQ(render_report(closed).find("Open-loop latency"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Real traced fig6a run: the acceptance invariants
// ---------------------------------------------------------------------------

TEST(Analysis, TracedFig6aPathTilesMakespanAndAttributionSumsToWorkerSeconds) {
  Tracer tracer;
  workload::PaperScenarioOptions opt;
  opt.scale = 0.02;
  opt.tracer = &tracer;
  const auto report = workload::run_als(core::PlacementStrategy::kRealTime, opt);
  ASSERT_TRUE(report.all_completed());

  const auto a = TraceAnalyzer::analyze(tracer);
  ASSERT_TRUE(a.anchored);
  // The anchor span carries the reported run window verbatim.
  EXPECT_NEAR(a.makespan(), report.makespan(), 1e-9);

  // FriedaRun stamps solver activity on the anchor: a real-time ALS run
  // moves data, so the solver ran and most solves were incremental.
  ASSERT_TRUE(a.solver_stats);
  EXPECT_GT(a.net_solves, 0u);
  EXPECT_GE(a.net_solves, a.net_full_solves);
  EXPECT_GE(a.net_dirty_classes, a.net_solves - a.net_full_solves);

  // Critical path tiles the window.
  EXPECT_NEAR(a.critical_path_seconds(), a.makespan(), 1e-6 * std::max(1.0, a.makespan()));
  std::size_t real_segments = 0;
  for (const auto& seg : a.critical_path) real_segments += !seg.wait;
  EXPECT_GT(real_segments, 0u);

  // Attribution partitions worker-seconds, with real work in every bucket
  // that the strategy exercises (real-time ALS computes and remote-reads).
  EXPECT_GT(a.workers.size(), 0u);
  EXPECT_LE(a.workers.size(), report.workers.size());
  EXPECT_NEAR(a.totals.total(), a.worker_seconds(), 1e-6 * std::max(1.0, a.worker_seconds()));
  EXPECT_GT(a.totals.compute, 0.0);
  const double pct = 100.0 * a.totals.total() / a.worker_seconds();
  EXPECT_NEAR(pct, 100.0, 0.1);
}

}  // namespace
}  // namespace frieda::obs
