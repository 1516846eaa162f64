// Trace analytics: turn a finished `Tracer` event stream into answers.
//
// PR 2's tracer records *what happened when* (unit lifecycle, staging, exec,
// network flows); this layer computes *where the time went*:
//
//   * Critical path — the dependency chain of staging/exec spans that bounds
//     the run's makespan, found by a deterministic last-finisher backward
//     walk from the end of the run.  Gaps where nothing relevant was
//     finishing become explicit synthetic "wait" segments, so the segment
//     durations tile the run window exactly and always sum to the makespan.
//   * Time attribution — every worker-second of the run is assigned to
//     exactly one of four categories (compute, network transfer, storage
//     staging, idle/wait), per worker and in aggregate.  The categories
//     partition each worker's copy of the run window, so the totals sum to
//     worker-count x makespan by construction — the compute/data-movement
//     decomposition the paper uses to compare placement strategies
//     (Fig. 6-7, Table 1).
//   * Utilization timelines — merged per-worker category intervals,
//     exportable as a Gantt-style CSV.
//
// Works on live `Tracer` objects and on exported Chrome trace-event JSON
// (see `load_chrome_trace` and the `frieda-trace` CLI in tools/).  Both
// clock domains are fine: simulation seconds (core::FriedaRun) and wall
// seconds (rt::RtEngine) — the analyzer only needs a consistent timeline.
//
// Category mapping (see docs/observability.md, "Trace analysis"):
//   compute   — `exec` spans (a program instance occupies the worker);
//   transfer  — `staging` spans named "remote-read ..." (execution-time
//               streaming over the network: remote-read / shared-volume);
//   staging   — every other `staging` span (moving inputs to worker-local
//               storage ahead of execution), including node-level
//               stage-common / stage-node spans attributed to the workers of
//               that VM;
//   idle      — the rest of the window (scheduler wait, pipeline bubbles,
//               post-completion drain).
// Where categories overlap on one worker lane (real-time prefetch pipelines
// staging under execution), the higher-occupancy category wins:
// compute > transfer > staging.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace frieda::obs {

/// Sampled telemetry recovered from a trace: the counter events (cat
/// "telemetry", one channel per event) regrouped into a Timeseries, plus
/// any SLO breach spans (cat "slo") the probe emitted at finish().
struct TelemetryView {
  Timeseries series;
  std::vector<SloBreach> breaches;

  bool empty() const { return series.empty() && breaches.empty(); }
};

/// The four attribution buckets; every worker-second lands in exactly one.
enum class TimeCategory { kCompute, kTransfer, kStaging, kIdle };

/// Stable lower-case label ("compute", "transfer", "staging", "idle").
const char* to_string(TimeCategory c);

/// Seconds per category; one per worker plus the aggregate.
struct Attribution {
  double compute = 0.0;   ///< exec spans
  double transfer = 0.0;  ///< execution-time network reads
  double staging = 0.0;   ///< ahead-of-execution input staging
  double idle = 0.0;      ///< everything else in the window

  double busy() const { return compute + transfer + staging; }
  double total() const { return busy() + idle; }
  double of(TimeCategory c) const;
};

/// One link of the critical path: a traced span (clipped to the chain) or a
/// synthetic wait segment covering a gap where nothing on the path ran.
struct PathSegment {
  bool wait = false;         ///< synthetic gap segment (name "wait")
  std::string name;
  std::string cat;           ///< source span category; "wait" for gaps
  std::uint32_t process = 0; ///< track group of the source span
  std::uint32_t track = 0;   ///< lane of the source span
  int unit = -1;             ///< unit arg of the source span, -1 when absent
  double start = 0.0;
  double end = 0.0;

  double duration() const { return end - start; }
};

/// One maximal same-category stretch of a worker's timeline.
struct GanttInterval {
  std::uint32_t worker = 0;
  TimeCategory category = TimeCategory::kIdle;
  double start = 0.0;
  double end = 0.0;
};

/// Attribution of one worker lane over the run window.
struct WorkerUsage {
  std::uint32_t worker = 0;
  Attribution attribution;
};

/// Everything the analyzer computed from one trace.
struct TraceAnalysis {
  // Run window.  `anchored` is true when a run-level span (cat "run",
  // emitted by FriedaRun / RtEngine since this layer exists) pinned the
  // window to the run's own [start, end]; otherwise the window is the
  // min/max over all recorded events.
  double run_start = 0.0;
  double run_end = 0.0;
  bool anchored = false;
  double makespan() const { return run_end - run_start; }

  // Inventory.
  std::size_t events = 0;  ///< all events analyzed
  std::size_t spans = 0;   ///< span events among them
  std::size_t units = 0;   ///< unit lifecycle spans
  std::uint64_t dropped_events = 0;  ///< from a trace-truncated marker, if any
  bool truncated() const { return dropped_events > 0; }

  // Network solver activity over the run window, from the anchor span's
  // net_solves / net_full_solves / net_dirty_classes args (emitted by
  // FriedaRun since the incremental max-min solver landed).  `solver_stats`
  // is false for traces recorded before those args existed.
  bool solver_stats = false;
  std::uint64_t net_solves = 0;         ///< solver invocations (any kind)
  std::uint64_t net_full_solves = 0;    ///< from-scratch rebuild solves
  std::uint64_t net_dirty_classes = 0;  ///< sum of dirty component sizes
  double incremental_share() const {
    return net_solves > 0
               ? static_cast<double>(net_solves - net_full_solves) / net_solves
               : 0.0;
  }
  double avg_dirty_classes() const {
    return net_solves > 0 ? static_cast<double>(net_dirty_classes) / net_solves : 0.0;
  }

  // Open-loop service latency over the run window, from the anchor span's
  // latency_p50/p95/p99 + sustained_tput args (emitted by FriedaRun's
  // service mode).  `latency_stats` is false for closed-batch traces.
  bool latency_stats = false;
  double latency_p50 = 0.0;       ///< median sojourn (arrival -> completion), s
  double latency_p95 = 0.0;
  double latency_p99 = 0.0;
  double sustained_tput = 0.0;    ///< completions per second while serving

  // Live telemetry sampled while the run was in flight (a TelemetryProbe
  // was attached).  Empty for untelemetered traces.
  TelemetryView telemetry;

  // SLO totals from the anchor span's slo_breaches / slo_violation_s args
  // (present when the probe had declared targets).
  bool slo_stats = false;
  std::uint64_t slo_breach_count = 0;
  double slo_violation_s = 0.0;

  // Critical path, chronological.  The segments tile [run_start, run_end]:
  // their durations sum to makespan() up to float tolerance.
  std::vector<PathSegment> critical_path;
  double critical_path_seconds() const;
  /// Seconds of the path spent in spans of `cat` ("wait" for gap segments).
  double path_seconds(const std::string& cat) const;

  // Attribution, per worker (ascending id) and in aggregate.  `totals`
  // sums to worker_seconds() by construction.
  std::vector<WorkerUsage> workers;
  Attribution totals;
  double worker_seconds() const {
    return static_cast<double>(workers.size()) * makespan();
  }

  // Per-worker utilization timeline: merged category intervals (idle
  // included), ordered by (worker, start).
  std::vector<GanttInterval> gantt;
};

/// The analysis entry points.  Pure functions of the event stream — the
/// tracer overload snapshots `tracer.events()` and carries over its
/// dropped-events counter.
class TraceAnalyzer {
 public:
  static TraceAnalysis analyze(const std::vector<TraceEvent>& events);
  static TraceAnalysis analyze(const Tracer& tracer);
};

/// Human-readable report: attribution tables (aggregate + per-worker) and
/// the critical path.  `max_path_rows` caps the printed segment list (the
/// middle is elided); the per-category path summary always covers the full
/// chain.
std::string render_report(const TraceAnalysis& analysis, std::size_t max_path_rows = 40);

/// Gantt-style CSV of the utilization timelines:
/// worker,category,start_s,end_s,dur_s — one row per GanttInterval.
std::string gantt_csv(const TraceAnalysis& analysis);

/// Critical-path CSV: segment,kind,cat,name,process,track,start_s,end_s,dur_s.
std::string critical_path_csv(const TraceAnalysis& analysis);

/// Timeline report from the recovered TelemetryView: per-channel stats with
/// ascii sparklines, followed by SLO breach intervals.  `width` is the
/// sparkline column budget.
std::string render_timeline(const TraceAnalysis& analysis, std::size_t width = 60);

/// Parse an exported Chrome trace-event JSON document (the format
/// Tracer::chrome_json writes: complete "X" spans, "i" instants, "C"
/// counters, "M" metadata records, microsecond timestamps) back into events with
/// timestamps in seconds.  Metadata records are skipped.  Throws FriedaError
/// on malformed input.
std::vector<TraceEvent> load_chrome_trace(const std::string& json_text);

/// Read + parse a Chrome trace JSON file (throws FriedaError on I/O errors).
std::vector<TraceEvent> read_chrome_trace(const std::string& path);

}  // namespace frieda::obs
