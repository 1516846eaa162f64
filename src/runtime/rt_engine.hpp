// The threaded FRIEDA runtime: the same two-plane protocol as the simulated
// deployment, executed by real std::threads over real files.
//
// Roles map 1:1 onto the paper's actors:
//   * the engine's orchestration thread is the controller+master — it
//     initializes the run, computes partitions, and farms work units;
//   * each worker is a thread with its own inbox of MasterMessages, sending
//     WorkerMessages (register / request / status) back;
//   * data transfer is a throttled file copy from the source directory into
//     the worker's staging directory (a TokenBucket plays the 100 Mbps NIC).
//
// Strategies supported: pre-partition-local (execute against the source in
// place), pre-partition-remote (stage every worker's share up front, then
// execute), real-time (lazy: each assignment is staged when dispatched,
// overlapping transfers with execution across workers).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "frieda/command.hpp"
#include "frieda/types.hpp"
#include "storage/file.hpp"

namespace frieda::obs {
class MetricsRegistry;
class TelemetryProbe;
class Tracer;
}  // namespace frieda::obs

namespace frieda::rt {

/// Runtime configuration (the controller's directives).
struct RtOptions {
  core::PlacementStrategy strategy = core::PlacementStrategy::kRealTime;
  core::AssignmentPolicy assignment = core::AssignmentPolicy::kRoundRobin;
  std::size_t worker_count = 4;   ///< program instances ("multicore" clones)
  double bandwidth = 0.0;         ///< staging throttle, bytes/s (0 = unlimited)
  std::string staging_root;       ///< where worker copies land (required
                                  ///< unless strategy is pre-partition-local)
  bool keep_staged_files = false; ///< leave copies behind for inspection
  obs::Tracer* tracer = nullptr;  ///< opt-in wall-clock tracing (timestamps
                                  ///< are seconds since run start); nullptr
                                  ///< disables every tap
  obs::TelemetryProbe* telemetry = nullptr;  ///< opt-in live telemetry: a
                                  ///< sampling thread ticks the probe on its
                                  ///< interval in wall time (queue depth,
                                  ///< in-flight, windowed unit-latency
                                  ///< percentiles); nullptr = off, zero cost
};

/// Executes one program instance.  `input_paths` are the staged (or source)
/// file locations, already substituted into `command` for display; returns
/// success.  FRIEDA never interprets the program — this is the unmodified
/// application boundary of Section II.C.
using TaskExecutor = std::function<bool(const core::WorkUnit& unit,
                                        const std::vector<std::string>& input_paths,
                                        const std::string& command)>;

/// Per-unit outcome in a threaded run (wall-clock seconds).
struct RtUnitRecord {
  core::WorkUnitId unit = 0;
  core::WorkerId worker = 0;
  bool ok = false;
  double transfer_seconds = 0.0;
  double exec_seconds = 0.0;
  int attempts = 0;  ///< dispatch attempts (1 once dispatched; rt never requeues)
};

/// Result of one threaded run.
struct RtReport {
  double makespan = 0.0;           ///< wall time of the whole run
  double staging_seconds = 0.0;    ///< upfront staging phase (pre modes)
  std::size_t units_completed = 0;
  std::size_t units_failed = 0;
  std::uint64_t bytes_staged = 0;
  std::vector<RtUnitRecord> units;
  std::vector<std::size_t> per_worker_completed;

  /// True when every unit completed.  A zero-unit run is vacuously complete:
  /// nothing was asked for and nothing failed.
  bool all_completed() const { return units_failed == 0 && units_completed == units.size(); }

  /// Export the report's aggregates into `registry` as rt.* gauges plus
  /// per-unit transfer/exec distributions as rt.unit_* stats instruments.
  void fill_metrics(obs::MetricsRegistry& registry) const;
};

/// One configured threaded deployment over a source directory.
class RtEngine {
 public:
  /// Scan `source_dir` for regular files (sorted by name) as the catalog.
  /// Throws FriedaError when the directory is missing or empty, or when the
  /// options are inconsistent.
  RtEngine(std::string source_dir, RtOptions options);

  /// The scanned input directory.
  const storage::FileCatalog& catalog() const { return catalog_; }

  /// Farm the units across the worker threads; blocks until done.
  RtReport run(std::vector<core::WorkUnit> units, const core::CommandTemplate& command,
               TaskExecutor executor);

 private:
  std::string source_dir_;
  RtOptions options_;
  storage::FileCatalog catalog_;
};

/// Create `count` real files of `bytes_each` pseudo-random bytes under `dir`
/// (created if needed); returns the matching catalog.  For tests/examples.
storage::FileCatalog make_dataset(const std::string& dir, std::size_t count,
                                  Bytes bytes_each, std::uint64_t seed = 1);

}  // namespace frieda::rt
