// Parallel sweep engine: memoized, cost-aware batch execution of scenario
// runs on a thread pool.
//
// The paper's entire evaluation — Table I, Figures 6–7, the eight ablations —
// is a grid of *independent, deterministic* simulation runs.  A `SweepRunner`
// executes such a grid on a fixed pool of worker threads and returns results
// **in job order**, regardless of worker count, completion order, or steal
// order, so a sweep's tables and CSVs are byte-identical to running the same
// jobs sequentially.
//
// Work stealing (see docs/performance.md, "Thread pool and work stealing"):
// jobs are dispatched through per-worker deques dealt in schedule order; an
// idle worker steals the front half of the fattest victim's backlog
// (`rt::MpmcQueue::try_pop_half`), so a skewed grid cannot strand workers
// behind a few long deques.  Steal batches are counted in the `sweep.steals`
// metric.  Stealing moves whole jobs before they start — outcome slots and
// per-job seeds never change, only which worker runs what.
//
// Scheduling (see docs/performance.md, "Memoization and cost-aware
// scheduling"):
//   * Jobs carrying a config `Fingerprint` are memoized within the batch:
//     duplicate cells execute once and their twins copy the primary's
//     outcome (`SweepOptions::memoize` turns this off).  Twins are copies of
//     deterministic runs, hence field-identical to executing.
//   * Jobs are dispatched longest-first by their `cost` estimate, so one
//     expensive cell at the tail of a skewed grid no longer idles the rest
//     of the pool.  Outcome slots stay in job order; only the dispatch
//     order changes, and `schedule()` exposes it for tests.
//   * A `frieda_obs::MetricsRegistry` owned by the runner tracks progress
//     (sweep.jobs_completed / sweep.cache_hits / sweep.runs_executed /
//     sweep.steals counters, a sweep.in_flight gauge, sweep.wall_per_job_s
//     stats).
//   * An opt-in `obs::ProgressReporter` (set_progress, or the
//     FRIEDA_SWEEP_PROGRESS environment variable) prints throttled live
//     progress lines with a cost-weighted ETA; off by default, so driver
//     stdout and committed CSVs are unaffected.
//
// Determinism rules:
//   * Each job owns its `sim::Simulation`/`cluster::VirtualCluster`/`Rng` —
//     thread-confined by construction; jobs share only immutable inputs
//     (e.g. a const workload model, see `workload::make_als_model`).
//   * Result slot `i` always belongs to job `i`; neither the pool nor the
//     longest-first schedule ever reorders outcomes.
//   * Per-job seeds, when derived, come from `derive_seed(base, job_index)`
//     (SplitMix64), so appending jobs to a grid never perturbs the seeds —
//     and therefore the results — of the jobs already in it.
//   * A throwing job is isolated: its outcome carries the error message, all
//     other jobs still run to completion.  A failed primary's twins carry
//     the same error.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "frieda/report.hpp"
#include "obs/metrics.hpp"
#include "obs/report_sink.hpp"

namespace frieda::exp {

/// Derive the seed of job `job_index` in a sweep with base seed `base_seed`.
/// Pure SplitMix64 mixing of the pair: depends only on (base, index), so a
/// job keeps its seed when other jobs are added before or after it.
std::uint64_t derive_seed(std::uint64_t base_seed, std::uint64_t job_index);

/// Pool configuration for one sweep.
struct SweepOptions {
  /// Worker threads; 0 = auto (the FRIEDA_SWEEP_THREADS environment
  /// variable if set and valid, else std::thread::hardware_concurrency()).
  /// The pool never spawns more threads than there are jobs to execute.
  std::size_t threads = 0;

  /// Opt-out for memoization: when false in-batch duplicates are not
  /// collapsed and every job executes.
  bool memoize = true;

  /// Opt-out for steal-half dispatch (benchmarks and tests only): when
  /// false each worker runs exactly its dealt share of the schedule and
  /// idles when it's done — the stranding behavior stealing eliminates.
  /// Results are identical either way; only the idle tail differs.
  bool steal = true;
};

namespace detail {

/// Values FRIEDA_SWEEP_THREADS will accept; anything above is treated as a
/// typo rather than a request for ten thousand threads.
constexpr long kMaxSweepThreads = 4096;

/// Parse a FRIEDA_SWEEP_THREADS value.  Returns the thread count, or 0 when
/// the text is not a plain integer in [1, kMaxSweepThreads] (garbage, empty,
/// zero, negative, trailing junk, or absurdly large) — the caller falls back
/// and logs.
std::size_t parse_threads_env(const char* text);

/// Run `body(i)` for every i in `indices` on `threads` pool workers with
/// steal-half dispatch: positions are dealt round-robin in `indices` order
/// onto per-worker deques, and an idle worker steals the front half of the
/// fattest victim's backlog (disabled when `steal` is false — static
/// partition).  Returns one error string per *position in `indices`*
/// (empty = the call returned normally); a throwing body never takes down
/// the pool or other indices.  `steals_out`, when non-null, receives the
/// number of successful steal batches.
std::vector<std::string> run_stealing(const std::vector<std::size_t>& indices,
                                      std::size_t threads,
                                      const std::function<void(std::size_t)>& body,
                                      bool steal, std::uint64_t* steals_out);

/// Resolve SweepOptions::threads against the environment, the hardware and
/// the job count (always >= 1 for a non-empty batch).  Invalid
/// FRIEDA_SWEEP_THREADS values fall back to hardware_concurrency with a
/// warning log line instead of being silently swallowed.
std::size_t resolve_threads(std::size_t requested, std::size_t jobs);

/// Dispatch order for the given cost estimates: indices sorted by
/// descending cost, ties keeping submission order (stable).
std::vector<std::size_t> longest_first(const std::vector<double>& costs);

}  // namespace detail

/// One unit of sweep work: a tag (for reports and error messages), a
/// thread-confined callable producing the result, and the scheduling
/// annotations.  `{tag, fn}` still works: such a job has no fingerprint
/// (never memoized) and unit cost (FIFO dispatch among its peers).
template <typename R = core::RunReport>
struct Job {
  Job() = default;
  Job(std::string tag_, std::function<R()> fn_,
      std::optional<Fingerprint> fingerprint_ = std::nullopt, double cost_ = 1.0)
      : tag(std::move(tag_)), fn(std::move(fn_)), fingerprint(fingerprint_), cost(cost_) {}

  std::string tag;
  std::function<R()> fn;

  /// Memoization key; set only when the job is a pure function of a
  /// hashable configuration (see exp::scenario_fingerprint).
  std::optional<Fingerprint> fingerprint;

  /// Relative wall-time estimate for longest-first dispatch (any unit,
  /// only the ordering matters).
  double cost = 1.0;
};

/// Result slot of one job: the value, or the error that replaced it.
template <typename R = core::RunReport>
struct JobOutcome {
  std::string tag;
  std::optional<R> value;  ///< empty when the job threw
  std::string error;       ///< non-empty when the job threw
  bool from_cache = false; ///< copied from an in-batch twin instead of executing

  bool ok() const { return value.has_value(); }

  /// The job's result; throws FriedaError naming the job when it failed.
  const R& get() const {
    FRIEDA_CHECK(value.has_value(), "sweep job '" << tag << "' failed: " << error);
    return *value;
  }
};

/// Thread-pooled batch executor.  `run()` blocks until every job finished
/// and returns outcomes in deterministic job order.
template <typename R = core::RunReport>
class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions opt = {}) : opt_(opt) {}

  /// Attach a live progress reporter (see obs/report_sink.hpp).  Off by
  /// default: with no reporter attached — and FRIEDA_SWEEP_PROGRESS unset —
  /// the runner prints nothing, so driver output stays byte-identical.
  /// The reporter must outlive run(); nullptr detaches.
  void set_progress(obs::ProgressReporter* progress) { progress_ = progress; }

  std::vector<JobOutcome<R>> run(std::vector<Job<R>> jobs) {
    const std::size_t n = jobs.size();
    std::vector<JobOutcome<R>> out(n);
    for (std::size_t i = 0; i < n; ++i) out[i].tag = jobs[i].tag;
    runs_requested_ = n;
    cache_hits_ = 0;
    steals_ = 0;
    schedule_.clear();

    // Phase 1 — memoization: collapse in-batch duplicates onto one primary,
    // collect the jobs that must actually execute.
    std::vector<std::size_t> execute;
    std::vector<std::optional<std::size_t>> twin_of(n);  // job -> earlier identical job
    std::map<Fingerprint, std::size_t> primary;
    for (std::size_t i = 0; i < n; ++i) {
      const auto& fp = jobs[i].fingerprint;
      if (opt_.memoize && fp.has_value()) {
        const auto [it, fresh] = primary.try_emplace(*fp, i);
        if (!fresh) {
          twin_of[i] = it->second;
          ++cache_hits_;
          continue;
        }
      }
      execute.push_back(i);
    }

    // Phase 2 — cost-aware dispatch: longest estimated job first, so a
    // skewed grid's long pole starts immediately instead of tailing the
    // FIFO.  Outcome slots are untouched; only the dispatch order changes.
    {
      std::vector<double> costs;
      costs.reserve(execute.size());
      for (const std::size_t i : execute) costs.push_back(jobs[i].cost);
      const auto order = detail::longest_first(costs);
      schedule_.reserve(order.size());
      for (const std::size_t p : order) schedule_.push_back(execute[p]);
    }
    threads_used_ = detail::resolve_threads(opt_.threads, schedule_.size());

    auto& completed = metrics_.counter("sweep.jobs_completed");
    auto& hits_ctr = metrics_.counter("sweep.cache_hits");
    auto& executed_ctr = metrics_.counter("sweep.runs_executed");
    auto& steals_ctr = metrics_.counter("sweep.steals");
    auto& in_flight = metrics_.gauge("sweep.in_flight");
    auto& wall_per_job = metrics_.stats("sweep.wall_per_job_s");

    // Live progress: an attached reporter wins; otherwise the
    // FRIEDA_SWEEP_PROGRESS environment variable can enable one for this
    // run.  Both off (the default) means zero output.
    std::unique_ptr<obs::ProgressReporter> env_progress;
    obs::ProgressReporter* progress = progress_;
    if (progress == nullptr) {
      env_progress = obs::ProgressReporter::from_env();
      progress = env_progress.get();
    }
    // batch_cost sums *scheduled* jobs only — twins' weight is subtracted up
    // front, and `served` removes them from the reporter's count fallback,
    // so a duplicate-heavy grid's ETA tracks the jobs that actually execute
    // instead of the memoized ones completing at zero cost.
    double batch_cost = 0.0;
    for (const std::size_t i : schedule_) batch_cost += jobs[i].cost;
    const std::size_t served = n - schedule_.size();  // in-batch twins
    if (progress != nullptr) progress->begin(n, batch_cost, served);

    std::size_t done_jobs = 0;  // guarded by metrics_mutex_
    double done_cost = 0.0;     // guarded by metrics_mutex_

    const auto t0 = std::chrono::steady_clock::now();
    const std::function<void(std::size_t)> body = [&](std::size_t i) {
      const auto j0 = std::chrono::steady_clock::now();
      {
        std::lock_guard<std::mutex> lock(metrics_mutex_);
        in_flight.set(in_flight.value() + 1);
      }
      // Instruments are single-writer by contract; pool threads share these,
      // so every update goes through metrics_mutex_ — including the
      // completion bookkeeping, which must also run when fn() throws.
      struct Done {
        SweepRunner* self;
        obs::Gauge& in_flight;
        obs::Counter& completed;
        RunningStats& wall;
        std::chrono::steady_clock::time_point start;
        std::chrono::steady_clock::time_point batch_start;
        obs::ProgressReporter* progress;
        double cost;
        std::size_t served;
        std::size_t* done_jobs;
        double* done_cost;
        ~Done() {
          const double secs =
              std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
                  .count();
          std::size_t completed_now = 0;
          std::size_t flying = 0;
          double cost_now = 0.0;
          {
            std::lock_guard<std::mutex> lock(self->metrics_mutex_);
            in_flight.set(in_flight.value() - 1);
            completed.inc();
            wall.add(secs);
            *done_jobs += 1;
            *done_cost += cost;
            completed_now = served + *done_jobs;
            flying = static_cast<std::size_t>(in_flight.value());
            cost_now = *done_cost;
          }
          if (progress != nullptr) {
            const double elapsed =
                std::chrono::duration<double>(std::chrono::steady_clock::now() - batch_start)
                    .count();
            progress->update(completed_now, flying, cost_now, elapsed);
          }
        }
      } done{this,     in_flight,    completed, wall_per_job, j0,        t0,
             progress, jobs[i].cost, served,    &done_jobs,   &done_cost};
      out[i].value.emplace(jobs[i].fn());
    };
    auto errors =
        detail::run_stealing(schedule_, threads_used_, body, opt_.steal, &steals_);
    wall_seconds_ = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    for (std::size_t p = 0; p < schedule_.size(); ++p) {
      out[schedule_[p]].error = std::move(errors[p]);
    }

    // Phase 3 — in-batch twins copy their primary's outcome, error included.
    for (std::size_t i = 0; i < n; ++i) {
      if (!twin_of[i].has_value()) continue;
      const auto& prime = out[*twin_of[i]];
      out[i].value = prime.value;
      out[i].error = prime.error;
      out[i].from_cache = true;
    }
    runs_executed_ = execute.size();

    {
      std::lock_guard<std::mutex> lock(metrics_mutex_);
      hits_ctr.inc(cache_hits_);
      executed_ctr.inc(runs_executed_);
      steals_ctr.inc(steals_);
    }
    if (progress != nullptr) progress->finish(n, n, wall_seconds_);
    return out;
  }

  /// Threads the last run() actually used (0 before the first run and for
  /// an empty batch).
  std::size_t threads_used() const { return threads_used_; }

  /// Wall-clock duration of the last run() in seconds.
  double wall_seconds() const { return wall_seconds_; }

  /// Jobs handed to the last run().
  std::size_t runs_requested() const { return runs_requested_; }

  /// Jobs the last run() actually executed (requested − cache_hits for
  /// fully fingerprinted batches; unhashable jobs always execute).
  std::size_t runs_executed() const { return runs_executed_; }

  /// Jobs of the last run() served without executing: in-batch duplicates
  /// collapsed onto an executing twin.
  std::size_t cache_hits() const { return cache_hits_; }

  /// Steal batches of the last run(): times an idle worker took the front
  /// half of another worker's backlog.  0 with opt.steal == false, with a
  /// single worker, and for perfectly balanced dispatch.
  std::uint64_t steals() const { return steals_; }

  /// Dispatch order of the last run(): the executed jobs' ids, longest
  /// estimated cost first (ties in submission order).  Exposed so tests can
  /// assert the schedule decision without timing assumptions.
  const std::vector<std::size_t>& schedule() const { return schedule_; }

  /// Progress metrics owned by this runner; counters accumulate across
  /// run() calls.  Safe to read between runs; during a run, updates are
  /// serialized behind an internal mutex.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

 private:
  SweepOptions opt_;
  obs::ProgressReporter* progress_ = nullptr;
  std::size_t threads_used_ = 0;
  double wall_seconds_ = 0.0;
  std::size_t runs_requested_ = 0;
  std::size_t runs_executed_ = 0;
  std::size_t cache_hits_ = 0;
  std::uint64_t steals_ = 0;
  std::vector<std::size_t> schedule_;
  obs::MetricsRegistry metrics_;
  std::mutex metrics_mutex_;
};

}  // namespace frieda::exp
