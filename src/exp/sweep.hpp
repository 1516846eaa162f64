// Parallel sweep engine: memoized, cost-aware batch execution of scenario
// runs on a thread pool.
//
// The paper's entire evaluation — Table I, Figures 6–7, the eight ablations —
// is a grid of *independent, deterministic* simulation runs.  A `SweepRunner`
// executes such a grid on a fixed pool of worker threads and returns results
// **in job order**, regardless of worker count or completion order, so a
// sweep's tables and CSVs are byte-identical to running the same jobs
// sequentially.
//
// Dispatch (see docs/performance.md, "Thread pool"): every pool thread claims
// the next job of the longest-first schedule from one shared atomic cursor —
// greedy LPT, so no thread idles while an unclaimed job exists.
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

/// Run `body(i)` for every i in `indices` on `threads` pool threads.  Each
/// thread claims the next position in `indices` order from one shared
/// cursor, so positions start in order and no thread idles while one is
/// unclaimed.  Returns one error string per *position in `indices`* (empty =
/// the call returned normally); a throwing body never takes down the pool or
/// other indices.
std::vector<std::string> run_pool(const std::vector<std::size_t>& indices,
                                  std::size_t threads,
                                  const std::function<void(std::size_t)>& body);

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

    // Progress tallies shared by the pool threads, all guarded by `mutex`.
    std::mutex mutex;
    std::size_t done_jobs = 0;
    std::size_t in_flight = 0;
    double done_cost = 0.0;

    const auto t0 = std::chrono::steady_clock::now();
    const std::function<void(std::size_t)> body = [&](std::size_t i) {
      {
        std::lock_guard<std::mutex> lock(mutex);
        ++in_flight;
      }
      const auto finish = [&] {
        std::size_t completed_now = 0;
        std::size_t flying = 0;
        double cost_now = 0.0;
        {
          std::lock_guard<std::mutex> lock(mutex);
          --in_flight;
          ++done_jobs;
          done_cost += jobs[i].cost;
          completed_now = served + done_jobs;
          flying = in_flight;
          cost_now = done_cost;
        }
        if (progress != nullptr) {
          const double elapsed =
              std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
          progress->update(completed_now, flying, cost_now, elapsed);
        }
      };
      try {
        out[i].value.emplace(jobs[i].fn());
      } catch (...) {
        finish();  // a throwing job still counts as done
        throw;
      }
      finish();
    };
    auto errors = detail::run_pool(schedule_, threads_used_, body);
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

  /// Dispatch order of the last run(): the executed jobs' ids, longest
  /// estimated cost first (ties in submission order).  Exposed so tests can
  /// assert the schedule decision without timing assumptions.
  const std::vector<std::size_t>& schedule() const { return schedule_; }

 private:
  SweepOptions opt_;
  obs::ProgressReporter* progress_ = nullptr;
  std::size_t threads_used_ = 0;
  double wall_seconds_ = 0.0;
  std::size_t runs_requested_ = 0;
  std::size_t runs_executed_ = 0;
  std::size_t cache_hits_ = 0;
  std::vector<std::size_t> schedule_;
};

}  // namespace frieda::exp
