// Shared helpers for the paper-reproduction bench binaries.
//
// Every bench prints an ASCII table with the paper's reported value next to
// the value measured on our simulated substrate, plus the ratio, and writes
// a CSV alongside (into the working directory) for plotting.
#pragma once

#include <cstdio>
#include <exception>
#include <string>

#include "common/csv.hpp"
#include "common/table.hpp"
#include "exp/grid.hpp"
#include "frieda/report.hpp"

namespace frieda::bench {

/// Format seconds with two decimals.
inline std::string secs(double s) { return TextTable::num(s, 2); }

/// Ratio column: measured / paper.
inline std::string ratio(double measured, double paper) {
  return paper > 0 ? TextTable::num(measured / paper, 2) + "x" : "-";
}

/// Write a CSV next to the binary's working directory, tolerating failures
/// (benches may run from read-only checkouts) but reporting why.
inline void try_save(const CsvWriter& csv, const std::string& path) {
  try {
    csv.save(path);
    std::printf("  (series written to %s)\n", path.c_str());
  } catch (const std::exception& e) {
    std::printf("  (could not write %s; skipping CSV: %s)\n", path.c_str(), e.what());
  }
}

/// Print the sweep's total wall clock so parallel speedups are visible in
/// bench output, plus the scheduler's memoization counters (runs executed
/// vs. requested — hits are duplicate cells served from an executing twin,
/// see docs/performance.md "Memoization and cost-aware scheduling").
/// Printed outside the tables: every table and CSV stays byte-identical to
/// sequential, uncached execution.
inline void print_sweep_stats(std::size_t jobs, std::size_t threads, double wall_seconds,
                              std::size_t runs_executed, std::size_t cache_hits) {
  std::printf("  (sweep: %zu jobs on %zu threads, %.2f s wall; %zu executed, "
              "%zu cache hit%s; set FRIEDA_SWEEP_THREADS=1 for the sequential "
              "baseline)\n",
              jobs, threads, wall_seconds, runs_executed, cache_hits,
              cache_hits == 1 ? "" : "s");
}

/// Overload for the common ScenarioSweep case.
inline void print_sweep_stats(const exp::ScenarioSweep& sweep) {
  print_sweep_stats(sweep.jobs(), sweep.threads_used(), sweep.wall_seconds(),
                    sweep.runs_executed(), sweep.cache_hits());
}

/// Overload for drivers that use a bare SweepRunner with a custom result.
template <typename R>
inline void print_sweep_stats(const exp::SweepRunner<R>& runner) {
  print_sweep_stats(runner.runs_requested(), runner.threads_used(), runner.wall_seconds(),
                    runner.runs_executed(), runner.cache_hits());
}

}  // namespace frieda::bench
