// MasterCore: the master's dispatch state machine, shared by both backends.
//
// The paper's execution plane is one master that farms work units to
// symmetric workers and accounts every unit to a terminal state (Figs. 2–4,
// Section II.C, Section V.A).  This class is that master with everything
// physical taken out: it owns the unit records, each worker's pre-assigned
// share and its credit count, the shared dispatch queue, attempts and the
// requeue cap, isolation and drain, and the "no live worker left" sweep.
//
// It has no clock and no transport.  Every entry point that can change a
// unit's state takes the current time as `now`, and every effect outside the
// table (sending an assignment, releasing a worker, tracing, staging) is a
// MasterHooks callback.  core::FriedaRun drives it from simulated time and
// sim::Channels; rt::RtEngine drives it from wall time and real threads.
//
// Decision order is part of the contract: sweeps visit units in unit-id
// order and workers in worker-id order, so a deterministic host produces a
// deterministic event stream.  Hooks run synchronously inside the core's
// calls; they may read the core but must not change it.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "frieda/report.hpp"
#include "frieda/types.hpp"

namespace frieda::core {

/// Why a unit went back to the shared queue.
enum class Requeue {
  kRetry,  ///< an attempt was lost and the requeue policy retries it
  kReset,  ///< the host took back an in-flight unit (MasterCore::retract)
  kMoved,  ///< a never-dispatched pre-assigned unit left its worker's share
};

/// The dispatch rules a backend configures the core with.
struct MasterPolicy {
  std::size_t credits = 1;      ///< assignments outstanding per worker
  bool requeue = false;         ///< retry units lost to failed workers
  int max_attempts = 3;         ///< dispatch attempts per unit (requeue cap)
  bool release_idle = false;    ///< release a worker once its own share is
                                ///< done and it holds nothing (pre-partitioned
                                ///< strategies without requeue)
  bool locality_aware = false;  ///< prefer queued units whose inputs are local
  std::size_t locality_scan_depth = 64;  ///< queue prefix searched for one
};

/// The host's side of the core: effects of the core's decisions.  Only
/// `dispatch` and `release` are required; unset hooks are skipped.
struct MasterHooks {
  /// Unit `u` was committed to worker `w` (its record is already in flight).
  std::function<void(WorkerId w, WorkUnitId u)> dispatch;
  /// Worker `w` gets no more work (it is already marked finished).
  std::function<void(WorkerId w)> release;
  /// A unit reached a terminal state (status and finish time are set).
  std::function<void(const UnitRecord& rec)> terminal;
  /// Unit `u` is back in the shared queue (status pending).
  std::function<void(WorkUnitId u, Requeue why)> requeued;
  /// Worker `w` was isolated; called before its units are swept.
  std::function<void(WorkerId w)> isolated;
  /// Every unit is terminal and every live worker was released.
  std::function<void()> finished;
  /// True when all of unit `u`'s inputs reside on worker `w`'s node.
  std::function<bool(WorkerId w, WorkUnitId u)> inputs_local;
};

class MasterCore {
 public:
  /// One worker as the master sees it.
  struct Worker {
    std::deque<WorkUnitId> share;  ///< pre-assigned units, served first
    std::size_t unacked = 0;       ///< committed units awaiting a status
    bool isolated = false;         ///< cut off after a failure
    bool draining = false;         ///< being removed by scale-in
    bool finished = false;         ///< released (NoMoreWork sent)

    /// Can still take work.
    bool live() const { return !isolated && !finished && !draining; }
  };

  /// `units` must have dense ids 0..n-1 in order (throws FriedaError
  /// otherwise); an empty list is allowed.
  MasterCore(const std::vector<WorkUnit>& units, MasterPolicy policy, MasterHooks hooks);

  MasterCore(const MasterCore&) = delete;
  MasterCore& operator=(const MasterCore&) = delete;

  // ---- setup ----
  /// Register the next worker; ids are handed out 0, 1, 2, ...
  WorkerId add_worker();
  /// Pre-assign `units` to worker `w` (replaces its share).
  void assign_share(WorkerId w, const std::vector<WorkUnitId>& units);
  /// Append unit `u` to the shared queue (initial fill, open-loop arrival).
  void enqueue(WorkUnitId u);

  // ---- events ----
  /// Commit units to `w` up to its credit limit; release it when it is
  /// draining and idle, or idle with nothing left under `release_idle`.
  void top_up(WorkerId w, double now);
  /// top_up every worker in id order.
  void top_up_all(double now);
  /// Worker `w` reported unit `u`: completed if `ok`, else a lost attempt.
  /// Then tops the worker up again.
  void on_status(WorkerId w, WorkUnitId u, bool ok, double now);
  /// An attempt of unit `u` was lost: requeue it when the policy allows and
  /// a worker is still live, else fail it.
  void not_completed(WorkUnitId u, double now);
  /// Return an in-flight unit to the queue whatever the policy (its
  /// dispatch was lost with the master).  Does not top anyone up.
  void retract(WorkUnitId u);
  /// Cut worker `w` off: its in-flight units are lost attempts, its share
  /// is requeued (requeue on) or unprocessed (requeue off).
  void isolate(WorkerId w, double now);
  /// Scale-in: hand `w`'s share to the shared queue and release it once
  /// idle.  `top_up` false defers the release to the next top-up (work is
  /// not being served yet).
  void drain(WorkerId w, double now, bool top_up);
  /// Hand every share entry whose inputs are not local (inputs_local) to
  /// the queue (requeue on) or mark it unprocessed (requeue off).
  void withdraw_unlocal(double now);
  /// With no live worker left, every pending unit becomes unprocessed.
  void check_progress(double now);
  /// Release every live worker and report the run finished.  Called by the
  /// core when the last unit turns terminal; idempotent.
  void finish();

  // ---- state ----
  bool finished() const { return finished_; }
  bool all_terminal() const { return terminal_count_ == records_.size(); }
  const std::vector<UnitRecord>& records() const { return records_; }
  const UnitRecord& record(WorkUnitId u) const { return records_[u]; }
  /// Mutable record for the host-owned fields (arrival, transfer_seconds,
  /// exec_seconds); status, worker, attempts, dispatched and finished are
  /// written by the core only.
  UnitRecord& record(WorkUnitId u) { return records_[u]; }
  const Worker& worker(WorkerId w) const { return workers_[w]; }
  /// Entries in the shared queue, stale ones (no longer pending) included.
  std::size_t queue_depth() const { return queue_.size(); }

 private:
  bool any_live() const;
  std::optional<WorkUnitId> next_unit_for(WorkerId w);
  void terminal(WorkUnitId u, UnitStatus status, double now);
  void requeue(WorkUnitId u, Requeue why);
  void release(WorkerId w, double now);
  /// A pending share entry its worker will not run: requeue or unprocessed.
  void surrender(WorkUnitId u, double now);

  MasterPolicy policy_;
  MasterHooks hooks_;
  std::vector<UnitRecord> records_;
  std::vector<Worker> workers_;
  std::deque<WorkUnitId> queue_;  ///< shared dispatch queue
  std::size_t terminal_count_ = 0;
  bool finished_ = false;
};

}  // namespace frieda::core
