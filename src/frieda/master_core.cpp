#include "frieda/master_core.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"

namespace frieda::core {

MasterCore::MasterCore(const std::vector<WorkUnit>& units, MasterPolicy policy,
                       MasterHooks hooks)
    : policy_(policy), hooks_(std::move(hooks)) {
  FRIEDA_CHECK(policy_.credits >= 1, "master needs at least one credit per worker");
  FRIEDA_CHECK(hooks_.dispatch && hooks_.release, "master needs dispatch and release hooks");
  records_.resize(units.size());
  for (std::size_t i = 0; i < units.size(); ++i) {
    FRIEDA_CHECK(units[i].id == i, "work unit ids must be dense and ordered (position "
                                       << i << " holds unit " << units[i].id << ")");
    records_[i].unit = units[i].id;
  }
}

WorkerId MasterCore::add_worker() {
  workers_.emplace_back();
  return static_cast<WorkerId>(workers_.size() - 1);
}

void MasterCore::assign_share(WorkerId w, const std::vector<WorkUnitId>& units) {
  workers_[w].share.assign(units.begin(), units.end());
}

void MasterCore::enqueue(WorkUnitId u) { queue_.push_back(u); }

bool MasterCore::any_live() const {
  return std::any_of(workers_.begin(), workers_.end(),
                     [](const Worker& ws) { return ws.live(); });
}

std::optional<WorkUnitId> MasterCore::next_unit_for(WorkerId w) {
  // The worker's own share first; the shared queue carries real-time
  // dispatch and requeued units.  Entries that are no longer pending are
  // stale and skipped.
  auto& share = workers_[w].share;
  while (!share.empty()) {
    const auto u = share.front();
    share.pop_front();
    if (records_[u].status == UnitStatus::kPending) return u;
  }
  if (policy_.locality_aware && !queue_.empty()) {
    // Topology-aware dispatch: a bounded prefix of the queue is searched for
    // a unit whose inputs already reside on this worker's node.
    const std::size_t depth = std::min(policy_.locality_scan_depth, queue_.size());
    for (std::size_t i = 0; i < depth; ++i) {
      const auto u = queue_[i];
      if (records_[u].status != UnitStatus::kPending) continue;
      if (hooks_.inputs_local(w, u)) {
        queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
        return u;
      }
    }
  }
  while (!queue_.empty()) {
    const auto u = queue_.front();
    queue_.pop_front();
    if (records_[u].status == UnitStatus::kPending) return u;
  }
  return std::nullopt;
}

void MasterCore::top_up(WorkerId w, double now) {
  if (finished_) return;
  auto& ws = workers_[w];
  if (ws.isolated || ws.finished) return;
  if (ws.draining) {
    if (ws.unacked == 0) release(w, now);
    return;
  }
  // Credit-based farming: one executing assignment plus the prefetched ones,
  // so transfers overlap the worker's current execution (Section II.C).
  while (ws.unacked < policy_.credits) {
    const auto unit = next_unit_for(w);
    if (!unit) break;
    auto& rec = records_[*unit];
    rec.status = UnitStatus::kInFlight;
    rec.worker = w;
    rec.attempts += 1;
    rec.dispatched = now;
    ++ws.unacked;
    hooks_.dispatch(w, *unit);
  }
  if (ws.unacked > 0 || all_terminal()) return;
  // Pre-partitioned without requeue: this worker's share is done.  Otherwise
  // it idles; a requeue tops it up again and finish() releases it.
  if (policy_.release_idle) release(w, now);
}

void MasterCore::top_up_all(double now) {
  for (WorkerId w = 0; w < workers_.size(); ++w) {
    if (finished_) return;
    top_up(w, now);
  }
}

void MasterCore::on_status(WorkerId w, WorkUnitId u, bool ok, double now) {
  if (ok) {
    terminal(u, UnitStatus::kCompleted, now);
  } else {
    not_completed(u, now);
  }
  top_up(w, now);
}

void MasterCore::not_completed(WorkUnitId u, double now) {
  if (policy_.requeue && records_[u].attempts < policy_.max_attempts && any_live()) {
    requeue(u, Requeue::kRetry);
    top_up_all(now);
    return;
  }
  terminal(u, UnitStatus::kFailed, now);
}

void MasterCore::retract(WorkUnitId u) { requeue(u, Requeue::kReset); }

void MasterCore::requeue(WorkUnitId u, Requeue why) {
  auto& rec = records_[u];
  if (rec.status == UnitStatus::kInFlight) {
    auto& ws = workers_[rec.worker];
    FRIEDA_CHECK(ws.unacked > 0, "in-flight accounting underflow");
    --ws.unacked;
  }
  rec.status = UnitStatus::kPending;
  queue_.push_back(u);
  if (hooks_.requeued) hooks_.requeued(u, why);
}

void MasterCore::terminal(WorkUnitId u, UnitStatus status, double now) {
  auto& rec = records_[u];
  FRIEDA_CHECK(rec.status == UnitStatus::kPending || rec.status == UnitStatus::kInFlight,
               "unit " << u << " reached a terminal state twice");
  if (rec.status == UnitStatus::kInFlight) {
    auto& ws = workers_[rec.worker];
    FRIEDA_CHECK(ws.unacked > 0, "in-flight accounting underflow");
    --ws.unacked;
  }
  rec.status = status;
  rec.finished = now;
  ++terminal_count_;
  if (hooks_.terminal) hooks_.terminal(rec);
  if (all_terminal()) finish();
}

void MasterCore::release(WorkerId w, double now) {
  workers_[w].finished = true;
  hooks_.release(w);
  check_progress(now);
}

void MasterCore::surrender(WorkUnitId u, double now) {
  if (records_[u].status != UnitStatus::kPending) return;
  if (policy_.requeue) {
    requeue(u, Requeue::kMoved);
  } else {
    terminal(u, UnitStatus::kUnprocessed, now);
  }
}

void MasterCore::isolate(WorkerId w, double now) {
  if (workers_[w].isolated || finished_) return;
  workers_[w].isolated = true;
  if (hooks_.isolated) hooks_.isolated(w);
  // Units in flight on this worker are lost with it.
  for (const auto& rec : records_) {
    if (rec.status == UnitStatus::kInFlight && rec.worker == w) {
      not_completed(rec.unit, now);
      if (finished_) return;
    }
  }
  // Its share never ran.
  std::deque<WorkUnitId> share;
  share.swap(workers_[w].share);
  for (const auto u : share) {
    surrender(u, now);
    if (finished_) return;
  }
  if (policy_.requeue) top_up_all(now);
  check_progress(now);
}

void MasterCore::drain(WorkerId w, double now, bool top_up) {
  auto& ws = workers_[w];
  if (ws.isolated) return;
  ws.draining = true;
  if (ws.finished) return;  // already done with its share
  std::deque<WorkUnitId> share;
  share.swap(ws.share);
  for (const auto u : share) {
    if (records_[u].status == UnitStatus::kPending) requeue(u, Requeue::kMoved);
  }
  if (top_up) {
    this->top_up(w, now);  // releases the worker immediately when it is idle
    top_up_all(now);
  }
  check_progress(now);
}

void MasterCore::withdraw_unlocal(double now) {
  for (WorkerId w = 0; w < workers_.size(); ++w) {
    std::deque<WorkUnitId> keep;
    for (const auto u : workers_[w].share) {
      if (hooks_.inputs_local(w, u)) {
        keep.push_back(u);
      } else {
        surrender(u, now);
        if (finished_) return;
      }
    }
    workers_[w].share = std::move(keep);
  }
}

void MasterCore::check_progress(double now) {
  if (finished_ || any_live()) return;
  // No worker can ever request again: pending units are unprocessable.
  for (const auto& rec : records_) {
    if (rec.status == UnitStatus::kPending) {
      terminal(rec.unit, UnitStatus::kUnprocessed, now);
      if (finished_) return;
    }
  }
}

void MasterCore::finish() {
  if (finished_) return;
  finished_ = true;
  for (WorkerId w = 0; w < workers_.size(); ++w) {
    auto& ws = workers_[w];
    if (ws.finished || ws.isolated) continue;
    ws.finished = true;
    hooks_.release(w);
  }
  if (hooks_.finished) hooks_.finished();
}

}  // namespace frieda::core
