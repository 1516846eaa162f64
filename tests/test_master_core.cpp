// Clock-free tests of core::MasterCore: the dispatch state machine is driven
// by scripted events and explicit `now` values, with no Simulation behind it.
#include "frieda/master_core.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "frieda/run.hpp"

namespace frieda::core {
namespace {

std::vector<WorkUnit> make_units(std::size_t n) {
  std::vector<WorkUnit> units(n);
  for (std::size_t i = 0; i < n; ++i) units[i].id = static_cast<WorkUnitId>(i);
  return units;
}

/// Records every hook call so tests can assert the core's decisions.
struct Script {
  std::vector<std::pair<WorkerId, WorkUnitId>> dispatched;
  std::vector<WorkerId> released;
  std::vector<WorkUnitId> terminal;
  std::vector<std::pair<WorkUnitId, Requeue>> requeued;
  std::vector<WorkerId> isolated;
  int finished = 0;
  std::function<bool(WorkerId, WorkUnitId)> local = [](WorkerId, WorkUnitId) { return false; };

  MasterHooks hooks() {
    MasterHooks h;
    h.dispatch = [this](WorkerId w, WorkUnitId u) { dispatched.emplace_back(w, u); };
    h.release = [this](WorkerId w) { released.push_back(w); };
    h.terminal = [this](const UnitRecord& rec) { terminal.push_back(rec.unit); };
    h.requeued = [this](WorkUnitId u, Requeue why) { requeued.emplace_back(u, why); };
    h.isolated = [this](WorkerId w) { isolated.push_back(w); };
    h.finished = [this] { ++finished; };
    h.inputs_local = [this](WorkerId w, WorkUnitId u) { return local(w, u); };
    return h;
  }
};

TEST(MasterCore, CreditsAreOnePlusPrefetch) {
  for (const int prefetch : {-1, 0, 1, 3}) {
    RunOptions options;
    options.prefetch = prefetch;
    const auto policy = master_policy(options);
    EXPECT_EQ(policy.credits, 1u + static_cast<std::size_t>(std::max(prefetch, 0)));

    Script script;
    MasterCore core(make_units(8), policy, script.hooks());
    core.add_worker();
    for (WorkUnitId u = 0; u < 8; ++u) core.enqueue(u);
    core.top_up(0, 1.0);
    ASSERT_EQ(script.dispatched.size(), policy.credits);
    EXPECT_EQ(core.worker(0).unacked, policy.credits);
    EXPECT_EQ(core.record(0).status, UnitStatus::kInFlight);
    EXPECT_EQ(core.record(0).dispatched, 1.0);
    // One status frees one credit, which the top-up spends at once.
    core.on_status(0, 0, true, 2.0);
    EXPECT_EQ(script.dispatched.size(), policy.credits + 1);
    EXPECT_EQ(core.worker(0).unacked, policy.credits);
    EXPECT_EQ(core.record(0).status, UnitStatus::kCompleted);
    EXPECT_EQ(core.record(0).finished, 2.0);
  }
}

TEST(MasterCore, RequeueStopsAtMaxAttempts) {
  Script script;
  MasterCore core(make_units(1), MasterPolicy{.requeue = true, .max_attempts = 2},
                  script.hooks());
  core.add_worker();
  core.add_worker();
  core.enqueue(0);
  core.top_up_all(0.0);
  ASSERT_EQ(script.dispatched.size(), 1u);
  core.on_status(0, 0, false, 1.0);  // attempt 1 lost: retried
  ASSERT_EQ(script.requeued.size(), 1u);
  EXPECT_EQ(script.requeued[0], std::make_pair(WorkUnitId{0}, Requeue::kRetry));
  ASSERT_EQ(script.dispatched.size(), 2u);
  EXPECT_EQ(core.record(0).attempts, 2);
  core.on_status(script.dispatched[1].first, 0, false, 2.0);  // attempt 2 lost: the cap
  EXPECT_EQ(script.requeued.size(), 1u);
  EXPECT_EQ(core.record(0).status, UnitStatus::kFailed);
  EXPECT_EQ(core.record(0).attempts, 2);
  EXPECT_TRUE(core.finished());
  EXPECT_EQ(script.finished, 1);
  EXPECT_EQ(script.released, (std::vector<WorkerId>{0, 1}));  // worker-id order
}

/// Two workers with round-robin shares {0, 2} and {1, 3}, topped up.
void deal_two_shares(MasterCore& core) {
  core.add_worker();
  core.add_worker();
  core.assign_share(0, {0, 2});
  core.assign_share(1, {1, 3});
  core.top_up_all(0.0);
}

TEST(MasterCore, IsolationRequeuesWhenRequeueIsOn) {
  Script script;
  MasterCore core(make_units(4), MasterPolicy{.requeue = true}, script.hooks());
  deal_two_shares(core);
  core.isolate(0, 1.0);
  EXPECT_EQ(script.isolated, (std::vector<WorkerId>{0}));
  // The in-flight unit is a lost attempt; the share entry moves untouched.
  ASSERT_EQ(script.requeued.size(), 2u);
  EXPECT_EQ(script.requeued[0], std::make_pair(WorkUnitId{0}, Requeue::kRetry));
  EXPECT_EQ(script.requeued[1], std::make_pair(WorkUnitId{2}, Requeue::kMoved));
  // Worker 1 finishes everything: its own share first, then the queue.
  WorkUnitId next = 1;
  while (!core.finished()) {
    core.on_status(1, next, true, 2.0);
    if (core.finished()) break;
    next = script.dispatched.back().second;
    EXPECT_EQ(script.dispatched.back().first, 1u);
  }
  for (WorkUnitId u = 0; u < 4; ++u) EXPECT_EQ(core.record(u).status, UnitStatus::kCompleted);
  EXPECT_EQ(core.record(0).attempts, 2);
  EXPECT_EQ(core.record(2).attempts, 1);
  EXPECT_EQ(script.released, (std::vector<WorkerId>{1}));  // the isolated one is not
}

TEST(MasterCore, IsolationFailsAndAbandonsWhenRequeueIsOff) {
  Script script;
  MasterCore core(make_units(4), MasterPolicy{.release_idle = true}, script.hooks());
  deal_two_shares(core);
  core.isolate(0, 1.0);
  EXPECT_TRUE(script.requeued.empty());
  EXPECT_EQ(core.record(0).status, UnitStatus::kFailed);       // was in flight
  EXPECT_EQ(core.record(2).status, UnitStatus::kUnprocessed);  // never dispatched
  EXPECT_EQ(core.record(2).attempts, 0);
  core.on_status(1, 1, true, 2.0);
  core.on_status(1, 3, true, 3.0);
  EXPECT_TRUE(core.finished());
  EXPECT_EQ(core.record(3).status, UnitStatus::kCompleted);
  EXPECT_EQ(script.released, (std::vector<WorkerId>{1}));
}

TEST(MasterCore, LastLiveWorkerLostLeavesPendingUnprocessed) {
  Script script;
  MasterCore core(make_units(3), MasterPolicy{.requeue = true}, script.hooks());
  core.add_worker();
  for (WorkUnitId u = 0; u < 3; ++u) core.enqueue(u);
  core.top_up(0, 0.0);
  core.isolate(0, 1.0);  // nobody left to retry on
  EXPECT_EQ(core.record(0).status, UnitStatus::kFailed);
  EXPECT_EQ(core.record(1).status, UnitStatus::kUnprocessed);
  EXPECT_EQ(core.record(2).status, UnitStatus::kUnprocessed);
  EXPECT_EQ(script.terminal, (std::vector<WorkUnitId>{0, 1, 2}));  // unit-id order
  EXPECT_TRUE(core.finished());
}

TEST(MasterCore, DrainingAnIdleWorkerReleasesItImmediately) {
  Script script;
  MasterCore core(make_units(1), MasterPolicy{}, script.hooks());
  core.add_worker();
  core.add_worker();
  core.enqueue(0);
  core.top_up_all(0.0);  // worker 0 takes the unit, worker 1 idles
  EXPECT_TRUE(script.released.empty());
  core.drain(1, 1.0, /*top_up=*/true);
  EXPECT_EQ(script.released, (std::vector<WorkerId>{1}));
  EXPECT_TRUE(core.worker(1).finished);
  EXPECT_TRUE(core.worker(1).draining);
  // Draining a busy worker hands its share over but waits for its status.
  Script busy;
  MasterCore shares(make_units(4), MasterPolicy{.release_idle = true}, busy.hooks());
  deal_two_shares(shares);
  shares.drain(0, 1.0, /*top_up=*/true);
  EXPECT_TRUE(busy.released.empty());
  EXPECT_EQ(busy.requeued, (std::vector<std::pair<WorkUnitId, Requeue>>{{2, Requeue::kMoved}}));
  shares.on_status(0, 0, true, 2.0);
  EXPECT_EQ(busy.released, (std::vector<WorkerId>{0}));
}

TEST(MasterCore, SecondTerminalTransitionThrows) {
  Script script;
  MasterCore core(make_units(4), MasterPolicy{.release_idle = true}, script.hooks());
  deal_two_shares(core);
  core.on_status(0, 0, true, 1.0);
  EXPECT_THROW(core.on_status(0, 0, true, 2.0), FriedaError);
}

TEST(MasterCore, LocalityPicksALocalUnitWithinTheScanDepth) {
  for (const bool within : {true, false}) {
    Script script;
    script.local = [within](WorkerId, WorkUnitId u) { return u == (within ? 2u : 3u); };
    MasterCore core(make_units(4),
                    MasterPolicy{.locality_aware = true, .locality_scan_depth = 3},
                    script.hooks());
    core.add_worker();
    for (WorkUnitId u = 0; u < 4; ++u) core.enqueue(u);
    core.top_up(0, 0.0);
    ASSERT_EQ(script.dispatched.size(), 1u);
    // Unit 3 sits beyond the 3-deep scan, so the queue head goes instead.
    EXPECT_EQ(script.dispatched[0].second, within ? 2u : 0u);
  }
}

TEST(MasterCore, WithdrawsShareEntriesWhoseInputsAreNotLocal) {
  Script script;
  script.local = [](WorkerId, WorkUnitId u) { return u != 2; };
  MasterCore core(make_units(4), MasterPolicy{.release_idle = true}, script.hooks());
  core.add_worker();
  core.add_worker();
  core.assign_share(0, {0, 2});
  core.assign_share(1, {1, 3});
  core.withdraw_unlocal(0.0);
  EXPECT_EQ(core.record(2).status, UnitStatus::kUnprocessed);
  EXPECT_EQ(core.worker(0).share, (std::deque<WorkUnitId>{0}));
  EXPECT_EQ(core.worker(1).share, (std::deque<WorkUnitId>{1, 3}));
}

TEST(MasterCore, UnitIdsMustBeDense) {
  Script script;
  auto units = make_units(4);
  for (auto& u : units) u.id += 1000;
  EXPECT_THROW(MasterCore(units, MasterPolicy{}, script.hooks()), FriedaError);
  // An empty list is a legal, vacuously finished farm once finish() runs.
  MasterCore empty({}, MasterPolicy{}, script.hooks());
  empty.add_worker();
  EXPECT_TRUE(empty.all_terminal());
  empty.finish();
  EXPECT_EQ(script.released, (std::vector<WorkerId>{0}));
  EXPECT_EQ(script.finished, 1);
}

TEST(MasterCore, KickoffReleasesShareLessWorkersWithAnEmptyQueue) {
  Script script;
  MasterCore core(make_units(2), MasterPolicy{.release_idle = true}, script.hooks());
  for (int i = 0; i < 4; ++i) core.add_worker();
  core.assign_share(2, {0, 1});
  core.top_up_all(0.0);
  EXPECT_EQ(script.dispatched, (std::vector<std::pair<WorkerId, WorkUnitId>>{{2, 0}}));
  EXPECT_EQ(script.released, (std::vector<WorkerId>{0, 1, 3}));
}

TEST(MasterCore, TopUpAllReleasesAnIdleDrainingWorkerWithAnEmptyQueue) {
  Script script;
  MasterCore core(make_units(1), MasterPolicy{}, script.hooks());
  for (int i = 0; i < 3; ++i) core.add_worker();
  core.enqueue(0);
  core.top_up_all(0.0);  // worker 0 takes the only unit; the queue is empty
  core.drain(2, 1.0, /*top_up=*/false);
  EXPECT_TRUE(script.released.empty());
  core.top_up_all(2.0);
  EXPECT_EQ(script.released, (std::vector<WorkerId>{2}));
  EXPECT_FALSE(core.worker(1).finished);  // idle but live: it waits for work
}

/// Seeded random scripts of every event the hosts send, checked against the
/// dispatch-order contract: a unit from the shared queue goes to the
/// lowest-id live worker with a free credit, and after top_up_all no worker
/// that could act is left behind.
class DispatchOrder {
 public:
  explicit DispatchOrder(std::uint64_t seed) : rng_(seed) {
    policy_.credits = 1 + rng_.index(3);
    policy_.requeue = rng_.chance(0.5);
    policy_.release_idle = !policy_.requeue && rng_.chance(0.5);
    policy_.max_attempts = 2;
    owner_.assign(kUnits, kNoOwner);
    MasterHooks hooks;
    hooks.dispatch = [this](WorkerId w, WorkUnitId u) { check_dispatch(w, u); };
    hooks.release = [](WorkerId) {};
    hooks.requeued = [this](WorkUnitId u, Requeue) { owner_[u] = kNoOwner; };
    hooks.inputs_local = [this](WorkerId w, WorkUnitId u) { return (w + u + salt_) % 3 != 0; };
    core_ = std::make_unique<MasterCore>(make_units(kUnits), policy_, std::move(hooks));
  }

  void run() {
    const std::size_t workers = 1 + rng_.index(8);
    for (std::size_t w = 0; w < workers; ++w) add_worker();
    // Deal a random prefix of the units as shares; the rest arrive later.
    while (next_ < kUnits / 3) {
      const auto w = static_cast<WorkerId>(rng_.index(workers));
      std::vector<WorkUnitId> share(core_->worker(w).share.begin(),
                                    core_->worker(w).share.end());
      share.push_back(next_);
      owner_[next_++] = w;
      core_->assign_share(w, share);
    }
    top_up_all();
    for (int step = 0; step < 400 && !core_->finished(); ++step) act();
  }

  std::size_t dispatches() const { return dispatches_; }

 private:
  static constexpr std::size_t kUnits = 120;
  static constexpr WorkerId kNoOwner = ~WorkerId{0};

  void act() {
    const double roll = rng_.uniform();
    if (roll < 0.35 && next_ < kUnits) {
      core_->enqueue(next_++);
      top_up_all();
    } else if (roll < 0.8) {
      std::vector<WorkUnitId> in_flight;
      for (const auto& rec : core_->records()) {
        if (rec.status == UnitStatus::kInFlight) in_flight.push_back(rec.unit);
      }
      if (in_flight.empty()) return;
      const auto u = in_flight[rng_.index(in_flight.size())];
      if (rng_.chance(0.9)) {
        core_->on_status(core_->record(u).worker, u, rng_.chance(0.8), now());
      } else {
        core_->not_completed(u, now());  // a lost dispatch, as the hosts report it
        top_up_all();
      }
    } else if (roll < 0.85) {
      core_->isolate(random_worker(), now());
    } else if (roll < 0.9) {
      const auto w = random_worker();
      if (!core_->worker(w).live()) return;
      const bool top_up = rng_.chance(0.5);
      core_->drain(w, now(), top_up);
      if (!top_up) top_up_all();
    } else if (roll < 0.96) {
      add_worker();
      top_up_all();
    } else {
      salt_ = rng_.index(3);
      core_->withdraw_unlocal(now());
      top_up_all();
    }
    if (!core_->finished()) check_nothing_left_behind();
  }

  void top_up_all() {
    core_->top_up_all(now());
    if (!core_->finished()) check_nothing_left_behind();
  }

  double now() { return clock_ += 1.0; }
  void add_worker() {
    EXPECT_EQ(core_->add_worker(), workers_);
    ++workers_;
  }
  WorkerId random_worker() { return static_cast<WorkerId>(rng_.index(workers_)); }

  bool has_free_credit(const MasterCore::Worker& ws) const {
    return ws.live() && ws.unacked < policy_.credits;
  }

  // The hook runs inside the core's call, after the worker's credit was
  // taken, so the scan sees every lower worker as the walk left it.
  void check_dispatch(WorkerId w, WorkUnitId u) {
    ++dispatches_;
    const bool from_share = owner_[u] == w;
    owner_[u] = kNoOwner;
    for (WorkerId v = 0; v < w; ++v) {
      const auto& ws = core_->worker(v);
      if (!has_free_credit(ws)) continue;
      EXPECT_TRUE(ws.share.empty()) << "worker " << v << " skipped its share";
      EXPECT_TRUE(from_share) << "unit " << u << " from the queue went to worker " << w
                              << " while worker " << v << " had a free credit";
    }
  }

  // After a top-up walk, nobody who could act was skipped: a worker with a
  // free credit leaves the queue empty and its share drained, an idle
  // draining worker is released, and so is an idle one under release_idle.
  void check_nothing_left_behind() const {
    for (WorkerId w = 0; w < workers_; ++w) {
      const auto& ws = core_->worker(w);
      if (has_free_credit(ws)) {
        EXPECT_EQ(core_->queue_depth(), 0u) << "worker " << w;
        EXPECT_TRUE(ws.share.empty()) << "worker " << w;
        if (policy_.release_idle && !core_->all_terminal()) {
          EXPECT_GT(ws.unacked, 0u) << "worker " << w << " idles under release_idle";
        }
      }
      if (ws.draining && !ws.isolated) {
        EXPECT_TRUE(ws.finished || ws.unacked > 0) << "worker " << w << " idles draining";
      }
    }
  }

  Rng rng_;
  MasterPolicy policy_;
  std::unique_ptr<MasterCore> core_;
  std::vector<WorkerId> owner_;  ///< the worker whose share holds a unit
  WorkUnitId next_ = 0;          ///< the next unit not yet dealt or enqueued
  std::size_t salt_ = 0;
  std::size_t dispatches_ = 0;
  WorkerId workers_ = 0;
  double clock_ = 0.0;
};

TEST(MasterCore, RandomScriptsDispatchInWorkerIdOrder) {
  std::size_t dispatches = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    DispatchOrder script(seed);
    script.run();
    dispatches += script.dispatches();
  }
  EXPECT_GT(dispatches, 3000u);  // the scripts exercise the walk, not just setup
}

}  // namespace
}  // namespace frieda::core
