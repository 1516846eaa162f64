// Clock-free tests of core::MasterCore: the dispatch state machine is driven
// by scripted events and explicit `now` values, with no Simulation behind it.
#include "frieda/master_core.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/error.hpp"
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

}  // namespace
}  // namespace frieda::core
