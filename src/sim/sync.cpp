#include "sim/sync.hpp"

#include "common/error.hpp"

namespace frieda::sim {

namespace {
/// Schedule every waiter's resumption in wait order.  Scheduling never runs
/// a callback, so no waiter can be added while the list is walked.
void wake_all(Simulation& sim, std::vector<std::coroutine_handle<>>& waiters) {
  for (auto h : waiters) {
    sim.schedule_in(0.0, [h] { h.resume(); });
  }
  waiters.clear();
}
}  // namespace

void Signal::trigger() {
  if (triggered_) return;
  triggered_ = true;
  wake_all(sim_, waiters_);
}

Semaphore::Semaphore(Simulation& sim, std::int64_t permits) : sim_(sim), permits_(permits) {
  FRIEDA_CHECK(permits >= 0, "semaphore permits must be >= 0");
}

void Semaphore::release() {
  if (!waiters_.empty()) {
    auto h = waiters_.front();
    waiters_.pop_front();
    sim_.schedule_in(0.0, [h] { h.resume(); });
  } else {
    ++permits_;
  }
}

void WaitGroup::add(std::int64_t n) {
  FRIEDA_CHECK(n >= 0, "WaitGroup::add of negative count");
  count_ += n;
}

void WaitGroup::done() {
  FRIEDA_CHECK(count_ > 0, "WaitGroup::done below zero");
  --count_;
  if (count_ == 0) wake_all(sim_, waiters_);
}

}  // namespace frieda::sim
