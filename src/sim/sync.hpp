// Coroutine synchronization primitives for the simulator.
//
// All wake-ups go through the simulation's event queue (never direct
// resumption inside the notifier), which bounds stack depth and keeps
// same-time ordering deterministic and FIFO.
//
// Lifetime rule: primitives must outlive every task suspended on them.  In
// practice they live in scenario objects that outlive Simulation::run().
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <vector>

#include "sim/simulation.hpp"

namespace frieda::sim {

/// One-shot broadcast signal: tasks wait() until some task calls trigger().
/// Waiting on an already-triggered signal completes immediately.
class Signal {
 public:
  explicit Signal(Simulation& sim) : sim_(sim) {}
  Signal(const Signal&) = delete;
  Signal& operator=(const Signal&) = delete;

  /// True once trigger() has been called.
  bool triggered() const { return triggered_; }

  /// Fire the signal, waking all current waiters; idempotent.
  void trigger();

  /// Awaitable; resumes when the signal has been triggered.
  auto wait() {
    struct Awaiter {
      Signal& s;
      bool await_ready() const noexcept { return s.triggered_; }
      void await_suspend(std::coroutine_handle<> h) { s.waiters_.push_back(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

 private:
  Simulation& sim_;
  bool triggered_ = false;
  std::vector<std::coroutine_handle<>> waiters_;  ///< in wait order
};

/// Counting semaphore with FIFO handoff semantics: release() wakes the
/// longest-waiting acquirer directly instead of incrementing the count, so
/// no later arrival can overtake it.
class Semaphore {
 public:
  /// Construct with the initial number of available permits.
  Semaphore(Simulation& sim, std::int64_t permits);
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  /// Currently available permits.
  std::int64_t available() const { return permits_; }

  /// Number of tasks blocked in acquire().
  std::size_t waiting() const { return waiters_.size(); }

  /// Awaitable; resumes once a permit has been granted to this task.
  auto acquire() {
    struct Awaiter {
      Semaphore& s;
      bool await_ready() const noexcept {
        if (s.permits_ > 0) {
          --s.permits_;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) { s.waiters_.push_back(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  /// Return a permit; hands it to the oldest waiter if any.
  void release();

 private:
  Simulation& sim_;
  std::int64_t permits_;
  std::deque<std::coroutine_handle<>> waiters_;
};

/// Completion counter: add(n) registers pending work, done() retires one
/// unit, wait() resumes once the count reaches zero.  The count may grow
/// again after reaching zero; wait() observes the instantaneous state.
class WaitGroup {
 public:
  explicit WaitGroup(Simulation& sim) : sim_(sim) {}
  WaitGroup(const WaitGroup&) = delete;
  WaitGroup& operator=(const WaitGroup&) = delete;

  /// Register `n` additional units of pending work.
  void add(std::int64_t n = 1);

  /// Retire one unit; wakes waiters when the count reaches zero.
  void done();

  /// Outstanding count.
  std::int64_t count() const { return count_; }

  /// Awaitable; resumes when the count is zero.
  auto wait() {
    struct Awaiter {
      WaitGroup& wg;
      bool await_ready() const noexcept { return wg.count_ == 0; }
      void await_suspend(std::coroutine_handle<> h) { wg.waiters_.push_back(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

 private:
  Simulation& sim_;
  std::int64_t count_ = 0;
  std::vector<std::coroutine_handle<>> waiters_;  ///< in wait order
};

}  // namespace frieda::sim
