#include "sim/simulation.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/log.hpp"

namespace frieda::sim {

Simulation::Simulation(std::uint64_t seed) : rng_(seed) {}

Simulation::~Simulation() = default;

EventQueue::Handle Simulation::schedule_at(SimTime t, EventQueue::Callback fn) {
  return queue_.push(std::max(t, now_), std::move(fn));
}

EventQueue::Handle Simulation::schedule_in(SimTime dt, EventQueue::Callback fn) {
  return queue_.push(now_ + std::max(dt, 0.0), std::move(fn));
}

void Simulation::cancel(EventQueue::Handle& h) { queue_.cancel(h); }

void Simulation::spawn(Task<> task, std::string name) {
  FRIEDA_CHECK(task.valid(), "spawn of an empty task");
  if (free_roots_.empty()) {
    free_roots_.push_back(static_cast<std::uint32_t>(roots_.size()));
    roots_.emplace_back();
  }
  const std::uint32_t slot = free_roots_.back();
  free_roots_.pop_back();
  roots_[slot] = Root{std::move(task), std::move(name)};
  auto handle = roots_[slot].task.handle();
  handle.promise().on_done = [this, slot] { finished_roots_.push_back(slot); };
  schedule_in(0.0, [handle] {
    if (!handle.done()) handle.resume();
  });
}

void Simulation::dispatch_one() {
  auto [t, fn] = queue_.pop();
  now_ = t;
  ++events_processed_;
  fn();
  collect_finished_roots();
}

void Simulation::collect_finished_roots() {
  while (!finished_roots_.empty()) {
    const std::uint32_t slot = finished_roots_.back();
    finished_roots_.pop_back();
    Root& root = roots_[slot];
    auto& promise = root.task.handle().promise();
    if (promise.exception && !first_error_) {
      first_error_ = promise.exception;
      FLOG(kError, "sim", "root process '" << root.name << "' terminated with an exception");
      stopped_ = true;
    }
    root = Root{};
    free_roots_.push_back(slot);
  }
}

void Simulation::run() {
  stopped_ = false;
  while (!stopped_ && !queue_.empty()) dispatch_one();
  if (first_error_) {
    auto err = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(err);
  }
}

bool Simulation::run_until(SimTime t) {
  stopped_ = false;
  while (!stopped_ && !queue_.empty() && queue_.next_time() <= t) dispatch_one();
  if (first_error_) {
    auto err = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(err);
  }
  now_ = std::max(now_, t);
  return !queue_.empty();
}

}  // namespace frieda::sim
