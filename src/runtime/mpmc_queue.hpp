// Thread-safe multi-producer/multi-consumer queue with close semantics.
//
// The threaded runtime's analogue of sim::Channel: the same protocol structs
// flow through it, but between real std::threads.  close() wakes all blocked
// consumers; buffered items are still drained first, matching the simulated
// channel's semantics so the two backends behave identically at the protocol
// level.
#pragma once

#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>

namespace frieda::rt {

/// Unbounded MPMC queue; pop() blocks until an item or close().
template <typename T>
class MpmcQueue {
 public:
  MpmcQueue() = default;
  MpmcQueue(const MpmcQueue&) = delete;
  MpmcQueue& operator=(const MpmcQueue&) = delete;

  /// Push one item; returns false when the queue is closed.
  bool push(T value) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return false;
      items_.push_back(std::move(value));
    }
    cv_.notify_one();
    return true;
  }

  /// Blocking pop; nullopt once closed and drained.
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return !items_.empty() || closed_; });
    if (items_.empty()) return std::nullopt;
    T value = std::move(items_.front());
    items_.pop_front();
    return value;
  }

  /// Close: wakes all blocked consumers after the buffer drains.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  /// True once close() has been called.
  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  /// Buffered item count.
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace frieda::rt
