#include "exp/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <thread>

#include "common/log.hpp"
#include "runtime/mpmc_queue.hpp"

namespace frieda::exp {

namespace {

// Same SplitMix64 step the Rng seeder uses (common/rng.cpp); duplicated here
// because that one is an implementation detail of the generator.
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

std::uint64_t derive_seed(std::uint64_t base_seed, std::uint64_t job_index) {
  // Whiten the base, fold the index into the whitened stream, mix again.
  // Two full SplitMix64 steps keep nearby (base, index) pairs uncorrelated.
  std::uint64_t s = base_seed;
  const std::uint64_t whitened = splitmix64(s);
  s = whitened ^ job_index;
  return splitmix64(s);
}

namespace detail {

std::size_t parse_threads_env(const char* text) {
  if (text == nullptr || *text == '\0') return 0;
  errno = 0;
  char* end = nullptr;
  const long parsed = std::strtol(text, &end, 10);
  if (end == text || *end != '\0') return 0;  // no digits, or trailing junk
  if (errno == ERANGE || parsed <= 0 || parsed > kMaxSweepThreads) return 0;
  return static_cast<std::size_t>(parsed);
}

std::size_t resolve_threads(std::size_t requested, std::size_t jobs) {
  if (jobs == 0) return 0;
  std::size_t n = requested;
  if (n == 0) {
    if (const char* env = std::getenv("FRIEDA_SWEEP_THREADS")) {
      n = parse_threads_env(env);
      if (n == 0) {
        FLOG(kWarn, "sweep",
             "ignoring FRIEDA_SWEEP_THREADS='"
                 << env << "' (expected an integer in [1, " << kMaxSweepThreads
                 << "]); falling back to hardware_concurrency");
      }
    }
  }
  if (n == 0) n = std::thread::hardware_concurrency();
  if (n == 0) n = 1;
  return std::min(n, jobs);
}

std::vector<std::size_t> longest_first(const std::vector<double>& costs) {
  std::vector<std::size_t> order(costs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return costs[a] > costs[b]; });
  return order;
}

std::vector<std::string> run_stealing(const std::vector<std::size_t>& indices,
                                      std::size_t threads,
                                      const std::function<void(std::size_t)>& body,
                                      bool steal, std::uint64_t* steals_out) {
  if (steals_out != nullptr) *steals_out = 0;
  std::vector<std::string> errors(indices.size());
  // Each position is claimed by exactly one thread, which is the only writer
  // of that errors slot; the joins below publish the writes to the caller.
  const auto guarded = [&](std::size_t pos) {
    try {
      body(indices[pos]);
    } catch (const std::exception& e) {
      errors[pos] = e.what();
    } catch (...) {
      errors[pos] = "unknown exception";
    }
  };
  if (indices.empty()) return errors;
  if (threads <= 1) {
    for (std::size_t pos = 0; pos < indices.size(); ++pos) guarded(pos);
    return errors;
  }
  // Positions are dealt round-robin in schedule order, so each worker's
  // deque is cost-descending when the caller sorted `indices` longest-first
  // (worker w owns positions w, w+T, w+2T, ...).  A worker drains its own
  // deque front-first; once empty it steals the front half of the fattest
  // victim's backlog (MpmcQueue::try_pop_half) — the victim's most expensive
  // remaining work — so a skewed grid cannot strand idle workers on a few
  // long deques.  Outcome slots are untouched by any of this: position ->
  // job is fixed before dispatch.
  std::vector<std::unique_ptr<rt::MpmcQueue<std::size_t>>> queues;
  queues.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    queues.push_back(std::make_unique<rt::MpmcQueue<std::size_t>>());
  }
  for (std::size_t pos = 0; pos < indices.size(); ++pos) {
    queues[pos % threads]->push(pos);
  }
  const std::size_t total = indices.size();
  std::atomic<std::size_t> claimed{0};
  std::atomic<std::uint64_t> steal_batches{0};
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      std::size_t pos = 0;
      std::vector<std::size_t> loot;
      if (!steal) {
        // Static partition (bench/test hook): drain the dealt share, then
        // idle — the stranding the steal loop below exists to prevent.
        while (queues[t]->try_pop(pos) == rt::PopStatus::kItem) {
          claimed.fetch_add(1, std::memory_order_relaxed);
          guarded(pos);
        }
        return;
      }
      for (;;) {
        if (queues[t]->try_pop(pos) == rt::PopStatus::kItem) {
          claimed.fetch_add(1, std::memory_order_relaxed);
          guarded(pos);
          continue;
        }
        // Own deque empty.  Every position is eventually claimed exactly
        // once, so claimed == total means no queue will ever refill.
        if (claimed.load(std::memory_order_relaxed) >= total) break;
        std::size_t victim = threads;
        std::size_t backlog = 0;
        for (std::size_t v = 0; v < threads; ++v) {
          if (v == t) continue;
          const std::size_t s = queues[v]->size();
          if (s > backlog) {
            backlog = s;
            victim = v;
          }
        }
        loot.clear();
        if (victim < threads && queues[victim]->try_pop_half(loot) > 0) {
          steal_batches.fetch_add(1, std::memory_order_relaxed);
          for (std::size_t k = 1; k < loot.size(); ++k) queues[t]->push(loot[k]);
          claimed.fetch_add(1, std::memory_order_relaxed);
          guarded(loot.front());
          continue;
        }
        // Nothing to steal right now but jobs are still in flight; the
        // window closes as soon as the last position is claimed.
        std::this_thread::yield();
      }
    });
  }
  for (auto& t : pool) t.join();
  if (steals_out != nullptr) *steals_out = steal_batches.load();
  return errors;
}

}  // namespace detail

}  // namespace frieda::exp
