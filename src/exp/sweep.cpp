#include "exp/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <numeric>
#include <thread>

#include "common/log.hpp"

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

std::vector<std::string> run_pool(const std::vector<std::size_t>& indices,
                                  std::size_t threads,
                                  const std::function<void(std::size_t)>& body) {
  std::vector<std::string> errors(indices.size());
  // Each position is claimed by exactly one thread, which is the only writer
  // of that errors slot; the joins below publish the writes to the caller.
  std::atomic<std::size_t> cursor{0};
  const auto drain = [&] {
    for (;;) {
      const std::size_t pos = cursor.fetch_add(1, std::memory_order_relaxed);
      if (pos >= indices.size()) return;
      try {
        body(indices[pos]);
      } catch (const std::exception& e) {
        errors[pos] = e.what();
      } catch (...) {
        errors[pos] = "unknown exception";
      }
    }
  };
  if (threads <= 1) {
    drain();
    return errors;
  }
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(drain);
  for (auto& t : pool) t.join();
  return errors;
}

}  // namespace detail

}  // namespace frieda::exp
