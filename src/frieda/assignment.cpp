#include "frieda/assignment.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"

namespace frieda::core {

std::vector<std::vector<WorkUnitId>> assign_units(AssignmentPolicy policy,
                                                  const std::vector<WorkUnit>& units,
                                                  const storage::FileCatalog& catalog,
                                                  std::size_t worker_count) {
  FRIEDA_CHECK(worker_count > 0, "assignment needs at least one worker");
  std::vector<std::vector<WorkUnitId>> out(worker_count);
  switch (policy) {
    case AssignmentPolicy::kRoundRobin:
      for (std::size_t i = 0; i < units.size(); ++i) {
        out[i % worker_count].push_back(units[i].id);
      }
      break;
    case AssignmentPolicy::kBlock: {
      const std::size_t per = (units.size() + worker_count - 1) / worker_count;
      for (std::size_t i = 0; i < units.size(); ++i) {
        out[std::min(per == 0 ? 0 : i / per, worker_count - 1)].push_back(units[i].id);
      }
      break;
    }
    case AssignmentPolicy::kSizeBalanced: {
      // LPT: sort by descending input bytes, place on lightest worker.
      std::vector<std::size_t> order(units.size());
      std::iota(order.begin(), order.end(), 0);
      std::vector<Bytes> sizes(units.size());
      for (std::size_t i = 0; i < units.size(); ++i) sizes[i] = units[i].input_bytes(catalog);
      std::stable_sort(order.begin(), order.end(),
                       [&](std::size_t a, std::size_t b) { return sizes[a] > sizes[b]; });
      std::vector<Bytes> load(worker_count, 0);
      for (const std::size_t i : order) {
        const auto lightest = static_cast<std::size_t>(
            std::min_element(load.begin(), load.end()) - load.begin());
        out[lightest].push_back(units[i].id);
        load[lightest] += sizes[i];
      }
      break;
    }
  }
  return out;
}

}  // namespace frieda::core
