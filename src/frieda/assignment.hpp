// Pre-partition assignment: mapping work units onto workers ahead of time.
//
// "In pre-determined and homogeneous workloads, optimal solutions can be
//  found by pre-partitioning the data before the computation starts."
//  (paper Section III.A).  The policy decides which worker owns which units;
// the master then stages exactly those bytes to the worker's node.
#pragma once

#include <vector>

#include "frieda/types.hpp"
#include "storage/file.hpp"

namespace frieda::core {

/// Assign `units` across `worker_count` workers.
/// Returns worker-indexed lists of unit ids.
///
/// * kRoundRobin — unit i to worker (i mod W); the paper's default.
/// * kBlock — contiguous ranges, ceil(n/W) per worker.
/// * kSizeBalanced — greedy LPT on input bytes: largest unit to the
///   currently lightest worker, which tightens the makespan bound when file
///   sizes vary.
std::vector<std::vector<WorkUnitId>> assign_units(AssignmentPolicy policy,
                                                  const std::vector<WorkUnit>& units,
                                                  const storage::FileCatalog& catalog,
                                                  std::size_t worker_count);

}  // namespace frieda::core
