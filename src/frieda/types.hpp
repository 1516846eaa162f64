// Core vocabulary of the FRIEDA framework.
//
// The paper separates *partition generation* (which files form one program
// instance's input, Section II.E) from *placement strategy* (where and when
// the bytes move, Section III).  Both are control-plane decisions that the
// execution plane merely carries out — keeping them as plain enums/data here
// is what lets the same master/worker code run every strategy.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "storage/file.hpp"

namespace frieda::core {

/// Identifier of one work unit (one program instance's input group).
using WorkUnitId = std::uint32_t;

/// Identifier of one worker (one program instance slot; with multicore
/// enabled a VM hosts one worker per core, Section II.C).
using WorkerId = std::uint32_t;

/// File-grouping schemes of the partition generator (paper Section II.E).
enum class PartitionScheme {
  kSingleFile,        ///< default: one file per program instance
  kOneToAll,          ///< first file paired with each of the rest
  kPairwiseAdjacent,  ///< adjacent files paired (the ALS image workload)
  kAllToAll,          ///< every unordered pair of distinct files
};

/// Data placement/movement strategies (paper Section III.B + extensions).
enum class PlacementStrategy {
  kNoPartitionCommon,   ///< full data set pre-distributed to every node
  kPrePartitionLocal,   ///< partitions already resident on compute nodes
  kPrePartitionRemote,  ///< partitions staged from the source, then compute
  kRealTime,            ///< lazy pull: master sends data as workers ask
  kRemoteRead,          ///< no staging: tasks read inputs over the network
  kSharedVolume,        ///< inputs on a mounted shared volume (iSCSI/shared
                        ///< FS, Section III.A); tasks stream from its server
};

/// How pre-partitioning maps work units to workers.
enum class AssignmentPolicy {
  kRoundRobin,    ///< unit i -> worker (i mod W)
  kBlock,         ///< contiguous blocks of units per worker
  kSizeBalanced,  ///< greedy LPT on input bytes
};

/// One program instance's input group as produced by the partition generator.
struct WorkUnit {
  WorkUnitId id = 0;
  std::vector<storage::FileId> inputs;

  /// Total input bytes for this unit.
  Bytes input_bytes(const storage::FileCatalog& catalog) const;
};

/// Enum <-> string conversions (used by Config-driven scenarios).
const char* to_string(PartitionScheme scheme);
const char* to_string(PlacementStrategy strategy);
const char* to_string(AssignmentPolicy policy);
std::optional<PartitionScheme> parse_partition_scheme(const std::string& name);
std::optional<PlacementStrategy> parse_placement_strategy(const std::string& name);
std::optional<AssignmentPolicy> parse_assignment_policy(const std::string& name);

}  // namespace frieda::core
