// The partition generator (paper Section II.E).
//
// Operates purely on the logical file list: given a catalog and a grouping
// scheme it emits the work units — "the number of input files that will be
// used for every program instance".  Custom groupings can be registered by
// name, mirroring the paper's "the design allows other schemes to be easily
// added" (Section V.B, Partition Generation).
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "frieda/types.hpp"
#include "storage/file.hpp"

namespace frieda::core {

/// Generates work units from a file catalog.
class PartitionGenerator {
 public:
  /// Signature of a custom grouping: file ids in catalog order -> groups.
  using CustomScheme =
      std::function<std::vector<std::vector<storage::FileId>>(const storage::FileCatalog&)>;

  /// Generate work units with a built-in scheme.
  ///
  /// * kSingleFile: n units of one file each.
  /// * kOneToAll: n-1 units pairing file 0 with each other file
  ///   (the BLAST pattern: one query set against each database shard is the
  ///   inverse; here it is "one reference vs. the rest").
  /// * kPairwiseAdjacent: floor(n/2) units {f0,f1},{f2,f3},... — the ALS
  ///   image-comparison pattern, two files per execution.
  /// * kAllToAll: n(n-1)/2 units, every unordered pair.
  static std::vector<WorkUnit> generate(PartitionScheme scheme,
                                        const storage::FileCatalog& catalog);

  /// Register a named custom scheme; overwrites an existing name.
  void register_scheme(const std::string& name, CustomScheme scheme);

  /// True when a custom scheme with this name exists.
  bool has_scheme(const std::string& name) const;

  /// Generate with a registered custom scheme; throws if unknown.
  std::vector<WorkUnit> generate_custom(const std::string& name,
                                        const storage::FileCatalog& catalog) const;

  /// Names of all registered custom schemes, sorted.
  std::vector<std::string> scheme_names() const;

 private:
  std::map<std::string, CustomScheme> custom_;
};

}  // namespace frieda::core
