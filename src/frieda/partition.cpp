#include "frieda/partition.hpp"

#include "common/error.hpp"

namespace frieda::core {

namespace {
std::vector<WorkUnit> wrap(std::vector<std::vector<storage::FileId>> groups) {
  std::vector<WorkUnit> units;
  units.reserve(groups.size());
  for (auto& g : groups) {
    WorkUnit u;
    u.id = static_cast<WorkUnitId>(units.size());
    u.inputs = std::move(g);
    units.push_back(std::move(u));
  }
  return units;
}
}  // namespace

std::vector<WorkUnit> PartitionGenerator::generate(PartitionScheme scheme,
                                                   const storage::FileCatalog& catalog) {
  const auto ids = catalog.all_ids();
  const std::size_t n = ids.size();
  std::vector<std::vector<storage::FileId>> groups;
  switch (scheme) {
    case PartitionScheme::kSingleFile:
      groups.reserve(n);
      for (auto f : ids) groups.push_back({f});
      break;
    case PartitionScheme::kOneToAll:
      FRIEDA_CHECK(n >= 2, "one-to-all needs at least two files, got " << n);
      groups.reserve(n - 1);
      for (std::size_t i = 1; i < n; ++i) groups.push_back({ids[0], ids[i]});
      break;
    case PartitionScheme::kPairwiseAdjacent:
      groups.reserve(n / 2);
      for (std::size_t i = 0; i + 1 < n; i += 2) groups.push_back({ids[i], ids[i + 1]});
      break;
    case PartitionScheme::kAllToAll:
      FRIEDA_CHECK(n >= 2, "all-to-all needs at least two files, got " << n);
      groups.reserve(n * (n - 1) / 2);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) groups.push_back({ids[i], ids[j]});
      }
      break;
  }
  return wrap(std::move(groups));
}

void PartitionGenerator::register_scheme(const std::string& name, CustomScheme scheme) {
  FRIEDA_CHECK(static_cast<bool>(scheme), "custom scheme '" << name << "' is empty");
  custom_[name] = std::move(scheme);
}

bool PartitionGenerator::has_scheme(const std::string& name) const {
  return custom_.count(name) > 0;
}

std::vector<WorkUnit> PartitionGenerator::generate_custom(
    const std::string& name, const storage::FileCatalog& catalog) const {
  const auto it = custom_.find(name);
  FRIEDA_CHECK(it != custom_.end(), "unknown custom partition scheme '" << name << "'");
  return wrap(it->second(catalog));
}

std::vector<std::string> PartitionGenerator::scheme_names() const {
  std::vector<std::string> names;
  names.reserve(custom_.size());
  for (const auto& [name, fn] : custom_) names.push_back(name);
  return names;
}

}  // namespace frieda::core
