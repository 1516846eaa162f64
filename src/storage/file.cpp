#include "storage/file.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace frieda::storage {

FileId FileCatalog::add_file(std::string name, Bytes size) {
  const FileId id = static_cast<FileId>(files_.size());
  files_.push_back(FileInfo{id, std::move(name), size});
  total_bytes_ += size;
  return id;
}

const FileInfo& FileCatalog::info(FileId id) const {
  FRIEDA_CHECK(id < files_.size(), "file id " << id << " out of range");
  return files_[id];
}

std::vector<FileId> FileCatalog::all_ids() const {
  std::vector<FileId> ids(files_.size());
  for (std::size_t i = 0; i < files_.size(); ++i) ids[i] = static_cast<FileId>(i);
  return ids;
}

namespace {

/// Insert `v` into the sorted `ids` unless present; the common in-order
/// append costs no search.
template <typename Id>
void insert_sorted(std::vector<Id>& ids, Id v) {
  if (ids.empty() || ids.back() < v) {
    ids.push_back(v);
    return;
  }
  const auto it = std::lower_bound(ids.begin(), ids.end(), v);
  if (*it != v) ids.insert(it, v);
}

/// Remove `v` from the sorted `ids` if present.
template <typename Id>
void erase_sorted(std::vector<Id>& ids, Id v) {
  const auto it = std::lower_bound(ids.begin(), ids.end(), v);
  if (it != ids.end() && *it == v) ids.erase(it);
}

/// `table[id]`, or an empty list for an id the table has never grown to.
template <typename Id, typename Elem>
const std::vector<Elem>& row(const std::vector<std::vector<Elem>>& table, Id id) {
  static const std::vector<Elem> kEmpty;
  return id < table.size() ? table[id] : kEmpty;
}

}  // namespace

void ReplicaMap::add(FileId file, net::NodeId node) {
  if (file >= by_file_.size()) by_file_.resize(std::size_t{file} + 1);
  if (node >= by_node_.size()) by_node_.resize(std::size_t{node} + 1);
  insert_sorted(by_file_[file], node);
  insert_sorted(by_node_[node], file);
}

void ReplicaMap::remove(FileId file, net::NodeId node) {
  if (file < by_file_.size()) erase_sorted(by_file_[file], node);
  if (node < by_node_.size()) erase_sorted(by_node_[node], file);
}

bool ReplicaMap::has(FileId file, net::NodeId node) const {
  const auto& nodes = row(by_file_, file);
  return std::binary_search(nodes.begin(), nodes.end(), node);
}

const std::vector<net::NodeId>& ReplicaMap::nodes_with(FileId file) const {
  return row(by_file_, file);
}

const std::vector<FileId>& ReplicaMap::files_on(net::NodeId node) const {
  return row(by_node_, node);
}

Bytes ReplicaMap::bytes_on(net::NodeId node, const FileCatalog& catalog) const {
  Bytes total = 0;
  for (FileId f : files_on(node)) total += catalog.info(f).size;
  return total;
}

void ReplicaMap::drop_node(net::NodeId node) {
  if (node >= by_node_.size()) return;
  for (FileId f : by_node_[node]) erase_sorted(by_file_[f], node);
  by_node_[node] = {};
}

}  // namespace frieda::storage
