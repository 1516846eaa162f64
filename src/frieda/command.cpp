#include "frieda/command.hpp"

#include <set>
#include <sstream>

#include "common/error.hpp"
#include "common/string_util.hpp"

namespace frieda::core {

namespace {
/// Returns N for "$inpN" tokens, 0 otherwise.
std::size_t placeholder_index(const std::string& token) {
  if (!strutil::starts_with(token, "$inp")) return 0;
  const auto n = strutil::to_int(token.substr(4));
  if (!n || *n <= 0) return 0;
  return static_cast<std::size_t>(*n);
}
}  // namespace

CommandTemplate::CommandTemplate(const std::string& spec) : spec_(strutil::trim(spec)) {
  std::istringstream in(spec_);
  std::string token;
  std::string literal;
  std::set<std::size_t> seen;
  while (in >> token) {
    if (program_.empty()) {
      program_ = token;
    } else {
      literal += ' ';
    }
    const std::size_t idx = placeholder_index(token);
    if (idx == 0) {
      FRIEDA_CHECK(!strutil::starts_with(token, "$inp"),
                   "malformed input placeholder '" << token << "' (use $inp1, $inp2, ...)");
      literal += token;
      continue;
    }
    FRIEDA_CHECK(seen.insert(idx).second, "duplicate placeholder $inp" << idx);
    literals_.push_back(std::move(literal));
    literal.clear();
    slots_.push_back(idx - 1);
  }
  FRIEDA_CHECK(!program_.empty(), "empty command template");
  literals_.push_back(std::move(literal));
  arity_ = seen.size();
  // Dense check: placeholders must be exactly {1..K}.
  for (std::size_t i = 1; i <= arity_; ++i) {
    FRIEDA_CHECK(seen.count(i), "placeholders must be dense: missing $inp" << i);
  }
}

template <typename AppendPath>
std::string CommandTemplate::assemble(std::size_t reserve, AppendPath&& append_path) const {
  for (const auto& lit : literals_) reserve += lit.size();
  std::string out;
  out.reserve(reserve);
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    out += literals_[i];
    append_path(out, slots_[i]);
  }
  out += literals_.back();
  return out;
}

std::string CommandTemplate::bind(const std::vector<std::string>& paths) const {
  FRIEDA_CHECK(paths.size() == arity_, "template expects " << arity_ << " inputs, got "
                                                           << paths.size());
  std::size_t bytes = 0;
  for (const auto slot : slots_) bytes += paths[slot].size();
  return assemble(bytes, [&](std::string& out, std::size_t slot) { out += paths[slot]; });
}

std::string CommandTemplate::bind_unit(const WorkUnit& unit,
                                       const storage::FileCatalog& catalog,
                                       const std::string& staging_dir) const {
  FRIEDA_CHECK(unit.inputs.size() == arity_, "template expects " << arity_ << " inputs, got "
                                                                 << unit.inputs.size());
  std::size_t bytes = 0;
  for (const auto slot : slots_) {
    bytes += staging_dir.size() + 1 + catalog.info(unit.inputs[slot]).name.size();
  }
  return assemble(bytes, [&](std::string& out, std::size_t slot) {
    out += staging_dir;
    out += '/';
    out += catalog.info(unit.inputs[slot]).name;
  });
}

}  // namespace frieda::core
