// Execution-syntax templates (paper Section II.D).
//
// "If 'app' is the program that needs to be executed and takes arg1 and arg2
//  as params and inp1 as input, then the execution command is sent to the
//  workers as `app arg1 arg2 $inp1`, where $inp1 is replaced by the location
//  of the file at runtime."
//
// CommandTemplate parses that syntax, validates that the $inpN placeholders
// are dense (inp1..inpK), and binds concrete file paths when the worker
// receives a work unit.  FRIEDA never modifies the program itself.
#pragma once

#include <string>
#include <vector>

#include "frieda/types.hpp"
#include "storage/file.hpp"

namespace frieda::core {

/// A parsed program invocation template with $inpN input placeholders.
class CommandTemplate {
 public:
  /// Parse from the paper's syntax.  Throws FriedaError on malformed or
  /// non-dense placeholders ($inp1..$inpK each exactly once).
  explicit CommandTemplate(const std::string& spec);

  /// Number of input placeholders K (files each program instance consumes).
  std::size_t input_arity() const { return arity_; }

  /// The program token (first word).
  const std::string& program() const { return program_; }

  /// Raw template text.
  const std::string& spec() const { return spec_; }

  /// Substitute file locations for the placeholders; requires
  /// paths.size() == input_arity().
  std::string bind(const std::vector<std::string>& paths) const;

  /// Bind using the catalog names of a work unit's files, prefixed with a
  /// staging directory ("/data/<name>").
  std::string bind_unit(const WorkUnit& unit, const storage::FileCatalog& catalog,
                        const std::string& staging_dir = "/data") const;

  /// True when a unit's group size matches the template's arity.
  bool accepts(const WorkUnit& unit) const { return unit.inputs.size() == arity_; }

 private:
  /// The literal runs interleaved with append_path(out, slot) per
  /// placeholder, in one string reserved for the literals plus `reserve`
  /// bytes of paths.
  template <typename AppendPath>
  std::string assemble(std::size_t reserve, AppendPath&& append_path) const;

  std::string spec_;
  std::string program_;
  // The template pre-split around its placeholders, words joined by single
  // spaces: a bound command is literals_[0] + path(slots_[0]) + literals_[1]
  // + ... + path(slots_[K-1]) + literals_[K].
  std::vector<std::string> literals_;
  std::vector<std::size_t> slots_;  // 0-based input index per placeholder
  std::size_t arity_ = 0;
};

}  // namespace frieda::core
