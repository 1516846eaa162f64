#include "exp/grid.hpp"

#include "exp/cost.hpp"
#include "frieda/types.hpp"

namespace frieda::exp {

void Grid::stamp_seed(workload::PaperScenarioOptions& opt, JobId index) const {
  if (derive_seeds_) opt.seed = derive_seed(seed_base_, index);
}

std::string Grid::default_tag(const char* app, const char* mode, JobId index) const {
  return std::string(app) + "/" + mode + "#" + std::to_string(index);
}

JobId Grid::add(std::string tag, std::function<core::RunReport()> fn, double cost) {
  const JobId id = jobs_.size();
  if (tag.empty()) tag = "job#" + std::to_string(id);
  // Ad-hoc jobs are opaque: no fingerprint, so the cache never sees them.
  jobs_.push_back({std::move(tag), std::move(fn), std::nullopt, cost});
  return id;
}

JobId Grid::push_scenario(const char* app, const char* mode, bool sequential,
                          const workload::PaperScenarioOptions& opt, std::string tag,
                          std::function<core::RunReport()> fn) {
  const JobId id = jobs_.size();
  if (tag.empty()) tag = default_tag(app, mode, id);
  jobs_.push_back({std::move(tag), std::move(fn), scenario_fingerprint(app, mode, opt),
                   scenario_cost(app, sequential, opt)});
  return id;
}

JobId Grid::add_als(core::PlacementStrategy strategy, workload::PaperScenarioOptions opt,
                    std::string tag) {
  stamp_seed(opt, jobs_.size());
  return push_scenario("als", core::to_string(strategy), false, opt, std::move(tag),
                       [strategy, opt] { return workload::run_als(strategy, opt); });
}

JobId Grid::add_blast(core::PlacementStrategy strategy, workload::PaperScenarioOptions opt,
                      std::string tag) {
  stamp_seed(opt, jobs_.size());
  return push_scenario("blast", core::to_string(strategy), false, opt, std::move(tag),
                       [strategy, opt] { return workload::run_blast(strategy, opt); });
}

JobId Grid::add_als_sequential(workload::PaperScenarioOptions opt, std::string tag) {
  stamp_seed(opt, jobs_.size());
  return push_scenario("als", "sequential", true, opt, std::move(tag),
                       [opt] { return workload::run_als_sequential(opt); });
}

JobId Grid::add_blast_sequential(workload::PaperScenarioOptions opt, std::string tag) {
  stamp_seed(opt, jobs_.size());
  return push_scenario("blast", "sequential", true, opt, std::move(tag),
                       [opt] { return workload::run_blast_sequential(opt); });
}

JobId Grid::add_als(core::PlacementStrategy strategy, workload::PaperScenarioOptions opt,
                    std::shared_ptr<const workload::ImageCompareModel> app, std::string tag) {
  stamp_seed(opt, jobs_.size());
  // Shared-model jobs hash identically to their build-the-model twins: the
  // model is a pure function of opt.scale, so the report is the same either
  // way (asserted by tests/test_sweep.cpp, SharedModelMatchesPerJobModel).
  return push_scenario("als", core::to_string(strategy), false, opt, std::move(tag),
                       [strategy, opt, app = std::move(app)] {
                         return workload::run_als(strategy, *app, opt);
                       });
}

JobId Grid::add_blast(core::PlacementStrategy strategy, workload::PaperScenarioOptions opt,
                      std::shared_ptr<const workload::BlastModel> app, std::string tag) {
  stamp_seed(opt, jobs_.size());
  return push_scenario("blast", core::to_string(strategy), false, opt, std::move(tag),
                       [strategy, opt, app = std::move(app)] {
                         return workload::run_blast(strategy, *app, opt);
                       });
}

JobId Grid::add_als_sequential(workload::PaperScenarioOptions opt,
                               std::shared_ptr<const workload::ImageCompareModel> app,
                               std::string tag) {
  stamp_seed(opt, jobs_.size());
  return push_scenario("als", "sequential", true, opt, std::move(tag),
                       [opt, app = std::move(app)] {
                         return workload::run_als_sequential(*app, opt);
                       });
}

JobId Grid::add_blast_sequential(workload::PaperScenarioOptions opt,
                                 std::shared_ptr<const workload::BlastModel> app,
                                 std::string tag) {
  stamp_seed(opt, jobs_.size());
  return push_scenario("blast", "sequential", true, opt, std::move(tag),
                       [opt, app = std::move(app)] {
                         return workload::run_blast_sequential(*app, opt);
                       });
}

void ScenarioSweep::run() {
  FRIEDA_CHECK(!ran_, "ScenarioSweep::run() called twice; a sweep executes once — "
                      "build a new ScenarioSweep to run another grid");
  ran_ = true;
  outcomes_ = runner_.run(grid_.take());
}

const JobOutcome<core::RunReport>& ScenarioSweep::outcome(JobId id) const {
  FRIEDA_CHECK(ran_, "ScenarioSweep::outcome(" << id << ") before run()");
  FRIEDA_CHECK(id < outcomes_.size(),
               "sweep outcome " << id << " out of range (" << outcomes_.size()
                                << " jobs ran)");
  return outcomes_[id];
}

}  // namespace frieda::exp
