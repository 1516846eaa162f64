// The threaded runtime on the shared master core: malformed input and failures
// on any exit path surface as FriedaError (never std::terminate), and the same
// workload reaches the same per-unit outcome on RtEngine and FriedaRun.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <unistd.h>

#include "cluster/cluster.hpp"
#include "common/error.hpp"
#include "frieda/app_model.hpp"
#include "frieda/partition.hpp"
#include "frieda/run.hpp"
#include "runtime/rt_engine.hpp"
#include "sim/simulation.hpp"

namespace frieda::rt {
namespace {

namespace fs = std::filesystem;

bool always_ok(const core::WorkUnit&, const std::vector<std::string>&, const std::string&) {
  return true;
}

class RtCoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::path(testing::TempDir()) / ("frieda_rtcore_" + std::to_string(::getpid()));
    source_ = (root_ / "source").string();
    fs::remove_all(root_);
    make_dataset(source_, 8, 16 * KiB, 5);
  }
  void TearDown() override { fs::remove_all(root_); }

  RtOptions options(core::PlacementStrategy strategy) const {
    RtOptions opt;
    opt.strategy = strategy;
    opt.worker_count = 4;
    opt.staging_root = (root_ / "staging").string();
    return opt;
  }

  fs::path root_;
  std::string source_;
};

TEST_F(RtCoreTest, NonDenseUnitIdsThrow) {
  RtEngine engine(source_, options(core::PlacementStrategy::kPrePartitionLocal));
  auto units = core::PartitionGenerator::generate(core::PartitionScheme::kSingleFile,
                                                  engine.catalog());
  units.resize(4);
  for (auto& u : units) u.id += 1000;
  EXPECT_THROW(engine.run(units, core::CommandTemplate("app $inp1"), always_ok), FriedaError);
}

TEST_F(RtCoreTest, UpfrontStagingFailureThrows) {
  RtEngine engine(source_, options(core::PlacementStrategy::kPrePartitionRemote));
  auto units = core::PartitionGenerator::generate(core::PartitionScheme::kSingleFile,
                                                  engine.catalog());
  fs::remove(fs::path(source_) / engine.catalog().info(5).name);  // vanishes after the scan
  EXPECT_THROW(engine.run(std::move(units), core::CommandTemplate("app $inp1"), always_ok),
               FriedaError);
}

TEST_F(RtCoreTest, NonStandardExceptionFailsOnlyItsUnit) {
  RtEngine engine(source_, options(core::PlacementStrategy::kRealTime));
  auto units = core::PartitionGenerator::generate(core::PartitionScheme::kSingleFile,
                                                  engine.catalog());
  const auto report =
      engine.run(std::move(units), core::CommandTemplate("app $inp1"),
                 [](const core::WorkUnit& unit, const std::vector<std::string>&,
                    const std::string&) -> bool {
                   if (unit.id == 3) throw 42;  // not a std::exception
                   return true;
                 });
  EXPECT_EQ(report.units_failed, 1u);
  EXPECT_EQ(report.units_completed, 7u);
  EXPECT_FALSE(report.units[3].ok);
}

/// Every unit costs one second on one core; no common data, no outputs.
class FlatApp : public core::AppModel {
 public:
  const std::string& name() const override { return name_; }
  SimTime task_seconds(const core::WorkUnit&) const override { return 1.0; }
  Bytes common_data_bytes() const override { return 0; }
  Bytes output_bytes(const core::WorkUnit&) const override { return 0; }

 private:
  std::string name_ = "flat";
};

/// The same workload on the simulator: one VM with one worker per core.
core::RunReport simulate(const storage::FileCatalog& catalog,
                         std::vector<core::WorkUnit> units,
                         core::PlacementStrategy strategy) {
  sim::Simulation sim(7);
  cluster::VirtualCluster cluster(sim, cluster::ClusterOptions{});
  auto type = cluster::c1_xlarge();
  type.cores = 4;
  cluster.provision(type, 1);
  const FlatApp app;
  core::RunOptions opt;
  opt.strategy = strategy;
  opt.assignment = core::AssignmentPolicy::kRoundRobin;
  core::FriedaRun run(cluster, catalog, std::move(units), app,
                      core::CommandTemplate("app $inp1"), opt);
  return run.run();
}

TEST_F(RtCoreTest, BothBackendsReachTheSameOutcomes) {
  for (const auto strategy :
       {core::PlacementStrategy::kPrePartitionRemote, core::PlacementStrategy::kRealTime}) {
    SCOPED_TRACE(core::to_string(strategy));
    RtEngine engine(source_, options(strategy));
    const auto units = core::PartitionGenerator::generate(core::PartitionScheme::kSingleFile,
                                                          engine.catalog());
    ASSERT_EQ(units.size(), 8u);
    const auto rt = engine.run(units, core::CommandTemplate("app $inp1"), always_ok);
    const auto simulated = simulate(engine.catalog(), units, strategy);
    ASSERT_EQ(rt.units.size(), simulated.units.size());
    for (std::size_t u = 0; u < units.size(); ++u) {
      SCOPED_TRACE("unit " + std::to_string(u));
      const auto& s = simulated.units[u];
      const auto& r = rt.units[u];
      EXPECT_EQ(s.status, r.ok ? core::UnitStatus::kCompleted : core::UnitStatus::kFailed);
      EXPECT_EQ(s.attempts, r.attempts);
      // Pre-partitioned shares fix the worker; real-time dispatch follows
      // whichever worker asks first.
      if (strategy == core::PlacementStrategy::kPrePartitionRemote) {
        EXPECT_EQ(s.worker, r.worker);
      }
    }
  }
}

}  // namespace
}  // namespace frieda::rt
