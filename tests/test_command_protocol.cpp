#include <gtest/gtest.h>

#include "common/error.hpp"
#include "frieda/command.hpp"
#include "frieda/protocol.hpp"
#include "frieda/types.hpp"

namespace frieda::core {
namespace {

TEST(Command, ParsesPaperExample) {
  // "app arg1 arg2 $inp1" — Section II.D.
  const CommandTemplate cmd("app arg1 arg2 $inp1");
  EXPECT_EQ(cmd.program(), "app");
  EXPECT_EQ(cmd.input_arity(), 1u);
  EXPECT_EQ(cmd.bind({"/data/seq.fasta"}), "app arg1 arg2 /data/seq.fasta");
}

TEST(Command, TwoInputs) {
  const CommandTemplate cmd("compare -t 0.9 $inp1 $inp2");
  EXPECT_EQ(cmd.input_arity(), 2u);
  EXPECT_EQ(cmd.bind({"a.tif", "b.tif"}), "compare -t 0.9 a.tif b.tif");
}

TEST(Command, PlaceholderOrderFollowsTemplate) {
  const CommandTemplate cmd("p $inp2 $inp1");
  EXPECT_EQ(cmd.bind({"first", "second"}), "p second first");
}

TEST(Command, NoInputs) {
  const CommandTemplate cmd("hostname -f");
  EXPECT_EQ(cmd.input_arity(), 0u);
  EXPECT_EQ(cmd.bind({}), "hostname -f");
}

TEST(Command, MalformedTemplatesThrow) {
  EXPECT_THROW(CommandTemplate(""), FriedaError);
  EXPECT_THROW(CommandTemplate("   "), FriedaError);
  EXPECT_THROW(CommandTemplate("app $inp1 $inp1"), FriedaError);   // duplicate
  EXPECT_THROW(CommandTemplate("app $inp2"), FriedaError);         // not dense
  EXPECT_THROW(CommandTemplate("app $inpX"), FriedaError);         // malformed
  EXPECT_THROW(CommandTemplate("app $inp0"), FriedaError);         // 1-based
}

TEST(Command, BindArityMismatchThrows) {
  const CommandTemplate cmd("app $inp1");
  EXPECT_THROW(cmd.bind({}), FriedaError);
  EXPECT_THROW(cmd.bind({"a", "b"}), FriedaError);
}

TEST(Command, BindUnitUsesCatalogNames) {
  storage::FileCatalog cat;
  cat.add_file("img_0.tif", MB);
  cat.add_file("img_1.tif", MB);
  WorkUnit unit;
  unit.inputs = {0, 1};
  const CommandTemplate cmd("compare $inp1 $inp2");
  EXPECT_TRUE(cmd.accepts(unit));
  EXPECT_EQ(cmd.bind_unit(unit, cat), "compare /data/img_0.tif /data/img_1.tif");
  EXPECT_EQ(cmd.bind_unit(unit, cat, "/scratch"),
            "compare /scratch/img_0.tif /scratch/img_1.tif");
  WorkUnit wrong;
  wrong.inputs = {0};
  EXPECT_FALSE(cmd.accepts(wrong));
}

TEST(Command, BindUnitMatchesBindWithOutOfOrderPlaceholders) {
  storage::FileCatalog cat;
  cat.add_file("q.fasta", MB);
  cat.add_file("db.fasta", MB);
  cat.add_file("extra.cfg", MB);
  for (const std::string spec :
       {"tool -x $inp2 --in $inp1 -o out", "$inp3 $inp1 $inp2", "run  $inp1   $inp3 mid $inp2 ",
        "a b c $inp2 $inp3 $inp1 d e"}) {
    const CommandTemplate cmd(spec);
    WorkUnit unit;
    for (storage::FileId f = 0; f < cmd.input_arity(); ++f) unit.inputs.push_back(f);
    for (const std::string dir : {"/data", "/scratch/x", ""}) {
      std::vector<std::string> paths;
      for (const auto f : unit.inputs) paths.push_back(dir + "/" + cat.info(f).name);
      EXPECT_EQ(cmd.bind_unit(unit, cat, dir), cmd.bind(paths)) << spec << " in " << dir;
    }
  }
  EXPECT_EQ(CommandTemplate("tool -x $inp2 --in $inp1 -o out").bind_unit({0, {0, 1}}, cat),
            "tool -x /data/db.fasta --in /data/q.fasta -o out");
}

TEST(Command, BindUnitArityMismatchThrows) {
  storage::FileCatalog cat;
  cat.add_file("a", MB);
  cat.add_file("b", MB);
  const CommandTemplate cmd("tool $inp2 $inp1");
  WorkUnit one;
  one.inputs = {0};
  WorkUnit three;
  three.inputs = {0, 1, 0};
  EXPECT_THROW(cmd.bind_unit(one, cat), FriedaError);
  EXPECT_THROW(cmd.bind_unit(three, cat), FriedaError);
  EXPECT_THROW(CommandTemplate("hostname").bind_unit(one, cat), FriedaError);
}

TEST(Protocol, MessageNames) {
  EXPECT_STREQ(message_name(ControlMessage{StartMaster{}}), "START_MASTER");
  EXPECT_STREQ(message_name(ControlMessage{SetPartitionInfo{}}), "SET_PARTITION_INFO");
  EXPECT_STREQ(message_name(ControlMessage{ForkWorkers{}}), "FORK_REMOTE_WORKERS");
  EXPECT_STREQ(message_name(ControlMessage{IsolateWorker{}}), "ISOLATE_WORKER");
  EXPECT_STREQ(message_name(ControlMessage{AddWorkers{}}), "ADD_WORKERS");
  EXPECT_STREQ(message_name(ControlMessage{DrainWorker{}}), "DRAIN_WORKER");
  EXPECT_STREQ(message_name(ControlMessage{ControlDone{}}), "CONTROL_DONE");
  EXPECT_STREQ(message_name(WorkerMessage{RegisterWorker{}}), "REGISTER_WORKER");
  EXPECT_STREQ(message_name(WorkerMessage{RequestWork{}}), "REQUEST_DATA");
  EXPECT_STREQ(message_name(WorkerMessage{ExecStatus{}}), "EXEC_STATUS");
  EXPECT_STREQ(message_name(MasterMessage{AssignWork{}}), "FILE_METADATA");
  EXPECT_STREQ(message_name(MasterMessage{NoMoreWork{}}), "NO_MORE_WORK");
}

TEST(Types, EnumRoundTrips) {
  for (const auto s : {PartitionScheme::kSingleFile, PartitionScheme::kOneToAll,
                       PartitionScheme::kPairwiseAdjacent, PartitionScheme::kAllToAll}) {
    EXPECT_EQ(parse_partition_scheme(to_string(s)), s);
  }
  for (const auto s :
       {PlacementStrategy::kNoPartitionCommon, PlacementStrategy::kPrePartitionLocal,
        PlacementStrategy::kPrePartitionRemote, PlacementStrategy::kRealTime,
        PlacementStrategy::kRemoteRead}) {
    EXPECT_EQ(parse_placement_strategy(to_string(s)), s);
  }
  for (const auto p : {AssignmentPolicy::kRoundRobin, AssignmentPolicy::kBlock,
                       AssignmentPolicy::kSizeBalanced}) {
    EXPECT_EQ(parse_assignment_policy(to_string(p)), p);
  }
  EXPECT_FALSE(parse_partition_scheme("nope").has_value());
  EXPECT_FALSE(parse_placement_strategy("nope").has_value());
  EXPECT_FALSE(parse_assignment_policy("nope").has_value());
}

}  // namespace
}  // namespace frieda::core
