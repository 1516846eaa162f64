#include "frieda/protocol.hpp"

namespace frieda::core {

namespace {
struct ControlNamer {
  const char* operator()(const StartMaster&) const { return "START_MASTER"; }
  const char* operator()(const SetPartitionInfo&) const { return "SET_PARTITION_INFO"; }
  const char* operator()(const ForkWorkers&) const { return "FORK_REMOTE_WORKERS"; }
  const char* operator()(const IsolateWorker&) const { return "ISOLATE_WORKER"; }
  const char* operator()(const AddWorkers&) const { return "ADD_WORKERS"; }
  const char* operator()(const DrainWorker&) const { return "DRAIN_WORKER"; }
  const char* operator()(const ControlDone&) const { return "CONTROL_DONE"; }
};
struct WorkerNamer {
  const char* operator()(const RegisterWorker&) const { return "REGISTER_WORKER"; }
  const char* operator()(const RequestWork&) const { return "REQUEST_DATA"; }
  const char* operator()(const ExecStatus&) const { return "EXEC_STATUS"; }
};
struct MasterNamer {
  const char* operator()(const AssignWork&) const { return "FILE_METADATA"; }
  const char* operator()(const NoMoreWork&) const { return "NO_MORE_WORK"; }
};
}  // namespace

const char* message_name(const ControlMessage& m) { return std::visit(ControlNamer{}, m); }
const char* message_name(const WorkerMessage& m) { return std::visit(WorkerNamer{}, m); }
const char* message_name(const MasterMessage& m) { return std::visit(MasterNamer{}, m); }

}  // namespace frieda::core
