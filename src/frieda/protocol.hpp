// Wire protocol between controller, master, and workers.
//
// Mirrors the message flow of Figures 2–4: the controller initializes the
// master with the partition strategy (START_MASTER / SET_PARTITION_INFO) and
// forks workers (FORK_REMOTE_WORKERS); workers register, request data, and
// report execution status; the controller can push runtime reconfiguration
// (the open controller-master channel of Section II.D) including failure
// isolation and elastic add/remove of workers.
//
// In the simulated deployment these structs travel over sim::Channel; the
// threaded runtime (src/runtime) reuses the same types over thread-safe
// queues, so the protocol is defined once.
#pragma once

#include <string>
#include <variant>
#include <vector>

#include "common/units.hpp"
#include "frieda/types.hpp"

namespace frieda::core {

// ---- controller -> master --------------------------------------------------

/// Initialize the master with the run's data-management strategy.
struct StartMaster {
  PlacementStrategy strategy = PlacementStrategy::kRealTime;
  AssignmentPolicy assignment = AssignmentPolicy::kRoundRobin;
};

/// Hand the generated partition (work units) to the master.
struct SetPartitionInfo {
  std::vector<WorkUnit> units;
};

/// Announce workers forked on the execution plane.
struct ForkWorkers {
  std::vector<WorkerId> workers;
};

/// Isolate a failed worker: stop dispatching to it (Section V.A, Robust).
struct IsolateWorker {
  WorkerId worker = 0;
};

/// Elastic scale-out: new workers joined mid-run (Section V.A, Elastic).
struct AddWorkers {
  std::vector<WorkerId> workers;
};

/// Elastic scale-in request: drain and stop dispatching to a worker.
struct DrainWorker {
  WorkerId worker = 0;
};

/// Controller tells the master no further reconfiguration will arrive.
struct ControlDone {};

using ControlMessage = std::variant<StartMaster, SetPartitionInfo, ForkWorkers, IsolateWorker,
                                    AddWorkers, DrainWorker, ControlDone>;

// ---- worker -> master --------------------------------------------------

/// Worker announces itself and opens its connection (Fig. 4 "initialize and
/// register" + "connection acknowledgement").
struct RegisterWorker {
  WorkerId worker = 0;
};

/// Worker asks for its next input group (Fig. 4 "request data").
struct RequestWork {
  WorkerId worker = 0;
};

/// Worker reports one finished execution (Fig. 4 "send execution status").
struct ExecStatus {
  WorkerId worker = 0;
  WorkUnitId unit = 0;
  bool ok = true;
  SimTime transfer_seconds = 0.0;  ///< time spent acquiring input data
  SimTime exec_seconds = 0.0;      ///< time spent executing the program
};

using WorkerMessage = std::variant<RegisterWorker, RequestWork, ExecStatus>;

// ---- master -> worker --------------------------------------------------

/// One assignment: the unit, its bound command line, and where the inputs
/// are (FILE_METADATA; the FILE_DATA bytes move through the network model).
struct AssignWork {
  WorkUnit unit;
  std::string command;
  bool inputs_staged = true;  ///< false for remote-read: worker pulls bytes
};

/// No further work; the worker should exit its loop.
struct NoMoreWork {};

using MasterMessage = std::variant<AssignWork, NoMoreWork>;

/// Human-readable message names for traces.
const char* message_name(const ControlMessage& m);
const char* message_name(const WorkerMessage& m);
const char* message_name(const MasterMessage& m);

}  // namespace frieda::core
