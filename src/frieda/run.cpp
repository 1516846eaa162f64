#include "frieda/run.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "common/error.hpp"
#include "common/log.hpp"
#include "frieda/assignment.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "sim/sync.hpp"

namespace frieda::core {

namespace {
/// The pin entry of `file` in a VM's (FileId, count) pin list, or end().
template <typename Pins>
auto find_pin(Pins& pins, storage::FileId file) {
  return std::find_if(pins.begin(), pins.end(),
                      [file](const auto& pin) { return pin.first == file; });
}
}  // namespace

MasterPolicy master_policy(const RunOptions& options) {
  const bool queue_fed = options.strategy == PlacementStrategy::kRealTime ||
                         options.strategy == PlacementStrategy::kRemoteRead ||
                         options.strategy == PlacementStrategy::kSharedVolume;
  MasterPolicy policy;
  policy.credits = 1 + static_cast<std::size_t>(std::max(options.prefetch, 0));
  policy.requeue = options.requeue_on_failure;
  policy.max_attempts = options.max_attempts;
  // Pre-partitioned without requeue: a worker's own share is all it runs.
  policy.release_idle = !options.requeue_on_failure && !queue_fed;
  policy.locality_aware = options.locality_aware;
  policy.locality_scan_depth = options.locality_scan_depth;
  return policy;
}

FriedaRun::FriedaRun(cluster::VirtualCluster& cluster, const storage::FileCatalog& catalog,
                     std::vector<WorkUnit> units, const AppModel& app, CommandTemplate command,
                     RunOptions options)
    : cluster_(cluster),
      sim_(cluster.simulation()),
      catalog_(catalog),
      units_(std::move(units)),
      app_(app),
      command_(std::move(command)),
      options_(std::move(options)),
      initial_vms_(cluster.all_vms()),
      core_(units_, master_policy(options_), master_hooks()) {
  FRIEDA_CHECK(!units_.empty(), "run needs at least one work unit");
  FRIEDA_CHECK(!initial_vms_.empty(), "run needs at least one provisioned VM");
  for (const auto& u : units_) {
    FRIEDA_CHECK(command_.accepts(u),
                 "command template arity " << command_.input_arity()
                                           << " does not match unit " << u.id << " with "
                                           << u.inputs.size() << " inputs");
  }

  if (open_loop()) {
    FRIEDA_CHECK(options_.arrivals.size() == units_.size(),
                 "open-loop mode needs one arrival offset per unit ("
                     << options_.arrivals.size() << " offsets for " << units_.size()
                     << " units)");
    FRIEDA_CHECK(options_.strategy == PlacementStrategy::kRealTime || streams_inputs(),
                 "open-loop mode requires a queue-fed strategy "
                 "(real-time, remote-read, or shared-volume)");
    SimTime prev = 0.0;
    for (const auto t : options_.arrivals) {
      FRIEDA_CHECK(t >= prev, "arrival offsets must be ascending and >= 0");
      prev = t;
    }
  }
  const auto& ep = options_.elastic_policy;
  if (ep.enabled) {
    FRIEDA_CHECK(open_loop(), "the elasticity policy needs open-loop arrivals");
    FRIEDA_CHECK(ep.scale_in_depth < ep.scale_out_depth,
                 "elastic policy: scale_in_depth must be below scale_out_depth");
    FRIEDA_CHECK(ep.check_interval > 0.0, "elastic policy: check_interval must be > 0");
    FRIEDA_CHECK(ep.hysteresis >= 1, "elastic policy: hysteresis must be >= 1");
  }

  handed_.assign(units_.size(), 0);
  unit_pin_vm_.assign(units_.size(), kNoVm);
  inbox_ = std::make_unique<sim::Channel<InboxMessage>>(sim_);
  events_ = std::make_unique<sim::Channel<ControllerEvent>>(sim_);

  // The catalog's files live in the source node's input directory unless
  // the caller says otherwise (workflow stages seed replicas instead).
  // With the shared-volume strategy they live on the volume server.
  if (options_.inputs_at_source) {
    auto home = cluster_.source_node();
    if (options_.strategy == PlacementStrategy::kSharedVolume) {
      const auto storage = cluster_.storage_node();
      FRIEDA_CHECK(storage.has_value(),
                   "shared-volume strategy needs ClusterOptions::with_storage_server");
      home = *storage;
    }
    for (const auto& f : catalog_.files()) replicas_.add(f.id, home);
  }

  // Failure and boot notifications flow to the controller (Fig. 4: failed
  // workers are reported to the controller, which initiates remediation).
  failure_token_ = cluster_.on_failure([this](cluster::VmId vm) {
    replicas_.drop_node(cluster_.vm(vm).node());  // transient storage is gone
    events_->try_send(EvVmFailed{vm});
  });
  running_token_ =
      cluster_.on_running([this](cluster::VmId vm) { events_->try_send(EvVmRunning{vm}); });

  tracer_ = options_.tracer;
  telemetry_ = options_.telemetry;
  if (tracer_) {
    trace_born_.assign(units_.size(), 0.0);
    trace_pending_.assign(units_.size(), 0.0);
  }
  if (options_.metrics) {
    auto& m = *options_.metrics;
    run_metrics_.requeues = &m.counter("run.requeues");
    run_metrics_.evictions = &m.counter("run.evictions");
    run_metrics_.isolations = &m.counter("run.isolations");
    run_metrics_.master_crashes = &m.counter("run.master_crashes");
  }
}

FriedaRun::~FriedaRun() {
  cluster_.remove_observer(failure_token_);
  cluster_.remove_observer(running_token_);
}

unsigned FriedaRun::workers_per_vm(cluster::VmId vm) const {
  return options_.multicore ? cluster_.vm(vm).type().cores : 1u;
}

// ---------------------------------------------------------------------------
// Observability taps (no-ops unless a tracer/registry was attached)
// ---------------------------------------------------------------------------

void FriedaRun::mark_pending(WorkUnitId unit) {
  if (tracer_) trace_pending_[unit] = sim_.now();
}

void FriedaRun::trace_instant(const char* name, const char* cat,
                              std::vector<std::pair<const char*, std::string>> args) {
  if (!tracer_) return;
  obs::TraceEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.process = obs::kRunTrack;
  ev.start = ev.end = sim_.now();
  ev.args.reserve(args.size());
  for (auto& [key, value] : args) ev.args.push_back({key, std::move(value)});
  tracer_->instant(std::move(ev));
}

// ---------------------------------------------------------------------------
// The master core's effects on this run
// ---------------------------------------------------------------------------

MasterHooks FriedaRun::master_hooks() {
  MasterHooks hooks;
  hooks.dispatch = [this](WorkerId worker, WorkUnitId unit) {
    handed_[unit] = 0;
    if (tracer_) {  // the pending span this dispatch ends
      obs::TraceEvent ev;
      ev.name = "pending unit " + std::to_string(unit);
      ev.cat = "pending";
      ev.process = obs::kUnitTrack;
      ev.track = static_cast<std::uint32_t>(unit);
      ev.start = trace_pending_[unit];
      ev.end = sim_.now();
      ev.args = {{"attempt", std::to_string(core_.record(unit).attempts)},
                 {"worker", std::to_string(worker)},
                 {"vm", std::to_string(workers_[worker]->vm)}};
      tracer_->span(std::move(ev));
    }
    sim_.spawn(dispatch(worker, unit), "dispatch");
  };
  hooks.release = [this](WorkerId worker) {
    auto& ws = *workers_[worker];
    ws.inbox->try_send(NoMoreWork{});
    if (!core_.finished()) maybe_terminate_vm(ws.vm);
  };
  hooks.terminal = [this](const UnitRecord& rec) {
    unpin_unit(rec.unit);
    if (open_loop() && rec.status == UnitStatus::kCompleted) {
      latency_.add(rec.finished - rec.arrival);  // sojourn: arrival -> completion
      if (telemetry_ != nullptr) {
        telemetry_->observe_latency(rec.finished, rec.finished - rec.arrival);
      }
    }
    if (tracer_) {  // the unit's lifecycle span
      obs::TraceEvent ev;
      ev.name = "unit " + std::to_string(rec.unit);
      ev.cat = "unit";
      ev.process = obs::kUnitTrack;
      ev.track = static_cast<std::uint32_t>(rec.unit);
      ev.start = trace_born_[rec.unit];
      ev.end = rec.finished;
      ev.args = {{"status", to_string(rec.status)},
                 {"attempts", std::to_string(rec.attempts)}};
      if (rec.attempts > 0) {
        ev.args.push_back({"worker", std::to_string(rec.worker)});
        ev.args.push_back({"vm", std::to_string(workers_[rec.worker]->vm)});
      }
      tracer_->span(std::move(ev));
    }
  };
  hooks.requeued = [this](WorkUnitId unit, Requeue why) {
    unpin_unit(unit);
    if (why != Requeue::kMoved && run_metrics_.requeues) run_metrics_.requeues->inc();
    mark_pending(unit);
    if (why == Requeue::kRetry && tracer_) {
      trace_instant("requeue", "control",
                    {{"unit", std::to_string(unit)},
                     {"attempt", std::to_string(core_.record(unit).attempts)}});
    }
  };
  hooks.isolated = [this](WorkerId worker) {
    if (run_metrics_.isolations) run_metrics_.isolations->inc();
    if (tracer_) {
      trace_instant("isolate-worker", "protocol",
                    {{"worker", std::to_string(worker)},
                     {"vm", std::to_string(workers_[worker]->vm)}});
    }
    workers_[worker]->inbox->close();  // a blocked worker wakes with nullopt and exits
  };
  hooks.finished = [this] {
    end_time_ = sim_.now();
    for (auto& ws : workers_) ws->inbox->close();
    events_->close();
  };
  hooks.inputs_local = [this](WorkerId worker, WorkUnitId unit) {
    const auto node = cluster_.vm(workers_[worker]->vm).node();
    return std::all_of(units_[unit].inputs.begin(), units_[unit].inputs.end(),
                       [&](storage::FileId f) { return replicas_.has(f, node); });
  };
  return hooks;
}

void FriedaRun::pre_place_all_inputs(const std::vector<cluster::VmId>& vms) {
  common_preplaced_ = true;
  for (const auto vm : vms) {
    const auto node = cluster_.vm(vm).node();
    if (options_.track_disk_capacity) {
      const Bytes needed = catalog_.total_bytes() + app_.common_data_bytes();
      FRIEDA_CHECK(cluster_.vm(vm).disk().allocate(needed),
                   "pre-placed dataset (" << needed << " B) does not fit on vm " << vm
                                          << "'s local disk");
    }
    for (const auto& f : catalog_.files()) replicas_.add(f.id, node);
  }
}

void FriedaRun::pre_place_partitions(const std::vector<cluster::VmId>& vms) {
  common_preplaced_ = true;
  // Reproduce the master's worker ordering: vm order x slot.
  std::vector<cluster::VmId> worker_vm;
  for (const auto vm : vms) {
    for (unsigned s = 0; s < workers_per_vm(vm); ++s) worker_vm.push_back(vm);
  }
  const auto assignment =
      assign_units(options_.assignment, units_, catalog_, worker_vm.size());
  for (std::size_t w = 0; w < assignment.size(); ++w) {
    const auto vm = worker_vm[w];
    const auto node = cluster_.vm(vm).node();
    for (const auto u : assignment[w]) {
      for (const auto f : units_[u].inputs) {
        if (replicas_.has(f, node)) continue;
        if (options_.track_disk_capacity) {
          FRIEDA_CHECK(cluster_.vm(vm).disk().allocate(catalog_.info(f).size),
                       "pre-placed partition does not fit on vm " << vm << "'s local disk");
        }
        replicas_.add(f, node);
      }
    }
  }
  if (options_.track_disk_capacity && app_.common_data_bytes() > 0) {
    for (const auto vm : vms) {
      FRIEDA_CHECK(cluster_.vm(vm).disk().allocate(app_.common_data_bytes()),
                   "common data does not fit on vm " << vm << "'s local disk");
    }
  }
}

void FriedaRun::seed_replica(cluster::VmId vm, storage::FileId file) {
  FRIEDA_CHECK(file < catalog_.count(), "seed_replica: file id out of range");
  replicas_.add(file, cluster_.vm(vm).node());
}

std::optional<net::NodeId> FriedaRun::replica_source(storage::FileId file,
                                                     net::NodeId target) {
  const auto& nodes = replicas_.nodes_with(file);
  if (nodes.empty()) return std::nullopt;
  const auto source = cluster_.source_node();
  if (replicas_.has(file, source)) return source;
  const auto& topo = cluster_.network().topology();
  for (const auto n : nodes) {
    if (n != target && topo.site(n) == topo.site(target)) return n;
  }
  for (const auto n : nodes) {
    if (n != target) return n;
  }
  return std::nullopt;
}

void FriedaRun::pre_place_files(cluster::VmId vm, const std::vector<storage::FileId>& files) {
  const auto node = cluster_.vm(vm).node();
  for (const auto f : files) {
    if (replicas_.has(f, node)) continue;
    if (options_.track_disk_capacity) {
      FRIEDA_CHECK(cluster_.vm(vm).disk().allocate(catalog_.info(f).size),
                   "pre-placed file " << f << " does not fit on vm " << vm);
    }
    replicas_.add(f, node);
  }
}

cluster::VmId FriedaRun::add_vm(const cluster::InstanceType& type) {
  return cluster_.provision(type);  // EvVmRunning arrives once booted
}

void FriedaRun::crash_master(SimTime recovery_delay) {
  FRIEDA_CHECK(recovery_delay >= 0.0, "recovery delay must be >= 0");
  if (core_.finished() || master_down_) return;
  if (run_metrics_.master_crashes) run_metrics_.master_crashes->inc();
  if (tracer_) {
    trace_instant("master-crash", "protocol",
                  {{"recovery_s", std::to_string(recovery_delay)}});
  }
  master_down_ = true;
  ++master_epoch_;  // abandons every dispatch that was mid-staging
  master_recovered_ = std::make_unique<sim::Signal>(sim_);
  timeline_.record(ActivityKind::kStage, sim_.now(), sim_.now() + recovery_delay,
                   "master-down");
  FLOG(kInfo, "controller", "master failed at t=" << sim_.now() << "; restarting in "
                                                  << recovery_delay << " s");
  sim_.schedule_in(recovery_delay, [this] { recover_master(); });
}

void FriedaRun::recover_master() {
  if (core_.finished()) return;
  master_down_ = false;
  // Resync from the controller's view: assignments that never reached a
  // worker were lost with the master and go back to the queue; everything a
  // worker already holds keeps running (the planes are decoupled).
  for (const auto& rec : core_.records()) {
    if (rec.status == UnitStatus::kInFlight && !handed_[rec.unit]) core_.retract(rec.unit);
  }
  if (tracer_) trace_instant("master-recover", "protocol");
  FLOG(kInfo, "controller", "master recovered at t=" << sim_.now());
  master_recovered_->trigger();
  if (serving_) core_.top_up_all(sim_.now());
}

void FriedaRun::remove_vm(cluster::VmId vm) { events_->try_send(EvRemoveVm{vm}); }

FriedaRun::VmCtx& FriedaRun::vm_ctx(cluster::VmId vm) {
  if (vm >= vms_.size()) vms_.resize(std::size_t{vm} + 1);
  return vms_[vm];
}

sim::Signal& FriedaRun::node_ready(cluster::VmId vm) {
  auto& slot = vm_ctx(vm).ready;
  if (!slot) slot = std::make_unique<sim::Signal>(sim_);
  return *slot;
}

// ---------------------------------------------------------------------------
// Controller (control plane)
// ---------------------------------------------------------------------------

void FriedaRun::fork_workers_on(cluster::VmId vm, std::vector<WorkerId>& out) {
  const unsigned n = workers_per_vm(vm);
  for (unsigned slot = 0; slot < n; ++slot) {
    auto ctx = std::make_unique<WorkerCtx>();
    ctx->id = core_.add_worker();
    ctx->vm = vm;
    ctx->slot = slot;
    ctx->inbox = std::make_unique<sim::Channel<MasterMessage>>(sim_);
    out.push_back(ctx->id);
    workers_.push_back(std::move(ctx));
    sim_.spawn(worker_main(workers_.back()->id),
               "worker-" + std::to_string(workers_.back()->id));
  }
}

sim::Task<> FriedaRun::controller_main() {
  // Fig. 4: the controller starts the master and initializes it with the
  // partition strategy, keeping an open channel for runtime reconfiguration.
  co_await sim_.delay(options_.control_latency);
  // Messages are built into named locals before sending: see the note on
  // Channel::send about GCC 12 and co_await argument temporaries.
  InboxMessage start = StartMaster{options_.strategy, options_.assignment};
  co_await inbox_->send(std::move(start));
  InboxMessage partition_info = SetPartitionInfo{units_};
  co_await inbox_->send(std::move(partition_info));

  co_await cluster_.wait_all_running(initial_vms_);
  ready_time_ = sim_.now();

  std::vector<WorkerId> ids;
  for (const auto vm : initial_vms_) {
    if (cluster_.vm(vm).running()) fork_workers_on(vm, ids);
  }
  InboxMessage fork = ForkWorkers{ids};
  co_await inbox_->send(std::move(fork));
  FLOG(kDebug, "controller", "forked " << ids.size() << " workers at t=" << sim_.now());

  const std::set<cluster::VmId> initial_set(initial_vms_.begin(), initial_vms_.end());
  while (true) {
    auto ev = co_await events_->recv();
    if (!ev) break;
    if (const auto* failed = std::get_if<EvVmFailed>(&*ev)) {
      co_await sim_.delay(options_.control_latency);
      for (const auto& ws : workers_) {
        if (ws->vm == failed->vm && !core_.worker(ws->id).isolated) {
          InboxMessage isolate = IsolateWorker{ws->id};
          co_await inbox_->send(std::move(isolate));
        }
      }
    } else if (const auto* running = std::get_if<EvVmRunning>(&*ev)) {
      if (initial_set.count(running->vm)) continue;  // handled by ForkWorkers
      std::vector<WorkerId> added;
      fork_workers_on(running->vm, added);
      co_await sim_.delay(options_.control_latency);
      InboxMessage add = AddWorkers{added};
      co_await inbox_->send(std::move(add));
      FLOG(kDebug, "controller", "elastic add: vm " << running->vm << " joined with "
                                                    << added.size() << " workers");
    } else if (const auto* remove = std::get_if<EvRemoveVm>(&*ev)) {
      co_await sim_.delay(options_.control_latency);
      for (const auto& ws : workers_) {
        if (ws->vm == remove->vm && core_.worker(ws->id).live()) {
          InboxMessage drain = DrainWorker{ws->id};
          co_await inbox_->send(std::move(drain));
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Master (execution plane, data management)
// ---------------------------------------------------------------------------

sim::Task<> FriedaRun::master_main() {
  // Phase 1: initialization — wait for the controller's directives.
  while (!initialized_) {
    auto msg = co_await inbox_->recv();
    if (!msg) co_return;
    if (const auto* ctrl = std::get_if<ControlMessage>(&*msg)) {
      handle_control(*ctrl);
    } else {
      handle_worker_msg(std::get<WorkerMessage>(*msg));
    }
  }

  if (workers_.empty()) {
    // Every initial VM failed before booting: nothing can run.
    core_.check_progress(sim_.now());
    co_return;
  }

  // Phase 2: data staging per the placement strategy.
  co_await staging();
  staging_end_ = sim_.now();
  serving_ = true;
  serve_start_ = sim_.now();

  // Open-loop service mode: the arrival process feeds the queue from here
  // on, and the elasticity policy watches its depth.
  if (open_loop() && !core_.finished()) {
    sim_.spawn(arrival_pump(), "arrival-pump");
    if (options_.elastic_policy.enabled) sim_.spawn(elastic_main(), "elastic-policy");
  }
  // Live telemetry samples from serving start (both modes): the probe's
  // epoch began at run(), but gauges only move once the farm is live.
  if (telemetry_ != nullptr && !core_.finished()) sim_.spawn(telemetry_main(), "telemetry-probe");

  // Kick off the farm: commit assignments up to each worker's credit limit.
  core_.top_up_all(sim_.now());

  // Phase 3: task farming (Fig. 3/4 dispatch loop).
  while (!core_.finished()) {
    auto msg = co_await inbox_->recv();
    if (!msg) break;
    // During a master outage messages buffer (workers reconnect and resend
    // is unnecessary — the channel is the reconnection buffer); they are
    // processed in order once the controller restarts the master.
    while (master_down_) co_await master_recovered_->wait();
    if (core_.finished()) break;
    if (const auto* ctrl = std::get_if<ControlMessage>(&*msg)) {
      handle_control(*ctrl);
    } else {
      handle_worker_msg(std::get<WorkerMessage>(*msg));
    }
  }
}

void FriedaRun::handle_control(const ControlMessage& msg) {
  if (const auto* start = std::get_if<StartMaster>(&msg)) {
    FRIEDA_CHECK(start->strategy == options_.strategy, "strategy mismatch");
    if (tracer_) trace_instant("start-master", "protocol");
  } else if (std::get_if<ForkWorkers>(&msg)) {
    initialized_ = true;
    if (tracer_) {
      trace_instant("fork-workers", "protocol",
                    {{"workers", std::to_string(workers_.size())}});
    }
  } else if (const auto* iso = std::get_if<IsolateWorker>(&msg)) {
    core_.isolate(iso->worker, sim_.now());
  } else if (const auto* add = std::get_if<AddWorkers>(&msg)) {
    if (tracer_) {
      trace_instant("add-workers", "protocol",
                    {{"workers", std::to_string(add->workers.size())}});
    }
    for (const auto w : add->workers) {
      const auto vm = workers_[w]->vm;
      if (!vm_ctx(vm).ready) {
        sim_.spawn(stage_common_data(vm), "stage-common-elastic");
      }
    }
  } else if (const auto* drain = std::get_if<DrainWorker>(&msg)) {
    const auto& state = core_.worker(drain->worker);
    const auto vm = workers_[drain->worker]->vm;
    if (state.isolated) return;
    const bool released = state.finished;  // done with its share already
    if (!released && tracer_) {
      trace_instant("drain-worker", "protocol",
                    {{"worker", std::to_string(drain->worker)}, {"vm", std::to_string(vm)}});
    }
    core_.drain(drain->worker, sim_.now(), /*top_up=*/serving_);
    if (released) maybe_terminate_vm(vm);  // only the teardown remains
  }
}

void FriedaRun::handle_worker_msg(const WorkerMessage& msg) {
  if (const auto* req = std::get_if<RequestWork>(&msg)) {
    // The worker's readiness announcement (Fig. 4 "request data").  Before
    // serving starts it is a no-op; master_main tops everyone up after
    // staging completes.
    if (serving_) core_.top_up(req->worker, sim_.now());
  } else if (const auto* status = std::get_if<ExecStatus>(&msg)) {
    auto& ws = *workers_[status->worker];
    auto& rec = core_.record(status->unit);
    ws.busy_seconds += status->exec_seconds;
    if (status->ok) ++ws.completed;
    rec.exec_seconds = status->exec_seconds;
    rec.transfer_seconds += status->transfer_seconds;  // remote-read pulls
    core_.on_status(status->worker, status->unit, status->ok, sim_.now());
  }
}

sim::Task<> FriedaRun::dispatch(WorkerId worker, WorkUnitId unit) {
  auto& ws = *workers_[worker];
  auto& rec = core_.record(unit);
  // The core's worker table may grow while this coroutine waits, so its
  // entry is looked up afresh after every suspension.
  const auto isolated = [&] { return core_.worker(worker).isolated; };
  const auto still_ours = [&] {
    return rec.status == UnitStatus::kInFlight && rec.worker == worker;
  };
  // A master crash abandons this dispatch: the epoch changes and the
  // recovery path requeues the unit, so abandoned coroutines just return.
  const std::uint64_t epoch = master_epoch_;
  co_await sim_.delay(options_.dispatch_overhead);
  if (epoch != master_epoch_) co_return;
  co_await node_ready(ws.vm).wait();
  if (epoch != master_epoch_) co_return;
  if (isolated() || core_.finished()) {
    if (still_ours()) core_.not_completed(unit, sim_.now());
    co_return;
  }

  SimTime transfer_s = 0.0;
  bool ok = !vm_ctx(ws.vm).invalid;  // common data never arrived there
  if (ok && !streams_inputs()) {
    const auto node = cluster_.vm(ws.vm).node();
    // Inputs of in-flight units are pinned so concurrent dispatches cannot
    // evict them from the worker's limited local disk.
    pin_unit(unit, ws.vm);
    const bool allow_evict = options_.strategy == PlacementStrategy::kRealTime;
    for (const auto f : units_[unit].inputs) {
      if (replicas_.has(f, node)) continue;
      // Backpressure: when the disk is full but another unit is *executing*
      // on this VM (its inputs unpin on completion), wait rather than fail.
      // Units that are merely staging are themselves waiting for space, so
      // they do not count — that would be a mutual-wait livelock.
      int retries = 0;
      while (!reserve_disk(ws.vm, catalog_.info(f).size, allow_evict)) {
        const auto& records = core_.records();
        const bool other_executing =
            std::any_of(records.begin(), records.end(), [&](const UnitRecord& other) {
              return other.unit != unit && other.status == UnitStatus::kInFlight &&
                     handed_[other.unit] && workers_[other.worker]->vm == ws.vm;
            });
        const bool other_staging = vm_ctx(ws.vm).staging_active > 0;
        if ((!other_executing && !other_staging) || isolated() || core_.finished() ||
            ++retries > 10000) {
          FLOG(kWarn, "master", "vm " << ws.vm << " local disk full; cannot stage unit "
                                      << unit);
          ok = false;
          break;
        }
        co_await sim_.delay(0.25);
        if (epoch != master_epoch_) co_return;
      }
      if (!ok) break;
      const auto src = replica_source(f, node);
      if (!src) {  // every replica was lost (node churn)
        if (options_.track_disk_capacity) {
          cluster_.vm(ws.vm).disk().release(catalog_.info(f).size);
        }
        ok = false;
        break;
      }
      ++vm_ctx(ws.vm).staging_active;
      const auto r = co_await transfer_file(
          *src, node, catalog_.info(f).size, f,
          {"input:", "stage ", obs::kWorkerTrack, worker, "unit", unit});
      --vm_ctx(ws.vm).staging_active;
      transfer_s += r.duration();
      if (!r.ok()) {
        if (options_.track_disk_capacity) {
          cluster_.vm(ws.vm).disk().release(catalog_.info(f).size);
        }
        ok = false;
        break;
      }
      replicas_.add(f, node);
      vm_ctx(ws.vm).staged_order.push_back(f);
      if (epoch != master_epoch_) co_return;  // bytes kept; unit was requeued
    }
  }
  rec.transfer_seconds += transfer_s;
  if (!ok || isolated()) {
    if (still_ours()) {
      core_.not_completed(unit, sim_.now());
      core_.top_up(worker, sim_.now());  // keep draining the queue
    }
    co_return;
  }

  if (epoch != master_epoch_) co_return;
  AssignWork work;
  work.unit = units_[unit];
  work.command = command_.bind_unit(units_[unit], catalog_, options_.staging_dir);
  work.inputs_staged = !streams_inputs();
  handed_[unit] = 1;  // from here on the assignment survives a master crash
  MasterMessage assignment = std::move(work);
  const bool sent = co_await ws.inbox->send(std::move(assignment));
  if (!sent && still_ours()) {
    core_.not_completed(unit, sim_.now());
    core_.top_up(worker, sim_.now());
  }
}

sim::Task<net::TransferResult> FriedaRun::transfer_file(net::NodeId src, net::NodeId dst,
                                                        Bytes bytes,
                                                        std::optional<storage::FileId> file,
                                                        TransferSite site) {
  const auto r =
      co_await cluster_.network().transfer(src, dst, bytes, options_.transfer_streams);
  const std::string* name = file ? &catalog_.info(*file).name : nullptr;
  timeline_.record(ActivityKind::kTransfer, r.started, r.finished,
                   name ? site.label + *name : std::string(site.label));
  if (tracer_) {
    obs::TraceEvent ev;
    ev.name = name ? site.span + *name : std::string(site.span);
    ev.cat = "staging";
    ev.process = site.process;
    ev.track = site.track;
    ev.start = r.started;
    ev.end = r.finished;
    ev.args = {{site.owner_key, std::to_string(site.owner)}};
    if (name) ev.args.push_back({"file", *name});
    ev.args.push_back({"bytes", std::to_string(r.transferred)});
    if (name) ev.args.push_back({"ok", r.ok() ? "1" : "0"});
    tracer_->span(std::move(ev));
  }
  co_return r;
}

void FriedaRun::maybe_terminate_vm(cluster::VmId vm) {
  bool all_done = true;
  bool any_drained = false;
  for (const auto& ws : workers_) {
    if (ws->vm != vm) continue;
    const auto& state = core_.worker(ws->id);
    any_drained |= state.draining;
    if (!state.finished && !state.isolated) all_done = false;
  }
  if (any_drained && all_done && cluster_.vm(vm).running()) {
    replicas_.drop_node(cluster_.vm(vm).node());
    cluster_.terminate_vm(vm);
    FLOG(kDebug, "master", "elastic remove: vm " << vm << " terminated at t=" << sim_.now());
  }
}

bool FriedaRun::reserve_disk(cluster::VmId vm, Bytes size, bool allow_eviction) {
  if (!options_.track_disk_capacity) return true;
  auto& disk = cluster_.vm(vm).disk();
  while (!disk.allocate(size)) {
    if (!allow_eviction || !options_.evict_processed_inputs || !evict_one_replica(vm)) {
      return false;
    }
  }
  return true;
}

bool FriedaRun::evict_one_replica(cluster::VmId vm) {
  auto& ctx = vm_ctx(vm);
  auto& order = ctx.staged_order;
  const auto node = cluster_.vm(vm).node();
  for (auto it = order.begin(); it != order.end(); ++it) {
    const storage::FileId file = *it;
    if (!replicas_.has(file, node)) {
      continue;  // already gone (node churn); lazily skipped
    }
    if (find_pin(ctx.pins, file) != ctx.pins.end()) {
      continue;  // an in-flight unit still needs it
    }
    if (replicas_.replica_count(file) <= 1) {
      continue;  // never evict the last copy (inputs may live only on VMs)
    }
    replicas_.remove(file, node);
    cluster_.vm(vm).disk().release(catalog_.info(file).size);
    order.erase(it);
    if (run_metrics_.evictions) run_metrics_.evictions->inc();
    if (tracer_) {
      trace_instant("evict", "control", {{"file", catalog_.info(file).name},
                                         {"vm", std::to_string(vm)}});
    }
    return true;
  }
  return false;
}

void FriedaRun::pin_unit(WorkUnitId unit, cluster::VmId vm) {
  unit_pin_vm_[unit] = vm;
  auto& pins = vm_ctx(vm).pins;
  for (const auto f : units_[unit].inputs) {
    const auto pin = find_pin(pins, f);
    if (pin == pins.end()) {
      pins.emplace_back(f, 1);
    } else {
      ++pin->second;
    }
  }
}

void FriedaRun::unpin_unit(WorkUnitId unit) {
  const cluster::VmId vm = std::exchange(unit_pin_vm_[unit], kNoVm);
  if (vm == kNoVm) return;
  auto& pins = vms_[vm].pins;
  for (const auto f : units_[unit].inputs) {
    const auto pin = find_pin(pins, f);
    if (pin != pins.end() && --pin->second <= 0) pins.erase(pin);
  }
}

// ---------------------------------------------------------------------------
// Open-loop service mode (arrival injection + reactive elasticity)
// ---------------------------------------------------------------------------

sim::Task<> FriedaRun::arrival_pump() {
  // Inject each unit into the shared dispatch queue at its arrival offset
  // (relative to serving start).  Arrivals keep flowing during a master
  // outage — the queue is the reconnection buffer; recover_master() tops the
  // workers up once the master is back.
  for (std::size_t i = 0; i < units_.size(); ++i) {
    const SimTime at = serve_start_ + options_.arrivals[i];
    if (at > sim_.now()) co_await sim_.delay(at - sim_.now());
    if (core_.finished()) co_return;
    auto& rec = core_.record(units_[i].id);
    if (rec.status != UnitStatus::kPending) continue;  // e.g. marked unprocessed
    rec.arrival = sim_.now();
    if (tracer_) trace_born_[i] = sim_.now();
    mark_pending(units_[i].id);
    core_.enqueue(units_[i].id);
    if (tracer_) {
      trace_instant("arrival", "service",
                    {{"unit", std::to_string(i)},
                     {"depth", std::to_string(core_.queue_depth())}});
    }
    if (!master_down_) core_.top_up_all(sim_.now());
  }
}

sim::Task<> FriedaRun::elastic_main() {
  // Queue-depth-reactive elasticity: sample the dispatch queue every
  // check_interval; a backlog sustained for `hysteresis` samples provisions
  // one extra VM, a sustained lull drains and releases the oldest VM this
  // policy added.  The initial fleet is never touched.
  const auto& ep = options_.elastic_policy;
  const cluster::InstanceType vm_type = cluster_.vm(initial_vms_.front()).type();
  int out_streak = 0;
  int in_streak = 0;
  while (!core_.finished()) {
    co_await sim_.delay(ep.check_interval);
    if (core_.finished()) co_return;
    const std::size_t depth = core_.queue_depth();
    if (depth >= ep.scale_out_depth) {
      in_streak = 0;
      if (++out_streak >= ep.hysteresis) {
        out_streak = 0;
        if (elastic_live_.size() < ep.max_extra_vms) {
          const auto vm = add_vm(vm_type);
          elastic_live_.push_back(vm);
          ++scale_outs_;
          FLOG(kInfo, "elastic", "scale-out: vm " << vm << " provisioned at t=" << sim_.now()
                                                  << " (queue depth " << depth << ")");
          if (tracer_) {
            trace_instant("scale-out", "service",
                          {{"vm", std::to_string(vm)}, {"depth", std::to_string(depth)}});
          }
        }
      }
    } else if (depth <= ep.scale_in_depth) {
      out_streak = 0;
      if (++in_streak >= ep.hysteresis) {
        in_streak = 0;
        // Drain-and-release the oldest policy-added VM that is actually up
        // (one still booting is left to join and be considered next time).
        for (auto it = elastic_live_.begin(); it != elastic_live_.end(); ++it) {
          if (!cluster_.vm(*it).running()) continue;
          const auto vm = *it;
          elastic_live_.erase(it);
          ++scale_ins_;
          FLOG(kInfo, "elastic", "scale-in: vm " << vm << " draining at t=" << sim_.now()
                                                 << " (queue depth " << depth << ")");
          if (tracer_) {
            trace_instant("scale-in", "service",
                          {{"vm", std::to_string(vm)}, {"depth", std::to_string(depth)}});
          }
          remove_vm(vm);
          break;
        }
      }
    } else {
      out_streak = 0;
      in_streak = 0;
    }
  }
}

obs::TelemetryTick FriedaRun::telemetry_tick_now() const {
  obs::TelemetryTick t;
  t.queue_depth = static_cast<double>(core_.queue_depth());
  std::size_t in_flight = 0;
  std::size_t live = 0;
  std::size_t completed = 0;
  std::set<cluster::VmId> vms;
  for (const auto& ws : workers_) {
    const auto& state = core_.worker(ws->id);
    in_flight += state.unacked;
    completed += ws->completed;
    if (state.live()) {
      ++live;
      vms.insert(ws->vm);
    }
  }
  t.in_flight = static_cast<double>(in_flight);
  t.active_workers = static_cast<double>(live);
  t.active_vms = static_cast<double>(vms.size());
  t.completed = static_cast<double>(completed);
  t.net_solves = static_cast<double>(cluster_.network().solver_invocations() - solves_baseline_);
  t.scale_outs = static_cast<double>(scale_outs_);
  t.scale_ins = static_cast<double>(scale_ins_);
  return t;
}

sim::Task<> FriedaRun::telemetry_main() {
  // Sample the attached probe every interval of simulation time until the
  // run finishes; run() adds the final sample at end_time_ itself.
  const SimTime interval = telemetry_->interval();
  while (!core_.finished()) {
    co_await sim_.delay(interval);
    if (core_.finished()) co_return;
    telemetry_->tick(sim_.now(), telemetry_tick_now());
  }
}

// ---------------------------------------------------------------------------
// Data staging
// ---------------------------------------------------------------------------

sim::Task<> FriedaRun::stage_common_data(cluster::VmId vm) {
  auto& ready = node_ready(vm);
  const Bytes common = app_.common_data_bytes();
  if (common == 0 || options_.strategy == PlacementStrategy::kPrePartitionLocal ||
      common_preplaced_) {
    ready.trigger();
    co_return;
  }
  if (!reserve_disk(vm, common, /*allow_eviction=*/false)) {
    FLOG(kError, "master",
         "common data does not fit on vm " << vm << "; its workers cannot run");
    vm_ctx(vm).invalid = true;
    ready.trigger();
    co_return;
  }
  co_await transfer_file(cluster_.source_node(), cluster_.vm(vm).node(), common, std::nullopt,
                         {"common-data", "stage-common", obs::kRunTrack, vm, "vm", vm});
  ready.trigger();
}

sim::Task<> FriedaRun::stage_files_to_node(cluster::VmId vm, std::vector<storage::FileId> files) {
  // scp-like: one file at a time per node; nodes stage concurrently and
  // share the master's NIC through the network model.
  co_await stage_common_data(vm);
  const auto node = cluster_.vm(vm).node();
  for (const auto f : files) {
    if (replicas_.has(f, node)) continue;
    if (!reserve_disk(vm, catalog_.info(f).size, /*allow_eviction=*/false)) {
      FLOG(kWarn, "master", "vm " << vm << " local disk full during staging; "
                                  << "remaining files stay at the source");
      co_return;  // MasterCore::withdraw_unlocal() handles the fallout
    }
    const auto src = replica_source(f, node);
    if (!src) {
      if (options_.track_disk_capacity) cluster_.vm(vm).disk().release(catalog_.info(f).size);
      co_return;
    }
    const auto r = co_await transfer_file(*src, node, catalog_.info(f).size, f,
                                          {"stage:", "stage-node ", obs::kRunTrack, vm, "vm", vm});
    if (!r.ok()) {
      if (options_.track_disk_capacity) cluster_.vm(vm).disk().release(catalog_.info(f).size);
      co_return;  // node died; isolation handles the fallout
    }
    replicas_.add(f, node);
    vm_ctx(vm).staged_order.push_back(f);
  }
}

sim::Task<> FriedaRun::staging() {
  if (tracer_) {
    trace_born_.assign(units_.size(), sim_.now());
    trace_pending_ = trace_born_;
  }
  const bool pre_mode = options_.strategy == PlacementStrategy::kNoPartitionCommon ||
                        options_.strategy == PlacementStrategy::kPrePartitionLocal ||
                        options_.strategy == PlacementStrategy::kPrePartitionRemote;

  if (pre_mode) {
    // The master determines the per-worker groups at the beginning
    // (paper Section II.F).
    const auto assignment =
        assign_units(options_.assignment, units_, catalog_, workers_.size());
    for (WorkerId w = 0; w < workers_.size(); ++w) core_.assign_share(w, assignment[w]);
  } else if (!open_loop()) {
    // Real-time / remote-read: every unit waits in the shared queue and is
    // handed out lazily as workers ask (the 'lazy' transfer of Section II.F).
    // Open-loop runs leave the queue empty: the arrival pump fills it.
    for (const auto& u : units_) core_.enqueue(u.id);
  }

  std::set<cluster::VmId> vms;
  for (const auto& ws : workers_) vms.insert(ws->vm);

  switch (options_.strategy) {
    case PlacementStrategy::kPrePartitionLocal: {
      // Data must already be resident (packaged in the VM image).
      for (const auto& ws : workers_) {
        const auto node = cluster_.vm(ws->vm).node();
        for (const auto u : core_.worker(ws->id).share) {
          for (const auto f : units_[u].inputs) {
            FRIEDA_CHECK(replicas_.has(f, node),
                         "pre-partition-local requires file " << f << " on node " << node
                                                              << "; seed with pre_place_*()");
          }
        }
      }
      for (const auto vm : vms) node_ready(vm).trigger();
      break;
    }
    case PlacementStrategy::kPrePartitionRemote:
    case PlacementStrategy::kNoPartitionCommon: {
      // Sequential phases: "process execution starts only when the transfer
      // of data is completed" (Section II.C).
      sim::WaitGroup wg(sim_);
      for (const auto vm : vms) {
        std::vector<storage::FileId> files;
        if (options_.strategy == PlacementStrategy::kNoPartitionCommon) {
          files = catalog_.all_ids();
        } else {
          std::set<storage::FileId> wanted;
          for (const auto& ws : workers_) {
            if (ws->vm != vm) continue;
            for (const auto u : core_.worker(ws->id).share) {
              for (const auto f : units_[u].inputs) wanted.insert(f);
            }
          }
          files.assign(wanted.begin(), wanted.end());
        }
        wg.add(1);
        sim_.spawn([](FriedaRun& self, cluster::VmId v, std::vector<storage::FileId> fs,
                      sim::WaitGroup& group) -> sim::Task<> {
          co_await self.stage_files_to_node(v, std::move(fs));
          group.done();
        }(*this, vm, std::move(files), wg),
                   "stage-node");
      }
      co_await wg.wait();
      // Staging may have been cut short by disk capacity; the affected units
      // can never run on their assigned worker.
      core_.withdraw_unlocal(sim_.now());
      break;
    }
    case PlacementStrategy::kRealTime:
    case PlacementStrategy::kRemoteRead:
    case PlacementStrategy::kSharedVolume: {
      // No upfront staging; common data streams in concurrently with the
      // dispatch loop (transfers overlap computation, Section IV.B).
      for (const auto vm : vms) {
        sim_.spawn(stage_common_data(vm), "stage-common");
      }
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// Worker (execution plane)
// ---------------------------------------------------------------------------

sim::Task<> FriedaRun::worker_main(WorkerId id) {
  auto& ws = *workers_[id];
  co_await cluster_.wait_running(ws.vm);
  auto& vm = cluster_.vm(ws.vm);
  if (!vm.running()) co_return;  // failed during boot

  InboxMessage reg = RegisterWorker{id};
  co_await inbox_->send(std::move(reg));
  // Announce readiness once (Fig. 4 "request data"); afterwards the master's
  // credit accounting keeps this worker fed until NoMoreWork.
  InboxMessage request = RequestWork{id};
  if (!co_await inbox_->send(std::move(request))) co_return;
  while (true) {
    if (!vm.running()) co_return;
    const auto msg = co_await ws.inbox->recv();
    if (!msg || std::holds_alternative<NoMoreWork>(*msg)) co_return;
    const auto& work = std::get<AssignWork>(*msg);

    SimTime transfer_s = 0.0;
    if (!work.inputs_staged) {
      // Remote-read: the worker streams its inputs over the network at
      // execution time instead of staging them.
      bool read_ok = true;
      for (const auto f : work.unit.inputs) {
        const auto src = replica_source(f, vm.node());
        if (!src) {  // every replica was lost
          read_ok = false;
          break;
        }
        const auto r = co_await transfer_file(
            *src, vm.node(), catalog_.info(f).size, f,
            {"remote-read:", "remote-read ", obs::kWorkerTrack, id, "unit", work.unit.id});
        transfer_s += r.duration();
        if (!r.ok()) {
          read_ok = false;
          break;
        }
      }
      if (!read_ok) {
        if (!vm.running()) co_return;  // our VM died mid-read
        InboxMessage fail = ExecStatus{id, work.unit.id, false, transfer_s, 0.0};
        if (!co_await inbox_->send(std::move(fail))) co_return;
        continue;
      }
    }

    const SimTime cost = app_.task_seconds(work.unit);
    const auto result = co_await vm.compute(cost);
    timeline_.record(ActivityKind::kCompute, sim_.now() - result.duration, sim_.now(),
                     app_.name());
    if (tracer_) {
      obs::TraceEvent ev;
      ev.name = "exec unit " + std::to_string(work.unit.id);
      ev.cat = "exec";
      ev.process = obs::kWorkerTrack;
      ev.track = static_cast<std::uint32_t>(id);
      ev.start = sim_.now() - result.duration;
      ev.end = sim_.now();
      ev.args = {{"unit", std::to_string(work.unit.id)},
                 {"vm", std::to_string(ws.vm)},
                 {"completed", result.completed ? "1" : "0"}};
      tracer_->span(std::move(ev));
    }
    if (!result.completed) co_return;  // interrupted by VM failure

    bool io_ok = true;
    const Bytes out_bytes = app_.output_bytes(work.unit);
    if (out_bytes > 0) {
      // Outputs stay on worker-local storage (the paper's evaluation mode)
      // and consume the same limited disk the inputs compete for.
      if (options_.track_disk_capacity && !vm.disk().allocate(out_bytes)) {
        io_ok = false;
      } else {
        const auto io = co_await vm.disk().write(out_bytes);
        io_ok = io.ok;
      }
    }
    InboxMessage status = ExecStatus{id, work.unit.id, io_ok, transfer_s, result.duration};
    if (!co_await inbox_->send(std::move(status))) {
      co_return;
    }
  }
}

// ---------------------------------------------------------------------------
// Run + report
// ---------------------------------------------------------------------------

RunReport FriedaRun::run() {
  FRIEDA_CHECK(!ran_, "FriedaRun::run() may only be called once");
  ran_ = true;
  bytes_baseline_ = cluster_.network().total_bytes_moved();
  transfers_baseline_ = cluster_.network().transfers_started();
  solves_baseline_ = cluster_.network().solver_invocations();
  full_solves_baseline_ = cluster_.network().solver_full_solves();
  dirty_classes_baseline_ = cluster_.network().solver_dirty_classes();
  cluster_.network().set_tracer(tracer_);
  cluster_.network().set_metrics(options_.metrics);
  if (telemetry_ != nullptr) telemetry_->begin(sim_.now(), tracer_);

  sim_.spawn(master_main(), "master");
  sim_.spawn(controller_main(), "controller");
  sim_.run();

  FRIEDA_CHECK(core_.all_terminal(),
               "simulation drained but the run did not finish; "
               "a process deadlocked (this is a bug)");

  RunReport report;
  report.app = app_.name();
  report.strategy = to_string(options_.strategy);
  report.scheme = to_string(options_.scheme);
  report.ready_time = ready_time_;
  report.start_time = ready_time_;
  report.staging_end = std::max(staging_end_, ready_time_);
  report.end_time = end_time_;
  report.units_total = units_.size();
  report.units = core_.records();
  for (const auto& rec : report.units) {
    report.units_completed += rec.status == UnitStatus::kCompleted;
    report.units_failed += rec.status == UnitStatus::kFailed;
    report.units_unprocessed += rec.status == UnitStatus::kUnprocessed;
  }
  for (const auto& ws : workers_) {
    const auto& state = core_.worker(ws->id);
    WorkerReport wr;
    wr.worker = ws->id;
    wr.vm = ws->vm;
    wr.slot = ws->slot;
    wr.units_completed = ws->completed;
    wr.busy_seconds = ws->busy_seconds;
    wr.isolated = state.isolated;
    wr.drained = state.draining;
    report.workers_isolated += state.isolated;
    report.workers.push_back(wr);
  }
  report.bytes_moved = cluster_.network().total_bytes_moved() - bytes_baseline_;
  report.transfers = cluster_.network().transfers_started() - transfers_baseline_;
  report.timeline = timeline_;
  report.open_loop = open_loop();
  report.serve_start = serve_start_;
  report.latency = latency_;
  report.scale_outs = scale_outs_;
  report.scale_ins = scale_ins_;

  if (telemetry_ != nullptr) {
    // Final sample at the run's end (a no-op when a scheduled tick already
    // landed there), then evaluate SLO targets over the recorded series.
    telemetry_->tick(end_time_, telemetry_tick_now());
    telemetry_->finish(end_time_);
  }

  if (tracer_) {
    // Run-window anchor for trace analytics (obs::TraceAnalyzer): one span
    // covering exactly the reported makespan [ready_time_, end_time_], so
    // the analyzer's critical path and attribution windows match
    // RunReport::makespan() instead of the raw event extent.
    obs::TraceEvent ev;
    ev.name = "run";
    ev.cat = "run";
    ev.process = obs::kRunTrack;
    ev.track = 0;
    ev.start = ready_time_;
    ev.end = end_time_;
    ev.args.push_back({"app", app_.name()});
    ev.args.push_back({"strategy", std::string(to_string(options_.strategy))});
    ev.args.push_back({"workers", std::to_string(workers_.size())});
    // Solver activity over the run window, so frieda-trace can report the
    // incremental-solve hit rate without needing a metrics registry.
    const auto& netw = cluster_.network();
    ev.args.push_back(
        {"net_solves", std::to_string(netw.solver_invocations() - solves_baseline_)});
    ev.args.push_back({"net_full_solves",
                       std::to_string(netw.solver_full_solves() - full_solves_baseline_)});
    ev.args.push_back(
        {"net_dirty_classes",
         std::to_string(netw.solver_dirty_classes() - dirty_classes_baseline_)});
    if (report.open_loop && report.latency.count() > 0) {
      // Service-mode latency summary, so frieda-trace can print the
      // percentile line without re-deriving sojourns from unit spans.
      ev.args.push_back({"latency_p50", std::to_string(report.latency_p(50.0))});
      ev.args.push_back({"latency_p95", std::to_string(report.latency_p(95.0))});
      ev.args.push_back({"latency_p99", std::to_string(report.latency_p(99.0))});
      ev.args.push_back({"sustained_tput", std::to_string(report.sustained_throughput())});
    }
    if (telemetry_ != nullptr && !telemetry_->options().slo.empty()) {
      // SLO totals, so frieda-trace can headline time-in-violation without
      // re-deriving it from the breach spans.
      const auto& slo = telemetry_->slo();
      ev.args.push_back({"slo_breaches", std::to_string(slo.total_breaches())});
      ev.args.push_back({"slo_violation_s", obs::format_sample(slo.total_violation_s())});
    }
    tracer_->span(std::move(ev));
  }
  if (options_.metrics) {
    // Kernel activity snapshot for the run's report; a shared registry across
    // sequential runs keeps the last run's snapshot (counters keep summing).
    auto& m = *options_.metrics;
    const auto& qc = sim_.event_counters();
    m.gauge("sim.events_scheduled").set(static_cast<double>(qc.scheduled));
    m.gauge("sim.events_cancelled").set(static_cast<double>(qc.cancelled));
    m.gauge("sim.events_fired").set(static_cast<double>(qc.fired));
    m.gauge("sim.event_slots_reused").set(static_cast<double>(qc.slots_reused));
  }
  // Detach: the tracer/registry may not outlive this run, but the cluster's
  // network does.
  cluster_.network().set_tracer(nullptr);
  cluster_.network().set_metrics(nullptr);
  return report;
}

}  // namespace frieda::core
