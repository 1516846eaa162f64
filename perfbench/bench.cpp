// Host-time benchmark program for the FRIEDA simulator.
//
// Runs one workload once, in this process, and prints one JSON object of raw
// measurements on the last line of stdout.  run.py starts a fresh process per
// repetition (so process-global caches start empty, as for a user's bench program),
// takes medians and checks the digests; see README.md beside this file.
//
//   frieda_perfbench --workload batch-local --seed 1 [--scale 0.01]
//                    [--trace trace.json]
//
// Every number is host time or host memory of the simulator itself.  The
// simulated results are not metrics: they feed the digest, which a change
// that only makes the simulator faster must leave unchanged.
//
// With --trace the run attaches an obs::Tracer through RunOptions::tracer and
// records the benchmark's own spans into it (pid 6, cat "bench", host
// seconds since the workload started; the simulator's own events are in
// simulated seconds), then writes Chrome JSON and reads it back with the
// same loader frieda-trace uses.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "exp/grid.hpp"
#include "frieda/partition.hpp"
#include "frieda/run.hpp"
#include "obs/analysis.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/simulation.hpp"
#include "workload/arrivals.hpp"
#include "workload/blast.hpp"
#include "workload/image_compare.hpp"
#include "workload/scenarios.hpp"

using namespace frieda;
using core::PlacementStrategy;

namespace {

constexpr std::uint32_t kBenchTrack = 6;  // trace pid of the benchmark's spans
const char* const kBlastCommand = "blastall -p blastp -d /data/db $inp1";

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// FNV-1a over 64-bit words: the digest of the simulated results.
class Digest {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Everything one process measured; printed as one JSON line.
struct Output {
  std::size_t units = 0;      // units attempted
  std::size_t completed = 0;  // units completed
  std::string error;          // first failed invariant, empty when none
  Digest digest;
  std::map<std::string, double> m;  // measurements by metric name

  void fail(const std::string& why) {
    if (error.empty()) error = why;
  }
};

/// Wall clock since the workload started, plus the benchmark's own spans.
class Spans {
 public:
  Spans(obs::Tracer* tracer, std::string workload, std::string run_id)
      : tracer_(tracer), workload_(std::move(workload)), run_id_(std::move(run_id)) {}

  double elapsed() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_).count();
  }

  /// Time `fn`, add its duration to `out.m[name]`, and record a span.
  template <typename F>
  double time(Output& out, const char* name, F&& fn) {
    const double start = elapsed();
    fn();
    const double end = elapsed();
    out.m[name] += end - start;
    record(name, start, end, workload_);
    return end - start;
  }

  /// Record the enclosing workload span (call last).
  void finish() { record(workload_, 0.0, elapsed(), ""); }

 private:
  void record(const std::string& name, double start, double end, const std::string& parent) {
    if (tracer_ == nullptr) return;
    obs::TraceEvent ev;
    ev.name = name;
    ev.cat = "bench";
    ev.process = kBenchTrack;
    ev.start = start;
    ev.end = end;
    ev.args.push_back({"run_id", run_id_});
    if (!parent.empty()) ev.args.push_back({"parent", parent});
    tracer_->span(std::move(ev));
  }

  obs::Tracer* tracer_;
  std::string workload_;
  std::string run_id_;
  std::chrono::steady_clock::time_point t0_ = std::chrono::steady_clock::now();
};

/// Every unit is terminal exactly once; fold the simulated results into the
/// digest.  Event and solve counts stay out: a faster simulator may change
/// them without changing what it simulates.
void check_and_digest(const core::RunReport& r, std::size_t expected_units, Output& out) {
  out.units += expected_units;
  out.completed += r.units_completed;
  if (r.units_total != expected_units || r.units.size() != expected_units) {
    out.fail("report covers " + std::to_string(r.units.size()) + " of " +
             std::to_string(expected_units) + " units");
    return;
  }
  std::vector<char> seen(expected_units, 0);
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::size_t unprocessed = 0;
  for (const auto& u : r.units) {
    if (u.unit >= expected_units || seen[u.unit]) {
      out.fail("unit " + std::to_string(u.unit) + " reported twice or out of range");
      return;
    }
    seen[u.unit] = 1;
    switch (u.status) {
      case core::UnitStatus::kCompleted: ++completed; break;
      case core::UnitStatus::kFailed: ++failed; break;
      case core::UnitStatus::kUnprocessed: ++unprocessed; break;
      default:
        out.fail("unit " + std::to_string(u.unit) + " is not terminal");
        return;
    }
    out.digest.u64(u.unit);
    out.digest.u64(static_cast<std::uint64_t>(u.status));
    out.digest.u64(u.worker);
    out.digest.f64(u.finished);
  }
  if (completed != r.units_completed || failed != r.units_failed ||
      unprocessed != r.units_unprocessed) {
    out.fail("terminal counts disagree with the per-unit records");
  }
  out.digest.f64(r.makespan());
  out.digest.u64(r.bytes_moved);
  out.digest.u64(r.transfers);
  const bool has_latency = r.latency.count() > 0;
  out.digest.f64(has_latency ? r.latency_p(50.0) : 0.0);
  out.digest.f64(has_latency ? r.latency_p(99.0) : 0.0);
  out.digest.u64(r.scale_outs);
  out.digest.u64(r.scale_ins);
}

std::size_t scaled(std::size_t full, double scale) {
  const auto n = static_cast<std::size_t>(static_cast<double>(full) * scale);
  return n > 0 ? n : 1;
}

/// Dispatch attempts and units of one run, for the frieda per-unit ratios.
void count_attempts(const core::RunReport& r, Output& out) {
  double attempts = 0.0;
  for (const auto& u : r.units) attempts += u.attempts;
  out.m["frieda.attempts"] += attempts;
  out.m["frieda.units"] += static_cast<double>(r.units.size());
}

/// Per-layer counters of one FriedaRun we own, read from the public
/// accessors of its simulation and network.
void read_counters(const sim::Simulation& sim, const net::Network& net,
                   const core::RunReport& r, Output& out) {
  count_attempts(r, out);
  const auto& q = sim.event_counters();
  out.m["sim.events"] += static_cast<double>(sim.events_processed());
  out.m["sim.scheduled"] += static_cast<double>(q.scheduled);
  out.m["sim.cancelled"] += static_cast<double>(q.cancelled);
  out.m["sim.slots_reused"] += static_cast<double>(q.slots_reused);
  out.m["net.solves"] += static_cast<double>(net.solver_invocations());
  out.m["net.full_solves"] += static_cast<double>(net.solver_full_solves());
  out.m["net.dirty_classes"] += static_cast<double>(net.solver_dirty_classes());
  out.m["net.transfers"] += static_cast<double>(net.transfers_started());
}

// ---------------------------------------------------------------------------
// batch-local, batch-realtime, service-elastic: one FriedaRun over a fleet we
// build here, so every layer call is timed from outside.

struct FleetConfig {
  PlacementStrategy strategy = PlacementStrategy::kPrePartitionLocal;
  std::size_t units = 0;
  std::size_t vms = 0;
  unsigned cores = 1;
  std::size_t rack_size = 0;     // 0 = flat fabric
  double arrival_rate = 0.0;     // > 0 = open-loop Poisson arrivals
  core::ElasticPolicy elastic;
};

FleetConfig fleet_config(const std::string& workload, double scale) {
  FleetConfig c;
  if (workload == "batch-local") {
    c.units = scaled(150'000, scale);
    c.vms = scaled(1'500, scale);
    c.rack_size = 40;
  } else if (workload == "batch-realtime") {
    c.strategy = PlacementStrategy::kRealTime;
    c.units = scaled(50'000, scale);
    c.vms = scaled(1'000, scale);
    c.rack_size = 40;
  } else {  // service-elastic
    c.strategy = PlacementStrategy::kRealTime;
    c.units = scaled(60'000, scale);
    c.vms = scaled(64, scale);
    c.cores = 4;
    // ~95% of the fleet's capacity: cores / 8.16 s mean BLAST query.
    c.arrival_rate = 0.95 * static_cast<double>(c.vms * c.cores) / 8.16;
    c.elastic.enabled = true;
    c.elastic.scale_out_depth = 16;
    c.elastic.scale_in_depth = 2;
    c.elastic.check_interval = 5.0;
    c.elastic.hysteresis = 2;
    c.elastic.max_extra_vms = 16;
  }
  return c;
}

void run_fleet(const FleetConfig& cfg, std::uint64_t seed, obs::Tracer* tracer, Spans& spans,
               Output& out) {
  std::optional<workload::BlastModel> app;
  spans.time(out, "workload.model_s", [&] {
    auto p = workload::BlastParams::paper();
    p.sequence_count = cfg.units;
    p.seed = seed;
    app.emplace(p);
  });

  core::RunOptions ropt;
  ropt.strategy = cfg.strategy;
  ropt.scheme = core::PartitionScheme::kSingleFile;
  ropt.multicore = true;
  ropt.tracer = tracer;
  if (cfg.arrival_rate > 0.0) {
    spans.time(out, "workload.arrivals_s", [&] {
      workload::ArrivalConfig ac;
      ac.kind = workload::ArrivalKind::kPoisson;
      ac.rate = cfg.arrival_rate;
      ac.seed = seed;
      ropt.arrivals = workload::generate_arrivals(ac, cfg.units);
    });
    ropt.elastic_policy = cfg.elastic;
  }

  sim::Simulation sim(seed);
  std::optional<cluster::VirtualCluster> cluster;
  std::vector<cluster::VmId> vms;
  spans.time(out, "cluster.provision_s", [&] {
    cluster::ClusterOptions copts;
    copts.source_nic_up = gbps(10);
    copts.source_nic_down = gbps(10);
    cluster.emplace(sim, copts);
    auto type = cluster::c1_xlarge();
    type.cores = cfg.cores;
    type.nic_up = gbps(1);
    type.nic_down = gbps(1);
    type.boot_time = 0.0;
    vms = cluster->provision(type, cfg.vms);
    if (cfg.rack_size > 0) {
      // Racks of rack_size VMs behind 40 Gbps uplinks; the source hangs
      // off the core switch.
      auto& topo = cluster->network().topology();
      for (std::size_t i = 0; i < vms.size(); ++i) {
        topo.set_rack(cluster->vm(vms[i]).node(),
                      static_cast<net::RackId>(i / cfg.rack_size));
      }
      for (net::RackId r = 0; r * cfg.rack_size < vms.size(); ++r) {
        topo.set_rack_uplink(r, gbps(40));
      }
    }
  });

  std::vector<core::WorkUnit> work;
  spans.time(out, "frieda.partition_s", [&] {
    work = core::PartitionGenerator::generate(core::PartitionScheme::kSingleFile,
                                              app->catalog());
  });
  std::optional<core::FriedaRun> run;
  spans.time(out, "frieda.construct_s", [&] {
    run.emplace(*cluster, app->catalog(), std::move(work), *app,
                core::CommandTemplate(kBlastCommand), ropt);
  });
  if (cfg.strategy == PlacementStrategy::kPrePartitionLocal) {
    spans.time(out, "storage.pre_place_s", [&] { run->pre_place_partitions(vms); });
  }
  out.m["setup_s"] = spans.elapsed();  // run() dispatches the first event

  const double rss_before = peak_rss_mb();
  core::RunReport report;
  spans.time(out, "frieda.run_s", [&] { report = run->run(); });
  out.m["frieda.run_rss_mb"] = peak_rss_mb() - rss_before;
  out.m["run_s"] = out.m["frieda.run_s"];

  check_and_digest(report, cfg.units, out);
  read_counters(sim, cluster->network(), report, out);
}

// ---------------------------------------------------------------------------
// paper-sweep: paper-scale cells through exp::ScenarioSweep.

struct Cell {
  bool als = false;
  PlacementStrategy strategy = PlacementStrategy::kRealTime;
  workload::PaperScenarioOptions opt;
  std::size_t units = 0;
};

constexpr std::size_t kSweepSeeds = 3;    // simulation seeds per configuration
constexpr std::size_t kSweepThreads = 3;  // capped at nproc

core::RunReport run_cell(const Cell& c, const workload::ImageCompareModel& als,
                         const workload::BlastModel& blast) {
  return c.als ? workload::run_als(c.strategy, als, c.opt)
               : workload::run_blast(c.strategy, blast, c.opt);
}

void run_sweep(std::uint64_t seed, double scale, obs::Tracer* tracer, Spans& spans,
               Output& out) {
  std::shared_ptr<const workload::ImageCompareModel> als;
  std::shared_ptr<const workload::BlastModel> blast;
  std::vector<Cell> cells;
  std::vector<std::pair<exp::JobId, std::size_t>> jobs;  // (job, its cell)
  const std::size_t threads =
      std::max<std::size_t>(1, std::min<std::size_t>(kSweepThreads,
                                                      std::thread::hardware_concurrency()));
  exp::SweepOptions sopt;
  sopt.threads = threads;
  exp::ScenarioSweep sweep(sopt);

  spans.time(out, "exp.grid_s", [&] {
    spans.time(out, "workload.model_s", [&] {
      // Scaled as workload::make_*_model scales them, with the dataset
      // seed taken from --seed.
      auto ap = workload::ImageCompareParams::paper();
      ap.image_count =
          std::max<std::size_t>(2, scaled(ap.image_count, scale) & ~std::size_t{1});
      ap.seed = seed;
      als = std::make_shared<const workload::ImageCompareModel>(ap);
      auto bp = workload::BlastParams::paper();
      bp.sequence_count = scaled(bp.sequence_count, scale);
      bp.database_bytes = static_cast<Bytes>(static_cast<double>(bp.database_bytes) * scale);
      bp.seed = seed;
      blast = std::make_shared<const workload::BlastModel>(bp);
    });
    const PlacementStrategy strategies[] = {
        PlacementStrategy::kPrePartitionLocal, PlacementStrategy::kPrePartitionRemote,
        PlacementStrategy::kRealTime, PlacementStrategy::kRemoteRead};
    const Bandwidth nics[] = {mbps(50), mbps(100), mbps(200), gbps(1)};
    for (const bool is_als : {true, false}) {
      for (const auto strategy : strategies) {
        for (const auto nic : nics) {
          for (std::size_t k = 0; k < kSweepSeeds; ++k) {
            Cell c;
            c.als = is_als;
            c.strategy = strategy;
            c.opt.nic = nic;
            c.opt.scale = scale;
            c.opt.seed = seed * 1000 + k;
            c.units = static_cast<std::size_t>(
                workload::estimate_units(is_als ? "als" : "blast", c.opt));
            cells.push_back(c);
          }
        }
      }
    }
    const auto add = [&](std::size_t cell) {
      const Cell& c = cells[cell];
      jobs.emplace_back(c.als ? sweep.grid().add_als(c.strategy, c.opt, als)
                              : sweep.grid().add_blast(c.strategy, c.opt, blast),
                        cell);
    };
    for (std::size_t i = 0; i < cells.size(); ++i) add(i);
    add(0);  // one duplicate in 97 jobs; the committed bench programs have 1 in 141
  });
  out.m["setup_s"] = spans.elapsed();

  const double rss_before = peak_rss_mb();
  spans.time(out, "exp.sweep_s", [&] { sweep.run(); });
  out.m["frieda.run_rss_mb"] = peak_rss_mb() - rss_before;
  out.m["run_s"] = out.m["exp.sweep_s"];
  out.m["exp.threads"] = static_cast<double>(sweep.threads_used());
  out.m["exp.jobs"] = static_cast<double>(sweep.jobs());
  out.m["exp.cache_hits"] = static_cast<double>(sweep.cache_hits());

  // Digest every job in job order, the memo hit included.
  for (const auto& [job, cell] : jobs) {
    const auto& outcome = sweep.outcome(job);
    if (!outcome.ok()) {
      out.units += cells[cell].units;
      out.fail("sweep job " + std::to_string(job) + " failed: " + outcome.error);
      continue;
    }
    check_and_digest(outcome.get(), cells[cell].units, out);
  }
  if (tracer == nullptr) return;

  // Traced run only: the cells one by one, first plain (per-layer counters
  // and the per-cell host time behind exp.parallel_efficiency), then with
  // the tracer attached.
  for (const auto& c : cells) {
    obs::MetricsRegistry metrics;
    Cell plain = c;
    plain.opt.metrics = &metrics;
    core::RunReport r;
    spans.time(out, "frieda.run_s", [&] { r = run_cell(plain, *als, *blast); });
    const auto gauge = [&](const char* name) {
      const auto* g = metrics.find_gauge(name);
      return g != nullptr ? g->value() : 0.0;
    };
    const auto counter = [&](const char* name) {
      const auto* k = metrics.find_counter(name);
      return k != nullptr ? static_cast<double>(k->value()) : 0.0;
    };
    out.m["sim.events"] += gauge("sim.events_fired");
    out.m["sim.scheduled"] += gauge("sim.events_scheduled");
    out.m["sim.cancelled"] += gauge("sim.events_cancelled");
    out.m["sim.slots_reused"] += gauge("sim.event_slots_reused");
    out.m["net.solves"] += counter("net.solver_invocations");
    out.m["net.full_solves"] += counter("net.solver_full_solves");
    out.m["net.dirty_classes"] += counter("net.solver_dirty_classes");
    out.m["net.transfers"] += counter("net.transfers");
    count_attempts(r, out);
  }
  for (const auto& c : cells) {
    Cell traced = c;
    traced.opt.tracer = tracer;
    spans.time(out, "trace.run_s", [&] { run_cell(traced, *als, *blast); });
  }
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload batch-local|batch-realtime|service-elastic|paper-sweep "
               "--seed N [--scale F] [--trace out.json]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  bool have_seed = false;
  double scale = 1.0;
  std::string trace_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      char* end = nullptr;
      seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (key == "--scale") {
      scale = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      trace_path = value;
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || !have_seed || !(scale > 0.0 && scale <= 1.0)) return usage(argv[0]);
  const bool fleet = workload == "batch-local" || workload == "batch-realtime" ||
                     workload == "service-elastic";
  if (!fleet && workload != "paper-sweep") return usage(argv[0]);

  std::unique_ptr<obs::Tracer> tracer;
  if (!trace_path.empty()) tracer = std::make_unique<obs::Tracer>();
  Spans spans(tracer.get(), workload, workload + "/" + std::to_string(seed));
  Output out;
  try {
    if (fleet) {
      run_fleet(fleet_config(workload, scale), seed, tracer.get(), spans, out);
      if (tracer) out.m["trace.run_s"] = out.m["frieda.run_s"];
    } else {
      run_sweep(seed, scale, tracer.get(), spans, out);
    }
  } catch (const std::exception& e) {
    out.fail(std::string("exception: ") + e.what());
  }
  out.m["peak_rss_mb"] = peak_rss_mb();

  if (tracer) {
    spans.finish();
    out.m["obs.trace_events"] = static_cast<double>(tracer->event_count());
    out.m["obs.trace_dropped"] = static_cast<double>(tracer->dropped_events());
    try {
      tracer->write_chrome_json(trace_path);
      const auto loaded = obs::read_chrome_trace(trace_path);
      // The loader keeps every stored event (plus the truncation marker).
      if (loaded.size() < tracer->event_count()) out.fail("trace did not read back whole");
    } catch (const std::exception& e) {
      out.fail(std::string("trace export: ") + e.what());
    }
  }

  std::printf("{\"workload\":\"%s\",\"seed\":%" PRIu64 ",\"units\":%zu,\"completed\":%zu,"
              "\"digest\":\"%s\",\"error\":\"",
              workload.c_str(), seed, out.units, out.completed, out.digest.hex().c_str());
  for (const char ch : out.error) {
    if (ch == '"' || ch == '\\') std::putchar('\\');
    std::putchar(static_cast<unsigned char>(ch) < 0x20 ? ' ' : ch);
  }
  std::printf("\",\"m\":{");
  const char* sep = "";
  for (const auto& [name, value] : out.m) {
    std::printf("%s\"%s\":%.17g", sep, name.c_str(), value);
    sep = ",";
  }
  std::printf("}}\n");
  return out.error.empty() ? 0 : 1;
}
