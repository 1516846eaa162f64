#include "workload/scenarios.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "frieda/partition.hpp"
#include "workload/calibration.hpp"

namespace frieda::workload {

namespace {

ImageCompareParams als_params(const PaperScenarioOptions& opt) {
  auto p = ImageCompareParams::paper();
  p.image_count =
      std::max<std::size_t>(2, static_cast<std::size_t>(p.image_count * opt.scale));
  if (p.image_count % 2) --p.image_count;  // pairwise-adjacent wants an even count
  return p;
}

BlastParams blast_params(const PaperScenarioOptions& opt) {
  auto p = BlastParams::paper();
  p.sequence_count =
      std::max<std::size_t>(1, static_cast<std::size_t>(p.sequence_count * opt.scale));
  // Scale the shared database too, so small test runs stay balanced the same
  // way the full run is.
  p.database_bytes = static_cast<Bytes>(static_cast<double>(p.database_bytes) * opt.scale);
  return p;
}

struct Built {
  std::unique_ptr<sim::Simulation> sim;
  std::unique_ptr<cluster::VirtualCluster> cluster;
  std::vector<cluster::VmId> vms;
};

Built build_cluster(const PaperScenarioOptions& opt, std::size_t vm_count, unsigned cores,
                    bool with_storage = false) {
  Built b;
  b.sim = std::make_unique<sim::Simulation>(opt.seed);
  cluster::ClusterOptions copts;
  copts.source_nic_up = opt.nic;
  copts.source_nic_down = opt.nic;
  copts.with_storage_server = with_storage;
  copts.storage_nic = opt.nic;  // the networked disk shares the same fabric
  b.cluster = std::make_unique<cluster::VirtualCluster>(*b.sim, copts);
  auto type = cluster::c1_xlarge();
  type.cores = cores;
  type.nic_up = opt.nic;
  type.nic_down = opt.nic;
  type.boot_time = 0.0;  // the paper measures application time, not boot
  b.vms = b.cluster->provision(type, vm_count);
  return b;
}

core::RunReport execute(Built& b, const core::AppModel& app,
                        const storage::FileCatalog& catalog, core::PartitionScheme scheme,
                        const core::CommandTemplate& command,
                        core::PlacementStrategy strategy, const PaperScenarioOptions& opt,
                        bool multicore) {
  auto units = core::PartitionGenerator::generate(scheme, catalog);

  core::RunOptions ropt;
  ropt.strategy = strategy;
  ropt.scheme = scheme;
  ropt.multicore = multicore;
  ropt.prefetch = opt.prefetch;
  ropt.requeue_on_failure = opt.requeue_on_failure;
  ropt.tracer = opt.tracer;
  ropt.metrics = opt.metrics;
  ropt.telemetry = opt.telemetry;
  if (opt.service.open_loop) {
    ropt.arrivals = generate_arrivals(opt.service.arrivals, units.size());
    ropt.elastic_policy = opt.service.elastic;
  }

  core::FriedaRun run(*b.cluster, catalog, std::move(units), app, command, ropt);
  if (strategy == core::PlacementStrategy::kPrePartitionLocal) {
    run.pre_place_partitions(b.vms);
  }
  if (opt.arrange) opt.arrange(*b.sim, *b.cluster, run);
  return run.run();
}

}  // namespace

bool fingerprintable(const PaperScenarioOptions& opt) {
  return !opt.arrange && opt.tracer == nullptr && opt.metrics == nullptr &&
         opt.telemetry == nullptr;
}

void hash_options(StableHasher& h, const PaperScenarioOptions& opt) {
  FRIEDA_CHECK(fingerprintable(opt),
               "options with arrange/tracer/metrics/telemetry hooks cannot be fingerprinted");
  // Fixed field order — this is the memoization-key encoding.  When a
  // field is added to PaperScenarioOptions, append its mix here (changing
  // every fingerprint is fine; *omitting* a behavior-affecting field is not).
  h.mix_u64(opt.worker_vms)
      .mix_u64(opt.cores_per_vm)
      .mix_f64(opt.nic)
      .mix_bool(opt.multicore)
      .mix_f64(opt.scale)
      .mix_u64(opt.seed)
      .mix_i64(opt.prefetch)
      .mix_bool(opt.requeue_on_failure);
  if (opt.service.open_loop) {
    // Appended for the service mode; closed-batch fingerprints are unchanged.
    const auto& ac = opt.service.arrivals;
    const auto& ep = opt.service.elastic;
    h.mix_bool(true)
        .mix_u64(static_cast<std::uint64_t>(ac.kind))
        .mix_f64(ac.rate)
        .mix_f64(ac.burst_factor)
        .mix_f64(ac.burst_fraction)
        .mix_f64(ac.period_s)
        .mix_u64(ac.seed)
        .mix_bool(ep.enabled)
        .mix_u64(ep.scale_out_depth)
        .mix_u64(ep.scale_in_depth)
        .mix_f64(ep.check_interval)
        .mix_i64(ep.hysteresis)
        .mix_u64(ep.max_extra_vms);
  }
}

double estimate_units(const char* app, const PaperScenarioOptions& opt) {
  const std::string kind(app);
  if (kind == "als") {
    // Pairwise-adjacent grouping: two images per unit.
    return static_cast<double>(als_params(opt).image_count) / 2.0;
  }
  if (kind == "blast") {
    // Single-file grouping: one sequence per unit.
    return static_cast<double>(blast_params(opt).sequence_count);
  }
  FRIEDA_CHECK(false, "estimate_units: unknown app kind '" << kind << "'");
  return 0.0;
}

ImageCompareModel make_als_model(const PaperScenarioOptions& opt) {
  return ImageCompareModel(als_params(opt));
}

BlastModel make_blast_model(const PaperScenarioOptions& opt) {
  return BlastModel(blast_params(opt));
}

core::RunReport run_als(core::PlacementStrategy strategy, const ImageCompareModel& app,
                        const PaperScenarioOptions& opt) {
  auto b = build_cluster(opt, opt.worker_vms, opt.cores_per_vm,
                         strategy == core::PlacementStrategy::kSharedVolume);
  return execute(b, app, app.catalog(), core::PartitionScheme::kPairwiseAdjacent,
                 core::CommandTemplate("compare_images $inp1 $inp2"), strategy, opt,
                 opt.multicore);
}

core::RunReport run_als(core::PlacementStrategy strategy, const PaperScenarioOptions& opt) {
  return run_als(strategy, make_als_model(opt), opt);
}

core::RunReport run_blast(core::PlacementStrategy strategy, const BlastModel& app,
                          const PaperScenarioOptions& opt) {
  auto b = build_cluster(opt, opt.worker_vms, opt.cores_per_vm,
                         strategy == core::PlacementStrategy::kSharedVolume);
  return execute(b, app, app.catalog(), core::PartitionScheme::kSingleFile,
                 core::CommandTemplate("blastall -p blastp -d /data/db $inp1"), strategy, opt,
                 opt.multicore);
}

core::RunReport run_blast(core::PlacementStrategy strategy, const PaperScenarioOptions& opt) {
  return run_blast(strategy, make_blast_model(opt), opt);
}

core::RunReport run_als_sequential(const ImageCompareModel& app,
                                   const PaperScenarioOptions& opt) {
  auto b = build_cluster(opt, 1, 1);
  // Sequential baseline: one VM, one program instance, data already local.
  return execute(b, app, app.catalog(), core::PartitionScheme::kPairwiseAdjacent,
                 core::CommandTemplate("compare_images $inp1 $inp2"),
                 core::PlacementStrategy::kPrePartitionLocal, opt, /*multicore=*/false);
}

core::RunReport run_als_sequential(const PaperScenarioOptions& opt) {
  return run_als_sequential(make_als_model(opt), opt);
}

core::RunReport run_blast_sequential(const BlastModel& app, const PaperScenarioOptions& opt) {
  auto b = build_cluster(opt, 1, 1);
  return execute(b, app, app.catalog(), core::PartitionScheme::kSingleFile,
                 core::CommandTemplate("blastall -p blastp -d /data/db $inp1"),
                 core::PlacementStrategy::kPrePartitionLocal, opt, /*multicore=*/false);
}

core::RunReport run_blast_sequential(const PaperScenarioOptions& opt) {
  return run_blast_sequential(make_blast_model(opt), opt);
}

}  // namespace frieda::workload
