// perfbench — runs one workload of the repository benchmark and prints its
// metrics. The untraced run (--trace 0) reports the end-to-end metrics; the
// traced run (--trace 1) drives the same work through the layers' public
// calls with a span around each and reports the per-layer metrics, writing
// a Chrome trace and a flat self-time table next to the report.
//
//   perfbench --workload paper_uniform --seed 1 --seconds 25 --trace 0
//   perfbench --gate-selftest
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/direct_sum.hpp"
#include "machine.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"solve_s", "s"},
    {"eval_s", "s"},
    {"step_s", "s"},
    {"throughput_rps", "1/s"},
    {"hit_latency_p50_ms", "ms"},
    {"miss_latency_p50_ms", "ms"},
    {"peak_rss_mb", "MiB"},
};

/// Every per-layer metric; a layer a workload bypasses reports 0.
constexpr MetricSpec kPerLayer[] = {
    {"plan.source_build_s", "s"},
    {"plan.target_plan_s", "s"},
    {"plan.lists_s", "s"},
    {"plan.clusters", "count"},
    {"plan.approx_pairs", "count"},
    {"plan.direct_pairs", "count"},
    {"plan.cp_pairs", "count"},
    {"plan.cc_pairs", "count"},
    {"moments.prepare_s", "s"},
    {"moments.update_s", "s"},
    {"moments.clusters", "count"},
    {"engine.eval_s", "s"},
    {"engine.approx_evals", "count"},
    {"engine.direct_evals", "count"},
    {"engine.cp_evals", "count"},
    {"engine.cc_evals", "count"},
    {"engine.launches", "count"},
    {"engine.evals_per_s", "1/s"},
    {"engine.peak_evals_per_s", "1/s"},
    {"engine.efficiency", "1"},
    {"engine.rel_err", "1"},
    {"solver.update_s", "s"},
    {"solver.incremental_share", "1"},
    {"solver.moved", "count"},
    {"solver.dirty_clusters", "count"},
    {"solver.lists_reused", "count"},
    {"partition.rcb_s", "s"},
    {"dist.rma_gets", "count"},
    {"dist.rma_bytes", "bytes"},
    {"dist.let_remote_clusters", "count"},
    {"dist.let_remote_particles", "count"},
    {"dist.rank_imbalance", "1"},
    {"gpusim.bytes_to_device", "bytes"},
    {"gpusim.bytes_to_host", "bytes"},
    {"gpusim.modeled_setup_s", "s"},
    {"gpusim.modeled_compute_s", "s"},
    {"serve.queue_ms_p50", "ms"},
    {"serve.execute_ms_p50", "ms"},
    {"serve.plan_build_ms_p50", "ms"},
    {"serve.hit_ratio", "1"},
    {"serve.fused_share", "1"},
    {"serve.executions", "count"},
    {"serve.max_group", "count"},
    {"serve.plan_bytes", "bytes"},
    {"trace.overhead_share", "1"},
    {"trace.unattributed_share", "1"},
};

/// Per-layer timings read off the spans the workloads open.
constexpr MetricSpec kSpanTimes[] = {
    {"plan.source_build_s", "plan.source_build"},
    {"plan.target_plan_s", "plan.target_plan"},
    {"plan.lists_s", "plan.lists"},
    {"moments.prepare_s", "moments.prepare"},
    {"moments.update_s", "moments.update"},
    {"solver.update_s", "solver.update"},
    {"partition.rcb_s", "partition.rcb"},
};

/// Threads every workload keeps busy (4 OpenMP threads, 4 ranks x 1, or 4
/// serve workers x 1); the peaks are measured with as many.
constexpr int kBusyThreads = 4;

const std::map<std::string,
               std::function<void(const Options&, Report&, Tracer*)>>
    kWorkloads = {{"paper_uniform", run_paper_uniform},
                  {"plummer_md", run_plummer_md},
                  {"serve_storm", run_serve_storm},
                  {"dist_gpusim", run_dist_gpusim}};

double find(const Report& report, const std::string& name) {
  for (const Metric& m : report.metrics) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

bool has(const Report& report, const std::string& name) {
  for (const Metric& m : report.metrics) {
    if (m.name == name) return true;
  }
  return false;
}

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--smoke] [--out-dir DIR]\n"
               "       perfbench --gate-selftest\n");
}

/// The correctness gate must pass an exact result and fail a perturbed one.
int gate_selftest() {
  const bltc::Cloud cloud = bltc::uniform_cube(3000, 7);
  const bltc::KernelSpec kernel = bltc::KernelSpec::coulomb();
  bltc::SolverConfig config;
  config.kernel = kernel;
  bltc::Solver solver(config);
  solver.set_sources(cloud);
  const std::vector<double> phi = solver.evaluate(cloud);
  const std::vector<std::size_t> sample = seeded_sample(cloud.size(), 64, 7);
  const std::vector<double> ref =
      bltc::direct_sum_sampled(cloud, sample, cloud, kernel);
  std::vector<double> perturbed = phi;
  for (std::size_t i = 0; i < perturbed.size(); i += 7) perturbed[i] *= 1.01;
  std::vector<double> poisoned = phi;
  poisoned[sample[0]] = NAN;
  const GateResult good = gate(ref, gather(phi, sample), 1e-4);
  const GateResult bad = gate(ref, gather(perturbed, sample), 1e-4);
  const GateResult nan = gate(ref, gather(poisoned, sample), 1e-4);
  std::printf("gate: exact rel_err %.3e %s; perturbed rel_err %.3e %s; "
              "NaN %s\n",
              good.rel_err, good.ok ? "pass" : "FAIL", bad.rel_err,
              bad.ok ? "PASS" : "fail", nan.ok ? "PASS" : "fail");
  return good.ok && !bad.ok && !nan.ok ? 0 : 1;
}

void write_report(const std::string& path, const Options& opt,
                  const Report& report) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\n  \"workload\": \"%s\", \"seed\": %llu, \"trace\": %d,\n",
               opt.workload.c_str(),
               static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0);
  std::fprintf(f, "  \"attempted\": %zu, \"failed\": %zu,\n",
               report.attempted, report.failed);
  std::fprintf(f, "  \"notes\": {");
  for (std::size_t i = 0; i < report.notes.size(); ++i) {
    std::fprintf(f, "%s\n    \"%s\": \"%s\"", i ? "," : "",
                 report.notes[i].first.c_str(),
                 report.notes[i].second.c_str());
  }
  std::fprintf(f, "\n  },\n  \"metrics\": {");
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    std::fprintf(f, "%s\n    \"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                 i ? "," : "", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::fprintf(f, "\n  }\n}\n");
  std::fclose(f);
}

int run(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--gate-selftest") return gate_selftest();
    if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
      have_workload = true;
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--out-dir" && has_value) {
      opt.out_dir = argv[++i];
    } else {
      usage();
      return 2;
    }
  }
  const auto workload = kWorkloads.find(opt.workload);
  if (!have_workload || workload == kWorkloads.end() || opt.seconds <= 0) {
    usage();
    return 2;
  }

  Report report;
  std::unique_ptr<Tracer> tracer;
  if (opt.trace) tracer = std::make_unique<Tracer>();
  workload->second(opt, report, tracer.get());
  if (!opt.trace) report.set("peak_rss_mb", peak_rss_mb(), "MiB");

  // Machine record and peaks, measured after the workload so the bandwidth
  // arrays do not count in its peak resident set.
  const Machine machine = describe_machine();
  const double peak =
      measure_peak_evals_per_s(kBusyThreads, opt.smoke ? 0.05 : 0.3);
  const Bandwidth bw =
      measure_bandwidth(machine.llc_bytes, kBusyThreads, opt.smoke);
  record_machine(machine, peak, bw, report);
  report.note("workload", opt.workload);
  report.note("workload.ranks", opt.workload == "dist_gpusim" ? 4.0 : 1.0);
  report.note("workload.seed", static_cast<double>(opt.seed));

  std::filesystem::create_directories(opt.out_dir);
  const std::string stem =
      opt.out_dir + "/" + opt.workload + "-seed" + std::to_string(opt.seed) +
      "-trace" + (opt.trace ? "1" : "0") + (opt.smoke ? "-smoke" : "");
  if (tracer != nullptr) {
    for (const MetricSpec& m : kSpanTimes) {
      if (!tracer->durations(m.unit).empty()) {
        report.set(m.name, span_median(*tracer, m.unit), "s");
      }
    }
    report.set("engine.peak_evals_per_s", peak, "1/s");
    report.set("engine.efficiency", find(report, "engine.evals_per_s") / peak,
               "1");
    const double roots = tracer->root_seconds();
    report.set("trace.unattributed_share",
               tracer->root_self_seconds() / roots, "1");
    report.note("trace.root_seconds", roots);
    report.note("trace.self_seconds", tracer->self_seconds());
    report.note("trace.consistent", report.trace_consistent ? "yes" : "no");
    tracer->write_chrome(stem + ".trace.json");
    tracer->write_table(stem + ".layers.txt");
    report.note("trace.chrome", stem + ".trace.json");
    report.note("trace.table", stem + ".layers.txt");
    for (const MetricSpec& m : kPerLayer) {
      if (!has(report, m.name)) report.set(m.name, 0.0, m.unit);
    }
  }
  write_report(stem + ".json", opt, report);

  for (const auto& [key, value] : report.notes) {
    std::printf("# %s = %s\n", key.c_str(), value.c_str());
  }
  bool finite = true;
  std::string metrics;
  const auto emit = [&](const MetricSpec& spec) {
    double value = find(report, spec.name);
    if (!has(report, spec.name) || !std::isfinite(value)) {
      finite = false;
      value = 0.0;
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, "
                  "\"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", spec.name, value, spec.unit);
    metrics += buf;
  };
  if (opt.trace) {
    for (const MetricSpec& m : kPerLayer) emit(m);
  } else {
    for (const MetricSpec& m : kEndToEnd) emit(m);
  }
  const bool correct = report.failed == 0 && report.attempted > 0 &&
                       report.trace_consistent && finite;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false", report.attempted, report.failed,
              metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
