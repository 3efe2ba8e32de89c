#include "common.hpp"

#include "trace.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>

namespace perfbench {

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back({name, value, unit});
}

void Report::note(const std::string& key, const std::string& value) {
  notes.emplace_back(key, value);
}

void Report::note(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  notes.emplace_back(key, buf);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t idx = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::max(rank, 1.0)) - 1, 0,
      values.size() - 1);
  return values[idx];
}

Tail tail_latency(std::vector<double> values) {
  Tail tail;
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n < 11) {
    tail.value = values.back();
    tail.percentile = 100.0;
    return tail;
  }
  // Rank n - 10 leaves exactly ten samples above it; report the largest
  // whole percentile whose nearest-rank index does not exceed that rank.
  const double p = std::floor(100.0 * static_cast<double>(n - 10) /
                              static_cast<double>(n));
  tail.percentile = p;
  tail.value = percentile(values, p);
  return tail;
}

std::vector<std::size_t> seeded_sample(std::size_t n, std::size_t count,
                                       std::uint64_t seed) {
  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = i;
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ULL);
  count = std::min(count, n);
  for (std::size_t i = 0; i < count; ++i) {
    std::uniform_int_distribution<std::size_t> pick(i, n - 1);
    std::swap(all[i], all[pick(rng)]);
  }
  all.resize(count);
  std::sort(all.begin(), all.end());
  return all;
}

GateResult gate(std::span<const double> reference,
                std::span<const double> approx, double tolerance) {
  GateResult result;
  double num = 0.0;
  double den = 0.0;
  bool finite = reference.size() == approx.size();
  for (std::size_t i = 0; finite && i < reference.size(); ++i) {
    if (!std::isfinite(approx[i])) finite = false;
    const double d = reference[i] - approx[i];
    num += d * d;
    den += reference[i] * reference[i];
  }
  result.rel_err = den > 0.0 ? std::sqrt(num / den) : std::sqrt(num);
  result.ok = finite && std::isfinite(result.rel_err) &&
              result.rel_err <= tolerance;
  return result;
}

std::vector<double> negated(std::vector<double> v) {
  for (double& x : v) x = -x;
  return v;
}

std::vector<double> gather(std::span<const double> values,
                           std::span<const std::size_t> sample) {
  std::vector<double> out;
  out.reserve(sample.size());
  for (const std::size_t i : sample) out.push_back(values[i]);
  return out;
}

double relative_difference(std::span<const double> a,
                           std::span<const double> b) {
  if (a.size() != b.size()) return INFINITY;
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    num += (a[i] - b[i]) * (a[i] - b[i]);
    den += a[i] * a[i];
  }
  return den > 0.0 ? std::sqrt(num / den) : std::sqrt(num);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

bltc::Cloud subcloud(const bltc::Cloud& cloud,
                     std::span<const std::size_t> sample) {
  bltc::Cloud out;
  out.resize(sample.size());
  for (std::size_t k = 0; k < sample.size(); ++k) {
    out.x[k] = cloud.x[sample[k]];
    out.y[k] = cloud.y[sample[k]];
    out.z[k] = cloud.z[sample[k]];
    out.q[k] = cloud.q[sample[k]];
  }
  return out;
}

namespace {

std::string join(const std::vector<double>& values) {
  std::string out;
  char buf[32];
  for (const double v : values) {
    std::snprintf(buf, sizeof(buf), "%s%.4f", out.empty() ? "" : " ", v);
    out += buf;
  }
  return out;
}

}  // namespace

void report_end_to_end(Report& report, const Samples& samples) {
  report.note("samples.setup_s", join(samples.setup));
  report.note("samples.cold_s", join(samples.cold));
  report.note("samples.warm_s", join(samples.warm));
  report.note("samples.step_s", join(samples.step));
  double step_total = 0.0;
  for (const double s : samples.step) step_total += s;
  const Tail tail = tail_latency(samples.step);
  report.set("setup_s", median(samples.setup), "s");
  report.set("solve_s", median(samples.cold), "s");
  report.set("eval_s", median(samples.warm), "s");
  report.set("step_s", median(samples.step), "s");
  report.set("throughput_rps",
             static_cast<double>(samples.step.size()) / step_total, "1/s");
  report.set("hit_latency_p50_ms", 1e3 * median(samples.warm), "ms");
  report.set("miss_latency_p50_ms", 1e3 * median(samples.cold), "ms");
  report.note("latency_tail_ms", 1e3 * tail.value);
  report.note("latency_tail_percentile", tail.percentile);
  report.note("latency_tail_samples", static_cast<double>(samples.step.size()));
}

void report_run_stats(Report& report, const bltc::RunStats& stats) {
  report.set("plan.clusters", static_cast<double>(stats.num_clusters),
             "count");
  report.set("plan.approx_pairs",
             static_cast<double>(stats.approx_interactions), "count");
  report.set("plan.direct_pairs",
             static_cast<double>(stats.direct_interactions), "count");
  report.set("plan.cp_pairs", static_cast<double>(stats.cp_interactions),
             "count");
  report.set("plan.cc_pairs", static_cast<double>(stats.cc_interactions),
             "count");
  report.set("moments.clusters", static_cast<double>(stats.num_clusters),
             "count");
  report.set("engine.approx_evals", stats.approx_evals, "count");
  report.set("engine.direct_evals", stats.direct_evals, "count");
  report.set("engine.cp_evals", stats.cp_evals, "count");
  report.set("engine.cc_evals", stats.cc_evals, "count");
  report.set("engine.launches",
             static_cast<double>(stats.approx_launches +
                                 stats.direct_launches + stats.cp_launches +
                                 stats.cc_launches),
             "count");
}

double span_median(const Tracer& tracer, const std::string& name) {
  return median(tracer.durations(name));
}

}  // namespace perfbench
