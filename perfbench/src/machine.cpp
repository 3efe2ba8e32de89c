#include "machine.hpp"

#include <omp.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/cpu_kernels.hpp"
#include "core/kernels.hpp"
#include "util/timer.hpp"
#include "util/workloads.hpp"

namespace perfbench {

namespace {

/// Parse a sysfs cache size such as "307200K".
std::size_t parse_size(const std::string& text) {
  std::size_t value = 0;
  std::size_t i = 0;
  while (i < text.size() && text[i] >= '0' && text[i] <= '9') {
    value = value * 10 + static_cast<std::size_t>(text[i] - '0');
    ++i;
  }
  if (i < text.size() && text[i] == 'K') value <<= 10;
  if (i < text.size() && text[i] == 'M') value <<= 20;
  return value;
}

/// Size of the highest-level data or unified cache of CPU 0.
std::size_t last_level_cache_bytes() {
  int best_level = 0;
  std::size_t best = 0;
  for (int index = 0; index < 8; ++index) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    std::ifstream level_file(dir + "/level");
    std::ifstream type_file(dir + "/type");
    std::ifstream size_file(dir + "/size");
    int level = 0;
    std::string type, size;
    if (!(level_file >> level) || !(type_file >> type) ||
        !(size_file >> size)) {
      continue;
    }
    if (type == "Instruction") continue;
    if (level >= best_level) {
      best_level = level;
      best = parse_size(size);
    }
  }
  return best;
}

}  // namespace

Machine describe_machine() {
  Machine m;
  m.nproc = static_cast<unsigned>(sysconf(_SC_NPROCESSORS_ONLN));
  m.omp_threads = omp_get_max_threads();
#if defined(__AVX512F__)
  m.isa = "avx512";
#elif defined(__AVX2__)
  m.isa = "avx2";
#else
  m.isa = "baseline";
#endif
  m.compiler = PERFBENCH_COMPILER;
  m.build_type = PERFBENCH_BUILD_TYPE;
  m.llc_bytes = last_level_cache_bytes();
  return m;
}

double measure_peak_evals_per_s(int threads, double seconds) {
  // 16 targets (one full tile) against 2048 sources: 64 KiB of source data,
  // resident in L2, so the rate is the tile's compute ceiling.
  constexpr std::size_t kSources = 2048;
  const std::size_t nt = bltc::kTargetTile;
  double evals = 0.0;
  double elapsed = 0.0;
#pragma omp parallel num_threads(threads) reduction(+ : evals) \
    reduction(max : elapsed)
  {
    const bltc::Cloud src = bltc::uniform_cube(
        kSources, 1000 + static_cast<std::uint64_t>(omp_get_thread_num()));
    const bltc::Cloud tgt = bltc::uniform_cube(nt, 2000);
    std::vector<double> phi(nt, 0.0);
    const bltc::CoulombKernel kernel{};
    const auto tile = [&] {
      bltc::accumulate_tile<false, true>(
          tgt.x.data(), tgt.y.data(), tgt.z.data(), nt, src.x.data(),
          src.y.data(), src.z.data(), src.q.data(), kSources, kernel,
          phi.data(), nullptr, nullptr, nullptr);
    };
    tile();  // warm-up
#pragma omp barrier
    bltc::WallTimer timer;
    std::size_t reps = 0;
    do {
      for (int r = 0; r < 64; ++r) tile();
      reps += 64;
    } while (timer.seconds() < seconds);
    elapsed = timer.seconds();
    evals = static_cast<double>(reps * nt * kSources);
    if (phi[0] == 0.123456789) std::printf("%g\n", phi[0]);  // keep the work
  }
  return evals / elapsed;
}

Bandwidth measure_bandwidth(std::size_t llc_bytes, int threads, bool smoke) {
  Bandwidth bw;
  const std::size_t llc = llc_bytes > 0 ? llc_bytes : std::size_t(32) << 20;
  bw.array_bytes = smoke ? (std::size_t(8) << 20) : 4 * llc;
  const std::size_t n = bw.array_bytes / sizeof(double);
  std::unique_ptr<double[]> a(new double[n]);
#pragma omp parallel for num_threads(threads) schedule(static)
  for (std::size_t i = 0; i < n; ++i) a[i] = 1.0;
  double best = 0.0;
  for (int pass = 0; pass < 4; ++pass) {
    bltc::WallTimer timer;
    const double s = 0.5;
#pragma omp parallel for num_threads(threads) schedule(static)
    for (std::size_t i = 0; i < n; ++i) a[i] = s * a[i] + 1.0;
    const double t = timer.seconds();
    best = std::max(best, 2.0 * static_cast<double>(bw.array_bytes) / t);
  }
  if (a[n / 2] == 0.0) std::printf("bandwidth check failed\n");
  bw.bytes_per_s = best;
  return bw;
}

void record_machine(const Machine& m, double peak_evals_per_s,
                    const Bandwidth& bw, Report& report) {
  report.note("machine.nproc", static_cast<double>(m.nproc));
  report.note("machine.omp_threads", static_cast<double>(m.omp_threads));
  report.note("machine.isa", m.isa);
  report.note("machine.compiler", m.compiler);
  report.note("machine.build_type", m.build_type);
  report.note("machine.llc_bytes", static_cast<double>(m.llc_bytes));
  report.note("machine.peak_evals_per_s", peak_evals_per_s);
  report.note("machine.mem_bw_bytes_per_s", bw.bytes_per_s);
  report.note("machine.mem_bw_array_bytes",
              static_cast<double>(bw.array_bytes));
}

}  // namespace perfbench
