// The machine record every report carries, and the two peaks measured in
// the same run: a direct-tile evaluation rate on an in-cache block (the
// ceiling engine.efficiency is taken against) and a sustainable memory
// bandwidth over arrays at least four times the last-level cache.
#pragma once

#include <cstddef>
#include <string>

#include "common.hpp"

namespace perfbench {

struct Machine {
  unsigned nproc = 0;
  int omp_threads = 0;  ///< OpenMP threads per parallel region
  std::string isa;      ///< widest vector ISA the tile kernels compile for
  std::string compiler;
  std::string build_type;
  std::size_t llc_bytes = 0;
};

Machine describe_machine();

/// G(x,y) evaluations per second of the Coulomb direct tile (16 targets
/// against an L2-resident source block), one block per thread on `threads`
/// threads.
double measure_peak_evals_per_s(int threads, double seconds);

struct Bandwidth {
  double bytes_per_s = 0.0;
  std::size_t array_bytes = 0;
};
/// In-place scale-and-add a = s*a + 1 (one read and one write per element)
/// on `threads` threads over one array four times `llc_bytes`, so no level
/// of cache holds it.
Bandwidth measure_bandwidth(std::size_t llc_bytes, int threads,
                            bool smoke);

/// Write the machine record and the measured peaks into the report notes.
void record_machine(const Machine& m, double peak_evals_per_s,
                    const Bandwidth& bw, Report& report);

}  // namespace perfbench
