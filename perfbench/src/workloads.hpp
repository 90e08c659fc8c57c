// The benchmark's three workloads (see README.md for why each exists).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace perfbench {

inline constexpr std::uint64_t kDefaultSeed = 1;

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for inputs, stores and span files.
  std::string work_dir;
  /// Checked-in answer digests for the default seed.
  std::string digest_path;
  /// Rewrite this workload's digests instead of checking them.
  bool write_digests = false;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Human-readable lines printed before the result.
  std::vector<std::string> notes;
};

const std::vector<std::string>& workload_names();

gems::Result<RunResult> run_workload(const RunOptions& options);

}  // namespace perfbench
