// perfbench: one end-to-end benchmark of GEMS over three workloads.
//
//   perfbench --workload bi_mix|wire_light|ingest_read --seed N
//             --seconds S --trace 0|1 [--work-dir DIR] [--digests FILE]
//             [--write-digests]
//
// Prints human-readable lines, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.hpp"

namespace {

void print_metrics(const std::vector<perfbench::Metric>& metrics) {
  std::printf("\"metrics\": {");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& m = metrics[i];
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload bi_mix|wire_light|ingest_read "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR] "
               "[--digests FILE] [--write-digests]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  opt.work_dir = ".bench_work";
  opt.digest_path = "perfbench/digests.txt";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--work-dir" && has_value) {
      opt.work_dir = argv[++i];
    } else if (a == "--digests" && has_value) {
      opt.digest_path = argv[++i];
    } else if (a == "--write-digests") {
      opt.write_digests = true;
    } else {
      return usage();
    }
  }
  if (opt.workload.empty() || !(opt.seconds > 0)) return usage();

  auto result = perfbench::run_workload(opt);
  if (!result.is_ok()) {
    std::fprintf(stderr, "perfbench: %s\n", result.status().to_string().c_str());
    return 1;
  }
  const perfbench::RunResult& r = *result;
  for (const auto& note : r.notes) std::printf("%s\n", note.c_str());
  for (const auto& m : r.end_to_end) {
    std::printf("%-32s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& m : r.per_layer) {
    std::printf("%-32s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  print_metrics(opt.trace ? r.per_layer : r.end_to_end);
  std::printf("}\n");
  return 0;
}
