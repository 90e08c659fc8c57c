// Pure helpers behind every number the benchmark reports: percentiles
// with the "at least ten samples beyond" rule, span self time, and
// open-loop schedule lateness. No GEMS dependencies, so the unit tests
// exercise them in isolation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Samples a percentile needs beyond it before the benchmark reports it.
inline constexpr std::size_t kMinTailSamples = 10;

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample: the value
/// at 1-based rank ceil(q * n). 0 for an empty sample.
double percentile(std::vector<double> values, double q);

/// Samples strictly above the nearest-rank q-th percentile of n samples.
std::size_t samples_beyond(std::size_t n, double q);

/// True when the q-th percentile of n samples has kMinTailSamples beyond it.
bool percentile_supported(std::size_t n, double q);

double mean(const std::vector<double>& values);
double median(std::vector<double> values);

/// One traced interval. Spans of a request share `request`; `parent` is
/// the id of the enclosing span, or -1 for a root.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int id = 0;
  int parent = -1;
  std::uint64_t request = 0;
};

/// Self time of every span (same order as `spans`): its duration minus
/// the part of its interval that the union of its children's intervals
/// covers. Children may overlap each other or stick out of the parent;
/// only the covered part of the parent counts.
std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

/// Open-loop arrival schedule: request i is due at start + i * period.
struct OpenLoopSchedule {
  std::int64_t start_ns = 0;
  std::int64_t period_ns = 1;

  std::int64_t due_ns(std::uint64_t i) const {
    return start_ns + static_cast<std::int64_t>(i) * period_ns;
  }
  /// How late request i was issued (0 when issued on time or early).
  std::int64_t lateness_ns(std::uint64_t i, std::int64_t issued_ns) const {
    const std::int64_t late = issued_ns - due_ns(i);
    return late > 0 ? late : 0;
  }
  /// Latency of request i measured from its due time, so a stall is
  /// charged to every request queued behind it.
  std::int64_t latency_from_due_ns(std::uint64_t i,
                                   std::int64_t done_ns) const {
    return done_ns - due_ns(i);
  }
};

}  // namespace perfbench
