#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <utility>

namespace perfbench {

namespace {

std::size_t nearest_rank(std::size_t n, double q) {
  if (n == 0) return 0;
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)),
                                 1, n);
}

}  // namespace

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const std::size_t rank = nearest_rank(values.size(), q);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - nearest_rank(n, q);
}

bool percentile_supported(std::size_t n, double q) {
  return samples_beyond(n, q) >= kMinTailSamples;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  // Children per (request, parent id); ids are unique within a request.
  std::map<std::pair<std::uint64_t, int>, std::vector<std::size_t>> children;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      children[{spans[i].request, spans[i].parent}].push_back(i);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::vector<std::pair<std::int64_t, std::int64_t>> cover;
    auto it = children.find({s.request, s.id});
    if (it != children.end()) {
      for (std::size_t c : it->second) {
        const std::int64_t a = std::max(spans[c].start_ns, s.start_ns);
        const std::int64_t b = std::min(spans[c].end_ns, s.end_ns);
        if (a < b) cover.emplace_back(a, b);
      }
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t run_start = 0;
    std::int64_t run_end = -1;
    bool open = false;
    for (const auto& [a, b] : cover) {
      if (!open || a > run_end) {
        if (open) covered += run_end - run_start;
        run_start = a;
        run_end = b;
        open = true;
      } else {
        run_end = std::max(run_end, b);
      }
    }
    if (open) covered += run_end - run_start;
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

}  // namespace perfbench
