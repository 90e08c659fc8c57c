#include "trace.hpp"

#include <fstream>

namespace perfbench {

int RequestTrace::begin(std::string name, int parent) {
  const std::int64_t t = now_ns();
  return add(std::move(name), t, t, parent);
}

void RequestTrace::end(int id) { spans_[static_cast<std::size_t>(id)].end_ns = now_ns(); }

int RequestTrace::add(std::string name, std::int64_t start_ns,
                      std::int64_t end_ns, int parent) {
  Span s;
  s.name = std::move(name);
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.id = static_cast<int>(spans_.size());
  s.parent = parent;
  s.request = request_;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void Tracer::add(const RequestTrace& trace) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.insert(spans_.end(), trace.spans().begin(), trace.spans().end());
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool Tracer::write_jsonl(const std::string& path) const {
  const std::vector<Span> all = spans();
  const std::vector<std::int64_t> self = self_times_ns(all);
  std::ofstream out(path, std::ios::trunc);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    out << "{\"request\":" << s.request << ",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"self_ns\":" << self[i] << "}\n";
  }
  return out.good();
}

}  // namespace perfbench
