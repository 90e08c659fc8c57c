#include "adapter.hpp"

#include <algorithm>

#include "server/database.hpp"

namespace perfbench {

using gems::LatencyHistogram;

DbCounters read_db_counters(const gems::server::Database& db) {
  DbCounters c;
  c.match = db.match_metrics();
  c.epoch = db.epoch_metrics();
  c.store = db.store_metrics();
  return c;
}

gems::Result<NetCounters> read_net_counters(gems::net::Client& client) {
  GEMS_ASSIGN_OR_RETURN(gems::net::MetricsSnapshot snap, client.stats());
  const gems::net::VerbMetrics& v = snap.verb(gems::net::Verb::kRunScript);
  NetCounters n;
  n.requests = v.requests;
  n.bytes_in = v.bytes_in;
  n.bytes_out = v.bytes_out;
  n.overloaded = v.overloaded;
  n.expired = v.expired;
  n.queue_wait = v.queue_wait;
  n.execute = v.execute;
  return n;
}

LatencyHistogram histogram_delta(const LatencyHistogram& after,
                                 const LatencyHistogram& before) {
  LatencyHistogram d;
  for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    d.buckets[i] = after.buckets[i] - before.buckets[i];
  }
  d.count = after.count - before.count;
  d.sum_us = after.sum_us - before.sum_us;
  d.max_us = after.max_us;
  return d;
}

double histogram_quantile_us(const LatencyHistogram& h, double q) {
  if (h.count == 0) return 0.0;
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(h.count);
  double seen = 0;
  for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    const double in_bucket = static_cast<double>(h.buckets[i]);
    if (in_bucket > 0 && seen + in_bucket >= rank) {
      // Bucket i holds latencies of bit-width i: [2^(i-1), 2^i), and
      // bucket 0 holds exactly 0.
      const double lo = i == 0 ? 0.0 : static_cast<double>(1ull << (i - 1));
      const double hi = i == 0 ? 0.0 : static_cast<double>(1ull << i);
      const double frac = (rank - seen) / in_bucket;
      return lo + frac * (hi - lo);
    }
    seen += in_bucket;
  }
  return static_cast<double>(h.max_us);
}

DbDelta db_delta(const DbCounters& after, const DbCounters& before) {
  DbDelta d;
  d.propagation_passes =
      after.match.propagation_passes - before.match.propagation_passes;
  d.edge_traversals = after.match.edge_traversals - before.match.edge_traversals;
  d.parallel_tasks = after.match.parallel_tasks - before.match.parallel_tasks;
  d.merge_ms = static_cast<double>(after.match.merge_ns - before.match.merge_ns) / 1e6;
  d.epochs_published = after.epoch.published - before.epoch.published;
  d.peak_pinned_readers = after.epoch.peak_pinned_readers;
  d.delta_ingests = after.epoch.delta_ingests - before.epoch.delta_ingests;
  d.delta_ms =
      static_cast<double>(after.epoch.delta_build_ns - before.epoch.delta_build_ns) / 1e6;
  d.full_rebuilds = after.epoch.full_rebuilds - before.epoch.full_rebuilds;
  d.wal_bytes = after.store.wal_bytes - before.store.wal_bytes;
  d.wal_append_us =
      histogram_delta(after.store.wal_append_us, before.store.wal_append_us);
  d.snapshots_written =
      after.store.snapshots_written - before.store.snapshots_written;
  d.snapshot_write_us = histogram_delta(after.store.snapshot_write_us,
                                        before.store.snapshot_write_us);
  return d;
}

RecoveryCounters read_recovery(const gems::server::Database& db) {
  const gems::store::StoreMetricsSnapshot s = db.store_metrics();
  return {s.recovery_snapshot_seconds, s.recovery_replay_seconds,
          s.recovery_records_applied};
}

}  // namespace perfbench
