// The one place the benchmark reads program-side counters: the matcher,
// epoch and store snapshots of server::Database and the net `stats`
// verb. A change to how the program exposes its counters (one metrics
// registry, say) changes only this file and adapter.cpp.
#pragma once

#include <cstdint>

#include "common/histogram.hpp"
#include "common/status.hpp"
#include "exec/matcher.hpp"
#include "mvcc/metrics.hpp"
#include "net/client.hpp"
#include "store/metrics.hpp"

namespace gems::server {
class Database;
}

namespace perfbench {

/// Point-in-time copy of the database-side counters.
struct DbCounters {
  gems::exec::MatcherMetricsSnapshot match;
  gems::mvcc::EpochMetricsSnapshot epoch;
  gems::store::StoreMetricsSnapshot store;
};

DbCounters read_db_counters(const gems::server::Database& db);

/// Server-side counters of the run-script verb, read over the wire.
struct NetCounters {
  std::uint64_t requests = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t overloaded = 0;
  std::uint64_t expired = 0;
  gems::LatencyHistogram queue_wait;
  gems::LatencyHistogram execute;
};

gems::Result<NetCounters> read_net_counters(gems::net::Client& client);

/// Bucket-wise difference after - before (both cumulative).
gems::LatencyHistogram histogram_delta(const gems::LatencyHistogram& after,
                                       const gems::LatencyHistogram& before);

/// Quantile of a log2-bucketed histogram, interpolated linearly inside the
/// bucket that holds the q-th sample (the program's own quantile_us
/// returns the bucket's upper edge, a power of two).
double histogram_quantile_us(const gems::LatencyHistogram& h, double q);

/// Counter changes over a measured window, in the units the benchmark
/// reports.
struct DbDelta {
  std::uint64_t propagation_passes = 0;
  std::uint64_t edge_traversals = 0;
  std::uint64_t parallel_tasks = 0;
  double merge_ms = 0;
  std::uint64_t epochs_published = 0;
  std::uint64_t peak_pinned_readers = 0;  // since open
  std::uint64_t delta_ingests = 0;
  double delta_ms = 0;
  std::uint64_t full_rebuilds = 0;
  std::uint64_t wal_bytes = 0;
  gems::LatencyHistogram wal_append_us;
  std::uint64_t snapshots_written = 0;
  gems::LatencyHistogram snapshot_write_us;
};

DbDelta db_delta(const DbCounters& after, const DbCounters& before);

/// Recovery timings reported by a freshly opened durable database.
struct RecoveryCounters {
  double snapshot_s = 0;
  double replay_s = 0;
  std::uint64_t records_applied = 0;  // WAL records replayed
};

RecoveryCounters read_recovery(const gems::server::Database& db);

}  // namespace perfbench
