#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "adapter.hpp"
#include "answers.hpp"
#include "bsbm/generator.hpp"
#include "bsbm/queries.hpp"
#include "bsbm/schema.hpp"
#include "common/prng.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "plan/stats.hpp"
#include "replay.hpp"
#include "server/database.hpp"
#include "stats.hpp"
#include "storage/csv.hpp"
#include "trace.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using gems::Result;
using gems::relational::ParamMap;
using gems::server::Database;
using gems::server::DatabaseOptions;
using Results = std::vector<gems::exec::StatementResult>;

namespace {

// ---- Workload shape --------------------------------------------------------
// bi_mix and ingest_read run at 20000 products (about 32 MB of state:
// larger than a core's 2 MiB L2, inside the shared L3); wire_light at 2000
// products, which fits in cache, so the front end and transport dominate.
constexpr std::size_t kBigScale = 20000;
constexpr std::size_t kWireScale = 2000;
constexpr std::size_t kPoolThreads = 4;   // "physical cores" setting
constexpr std::size_t kWireClients = 4;   // connections = nproc
constexpr std::size_t kReaders = 2;       // + 1 writer <= nproc
// setup_s is the median of several set-ups; wire_light's takes ~0.06 s,
// and ingest_read's rides on the disk's write speed, so they repeat more
// often.
constexpr int kSetupReps = 5;
constexpr int kWireSetupReps = 25;
constexpr int kIngestSetupReps = 5;
// Seeded bindings per parameterized query. A light query's cost depends
// on its binding (Q2's on how popular Product1's features are), and the
// light p99 is the slowest few percent of bindings, so light queries get
// enough bindings for that tail to be the same from seed to seed.
constexpr std::size_t kHeavyBindings = 64;
constexpr std::size_t kLightBindings = 256;
constexpr std::size_t kBatchRows = 1000;
// A batch holds the exclusive lock for its delta maintenance and WAL
// fsync, 60-120 ms on a quiet disk and several times that on a busy one,
// and each reader waits out that window once per batch. At 1/s the
// stalled requests stay well under 1% of reader requests, so
// light_p99_ms is the readers' own tail rather than the stall length,
// and a slow disk costs the readers a tenth of their time, not a third.
constexpr double kBatchesPerSecond = 1.0;
// ingest_p90_ms (traced run) needs 100 batches: the traced run's window
// stretches until the writer has issued them.
constexpr std::size_t kMinTracedBatches = 100;
constexpr std::uint64_t kCheckpointMs = 2000;
// After the run, a restart replays the WAL tail the last checkpoint left:
// one interval of the writer's batches.
constexpr std::size_t kTailBatches = 2;
constexpr std::uint64_t kTraceEvery = 8;  // trace one request (bi_mix: mix) in N
constexpr double kStallSeconds = 20.0;    // no progress for this long fails

const char* const kBerlinTables[] = {
    "Types",   "Features", "Producers", "Products",     "Vendors",
    "Offers",  "Persons",  "Reviews",   "ProductTypes", "ProductFeatures"};

double seconds_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) / 1e9;
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

// ---- Queries and seeded parameter bindings --------------------------------

struct Query {
  std::string name;
  std::string text;
  bool heavy = false;
  std::vector<ParamMap> bindings;
};

bool is_heavy(const std::string& name) {
  return name == "Q1" || name == "Q5" || name == "Q7" || name == "Q9";
}

gems::storage::Value binding_value(const std::string& param,
                                   const gems::bsbm::GeneratorConfig& cfg,
                                   gems::Xoshiro256& rng) {
  using gems::storage::Value;
  if (param == "Country1" || param == "Country2") {
    return Value::varchar(gems::bsbm::countries()[rng.below(5)]);
  }
  if (param == "Product1") {
    return Value::varchar(gems::bsbm::product_id(rng.below(cfg.num_products)));
  }
  if (param == "Type1") {
    // The root's children: each spans about a quarter of the hierarchy,
    // so Q9's descendant closure has the same shape for every binding.
    return Value::varchar(gems::bsbm::type_id(1 + rng.below(4)));
  }
  if (param == "Producer1") {
    return Value::varchar(gems::bsbm::producer_id(rng.below(cfg.num_producers)));
  }
  // Date1
  return Value::date(gems::storage::civil_to_days(2008, 1, 1) +
                     static_cast<std::int64_t>(rng.below(365)));
}

std::vector<Query> berlin_queries(const gems::bsbm::GeneratorConfig& cfg,
                                  std::uint64_t seed, bool light_only) {
  gems::Xoshiro256 rng(seed * 0x9e3779b97f4a7c15ull + 0x51ed);
  std::vector<Query> out;
  for (const auto& nq : gems::bsbm::all_queries()) {
    Query q{nq.name, nq.text, is_heavy(nq.name), {}};
    if (light_only && q.heavy) continue;
    const std::size_t n = nq.params.empty() ? 1
                          : q.heavy          ? kHeavyBindings
                                             : kLightBindings;
    for (std::size_t k = 0; k < n; ++k) {
      ParamMap m;
      for (const auto& p : nq.params) m.emplace(p, binding_value(p, cfg, rng));
      q.bindings.push_back(std::move(m));
    }
    out.push_back(std::move(q));
  }
  return out;
}

/// expected[query][binding] = answer bytes.
using Oracle = std::vector<std::vector<std::string>>;

Result<Oracle> compute_answers(Database& db, const std::vector<Query>& queries) {
  Oracle oracle;
  for (const Query& q : queries) {
    oracle.emplace_back();
    for (const ParamMap& b : q.bindings) {
      auto r = db.run_script(q.text, b);
      if (!r.is_ok()) {
        return gems::internal_error(q.name + ": " + r.status().to_string());
      }
      oracle.back().push_back(answer_bytes(*r));
    }
  }
  return oracle;
}

/// Compares the oracle with the checked-in digests (default seed only).
/// Returns the number of mismatching answers.
std::uint64_t check_digests(const RunOptions& opt, const std::vector<Query>& queries,
                            const Oracle& oracle, std::vector<std::string>& notes) {
  if (opt.seed != kDefaultSeed) return 0;
  DigestMap got;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    for (std::size_t b = 0; b < oracle[q].size(); ++b) {
      got[opt.workload + "/" + queries[q].name + "/" + std::to_string(b)] =
          digest_hex(oracle[q][b]);
    }
  }
  DigestMap all = load_digests(opt.digest_path);
  if (opt.write_digests) {
    for (auto it = all.begin(); it != all.end();) {
      it = it->first.rfind(opt.workload + "/", 0) == 0 ? all.erase(it) : std::next(it);
    }
    all.insert(got.begin(), got.end());
    save_digests(opt.digest_path, all);
    notes.push_back("wrote " + std::to_string(got.size()) + " digests to " +
                    opt.digest_path);
    return 0;
  }
  const auto bad = digest_mismatches(all, got);
  for (const auto& key : bad) notes.push_back("answer digest mismatch: " + key);
  return bad.size();
}

// ---- Load generation -------------------------------------------------------

/// Per-thread progress stamps; a thread that makes no progress for
/// kStallSeconds fails the run (exit 3) instead of contributing fewer
/// samples.
class Watchdog {
 public:
  explicit Watchdog(std::size_t threads) : beats_(threads) {
    for (auto& b : beats_) b.store(now_ns());
    thread_ = std::thread([this] { loop(); });
  }
  ~Watchdog() {
    stop_.store(true);
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void beat(std::size_t i) { beats_[i].store(now_ns()); }
  /// A finished thread no longer needs to make progress.
  void retire(std::size_t i) { beats_[i].store(INT64_MAX); }

 private:
  void loop() {
    while (!stop_.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      const std::int64_t t = now_ns();
      for (std::size_t i = 0; i < beats_.size(); ++i) {
        const std::int64_t b = beats_[i].load();
        if (b != INT64_MAX && seconds_between(b, t) > kStallSeconds) {
          std::fprintf(stderr, "perfbench: load thread %zu stalled for %.1f s\n",
                       i, seconds_between(b, t));
          std::fflush(stderr);
          std::_Exit(3);
        }
      }
    }
  }

  std::vector<std::atomic<std::int64_t>> beats_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Raises `latest` to now: the window ends when the last load thread does.
void note_done(std::atomic<std::int64_t>& latest) {
  const std::int64_t done = now_ns();
  std::int64_t prev = latest.load();
  while (done > prev && !latest.compare_exchange_weak(prev, done)) {
  }
}

/// What one load thread observed.
struct ThreadLog {
  std::vector<double> light_ms;
  std::vector<double> heavy_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t completed = 0;
  std::vector<std::string> errors;  // first few, for the notes
  // Tracing overhead: time in the real calls (what an untraced run
  // spends), and the time tracing adds on top of them on the load
  // threads (replays, extra calls, counter reads).
  double call_ms = 0;
  double trace_ms = 0;

  void record(const Query& q, double ms, double traced_ms, bool ok) {
    ++attempted;
    call_ms += ms;
    trace_ms += traced_ms;
    if (!ok) {
      ++failed;
      return;
    }
    ++completed;
    (q.heavy ? heavy_ms : light_ms).push_back(ms);
  }
  void fail(const std::string& what) {
    if (errors.size() < 5) errors.push_back(what);
  }
  void merge(const ThreadLog& o) {
    light_ms.insert(light_ms.end(), o.light_ms.begin(), o.light_ms.end());
    heavy_ms.insert(heavy_ms.end(), o.heavy_ms.begin(), o.heavy_ms.end());
    attempted += o.attempted;
    failed += o.failed;
    completed += o.completed;
    for (const auto& e : o.errors) fail(e);
    call_ms += o.call_ms;
    trace_ms += o.trace_ms;
  }
};

// ---- Traced requests -------------------------------------------------------

struct TracedRequest {
  std::uint64_t id = 0;
  std::string query;
  bool heavy = false;
  ReplayCounts counts;
};

struct TraceState {
  Tracer tracer;
  std::mutex mutex;
  std::vector<TracedRequest> requests;
  std::atomic<std::uint64_t> next_id{1};
  std::atomic<std::uint64_t> extra_db_calls{0};
};

/// A request's real-call latency, the time its tracing took after the
/// call, and its answer bytes (or its error).
struct Outcome {
  double ms = 0;
  double trace_ms = 0;
  Result<std::string> answer = std::string();
};

/// Runs one request through `client` (when set) or in-process. Traced,
/// the real call is a span and, after it, the request is replayed stage by
/// stage and its table statements split into operators. A traced wire
/// request also runs once in-process (span server.run_script), so the
/// replay has a Database::run_script time to be compared with.
Outcome run_request(Database& db, gems::net::Client* client, const Query& q,
                    const ParamMap& params, TraceState* trace) {
  RequestTrace rt(trace != nullptr ? trace->next_id.fetch_add(1) : 0);
  auto timed = [&](const char* span, auto&& call) {
    const std::int64_t t0 = now_ns();
    auto r = call();
    const std::int64_t t1 = now_ns();
    if (trace != nullptr) rt.add(span, t0, t1);
    return std::make_pair(std::move(r), static_cast<double>(t1 - t0) / 1e6);
  };
  auto local_call = [&] { return db.run_script(q.text, params); };
  auto [first, ms] =
      client != nullptr
          ? timed("net.Client::run_script",
                  [&] { return client->run_script(q.text, params); })
          : timed("server.run_script", local_call);
  Outcome out;
  out.ms = ms;
  if (!first.is_ok()) {
    out.answer = first.status();
    return out;
  }
  out.answer = answer_bytes(*first);
  if (trace == nullptr) return out;

  const std::int64_t trace_start = now_ns();
  auto replay = [&]() -> gems::Status {
    Results local;
    if (client != nullptr) {
      (void)replay_client_encode(q.text, params, rt);
      auto [again, unused_ms] = timed("server.run_script", local_call);
      trace->extra_db_calls.fetch_add(1);
      if (!again.is_ok()) return again.status();
      local = std::move(*again);
    } else {
      local = std::move(*first);
    }
    GEMS_ASSIGN_OR_RETURN(const ReplayCounts counts,
                          replay_script(db, q.text, params, local, rt));
    replay_table_ops(q.text, local, rt);
    trace->tracer.add(rt);
    std::lock_guard<std::mutex> lock(trace->mutex);
    trace->requests.push_back({rt.request(), q.name, q.heavy, counts});
    return gems::Status::ok();
  };
  const gems::Status st = replay();
  out.trace_ms = static_cast<double>(now_ns() - trace_start) / 1e6;
  if (!st.is_ok()) out.answer = st;
  return out;
}

/// Stages whose self times, with the gap, make up server.run_script.
const char* const kStages[] = {
    "graql.parse_script",  "graql.encode_script",    "graql.decode_script",
    "graql.analyze_script", "plan.build_schedule",   "exec.lower_graph_query",
    "plan.plan_network",   "exec.match_network",     "exec.enumerate_assignments",
    "exec.execute_table_query"};

/// Per-layer metrics of the replay, and the Q-by-Q additive breakdown.
struct TraceSummary {
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
  double overhead_pct = 0;
};

TraceSummary summarize_trace(TraceState& trace, const ThreadLog& log) {
  TraceSummary out;
  const std::vector<Span> spans = trace.tracer.spans();
  const std::vector<std::int64_t> self = self_times_ns(spans);
  // request -> span name -> (self ns, duration ns)
  std::map<std::uint64_t, std::map<std::string, std::pair<double, double>>> per;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& slot = per[spans[i].request][spans[i].name];
    slot.first += static_cast<double>(self[i]);
    slot.second += static_cast<double>(spans[i].end_ns - spans[i].start_ns);
  }
  auto self_us = [&](std::uint64_t req, const std::string& name) {
    auto it = per[req].find(name);
    return it == per[req].end() ? 0.0 : it->second.first / 1e3;
  };
  auto dur_us = [&](std::uint64_t req, const std::string& name) {
    auto it = per[req].find(name);
    return it == per[req].end() ? 0.0 : it->second.second / 1e3;
  };

  // Means over the traced requests, optionally of one class.
  auto mean_over = [&](auto&& value, int heavy /* -1 = all */) {
    double sum = 0;
    std::size_t n = 0;
    for (const auto& r : trace.requests) {
      if (heavy >= 0 && r.heavy != (heavy == 1)) continue;
      sum += value(r);
      ++n;
    }
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
  };
  auto stage_mean = [&](std::initializer_list<const char*> names, int heavy = -1) {
    return mean_over(
        [&](const TracedRequest& r) {
          double s = 0;
          for (const char* n : names) s += self_us(r.id, n);
          return s;
        },
        heavy);
  };
  auto gap_of = [&](const TracedRequest& r) {
    double s = 0;
    for (const char* n : kStages) s += self_us(r.id, n);
    return dur_us(r.id, "server.run_script") - s;
  };
  auto& m = out.metrics;
  m.push_back({"graql.parse_us", stage_mean({"graql.parse_script"}), "us"});
  m.push_back({"graql.analyze_us", stage_mean({"graql.analyze_script"}), "us"});
  m.push_back({"graql.ir_us",
               stage_mean({"graql.encode_script", "graql.decode_script"}), "us"});
  m.push_back({"graql.ir_bytes",
               mean_over([](const TracedRequest& r) {
                 return static_cast<double>(r.counts.ir_bytes);
               }, -1),
               "bytes"});
  m.push_back({"plan.schedule_us", stage_mean({"plan.build_schedule"}), "us"});
  m.push_back({"exec.lower_us", stage_mean({"exec.lower_graph_query"}), "us"});
  m.push_back({"plan.plan_us", stage_mean({"plan.plan_network"}), "us"});
  m.push_back({"exec.match_us", stage_mean({"exec.match_network"}), "us"});
  m.push_back({"exec.match_us.heavy", stage_mean({"exec.match_network"}, 1), "us"});
  m.push_back({"exec.match_us.light", stage_mean({"exec.match_network"}, 0), "us"});
  for (int cls : {1, 0}) {
    const std::string suffix = cls == 1 ? ".heavy" : ".light";
    m.push_back({"exec.edge_traversals" + suffix,
                 mean_over([](const TracedRequest& r) {
                   return static_cast<double>(r.counts.edge_traversals);
                 }, cls),
                 "count"});
    m.push_back({"exec.propagation_passes" + suffix,
                 mean_over([](const TracedRequest& r) {
                   return static_cast<double>(r.counts.propagation_passes);
                 }, cls),
                 "count"});
  }
  m.push_back({"exec.enumerate_us", stage_mean({"exec.enumerate_assignments"}), "us"});
  double enumerated = 0;
  double results = 0;
  for (const auto& r : trace.requests) {
    enumerated += static_cast<double>(r.counts.enumerated_rows);
    results += static_cast<double>(r.counts.result_rows);
  }
  m.push_back({"exec.rows_examined_per_result",
               results == 0 ? 0.0 : enumerated / results, "ratio"});
  m.push_back({"relational.table_stmt_us", stage_mean({"exec.execute_table_query"}), "us"});
  m.push_back({"relational.group_by_us", stage_mean({"relational.group_by"}), "us"});
  m.push_back({"relational.sort_us", stage_mean({"relational.order_by"}), "us"});
  m.push_back({"relational.distinct_us", stage_mean({"relational.distinct"}), "us"});
  m.push_back({"server.script_gap_us", mean_over(gap_of, -1), "us"});
  m.push_back({"net.client_encode_us", stage_mean({"net.client_encode"}), "us"});
  m.push_back({"trace.sampled_requests", static_cast<double>(trace.requests.size()),
               "count"});

  // The additive breakdown, query by query: stage self times + gap =
  // traced server.run_script time.
  std::set<std::string> names;
  for (const auto& r : trace.requests) names.insert(r.query);
  for (const auto& name : names) {
    std::map<std::string, double> sums;
    double e2e = 0;
    double gap = 0;
    std::size_t n = 0;
    for (const auto& r : trace.requests) {
      if (r.query != name) continue;
      ++n;
      e2e += dur_us(r.id, "server.run_script");
      gap += gap_of(r);
      for (const char* s : kStages) sums[s] += self_us(r.id, s);
    }
    std::ostringstream line;
    line << "trace " << name << " n=" << n << " server.run_script="
         << fmt("%.1f", e2e / n) << "us =";
    double total = 0;
    for (const char* s : kStages) {
      line << " " << s << ":" << fmt("%.1f", sums[s] / n);
      total += sums[s] / n;
    }
    total += gap / n;
    line << " server.script_gap:" << fmt("%.1f", gap / n)
         << " (sum " << fmt("%.1f", total) << "us)";
    out.notes.push_back(line.str());
  }

  // Tracing overhead: traced minus untraced end-to-end time of the load,
  // as a share of the untraced time. Untraced, the load threads spend
  // only the real calls; traced, they also spend the tracing work.
  out.overhead_pct = log.call_ms == 0 ? 0.0 : 100.0 * log.trace_ms / log.call_ms;
  return out;
}

/// Collects graph statistics on the current epoch, as a new epoch's first
/// planner call does. Returns the mean time in ms over `reps` runs.
double stats_collect_ms(Database& db, int reps, Tracer* tracer) {
  double total = 0;
  for (int i = 0; i < reps; ++i) {
    const gems::mvcc::EpochPin pin = db.pin_epoch();
    RequestTrace rt(0);
    const std::int64_t t0 = now_ns();
    const gems::plan::GraphStats stats = gems::plan::GraphStats::collect(pin.ctx().graph);
    const std::int64_t t1 = now_ns();
    if (stats.vertex_counts.empty()) return -1;
    rt.add("plan.GraphStats::collect", t0, t1);
    if (tracer != nullptr) tracer->add(rt);
    total += static_cast<double>(t1 - t0) / 1e6;
  }
  return total / reps;
}

// ---- Result assembly -------------------------------------------------------

/// Fails the run when a named percentile lacks samples beyond it.
double tail(const std::vector<double>& v, double q, const char* what,
            RunResult& res) {
  if (!percentile_supported(v.size(), q)) {
    res.correct = false;
    res.notes.push_back(std::string(what) + ": only " + std::to_string(v.size()) +
                        " samples, too few for its percentile");
  }
  return percentile(v, q);
}

struct Common {
  std::vector<double> setup_s;
  double window_s = 0;
  std::size_t mix_len = 1;
};

void add_end_to_end(RunResult& res, const Common& c, const ThreadLog& log) {
  const double qps = static_cast<double>(log.completed) / c.window_s;
  res.end_to_end = {
      {"setup_s", median(c.setup_s), "s"},
      {"qmph", qps * 3600.0 / static_cast<double>(c.mix_len), "1/h"},
      {"qps", qps, "1/s"},
      {"light_p50_ms", percentile(log.light_ms, 0.5), "ms"},
      {"light_p99_ms", tail(log.light_ms, 0.99, "light_p99_ms", res), "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  res.attempted += log.attempted;
  res.failed += log.failed;
  if (log.failed > 0) res.correct = false;
  for (const auto& e : log.errors) res.notes.push_back("error: " + e);
  res.notes.push_back("samples: light=" + std::to_string(log.light_ms.size()) +
                      " heavy=" + std::to_string(log.heavy_ms.size()) +
                      " window=" + fmt("%.2f", c.window_s) + "s");
  std::string setups = "setup_s samples:";
  for (double v : c.setup_s) setups.append(" ").append(fmt("%.3f", v));
  res.notes.push_back(setups);
}

/// Per-layer metrics every workload reports, from counter deltas and the
/// trace; workload-specific ones are filled in by the caller afterwards.
struct LayerInputs {
  DbDelta db;
  double window_s = 0;
  std::uint64_t db_queries = 0;  // queries the database executed
  std::uint64_t max_live_epochs = 0;
};

std::vector<Metric> common_layers(const LayerInputs& in, const ThreadLog& log,
                                  RunResult& res) {
  const double q = in.db_queries == 0 ? 1.0 : static_cast<double>(in.db_queries);
  std::vector<Metric> m = {
      {"exec.edge_traversals", static_cast<double>(in.db.edge_traversals) / q, "count"},
      {"exec.propagation_passes", static_cast<double>(in.db.propagation_passes) / q,
       "count"},
      {"exec.parallel_tasks", static_cast<double>(in.db.parallel_tasks) / q, "count"},
      {"exec.merge_ms", in.db.merge_ms / q, "ms"},
      {"mvcc.epochs_published_per_s",
       static_cast<double>(in.db.epochs_published) / in.window_s, "1/s"},
      {"mvcc.peak_pinned_readers", static_cast<double>(in.db.peak_pinned_readers),
       "count"},
      {"mvcc.live_epochs", static_cast<double>(in.max_live_epochs), "count"},
      {"mvcc.delta_ms_per_batch",
       in.db.delta_ingests == 0 ? 0.0 : in.db.delta_ms / static_cast<double>(in.db.delta_ingests),
       "ms"},
      {"mvcc.full_rebuilds", static_cast<double>(in.db.full_rebuilds), "count"},
      {"store.wal_append_p50_us", histogram_quantile_us(in.db.wal_append_us, 0.5), "us"},
      {"store.wal_append_p99_us", histogram_quantile_us(in.db.wal_append_us, 0.99), "us"},
      {"store.snapshots_written", static_cast<double>(in.db.snapshots_written), "count"},
      {"store.snapshot_ms",
       in.db.snapshot_write_us.count == 0 ? 0.0 : in.db.snapshot_write_us.mean_us() / 1e3,
       "ms"},
      {"heavy_p50_ms", percentile(log.heavy_ms, 0.5), "ms"},
      {"heavy_p99_ms",
       log.heavy_ms.empty() ? 0.0 : tail(log.heavy_ms, 0.99, "heavy_p99_ms", res), "ms"},
  };
  return m;
}

/// Metrics of layers a workload does not exercise read 0.
void fill_absent(std::vector<Metric>& m) {
  static const std::vector<std::pair<const char*, const char*>> kAll = {
      {"net.queue_wait_p50_us", "us"}, {"net.execute_p50_us", "us"},
      {"net.transport_us", "us"},      {"net.bytes_in_per_request", "bytes"},
      {"net.bytes_out_per_request", "bytes"}, {"net.overloaded", "count"},
      {"net.expired", "count"},        {"storage.csv_parse_ms", "ms"},
      {"store.wal_bytes_per_input_byte", "ratio"},
      {"store.recovery_snapshot_s", "s"}, {"store.recovery_replay_s", "s"},
      {"store.recovery_records", "count"},
      {"ingest_p50_ms", "ms"},         {"ingest_p90_ms", "ms"},
      {"ingest.gen_late_ms", "ms"},    {"recovery_s", "s"},
      {"bytes_stored_per_input_byte", "ratio"}};
  for (const auto& [name, unit] : kAll) {
    if (std::none_of(m.begin(), m.end(), [&](const Metric& x) { return x.name == name; })) {
      m.push_back({name, 0.0, unit});
    }
  }
}

void finish_layers(RunResult& res, std::vector<Metric> layers, TraceState& trace,
                   const ThreadLog& log, double stats_ms, const RunOptions& opt) {
  TraceSummary ts = summarize_trace(trace, log);
  layers.insert(layers.end(), ts.metrics.begin(), ts.metrics.end());
  layers.push_back({"plan.stats_collect_ms", stats_ms, "ms"});
  layers.push_back({"trace.overhead_pct", ts.overhead_pct, "%"});
  fill_absent(layers);
  layers.push_back({"error_rate",
                    static_cast<double>(res.failed) / static_cast<double>(std::max<std::uint64_t>(1, res.attempted)),
                    "ratio"});
  res.per_layer = std::move(layers);
  res.notes.insert(res.notes.end(), ts.notes.begin(), ts.notes.end());
  const std::string path =
      opt.work_dir + "/spans-" + opt.workload + "-seed" + std::to_string(opt.seed) + ".jsonl";
  if (trace.tracer.write_jsonl(path)) {
    res.notes.push_back("spans written to " + path);
  } else {
    res.correct = false;
    res.notes.push_back("could not write spans to " + path);
  }
}

/// Checks one answer against the oracle; counts a mismatch as failed.
bool answer_ok(const Outcome& o, const std::string* expected, ThreadLog& log,
               const Query& q) {
  if (!o.answer.is_ok()) {
    log.fail(q.name + ": " + o.answer.status().to_string());
    return false;
  }
  if (expected != nullptr && *o.answer != *expected) {
    log.fail(q.name + ": answer differs from the oracle");
    return false;
  }
  return true;
}

// ---- bi_mix ------------------------------------------------------------------

Result<RunResult> run_bi_mix(const RunOptions& opt) {
  RunResult res;
  Common c;
  const auto cfg = gems::bsbm::GeneratorConfig::derive(kBigScale, opt.seed);
  const std::vector<Query> queries = berlin_queries(cfg, opt.seed, false);
  c.mix_len = queries.size();

  // Oracle: the same data on a serial database (no intra-node pool).
  Oracle oracle;
  {
    GEMS_ASSIGN_OR_RETURN(auto serial, gems::bsbm::make_populated_database(cfg));
    GEMS_ASSIGN_OR_RETURN(oracle, compute_answers(*serial, queries));
  }
  const std::uint64_t digest_bad = check_digests(opt, queries, oracle, res.notes);

  std::unique_ptr<Database> db;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    db.reset();
    DatabaseOptions o;
    o.intra_node_threads = kPoolThreads;
    const std::int64_t t0 = now_ns();
    GEMS_ASSIGN_OR_RETURN(db, gems::bsbm::make_populated_database(cfg, o));
    c.setup_s.push_back(seconds_between(t0, now_ns()));
  }
  // Warm-up: one untimed mix.
  for (const Query& q : queries) (void)db->run_script(q.text, q.bindings[0]);

  TraceState trace;
  ThreadLog log;
  const DbCounters before = read_db_counters(*db);
  const std::int64_t start = now_ns();
  const std::int64_t end = start + static_cast<std::int64_t>(opt.seconds * 1e9);
  std::int64_t last_done = start;
  std::uint64_t max_live = 0;
  {
    Watchdog dog(1);
    // A reported p99 needs 1000 samples (heavy_p99_ms only in the traced
    // run); on a slow machine the window stretches, up to 2x, until the
    // reported classes have them.
    const std::int64_t hard_end = start + 2 * (end - start);
    auto enough = [&] {
      return log.light_ms.size() >= 1000 && (!opt.trace || log.heavy_ms.size() >= 1000);
    };
    for (std::uint64_t mix = 0; (now_ns() < end || !enough()) && now_ns() < hard_end;
         ++mix) {
      const bool traced = opt.trace && mix % kTraceEvery == 0;
      for (std::size_t qi = 0; qi < queries.size(); ++qi) {
        const Query& q = queries[qi];
        const std::size_t b = mix % q.bindings.size();
        const Outcome o = run_request(*db, nullptr, q, q.bindings[b],
                                      traced ? &trace : nullptr);
        log.record(q, o.ms, o.trace_ms, answer_ok(o, &oracle[qi][b], log, q));
        dog.beat(0);
      }
      last_done = now_ns();
      if (opt.trace) {
        max_live = std::max(max_live, read_db_counters(*db).epoch.live);
        log.trace_ms += static_cast<double>(now_ns() - last_done) / 1e6;
      }
    }
  }
  c.window_s = seconds_between(start, last_done);
  add_end_to_end(res, c, log);
  res.failed += digest_bad;
  res.attempted += digest_bad;
  if (digest_bad > 0) res.correct = false;
  if (!opt.trace) return res;

  LayerInputs in;
  in.db = db_delta(read_db_counters(*db), before);
  in.window_s = c.window_s;
  in.db_queries = log.attempted;
  in.max_live_epochs = max_live;
  auto layers = common_layers(in, log, res);
  finish_layers(res, layers, trace, log, stats_collect_ms(*db, 5, &trace.tracer), opt);
  return res;
}

// ---- wire_light ----------------------------------------------------------------

Result<RunResult> run_wire_light(const RunOptions& opt) {
  RunResult res;
  Common c;
  const auto cfg = gems::bsbm::GeneratorConfig::derive(kWireScale, opt.seed);
  const std::vector<Query> queries = berlin_queries(cfg, opt.seed, true);
  c.mix_len = queries.size();

  std::unique_ptr<Database> db;
  std::unique_ptr<gems::net::Server> server;
  std::vector<std::unique_ptr<gems::net::Client>> clients;
  for (int rep = 0; rep < kWireSetupReps; ++rep) {
    clients.clear();
    server.reset();
    db.reset();
    const std::int64_t t0 = now_ns();
    GEMS_ASSIGN_OR_RETURN(db, gems::bsbm::make_populated_database(cfg));
    gems::net::ServerOptions so;
    so.num_workers = kWireClients;
    server = std::make_unique<gems::net::Server>(*db, so);
    GEMS_RETURN_IF_ERROR(server->start());
    for (std::size_t i = 0; i < kWireClients; ++i) {
      gems::net::ClientOptions co;
      co.port = server->port();
      clients.push_back(std::make_unique<gems::net::Client>(co));
      GEMS_RETURN_IF_ERROR(clients.back()->connect());
    }
    c.setup_s.push_back(seconds_between(t0, now_ns()));
  }

  // Oracle: serial in-process answers on the served database.
  GEMS_ASSIGN_OR_RETURN(Oracle oracle, compute_answers(*db, queries));
  const std::uint64_t digest_bad = check_digests(opt, queries, oracle, res.notes);
  for (auto& cl : clients) {
    for (const Query& q : queries) (void)cl->run_script(q.text, q.bindings[0]);
  }

  TraceState trace;
  std::vector<ThreadLog> logs(kWireClients);
  GEMS_ASSIGN_OR_RETURN(const NetCounters net_before, read_net_counters(*clients[0]));
  const DbCounters before = read_db_counters(*db);
  const std::int64_t start = now_ns();
  const std::int64_t end = start + static_cast<std::int64_t>(opt.seconds * 1e9);
  std::atomic<std::int64_t> last_done{start};
  {
    Watchdog dog(kWireClients);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kWireClients; ++t) {
      threads.emplace_back([&, t] {
        ThreadLog& log = logs[t];
        for (std::uint64_t i = 0; now_ns() < end; ++i) {
          const std::size_t qi = (i + t) % queries.size();
          const Query& q = queries[qi];
          const std::size_t b = (i / queries.size() + t) % q.bindings.size();
          const bool traced = opt.trace && i % (2 * kTraceEvery) == t;
          const Outcome o = run_request(*db, clients[t].get(), q, q.bindings[b],
                                        traced ? &trace : nullptr);
          log.record(q, o.ms, o.trace_ms, answer_ok(o, &oracle[qi][b], log, q));
          dog.beat(t);
        }
        note_done(last_done);
        dog.retire(t);
      });
    }
    for (auto& th : threads) th.join();
  }
  c.window_s = seconds_between(start, last_done.load());
  ThreadLog log;
  for (const auto& l : logs) log.merge(l);
  add_end_to_end(res, c, log);
  res.failed += digest_bad;
  res.attempted += digest_bad;
  if (digest_bad > 0) res.correct = false;

  if (opt.trace) {
    GEMS_ASSIGN_OR_RETURN(const NetCounters net_after, read_net_counters(*clients[0]));
    LayerInputs in;
    in.db = db_delta(read_db_counters(*db), before);
    in.window_s = c.window_s;
    in.db_queries = log.attempted + trace.extra_db_calls.load();
    in.max_live_epochs = read_db_counters(*db).epoch.live;
    auto layers = common_layers(in, log, res);
    const double reqs = std::max<double>(1.0, static_cast<double>(net_after.requests - net_before.requests));
    const auto qw = histogram_delta(net_after.queue_wait, net_before.queue_wait);
    const auto ex = histogram_delta(net_after.execute, net_before.execute);
    double rtt_us = 0;
    double encode_us = 0;
    std::size_t n = 0;
    const auto spans = trace.tracer.spans();
    for (const auto& s : spans) {
      if (s.name == "net.Client::run_script") {
        rtt_us += static_cast<double>(s.end_ns - s.start_ns) / 1e3;
        ++n;
      } else if (s.name == "net.client_encode") {
        encode_us += static_cast<double>(s.end_ns - s.start_ns) / 1e3;
      }
    }
    const double rtt = n == 0 ? 0.0 : rtt_us / n;
    const double enc = n == 0 ? 0.0 : encode_us / n;
    layers.push_back({"net.queue_wait_p50_us", histogram_quantile_us(qw, 0.5), "us"});
    layers.push_back({"net.execute_p50_us", histogram_quantile_us(ex, 0.5), "us"});
    layers.push_back({"net.transport_us", rtt - enc - qw.mean_us() - ex.mean_us(), "us"});
    layers.push_back({"net.bytes_in_per_request",
                      static_cast<double>(net_after.bytes_in - net_before.bytes_in) / reqs, "bytes"});
    layers.push_back({"net.bytes_out_per_request",
                      static_cast<double>(net_after.bytes_out - net_before.bytes_out) / reqs,
                      "bytes"});
    layers.push_back({"net.overloaded",
                      static_cast<double>(net_after.overloaded - net_before.overloaded), "count"});
    layers.push_back({"net.expired",
                      static_cast<double>(net_after.expired - net_before.expired), "count"});
    finish_layers(res, layers, trace, log, stats_collect_ms(*db, 5, &trace.tracer), opt);
  }
  for (auto& cl : clients) cl->disconnect();
  server->stop();
  return res;
}

// ---- ingest_read -----------------------------------------------------------------

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

/// Writes `n` Reviews batches of kBatchRows rows (with a header row) and
/// returns their sizes in bytes. Ids are fresh, so every batch takes the
/// incremental (delta) ingest path.
std::vector<std::uint64_t> write_batches(const std::string& dir, std::size_t n,
                                         const gems::bsbm::GeneratorConfig& cfg,
                                         std::uint64_t seed) {
  gems::Xoshiro256 rng(seed ^ 0xba7c4e5ull);
  std::vector<std::uint64_t> sizes;
  for (std::size_t k = 0; k < n; ++k) {
    std::ostringstream out;
    out << "id,type,reviewFor,reviewer,reviewDate,title,text,ratings_1,"
           "ratings_2,ratings_3,ratings_4,publisher,date\n";
    auto date = [&] {
      char buf[16];
      std::snprintf(buf, sizeof buf, "2008-%02d-%02d",
                    static_cast<int>(1 + rng.below(12)),
                    static_cast<int>(1 + rng.below(28)));
      return std::string(buf);
    };
    auto rating = [&] {
      return rng.chance(0.2) ? std::string() : std::to_string(rng.range(1, 10));
    };
    for (std::size_t i = 0; i < kBatchRows; ++i) {
      out << "b" << k << "_" << i << ",Review,"
          << gems::bsbm::product_id(rng.below(cfg.num_products)) << ","
          << gems::bsbm::person_id(rng.below(cfg.num_persons)) << "," << date()
          << ",T" << (i % 100) << ",txt," << rating() << "," << rating() << ","
          << rating() << "," << rating() << ",gen," << date() << "\n";
    }
    const std::string text = out.str();
    std::ofstream(dir + "/batch_" + std::to_string(k) + ".csv", std::ios::trunc) << text;
    sizes.push_back(text.size());
  }
  return sizes;
}

Result<RunResult> run_ingest_read(const RunOptions& opt) {
  RunResult res;
  Common c;
  const auto cfg = gems::bsbm::GeneratorConfig::derive(kBigScale, opt.seed);
  const std::vector<Query> queries = berlin_queries(cfg, opt.seed, true);
  c.mix_len = queries.size();

  // Inputs: the generated tables as CSV, and the run's Reviews batches.
  const std::string csv_dir = opt.work_dir + "/csv";
  const std::string store_dir = opt.work_dir + "/store";
  fs::create_directories(csv_dir);
  std::size_t setup_reviews = 0;
  std::uint64_t setup_csv_bytes = 0;
  {
    GEMS_ASSIGN_OR_RETURN(auto gen, gems::bsbm::make_populated_database(cfg));
    GEMS_RETURN_IF_ERROR(gems::bsbm::write_csv_files(*gen, csv_dir));
    GEMS_ASSIGN_OR_RETURN(auto reviews, gen->table("Reviews"));
    setup_reviews = reviews->num_rows();
  }
  std::string load_script;
  for (const char* t : kBerlinTables) {
    // write_csv_files writes a header row, so the load says so.
    load_script += std::string("ingest table ") + t + " '" + t + ".csv' with header\n";
    setup_csv_bytes += fs::file_size(csv_dir + "/" + t + ".csv");
  }
  const std::size_t num_batches = std::max<std::size_t>(
      static_cast<std::size_t>(std::ceil(opt.seconds * kBatchesPerSecond)),
      opt.trace ? kMinTracedBatches : 0);
  // The run's batches, then the WAL tail's.
  const std::vector<std::uint64_t> batch_bytes =
      write_batches(csv_dir, num_batches + kTailBatches, cfg, opt.seed);
  auto ingest_script = [](std::size_t k) {
    return "ingest table Reviews 'batch_" + std::to_string(k) + ".csv' with header";
  };

  DatabaseOptions dbo;
  dbo.store_dir = store_dir;
  dbo.data_dir = csv_dir;
  dbo.wal_fsync = true;
  dbo.checkpoint_interval_ms = kCheckpointMs;
  // Set-up: bulk-load a fresh store with background checkpoints off,
  // checkpoint it, and reopen it as the run serves it, checkpoints on. A
  // background checkpoint landing inside some loads and not others would
  // make setup_s bimodal.
  DatabaseOptions load_opts = dbo;
  load_opts.checkpoint_interval_ms = 0;
  std::unique_ptr<Database> db;
  for (int rep = 0; rep < kIngestSetupReps; ++rep) {
    db.reset();
    fs::remove_all(store_dir);
    const std::int64_t t0 = now_ns();
    {
      Database loader(load_opts);
      GEMS_RETURN_IF_ERROR(loader.run_script(gems::bsbm::full_ddl()).status());
      GEMS_RETURN_IF_ERROR(loader.run_script(load_script).status());
      GEMS_RETURN_IF_ERROR(loader.checkpoint());
    }
    db = std::make_unique<Database>(dbo);
    GEMS_RETURN_IF_ERROR(db->store_status());
    c.setup_s.push_back(seconds_between(t0, now_ns()));
  }

  // Set-up answers: what the run's readers must keep seeing for the
  // queries ingested reviews cannot change.
  GEMS_ASSIGN_OR_RETURN(const Oracle setup_answers, compute_answers(*db, queries));
  const std::uint64_t digest_bad = check_digests(opt, queries, setup_answers, res.notes);
  auto stable = [](const std::string& name) {
    return name == "Q2" || name == "Q3" || name == "Q4" || name == "Q8";
  };

  TraceState trace;
  std::vector<ThreadLog> logs(kReaders);
  std::vector<double> ingest_ms;
  std::vector<double> late_ms;
  std::vector<double> parse_ms;
  std::vector<double> collect_ms;
  std::uint64_t acked_batches = 0;
  std::uint64_t acked_bytes = 0;
  std::uint64_t writer_failed = 0;
  std::vector<std::string> writer_errors;
  std::uint64_t max_live = 0;
  double writer_call_ms = 0;
  double writer_trace_ms = 0;

  // The schema for the traced CSV parse, taken before any reader commits.
  GEMS_ASSIGN_OR_RETURN(const gems::storage::TablePtr reviews, db->table("Reviews"));
  const DbCounters before = read_db_counters(*db);
  const std::int64_t start = now_ns();
  const OpenLoopSchedule sched{start, static_cast<std::int64_t>(1e9 / kBatchesPerSecond)};
  const std::int64_t end = std::max(
      start + static_cast<std::int64_t>(opt.seconds * 1e9),
      opt.trace ? sched.due_ns(kMinTracedBatches - 1) + 1 : 0);
  std::atomic<std::int64_t> last_done{start};
  {
    Watchdog dog(kReaders + 1);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kReaders; ++t) {
      threads.emplace_back([&, t] {
        ThreadLog& log = logs[t];
        for (std::uint64_t i = 0; now_ns() < end; ++i) {
          const std::size_t qi = (i + t * 2) % queries.size();
          const Query& q = queries[qi];
          const std::size_t b = (i / queries.size() + t) % q.bindings.size();
          const bool traced = opt.trace && i % (2 * kTraceEvery) == t;
          const Outcome o = run_request(*db, nullptr, q, q.bindings[b],
                                        traced ? &trace : nullptr);
          const std::string* expected = stable(q.name) ? &setup_answers[qi][b] : nullptr;
          log.record(q, o.ms, o.trace_ms, answer_ok(o, expected, log, q));
          dog.beat(t);
        }
        note_done(last_done);
        dog.retire(t);
      });
    }
    // The open-loop writer: batch k is due at start + k / rate whether or
    // not earlier batches have finished.
    threads.emplace_back([&] {
      for (std::uint64_t k = 0; k < num_batches && sched.due_ns(k) < end; ++k) {
        while (now_ns() < sched.due_ns(k)) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(
              std::min<std::int64_t>(sched.due_ns(k) - now_ns(), 5'000'000)));
        }
        const std::int64_t issued = now_ns();
        late_ms.push_back(static_cast<double>(sched.lateness_ns(k, issued)) / 1e6);
        auto r = db->run_script(ingest_script(k));
        const std::int64_t done = now_ns();
        writer_call_ms += static_cast<double>(done - issued) / 1e6;
        dog.beat(kReaders);
        if (!r.is_ok()) {
          ++writer_failed;
          if (writer_errors.size() < 5) writer_errors.push_back(r.status().to_string());
          continue;
        }
        ++acked_batches;
        acked_bytes += batch_bytes[k];
        ingest_ms.push_back(static_cast<double>(sched.latency_from_due_ns(k, done)) / 1e6);
        if (opt.trace) {
          // Per new epoch: the planner statistics a reader's first plan
          // collects, and the CSV parse cost of the batch alone.
          collect_ms.push_back(stats_collect_ms(*db, 1, &trace.tracer));
          std::ifstream in(csv_dir + "/batch_" + std::to_string(k) + ".csv");
          std::stringstream text;
          text << in.rdbuf();
          gems::storage::Table scratch("scratch", reviews->schema(), db->pool());
          gems::storage::CsvOptions co;
          co.has_header = true;
          const std::int64_t p0 = now_ns();
          const auto st = gems::storage::ingest_csv_text(scratch, text.str(), co);
          parse_ms.push_back(static_cast<double>(now_ns() - p0) / 1e6);
          if (!st.is_ok()) ++writer_failed;
          max_live = std::max(max_live, read_db_counters(*db).epoch.live);
          writer_trace_ms += static_cast<double>(now_ns() - done) / 1e6;
        }
      }
      dog.retire(kReaders);
    });
    for (auto& th : threads) th.join();
  }
  c.window_s = seconds_between(start, last_done.load());
  const DbCounters after = read_db_counters(*db);
  ThreadLog log;
  for (const auto& l : logs) log.merge(l);
  log.call_ms += writer_call_ms;
  log.trace_ms += writer_trace_ms;
  add_end_to_end(res, c, log);
  res.attempted += acked_batches + writer_failed + digest_bad;
  res.failed += writer_failed + digest_bad;
  for (const auto& e : writer_errors) res.notes.push_back("writer error: " + e);
  if (writer_failed > 0 || digest_bad > 0) res.correct = false;

  // Durability check. Right after a background checkpoint, ingest the WAL
  // tail's batches and take the live answers; the next checkpoint is a
  // whole interval away, so the store closes with that tail unflushed and
  // the reopen loads the snapshot and replays the tail.
  std::uint64_t durable_bad = 0;
  auto durable_fail = [&](const std::string& what) {
    ++durable_bad;
    res.notes.push_back(what);
  };
  auto snapshots = [&] { return read_db_counters(*db).store.snapshots_written; };
  const std::uint64_t snapshots_before = snapshots();
  const std::int64_t wait_until =
      now_ns() + static_cast<std::int64_t>(3 * kCheckpointMs) * 1'000'000;
  while (snapshots() == snapshots_before && now_ns() < wait_until) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (snapshots() == snapshots_before) {
    durable_fail("no background checkpoint within " +
                 std::to_string(3 * kCheckpointMs) + " ms");
  }
  std::uint64_t tail_bytes = 0;
  for (std::size_t k = num_batches; k < num_batches + kTailBatches; ++k) {
    GEMS_RETURN_IF_ERROR(db->run_script(ingest_script(k)).status());
    tail_bytes += batch_bytes[k];
  }
  GEMS_ASSIGN_OR_RETURN(const Oracle live_answers, compute_answers(*db, queries));
  db.reset();
  const std::int64_t r0 = now_ns();
  db = std::make_unique<Database>(dbo);
  const double recovery_s = seconds_between(r0, now_ns());
  GEMS_RETURN_IF_ERROR(db->store_status());
  const RecoveryCounters rec = read_recovery(*db);
  if (rec.records_applied < kTailBatches) {
    res.notes.push_back("a checkpoint overtook the WAL tail: " +
                        std::to_string(rec.records_applied) + " records replayed, not " +
                        std::to_string(kTailBatches));
  }
  GEMS_ASSIGN_OR_RETURN(auto recovered_reviews, db->table("Reviews"));
  const std::size_t want_rows =
      setup_reviews + (acked_batches + kTailBatches) * kBatchRows;
  if (recovered_reviews->num_rows() != want_rows) {
    durable_fail("recovered Reviews has " + std::to_string(recovered_reviews->num_rows()) +
                 " rows, expected " + std::to_string(want_rows));
  }
  GEMS_ASSIGN_OR_RETURN(const Oracle recovered, compute_answers(*db, queries));
  for (std::size_t q = 0; q < queries.size(); ++q) {
    for (std::size_t b = 0; b < recovered[q].size(); ++b) {
      if (recovered[q][b] != live_answers[q][b]) {
        durable_fail("recovered answer differs: " + queries[q].name + "/" +
                     std::to_string(b));
      }
    }
  }
  res.attempted += 1 + queries.size();
  res.failed += durable_bad;
  if (durable_bad > 0) res.correct = false;
  // What the store holds once the tail is checkpointed too.
  GEMS_RETURN_IF_ERROR(db->checkpoint());
  db.reset();
  const double stored_bytes = static_cast<double>(dir_bytes(store_dir));
  const double input_bytes = static_cast<double>(setup_csv_bytes + acked_bytes + tail_bytes);
  res.notes.push_back("ingest: batches=" + std::to_string(acked_batches) +
                      " recovery_s=" + fmt("%.3f", recovery_s) + " (snapshot " +
                      fmt("%.3f", rec.snapshot_s) + " s, replay " +
                      fmt("%.3f", rec.replay_s) + " s of " +
                      std::to_string(rec.records_applied) + " records)");
  if (opt.trace && !percentile_supported(ingest_ms.size(), 0.9)) {
    res.correct = false;
    res.notes.push_back("ingest_p90_ms: only " + std::to_string(ingest_ms.size()) +
                        " batches, too few for its percentile");
  }

  if (opt.trace) {
    LayerInputs in;
    in.db = db_delta(after, before);
    in.window_s = c.window_s;
    in.db_queries = log.attempted;
    in.max_live_epochs = max_live;
    auto layers = common_layers(in, log, res);
    layers.push_back({"ingest_p50_ms", percentile(ingest_ms, 0.5), "ms"});
    layers.push_back({"ingest_p90_ms", percentile(ingest_ms, 0.9), "ms"});
    layers.push_back({"ingest.gen_late_ms", mean(late_ms), "ms"});
    layers.push_back({"recovery_s", recovery_s, "s"});
    layers.push_back({"bytes_stored_per_input_byte", stored_bytes / input_bytes, "ratio"});
    layers.push_back({"storage.csv_parse_ms", mean(parse_ms), "ms"});
    layers.push_back({"store.wal_bytes_per_input_byte",
                      acked_bytes == 0 ? 0.0
                                       : static_cast<double>(in.db.wal_bytes) /
                                             static_cast<double>(acked_bytes),
                      "ratio"});
    layers.push_back({"store.recovery_snapshot_s", rec.snapshot_s, "s"});
    layers.push_back({"store.recovery_replay_s", rec.replay_s, "s"});
    layers.push_back({"store.recovery_records", static_cast<double>(rec.records_applied),
                      "count"});
    finish_layers(res, layers, trace, log, mean(collect_ms), opt);
  } else {
    res.notes.push_back("batches=" + std::to_string(ingest_ms.size()) +
                        " ingest_p50_ms=" + fmt("%.3f", percentile(ingest_ms, 0.5)) +
                        " ingest_p90_ms=" + fmt("%.3f", percentile(ingest_ms, 0.9)) +
                        " gen_late_ms=" + fmt("%.3f", mean(late_ms)) +
                        " bytes_stored_per_input_byte=" +
                        fmt("%.4f", stored_bytes / input_bytes));
  }
  fs::remove_all(store_dir);
  fs::remove_all(csv_dir);
  return res;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"bi_mix", "wire_light", "ingest_read"};
  return names;
}

Result<RunResult> run_workload(const RunOptions& options) {
  fs::create_directories(options.work_dir);
  if (options.workload == "bi_mix") return run_bi_mix(options);
  if (options.workload == "wire_light") return run_wire_light(options);
  if (options.workload == "ingest_read") return run_ingest_read(options);
  return gems::invalid_argument("unknown workload '" + options.workload + "'");
}

}  // namespace perfbench
