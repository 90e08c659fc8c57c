// Stage-by-stage replay of one request for the traced run. The benchmark
// calls the modules' public functions in the order Database::run_script
// calls them and records a span around each call; the part of the real
// run_script time that no replayed stage accounts for is the named gap
// (server.script_gap_us).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exec/executor.hpp"
#include "relational/expr.hpp"
#include "trace.hpp"

namespace gems::server {
class Database;
}

namespace perfbench {

struct ReplayCounts {
  std::size_t ir_bytes = 0;
  std::uint64_t enumerated_rows = 0;  // assignments emitted
  std::uint64_t result_rows = 0;      // rows of the final answer
  std::uint64_t propagation_passes = 0;
  std::uint64_t edge_traversals = 0;
};

/// Replays `text` under a root span named "replay" in `trace`. `real` is
/// the result of the real run_script call of the same request: its `into`
/// tables and subgraphs feed later statements, as the executor's overlay
/// does. Returns an error when any replayed stage fails.
gems::Result<ReplayCounts> replay_script(
    gems::server::Database& db, const std::string& text,
    const gems::relational::ParamMap& params,
    const std::vector<gems::exec::StatementResult>& real, RequestTrace& trace);

/// Client-side cost of a wire request: parse, IR encode and parameter
/// encode, under one span named "net.client_encode".
gems::Status replay_client_encode(const std::string& text,
                                  const gems::relational::ParamMap& params,
                                  RequestTrace& trace);

/// Splits the table statements of `text` into the relational operators
/// they run (group_by, order_by, distinct), each called on the
/// statement's real input table under a root span "split.table_ops". A
/// sub-breakdown of exec.execute_table_query, outside the additive tree.
void replay_table_ops(const std::string& text,
                      const std::vector<gems::exec::StatementResult>& real,
                      RequestTrace& trace);

}  // namespace perfbench
