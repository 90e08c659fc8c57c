#include "replay.hpp"

#include <optional>
#include <variant>

#include "exec/enumerate.hpp"
#include "exec/lowering.hpp"
#include "exec/matcher.hpp"
#include "graql/analyzer.hpp"
#include "graql/ir.hpp"
#include "graql/parser.hpp"
#include "plan/planner.hpp"
#include "plan/schedule.hpp"
#include "relational/operators.hpp"
#include "server/database.hpp"

namespace perfbench {

using gems::Result;
using gems::Status;
namespace exec = gems::exec;
namespace graql = gems::graql;
namespace relational = gems::relational;
namespace storage = gems::storage;

namespace {

/// The table a table statement reads: the real run's `into table` result
/// of that name, else the pinned catalog's table.
Result<storage::TablePtr> input_table(
    const std::string& name, const std::vector<exec::StatementResult>& real,
    const exec::ExecContext* snap) {
  for (const auto& r : real) {
    if (r.into == graql::IntoKind::kTable && r.into_name == name && r.table) {
      return r.table;
    }
  }
  if (snap == nullptr) return gems::not_found("no input table " + name);
  return snap->tables.find(name);
}

}  // namespace

Result<ReplayCounts> replay_script(
    gems::server::Database& db, const std::string& text,
    const relational::ParamMap& params,
    const std::vector<exec::StatementResult>& real, RequestTrace& trace) {
  ReplayCounts counts;
  SpanScope root(trace, "replay");

  graql::Script script;
  {
    SpanScope s(trace, "graql.parse_script", root.id());
    GEMS_ASSIGN_OR_RETURN(script, graql::parse_script(text));
  }
  std::vector<std::uint8_t> ir;
  {
    SpanScope s(trace, "graql.encode_script", root.id());
    ir = graql::encode_script(script);
  }
  counts.ir_bytes = ir.size();
  {
    SpanScope s(trace, "graql.decode_script", root.id());
    GEMS_ASSIGN_OR_RETURN(script, graql::decode_script(ir));
  }
  {
    SpanScope s(trace, "plan.build_schedule", root.id());
    const gems::plan::Schedule schedule = gems::plan::build_schedule(script);
    (void)schedule;
  }
  {
    SpanScope s(trace, "graql.analyze_script", root.id());
    graql::MetaCatalog meta = db.meta_catalog();
    GEMS_RETURN_IF_ERROR(graql::analyze_script(script, meta, &params));
  }

  const gems::mvcc::EpochPin pin = db.pin_epoch();
  const exec::ExecContext& snap = pin.ctx();
  const auto stats = pin.epoch().stats();
  const exec::SubgraphResolver resolver =
      [&](const std::string& name) -> Result<exec::SubgraphPtr> {
    for (const auto& r : real) {
      if (r.kind == exec::StatementResult::Kind::kSubgraph &&
          r.into_name == name) {
        return r.subgraph;
      }
    }
    auto it = snap.subgraphs.find(name);
    if (it == snap.subgraphs.end()) return gems::not_found(name);
    return it->second;
  };

  for (const graql::Statement& stmt : script.statements) {
    if (const auto* g = std::get_if<graql::GraphQueryStmt>(&stmt)) {
      SpanScope gq(trace, "exec.graph_query", root.id());
      exec::LoweredQuery lowered;
      {
        SpanScope s(trace, "exec.lower_graph_query", gq.id());
        GEMS_ASSIGN_OR_RETURN(lowered,
                              exec::lower_graph_query(*g, snap.graph, resolver,
                                                      params, db.pool()));
      }
      for (auto& net : lowered.networks) net.batch_policy = snap.batch_policy;
      for (const auto& net : lowered.networks) {
        gems::plan::PathPlan plan;
        {
          SpanScope s(trace, "plan.plan_network", gq.id());
          plan = gems::plan::plan_network(net, snap.graph, db.pool(), *stats);
        }
        const std::vector<int>* order =
            plan.constraint_order.empty() ? nullptr : &plan.constraint_order;
        std::optional<exec::MatchResult> match;
        {
          SpanScope s(trace, "exec.match_network", gq.id());
          GEMS_ASSIGN_OR_RETURN(match,
                                exec::match_network(net, snap.graph, db.pool(),
                                                    order, snap.intra_pool));
        }
        counts.propagation_passes += match->stats.propagation_passes;
        counts.edge_traversals += match->stats.edge_traversals;
        if (g->into == graql::IntoKind::kSubgraph) continue;
        exec::EnumOptions options;
        options.max_rows = snap.max_result_rows;
        options.root_var = plan.root_var;
        SpanScope s(trace, "exec.enumerate_assignments", gq.id());
        GEMS_ASSIGN_OR_RETURN(
            exec::EnumStats es,
            exec::enumerate_assignments(
                net, snap.graph, db.pool(), *match, options,
                [](std::span<const gems::graph::VertexRef>,
                   std::span<const gems::graph::EdgeRef>) { return true; }));
        counts.enumerated_rows += es.emitted;
      }
    } else if (const auto* t = std::get_if<graql::TableQueryStmt>(&stmt)) {
      exec::ExecContext scratch;
      scratch.pool = &db.pool();
      scratch.batch_policy = snap.batch_policy;
      scratch.intra_pool = snap.intra_pool;
      scratch.params = params;
      GEMS_ASSIGN_OR_RETURN(storage::TablePtr input,
                            input_table(t->from_table, real, &snap));
      scratch.tables.add_or_replace(input);
      SpanScope s(trace, "exec.execute_table_query", root.id());
      GEMS_RETURN_IF_ERROR(exec::execute_table_query(*t, scratch).status());
    }
  }
  if (!real.empty() && real.back().table) {
    counts.result_rows = real.back().table->num_rows();
  }
  return counts;
}

Status replay_client_encode(const std::string& text,
                            const relational::ParamMap& params,
                            RequestTrace& trace) {
  SpanScope s(trace, "net.client_encode");
  GEMS_ASSIGN_OR_RETURN(graql::Script script, graql::parse_script(text));
  const std::vector<std::uint8_t> ir = graql::encode_script(script);
  // The client skips the parameter block when there are no parameters.
  const std::size_t param_bytes =
      params.empty() ? 0 : graql::encode_params(params).size();
  if (ir.empty() || (!params.empty() && param_bytes == 0)) {
    return gems::internal_error("empty request encoding");
  }
  return Status::ok();
}

void replay_table_ops(const std::string& text,
                      const std::vector<exec::StatementResult>& real,
                      RequestTrace& trace) {
  auto script = graql::parse_script(text);
  if (!script.is_ok()) return;
  SpanScope root(trace, "split.table_ops");
  for (const graql::Statement& stmt : script->statements) {
    const auto* t = std::get_if<graql::TableQueryStmt>(&stmt);
    if (t == nullptr) continue;
    auto input = input_table(t->from_table, real, nullptr);
    if (!input.is_ok()) continue;
    storage::TablePtr current = *input;

    std::vector<storage::ColumnIndex> keys;
    for (const auto& name : t->group_by) {
      if (auto c = current->schema().find(name)) keys.push_back(*c);
    }
    std::vector<relational::AggSpec> aggs;
    for (const auto& item : t->items) {
      relational::AggSpec spec;
      switch (item.agg) {
        case graql::AggFunc::kNone: continue;
        case graql::AggFunc::kCountStar: spec.kind = relational::AggKind::kCountStar; break;
        case graql::AggFunc::kCount: spec.kind = relational::AggKind::kCount; break;
        case graql::AggFunc::kSum: spec.kind = relational::AggKind::kSum; break;
        case graql::AggFunc::kAvg: spec.kind = relational::AggKind::kAvg; break;
        case graql::AggFunc::kMin: spec.kind = relational::AggKind::kMin; break;
        case graql::AggFunc::kMax: spec.kind = relational::AggKind::kMax; break;
      }
      if (spec.kind != relational::AggKind::kCountStar) {
        auto c = item.expr ? current->schema().find(item.expr->column)
                           : std::nullopt;
        if (!c) continue;
        spec.input = *c;
      }
      spec.output_name = item.alias.empty() ? "agg" + std::to_string(aggs.size())
                                            : item.alias;
      aggs.push_back(std::move(spec));
    }
    if (!keys.empty() || !aggs.empty()) {
      SpanScope s(trace, "relational.group_by", root.id());
      auto grouped = relational::group_by(*current, keys, aggs, "$grouped");
      if (grouped.is_ok()) current = *grouped;
    }
    if (t->distinct) {
      SpanScope s(trace, "relational.distinct", root.id());
      current = relational::distinct(*current, "$distinct");
    }
    std::vector<relational::SortKey> sort;
    for (const auto& ord : t->order_by) {
      if (auto c = current->schema().find(ord.column)) {
        sort.push_back({*c, ord.descending});
      }
    }
    if (!sort.empty()) {
      SpanScope s(trace, "relational.order_by", root.id());
      current = relational::order_by(*current, sort, "$ordered");
    }
  }
}

}  // namespace perfbench
