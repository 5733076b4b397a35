#include "workload.h"

#include "exec/executor.h"
#include "util/query_context.h"
#include "workload/generators.h"

namespace perfbench {

using namespace mpfdb;

namespace {

// Operator self times from the ExecuteAnalyze stats spine: each node's
// inclusive wall time minus its children's, bucketed by operator kind.
void AddOperatorSelfTimes(const PhysicalPlanNode& node,
                          const std::map<const PlanNode*, OperatorStats>& stats,
                          std::map<std::string, double>* self_ms,
                          double* rows) {
  auto inclusive = [&](const PhysicalPlanNode* n) -> double {
    if (n == nullptr) return 0;
    auto it = stats.find(n->logical);
    return it == stats.end() ? 0 : static_cast<double>(it->second.wall_nanos);
  };
  std::vector<const PhysicalPlanNode*> kids = {node.left.get(),
                                               node.right.get()};
  for (const auto& c : node.children) kids.push_back(c.get());
  double self = inclusive(&node);
  for (const PhysicalPlanNode* k : kids) {
    if (k == nullptr) continue;
    self -= inclusive(k);
    AddOperatorSelfTimes(*k, stats, self_ms, rows);
  }
  auto it = stats.find(node.logical);
  if (it != stats.end()) *rows += static_cast<double>(it->second.output_rows);
  const char* bucket = "exec.other_self_ms";
  switch (node.kind) {
    case PlanNodeKind::kJoin: bucket = "exec.join_self_ms"; break;
    case PlanNodeKind::kGroupBy: bucket = "exec.agg_self_ms"; break;
    case PlanNodeKind::kScan:
    case PlanNodeKind::kIndexScan:
    case PlanNodeKind::kSelect: bucket = "exec.scan_self_ms"; break;
    case PlanNodeKind::kMultiwayJoin: bucket = "exec.multiway_self_ms"; break;
    default: break;
  }
  (*self_ms)[bucket] += self > 0 ? self * 1e-6 : 0;
}

size_t CountNonHashNodes(const PhysicalPlanNode& node) {
  size_t n = 0;
  if (node.kind == PlanNodeKind::kJoin && node.join != JoinAlgorithm::kHash) {
    ++n;
  }
  if (node.kind == PlanNodeKind::kGroupBy && node.agg != AggAlgorithm::kHash) {
    ++n;
  }
  if (node.left) n += CountNonHashNodes(*node.left);
  if (node.right) n += CountNonHashNodes(*node.right);
  for (const auto& c : node.children) n += CountNonHashNodes(*c);
  return n;
}

}  // namespace

StatusOr<TablePtr> DecomposedQuery(Database& db, const std::string& view_name,
                                   const MpfQuerySpec& spec,
                                   const std::string& optimizer_spec,
                                   bool analyze, Tracer* tracer,
                                   Accum* layers) {
  Database::SnapshotPtr snap;
  {
    Tracer::Scope span(tracer, "core", "core.snapshot");
    snap = db.snapshot();
  }
  auto view_it = snap->views.find(view_name);
  if (view_it == snap->views.end()) {
    return Status::NotFound("view '" + view_name + "' does not exist");
  }
  const MpfViewDef& view = view_it->second;

  PlanPtr logical;
  {
    Tracer::Scope span(tracer, "opt",
                       optimizer_spec == "faq" ? "opt.faq_optimize"
                                               : "opt.optimize");
    MPFDB_ASSIGN_OR_RETURN(std::unique_ptr<opt::Optimizer> optimizer,
                           MakeOptimizer(optimizer_spec));
    MPFDB_ASSIGN_OR_RETURN(logical, optimizer->Optimize(view, spec,
                                                        snap->catalog,
                                                        db.cost_model()));
  }
  // Database::Query runs with default ExecOptions and the database-owned
  // worker pool; mirror both so results match bit for bit.
  exec::Executor executor(snap->catalog, view.semiring, exec::ExecOptions{});
  std::unique_ptr<PhysicalPlanNode> physical;
  {
    Tracer::Scope span(tracer, "plan", "plan.physical");
    MPFDB_ASSIGN_OR_RETURN(physical, executor.PlanPhysical(*logical));
  }
  QueryContext ctx;
  ctx.set_thread_pool(db.thread_pool());
  const std::string result_name = view_name + "_result";
  if (!analyze) {
    Tracer::Scope span(tracer, "exec", "exec.execute");
    return executor.ExecutePhysical(*physical, result_name, &ctx);
  }
  StatusOr<exec::Executor::AnalyzedResult> analyzed =
      Status::Internal("not run");
  {
    Tracer::Scope span(tracer, "exec", "exec.execute");
    analyzed = executor.ExecuteAnalyze(*logical, result_name, &ctx);
  }
  MPFDB_RETURN_IF_ERROR(analyzed.status());
  if (layers != nullptr) {
    double rows = 0;
    std::map<std::string, double> self_ms = {{"exec.join_self_ms", 0},
                                             {"exec.agg_self_ms", 0},
                                             {"exec.scan_self_ms", 0},
                                             {"exec.multiway_self_ms", 0}};
    AddOperatorSelfTimes(*analyzed->physical, analyzed->stats, &self_ms,
                         &rows);
    for (const auto& [bucket, ms] : self_ms) layers->Add(bucket, ms);
    const double result_rows =
        static_cast<double>(analyzed->table->NumRows());
    layers->Add("exec.rows_per_result_row",
                result_rows > 0 ? rows / result_rows : rows);
    layers->Add("plan.non_hash_nodes",
                static_cast<double>(CountNonHashNodes(*physical)));
    const QueryContext::Stats qs = ctx.stats();
    layers->Add("exec.peak_mb", static_cast<double>(qs.peak_bytes) / 1048576.0);
    layers->Add("exec.spill_bytes", static_cast<double>(qs.spill_bytes));
  }
  return analyzed->table;
}

std::map<std::string, double> PlanCacheCounters(const Database& db) {
  const auto pc = db.plan_cache().stats();
  return {{"plan_cache.hits", static_cast<double>(pc.hits)},
          {"plan_cache.misses", static_cast<double>(pc.misses)},
          {"plan_cache.evictions", static_cast<double>(pc.evictions)}};
}

StatusOr<double> Workload::BoundGapProbe() {
  // The dense d4 6-cycle at a fixed data seed, Gibbs seed and round budget:
  // its tightened gap is deterministic and far from the 1.0 saturation a
  // sparse, large-domain cycle shows, so looser bounds move it.
  Database db;
  workload::CycleParams params;
  params.num_vars = 6;
  params.domain_size = 4;
  params.density = 1.0;
  params.seed = 4242;
  MPFDB_ASSIGN_OR_RETURN(workload::CycleSchema schema,
                         workload::GenerateCycle(params, db.catalog()));
  MPFDB_RETURN_IF_ERROR(db.CreateMpfView(schema.view));
  ApproxOptions approx;
  approx.eps = 0;
  approx.seed = 7;
  approx.max_rounds = 8;
  approx.sweeps_per_round = 256;
  approx.burn_in_sweeps = 64;
  MPFDB_ASSIGN_OR_RETURN(
      ApproxResult result,
      db.QueryApprox(schema.view.name, MpfQuerySpec{{schema.vars[0]}, {}},
                     approx));
  return result.max_gap;
}

}  // namespace perfbench
