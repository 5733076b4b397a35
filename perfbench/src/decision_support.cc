// decision_support: the paper's supply-chain decision-support queries run
// in-process against Database. The data is the Fig. 1 schema at scale 0.3
// with location shrunk to a tenth, the regime where ctdeals dominates the
// join. The stream mixes the Fig. 7 Q1/Q2 group-bys, restricted-answer
// group-bys with one selection, and (one op in eight) a Sec. 3.1
// alternate-measure what-if on an existing contracts row. Execution is the
// bottleneck; the plan cache always hits and there is no wire or write
// traffic.

#include "fr/algebra.h"
#include "workload.h"
#include "workload/generators.h"

namespace perfbench {

using namespace mpfdb;

namespace {

enum OpType : uint8_t { kQ1, kQ2, kRestricted, kWhatIf };
constexpr size_t kSelectionValues = 32;  // per restricted template
constexpr size_t kWhatIfTargets = 8;
constexpr uint64_t kOpSetSeed = 0xd5;

class DecisionSupport : public Workload {
 public:
  std::vector<std::string> op_types() const override {
    return {"q1", "q2", "restricted", "whatif"};
  }
  uint8_t side_type() const override { return kWhatIf; }

  void Teardown() override { db_.reset(); }

  Status Setup(uint64_t /*seed*/) override {
    db_ = std::make_unique<Database>();
    // The data and the set of distinct ops are fixed: join sizes, and so
    // the cost of every query, swing by 20% between generator seeds, and the
    // cost of a restricted group-by with its selection value. The run's seed
    // drives the op stream drawn from them.
    workload::SupplyChainParams params;
    params.scale = 0.3;
    params.location_factor = 0.1;
    MPFDB_ASSIGN_OR_RETURN(workload::SupplyChainSchema schema,
                           workload::GenerateSupplyChain(params,
                                                         db_->catalog()));
    view_ = schema.view.name;
    MPFDB_RETURN_IF_ERROR(db_->CreateMpfView(schema.view));

    // Restricted-answer group-bys: a fixed set of selection values per
    // template, so every distinct op fits the plan cache.
    SplitMix rng(kOpSetSeed);
    restricted_.clear();
    for (size_t i = 0; i < kSelectionValues; ++i) {
      const auto tid = static_cast<VarValue>(
          rng.Below(static_cast<uint64_t>(params.num_transporters())));
      const auto cid = static_cast<VarValue>(
          rng.Below(static_cast<uint64_t>(params.num_contractors())));
      restricted_.push_back({{"cid"}, {{"tid", tid}}});
      restricted_.push_back({{"tid"}, {{"cid", cid}}});
    }
    // What-if targets come from existing contracts rows: an absent (pid,
    // sid) pair would fail with NotFound.
    MPFDB_ASSIGN_OR_RETURN(TablePtr contracts,
                           db_->snapshot()->catalog.GetTable("contracts"));
    whatifs_.clear();
    for (size_t i = 0; i < kWhatIfTargets; ++i) {
      const size_t row = rng.Below(contracts->NumRows());
      RowView r = contracts->Row(row);
      WhatIf w;
      w.measure_updates.push_back(
          {"contracts",
           {{"pid", r.var(0)}, {"sid", r.var(1)}},
           contracts->measure(row) * 1.5 + 1.0});
      whatifs_.push_back(std::move(w));
    }
    expected_.clear();
    whatif_expected_.clear();
    return Status::Ok();
  }

  Status Check() override {
    // Every distinct group-by: Database::Query (plan cache path) equals its
    // Optimize -> PlanPhysical -> ExecutePhysical decomposition bit for bit.
    // The query results become the expected answers of the timed ops.
    for (size_t i = 0; i < NumGroupBys(); ++i) {
      const MpfQuerySpec& spec = GroupBy(i);
      MPFDB_ASSIGN_OR_RETURN(QueryResult direct, db_->Query(view_, spec));
      MPFDB_ASSIGN_OR_RETURN(
          TablePtr decomposed,
          DecomposedQuery(*db_, view_, spec, "cs+nonlinear",
                          /*analyze=*/false, nullptr, nullptr));
      if (!fr::TablesEqual(*direct.table, *decomposed, 0.0)) {
        return Status::Internal("decision_support: Query and its "
                                "decomposition differ on group-by " +
                                std::to_string(i));
      }
      expected_.push_back(direct.table);
    }
    // What-ifs: QueryWhatIf equals the same decomposition over a scratch
    // catalog holding the modified contracts clone.
    for (const WhatIf& w : whatifs_) {
      MPFDB_ASSIGN_OR_RETURN(QueryResult direct,
                             db_->QueryWhatIf(view_, WhatIfSpec(), w));
      MPFDB_ASSIGN_OR_RETURN(TablePtr manual, ManualWhatIf(w));
      if (!fr::TablesEqual(*direct.table, *manual, 0.0)) {
        return Status::Internal("decision_support: QueryWhatIf differs from "
                                "its decomposition");
      }
      whatif_expected_.push_back(direct.table);
    }
    return Status::Ok();
  }

  OpStream Stream(uint64_t seed, size_t n) const override {
    // The Fig. 7 queries are the majority (5 of 8), so the median falls
    // inside their two-op class rather than on a class boundary or among
    // the 64 restricted ops of varying cost.
    const std::vector<uint8_t> pattern = {kQ1, kQ2, kRestricted, kQ1,
                                          kQ2, kRestricted, kQ1, kWhatIf};
    return MakeOpStream(seed, n, pattern,
                        {{1, 0}, {1, 0}, {restricted_.size(), 0},
                         {whatifs_.size(), 0}});
  }

  OpOutcome Run(uint8_t type, uint32_t param, Tracer* tracer,
                Accum* layers) override {
    if (type == kWhatIf) {
      const WhatIf& w = whatifs_[param];
      TablePtr table;
      OpOutcome out = TimeCall([&] {
        Tracer::Scope span(tracer, "core", "core.whatif");
        auto r = db_->QueryWhatIf(view_, WhatIfSpec(), w);
        if (r.ok()) table = r->table;
        return r.status();
      });
      if (out.ok) {
        out.wrong = !fr::TablesEqual(*table, *whatif_expected_[param], 0.0);
      }
      return out;
    }
    const size_t index = type == kQ1   ? 0
                         : type == kQ2 ? 1
                                       : 2 + static_cast<size_t>(param);
    const MpfQuerySpec& spec = GroupBy(index);
    TablePtr table;
    OpOutcome out = TimeCall([&] {
      if (tracer != nullptr) {
        auto r = DecomposedQuery(*db_, view_, spec, "cs+nonlinear",
                                 /*analyze=*/true, tracer, layers);
        if (r.ok()) table = *r;
        return r.status();
      }
      auto r = db_->Query(view_, spec);
      if (r.ok()) table = r->table;
      return r.status();
    });
    if (out.ok) out.wrong = !fr::TablesEqual(*table, *expected_[index], 0.0);
    return out;
  }

  std::map<std::string, double> Counters() const override {
    return PlanCacheCounters(*db_);
  }

 private:
  size_t NumGroupBys() const { return 2 + restricted_.size(); }
  const MpfQuerySpec& GroupBy(size_t i) const {
    return i == 0 ? q1_ : i == 1 ? q2_ : restricted_[i - 2];
  }
  const MpfQuerySpec& WhatIfSpec() const { return q1_; }

  StatusOr<TablePtr> ManualWhatIf(const WhatIf& w) {
    Database::SnapshotPtr snap = db_->snapshot();
    const MpfViewDef& view = snap->views.at(view_);
    Catalog scratch = snap->catalog;
    for (const auto& update : w.measure_updates) {
      MPFDB_ASSIGN_OR_RETURN(TablePtr original, scratch.GetTable(update.table));
      TablePtr clone(original->Clone(update.table));
      for (size_t i = 0; i < clone->NumRows(); ++i) {
        RowView row = clone->Row(i);
        bool all = true;
        for (const auto& m : update.match) {
          all = all && row.var(*clone->schema().IndexOf(m.var)) == m.value;
        }
        if (all) clone->set_measure(i, update.new_measure);
      }
      MPFDB_RETURN_IF_ERROR(scratch.DropTable(update.table));
      MPFDB_RETURN_IF_ERROR(scratch.RegisterTable(clone));
    }
    MPFDB_ASSIGN_OR_RETURN(std::unique_ptr<opt::Optimizer> optimizer,
                           MakeOptimizer("cs+nonlinear"));
    MPFDB_ASSIGN_OR_RETURN(PlanPtr plan,
                           optimizer->Optimize(view, WhatIfSpec(), scratch,
                                               db_->cost_model()));
    exec::Executor executor(scratch, view.semiring, exec::ExecOptions{});
    MPFDB_ASSIGN_OR_RETURN(std::unique_ptr<PhysicalPlanNode> physical,
                           executor.PlanPhysical(*plan));
    return executor.ExecutePhysical(*physical, view_ + "_whatif");
  }

  std::unique_ptr<Database> db_;
  std::string view_;
  const MpfQuerySpec q1_{{"cid"}, {}};
  const MpfQuerySpec q2_{{"tid"}, {}};
  std::vector<MpfQuerySpec> restricted_;
  std::vector<WhatIf> whatifs_;
  std::vector<TablePtr> expected_;
  std::vector<TablePtr> whatif_expected_;
};

}  // namespace

std::unique_ptr<Workload> MakeDecisionSupport() {
  return std::make_unique<DecisionSupport>();
}

}  // namespace perfbench
