// cyclic_approx: the cyclic views of the FAQ and dissociation work, run
// in-process. Ops interleave exact `faq` group-bys on a hub-skewed
// triangle (worst-case-optimal LeapFrog join; pairwise plans blow up on the
// hub) and QueryApprox on the dense d4 6-cycle at a fixed Gibbs seed and
// round budget (dissociation bounds, then Gibbs). Neither FAQ/LeapFrog nor
// dissociation nor Gibbs runs in the other two workloads.

#include <map>

#include "fr/algebra.h"
#include "opt/dissociate.h"
#include "workload.h"
#include "workload/generators.h"

namespace perfbench {

using namespace mpfdb;

namespace {

enum OpType : uint8_t { kFaq, kApprox };

// Triangle size: about 10 ms per FAQ op on a 4-vCPU x86 VM.
constexpr int64_t kTriangleDomain = 2500;
constexpr double kTriangleDensity = 0.002;

ApproxOptions FixedApprox() {
  ApproxOptions approx;
  approx.eps = 0;  // unreachable: always the full round budget
  approx.seed = 7;
  approx.max_rounds = 8;
  approx.sweeps_per_round = 256;
  approx.burn_in_sweeps = 64;
  return approx;
}

std::map<VarValue, double> ByValue(const Table* table) {
  std::map<VarValue, double> out;
  if (table == nullptr) return out;
  for (size_t i = 0; i < table->NumRows(); ++i) {
    out[table->Row(i).var(0)] = table->measure(i);
  }
  return out;
}

// lower <= exact <= upper on every group, up to rounding of the two
// differently-shaped bound plans. Groups missing from a bound read 0.
bool Brackets(const ApproxResult& r, const Table& exact) {
  const auto lower = ByValue(r.lower.get());
  const auto upper = ByValue(r.upper.get());
  for (size_t i = 0; i < exact.NumRows(); ++i) {
    const VarValue v = exact.Row(i).var(0);
    const double e = exact.measure(i);
    const double slack = 1e-9 * std::max(1.0, std::abs(e));
    auto lo = lower.find(v);
    auto up = upper.find(v);
    if ((lo == lower.end() ? 0.0 : lo->second) > e + slack) return false;
    if ((up == upper.end() ? 0.0 : up->second) < e - slack) return false;
  }
  return true;
}

class CyclicApprox : public Workload {
 public:
  std::vector<std::string> op_types() const override {
    return {"faq", "approx"};
  }
  uint8_t side_type() const override { return kApprox; }

  // Both datasets are fixed, as the hub's degree (and so the FAQ cost)
  // varies with the generator seed; the run's seed drives the op stream.
  void Teardown() override { db_.reset(); }

  Status Setup(uint64_t /*seed*/) override {
    db_ = std::make_unique<Database>();
    workload::CycleParams tri;
    tri.num_vars = 3;
    tri.domain_size = kTriangleDomain;
    tri.density = kTriangleDensity;
    tri.hub_fraction = 0.35;  // data seed: the generator's default
    MPFDB_ASSIGN_OR_RETURN(workload::CycleSchema triangle,
                           workload::GenerateCycle(tri, db_->catalog()));
    MPFDB_RETURN_IF_ERROR(db_->CreateMpfView(triangle.view));
    triangle_ = triangle.view.name;
    faq_specs_.clear();
    for (const std::string& v : triangle.vars) faq_specs_.push_back({{v}, {}});

    // The dense d4 6-cycle is fixed (data seed 4242), as is the sampler.
    workload::CycleParams six;
    six.num_vars = 6;
    six.domain_size = 4;
    six.density = 1.0;
    six.seed = 4242;
    MPFDB_ASSIGN_OR_RETURN(workload::CycleSchema cycle,
                           workload::GenerateCycle(six, db_->catalog(), "c6_"));
    MPFDB_RETURN_IF_ERROR(db_->CreateMpfView(cycle.view));
    cycle_ = cycle.view.name;
    approx_specs_.clear();
    for (const std::string& v : cycle.vars) approx_specs_.push_back({{v}, {}});
    faq_expected_.clear();
    exact_.clear();
    return Status::Ok();
  }

  Status Check() override {
    // FAQ (multiway LeapFrog) agrees with the pairwise cs+nonlinear plan;
    // plan shapes fold floating point in different orders, hence 1e-6.
    for (const MpfQuerySpec& spec : faq_specs_) {
      MPFDB_ASSIGN_OR_RETURN(QueryResult faq,
                             db_->Query(triangle_, spec, "faq"));
      MPFDB_ASSIGN_OR_RETURN(QueryResult pairwise,
                             db_->Query(triangle_, spec, "cs+nonlinear"));
      if (!fr::TablesEqual(*faq.table, *pairwise.table, 1e-6)) {
        return Status::Internal("cyclic_approx: faq and cs+nonlinear differ");
      }
      faq_expected_.push_back(faq.table);
    }
    // Exact marginals of the 6-cycle, which every approximate op brackets.
    for (const MpfQuerySpec& spec : approx_specs_) {
      MPFDB_ASSIGN_OR_RETURN(QueryResult exact, db_->Query(cycle_, spec));
      MPFDB_ASSIGN_OR_RETURN(ApproxResult approx,
                             db_->QueryApprox(cycle_, spec, FixedApprox()));
      if (!approx.approximate || !Brackets(approx, *exact.table)) {
        return Status::Internal("cyclic_approx: bounds do not bracket the "
                                "exact marginal");
      }
      exact_.push_back(exact.table);
    }
    return Status::Ok();
  }

  OpStream Stream(uint64_t seed, size_t n) const override {
    // Two FAQ ops per approximate op: with an even split the median would
    // sit on the boundary between the two latency classes.
    return MakeOpStream(seed, n, {kFaq, kApprox, kFaq},
                        {{faq_specs_.size(), 0}, {approx_specs_.size(), 0}});
  }

  OpOutcome Run(uint8_t type, uint32_t param, Tracer* tracer,
                Accum* layers) override {
    if (type == kFaq) {
      const MpfQuerySpec& spec = faq_specs_[param];
      TablePtr table;
      OpOutcome out = TimeCall([&] {
        if (tracer != nullptr) {
          auto r = DecomposedQuery(*db_, triangle_, spec, "faq",
                                   /*analyze=*/true, tracer, layers);
          if (r.ok()) table = *r;
          return r.status();
        }
        auto r = db_->Query(triangle_, spec, "faq");
        if (r.ok()) table = r->table;
        return r.status();
      });
      if (out.ok) {
        out.wrong = !fr::TablesEqual(*table, *faq_expected_[param], 0.0);
      }
      return out;
    }
    const MpfQuerySpec& spec = approx_specs_[param];
    ApproxResult result;
    OpOutcome out = TimeCall([&] {
      if (tracer != nullptr) {
        Tracer::Scope span(tracer, "opt", "opt.dissociate");
        Database::SnapshotPtr snap = db_->snapshot();
        auto split = opt::ChooseSplitVars(snap->views.at(cycle_), spec,
                                          snap->catalog);
        if (!split.ok()) return split.status();
      }
      Tracer::Scope span(tracer, "core", "core.approx");
      auto r = db_->QueryApprox(cycle_, spec, FixedApprox());
      if (r.ok()) result = std::move(*r);
      return r.status();
    });
    if (out.ok) {
      out.wrong = !result.approximate || !Brackets(result, *exact_[param]);
      if (layers != nullptr && result.seconds > 0) {
        layers->Add("exec.gibbs_samples_per_s",
                    static_cast<double>(result.samples) / result.seconds);
        layers->Add("exec.gibbs_rounds",
                    static_cast<double>(result.gibbs_rounds));
      }
    }
    return out;
  }

  std::map<std::string, double> Counters() const override {
    return PlanCacheCounters(*db_);
  }

 private:
  std::unique_ptr<Database> db_;
  std::string triangle_;
  std::string cycle_;
  std::vector<MpfQuerySpec> faq_specs_;
  std::vector<MpfQuerySpec> approx_specs_;
  std::vector<TablePtr> faq_expected_;
  std::vector<TablePtr> exact_;
};

}  // namespace

std::unique_ptr<Workload> MakeCyclicApprox() {
  return std::make_unique<CyclicApprox>();
}

}  // namespace perfbench
