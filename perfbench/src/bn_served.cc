// bn_served: Bayesian-network inference (Sec. 4, with the Sec. 6 VE-cache)
// served over the wire. A RandomBayesNet (30 variables, at most 2 parents,
// domain 3) with its VE-cache built at set-up sits behind an MpfServer and a
// NetServer with one io thread; one NetClient runs, per ten ops, six exact
// marginals P(x_i | x_j = v) planned with `ve(deg) ext.`, three VE-cache
// answers and one CPT measure update. Query triples are Zipf-skewed over all
// (target, evidence var, value) combinations so a few percent miss the
// 256-entry plan cache. These are small ops where serving layers dominate.

#include <algorithm>

#include "bn/bayes_net.h"
#include "fr/algebra.h"
#include "server/net/client.h"
#include "server/net/net_server.h"
#include "server/net/wire.h"
#include "server/server.h"
#include "workload.h"

namespace perfbench {

using namespace mpfdb;
using server::MpfServer;
using server::Session;
using server::net::NetClient;
using server::net::NetServer;

namespace {

enum OpType : uint8_t { kExact, kCached, kUpdate };

constexpr int kVars = 30;
constexpr int64_t kDomain = 3;
// Zipf exponent over the ~2.6k query triples. With s = 1.6 about 3% of
// exact queries (2% of all ops) miss the 256-entry LRU plan cache: above 1%,
// so p99 lands on planning, and far below half, so p50 stays on the hit
// path.
constexpr double kZipfS = 1.6;
constexpr size_t kUpdateTargets = 64;
constexpr size_t kUpdateSteps = 16;  // distinct values per target
constexpr size_t kCheckedTriples = 32;
// The model is fixed, like the d4 cycle of cyclic_approx: a cold
// `ve(deg) ext.` optimize costs 9-30 ms on some random structures (model
// seeds 2, 3, 7) and 40-300 ms on others (seeds 1, 12345), so a per-seed
// structure would swamp the run-to-run spread. Seed 2 is in the regime the
// workload was specified for (about 11 ms per cold optimize). The run's
// seed drives the op stream, the triple order and the update targets.
constexpr uint64_t kModelSeed = 2;
const char* const kOptimizer = "ve(deg) ext.";

class BnServed : public Workload {
 public:
  ~BnServed() override { Teardown(); }

  std::vector<std::string> op_types() const override {
    return {"exact", "cached", "update"};
  }
  uint8_t side_type() const override { return kUpdate; }

  void Teardown() override {
    client_.reset();
    if (net_) net_->Shutdown();
    net_.reset();
    session_.reset();
    server_.reset();
    db_.reset();
  }

  Status Setup(uint64_t seed) override {
    db_ = std::make_unique<Database>();
    Rng rng(kModelSeed);
    MPFDB_ASSIGN_OR_RETURN(bn::BayesNet net,
                           bn::RandomBayesNet(kVars, 2, kDomain, rng));
    MPFDB_ASSIGN_OR_RETURN(MpfViewDef view, net.ToMpfView(db_->catalog()));
    view_ = view.name;
    MPFDB_RETURN_IF_ERROR(db_->CreateMpfView(view));
    const auto build_start = Clock::now();
    MPFDB_RETURN_IF_ERROR(db_->BuildCache(view_));
    build_ms_ = SecondsBetween(build_start, Clock::now()) * 1e3;

    server_ = std::make_unique<MpfServer>(*db_);
    session_ = server_->CreateSession("bench");
    server::net::NetServerOptions options;
    options.io_threads = 1;
    net_ = std::make_unique<NetServer>(*server_, options);
    MPFDB_RETURN_IF_ERROR(net_->Start());
    MPFDB_ASSIGN_OR_RETURN(client_, NetClient::Connect(net_->port()));
    MPFDB_RETURN_IF_ERROR(client_->set_recv_timeout_ms(60000));

    // Every (target, evidence var, value) triple, in a seeded order: Zipf
    // rank k maps to triples_[k], so which queries are hot varies by seed.
    triples_.clear();
    for (int t = 0; t < kVars; ++t) {
      for (int e = 0; e < kVars; ++e) {
        if (e == t) continue;
        for (VarValue v = 0; v < kDomain; ++v) {
          triples_.push_back({{"x" + std::to_string(t)},
                              {{"x" + std::to_string(e), v}}});
        }
      }
    }
    SplitMix mix(seed ^ 0xb5u);
    for (size_t i = triples_.size(); i > 1; --i) {
      std::swap(triples_[i - 1], triples_[mix.Below(i)]);
    }
    // CPT rows the update ops rewrite.
    targets_.clear();
    for (size_t i = 0; i < kUpdateTargets; ++i) {
      const std::string table =
          "cpt_x" + std::to_string(mix.Below(static_cast<uint64_t>(kVars)));
      MPFDB_ASSIGN_OR_RETURN(TablePtr cpt,
                             db_->snapshot()->catalog.GetTable(table));
      const size_t row = mix.Below(cpt->NumRows());
      RowView r = cpt->Row(row);
      targets_.push_back({table,
                          std::vector<VarValue>(r.vars, r.vars + r.arity),
                          cpt->measure(row)});
    }
    return Status::Ok();
  }

  Status Check() override { return CheckTriples(kCheckedTriples); }
  // The updates changed the CPTs and delta-refreshed the cache; the wire,
  // in-process and cached answers must still agree.
  Status FinalCheck() override { return CheckTriples(kCheckedTriples / 2); }

  OpStream Stream(uint64_t seed, size_t n) const override {
    const std::vector<uint8_t> pattern = {kExact, kCached, kExact, kExact,
                                          kCached, kExact, kUpdate, kExact,
                                          kCached, kExact};
    return MakeOpStream(seed, n, pattern,
                        {{triples_.size(), kZipfS},
                         {triples_.size(), kZipfS},
                         {kUpdateTargets * kUpdateSteps, 0}});
  }

  OpOutcome Run(uint8_t type, uint32_t param, Tracer* tracer,
                Accum* layers) override {
    if (type == kUpdate) return RunUpdate(param, tracer, layers);
    const MpfQuerySpec& spec = triples_[param];
    const bool cached = type == kCached;
    TablePtr table;
    OpOutcome out = TimeCall([&] {
      Tracer::Scope span(tracer, "net", "net.roundtrip");
      auto r = client_->Query(view_, spec, cached ? "" : kOptimizer, 0, cached);
      if (r.ok()) table = r->table;
      return r.status();
    });
    if (!out.ok || tracer == nullptr) return out;
    // Traced probes, outside the round trip: the same query in-process.
    if (cached) {
      Tracer::Scope span(tracer, "workload", "workload.vecache.answer");
      auto r = db_->QueryCached(view_, spec);
      if (!r.ok()) return Fail(r.status());
      return out;
    }
    ProbeCodec(table, tracer, layers);
    {
      Tracer::Scope span(tracer, "server", "server.session_query");
      auto r = session_->Query(view_, spec, kOptimizer);
      if (!r.ok()) return Fail(r.status());
    }
    if (Status s = ProbeCore(spec, tracer, layers); !s.ok()) return Fail(s);
    return out;
  }

  std::map<std::string, double> Counters() const override {
    const MvccStats mv = db_->mvcc_stats();
    const auto ns = net_->stats();
    const auto ss = server_->stats();
    std::map<std::string, double> out = PlanCacheCounters(*db_);
    out.insert({
        {"core.full_rebuilds", static_cast<double>(mv.full_rebuilds)},
        {"storage.versions_retained",
         static_cast<double>(mv.versions_retained)},
        {"storage.live_measure_chunks",
         static_cast<double>(mv.live_measure_chunks)},
        {"net.protocol_errors", static_cast<double>(ns.protocol_errors)},
        {"net.reads_paused", static_cast<double>(ns.reads_paused)},
        {"server.refused", static_cast<double>(ss.rejected + ss.shed)},
        {"server.queue_depth_max", static_cast<double>(ss.max_queue_depth)},
    });
    return out;
  }

  std::map<std::string, double> SetupParts() const override {
    return {{"workload.vecache.build_ms", build_ms_}};
  }

 private:
  struct UpdateTarget {
    std::string table;
    std::vector<VarValue> row_vars;
    double base = 0;
  };

  static OpOutcome Fail(const Status& status) {
    OpOutcome out;
    out.error = status.ToString();
    return out;
  }

  OpOutcome RunUpdate(uint32_t param, Tracer* tracer, Accum* layers) {
    const UpdateTarget& t = targets_[param % kUpdateTargets];
    // Strictly positive values (no absorbing zeros), distinct per step.
    const double value =
        t.base * (1.0 + static_cast<double>(param / kUpdateTargets + 1) / 64);
    OpOutcome out = TimeCall([&] {
      Tracer::Scope span(tracer, "net", "net.update_roundtrip");
      return client_->Update(t.table, t.row_vars, value).status();
    });
    if (!out.ok || tracer == nullptr) return out;
    // In-process commit probe at a different value, so it is not a no-op.
    const MvccStats before = db_->mvcc_stats();
    {
      Tracer::Scope span(tracer, "core", "core.commit");
      Status s = db_->ApplyMeasureUpdate(t.table, t.row_vars, value * 0.75);
      if (!s.ok()) return Fail(s);
    }
    const MvccStats after = db_->mvcc_stats();
    if (after.commit_batches > before.commit_batches) {
      layers->Add("core.delta_refreshes_per_commit",
                  static_cast<double>(after.delta_refreshes -
                                      before.delta_refreshes) /
                      static_cast<double>(after.commit_batches -
                                          before.commit_batches));
    }
    return out;
  }

  // Result encode and decode cost, by the public codec the server uses.
  void ProbeCodec(const TablePtr& table, Tracer* tracer, Accum* layers) {
    server::net::ResultFrame frame;
    frame.table = table;
    std::vector<uint8_t> bytes;
    {
      Tracer::Scope span(tracer, "net", "net.encode");
      server::net::EncodeResult(frame, &bytes);
    }
    layers->Add("net.result_bytes", static_cast<double>(bytes.size()));
    server::net::FrameReader reader;
    server::net::Frame decoded;
    reader.Append(bytes.data(), bytes.size());
    Tracer::Scope span(tracer, "net", "net.decode");
    (void)reader.Next(&decoded);
  }

  // Database::Query, then its parts by public calls: snapshot pin, plan
  // cache lookup, execution of the cached physical plan. The remainder is
  // core.unaccounted_ms. Then the cold-plan work a miss would add.
  Status ProbeCore(const MpfQuerySpec& spec, Tracer* tracer, Accum* layers) {
    const auto q0 = Clock::now();
    {
      Tracer::Scope span(tracer, "core", "core.query");
      MPFDB_RETURN_IF_ERROR(db_->Query(view_, spec, kOptimizer).status());
    }
    const double query_s = SecondsBetween(q0, Clock::now());
    const auto p0 = Clock::now();
    Database::SnapshotPtr snap;
    {
      Tracer::Scope span(tracer, "core", "core.snapshot");
      snap = db_->snapshot();
    }
    std::shared_ptr<const server::CachedPlan> plan;
    {
      Tracer::Scope span(tracer, "server", "server.plan_cache_lookup");
      const std::string key =
          view_ + "|" + server::CanonicalQueryKey(spec) + "|o:" + kOptimizer +
          "|" + server::ExecFingerprint(exec::ExecOptions{}, 0);
      plan = db_->plan_cache().Lookup(key, snap->structural_epoch);
    }
    if (plan == nullptr) return Status::Ok();  // evicted meanwhile
    {
      Tracer::Scope span(tracer, "exec", "exec.execute");
      exec::Executor executor(snap->catalog, snap->views.at(view_).semiring,
                              exec::ExecOptions{});
      QueryContext ctx;
      ctx.set_thread_pool(db_->thread_pool());
      MPFDB_RETURN_IF_ERROR(
          executor.ExecutePhysical(*plan->physical, view_ + "_result", &ctx)
              .status());
    }
    const double parts_s = SecondsBetween(p0, Clock::now());
    layers->Add("core.unaccounted_ms", (query_s - parts_s) * 1e3);
    // What a plan-cache miss adds: a cold optimize and physical plan.
    const MpfViewDef& view = snap->views.at(view_);
    PlanPtr logical;
    {
      Tracer::Scope span(tracer, "opt", "opt.optimize");
      MPFDB_ASSIGN_OR_RETURN(std::unique_ptr<opt::Optimizer> optimizer,
                             MakeOptimizer(kOptimizer));
      MPFDB_ASSIGN_OR_RETURN(logical, optimizer->Optimize(view, spec,
                                                          snap->catalog,
                                                          db_->cost_model()));
    }
    Tracer::Scope span(tracer, "plan", "plan.physical");
    exec::Executor planner(snap->catalog, view.semiring, exec::ExecOptions{});
    return planner.PlanPhysical(*logical).status();
  }

  // The first `n` triples in Zipf-rank order (the hot ones): wire answers
  // are bit-identical to Session::Query at the same snapshot, and VE-cache
  // answers (wire and in-process) match the exact answers.
  Status CheckTriples(size_t n) {
    for (size_t i = 0; i < std::min(n, triples_.size()); ++i) {
      const MpfQuerySpec& spec = triples_[i];
      MPFDB_ASSIGN_OR_RETURN(NetClient::Result wire,
                             client_->Query(view_, spec, kOptimizer));
      MPFDB_ASSIGN_OR_RETURN(QueryResult local,
                             session_->Query(view_, spec, kOptimizer));
      if (!fr::TablesEqual(*wire.table, *local.table, 0.0)) {
        return Status::Internal("bn_served: wire answer differs from "
                                "Session::Query");
      }
      MPFDB_ASSIGN_OR_RETURN(NetClient::Result cached,
                             client_->Query(view_, spec, "", 0, true));
      MPFDB_ASSIGN_OR_RETURN(TablePtr in_process,
                             db_->QueryCached(view_, spec));
      if (!fr::TablesEqual(*cached.table, *local.table, 1e-9) ||
          !fr::TablesEqual(*in_process, *local.table, 1e-9)) {
        return Status::Internal("bn_served: VE-cache answer differs from the "
                                "exact answer");
      }
    }
    return Status::Ok();
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<MpfServer> server_;
  std::shared_ptr<Session> session_;
  std::unique_ptr<NetServer> net_;
  std::unique_ptr<NetClient> client_;
  std::string view_;
  double build_ms_ = 0;
  std::vector<MpfQuerySpec> triples_;
  std::vector<UpdateTarget> targets_;
};

}  // namespace

std::unique_ptr<Workload> MakeBnServed() {
  return std::make_unique<BnServed>();
}

}  // namespace perfbench
