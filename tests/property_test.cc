// Randomized property tests over generated schemas: every optimizer must
// agree with naive evaluation on random views; Belief Propagation and
// VE-cache must satisfy the Definition 5 invariant on random acyclic
// schemas; the Junction Tree construction must always yield the running
// intersection property. Parameterized over seeds so each seed is an
// independently reported test case. Every case re-seeds from MPFDB_TEST_SEED
// (see tests/random_view.h): the env var shifts all seeds for fresh CI
// sweeps, and each test prints its effective seed on failure.

#include <gtest/gtest.h>

#include "core/database.h"
#include "exec/executor.h"
#include "exec/thread_pool.h"
#include "fr/algebra.h"
#include "graph/junction_tree.h"
#include "random_view.h"
#include "util/query_context.h"
#include "util/rng.h"
#include "workload/bp.h"
#include "workload/vecache.h"

namespace mpfdb {
namespace {

class RandomSchemaTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomSchemaTest, AllOptimizersAgreeWithNaive) {
  const uint64_t seed = CaseSeed(GetParam());
  MPFDB_TRACE_SEED(seed);
  RandomView rv = MakeRandomView(seed, 6, 5, /*force_acyclic=*/false);
  SimpleCostModel cost_model;
  Rng rng(seed + 1000);

  // Three random queries per schema: random single query variable, random
  // optional selection on another variable.
  for (int q = 0; q < 3; ++q) {
    MpfQuerySpec query;
    query.group_vars = {Pick(rv.present_vars, rng)};
    if (rng.Bernoulli(0.5)) {
      std::string sel_var = Pick(rv.present_vars, rng);
      if (sel_var != query.group_vars[0]) {
        query.selections.push_back(QuerySelection{
            sel_var, static_cast<VarValue>(rng.UniformInt(
                         0, *rv.catalog.DomainSize(sel_var) - 1))});
      }
    }
    std::vector<fr::Selection> selections;
    for (const auto& s : query.selections) {
      selections.push_back({s.var, s.value});
    }
    auto expected = fr::EvaluateNaiveMpf(rv.tables, query.group_vars,
                                         selections, rv.view.semiring, "ref");
    ASSERT_TRUE(expected.ok()) << expected.status();

    for (const std::string spec :
         {"cs", "cs+", "cs+nonlinear", "ve(deg)", "ve(width)", "ve(elim_cost)",
          "ve(random)", "ve(min_fill)", "ve(deg) ext.", "ve(width) ext."}) {
      auto optimizer = MakeOptimizer(spec, seed);
      ASSERT_TRUE(optimizer.ok());
      auto plan =
          (*optimizer)->Optimize(rv.view, query, rv.catalog, cost_model);
      ASSERT_TRUE(plan.ok()) << spec << ": " << plan.status();
      exec::Executor executor(rv.catalog, rv.view.semiring);
      auto result = executor.Execute(**plan, "out");
      ASSERT_TRUE(result.ok()) << spec;
      EXPECT_TRUE(fr::TablesEqual(**expected, **result, 1e-7))
          << spec << " query " << q << "\n"
          << ExplainPlan(**plan);
    }
  }
}

// How the batch engine runs a plan is not a semantics choice: over random
// schemas, random optimizer plans, and the counting, probability, and
// max-product semirings, every configuration — packed keys or, over 2^40
// variable domains, vector keys; 1 or 4 threads; spill off or on;
// cost-chosen or forced-hash operators — must
// agree bit for bit. The row-at-a-time reference is fr::EvaluateNaiveMpf,
// the tuple-at-a-time algebra evaluator, matched exactly where the measures
// are integers (counting) and within 1e-9 otherwise.
TEST_P(RandomSchemaTest, VectorizedExecutionMatchesRowAtATime) {
  struct Variant {
    const char* label;
    Semiring semiring;
    bool unit_measures;  // counting semantics: every tuple weighs exactly 1
  };
  const Variant variants[] = {
      {"counting", Semiring::SumProduct(), true},
      {"probability", Semiring::SumProduct(), false},
      {"max_product", Semiring::MaxProduct(), false},
  };
  const uint64_t seed = CaseSeed(GetParam());
  MPFDB_TRACE_SEED(seed);
  SimpleCostModel cost_model;
  Rng rng(seed + 9000);
  for (const Variant& variant : variants) {
    RandomView rv =
        MakeRandomView(seed + 2000, 6, 5, /*force_acyclic=*/false);
    rv.view.semiring = variant.semiring;
    if (variant.unit_measures) {
      for (const TablePtr& t : rv.tables) {
        for (size_t r = 0; r < t->NumRows(); ++r) t->set_measure(r, 1.0);
      }
    }
    const Catalog wide_catalog = WideDomainCatalog(rv);
    MpfQuerySpec query;
    query.group_vars = {Pick(rv.present_vars, rng)};
    if (rng.Bernoulli(0.5)) {
      std::string sel_var = Pick(rv.present_vars, rng);
      if (sel_var != query.group_vars[0]) {
        query.selections.push_back(QuerySelection{
            sel_var, static_cast<VarValue>(rng.UniformInt(
                         0, *rv.catalog.DomainSize(sel_var) - 1))});
      }
    }
    std::vector<fr::Selection> selections;
    for (const auto& s : query.selections) {
      selections.push_back({s.var, s.value});
    }
    auto naive = fr::EvaluateNaiveMpf(rv.tables, query.group_vars, selections,
                                      rv.view.semiring, "naive");
    ASSERT_TRUE(naive.ok()) << naive.status();
    const double naive_tolerance = variant.unit_measures ? 0.0 : 1e-9;

    for (const std::string spec : {"cs+", "ve(width)", "ve(random)"}) {
      auto optimizer = MakeOptimizer(spec, seed);
      ASSERT_TRUE(optimizer.ok());
      auto plan =
          (*optimizer)->Optimize(rv.view, query, rv.catalog, cost_model);
      ASSERT_TRUE(plan.ok()) << spec << ": " << plan.status();

      TablePtr reference;
      for (bool forced : {false, true}) {
        for (bool wide : {false, true}) {
          exec::ExecOptions options;
          if (forced) {
            options.join = exec::JoinAlgorithm::kHash;
            options.agg = exec::AggAlgorithm::kHash;
          }
          exec::Executor executor(wide ? wide_catalog : rv.catalog,
                                  rv.view.semiring, options);
          for (size_t threads : {1u, 4u}) {
            exec::ThreadPool pool(threads);
            for (bool spill : {false, true}) {
              QueryContext ctx;
              ctx.set_thread_pool(&pool);
              if (spill) {
                ctx.set_memory_limit(2 * 1024);
                ctx.set_spill_enabled(true);
              }
              auto result = executor.Execute(**plan, "out", &ctx);
              const std::string where =
                  std::string(variant.label) + "/" + spec +
                  (forced ? "/hash" : "/auto") +
                  (wide ? "/wide" : "/packed") +
                  "/threads=" + std::to_string(threads) +
                  (spill ? "/spill" : "/mem");
              ASSERT_TRUE(result.ok()) << where << ": " << result.status();
              if (reference == nullptr) {
                reference = *result;
                EXPECT_TRUE(
                    fr::TablesEqual(**naive, *reference, naive_tolerance))
                    << where << "\n"
                    << ExplainPlan(**plan);
              } else {
                EXPECT_TRUE(
                    fr::TablesEqual(*reference, **result, /*tolerance=*/0.0))
                    << where << "\n"
                    << ExplainPlan(**plan);
              }
            }
          }
        }
      }
    }
  }
}

TEST_P(RandomSchemaTest, BpInvariantOnAcyclicSchemas) {
  const uint64_t seed = CaseSeed(GetParam());
  MPFDB_TRACE_SEED(seed);
  RandomView rv = MakeRandomView(seed, 6, 5, /*force_acyclic=*/true);
  auto updated = workload::BeliefPropagation(rv.tables, rv.view.semiring);
  ASSERT_TRUE(updated.ok()) << updated.status();
  for (const TablePtr& t : *updated) {
    for (const auto& var : t->schema().variables()) {
      auto truth = fr::EvaluateNaiveMpf(rv.tables, {var}, {},
                                        rv.view.semiring, "truth");
      ASSERT_TRUE(truth.ok());
      auto marginal =
          fr::Marginalize(*t, {var}, rv.view.semiring, "from_table");
      ASSERT_TRUE(marginal.ok());
      EXPECT_TRUE(fr::TablesEqual(**truth, **marginal, 1e-7))
          << t->name() << "/" << var;
    }
  }
}

TEST_P(RandomSchemaTest, JunctionTreeBpOnArbitrarySchemas) {
  const uint64_t seed = CaseSeed(GetParam());
  MPFDB_TRACE_SEED(seed);
  RandomView rv = MakeRandomView(seed, 5, 5, /*force_acyclic=*/false);
  auto result =
      workload::JunctionTreeBp(rv.tables, rv.view.semiring, rv.catalog);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(graph::SatisfiesRunningIntersection(result->junction_tree.tree));
  for (const TablePtr& t : result->clique_tables) {
    for (const auto& var : t->schema().variables()) {
      auto truth = fr::EvaluateNaiveMpf(rv.tables, {var}, {},
                                        rv.view.semiring, "truth");
      ASSERT_TRUE(truth.ok());
      auto marginal =
          fr::Marginalize(*t, {var}, rv.view.semiring, "from_table");
      ASSERT_TRUE(marginal.ok());
      EXPECT_TRUE(fr::TablesEqual(**truth, **marginal, 1e-7))
          << t->name() << "/" << var;
    }
  }
}

TEST_P(RandomSchemaTest, VeCacheInvariant) {
  const uint64_t seed = CaseSeed(GetParam());
  MPFDB_TRACE_SEED(seed);
  RandomView rv = MakeRandomView(seed, 6, 5, /*force_acyclic=*/false);
  auto cache = workload::VeCache::Build(rv.view, rv.catalog);
  ASSERT_TRUE(cache.ok()) << cache.status();
  for (const auto& var : rv.vars) {
    // Only variables that actually occur in the view can be queried.
    bool present = false;
    for (const TablePtr& t : rv.tables) {
      if (t->schema().HasVariable(var)) present = true;
    }
    if (!present) continue;
    auto truth =
        fr::EvaluateNaiveMpf(rv.tables, {var}, {}, rv.view.semiring, "truth");
    ASSERT_TRUE(truth.ok());
    auto answer = cache->Answer(MpfQuerySpec{{var}, {}});
    ASSERT_TRUE(answer.ok()) << answer.status();
    EXPECT_TRUE(fr::TablesEqual(**truth, **answer, 1e-7)) << var;
  }
  // A random variable pair, exercising the cross-clique combination (the
  // pair may even span var-disjoint components).
  Rng rng(seed + 5000);
  if (rv.present_vars.size() >= 2) {
    std::string a = Pick(rv.present_vars, rng);
    std::string b = Pick(rv.present_vars, rng);
    if (a != b) {
      auto truth = fr::EvaluateNaiveMpf(rv.tables, {a, b}, {},
                                        rv.view.semiring, "truth");
      ASSERT_TRUE(truth.ok());
      auto answer = cache->Answer(MpfQuerySpec{{a, b}, {}});
      ASSERT_TRUE(answer.ok()) << answer.status();
      EXPECT_TRUE(fr::TablesEqual(**truth, **answer, 1e-7)) << a << "," << b;
    }
  }
}

TEST_P(RandomSchemaTest, JunctionTreeAlwaysHasRip) {
  const uint64_t seed = CaseSeed(GetParam());
  MPFDB_TRACE_SEED(seed);
  Rng rng(seed);
  // Random hypergraph: 6 variables, 6 relations of scope 1-3.
  std::vector<std::vector<std::string>> relation_vars;
  for (int r = 0; r < 6; ++r) {
    std::set<std::string> scope;
    int size = static_cast<int>(rng.UniformInt(1, 3));
    for (int s = 0; s < size; ++s) {
      scope.insert("v" + std::to_string(rng.UniformInt(0, 5)));
    }
    relation_vars.emplace_back(scope.begin(), scope.end());
  }
  auto jt = graph::BuildJunctionTree(relation_vars);
  ASSERT_TRUE(jt.ok()) << jt.status();
  EXPECT_TRUE(graph::SatisfiesRunningIntersection(jt->tree));
  for (size_t r = 0; r < relation_vars.size(); ++r) {
    EXPECT_TRUE(varset::IsSubset(relation_vars[r],
                                 jt->tree.node_vars[jt->assignment[r]]));
  }
  // The triangulated graph is chordal.
  graph::VariableGraph g = graph::VariableGraph::FromSchema(relation_vars);
  auto chordal = g.Triangulate(jt->elimination_order);
  ASSERT_TRUE(chordal.ok());
  EXPECT_TRUE(chordal->IsChordal());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSchemaTest,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace mpfdb
