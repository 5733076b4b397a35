// Execution-level contract of the physical planning layer: whatever the
// planner chooses must be bit-identical (tolerance 0.0) to the forced-hash
// baseline — across random views and plans, FP-sensitive and idempotent
// semirings, thread counts, and spill. Plus the operator-level guarantees
// the planner relies on: the sort operators emit exactly what the hash
// operators emit for the same input, and a presorted-skip (stable sort of
// already sorted input is the identity) changes nothing. Seeds shift with
// MPFDB_TEST_SEED like every property test.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "exec/executor.h"
#include "exec/operator.h"
#include "exec/thread_pool.h"
#include "fr/algebra.h"
#include "random_view.h"
#include "util/query_context.h"
#include "util/rng.h"

namespace mpfdb {
namespace {

// Random functional relation with unique variable tuples and random
// measures (FP-sensitive under sum-product: any fold reordering shows up
// at tolerance 0.0).
TablePtr RandomTable(const std::string& name, std::vector<std::string> vars,
                     std::vector<int64_t> domains, size_t rows, Rng& rng) {
  auto t = std::make_shared<Table>(name, Schema(std::move(vars), "f"));
  std::set<std::vector<VarValue>> seen;
  while (t->NumRows() < rows) {
    std::vector<VarValue> row;
    for (int64_t d : domains) {
      row.push_back(static_cast<VarValue>(rng.UniformInt(0, d - 1)));
    }
    if (!seen.insert(row).second) continue;
    t->AppendRow(row, rng.UniformDouble(0.25, 2.0));
  }
  return t;
}

// Same, but rows appended in sorted order by the first `sort_keys` columns
// (stable on the remaining columns), so an operator claiming the input
// presorted by those variables is telling the truth.
TablePtr SortedRandomTable(const std::string& name,
                           std::vector<std::string> vars,
                           std::vector<int64_t> domains, size_t rows,
                           size_t sort_keys, Rng& rng) {
  TablePtr unsorted = RandomTable(name, vars, domains, rows, rng);
  std::vector<size_t> order(unsorted->NumRows());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    for (size_t k = 0; k < sort_keys; ++k) {
      VarValue va = unsorted->Row(a).var(k);
      VarValue vb = unsorted->Row(b).var(k);
      if (va != vb) return va < vb;
    }
    return false;
  });
  auto t = std::make_shared<Table>(name, unsorted->schema());
  for (size_t i : order) {
    t->AppendRowRaw(unsorted->Row(i).vars, unsorted->measure(i));
  }
  return t;
}

exec::ExecOptions ForcedHash() {
  return exec::ExecOptions{.join = exec::JoinAlgorithm::kHash,
                           .agg = exec::AggAlgorithm::kHash,
                           .packed_keys = true};
}

class PhysicalExecDifferentialTest : public ::testing::TestWithParam<uint64_t> {
};

// The planner's central promise, empirically: per-node cost-based choices
// (kAuto) reproduce the forced-hash golden bit for bit over random views x
// random optimizer plans x {sum-product, max-product} x threads x spill.
TEST_P(PhysicalExecDifferentialTest, AutoSelectionMatchesForcedHash) {
  const uint64_t seed = CaseSeed(GetParam());
  MPFDB_TRACE_SEED(seed);
  SimpleCostModel cost_model;
  Rng rng(seed + 9000);

  for (const Semiring& semiring :
       {Semiring::SumProduct(), Semiring::MaxProduct()}) {
    RandomView rv = MakeRandomView(seed + 9000, 6, 5, /*force_acyclic=*/false);
    rv.view.semiring = semiring;

    MpfQuerySpec query;
    query.group_vars = {Pick(rv.present_vars, rng)};
    if (rng.Bernoulli(0.4)) {
      std::string sel_var = Pick(rv.present_vars, rng);
      if (sel_var != query.group_vars[0]) {
        query.selections.push_back(QuerySelection{
            sel_var, static_cast<VarValue>(rng.UniformInt(
                         0, *rv.catalog.DomainSize(sel_var) - 1))});
      }
    }

    for (const std::string spec : {"cs+", "ve(width)"}) {
      auto optimizer = MakeOptimizer(spec, seed);
      ASSERT_TRUE(optimizer.ok());
      auto plan =
          (*optimizer)->Optimize(rv.view, query, rv.catalog, cost_model);
      ASSERT_TRUE(plan.ok()) << spec << ": " << plan.status();

      exec::Executor golden_exec(rv.catalog, rv.view.semiring, ForcedHash());
      auto golden = golden_exec.Execute(**plan, "golden");
      ASSERT_TRUE(golden.ok()) << spec << ": " << golden.status();

      exec::Executor auto_exec(rv.catalog, rv.view.semiring,
                               exec::ExecOptions{});  // kAuto everywhere
      for (size_t threads : {1u, 4u}) {
        exec::ThreadPool pool(threads);
        for (bool spill : {false, true}) {
          QueryContext ctx;
          ctx.set_thread_pool(&pool);
          if (spill) {
            ctx.set_memory_limit(2 * 1024);
            ctx.set_spill_enabled(true);
            ctx.set_spill_dir(::testing::TempDir());
          }
          auto result = auto_exec.Execute(**plan, "out", &ctx);
          std::string where = std::string(semiring.name()) + "/" + spec +
                              "/threads=" + std::to_string(threads) +
                              (spill ? "/spill" : "/mem");
          ASSERT_TRUE(result.ok()) << where << ": " << result.status();
          EXPECT_TRUE(fr::TablesEqual(**golden, **result, /*tolerance=*/0.0))
              << where;
          EXPECT_EQ(ctx.stats().bytes_in_use, 0u) << where;
        }
      }
    }
  }
}

// ISSUE acceptance for the FAQ planner: on acyclic views it must delegate
// to the shared binary planning path, and whatever it emits must reproduce
// the forced-hash golden bit for bit across semirings x threads x spill.
TEST_P(PhysicalExecDifferentialTest, FaqAcyclicMatchesForcedHash) {
  const uint64_t seed = CaseSeed(GetParam());
  MPFDB_TRACE_SEED(seed);
  SimpleCostModel cost_model;
  Rng rng(seed + 17000);

  for (const Semiring& semiring :
       {Semiring::SumProduct(), Semiring::MaxProduct()}) {
    RandomView rv = MakeRandomView(seed + 17000, 6, 5, /*force_acyclic=*/true);
    rv.view.semiring = semiring;

    MpfQuerySpec query;
    query.group_vars = {Pick(rv.present_vars, rng)};

    auto optimizer = MakeOptimizer("faq", seed);
    ASSERT_TRUE(optimizer.ok());
    auto plan = (*optimizer)->Optimize(rv.view, query, rv.catalog, cost_model);
    ASSERT_TRUE(plan.ok()) << plan.status();
    // Acyclic views never plan into the multiway node.
    EXPECT_EQ(PlanSignature(**plan).find("MultiwayJoin"), std::string::npos);

    exec::Executor golden_exec(rv.catalog, rv.view.semiring, ForcedHash());
    auto golden = golden_exec.Execute(**plan, "golden");
    ASSERT_TRUE(golden.ok()) << golden.status();

    exec::Executor auto_exec(rv.catalog, rv.view.semiring,
                             exec::ExecOptions{});
    for (size_t threads : {1u, 4u}) {
      exec::ThreadPool pool(threads);
      for (bool spill : {false, true}) {
        QueryContext ctx;
        ctx.set_thread_pool(&pool);
        if (spill) {
          ctx.set_memory_limit(2 * 1024);
          ctx.set_spill_enabled(true);
          ctx.set_spill_dir(::testing::TempDir());
        }
        auto result = auto_exec.Execute(**plan, "out", &ctx);
        std::string where = std::string(semiring.name()) +
                            "/threads=" + std::to_string(threads) +
                            (spill ? "/spill" : "/mem");
        ASSERT_TRUE(result.ok()) << where << ": " << result.status();
        EXPECT_TRUE(fr::TablesEqual(**golden, **result, /*tolerance=*/0.0))
            << where;
        EXPECT_EQ(ctx.stats().bytes_in_use, 0u) << where;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PhysicalExecDifferentialTest,
                         ::testing::Range<uint64_t>(1, 9));

// The random views above hold a few dozen rows, so they now run inline at
// every thread count. This sweep repeats their semiring x optimizer x
// threads x spill matrix on a chain whose input spans several morsels, so
// the 4-thread runs really go through the pool, and the spilled joins emit
// thousands of rows into a sum-product fold that shows any reordering. A
// domain of rows/4 keeps the join fan-out near 4 per key.
TEST(PhysicalExecTest, ThreadSweepAboveOneMorselMatchesForcedHash) {
  const uint64_t seed = CaseSeed(5);
  MPFDB_TRACE_SEED(seed);
  Rng rng(seed * 131);
  const size_t rows = 12000;
  const int64_t dom = static_cast<int64_t>(rows / 4);
  Catalog catalog;
  for (const char* v : {"x", "y", "z", "w"}) {
    ASSERT_TRUE(catalog.RegisterVariable(v, dom).ok());
  }
  ASSERT_TRUE(
      catalog.RegisterTable(RandomTable("a", {"x", "y"}, {dom, dom}, rows, rng))
          .ok());
  ASSERT_TRUE(
      catalog.RegisterTable(RandomTable("b", {"y", "z"}, {dom, dom}, rows, rng))
          .ok());
  ASSERT_TRUE(
      catalog.RegisterTable(RandomTable("c", {"z", "w"}, {dom, dom}, rows, rng))
          .ok());
  MpfViewDef view;
  view.name = "chain";
  view.relations = {"a", "b", "c"};
  const MpfQuerySpec query{{"x"}, {}};
  SimpleCostModel cost_model;

  for (const Semiring& semiring :
       {Semiring::SumProduct(), Semiring::MaxProduct()}) {
    view.semiring = semiring;
    for (const std::string spec : {"cs+", "ve(width)"}) {
      auto optimizer = MakeOptimizer(spec, seed);
      ASSERT_TRUE(optimizer.ok());
      auto plan = (*optimizer)->Optimize(view, query, catalog, cost_model);
      ASSERT_TRUE(plan.ok()) << spec << ": " << plan.status();

      exec::Executor golden_exec(catalog, semiring, ForcedHash());
      auto golden = golden_exec.Execute(**plan, "golden");
      ASSERT_TRUE(golden.ok()) << spec << ": " << golden.status();

      exec::Executor auto_exec(catalog, semiring, exec::ExecOptions{});
      for (size_t threads : {1u, 4u}) {
        exec::ThreadPool pool(threads);
        for (bool spill : {false, true}) {
          QueryContext ctx;
          ctx.set_thread_pool(&pool);
          if (spill) {
            ctx.set_memory_limit(2 * 1024);
            ctx.set_spill_enabled(true);
            ctx.set_spill_dir(::testing::TempDir());
          }
          const uint64_t jobs_before = pool.dispatched_jobs();
          auto result = auto_exec.Execute(**plan, "out", &ctx);
          std::string where = std::string(semiring.name()) + "/" + spec +
                              "/threads=" + std::to_string(threads) +
                              (spill ? "/spill" : "/mem");
          ASSERT_TRUE(result.ok()) << where << ": " << result.status();
          EXPECT_TRUE(fr::TablesEqual(**golden, **result, /*tolerance=*/0.0))
              << where;
          EXPECT_EQ(ctx.stats().bytes_in_use, 0u) << where;
          if (spill) {
            EXPECT_GT(ctx.stats().spill_files, 0u) << where;
          } else if (threads > 1) {
            EXPECT_GT(pool.dispatched_jobs(), jobs_before) << where;
          }
        }
      }
    }
  }
}

// Hand-annotated logical chain whose estimates steer the planner into a
// *mixed* physical plan — hash inner join, sort-merge top join, presorted
// sort-marginalize — executed against real (small) tables. The estimates
// deliberately diverge from the true cardinalities: physical choices may be
// arbitrarily misguided without ever changing a bit of the answer.
TEST(PhysicalExecTest, MixedPlanBitIdenticalToForcedHash) {
  const uint64_t seed = CaseSeed(42);
  MPFDB_TRACE_SEED(seed);
  Rng rng(seed);
  Catalog catalog;
  for (const char* v : {"x", "y", "z", "w"}) {
    ASSERT_TRUE(catalog.RegisterVariable(v, 30).ok());
  }
  ASSERT_TRUE(
      catalog.RegisterTable(RandomTable("a", {"x", "y"}, {30, 30}, 300, rng))
          .ok());
  ASSERT_TRUE(
      catalog.RegisterTable(RandomTable("b", {"y", "z"}, {30, 30}, 300, rng))
          .ok());
  ASSERT_TRUE(
      catalog.RegisterTable(RandomTable("c", {"z", "w"}, {30, 30}, 300, rng))
          .ok());

  auto scan = [](const std::string& t, std::vector<std::string> vars,
                 double card) {
    auto node = std::make_shared<PlanNode>();
    node->kind = PlanNodeKind::kScan;
    node->table_name = t;
    node->output_vars = std::move(vars);
    node->est_card = card;
    return node;
  };
  auto inner = std::make_shared<PlanNode>();
  inner->kind = PlanNodeKind::kJoin;
  inner->left = scan("a", {"x", "y"}, 10000);
  inner->right = scan("b", {"y", "z"}, 10000);
  inner->output_vars = {"x", "y", "z"};
  inner->est_card = 10000;
  auto top = std::make_shared<PlanNode>();
  top->kind = PlanNodeKind::kJoin;
  top->left = inner;
  top->right = scan("c", {"z", "w"}, 10000);
  top->output_vars = {"x", "y", "z", "w"};
  top->est_card = 1e6;
  auto root = std::make_shared<PlanNode>();
  root->kind = PlanNodeKind::kGroupBy;
  root->left = top;
  root->group_vars = {"z"};
  root->output_vars = {"z"};
  root->est_card = 100;

  const Semiring semiring = Semiring::SumProduct();
  exec::Executor auto_exec(catalog, semiring, exec::ExecOptions{});
  auto physical = auto_exec.PlanPhysical(*root);
  ASSERT_TRUE(physical.ok()) << physical.status();
  // The premise of the test: the chosen plan really does mix algorithms.
  ASSERT_EQ((*physical)->agg, AggAlgorithm::kSort);
  ASSERT_TRUE((*physical)->skip_sort_input);
  ASSERT_EQ((*physical)->left->join, JoinAlgorithm::kSortMerge);
  ASSERT_EQ((*physical)->left->left->join, JoinAlgorithm::kHash);

  exec::Executor hash_exec(catalog, semiring, ForcedHash());
  auto golden = hash_exec.Execute(*root, "golden");
  ASSERT_TRUE(golden.ok()) << golden.status();
  auto mixed = auto_exec.Execute(*root, "out");
  ASSERT_TRUE(mixed.ok()) << mixed.status();
  EXPECT_TRUE(fr::TablesEqual(**golden, **mixed, /*tolerance=*/0.0));
  EXPECT_GT((*mixed)->NumRows(), 0u);
}

// The sort operators against the hash operators on the same input. Every
// join output row's measure is one multiply, so the join outputs agree bit
// for bit once both are sorted canonically. Sort marginalize folds each
// group in arrival order and emits groups sorted, exactly like hash
// marginalize, so the marginalize outputs agree in emission order.
TEST(PhysicalExecTest, SortOperatorsMatchHashOperators) {
  const uint64_t seed = CaseSeed(7);
  MPFDB_TRACE_SEED(seed);
  Rng rng(seed * 31);
  TablePtr l = RandomTable("l", {"x", "y"}, {50, 20}, 700, rng);
  TablePtr r = RandomTable("r", {"y", "z"}, {20, 50}, 700, rng);

  {
    exec::SortMergeProductJoin merge_op(std::make_unique<exec::SeqScan>(l),
                                        std::make_unique<exec::SeqScan>(r),
                                        Semiring::SumProduct());
    exec::HashProductJoin hash_op(std::make_unique<exec::SeqScan>(l),
                                  std::make_unique<exec::SeqScan>(r),
                                  Semiring::SumProduct());
    auto merged = exec::RunBatch(merge_op, "merged");
    auto hashed = exec::RunBatch(hash_op, "hashed");
    ASSERT_TRUE(merged.ok()) << merged.status();
    ASSERT_TRUE(hashed.ok()) << hashed.status();
    (*hashed)->SortByVariables({0, 1, 2});
    (*merged)->SortByVariables({0, 1, 2});
    EXPECT_TRUE(fr::TablesEqual(**hashed, **merged, /*tolerance=*/0.0));
  }
  {
    exec::SortMarginalize sort_op(std::make_unique<exec::SeqScan>(l),
                                  std::vector<std::string>{"y"},
                                  Semiring::SumProduct());
    exec::HashMarginalize hash_op(std::make_unique<exec::SeqScan>(l),
                                  std::vector<std::string>{"y"},
                                  Semiring::SumProduct());
    auto sorted = exec::RunBatch(sort_op, "sorted");
    auto hashed = exec::RunBatch(hash_op, "hashed");
    ASSERT_TRUE(sorted.ok()) << sorted.status();
    ASSERT_TRUE(hashed.ok()) << hashed.status();
    EXPECT_TRUE(fr::TablesEqual(**hashed, **sorted, /*tolerance=*/0.0));
  }
}

// Interesting-order reuse at the operator level: on genuinely presorted
// input, skipping the sort (a stable sort of sorted input is the identity)
// is bit-identical to sorting again.
TEST(PhysicalExecTest, PresortedSkipIsBitIdentical) {
  const uint64_t seed = CaseSeed(11);
  MPFDB_TRACE_SEED(seed);
  Rng rng(seed * 127);
  // Left/right sorted by their first column = the shared variable "y".
  TablePtr l = SortedRandomTable("l", {"y", "x"}, {20, 50}, 800, 1, rng);
  TablePtr r = SortedRandomTable("r", {"y", "z"}, {20, 50}, 800, 1, rng);

  exec::SortMergeProductJoin sorting(std::make_unique<exec::SeqScan>(l),
                                     std::make_unique<exec::SeqScan>(r),
                                     Semiring::SumProduct());
  exec::SortMergeProductJoin skipping(std::make_unique<exec::SeqScan>(l),
                                      std::make_unique<exec::SeqScan>(r),
                                      Semiring::SumProduct(),
                                      /*left_presorted=*/true,
                                      /*right_presorted=*/true);
  auto a = exec::RunBatch(sorting, "a");
  auto b = exec::RunBatch(skipping, "b");
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_TRUE(fr::TablesEqual(**a, **b, /*tolerance=*/0.0));

  exec::SortMarginalize agg_sorting(std::make_unique<exec::SeqScan>(l),
                                    std::vector<std::string>{"y"},
                                    Semiring::SumProduct());
  exec::SortMarginalize agg_skipping(std::make_unique<exec::SeqScan>(l),
                                     std::vector<std::string>{"y"},
                                     Semiring::SumProduct(),
                                     /*input_presorted=*/true);
  auto c = exec::RunBatch(agg_sorting, "c");
  auto d = exec::RunBatch(agg_skipping, "d");
  ASSERT_TRUE(c.ok()) << c.status();
  ASSERT_TRUE(d.ok()) << d.status();
  EXPECT_TRUE(fr::TablesEqual(**c, **d, /*tolerance=*/0.0));
}

// The runtime stats spine: ExecuteAnalyze returns the same table as
// Execute, populates per-logical-node stats, and the rendered EXPLAIN
// ANALYZE carries actuals, q-error, and the per-operator counters.
TEST(PhysicalExecTest, ExecuteAnalyzePopulatesStatsSpine) {
  const uint64_t seed = CaseSeed(3);
  MPFDB_TRACE_SEED(seed);
  SimpleCostModel cost_model;
  RandomView rv = MakeRandomView(seed + 500, 5, 4, /*force_acyclic=*/false);
  MpfQuerySpec query;
  query.group_vars = {rv.present_vars.front()};
  auto optimizer = MakeOptimizer("cs+", seed);
  ASSERT_TRUE(optimizer.ok());
  auto plan = (*optimizer)->Optimize(rv.view, query, rv.catalog, cost_model);
  ASSERT_TRUE(plan.ok()) << plan.status();

  exec::Executor executor(rv.catalog, rv.view.semiring, exec::ExecOptions{});
  auto plain = executor.Execute(**plan, "out");
  ASSERT_TRUE(plain.ok()) << plain.status();
  auto analyzed = executor.ExecuteAnalyze(**plan, "out");
  ASSERT_TRUE(analyzed.ok()) << analyzed.status();
  EXPECT_TRUE(fr::TablesEqual(**plain, *analyzed->table, /*tolerance=*/0.0));

  ASSERT_NE(analyzed->physical, nullptr);
  ASSERT_FALSE(analyzed->stats.empty());
  // The root's recorded output is exactly the returned table.
  ASSERT_TRUE(analyzed->stats.count(plan->get()));
  const OperatorStats& root_stats = analyzed->stats.at(plan->get());
  EXPECT_EQ(root_stats.output_rows, analyzed->table->NumRows());
  EXPECT_GT(root_stats.batches, 0u);
  EXPECT_GT(root_stats.wall_nanos, 0u);
  // Streaming operators (e.g. a presorted sort-aggregate) materialize
  // nothing, so the root may legitimately report zero bytes; some node in
  // the plan must still have charged memory.
  size_t max_peak = 0;
  for (const auto& [node, stats] : analyzed->stats) {
    max_peak = std::max(max_peak, stats.peak_bytes);
  }
  EXPECT_GT(max_peak, 0u);

  const std::string rendered =
      exec::ExplainAnalyzePlan(*analyzed->physical, analyzed->stats);
  EXPECT_NE(rendered.find("actual="), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("q="), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("wall_us="), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("peak_bytes="), std::string::npos) << rendered;
}

// Governed analyzed run: under a tiny budget the (hash, per the memory
// rule) operators spill, and the spine reports the partition counts.
TEST(PhysicalExecTest, AnalyzeReportsSpillPartitionsUnderBudget) {
  const uint64_t seed = CaseSeed(4);
  MPFDB_TRACE_SEED(seed);
  SimpleCostModel cost_model;
  RandomView rv = MakeRandomView(seed + 800, 6, 5, /*force_acyclic=*/false);
  MpfQuerySpec query;
  query.group_vars = {rv.present_vars.front()};
  auto optimizer = MakeOptimizer("cs+", seed);
  ASSERT_TRUE(optimizer.ok());
  auto plan = (*optimizer)->Optimize(rv.view, query, rv.catalog, cost_model);
  ASSERT_TRUE(plan.ok()) << plan.status();

  exec::Executor executor(rv.catalog, rv.view.semiring, exec::ExecOptions{});
  QueryContext ctx;
  ctx.set_memory_limit(2 * 1024);
  ctx.set_spill_enabled(true);
  ctx.set_spill_dir(::testing::TempDir());
  auto analyzed = executor.ExecuteAnalyze(**plan, "out", &ctx);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status();
  // The finite budget forced every node onto hash operators...
  for (const PhysicalPlanNode* node = analyzed->physical.get();
       node != nullptr; node = node->left.get()) {
    if (node->kind == PlanNodeKind::kJoin) {
      EXPECT_EQ(node->join, JoinAlgorithm::kHash);
    }
    if (node->kind == PlanNodeKind::kGroupBy) {
      EXPECT_EQ(node->agg, AggAlgorithm::kHash);
    }
  }
  // ...and at least one of them had to spill, which the spine records.
  size_t total_parts = 0;
  for (const auto& [logical, stats] : analyzed->stats) {
    total_parts += stats.spill_partitions;
  }
  EXPECT_GT(total_parts, 0u);
  EXPECT_EQ(ctx.stats().bytes_in_use, 0u);
}

}  // namespace
}  // namespace mpfdb
