// Differential harness for intra-query morsel parallelism: the parallel
// engine must be an execution-mode choice with zero semantic surface. Over
// random schemas and random optimizer plans, every combination of
//
//   num_threads in {1, 2, 4, 8}
//     x drive mode in {row-at-a-time, batch, batch + packed keys, and
//       batch with kAuto physical planning (cost-chosen operators)}
//     x spill {off, on (tiny budget forcing Grace spills)}
//
// must reproduce the forced-hash serial golden answer bit for bit
// (tolerance 0.0) — including the auto mode, which is the physical
// planner's central bit-identity promise. The
// same MPFDB_TEST_SEED env knob as property_test shifts every seed, and each
// case prints its effective seed on failure.

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bn/bayes_net.h"
#include "core/database.h"
#include "exec/executor.h"
#include "exec/operator.h"
#include "exec/thread_pool.h"
#include "fr/algebra.h"
#include "random_view.h"
#include "util/query_context.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace mpfdb {
namespace {

namespace fs = std::filesystem;

// A fresh directory under the system temp dir, so spill-file leak checks
// are not confused by other tests (or other runs) spilling concurrently.
class ScopedSpillDir {
 public:
  explicit ScopedSpillDir(const std::string& tag) {
    dir_ = (fs::temp_directory_path() /
            ("mpfdb_parallel_" + tag + "_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + std::to_string(reinterpret_cast<uintptr_t>(this))))
               .string();
    fs::create_directories(dir_);
  }
  ~ScopedSpillDir() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  const std::string& path() const { return dir_; }

  size_t NumFiles() const {
    size_t n = 0;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      (void)entry;
      ++n;
    }
    return n;
  }

 private:
  std::string dir_;
};

struct DriveMode {
  const char* label;
  exec::ExecOptions options;
};

const DriveMode kDriveModes[] = {
    {"row",
     {.join = exec::JoinAlgorithm::kHash,
      .agg = exec::AggAlgorithm::kHash,
      .vectorized = false}},
    {"batch",
     {.join = exec::JoinAlgorithm::kHash,
      .agg = exec::AggAlgorithm::kHash,
      .vectorized = true,
      .packed_keys = false}},
    {"batch+packed",
     {.join = exec::JoinAlgorithm::kHash,
      .agg = exec::AggAlgorithm::kHash,
      .vectorized = true,
      .packed_keys = true}},
    // kAuto: the physical planner picks per-node algorithms (sort-merge
    // joins / sort marginalize where admissible and cheaper). Must still
    // match the forced-hash golden at tolerance 0.0.
    {"auto",
     {.join = exec::JoinAlgorithm::kAuto,
      .agg = exec::AggAlgorithm::kAuto,
      .vectorized = true,
      .packed_keys = true}},
    // hash_impl = kStd re-runs the three hash drive modes on the legacy
    // chaining tables: the Swiss-table golden and the std runs must agree
    // bit for bit across the whole (threads, spill) matrix.
    {"row/std",
     {.join = exec::JoinAlgorithm::kHash,
      .agg = exec::AggAlgorithm::kHash,
      .vectorized = false,
      .hash_impl = exec::HashImpl::kStd}},
    {"batch/std",
     {.join = exec::JoinAlgorithm::kHash,
      .agg = exec::AggAlgorithm::kHash,
      .vectorized = true,
      .packed_keys = false,
      .hash_impl = exec::HashImpl::kStd}},
    {"batch+packed/std",
     {.join = exec::JoinAlgorithm::kHash,
      .agg = exec::AggAlgorithm::kHash,
      .vectorized = true,
      .packed_keys = true,
      .hash_impl = exec::HashImpl::kStd}},
    // MPH costing off: the planner prices every index generically, which may
    // legally change access-path choices — never result bits.
    {"auto/nomph",
     {.join = exec::JoinAlgorithm::kAuto,
      .agg = exec::AggAlgorithm::kAuto,
      .vectorized = true,
      .packed_keys = true,
      .mph_indexes = false}},
};

class ParallelDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

// Random views x random plans x the full (threads, mode, spill) matrix,
// under both an FP-sensitive semiring (sum-product over random doubles,
// where any reassociation of Adds would show up at tolerance 0.0) and
// max-product (idempotent Add, exercising a different combine).
TEST_P(ParallelDifferentialTest, BitIdenticalAcrossThreadsModesAndSpill) {
  const uint64_t seed = CaseSeed(GetParam());
  MPFDB_TRACE_SEED(seed);
  SimpleCostModel cost_model;
  Rng rng(seed + 4000);

  for (const Semiring& semiring :
       {Semiring::SumProduct(), Semiring::MaxProduct()}) {
    RandomView rv = MakeRandomView(seed + 4000, 6, 5, /*force_acyclic=*/false);
    rv.view.semiring = semiring;

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

    for (const std::string spec : {"cs+", "ve(width)"}) {
      auto optimizer = MakeOptimizer(spec, seed);
      ASSERT_TRUE(optimizer.ok());
      auto plan =
          (*optimizer)->Optimize(rv.view, query, rv.catalog, cost_model);
      ASSERT_TRUE(plan.ok()) << spec << ": " << plan.status();

      // Serial golden: forced-hash, batch + packed keys, no context, no
      // pool. Forcing hash pins the baseline the auto drive mode must
      // reproduce bit for bit.
      exec::Executor golden_exec(
          rv.catalog, rv.view.semiring,
          exec::ExecOptions{.join = exec::JoinAlgorithm::kHash,
                            .agg = exec::AggAlgorithm::kHash,
                            .vectorized = true,
                            .packed_keys = true});
      auto golden = golden_exec.Execute(**plan, "golden");
      ASSERT_TRUE(golden.ok()) << spec << ": " << golden.status();

      for (size_t threads : {1u, 2u, 4u, 8u}) {
        exec::ThreadPool pool(threads);
        for (const DriveMode& mode : kDriveModes) {
          for (bool spill : {false, true}) {
            ScopedSpillDir spill_dir("diff");
            QueryContext ctx;
            ctx.set_thread_pool(&pool);
            if (spill) {
              // A budget this small forces the hash operators to degrade to
              // partitioned spills on every non-trivial plan.
              ctx.set_memory_limit(2 * 1024);
              ctx.set_spill_enabled(true);
              ctx.set_spill_dir(spill_dir.path());
            }
            exec::Executor executor(rv.catalog, rv.view.semiring,
                                    mode.options);
            auto result = executor.Execute(**plan, "out", &ctx);
            std::string where = std::string(semiring.name()) + "/" + spec +
                                "/threads=" + std::to_string(threads) + "/" +
                                mode.label + (spill ? "/spill" : "/mem");
            ASSERT_TRUE(result.ok()) << where << ": " << result.status();
            EXPECT_TRUE(fr::TablesEqual(**golden, **result, /*tolerance=*/0.0))
                << where;
            // All charges unwound, no spill files left behind.
            EXPECT_EQ(ctx.stats().bytes_in_use, 0u) << where;
            EXPECT_EQ(spill_dir.NumFiles(), 0u) << where;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelDifferentialTest,
                         ::testing::Range<uint64_t>(1, 9));

// Unit-measure random table with unique variable tuples: sum-product results
// are exact small integers, but the test still compares at tolerance 0.0.
TablePtr RandomUnitTable(const std::string& name,
                         std::vector<std::string> vars,
                         std::vector<int64_t> domains, size_t rows, Rng& rng) {
  auto t = std::make_shared<Table>(name, Schema(std::move(vars), "f"));
  std::set<std::vector<VarValue>> seen;
  while (t->NumRows() < rows) {
    std::vector<VarValue> row;
    for (int64_t d : domains) {
      row.push_back(static_cast<VarValue>(rng.UniformInt(0, d - 1)));
    }
    if (!seen.insert(row).second) continue;
    t->AppendRow(row, 1.0);
  }
  return t;
}

void SortCanonically(Table& table) {
  std::vector<size_t> all(table.schema().arity());
  std::iota(all.begin(), all.end(), 0);
  table.SortByVariables(all);
}

// Large join-join-marginalize chains driven at the operator level, where the
// inputs are big enough that the pipelines span several morsels, the join
// build (c alone is over one morsel) pre-drains in parallel, and the
// aggregation's thread-local pre-aggregation merges across partitions. A
// domain of rows/4 keeps the join fan-out near 4 per key.
TEST(ParallelChainTest, LargeChainBitIdenticalUnderThreadsAndSpill) {
  const uint64_t seed = CaseSeed(1);
  MPFDB_TRACE_SEED(seed);
  Rng rng(seed * 7919);
  const size_t rows = 20000;
  const int64_t dom = static_cast<int64_t>(rows / 4);
  TablePtr a = RandomUnitTable("a", {"x", "y"}, {dom, dom}, rows, rng);
  TablePtr b = RandomUnitTable("b", {"y", "z"}, {dom, dom}, rows, rng);
  TablePtr c = RandomUnitTable("c", {"z", "w"}, {dom, dom}, rows, rng);

  auto build = [&]() -> exec::OperatorPtr {
    auto ab = std::make_unique<exec::HashProductJoin>(
        std::make_unique<exec::SeqScan>(a), std::make_unique<exec::SeqScan>(b),
        Semiring::SumProduct());
    auto abc = std::make_unique<exec::HashProductJoin>(
        std::move(ab), std::make_unique<exec::SeqScan>(c),
        Semiring::SumProduct());
    return std::make_unique<exec::HashMarginalize>(
        std::move(abc), std::vector<std::string>{"x", "w"},
        Semiring::SumProduct());
  };

  auto golden_root = build();
  auto golden = exec::RunBatch(*golden_root, "golden");
  ASSERT_TRUE(golden.ok()) << golden.status();
  SortCanonically(**golden);

  for (size_t threads : {2u, 4u, 8u}) {
    exec::ThreadPool pool(threads);
    for (bool spill : {false, true}) {
      ScopedSpillDir spill_dir("chain");
      QueryContext ctx;
      ctx.set_thread_pool(&pool);
      if (spill) {
        ctx.set_memory_limit(64 * 1024);
        ctx.set_spill_enabled(true);
        ctx.set_spill_dir(spill_dir.path());
      }
      auto root = build();
      root->BindContext(&ctx);
      const uint64_t jobs_before = pool.dispatched_jobs();
      auto result = exec::RunBatch(*root, "out", &ctx);
      std::string where = "threads=" + std::to_string(threads) +
                          (spill ? "/spill" : "/mem");
      ASSERT_TRUE(result.ok()) << where << ": " << result.status();
      EXPECT_GT(pool.dispatched_jobs(), jobs_before) << where;
      SortCanonically(**result);
      EXPECT_TRUE(fr::TablesEqual(**golden, **result, /*tolerance=*/0.0))
          << where;
      EXPECT_EQ(ctx.stats().bytes_in_use, 0u) << where;
      EXPECT_EQ(spill_dir.NumFiles(), 0u) << where;
      if (spill) {
        EXPECT_GT(ctx.stats().spill_files, 0u) << where;
      }
    }
  }
}

// The stream order contract at the raw operator level: without any final
// sort, the concatenation of a parallel scan's morsel streams must replay
// the serial row stream exactly, in order.
TEST(ParallelChainTest, MorselStreamsConcatenateToSerialOrder) {
  const uint64_t seed = CaseSeed(2);
  MPFDB_TRACE_SEED(seed);
  Rng rng(seed);
  TablePtr t = RandomUnitTable("t", {"x", "y"}, {64, 64}, 3000, rng);

  auto drain = [](exec::PhysicalOperator& op,
                  std::vector<std::vector<VarValue>>* rows,
                  std::vector<double>* measures) {
    ASSERT_TRUE(op.Open().ok());
    exec::RowBatch batch;
    while (true) {
      auto more = op.NextBatch(&batch);
      ASSERT_TRUE(more.ok()) << more.status();
      if (!*more) break;
      const size_t arity = op.output_schema().arity();
      for (size_t r = 0; r < batch.num_rows(); ++r) {
        std::vector<VarValue> row(arity);
        for (size_t c = 0; c < arity; ++c) row[c] = batch.col(c)[r];
        rows->push_back(std::move(row));
        measures->push_back(batch.measures()[r]);
      }
    }
    op.Close();
  };

  exec::SeqScan serial(t);
  std::vector<std::vector<VarValue>> serial_rows, parallel_rows;
  std::vector<double> serial_measures, parallel_measures;
  drain(serial, &serial_rows, &serial_measures);

  exec::SeqScan parallel(t);
  ASSERT_TRUE(parallel.SupportsMorselStreams());
  auto streams = parallel.MakeMorselStreams(5);
  ASSERT_TRUE(streams.ok()) << streams.status();
  ASSERT_GT(streams->size(), 1u);
  for (auto& stream : *streams) {
    drain(*stream, &parallel_rows, &parallel_measures);
  }

  EXPECT_EQ(serial_rows, parallel_rows);
  EXPECT_EQ(serial_measures, parallel_measures);
}

// End-to-end through Database: the num_threads knob changes nothing about
// any answer, whichever way the pool is engaged.
TEST(DatabaseParallelTest, ThreadCountNeverChangesAnswers) {
  Database db;
  workload::SupplyChainParams params;
  params.scale = 0.004;
  params.seed = 7;
  auto schema = workload::GenerateSupplyChain(params, db.catalog());
  ASSERT_TRUE(schema.ok()) << schema.status();
  ASSERT_TRUE(db.CreateMpfView(schema->view).ok());

  const MpfQuerySpec queries[] = {
      MpfQuerySpec{{"cid"}, {}},
      MpfQuerySpec{{"wid"}, {}},
  };
  for (const MpfQuerySpec& query : queries) {
    TablePtr reference;
    for (size_t threads : {1u, 2u, 4u, 8u}) {
      exec::ExecOptions options;
      options.vectorized = true;
      options.packed_keys = true;
      options.num_threads = threads;
      db.set_exec_options(options);
      auto result = db.Query("invest", query);
      ASSERT_TRUE(result.ok()) << result.status();
      if (reference == nullptr) {
        reference = result->table;
      } else {
        EXPECT_TRUE(
            fr::TablesEqual(*reference, *result->table, /*tolerance=*/0.0))
            << "threads=" << threads;
      }
    }
  }
}

// A caller-provided QueryContext that already carries a pool wins over the
// Database-owned one, and governed parallel queries still account cleanly.
// The scale puts the query above one morsel, so the caller's pool really
// runs it.
TEST(DatabaseParallelTest, CallerContextPoolIsRespected) {
  Database db;
  workload::SupplyChainParams params;
  params.scale = 0.03;
  params.seed = 11;
  auto schema = workload::GenerateSupplyChain(params, db.catalog());
  ASSERT_TRUE(schema.ok()) << schema.status();
  ASSERT_TRUE(db.CreateMpfView(schema->view).ok());

  auto serial = db.Query("invest", MpfQuerySpec{{"cid"}, {}}, "cs+");
  ASSERT_TRUE(serial.ok()) << serial.status();

  exec::ThreadPool pool(4);
  QueryContext ctx;
  ctx.set_thread_pool(&pool);
  auto parallel = db.Query("invest", MpfQuerySpec{{"cid"}, {}}, "cs+", &ctx);
  ASSERT_TRUE(parallel.ok()) << parallel.status();
  EXPECT_GT(pool.dispatched_jobs(), 0u);
  EXPECT_TRUE(fr::TablesEqual(*serial->table, *parallel->table, 0.0));
  // The context still points at the caller's pool afterwards.
  EXPECT_EQ(ctx.thread_pool(), &pool);
  EXPECT_EQ(ctx.stats().bytes_in_use, 0u);
}

// Size-aware dispatch: a pipeline whose input volume is under one morsel
// runs inline on the calling thread, and only bigger ones go to the pool.
// Either way the answer is bit-identical to a serial run.

// The served BN workload's shape: ~30 hash joins over 3-27-row CPTs. Every
// pipeline is far under one morsel, so a 4-thread pool never sees a job.
TEST(ParallelDispatchTest, SmallBayesNetQueriesRunInline) {
  Database db;
  Rng rng(2);
  auto net = bn::RandomBayesNet(30, 2, 3, rng);
  ASSERT_TRUE(net.ok()) << net.status();
  auto view = net->ToMpfView(db.catalog());
  ASSERT_TRUE(view.ok()) << view.status();
  ASSERT_TRUE(db.CreateMpfView(*view).ok());

  exec::ExecOptions serial_options;
  serial_options.num_threads = 1;
  db.set_exec_options(serial_options);
  exec::ThreadPool pool(4);
  for (int target : {0, 7, 18, 29}) {
    for (int evidence : {3, 12, 25}) {
      const MpfQuerySpec query{{"x" + std::to_string(target)},
                               {{"x" + std::to_string(evidence), 1}}};
      const std::string where =
          query.group_vars[0] + "|" + query.selections[0].var;
      auto serial = db.Query(view->name, query, "ve(deg) ext.");
      ASSERT_TRUE(serial.ok()) << where << ": " << serial.status();
      QueryContext ctx;
      ctx.set_thread_pool(&pool);
      auto pooled = db.Query(view->name, query, "ve(deg) ext.", &ctx);
      ASSERT_TRUE(pooled.ok()) << where << ": " << pooled.status();
      EXPECT_TRUE(fr::TablesEqual(*serial->table, *pooled->table, 0.0))
          << where;
    }
  }
  EXPECT_EQ(pool.dispatched_jobs(), 0u);
}

// Fig. 7 Q1 on the supply chain at scale 0.3: the ctdeals build side alone
// spans several morsels, so the same pool does dispatch.
TEST(ParallelDispatchTest, SupplyChainQ1Dispatches) {
  Database db;
  workload::SupplyChainParams params;
  params.scale = 0.3;
  params.location_factor = 0.1;
  auto schema = workload::GenerateSupplyChain(params, db.catalog());
  ASSERT_TRUE(schema.ok()) << schema.status();
  ASSERT_TRUE(db.CreateMpfView(schema->view).ok());
  const MpfQuerySpec q1{{"cid"}, {}};

  exec::ExecOptions serial_options;
  serial_options.num_threads = 1;
  db.set_exec_options(serial_options);
  auto serial = db.Query(schema->view.name, q1);
  ASSERT_TRUE(serial.ok()) << serial.status();

  exec::ThreadPool pool(4);
  QueryContext ctx;
  ctx.set_thread_pool(&pool);
  auto pooled = db.Query(schema->view.name, q1, "cs+nonlinear", &ctx);
  ASSERT_TRUE(pooled.ok()) << pooled.status();
  EXPECT_GT(pool.dispatched_jobs(), 0u);
  EXPECT_TRUE(fr::TablesEqual(*serial->table, *pooled->table, 0.0));
  EXPECT_EQ(ctx.stats().bytes_in_use, 0u);
}

}  // namespace
}  // namespace mpfdb
