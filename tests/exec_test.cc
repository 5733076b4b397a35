// Operator-level tests of the batch execution engine, including edge cases
// (empty inputs, no shared variables, duplicate keys) and cross-checks
// between the three join algorithms and two aggregation algorithms.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <atomic>
#include <set>

#include <gtest/gtest.h>

#include "exec/executor.h"
#include "exec/operator.h"
#include "exec/thread_pool.h"
#include "fr/algebra.h"
#include "storage/index.h"
#include "util/query_context.h"
#include "util/rng.h"

namespace mpfdb::exec {
namespace {

TablePtr MakeTable(const std::string& name, std::vector<std::string> vars,
                   std::vector<std::pair<std::vector<VarValue>, double>> rows) {
  auto t = std::make_shared<Table>(name, Schema(std::move(vars), "f"));
  for (auto& [v, m] : rows) t->AppendRow(v, m);
  return t;
}

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
    t->AppendRow(row, rng.UniformDouble(0.5, 2.0));
  }
  return t;
}

TEST(SeqScanTest, StreamsAllRows) {
  TablePtr t = MakeTable("t", {"x"}, {{{0}, 1.0}, {{1}, 2.0}});
  SeqScan scan(t);
  ASSERT_TRUE(scan.Open().ok());
  RowBatch batch;
  ASSERT_TRUE(*scan.NextBatch(&batch));
  ASSERT_EQ(batch.num_rows(), 2u);
  EXPECT_EQ(batch.col(0)[0], 0);
  EXPECT_EQ(batch.col(0)[1], 1);
  EXPECT_EQ(batch.measures()[1], 2.0);
  EXPECT_FALSE(*scan.NextBatch(&batch));
  scan.Close();
  // Re-open rewinds.
  ASSERT_TRUE(scan.Open().ok());
  ASSERT_TRUE(*scan.NextBatch(&batch));
  EXPECT_EQ(batch.col(0)[0], 0);
}

TEST(FilterTest, PassesMatchingRows) {
  TablePtr t = MakeTable("t", {"x", "y"},
                         {{{0, 1}, 1.0}, {{1, 1}, 2.0}, {{1, 2}, 3.0}});
  Filter filter(std::make_unique<SeqScan>(t), "x", 1);
  auto result = ::mpfdb::exec::RunBatch(filter, "out");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->NumRows(), 2u);
}

TEST(FilterTest, UnknownVariableFailsAtOpen) {
  TablePtr t = MakeTable("t", {"x"}, {{{0}, 1.0}});
  Filter filter(std::make_unique<SeqScan>(t), "zz", 1);
  EXPECT_FALSE(filter.Open().ok());
}

TEST(MeasureFilterTest, FiltersOnMeasure) {
  TablePtr t = MakeTable("t", {"x"}, {{{0}, 1.0}, {{1}, 5.0}, {{2}, 3.0}});
  MeasureFilter filter(std::make_unique<SeqScan>(t),
                       HavingClause{CompareOp::kGe, 3.0});
  auto result = ::mpfdb::exec::RunBatch(filter, "out");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->NumRows(), 2u);
}

TEST(StreamProjectTest, DropsColumns) {
  TablePtr t = MakeTable("t", {"x", "y", "z"}, {{{1, 2, 3}, 4.0}});
  StreamProject project(std::make_unique<SeqScan>(t), {"z", "x"});
  auto result = ::mpfdb::exec::RunBatch(project, "out");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->schema().variables(),
            (std::vector<std::string>{"z", "x"}));
  EXPECT_EQ((*result)->Row(0).var(0), 3);
  EXPECT_EQ((*result)->Row(0).var(1), 1);
}

class JoinAlgorithmTest : public ::testing::TestWithParam<JoinAlgorithm> {
 protected:
  OperatorPtr MakeJoin(TablePtr left, TablePtr right) {
    switch (GetParam()) {
      case JoinAlgorithm::kSortMerge:
        return std::make_unique<SortMergeProductJoin>(
            std::make_unique<SeqScan>(left), std::make_unique<SeqScan>(right),
            Semiring::SumProduct());
      case JoinAlgorithm::kNestedLoop:
        return std::make_unique<NestedLoopProductJoin>(
            std::make_unique<SeqScan>(left), std::make_unique<SeqScan>(right),
            Semiring::SumProduct());
      case JoinAlgorithm::kAuto:
      case JoinAlgorithm::kHash:
      case JoinAlgorithm::kLeapfrog:  // n-ary only; not a binary algorithm
        break;
    }
    return std::make_unique<HashProductJoin>(std::make_unique<SeqScan>(left),
                                             std::make_unique<SeqScan>(right),
                                             Semiring::SumProduct());
  }

  // Canonically sorted result of joining left and right.
  TablePtr JoinTables(TablePtr left, TablePtr right) {
    OperatorPtr join = MakeJoin(std::move(left), std::move(right));
    auto result = ::mpfdb::exec::RunBatch(*join, "out");
    EXPECT_TRUE(result.ok()) << result.status();
    std::vector<size_t> all((*result)->schema().arity());
    std::iota(all.begin(), all.end(), 0);
    (*result)->SortByVariables(all);
    return *result;
  }
};

TEST_P(JoinAlgorithmTest, MatchesReferenceAlgebra) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 100);
  for (int trial = 0; trial < 5; ++trial) {
    TablePtr a = RandomTable("a", {"x", "y"}, {6, 4}, 15, rng);
    TablePtr b = RandomTable("b", {"y", "z"}, {4, 5}, 12, rng);
    auto expected = fr::ProductJoin(*a, *b, Semiring::SumProduct(), "ref");
    ASSERT_TRUE(expected.ok());
    TablePtr actual = JoinTables(a, b);
    EXPECT_TRUE(fr::TablesEqual(**expected, *actual, 1e-12)) << trial;
  }
}

TEST_P(JoinAlgorithmTest, EmptyInputs) {
  TablePtr a = MakeTable("a", {"x", "y"}, {});
  TablePtr b = MakeTable("b", {"y", "z"}, {{{0, 0}, 1.0}});
  EXPECT_EQ(JoinTables(a, b)->NumRows(), 0u);
  EXPECT_EQ(JoinTables(b, a)->NumRows(), 0u);
  EXPECT_EQ(JoinTables(a, a)->NumRows(), 0u);
}

TEST_P(JoinAlgorithmTest, CrossProductWhenNoSharedVars) {
  TablePtr a = MakeTable("a", {"x"}, {{{0}, 2.0}, {{1}, 3.0}});
  TablePtr b = MakeTable("b", {"y"}, {{{0}, 5.0}, {{1}, 7.0}, {{2}, 11.0}});
  TablePtr result = JoinTables(a, b);
  EXPECT_EQ(result->NumRows(), 6u);
}

TEST_P(JoinAlgorithmTest, DuplicateKeysProducePairwiseProduct) {
  // Two rows per key on each side -> 4 output rows per key; the join output
  // here is NOT a functional relation (y alone doesn't determine the rest),
  // which is why plans marginalize afterwards.
  TablePtr a = MakeTable("a", {"x", "y"},
                         {{{0, 0}, 2.0}, {{1, 0}, 3.0}, {{2, 1}, 5.0}});
  TablePtr b = MakeTable("b", {"y", "z"},
                         {{{0, 0}, 7.0}, {{0, 1}, 11.0}, {{1, 0}, 13.0}});
  TablePtr result = JoinTables(a, b);
  EXPECT_EQ(result->NumRows(), 5u);  // 2*2 for y=0, 1*1 for y=1
  double total = 0;
  for (size_t i = 0; i < result->NumRows(); ++i) total += result->measure(i);
  EXPECT_DOUBLE_EQ(total, (2.0 + 3.0) * (7.0 + 11.0) + 5.0 * 13.0);
}

TEST_P(JoinAlgorithmTest, MultiVariableSharedKeys) {
  Rng rng(7);
  TablePtr a = RandomTable("a", {"x", "y", "z"}, {3, 3, 3}, 12, rng);
  TablePtr b = RandomTable("b", {"y", "z", "w"}, {3, 3, 3}, 12, rng);
  auto expected = fr::ProductJoin(*a, *b, Semiring::SumProduct(), "ref");
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(fr::TablesEqual(**expected, *JoinTables(a, b), 1e-12));
}

INSTANTIATE_TEST_SUITE_P(AllJoins, JoinAlgorithmTest,
                         ::testing::Values(JoinAlgorithm::kHash,
                                           JoinAlgorithm::kSortMerge,
                                           JoinAlgorithm::kNestedLoop),
                         [](const auto& info) {
                           switch (info.param) {
                             case JoinAlgorithm::kAuto:
                               return "auto";
                             case JoinAlgorithm::kHash:
                               return "hash";
                             case JoinAlgorithm::kSortMerge:
                               return "sort_merge";
                             case JoinAlgorithm::kNestedLoop:
                               return "nested_loop";
                             case JoinAlgorithm::kLeapfrog:
                               return "leapfrog";
                           }
                           return "unknown";
                         });

class AggAlgorithmTest : public ::testing::TestWithParam<AggAlgorithm> {
 protected:
  OperatorPtr MakeAgg(TablePtr input, std::vector<std::string> group_vars,
                      Semiring semiring) {
    if (GetParam() == AggAlgorithm::kSort) {
      return std::make_unique<SortMarginalize>(
          std::make_unique<SeqScan>(input), std::move(group_vars), semiring);
    }
    return std::make_unique<HashMarginalize>(std::make_unique<SeqScan>(input),
                                             std::move(group_vars), semiring);
  }
};

TEST_P(AggAlgorithmTest, MatchesReferenceAlgebra) {
  Rng rng(11);
  for (int trial = 0; trial < 5; ++trial) {
    TablePtr t = RandomTable("t", {"x", "y", "z"}, {4, 3, 5}, 30, rng);
    for (const Semiring semiring :
         {Semiring::SumProduct(), Semiring::MinSum(), Semiring::MaxProduct()}) {
      auto expected = fr::Marginalize(*t, {"y"}, semiring, "ref");
      ASSERT_TRUE(expected.ok());
      OperatorPtr agg = MakeAgg(t, {"y"}, semiring);
      auto actual = ::mpfdb::exec::RunBatch(*agg, "out");
      ASSERT_TRUE(actual.ok());
      std::vector<size_t> all((*actual)->schema().arity());
      std::iota(all.begin(), all.end(), 0);
      (*actual)->SortByVariables(all);
      EXPECT_TRUE(fr::TablesEqual(**expected, **actual, 1e-12))
          << semiring.name();
    }
  }
}

TEST_P(AggAlgorithmTest, EmptyInput) {
  TablePtr t = MakeTable("t", {"x"}, {});
  OperatorPtr agg = MakeAgg(t, {"x"}, Semiring::SumProduct());
  auto result = ::mpfdb::exec::RunBatch(*agg, "out");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->NumRows(), 0u);
}

TEST_P(AggAlgorithmTest, GroupByNothingYieldsScalar) {
  TablePtr t = MakeTable("t", {"x"}, {{{0}, 1.5}, {{1}, 2.5}});
  OperatorPtr agg = MakeAgg(t, {}, Semiring::SumProduct());
  auto result = ::mpfdb::exec::RunBatch(*agg, "out");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ((*result)->NumRows(), 1u);
  EXPECT_DOUBLE_EQ((*result)->measure(0), 4.0);
}

TEST_P(AggAlgorithmTest, UnknownGroupVariableFailsAtOpen) {
  TablePtr t = MakeTable("t", {"x"}, {{{0}, 1.0}});
  OperatorPtr agg = MakeAgg(t, {"zz"}, Semiring::SumProduct());
  EXPECT_FALSE(agg->Open().ok());
}

INSTANTIATE_TEST_SUITE_P(AllAggs, AggAlgorithmTest,
                         ::testing::Values(AggAlgorithm::kHash,
                                           AggAlgorithm::kSort),
                         [](const auto& info) {
                           return info.param == AggAlgorithm::kHash ? "hash"
                                                                    : "sort";
                         });

// Test double that fails at a chosen point, for error-propagation coverage.
class FailingOperator : public PhysicalOperator {
 public:
  enum class FailAt { kOpen, kNextImmediately, kNextAfterOne };

  FailingOperator(TablePtr table, FailAt fail_at)
      : table_(std::move(table)), fail_at_(fail_at) {}

  Status Open() override {
    if (fail_at_ == FailAt::kOpen) {
      return Status::Internal("injected open failure");
    }
    emitted_ = 0;
    return Status::Ok();
  }
  // Emits one row per batch, so kNextAfterOne fails on the second pull
  // after a batch has already flowed downstream.
  StatusOr<bool> NextBatch(RowBatch* batch) override {
    if (fail_at_ == FailAt::kNextImmediately ||
        (fail_at_ == FailAt::kNextAfterOne && emitted_ >= 1)) {
      return Status::Internal("injected next failure");
    }
    batch->Prepare(table_->schema().arity());
    if (emitted_ >= table_->NumRows()) return false;
    RowView view = table_->Row(emitted_++);
    batch->AppendRow(view.vars, view.measure);
    return true;
  }
  void Close() override {}
  const Schema& output_schema() const override { return table_->schema(); }
  std::string name() const override { return "FailingOperator"; }

 private:
  TablePtr table_;
  FailAt fail_at_;
  size_t emitted_ = 0;
};

class FailureInjectionTest
    : public ::testing::TestWithParam<FailingOperator::FailAt> {
 protected:
  OperatorPtr Failing(TablePtr t) {
    return std::make_unique<FailingOperator>(std::move(t), GetParam());
  }
};

TEST_P(FailureInjectionTest, ErrorsPropagateThroughEveryOperator) {
  TablePtr t = MakeTable("t", {"x", "y"}, {{{0, 0}, 1.0}, {{1, 0}, 2.0}});
  TablePtr other = MakeTable("o", {"y", "z"}, {{{0, 0}, 1.0}, {{0, 1}, 2.0}});
  Semiring sr = Semiring::SumProduct();

  // Unary operators.
  {
    Filter op(Failing(t), "x", 0);
    EXPECT_FALSE(::mpfdb::exec::RunBatch(op, "out").ok());
  }
  {
    HashMarginalize op(Failing(t), {"x"}, sr);
    EXPECT_FALSE(::mpfdb::exec::RunBatch(op, "out").ok());
  }
  {
    SortMarginalize op(Failing(t), {"x"}, sr);
    EXPECT_FALSE(::mpfdb::exec::RunBatch(op, "out").ok());
  }
  {
    StreamProject op(Failing(t), {"x"});
    EXPECT_FALSE(::mpfdb::exec::RunBatch(op, "out").ok());
  }
  {
    MeasureFilter op(Failing(t), HavingClause{CompareOp::kGt, 0.0});
    EXPECT_FALSE(::mpfdb::exec::RunBatch(op, "out").ok());
  }

  // Joins, failing child on either side.
  {
    HashProductJoin op(Failing(t), std::make_unique<SeqScan>(other), sr);
    EXPECT_FALSE(::mpfdb::exec::RunBatch(op, "out").ok());
  }
  {
    HashProductJoin op(std::make_unique<SeqScan>(other), Failing(t), sr);
    EXPECT_FALSE(::mpfdb::exec::RunBatch(op, "out").ok());
  }
  {
    SortMergeProductJoin op(Failing(t), std::make_unique<SeqScan>(other), sr);
    EXPECT_FALSE(::mpfdb::exec::RunBatch(op, "out").ok());
  }
  {
    NestedLoopProductJoin op(std::make_unique<SeqScan>(other), Failing(t), sr);
    EXPECT_FALSE(::mpfdb::exec::RunBatch(op, "out").ok());
  }
}

INSTANTIATE_TEST_SUITE_P(
    FailPoints, FailureInjectionTest,
    ::testing::Values(FailingOperator::FailAt::kOpen,
                      FailingOperator::FailAt::kNextImmediately,
                      FailingOperator::FailAt::kNextAfterOne),
    [](const auto& info) {
      switch (info.param) {
        case FailingOperator::FailAt::kOpen:
          return "open";
        case FailingOperator::FailAt::kNextImmediately:
          return "first_next";
        case FailingOperator::FailAt::kNextAfterOne:
          return "second_next";
      }
      return "unknown";
    });

TEST(ExecutorTest, ComposedPipeline) {
  // Filter -> Join -> Marginalize pipeline built by hand.
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterVariable("x", 3).ok());
  ASSERT_TRUE(catalog.RegisterVariable("y", 3).ok());
  ASSERT_TRUE(catalog.RegisterVariable("z", 3).ok());
  auto a = MakeTable("a", {"x", "y"},
                     {{{0, 0}, 1.0}, {{0, 1}, 2.0}, {{1, 0}, 4.0}});
  auto b = MakeTable("b", {"y", "z"}, {{{0, 0}, 3.0}, {{1, 2}, 5.0}});
  ASSERT_TRUE(catalog.RegisterTable(a).ok());
  ASSERT_TRUE(catalog.RegisterTable(b).ok());

  SimpleCostModel cost_model;
  PlanBuilder builder(catalog, cost_model);
  auto scan_a = builder.Scan("a");
  auto scan_b = builder.Scan("b");
  ASSERT_TRUE(scan_a.ok() && scan_b.ok());
  auto filtered = builder.Select(*scan_a, "x", 0);
  ASSERT_TRUE(filtered.ok());
  auto joined = builder.Join(*filtered, *scan_b);
  ASSERT_TRUE(joined.ok());
  auto grouped = builder.GroupBy(*joined, {"z"});
  ASSERT_TRUE(grouped.ok());

  Executor executor(catalog, Semiring::SumProduct());
  auto result = executor.Execute(**grouped, "out");
  ASSERT_TRUE(result.ok());
  // x=0 rows: (0,0;1),(0,1;2); join: (0,0,0;3), (0,1,2;10); group by z.
  ASSERT_EQ((*result)->NumRows(), 2u);
  EXPECT_DOUBLE_EQ((*result)->measure(0), 3.0);
  EXPECT_DOUBLE_EQ((*result)->measure(1), 10.0);
}

// --- Packed key codec --------------------------------------------------------

TEST(PackedKeyCodecTest, RoundTripsAndPreservesLexOrder) {
  auto codec = PackedKeyCodec::Make({4, 8});
  ASSERT_TRUE(codec.has_value());
  EXPECT_EQ(codec->num_vars(), 2u);
  std::vector<uint64_t> keys;
  for (VarValue a = 0; a < 4; ++a) {
    for (VarValue b = 0; b < 8; ++b) {
      VarValue vals[] = {a, b};
      uint64_t key = 0;
      ASSERT_TRUE(codec->Encode(vals, &key));
      VarValue decoded[2];
      codec->Decode(key, decoded);
      EXPECT_EQ(decoded[0], a);
      EXPECT_EQ(decoded[1], b);
      keys.push_back(key);
    }
  }
  // The enumeration above is lexicographic, so the packed keys must be
  // strictly increasing — HashMarginalize sorts on the packed integer and
  // relies on that matching tuple order.
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_EQ(std::set<uint64_t>(keys.begin(), keys.end()).size(), keys.size());
}

TEST(PackedKeyCodecTest, RejectsKeysWiderThan64Bits) {
  // 33 + 32 = 65 bits: no packed representation.
  EXPECT_FALSE(
      PackedKeyCodec::Make({int64_t{1} << 33, int64_t{1} << 32}).has_value());
  // 32 + 31 = 63 bits still fits.
  EXPECT_TRUE(
      PackedKeyCodec::Make({int64_t{1} << 32, int64_t{1} << 31}).has_value());
  // Degenerate domains are rejected outright.
  EXPECT_FALSE(PackedKeyCodec::Make({0}).has_value());
  EXPECT_FALSE(PackedKeyCodec::Make({4, -1}).has_value());
}

TEST(PackedKeyCodecTest, DetectsOutOfDomainValues) {
  auto codec = PackedKeyCodec::Make({4, 4});  // 2 bits per component
  ASSERT_TRUE(codec.has_value());
  uint64_t key = 0;
  VarValue ok_vals[] = {3, 3};
  EXPECT_TRUE(codec->Encode(ok_vals, &key));
  VarValue bad_vals[] = {4, 0};
  EXPECT_FALSE(codec->Encode(bad_vals, &key));
  // The columnar variant flags the same violation.
  VarValue col0[] = {0, 4};
  VarValue col1[] = {0, 0};
  const VarValue* cols[] = {col0, col1};
  uint64_t keys[2];
  EXPECT_FALSE(codec->EncodeColumnar(cols, 2, keys));
}

TEST(PackedKeyCodecTest, ColumnarMatchesScalarEncode) {
  Rng rng(17);
  auto codec = PackedKeyCodec::Make({6, 10, 3});
  ASSERT_TRUE(codec.has_value());
  constexpr size_t kN = 257;
  std::vector<VarValue> c0(kN), c1(kN), c2(kN);
  for (size_t r = 0; r < kN; ++r) {
    c0[r] = static_cast<VarValue>(rng.UniformInt(0, 5));
    c1[r] = static_cast<VarValue>(rng.UniformInt(0, 9));
    c2[r] = static_cast<VarValue>(rng.UniformInt(0, 2));
  }
  const VarValue* cols[] = {c0.data(), c1.data(), c2.data()};
  std::vector<uint64_t> keys(kN);
  ASSERT_TRUE(codec->EncodeColumnar(cols, kN, keys.data()));
  for (size_t r = 0; r < kN; ++r) {
    VarValue vals[] = {c0[r], c1[r], c2[r]};
    uint64_t key = 0;
    ASSERT_TRUE(codec->Encode(vals, &key));
    EXPECT_EQ(keys[r], key);
  }
}

// --- Batch execution -------------------------------------------------------

class BatchExecutionTest : public ::testing::Test {
 protected:
  static TablePtr Canon(StatusOr<TablePtr> result) {
    EXPECT_TRUE(result.ok()) << result.status();
    std::vector<size_t> all((*result)->schema().arity());
    std::iota(all.begin(), all.end(), 0);
    (*result)->SortByVariables(all);
    return *result;
  }

  // Runs a fresh tree from `make_tree` ungoverned on the calling thread,
  // then on a 4-thread pool, then under a 2 KiB budget with spill, and
  // demands the same rows in the same order, bit for bit.
  template <typename MakeTree>
  static void ExpectParity(const MakeTree& make_tree) {
    OperatorPtr serial_tree = make_tree();
    auto serial = ::mpfdb::exec::RunBatch(*serial_tree, "out");
    ASSERT_TRUE(serial.ok()) << serial.status();

    ThreadPool pool(4);
    QueryContext parallel_ctx;
    parallel_ctx.set_thread_pool(&pool);
    OperatorPtr parallel_tree = make_tree();
    parallel_tree->BindContext(&parallel_ctx);
    auto parallel =
        ::mpfdb::exec::RunBatch(*parallel_tree, "out", &parallel_ctx);
    ASSERT_TRUE(parallel.ok()) << parallel.status();
    EXPECT_TRUE(fr::TablesEqual(**serial, **parallel, 0.0)) << "threads=4";

    QueryContext spill_ctx;
    spill_ctx.set_memory_limit(2 * 1024);
    spill_ctx.set_spill_enabled(true);
    OperatorPtr spill_tree = make_tree();
    spill_tree->BindContext(&spill_ctx);
    auto spilled = ::mpfdb::exec::RunBatch(*spill_tree, "out", &spill_ctx);
    ASSERT_TRUE(spilled.ok()) << spilled.status();
    EXPECT_TRUE(fr::TablesEqual(**serial, **spilled, 0.0)) << "spill";
    EXPECT_EQ(spill_ctx.stats().bytes_in_use, 0u);
  }
};

TEST_F(BatchExecutionTest, JoinAggPipelineBitIdentical) {
  // Inputs larger than one batch so the pipeline crosses batch boundaries;
  // run with packed keys (catalog), the vector-key fallback (no catalog),
  // and semirings whose Multiply is *, +, and max-compatible.
  Rng rng(31);
  TablePtr a = RandomTable("a", {"x", "y"}, {4096, 64}, 3000, rng);
  TablePtr b = RandomTable("b", {"y", "z"}, {64, 4096}, 3000, rng);
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterVariable("x", 4096).ok());
  ASSERT_TRUE(catalog.RegisterVariable("y", 64).ok());
  ASSERT_TRUE(catalog.RegisterVariable("z", 4096).ok());
  for (const Semiring semiring :
       {Semiring::SumProduct(), Semiring::MinSum(), Semiring::MaxProduct()}) {
    for (const Catalog* cat :
         {static_cast<const Catalog*>(&catalog), (const Catalog*)nullptr}) {
      ExpectParity([&]() -> OperatorPtr {
        auto join = std::make_unique<HashProductJoin>(
            std::make_unique<SeqScan>(a), std::make_unique<SeqScan>(b),
            semiring, cat);
        return std::make_unique<HashMarginalize>(
            std::move(join), std::vector<std::string>{"x", "y"}, semiring, cat);
      });
    }
  }
}

TEST_F(BatchExecutionTest, PackedAndVectorKeysAgree) {
  Rng rng(37);
  TablePtr a = RandomTable("a", {"x", "y"}, {512, 16}, 1500, rng);
  TablePtr b = RandomTable("b", {"y", "z"}, {16, 512}, 1500, rng);
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterVariable("x", 512).ok());
  ASSERT_TRUE(catalog.RegisterVariable("y", 16).ok());
  ASSERT_TRUE(catalog.RegisterVariable("z", 512).ok());
  Semiring sr = Semiring::SumProduct();
  auto make_tree = [&](const Catalog* cat) -> OperatorPtr {
    auto join = std::make_unique<HashProductJoin>(
        std::make_unique<SeqScan>(a), std::make_unique<SeqScan>(b), sr, cat);
    return std::make_unique<HashMarginalize>(
        std::move(join), std::vector<std::string>{"y"}, sr, cat);
  };
  OperatorPtr packed_tree = make_tree(&catalog);
  OperatorPtr vector_tree = make_tree(nullptr);
  TablePtr packed = Canon(::mpfdb::exec::RunBatch(*packed_tree, "out"));
  TablePtr vec = Canon(::mpfdb::exec::RunBatch(*vector_tree, "out"));
  EXPECT_TRUE(fr::TablesEqual(*packed, *vec, 0.0));
}

TEST_F(BatchExecutionTest, StreamingOperatorsBitIdentical) {
  Rng rng(32);
  TablePtr t = RandomTable("t", {"x", "y", "z"}, {64, 8, 64}, 2500, rng);
  ExpectParity([&]() -> OperatorPtr {
    auto filter =
        std::make_unique<Filter>(std::make_unique<SeqScan>(t), "y", 3);
    auto having = std::make_unique<MeasureFilter>(
        std::move(filter), HavingClause{CompareOp::kGt, 1.0});
    return std::make_unique<StreamProject>(std::move(having),
                                           std::vector<std::string>{"z", "x"});
  });
}

TEST_F(BatchExecutionTest, GroupByNothingBitIdentical) {
  // Exercises the zero-arity packed codec (every row keys to 0).
  Rng rng(34);
  TablePtr t = RandomTable("t", {"x"}, {4096}, 2000, rng);
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterVariable("x", 4096).ok());
  ExpectParity([&]() -> OperatorPtr {
    return std::make_unique<HashMarginalize>(std::make_unique<SeqScan>(t),
                                             std::vector<std::string>{},
                                             Semiring::SumProduct(), &catalog);
  });
}

TEST_F(BatchExecutionTest, IndexScanAndNestedLoopEmitNativeBatches) {
  // Inputs span several batches. IndexScan must emit exactly the rows a
  // filtered scan does, in table order; the nested-loop join must emit
  // exactly the hash join's rows, in its order (both are left-major with
  // the right side in arrival order).
  Rng rng(33);
  TablePtr t = RandomTable("t", {"x", "y"}, {4096, 4}, 6000, rng);
  TablePtr u = RandomTable("u", {"y", "z"}, {4, 8}, 24, rng);
  auto index = HashIndex::Build(*t, "y");
  ASSERT_TRUE(index.ok()) << index.status();
  IndexScan index_scan(t, index->get(), 2);
  Filter filter(std::make_unique<SeqScan>(t), "y", 2);
  auto by_index = ::mpfdb::exec::RunBatch(index_scan, "out");
  auto by_filter = ::mpfdb::exec::RunBatch(filter, "out");
  ASSERT_TRUE(by_index.ok() && by_filter.ok());
  EXPECT_GT((*by_index)->NumRows(), kBatchSize);
  EXPECT_TRUE(fr::TablesEqual(**by_filter, **by_index, 0.0));

  Semiring sr = Semiring::SumProduct();
  NestedLoopProductJoin nested(std::make_unique<SeqScan>(t),
                               std::make_unique<SeqScan>(u), sr);
  HashProductJoin hash(std::make_unique<SeqScan>(t),
                       std::make_unique<SeqScan>(u), sr);
  auto by_nested = ::mpfdb::exec::RunBatch(nested, "out");
  auto by_hash = ::mpfdb::exec::RunBatch(hash, "out");
  ASSERT_TRUE(by_nested.ok() && by_hash.ok());
  EXPECT_GT((*by_nested)->NumRows(), kBatchSize);
  EXPECT_TRUE(fr::TablesEqual(**by_hash, **by_nested, 0.0));
}

TEST_F(BatchExecutionTest, EmptyInputs) {
  TablePtr empty = MakeTable("e", {"x", "y"}, {});
  TablePtr other = MakeTable("o", {"y", "z"}, {{{0, 0}, 1.0}});
  Semiring sr = Semiring::SumProduct();
  {
    HashProductJoin join(std::make_unique<SeqScan>(empty),
                         std::make_unique<SeqScan>(other), sr);
    auto result = ::mpfdb::exec::RunBatch(join, "out");
    ASSERT_TRUE(result.ok());
    EXPECT_EQ((*result)->NumRows(), 0u);
  }
  {
    HashProductJoin join(std::make_unique<SeqScan>(other),
                         std::make_unique<SeqScan>(empty), sr);
    auto result = ::mpfdb::exec::RunBatch(join, "out");
    ASSERT_TRUE(result.ok());
    EXPECT_EQ((*result)->NumRows(), 0u);
  }
  {
    HashMarginalize agg(std::make_unique<SeqScan>(empty),
                        std::vector<std::string>{"x"}, sr);
    auto result = ::mpfdb::exec::RunBatch(agg, "out");
    ASSERT_TRUE(result.ok());
    EXPECT_EQ((*result)->NumRows(), 0u);
  }
}

TEST_F(BatchExecutionTest, ErrorsPropagateThroughRunBatch) {
  TablePtr t = MakeTable("t", {"x", "y"}, {{{0, 0}, 1.0}, {{1, 0}, 2.0}});
  TablePtr other = MakeTable("o", {"y", "z"}, {{{0, 0}, 1.0}});
  Semiring sr = Semiring::SumProduct();
  for (auto fail_at : {FailingOperator::FailAt::kOpen,
                       FailingOperator::FailAt::kNextImmediately,
                       FailingOperator::FailAt::kNextAfterOne}) {
    {
      HashMarginalize op(std::make_unique<FailingOperator>(t, fail_at), {"x"},
                         sr);
      EXPECT_FALSE(::mpfdb::exec::RunBatch(op, "out").ok());
    }
    {
      HashProductJoin op(std::make_unique<FailingOperator>(t, fail_at),
                         std::make_unique<SeqScan>(other), sr);
      EXPECT_FALSE(::mpfdb::exec::RunBatch(op, "out").ok());
    }
    {
      HashProductJoin op(std::make_unique<SeqScan>(other),
                         std::make_unique<FailingOperator>(t, fail_at), sr);
      EXPECT_FALSE(::mpfdb::exec::RunBatch(op, "out").ok());
    }
  }
}

TEST_F(BatchExecutionTest, OutOfDomainValueFailsUnderPackedKeys) {
  // The catalog declares dom(x) = 2 but the data contains x = 5: packed keys
  // must fail loudly rather than silently corrupt keys. Without a catalog
  // the operators ignore domain statistics and still succeed.
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterVariable("x", 2).ok());
  ASSERT_TRUE(catalog.RegisterVariable("y", 2).ok());
  TablePtr t = MakeTable("t", {"x", "y"}, {{{0, 0}, 1.0}, {{5, 1}, 2.0}});
  Semiring sr = Semiring::SumProduct();
  {
    HashMarginalize agg(std::make_unique<SeqScan>(t),
                        std::vector<std::string>{"x"}, sr, &catalog);
    auto result = ::mpfdb::exec::RunBatch(agg, "out");
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
  {
    TablePtr u = MakeTable("u", {"y"}, {{{5}, 1.0}});
    HashProductJoin join(std::make_unique<SeqScan>(u),
                         std::make_unique<SeqScan>(t), sr, &catalog);
    EXPECT_FALSE(::mpfdb::exec::RunBatch(join, "out").ok());
  }
  {
    HashMarginalize agg(std::make_unique<SeqScan>(t),
                        std::vector<std::string>{"x"}, sr);
    EXPECT_TRUE(::mpfdb::exec::RunBatch(agg, "out").ok());
  }
}

TEST(ExecutorTest, MissingTableFails) {
  Catalog catalog;
  SimpleCostModel cost_model;
  ASSERT_TRUE(catalog.RegisterVariable("x", 2).ok());
  auto t = MakeTable("t", {"x"}, {{{0}, 1.0}});
  ASSERT_TRUE(catalog.RegisterTable(t).ok());
  PlanBuilder builder(catalog, cost_model);
  auto scan = builder.Scan("t");
  ASSERT_TRUE(scan.ok());
  // Executing against a different catalog without the table fails.
  Catalog empty;
  Executor executor(empty, Semiring::SumProduct());
  EXPECT_FALSE(executor.Execute(**scan, "out").ok());
}

// --- ThreadPool ------------------------------------------------------------

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kTasks = 257;
  std::vector<std::atomic<int>> runs(kTasks);
  for (auto& r : runs) r.store(0);
  Status s = pool.ParallelFor(kTasks, [&](size_t i) {
    runs[i].fetch_add(1);
    return Status::Ok();
  });
  ASSERT_TRUE(s.ok()) << s;
  for (size_t i = 0; i < kTasks; ++i) EXPECT_EQ(runs[i].load(), 1) << i;
  // One posted job; a single task runs inline and posts nothing.
  EXPECT_EQ(pool.dispatched_jobs(), 1u);
  ASSERT_TRUE(pool.ParallelFor(1, [](size_t) { return Status::Ok(); }).ok());
  EXPECT_EQ(pool.dispatched_jobs(), 1u);
}

TEST(ThreadPoolTest, ReportsLowestIndexedFailure) {
  ThreadPool pool(4);
  for (int rep = 0; rep < 20; ++rep) {
    Status s = pool.ParallelFor(64, [&](size_t i) {
      if (i == 7 || i == 50) {
        return Status::Internal("task " + std::to_string(i));
      }
      return Status::Ok();
    });
    ASSERT_FALSE(s.ok());
    // Task 50 may have been abandoned after 7 failed, but whenever both ran,
    // the lowest index wins; 7 always runs before abandonment can skip it.
    EXPECT_EQ(s.message(), "task 7") << rep;
  }
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  Status s = pool.ParallelFor(8, [&](size_t) {
    return pool.ParallelFor(8, [&](size_t) {
      total.fetch_add(1);
      return Status::Ok();
    });
  });
  ASSERT_TRUE(s.ok()) << s;
  EXPECT_EQ(total.load(), 64);
  // Only the outer call reached the workers.
  EXPECT_EQ(pool.dispatched_jobs(), 1u);
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInlineAndSequentially) {
  ThreadPool pool(1);
  std::vector<size_t> order;
  Status s = pool.ParallelFor(16, [&](size_t i) {
    order.push_back(i);  // safe: everything runs on this thread
    return Status::Ok();
  });
  ASSERT_TRUE(s.ok()) << s;
  std::vector<size_t> expected(16);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
  EXPECT_EQ(pool.dispatched_jobs(), 0u);
}

}  // namespace
}  // namespace mpfdb::exec
