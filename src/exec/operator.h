#ifndef MPFDB_EXEC_OPERATOR_H_
#define MPFDB_EXEC_OPERATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "exec/batch.h"
#include "exec/hash_table.h"
#include "plan/plan.h"
#include "semiring/semiring.h"
#include "storage/catalog.h"
#include "storage/disk_table.h"
#include "storage/index.h"
#include "storage/schema.h"
#include "storage/table.h"
#include "util/query_context.h"
#include "util/status.h"

namespace mpfdb::exec {

// Volcano-style physical operator driven batch-at-a-time. Usage: Open(),
// then NextBatch() until it returns false, then Close(). Operators own their
// children, and every operator produces columnar batches natively.
class PhysicalOperator {
 public:
  virtual ~PhysicalOperator() = default;

  virtual Status Open() = 0;
  // Fills `batch` with 1..kBatchSize rows and returns true, or returns false
  // at end of stream. The batch is Prepare()d to output_schema().arity() by
  // the callee; callers just pass the same RowBatch on every pull so its
  // buffers are reused.
  virtual StatusOr<bool> NextBatch(RowBatch* batch) = 0;
  virtual void Close() = 0;

  // Binds the per-query resource context (memory budget, deadline,
  // cancellation, spill configuration). Must be called before Open;
  // operators with children override it to propagate the binding down the
  // tree. A null context — the default — disables all governance.
  virtual void BindContext(QueryContext* ctx) { ctx_ = ctx; }

  // --- Morsel-driven parallel protocol --------------------------------------
  // A parallel-capable operator can split its batch output into `n` disjoint
  // single-threaded streams: the streams' outputs, concatenated in stream
  // index order, reproduce exactly the rows AND row order of driving this
  // operator serially through NextBatch — that ordering contract is what
  // makes parallel results bit-identical to serial. Splitting may first
  // complete a blocking phase on the calling thread (a hash join builds its
  // table before vending probe streams). Streams share immutable state with
  // this operator, which must stay open — and must not be pulled — until
  // every stream is Closed and destroyed. Streams are returned unbound and
  // un-Opened; the driver calls BindContext and Open on each, normally from
  // its worker task. An empty vector means the split is unavailable right
  // now (e.g. the operator degraded to spill mode); callers fall back to
  // pulling this operator serially.
  virtual bool SupportsMorselStreams() const { return false; }
  virtual StatusOr<std::vector<std::unique_ptr<PhysicalOperator>>>
  MakeMorselStreams(size_t n) {
    (void)n;
    return std::vector<std::unique_ptr<PhysicalOperator>>{};
  }
  // Approximate input volume of this operator's stream: the source rows
  // feeding it, counting every input a join reads (build side included).
  // Used only to pick a morsel count, and so whether a pipeline is worth
  // sending to the pool at all (see MorselCount); 0 when unknown.
  virtual size_t MorselSourceRows() const { return 0; }

  virtual const Schema& output_schema() const = 0;
  virtual std::string name() const = 0;

  // Attaches this operator's runtime stats record (EXPLAIN ANALYZE). The
  // operator routes its MemoryGuard high-water marks and spill partition
  // counts into it; rows/batches/wall time are measured from outside by the
  // executor's instrumentation decorator. Must be set before Open; the
  // record must outlive the operator. Null (the default) disables the hook.
  void set_stats(OperatorStats* stats) { stats_ = stats; }

 protected:
  // How many locally processed rows PollContext accumulates before it
  // forwards to QueryContext::Poll. Amortizes the poll's atomic load across
  // per-row loops while keeping cancellation latency far below one batch
  // (each polling operator adds at most this many rows of slack).
  static constexpr size_t kPollStride = 64;

  // Cancellation/deadline check; called from operator loops with the number
  // of rows processed since the last check. Free when no context is bound.
  Status PollContext(size_t rows = 1) {
    if (ctx_ == nullptr) return Status::Ok();
    pending_poll_rows_ += rows;
    if (pending_poll_rows_ < kPollStride) return Status::Ok();
    size_t pending = pending_poll_rows_;
    pending_poll_rows_ = 0;
    return ctx_->Poll(pending);
  }

  QueryContext* ctx_ = nullptr;
  OperatorStats* stats_ = nullptr;

 private:
  size_t pending_poll_rows_ = 0;
};

using OperatorPtr = std::unique_ptr<PhysicalOperator>;

// Runs `op` to completion batch-at-a-time and materializes its output. When
// `ctx` is supplied the drive loop polls it as a backstop for operators that
// emit many rows per leaf pull, and the operator is Closed on error so
// partial state is torn down before the Status propagates.
StatusOr<TablePtr> RunBatch(PhysicalOperator& op,
                            const std::string& result_name,
                            QueryContext* ctx = nullptr);

// --- Leaf ------------------------------------------------------------------

// Full scan of an in-memory table.
class SeqScan : public PhysicalOperator {
 public:
  explicit SeqScan(TablePtr table) : table_(std::move(table)) {}

  Status Open() override;
  StatusOr<bool> NextBatch(RowBatch* batch) override;
  void Close() override;
  bool SupportsMorselStreams() const override { return true; }
  StatusOr<std::vector<OperatorPtr>> MakeMorselStreams(size_t n) override;
  size_t MorselSourceRows() const override { return table_->NumRows(); }
  const Schema& output_schema() const override { return table_->schema(); }
  std::string name() const override { return "SeqScan(" + table_->name() + ")"; }

 private:
  TablePtr table_;
  size_t next_row_ = 0;
};

// Streaming scan of a disk-resident table: rows are read page by page
// through the table's buffer pool, so a full pipeline can run without ever
// materializing the base relation in memory — the paper's disk-resident
// operand setting.
class DiskScan : public PhysicalOperator {
 public:
  // `table` must outlive the operator.
  explicit DiskScan(DiskTable* table)
      : table_(table), schema_(table->schema()) {}

  Status Open() override {
    next_row_ = 0;
    return Status::Ok();
  }
  StatusOr<bool> NextBatch(RowBatch* batch) override;
  void Close() override {}
  bool SupportsMorselStreams() const override { return true; }
  StatusOr<std::vector<OperatorPtr>> MakeMorselStreams(size_t n) override;
  size_t MorselSourceRows() const override {
    return static_cast<size_t>(table_->NumRows());
  }
  const Schema& output_schema() const override { return schema_; }
  std::string name() const override {
    return "DiskScan(" + table_->name() + ")";
  }

 private:
  DiskTable* table_;
  Schema schema_;
  uint64_t next_row_ = 0;
  // Row-major staging area for page-wise batch readout.
  std::vector<VarValue> scratch_vars_;
  std::vector<double> scratch_measures_;
};

// Equality scan served by a hash index: emits exactly the rows whose indexed
// variable equals `value`.
class IndexScan : public PhysicalOperator {
 public:
  // `index` must index `table` (same snapshot) and outlive this operator.
  IndexScan(TablePtr table, const HashIndex* index, VarValue value)
      : table_(std::move(table)), index_(index), value_(value) {}

  Status Open() override;
  StatusOr<bool> NextBatch(RowBatch* batch) override;
  void Close() override {}
  const Schema& output_schema() const override { return table_->schema(); }
  std::string name() const override {
    return "IndexScan(" + table_->name() + ")";
  }

 private:
  TablePtr table_;
  const HashIndex* index_;
  VarValue value_;
  const std::vector<size_t>* matches_ = nullptr;
  size_t cursor_ = 0;
};

// --- Unary -----------------------------------------------------------------

// Streaming equality filter var = value.
class Filter : public PhysicalOperator {
 public:
  Filter(OperatorPtr child, std::string var, VarValue value);

  Status Open() override;
  StatusOr<bool> NextBatch(RowBatch* batch) override;
  void Close() override;
  void BindContext(QueryContext* ctx) override {
    ctx_ = ctx;
    child_->BindContext(ctx);
  }
  bool SupportsMorselStreams() const override {
    return child_->SupportsMorselStreams();
  }
  StatusOr<std::vector<OperatorPtr>> MakeMorselStreams(size_t n) override;
  size_t MorselSourceRows() const override {
    return child_->MorselSourceRows();
  }
  const Schema& output_schema() const override {
    return child_->output_schema();
  }
  std::string name() const override {
    return "Filter(" + var_ + "=" + std::to_string(value_) + ")";
  }

 private:
  OperatorPtr child_;
  std::string var_;
  VarValue value_;
  size_t var_index_ = 0;
  std::vector<uint32_t> sel_;  // surviving row indices, reused per batch
};

// Streaming filter on the measure value (the HAVING clause of
// constrained-range MPF queries). Placed above the final marginalization.
class MeasureFilter : public PhysicalOperator {
 public:
  MeasureFilter(OperatorPtr child, HavingClause having)
      : child_(std::move(child)), having_(having) {}

  Status Open() override { return child_->Open(); }
  StatusOr<bool> NextBatch(RowBatch* batch) override;
  void Close() override { child_->Close(); }
  void BindContext(QueryContext* ctx) override {
    ctx_ = ctx;
    child_->BindContext(ctx);
  }
  bool SupportsMorselStreams() const override {
    return child_->SupportsMorselStreams();
  }
  StatusOr<std::vector<OperatorPtr>> MakeMorselStreams(size_t n) override;
  size_t MorselSourceRows() const override {
    return child_->MorselSourceRows();
  }
  const Schema& output_schema() const override {
    return child_->output_schema();
  }
  std::string name() const override { return "MeasureFilter"; }

 private:
  OperatorPtr child_;
  HavingClause having_;
  std::vector<uint32_t> sel_;
};

// Streaming column-dropping projection (no deduplication). Only legal when
// the retained variables functionally determine the dropped ones
// (Proposition 1); the optimizer is responsible for that precondition.
class StreamProject : public PhysicalOperator {
 public:
  StreamProject(OperatorPtr child, std::vector<std::string> keep_vars);

  Status Open() override;
  StatusOr<bool> NextBatch(RowBatch* batch) override;
  void Close() override;
  void BindContext(QueryContext* ctx) override {
    ctx_ = ctx;
    child_->BindContext(ctx);
  }
  bool SupportsMorselStreams() const override {
    return child_->SupportsMorselStreams();
  }
  StatusOr<std::vector<OperatorPtr>> MakeMorselStreams(size_t n) override;
  size_t MorselSourceRows() const override {
    return child_->MorselSourceRows();
  }
  const Schema& output_schema() const override { return schema_; }
  std::string name() const override { return "StreamProject"; }

 private:
  OperatorPtr child_;
  std::vector<std::string> keep_vars_;
  Schema schema_;
  std::vector<size_t> keep_indices_;
  RowBatch child_batch_;
};

// Blocking hash aggregation implementing the marginalizing GroupBy: groups on
// `group_vars`, combines measures with the semiring's Add.
//
// When a `catalog` is supplied and its domain statistics show the group
// variables pack into 64 bits, the fold hashes one uint64 per row instead of
// a std::vector<VarValue>; otherwise it falls back to vector keys. Every
// fold runs on the Swiss tables, and every drain sorts its groups before
// emitting, so the output order never depends on the table's layout.
class HashMarginalize : public PhysicalOperator {
 public:
  HashMarginalize(OperatorPtr child, std::vector<std::string> group_vars,
                  Semiring semiring, const Catalog* catalog = nullptr);

  Status Open() override;
  StatusOr<bool> NextBatch(RowBatch* batch) override;
  void Close() override;
  void BindContext(QueryContext* ctx) override {
    ctx_ = ctx;
    child_->BindContext(ctx);
  }
  // A marginalize always materializes its (small) result, so after the
  // blocking drain it can vend range streams over the sorted groups; the
  // drain itself runs in parallel when the child supports morsel streams.
  bool SupportsMorselStreams() const override { return true; }
  StatusOr<std::vector<OperatorPtr>> MakeMorselStreams(size_t n) override;
  size_t MorselSourceRows() const override {
    return drained_ ? out_measures_.size() : child_->MorselSourceRows();
  }
  const Schema& output_schema() const override { return schema_; }
  std::string name() const override { return "HashMarginalize"; }

 private:
  Status DrainBatches();
  // Morsel-parallel drain: partitions (key, measure) pairs by key hash so
  // every key is folded on exactly one partition in global input order.
  // Returns false when parallel execution is unavailable (no pool, child
  // cannot split); kResourceExhausted means the caller should fall back to
  // the serial drain, which handles the budget by spilling.
  StatusOr<bool> TryDrainBatchesParallel();

  OperatorPtr child_;
  std::vector<std::string> group_vars_;
  Semiring semiring_;
  const Catalog* catalog_;
  Schema schema_;
  std::vector<size_t> key_indices_;
  bool drained_ = false;
  // Accounting for the materialized groups (released on Close/re-Open); the
  // transient aggregation tables use drain-local guards.
  MemoryGuard memory_;
  // The result: row-major group keys plus parallel measures.
  std::vector<VarValue> out_vars_;
  std::vector<double> out_measures_;
  size_t next_group_ = 0;
};

// Sort-based marginalization: materializes and (stable-)sorts the child's
// output on the group key, then folds each run into one row per group. The
// stable sort keeps equal-key rows in arrival order, so per-group folds —
// and the sorted group emission — are bit-identical to HashMarginalize.
// `input_presorted` (set by the physical planner's interesting-order pass)
// promises the input already arrives sorted by `group_vars`: groups then
// arrive contiguously, so runs fold batch-by-batch as they stream past
// without materializing the input at all — the avoided re-sort also avoids
// the drain. Otherwise the input is drained into a row-major arena on the
// first pull (not in Open). Either way the per-group fold order is child
// arrival order, bit-identical to HashMarginalize.
class SortMarginalize : public PhysicalOperator {
 public:
  SortMarginalize(OperatorPtr child, std::vector<std::string> group_vars,
                  Semiring semiring, bool input_presorted = false);

  Status Open() override;
  StatusOr<bool> NextBatch(RowBatch* batch) override;
  void Close() override;
  void BindContext(QueryContext* ctx) override {
    ctx_ = ctx;
    child_->BindContext(ctx);
  }
  const Schema& output_schema() const override { return schema_; }
  std::string name() const override { return "SortMarginalize"; }

 private:
  Status DrainBatches();

  OperatorPtr child_;
  std::vector<std::string> group_vars_;
  Semiring semiring_;
  bool input_presorted_;
  Schema schema_;
  std::vector<size_t> key_indices_;
  bool drained_ = false;
  // Folded groups (row-major keys + parallel measures), emitted in slices
  // from next_group_.
  std::vector<VarValue> out_vars_;
  std::vector<double> out_measures_;
  size_t next_group_ = 0;
  // Streaming presorted mode: the in-flight child batch and the group
  // run currently being folded across batch boundaries.
  RowBatch in_batch_;
  size_t in_pos_ = 0;
  bool stream_done_ = false;
  std::vector<VarValue> cur_key_;
  double cur_acc_ = 0;
  bool have_group_ = false;
  MemoryGuard memory_;
};

// --- Binary ----------------------------------------------------------------

// Hash product join: builds a hash table over the right child on the shared
// variables, then streams the left child, producing one output row per match
// with measure Multiply(left.f, right.f). With no shared variables this
// degenerates to a cross product.
//
// The build side is materialized into a flat arena with packed 64-bit keys
// when `catalog` domain statistics allow (vector-key fallback otherwise), and
// its head maps are Swiss tables. The arena compaction order follows the
// table's layout, but each key's match run stays contiguous and
// insertion-ordered, so emission is independent of it.
//
// Over the memory budget (with spill enabled) both sides are partitioned to
// disk by key hash and joined one partition pair at a time. Every probe row
// carries its arrival ordinal into its partition, each partition's output is
// written to its own run with that ordinal, and the runs are merged on it:
// a spilled join emits exactly the in-memory row order, so the folds of an
// operator above it are bit-identical too.
class HashProductJoin : public PhysicalOperator {
 public:
  // `mph_indexes` lets the build replace its head hash map with a dense
  // perfect-index array when the packed-key universe is small — the catalog
  // fixes domains per epoch, so the array is collision-free by
  // construction. Pure lookup accelerator; results are bit-identical.
  HashProductJoin(OperatorPtr left, OperatorPtr right, Semiring semiring,
                  const Catalog* catalog = nullptr, bool mph_indexes = true);
  ~HashProductJoin() override;

  Status Open() override;
  StatusOr<bool> NextBatch(RowBatch* batch) override;
  void Close() override;
  void BindContext(QueryContext* ctx) override {
    ctx_ = ctx;
    left_->BindContext(ctx);
    right_->BindContext(ctx);
  }
  // Probe-side parallelism: once the build side is materialized (shared,
  // read-only), every morsel stream of the probe side is wrapped in its own
  // probe cursor over the shared table. Unavailable once the join degraded
  // to spill partitions.
  bool SupportsMorselStreams() const override {
    return left_->SupportsMorselStreams();
  }
  StatusOr<std::vector<OperatorPtr>> MakeMorselStreams(size_t n) override;
  // Probe rows plus build rows: a short probe into a large build side still
  // fans out into a lot of work.
  size_t MorselSourceRows() const override;
  const Schema& output_schema() const override { return schema_; }
  std::string name() const override { return "HashProductJoin"; }

 private:
  struct Impl;
  Status BuildBatches();
  Status LoadSpillPartition(size_t part);
  Status JoinSpillPartitions();
  StatusOr<bool> NextBatchSpill(RowBatch* out);

  OperatorPtr left_;
  OperatorPtr right_;
  Semiring semiring_;
  const Catalog* catalog_;
  bool mph_indexes_;
  Schema schema_;
  std::unique_ptr<Impl> impl_;
};

// Sort-merge product join: materializes and (stable-)sorts both inputs on
// the shared variables, then merges. Duplicate keys on both sides produce
// the full pairwise product, as the product join requires; within a run the
// emission is left-major with both sides in arrival order (stable sort), so
// restricted to any one shared-key value the output sequence matches hash
// join's exactly. `left/right_presorted` (interesting-order reuse) skip the
// corresponding sort. Inputs are drained into row-major arenas on the first
// pull.
class SortMergeProductJoin : public PhysicalOperator {
 public:
  SortMergeProductJoin(OperatorPtr left, OperatorPtr right, Semiring semiring,
                       bool left_presorted = false,
                       bool right_presorted = false);
  ~SortMergeProductJoin() override;

  Status Open() override;
  StatusOr<bool> NextBatch(RowBatch* batch) override;
  void Close() override;
  void BindContext(QueryContext* ctx) override {
    ctx_ = ctx;
    left_->BindContext(ctx);
    right_->BindContext(ctx);
  }
  const Schema& output_schema() const override { return schema_; }
  std::string name() const override { return "SortMergeProductJoin"; }

 private:
  struct Impl;
  Status DrainBatches();

  OperatorPtr left_;
  OperatorPtr right_;
  Semiring semiring_;
  bool left_presorted_;
  bool right_presorted_;
  Schema schema_;
  std::unique_ptr<Impl> impl_;
};

// Nested-loop product join; quadratic, present as the fallback comparison
// point for the operator ablation bench. Open drains both inputs batch-wise
// into flat row-major arenas, so it performs no per-tuple allocation.
class NestedLoopProductJoin : public PhysicalOperator {
 public:
  NestedLoopProductJoin(OperatorPtr left, OperatorPtr right, Semiring semiring);

  Status Open() override;
  StatusOr<bool> NextBatch(RowBatch* batch) override;
  void Close() override;
  void BindContext(QueryContext* ctx) override {
    ctx_ = ctx;
    left_->BindContext(ctx);
    right_->BindContext(ctx);
  }
  const Schema& output_schema() const override { return schema_; }
  std::string name() const override { return "NestedLoopProductJoin"; }

 private:
  OperatorPtr left_;
  OperatorPtr right_;
  Semiring semiring_;
  Schema schema_;
  MemoryGuard memory_;
  size_t left_arity_ = 0, right_arity_ = 0;
  std::vector<VarValue> left_vars_, right_vars_;  // row-major arenas
  std::vector<double> left_measures_, right_measures_;
  std::vector<size_t> shared_left_;
  std::vector<size_t> shared_right_;
  std::vector<size_t> out_from_left_;   // output col -> left col (or npos)
  std::vector<size_t> out_from_right_;  // output col -> right col (or npos)
  size_t i_ = 0, j_ = 0;
};

}  // namespace mpfdb::exec

#endif  // MPFDB_EXEC_OPERATOR_H_
