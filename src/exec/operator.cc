#include "exec/operator.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <deque>
#include <unordered_map>

#include "exec/spill.h"
#include "exec/thread_pool.h"

namespace mpfdb::exec {
namespace {

constexpr size_t kNpos = static_cast<size_t>(-1);
constexpr uint32_t kNoChain = 0xffffffffu;

// Deterministic per-entry footprint estimates for memory accounting. They
// do not chase malloc's exact behavior; what matters is that charges are
// repeatable, roughly proportional to real usage, and made BEFORE growth so
// the budget is a ceiling rather than a post-mortem.
constexpr size_t kHashEntryOverhead = 48;     // node + bucket, amortized
constexpr size_t kPackedAggEntryBytes = 24;   // open-addressing slot at load

size_t RowFootprint(size_t arity) {
  return arity * sizeof(VarValue) + sizeof(double);
}

size_t MaterializedRowFootprint(const Row& row) {
  return sizeof(Row) + row.vars.size() * sizeof(VarValue);
}

struct KeyHash {
  size_t operator()(const std::vector<VarValue>& key) const {
    uint64_t h = 1469598103934665603ull;
    for (VarValue v : key) {
      uint32_t u = static_cast<uint32_t>(v);
      for (int i = 0; i < 4; ++i) {
        h ^= (u >> (8 * i)) & 0xff;
        h *= 1099511628211ull;
      }
    }
    return static_cast<size_t>(h);
  }
};

// Runtime-dispatch wrappers selecting between the legacy tables and the
// Swiss tables per ExecOptions::hash_impl. One instance is constructed per
// operator open, so the `swiss_` test is a single predictable branch in
// front of a 10-30 cycle probe — cheap enough that the big drain loops stay
// un-templated. APIs mirror PackedHashMap.
template <typename V>
class PackedMap {
 public:
  explicit PackedMap(HashImpl impl = HashImpl::kSwiss, size_t expected = 64) {
    if (impl == HashImpl::kSwiss) {
      swiss_.emplace(expected);
    } else {
      probe_.emplace(expected);
    }
  }
  std::pair<V*, bool> FindOrInsert(uint64_t key, const V& init) {
    if (swiss_) return swiss_->FindOrInsert(key, init);
    return probe_->FindOrInsert(key, init);
  }
  V* Find(uint64_t key) {
    if (swiss_) return swiss_->Find(key);
    return probe_->Find(key);
  }
  size_t size() const { return swiss_ ? swiss_->size() : probe_->size(); }
  void Reserve(size_t expected) {
    if (swiss_) {
      swiss_->Reserve(expected);
    } else {
      probe_->Reserve(expected);
    }
  }
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (swiss_) {
      swiss_->ForEach(fn);
    } else {
      probe_->ForEach(fn);
    }
  }
  template <typename Fn>
  void ForEachMutable(Fn&& fn) {
    if (swiss_) {
      swiss_->ForEachMutable(fn);
    } else {
      probe_->ForEachMutable(fn);
    }
  }

 private:
  std::optional<SwissTable<V>> swiss_;
  std::optional<PackedHashMap<V>> probe_;
};

// Same dispatch for std::vector<VarValue> keys: the Swiss variant hashes and
// interns the raw key bytes (no per-row vector allocation, memcmp compare),
// the legacy variant keeps the node-based std::unordered_map. ForEach hands
// the key back as a vector either way; the Swiss path decodes into one
// scratch vector reused across entries.
template <typename V>
class VecKeyMap {
 public:
  explicit VecKeyMap(HashImpl impl = HashImpl::kSwiss, size_t expected = 16) {
    if (impl == HashImpl::kSwiss) {
      swiss_.emplace(expected);
    } else {
      std_.emplace();
    }
  }
  std::pair<V*, bool> FindOrInsert(const std::vector<VarValue>& key,
                                   const V& init) {
    if (swiss_) {
      return swiss_->FindOrInsert(key.data(), key.size() * sizeof(VarValue),
                                  init);
    }
    auto [it, inserted] = std_->try_emplace(key, init);
    return {&it->second, inserted};
  }
  V* Find(const std::vector<VarValue>& key) {
    if (swiss_) {
      return swiss_->Find(key.data(), key.size() * sizeof(VarValue));
    }
    auto it = std_->find(key);
    return it == std_->end() ? nullptr : &it->second;
  }
  size_t size() const { return swiss_ ? swiss_->size() : std_->size(); }
  void clear() {
    if (swiss_) {
      *swiss_ = SwissBytesTable<V>();
    } else {
      std_->clear();
    }
  }
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (swiss_) {
      std::vector<VarValue> key;
      swiss_->ForEach([&](const char* bytes, size_t len, const V& val) {
        key.resize(len / sizeof(VarValue));
        std::memcpy(key.data(), bytes, len);
        fn(key, val);
      });
    } else {
      for (const auto& [key, val] : *std_) fn(key, val);
    }
  }
  template <typename Fn>
  void ForEachMutable(Fn&& fn) {
    if (swiss_) {
      std::vector<VarValue> key;
      swiss_->ForEachMutable([&](const char* bytes, size_t len, V& val) {
        key.resize(len / sizeof(VarValue));
        std::memcpy(key.data(), bytes, len);
        fn(key, val);
      });
    } else {
      for (auto& [key, val] : *std_) fn(key, val);
    }
  }

 private:
  std::optional<SwissBytesTable<V>> swiss_;
  std::optional<std::unordered_map<std::vector<VarValue>, V, KeyHash>> std_;
};

std::vector<size_t> IndicesOf(const Schema& schema,
                              const std::vector<std::string>& names) {
  std::vector<size_t> indices;
  indices.reserve(names.size());
  for (const auto& name : names) indices.push_back(*schema.IndexOf(name));
  return indices;
}

// Computes the join output schema and per-side column mappings.
struct JoinLayout {
  Schema schema;
  std::vector<std::string> shared;
  std::vector<size_t> shared_left;
  std::vector<size_t> shared_right;
  std::vector<size_t> out_from_left;   // output col -> left col or kNpos
  std::vector<size_t> out_from_right;  // output col -> right col or kNpos
};

JoinLayout MakeJoinLayout(const Schema& left, const Schema& right) {
  JoinLayout layout;
  layout.shared = varset::Intersect(left.variables(), right.variables());
  std::vector<std::string> out_vars =
      varset::Union(left.variables(), right.variables());
  layout.schema = Schema(out_vars, left.measure_name());
  layout.shared_left = IndicesOf(left, layout.shared);
  layout.shared_right = IndicesOf(right, layout.shared);
  layout.out_from_left.resize(out_vars.size(), kNpos);
  layout.out_from_right.resize(out_vars.size(), kNpos);
  for (size_t c = 0; c < out_vars.size(); ++c) {
    if (auto idx = left.IndexOf(out_vars[c])) {
      layout.out_from_left[c] = *idx;
    } else {
      layout.out_from_right[c] = *right.IndexOf(out_vars[c]);
    }
  }
  return layout;
}

// Drains `child` into `out`, charging every materialized row against
// `memory` (a guard bound to a null context charges nothing). `who` names
// the draining operator for budget errors and error-context annotation.
Status DrainChild(PhysicalOperator& child, std::vector<Row>* out,
                  MemoryGuard* memory, const char* who) {
  Row row;
  while (true) {
    auto has = child.Next(&row);
    if (!has.ok()) return Annotate(has.status(), who);
    if (!*has) break;
    MPFDB_RETURN_IF_ERROR(memory->Charge(MaterializedRowFootprint(row), who));
    out->push_back(row);
  }
  return Status::Ok();
}

// Drains `child` into a flat row-major arena, avoiding the per-tuple vector
// allocation that materializing std::vector<Row> incurs.
Status DrainToArena(PhysicalOperator& child, std::vector<VarValue>* vars,
                    std::vector<double>* measures, MemoryGuard* memory,
                    const char* who) {
  Row row;
  while (true) {
    auto has = child.Next(&row);
    if (!has.ok()) return Annotate(has.status(), who);
    if (!*has) break;
    MPFDB_RETURN_IF_ERROR(memory->Charge(RowFootprint(row.vars.size()), who));
    vars->insert(vars->end(), row.vars.begin(), row.vars.end());
    measures->push_back(row.measure);
  }
  return Status::Ok();
}

// Drains `child` through NextBatch into a flat row-major arena — the
// vectorized counterpart of DrainToArena, used by the sort operators' native
// batch paths so a sort node doesn't force its subtree back to row-at-a-time
// pulls. Row order is the child's batch emission order, which equals its row
// emission order by the NextBatch contract.
Status DrainToArenaBatches(PhysicalOperator& child, std::vector<VarValue>* vars,
                           std::vector<double>* measures, MemoryGuard* memory,
                           const char* who) {
  const size_t arity = child.output_schema().arity();
  RowBatch batch;
  while (true) {
    auto has = child.NextBatch(&batch);
    if (!has.ok()) return Annotate(has.status(), who);
    if (!*has) break;
    const size_t n = batch.num_rows();
    MPFDB_RETURN_IF_ERROR(memory->Charge(n * RowFootprint(arity), who));
    const size_t base = measures->size();
    vars->resize((base + n) * arity);
    for (size_t c = 0; c < arity; ++c) {
      const VarValue* col = batch.col(c);
      VarValue* dst = vars->data() + base * arity + c;
      for (size_t r = 0; r < n; ++r) dst[r * arity] = col[r];
    }
    const double* m = batch.measures();
    measures->insert(measures->end(), m, m + n);
  }
  return Status::Ok();
}

// Spill partition for a key hash. The TOP bits are used so the choice stays
// independent of the low bits the per-partition hash tables mask on —
// otherwise every key in a partition would collide into 1/16th of the table.
size_t SpillPartOf(size_t hash) {
  static_assert((kSpillPartitions & (kSpillPartitions - 1)) == 0,
                "partition count must be a power of two");
  return (hash >> 60) & (kSpillPartitions - 1);
}

// Creates one spill run per partition, each holding records of `arity`
// VarValues plus a measure.
StatusOr<std::vector<std::unique_ptr<SpillFile>>> MakeSpillPartitions(
    QueryContext* ctx, size_t arity) {
  std::vector<std::unique_ptr<SpillFile>> parts(kSpillPartitions);
  for (auto& part : parts) {
    MPFDB_ASSIGN_OR_RETURN(part, SpillFile::Create(ctx->NextSpillPath(), arity));
  }
  return parts;
}

// Re-aggregates spilled (group key, measure) records partition by partition,
// appending the resulting groups to `entries` (unsorted). Within a key the
// records appear in the file in arrival order with the pre-spill partial
// aggregate first, so the semiring Adds replay in exactly the order the
// in-memory table would have applied them — results stay bit-identical.
Status DrainAggSpill(std::vector<std::unique_ptr<SpillFile>>& parts,
                     const Semiring& semiring, size_t nkeys, QueryContext* ctx,
                     HashImpl hash_impl,
                     std::vector<std::pair<std::vector<VarValue>, double>>* entries) {
  std::vector<VarValue> key(nkeys);
  double measure = 0;
  for (auto& part : parts) {
    ctx->RecordSpill(part->num_rows(), part->bytes_written());
    MPFDB_RETURN_IF_ERROR(part->Rewind());
    // Each partition's table holds ~1/kSpillPartitions of the groups; its
    // transient footprint is tracked but not failed (a single partition is
    // the smallest unit this strategy can degrade to).
    MemoryGuard part_memory(ctx);
    VecKeyMap<double> table(hash_impl);
    while (true) {
      MPFDB_ASSIGN_OR_RETURN(bool has, part->Next(key.data(), &measure));
      if (!has) break;
      MPFDB_RETURN_IF_ERROR(ctx->Poll(1));
      auto [slot, inserted] = table.FindOrInsert(key, measure);
      if (inserted) {
        part_memory.ChargeUnchecked(kHashEntryOverhead + RowFootprint(nkeys));
      } else {
        *slot = semiring.Add(*slot, measure);
      }
    }
    table.ForEach([&](const std::vector<VarValue>& k, const double& m) {
      entries->emplace_back(k, m);
    });
    part.reset();  // unlink the run as soon as it is drained
  }
  return Status::Ok();
}

// Builds a packed-key codec for `vars` from the catalog's domain statistics,
// or nullopt when there is no catalog, a variable is unregistered, or the
// key does not fit in 64 bits.
std::optional<PackedKeyCodec> MakeCodecFor(
    const Catalog* catalog, const std::vector<std::string>& vars) {
  if (catalog == nullptr) return std::nullopt;
  std::vector<int64_t> domains;
  domains.reserve(vars.size());
  for (const auto& var : vars) {
    auto domain = catalog->DomainSize(var);
    if (!domain.ok()) return std::nullopt;
    domains.push_back(*domain);
  }
  return PackedKeyCodec::Make(domains);
}

Status PackedDomainViolation(const char* op) {
  return Status::InvalidArgument(
      std::string(op) +
      ": key value outside its variable's declared catalog domain; cannot "
      "pack the key");
}

// The shape of the semiring's Multiply, resolved once per pipeline so the
// batch emit loops can inline the arithmetic. The fast paths perform exactly
// the IEEE operation Semiring::Multiply performs, so results stay
// bit-identical to the row-at-a-time engine.
enum class MulOp { kTimes, kPlus, kGeneric };

MulOp MulOpFor(const Semiring& semiring) {
  switch (semiring.kind()) {
    case SemiringKind::kSumProduct:
    case SemiringKind::kMaxProduct:
      return MulOp::kTimes;
    case SemiringKind::kMinSum:
    case SemiringKind::kMaxSum:
    case SemiringKind::kLogSumProduct:
      return MulOp::kPlus;
    default:
      return MulOp::kGeneric;
  }
}

// Compacts `batch` in place to the rows listed in `sel` (ascending).
void CompactBatch(RowBatch* batch, const std::vector<uint32_t>& sel) {
  for (size_t c = 0; c < batch->arity(); ++c) {
    VarValue* col = batch->col(c);
    for (size_t i = 0; i < sel.size(); ++i) col[i] = col[sel[i]];
  }
  double* measures = batch->measures();
  for (size_t i = 0; i < sel.size(); ++i) measures[i] = measures[sel[i]];
  batch->set_num_rows(sel.size());
}

// --- Morsel parallelism helpers --------------------------------------------

// The pool driving a parallel batch pipeline, or null when execution stays
// on the calling thread.
ThreadPool* PoolOf(QueryContext* ctx) {
  if (ctx == nullptr) return nullptr;
  ThreadPool* pool = ctx->thread_pool();
  return (pool != nullptr && pool->num_threads() > 1) ? pool : nullptr;
}

// Morsels per pipeline, from its input volume (the operator's
// MorselSourceRows). A volume of at most one morsel (~16K rows) comes to 1,
// and every dispatch site then runs inline: a pool round trip costs more
// than that much work saves. Above it, aim for ~16K rows each so claims
// amortize the per-stream setup, but never fewer than one per worker
// (otherwise cores sit idle) and never more than 8 per worker (clone state
// is not free). The count only shapes scheduling; results are identical for
// every choice.
size_t MorselCount(size_t source_rows, size_t num_threads) {
  constexpr size_t kMorselRows = 16 * 1024;
  if (source_rows <= kMorselRows) return 1;
  const size_t by_rows = (source_rows + kMorselRows - 1) / kMorselRows;
  return std::clamp(by_rows, num_threads, 8 * num_threads);
}

// Splits [0, total) into exactly `n` contiguous ranges in order (some may be
// empty). Deterministic: stream i always covers the same rows, so outputs
// concatenated by stream index reproduce the serial row order.
std::vector<std::pair<size_t, size_t>> SplitRanges(size_t total, size_t n) {
  std::vector<std::pair<size_t, size_t>> ranges;
  ranges.reserve(n);
  const size_t chunk = total / n;
  const size_t extra = total % n;
  size_t begin = 0;
  for (size_t i = 0; i < n; ++i) {
    const size_t len = chunk + (i < extra ? 1 : 0);
    ranges.emplace_back(begin, begin + len);
    begin += len;
  }
  return ranges;
}

// Key-hash partitions for parallel aggregation. Uses bits 56..59 so the
// choice is independent of both the low bits PackedHashMap masks on and the
// top-4 bits SpillPartOf uses — a spill triggered mid-parallel run must not
// see all of a partition's keys collide into one spill file.
constexpr size_t kAggPartitions = 16;
size_t AggPartOf(size_t hash) {
  static_assert((kAggPartitions & (kAggPartitions - 1)) == 0,
                "partition count must be a power of two");
  return (hash >> 56) & (kAggPartitions - 1);
}

// Dispatches `body` with a monomorphized Add for each built-in semiring so
// hot accumulate loops inline the arithmetic. Every fast path performs
// exactly the IEEE operation Semiring::Add performs; serial and parallel
// folds both go through here, so their per-key arithmetic is identical.
template <class Body>
void DispatchAdd(const Semiring& semiring, Body&& body) {
  switch (semiring.kind()) {
    case SemiringKind::kSumProduct:
      body([](double a, double b) { return a + b; });
      break;
    case SemiringKind::kMinSum:
      body([](double a, double b) { return std::min(a, b); });
      break;
    case SemiringKind::kMaxSum:
    case SemiringKind::kMaxProduct:
      body([](double a, double b) { return std::max(a, b); });
      break;
    default:
      body([&semiring](double a, double b) { return semiring.Add(a, b); });
      break;
  }
}

// Range-restricted scan over an in-memory table: one morsel of a SeqScan.
class SeqScanRangeStream : public PhysicalOperator {
 public:
  SeqScanRangeStream(TablePtr table, size_t begin, size_t end)
      : table_(std::move(table)), begin_(begin), end_(end) {}

  Status Open() override {
    next_row_ = begin_;
    return Status::Ok();
  }
  StatusOr<bool> Next(Row*) override {
    return Status::Internal("morsel streams are batch-only");
  }
  StatusOr<bool> NextBatch(RowBatch* batch) override {
    batch->Prepare(table_->schema().arity());
    if (next_row_ >= end_) return false;
    const size_t n = std::min(kBatchSize, end_ - next_row_);
    MPFDB_RETURN_IF_ERROR(PollContext(n));
    table_->ReadRangeColumnar(next_row_, n, kBatchSize, batch->col(0),
                              batch->measures());
    batch->set_num_rows(n);
    next_row_ += n;
    return true;
  }
  void Close() override {}
  const Schema& output_schema() const override { return table_->schema(); }
  std::string name() const override {
    return "SeqScanRange(" + table_->name() + ")";
  }

 private:
  TablePtr table_;
  size_t begin_, end_;
  size_t next_row_ = 0;
};

// Range-restricted scan over a disk table. Page reads go through the
// table's buffer pool, which serializes them internally; the transpose and
// all downstream work still run per-morsel.
class DiskScanRangeStream : public PhysicalOperator {
 public:
  DiskScanRangeStream(DiskTable* table, uint64_t begin, uint64_t end)
      : table_(table), schema_(table->schema()), begin_(begin), end_(end) {}

  Status Open() override {
    next_row_ = begin_;
    return Status::Ok();
  }
  StatusOr<bool> Next(Row*) override {
    return Status::Internal("morsel streams are batch-only");
  }
  StatusOr<bool> NextBatch(RowBatch* batch) override {
    const size_t arity = schema_.arity();
    batch->Prepare(arity);
    if (next_row_ >= end_) return false;
    const size_t n =
        static_cast<size_t>(std::min<uint64_t>(kBatchSize, end_ - next_row_));
    MPFDB_RETURN_IF_ERROR(PollContext(n));
    scratch_vars_.resize(n * arity);
    scratch_measures_.resize(n);
    MPFDB_RETURN_IF_ERROR(table_->ReadRange(next_row_, n, scratch_vars_.data(),
                                            scratch_measures_.data()));
    for (size_t c = 0; c < arity; ++c) {
      VarValue* out = batch->col(c);
      const VarValue* in = scratch_vars_.data() + c;
      for (size_t r = 0; r < n; ++r) out[r] = in[r * arity];
    }
    std::copy(scratch_measures_.begin(), scratch_measures_.end(),
              batch->measures());
    batch->set_num_rows(n);
    next_row_ += n;
    return true;
  }
  void Close() override {}
  const Schema& output_schema() const override { return schema_; }
  std::string name() const override {
    return "DiskScanRange(" + table_->name() + ")";
  }

 private:
  DiskTable* table_;
  Schema schema_;
  uint64_t begin_, end_;
  uint64_t next_row_ = 0;
  std::vector<VarValue> scratch_vars_;
  std::vector<double> scratch_measures_;
};

// Batch reader over a row-major materialized result owned by a blocking
// operator (HashMarginalize's sorted groups). The owner must outlive the
// stream.
class MaterializedRangeStream : public PhysicalOperator {
 public:
  MaterializedRangeStream(Schema schema, const VarValue* vars,
                          const double* measures, size_t begin, size_t end)
      : schema_(std::move(schema)),
        vars_(vars),
        measures_(measures),
        begin_(begin),
        end_(end) {}

  Status Open() override {
    next_row_ = begin_;
    return Status::Ok();
  }
  StatusOr<bool> Next(Row*) override {
    return Status::Internal("morsel streams are batch-only");
  }
  StatusOr<bool> NextBatch(RowBatch* batch) override {
    const size_t arity = schema_.arity();
    batch->Prepare(arity);
    if (next_row_ >= end_) return false;
    const size_t n = std::min(kBatchSize, end_ - next_row_);
    MPFDB_RETURN_IF_ERROR(PollContext(n));
    for (size_t c = 0; c < arity; ++c) {
      VarValue* out = batch->col(c);
      const VarValue* in = vars_ + next_row_ * arity + c;
      for (size_t r = 0; r < n; ++r) out[r] = in[r * arity];
    }
    std::copy(measures_ + next_row_, measures_ + next_row_ + n,
              batch->measures());
    batch->set_num_rows(n);
    next_row_ += n;
    return true;
  }
  void Close() override {}
  const Schema& output_schema() const override { return schema_; }
  std::string name() const override { return "MaterializedRange"; }

 private:
  Schema schema_;
  const VarValue* vars_;
  const double* measures_;
  size_t begin_, end_;
  size_t next_row_ = 0;
};

// Wraps each of the child's morsel streams in a fresh copy of a streaming
// unary operator built by `wrap`. Shared by Filter/MeasureFilter/
// StreamProject, whose per-stream state is rebuilt by their own Open.
template <class Wrap>
StatusOr<std::vector<OperatorPtr>> WrapChildStreams(PhysicalOperator& child,
                                                    size_t n, Wrap&& wrap) {
  MPFDB_ASSIGN_OR_RETURN(std::vector<OperatorPtr> streams,
                         child.MakeMorselStreams(n));
  std::vector<OperatorPtr> wrapped;
  wrapped.reserve(streams.size());
  for (auto& stream : streams) wrapped.push_back(wrap(std::move(stream)));
  return wrapped;
}

}  // namespace

StatusOr<bool> PhysicalOperator::NextBatch(RowBatch* batch) {
  // Adapter: any operator without a native batch implementation is driven
  // one row at a time into the caller's batch. An error from Next surfaces
  // with this operator's name attached so batch-mode failures are
  // attributable even through the adapter; a partially filled batch is
  // discarded, never returned as if it were a clean result.
  batch->Prepare(output_schema().arity());
  Row row;
  while (!batch->full()) {
    auto has = Next(&row);
    if (!has.ok()) return Annotate(has.status(), name());
    if (!*has) break;
    batch->AppendRow(row.vars.data(), row.measure);
  }
  return !batch->empty();
}

StatusOr<TablePtr> Run(PhysicalOperator& op, const std::string& result_name,
                       QueryContext* ctx) {
  Status opened = op.Open();
  if (!opened.ok()) {
    // Blocking operators may have drained (and charged for) part of their
    // input before failing; Close releases it.
    op.Close();
    return opened;
  }
  auto table = std::make_shared<Table>(result_name, op.output_schema());
  // One scratch row reused across the whole drain, so the steady state does
  // not allocate per tuple.
  Row row;
  row.vars.reserve(op.output_schema().arity());
  while (true) {
    auto has = op.Next(&row);
    if (!has.ok()) {
      // Tear the tree down before surfacing the error so blocking operators
      // drop their build state and spill files immediately.
      op.Close();
      return has.status();
    }
    if (!*has) break;
    if (ctx != nullptr) {
      Status live = ctx->Poll(1);
      if (!live.ok()) {
        op.Close();
        return live;
      }
    }
    table->AppendRowRaw(row.vars.data(), row.measure);
  }
  op.Close();
  return table;
}

namespace {

// Drains `op` through morsel streams, one pool task per stream, buffering
// each stream's rows separately and appending the buffers to `table` in
// stream-index order — exactly the serial row order. Returns false when the
// operator cannot split (no pool, unsupported shape, spill mode); the
// caller then drains serially.
StatusOr<bool> TryRunBatchParallel(PhysicalOperator& op, Table* table,
                                   QueryContext* ctx) {
  ThreadPool* pool = PoolOf(ctx);
  if (pool == nullptr || !op.SupportsMorselStreams()) return false;
  const size_t morsels =
      MorselCount(op.MorselSourceRows(), pool->num_threads());
  if (morsels == 1) return false;
  auto streams_or = op.MakeMorselStreams(morsels);
  if (!streams_or.ok()) return streams_or.status();
  std::vector<OperatorPtr> streams = std::move(*streams_or);
  if (streams.empty()) return false;

  const size_t arity = op.output_schema().arity();
  struct Chunk {
    std::vector<VarValue> vars;  // row-major
    std::vector<double> measures;
  };
  std::vector<Chunk> chunks(streams.size());
  Status run = pool->ParallelFor(streams.size(), [&](size_t i) -> Status {
    PhysicalOperator& stream = *streams[i];
    stream.BindContext(ctx);
    Status opened = stream.Open();
    if (!opened.ok()) {
      stream.Close();
      return opened;
    }
    Chunk& chunk = chunks[i];
    RowBatch batch;
    Status result = Status::Ok();
    while (true) {
      auto has = stream.NextBatch(&batch);
      if (!has.ok()) {
        result = has.status();
        break;
      }
      if (!*has) break;
      const size_t n = batch.num_rows();
      Status live = ctx->Poll(n);
      if (!live.ok()) {
        result = live;
        break;
      }
      const size_t base = chunk.measures.size();
      chunk.vars.resize((base + n) * arity);
      for (size_t c = 0; c < arity; ++c) {
        const VarValue* col = batch.col(c);
        VarValue* out = chunk.vars.data() + base * arity + c;
        for (size_t r = 0; r < n; ++r) out[r * arity] = col[r];
      }
      chunk.measures.insert(chunk.measures.end(), batch.measures(),
                            batch.measures() + n);
    }
    stream.Close();
    return result;
  });
  MPFDB_RETURN_IF_ERROR(run);
  for (const Chunk& chunk : chunks) {
    for (size_t r = 0; r < chunk.measures.size(); ++r) {
      table->AppendRowRaw(chunk.vars.data() + r * arity, chunk.measures[r]);
    }
  }
  return true;
}

}  // namespace

StatusOr<TablePtr> RunBatch(PhysicalOperator& op,
                            const std::string& result_name,
                            QueryContext* ctx) {
  Status opened = op.Open();
  if (!opened.ok()) {
    op.Close();
    return opened;
  }
  auto table = std::make_shared<Table>(result_name, op.output_schema());
  auto parallel = TryRunBatchParallel(op, table.get(), ctx);
  if (!parallel.ok()) {
    op.Close();
    return parallel.status();
  }
  if (*parallel) {
    op.Close();
    return table;
  }
  const size_t arity = op.output_schema().arity();
  RowBatch batch;
  std::vector<VarValue> row(arity);
  while (true) {
    auto has = op.NextBatch(&batch);
    if (!has.ok()) {
      op.Close();
      return has.status();
    }
    if (!*has) break;
    const size_t n = batch.num_rows();
    if (ctx != nullptr) {
      Status live = ctx->Poll(n);
      if (!live.ok()) {
        op.Close();
        return live;
      }
    }
    const double* measures = batch.measures();
    for (size_t r = 0; r < n; ++r) {
      for (size_t c = 0; c < arity; ++c) row[c] = batch.col(c)[r];
      table->AppendRowRaw(row.data(), measures[r]);
    }
  }
  op.Close();
  return table;
}

// --- SeqScan ---------------------------------------------------------------

Status SeqScan::Open() {
  next_row_ = 0;
  return Status::Ok();
}

StatusOr<bool> SeqScan::Next(Row* row) {
  MPFDB_RETURN_IF_ERROR(PollContext());
  if (next_row_ >= table_->NumRows()) return false;
  RowView view = table_->Row(next_row_++);
  row->vars.assign(view.vars, view.vars + view.arity);
  row->measure = view.measure;
  return true;
}

StatusOr<bool> SeqScan::NextBatch(RowBatch* batch) {
  batch->Prepare(table_->schema().arity());
  const size_t total = table_->NumRows();
  if (next_row_ >= total) return false;
  const size_t n = std::min(kBatchSize, total - next_row_);
  MPFDB_RETURN_IF_ERROR(PollContext(n));
  table_->ReadRangeColumnar(next_row_, n, kBatchSize, batch->col(0),
                            batch->measures());
  batch->set_num_rows(n);
  next_row_ += n;
  return true;
}

void SeqScan::Close() {}

StatusOr<std::vector<OperatorPtr>> SeqScan::MakeMorselStreams(size_t n) {
  std::vector<OperatorPtr> streams;
  streams.reserve(n);
  for (auto [begin, end] : SplitRanges(table_->NumRows(), n)) {
    streams.push_back(std::make_unique<SeqScanRangeStream>(table_, begin, end));
  }
  return streams;
}

// --- DiskScan ----------------------------------------------------------------

StatusOr<bool> DiskScan::Next(Row* row) {
  MPFDB_RETURN_IF_ERROR(PollContext());
  if (next_row_ >= table_->NumRows()) return false;
  MPFDB_RETURN_IF_ERROR(table_->ReadRow(next_row_++, &row->vars, &row->measure));
  return true;
}

StatusOr<bool> DiskScan::NextBatch(RowBatch* batch) {
  const size_t arity = schema_.arity();
  batch->Prepare(arity);
  if (next_row_ >= table_->NumRows()) return false;
  const size_t n = static_cast<size_t>(
      std::min<uint64_t>(kBatchSize, table_->NumRows() - next_row_));
  MPFDB_RETURN_IF_ERROR(PollContext(n));
  scratch_vars_.resize(n * arity);
  scratch_measures_.resize(n);
  MPFDB_RETURN_IF_ERROR(table_->ReadRange(next_row_, n, scratch_vars_.data(),
                                          scratch_measures_.data()));
  for (size_t c = 0; c < arity; ++c) {
    VarValue* out = batch->col(c);
    const VarValue* in = scratch_vars_.data() + c;
    for (size_t r = 0; r < n; ++r) out[r] = in[r * arity];
  }
  std::copy(scratch_measures_.begin(), scratch_measures_.end(),
            batch->measures());
  batch->set_num_rows(n);
  next_row_ += n;
  return true;
}

StatusOr<std::vector<OperatorPtr>> DiskScan::MakeMorselStreams(size_t n) {
  std::vector<OperatorPtr> streams;
  streams.reserve(n);
  for (auto [begin, end] :
       SplitRanges(static_cast<size_t>(table_->NumRows()), n)) {
    streams.push_back(
        std::make_unique<DiskScanRangeStream>(table_, begin, end));
  }
  return streams;
}

// --- IndexScan ---------------------------------------------------------------

Status IndexScan::Open() {
  if (index_ == nullptr) {
    return Status::FailedPrecondition("IndexScan without an index");
  }
  if (index_->indexed_rows() != table_->NumRows()) {
    return Status::FailedPrecondition(
        "index on " + table_->name() +
        " is stale (table changed since the index was built)");
  }
  matches_ = &index_->Lookup(value_);
  cursor_ = 0;
  return Status::Ok();
}

StatusOr<bool> IndexScan::Next(Row* row) {
  MPFDB_RETURN_IF_ERROR(PollContext());
  if (matches_ == nullptr || cursor_ >= matches_->size()) return false;
  RowView view = table_->Row((*matches_)[cursor_++]);
  row->vars.assign(view.vars, view.vars + view.arity);
  row->measure = view.measure;
  return true;
}

// --- Filter ----------------------------------------------------------------

Filter::Filter(OperatorPtr child, std::string var, VarValue value)
    : child_(std::move(child)), var_(std::move(var)), value_(value) {}

Status Filter::Open() {
  auto idx = child_->output_schema().IndexOf(var_);
  if (!idx) {
    return Status::InvalidArgument("filter variable '" + var_ +
                                   "' not in child schema");
  }
  var_index_ = *idx;
  return child_->Open();
}

StatusOr<bool> Filter::Next(Row* row) {
  while (true) {
    MPFDB_ASSIGN_OR_RETURN(bool has, child_->Next(row));
    if (!has) return false;
    if (row->vars[var_index_] == value_) return true;
  }
}

StatusOr<bool> Filter::NextBatch(RowBatch* batch) {
  while (true) {
    MPFDB_ASSIGN_OR_RETURN(bool has, child_->NextBatch(batch));
    if (!has) return false;
    const size_t n = batch->num_rows();
    const VarValue* key = batch->col(var_index_);
    sel_.clear();
    for (size_t r = 0; r < n; ++r) {
      if (key[r] == value_) sel_.push_back(static_cast<uint32_t>(r));
    }
    if (sel_.size() == n) return true;
    if (!sel_.empty()) {
      CompactBatch(batch, sel_);
      return true;
    }
    // Entire batch filtered out: pull the next one.
  }
}

void Filter::Close() { child_->Close(); }

StatusOr<std::vector<OperatorPtr>> Filter::MakeMorselStreams(size_t n) {
  return WrapChildStreams(*child_, n, [this](OperatorPtr stream) {
    return std::make_unique<Filter>(std::move(stream), var_, value_);
  });
}

// --- MeasureFilter -----------------------------------------------------------

StatusOr<bool> MeasureFilter::Next(Row* row) {
  while (true) {
    MPFDB_ASSIGN_OR_RETURN(bool has, child_->Next(row));
    if (!has) return false;
    if (EvalCompare(having_.op, row->measure, having_.threshold)) return true;
  }
}

StatusOr<bool> MeasureFilter::NextBatch(RowBatch* batch) {
  while (true) {
    MPFDB_ASSIGN_OR_RETURN(bool has, child_->NextBatch(batch));
    if (!has) return false;
    const size_t n = batch->num_rows();
    const double* measures = batch->measures();
    sel_.clear();
    for (size_t r = 0; r < n; ++r) {
      if (EvalCompare(having_.op, measures[r], having_.threshold)) {
        sel_.push_back(static_cast<uint32_t>(r));
      }
    }
    if (sel_.size() == n) return true;
    if (!sel_.empty()) {
      CompactBatch(batch, sel_);
      return true;
    }
  }
}

StatusOr<std::vector<OperatorPtr>> MeasureFilter::MakeMorselStreams(size_t n) {
  return WrapChildStreams(*child_, n, [this](OperatorPtr stream) {
    return std::make_unique<MeasureFilter>(std::move(stream), having_);
  });
}

// --- StreamProject -----------------------------------------------------------

StreamProject::StreamProject(OperatorPtr child,
                             std::vector<std::string> keep_vars)
    : child_(std::move(child)),
      keep_vars_(std::move(keep_vars)),
      schema_(keep_vars_, child_->output_schema().measure_name()) {}

Status StreamProject::Open() {
  for (const auto& var : keep_vars_) {
    if (!child_->output_schema().HasVariable(var)) {
      return Status::InvalidArgument("projected variable '" + var +
                                     "' not in child schema");
    }
  }
  keep_indices_ = IndicesOf(child_->output_schema(), keep_vars_);
  return child_->Open();
}

StatusOr<bool> StreamProject::Next(Row* row) {
  MPFDB_ASSIGN_OR_RETURN(bool has, child_->Next(&scratch_));
  if (!has) return false;
  row->vars.resize(keep_indices_.size());
  for (size_t k = 0; k < keep_indices_.size(); ++k) {
    row->vars[k] = scratch_.vars[keep_indices_[k]];
  }
  row->measure = scratch_.measure;
  return true;
}

StatusOr<bool> StreamProject::NextBatch(RowBatch* batch) {
  MPFDB_ASSIGN_OR_RETURN(bool has, child_->NextBatch(&child_batch_));
  if (!has) return false;
  batch->Prepare(schema_.arity());
  const size_t n = child_batch_.num_rows();
  for (size_t k = 0; k < keep_indices_.size(); ++k) {
    const VarValue* src = child_batch_.col(keep_indices_[k]);
    std::copy(src, src + n, batch->col(k));
  }
  std::copy(child_batch_.measures(), child_batch_.measures() + n,
            batch->measures());
  batch->set_num_rows(n);
  return true;
}

void StreamProject::Close() { child_->Close(); }

StatusOr<std::vector<OperatorPtr>> StreamProject::MakeMorselStreams(size_t n) {
  return WrapChildStreams(*child_, n, [this](OperatorPtr stream) {
    return std::make_unique<StreamProject>(std::move(stream), keep_vars_);
  });
}

// --- HashMarginalize -------------------------------------------------------

HashMarginalize::HashMarginalize(OperatorPtr child,
                                 std::vector<std::string> group_vars,
                                 Semiring semiring, const Catalog* catalog,
                                 HashImpl hash_impl)
    : child_(std::move(child)),
      group_vars_(std::move(group_vars)),
      semiring_(semiring),
      catalog_(catalog),
      hash_impl_(hash_impl),
      schema_(group_vars_, child_->output_schema().measure_name()) {}

Status HashMarginalize::Open() {
  for (const auto& var : group_vars_) {
    if (!child_->output_schema().HasVariable(var)) {
      return Status::InvalidArgument("group variable '" + var +
                                     "' not in child schema");
    }
  }
  key_indices_ = IndicesOf(child_->output_schema(), group_vars_);
  drained_ = false;
  groups_.clear();
  out_vars_.clear();
  out_measures_.clear();
  next_group_ = 0;
  memory_.Bind(ctx_);
  memory_.set_stats(stats_);
  return child_->Open();
}

Status HashMarginalize::DrainRows() {
  const size_t nkeys = key_indices_.size();
  const size_t entry_bytes = kHashEntryOverhead + RowFootprint(nkeys);
  VecKeyMap<double> table(hash_impl_);
  MemoryGuard table_memory(ctx_);
  std::vector<std::unique_ptr<SpillFile>> parts;
  Row row;
  std::vector<VarValue> key(nkeys);
  while (true) {
    auto has = child_->Next(&row);
    if (!has.ok()) return Annotate(has.status(), "HashMarginalize: input");
    if (!*has) break;
    for (size_t k = 0; k < nkeys; ++k) key[k] = row.vars[key_indices_[k]];
    if (!parts.empty()) {
      MPFDB_RETURN_IF_ERROR(
          parts[SpillPartOf(KeyHash()(key))]->Append(key.data(), row.measure));
      continue;
    }
    auto [slot, inserted] = table.FindOrInsert(key, row.measure);
    if (!inserted) {
      *slot = semiring_.Add(*slot, row.measure);
      continue;
    }
    Status charge = table_memory.Charge(entry_bytes, "HashMarginalize");
    if (charge.ok()) continue;
    if (ctx_ == nullptr || !ctx_->spill_enabled()) return charge;
    // Budget hit: flush every key's partial aggregate (one record per key),
    // then route the remaining input straight to the partitions.
    MPFDB_ASSIGN_OR_RETURN(parts, MakeSpillPartitions(ctx_, nkeys));
    if (stats_ != nullptr) stats_->spill_partitions = parts.size();
    Status flush = Status::Ok();
    table.ForEach([&](const std::vector<VarValue>& k, const double& m) {
      if (!flush.ok()) return;
      flush = parts[SpillPartOf(KeyHash()(k))]->Append(k.data(), m);
    });
    MPFDB_RETURN_IF_ERROR(flush);
    table.clear();
    table_memory.ReleaseAll();
  }

  std::vector<std::pair<std::vector<VarValue>, double>> entries;
  if (!parts.empty()) {
    MPFDB_RETURN_IF_ERROR(
        DrainAggSpill(parts, semiring_, nkeys, ctx_, hash_impl_, &entries));
  } else {
    entries.reserve(table.size());
    table.ForEach([&](const std::vector<VarValue>& k, const double& m) {
      entries.emplace_back(k, m);
    });
  }
  // Deterministic output order.
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  // The sorted groups are the operator's minimal output; their footprint is
  // recorded but not failed (no representation can be smaller).
  memory_.ChargeUnchecked(entries.size() * (sizeof(Row) + nkeys * sizeof(VarValue)));
  groups_.reserve(entries.size());
  for (auto& [k, m] : entries) {
    groups_.push_back(Row{std::move(k), m});
  }
  return Status::Ok();
}

Status HashMarginalize::DrainBatches() {
  auto parallel = TryDrainBatchesParallel();
  if (parallel.ok() && *parallel) return Status::Ok();
  if (!parallel.ok()) {
    // A budget breach during the parallel attempt falls back to the serial
    // drain below, which degrades to a Grace-style spill; anything else
    // (cancellation, deadline, input error) is fatal.
    if (parallel.status().code() != StatusCode::kResourceExhausted ||
        ctx_ == nullptr || !ctx_->spill_enabled()) {
      return parallel.status();
    }
  }
  const size_t nkeys = key_indices_.size();
  std::optional<PackedKeyCodec> codec = MakeCodecFor(catalog_, group_vars_);
  // Without catalog statistics a short key still fits a uint64 at 32 bits
  // per component — same fold machinery as the packed path, just not
  // order-preserving (a negative VarValue packs above the non-negatives),
  // so emission below sorts decoded tuples instead of packed integers.
  // This is what closed the historical hash_marginalize/batch gap: the
  // per-row arena probe and Add dispatch were eating the batch win.
  const bool codec_is_lexicographic = codec.has_value();
  if (!codec && nkeys * 32 <= 64) {
    codec = PackedKeyCodec::Make(
        std::vector<int64_t>(nkeys, int64_t{1} << 32));
  }
  RowBatch batch;
  std::vector<VarValue> key_vals(nkeys);
  std::vector<const VarValue*> key_cols(nkeys);
  MemoryGuard table_memory(ctx_);
  std::vector<std::unique_ptr<SpillFile>> parts;

  // Routes one batch's rows straight to the spill partitions (used once the
  // operator has degraded to Grace-style partitioned aggregation).
  auto spill_batch = [&](size_t n) -> Status {
    const double* measures = batch.measures();
    for (size_t r = 0; r < n; ++r) {
      for (size_t k = 0; k < nkeys; ++k) key_vals[k] = key_cols[k][r];
      MPFDB_RETURN_IF_ERROR(parts[SpillPartOf(KeyHash()(key_vals))]->Append(
          key_vals.data(), measures[r]));
    }
    return Status::Ok();
  };

  if (codec) {
    PackedMap<double> agg(hash_impl_, 1024);
    std::vector<uint64_t> keys(kBatchSize);
    size_t charged_entries = 0;
    while (true) {
      auto has = child_->NextBatch(&batch);
      if (!has.ok()) return Annotate(has.status(), "HashMarginalize: input");
      if (!*has) break;
      for (size_t k = 0; k < nkeys; ++k) key_cols[k] = batch.col(key_indices_[k]);
      const double* measures = batch.measures();
      const size_t n = batch.num_rows();
      if (!parts.empty()) {
        MPFDB_RETURN_IF_ERROR(spill_batch(n));
        continue;
      }
      if (!codec->EncodeColumnar(key_cols.data(), n, keys.data())) {
        return PackedDomainViolation("HashMarginalize");
      }
      // The accumulate loop is specialized on the semiring's Add; each fast
      // path performs exactly the operation Semiring::Add performs, keeping
      // results bit-identical to the row path (and to the parallel drain,
      // which folds through the same dispatch).
      DispatchAdd(semiring_, [&](auto add) {
        for (size_t r = 0; r < n; ++r) {
          auto [slot, inserted] = agg.FindOrInsert(keys[r], measures[r]);
          if (!inserted) *slot = add(*slot, measures[r]);
        }
      });
      // Charge the table's growth after each batch; on budget breach flush
      // the partial aggregates to the partitions and degrade.
      if (agg.size() > charged_entries) {
        Status charge = table_memory.Charge(
            (agg.size() - charged_entries) * kPackedAggEntryBytes,
            "HashMarginalize");
        if (charge.ok()) {
          charged_entries = agg.size();
          continue;
        }
        if (ctx_ == nullptr || !ctx_->spill_enabled()) return charge;
        MPFDB_ASSIGN_OR_RETURN(parts, MakeSpillPartitions(ctx_, nkeys));
        if (stats_ != nullptr) stats_->spill_partitions = parts.size();
        Status flush = Status::Ok();
        std::vector<VarValue> decoded(nkeys);
        agg.ForEach([&](uint64_t key, const double& measure) {
          if (!flush.ok()) return;
          codec->Decode(key, decoded.data());
          flush = parts[SpillPartOf(KeyHash()(decoded))]->Append(
              decoded.data(), measure);
        });
        MPFDB_RETURN_IF_ERROR(flush);
        agg = PackedMap<double>(hash_impl_, 1024);
        charged_entries = 0;
        table_memory.ReleaseAll();
      }
    }
    if (parts.empty()) {
      if (codec_is_lexicographic) {
        // Packed keys sort exactly as their decoded tuples (MSB-first
        // layout), so integer-sorting reproduces the row path's
        // lexicographic order.
        std::vector<std::pair<uint64_t, double>> entries;
        entries.reserve(agg.size());
        agg.ForEach([&](uint64_t key, const double& measure) {
          entries.emplace_back(key, measure);
        });
        std::sort(
            entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
        out_vars_.resize(entries.size() * nkeys);
        out_measures_.resize(entries.size());
        for (size_t i = 0; i < entries.size(); ++i) {
          codec->Decode(entries[i].first, out_vars_.data() + i * nkeys);
          out_measures_[i] = entries[i].second;
        }
      } else {
        // Catalog-free 32-bit packing: flipping each lane's sign bit makes
        // unsigned integer order match the row path's signed lexicographic
        // order, so the sort runs on raw uint64s (no per-entry decode, no
        // tuple materialization).
        const uint64_t flip = codec->SignFlipMask();
        std::vector<std::pair<uint64_t, double>> entries;
        entries.reserve(agg.size());
        agg.ForEach([&](uint64_t key, const double& measure) {
          entries.emplace_back(key ^ flip, measure);
        });
        std::sort(
            entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
        out_vars_.resize(entries.size() * nkeys);
        out_measures_.resize(entries.size());
        for (size_t i = 0; i < entries.size(); ++i) {
          codec->Decode(entries[i].first ^ flip,
                        out_vars_.data() + i * nkeys);
          out_measures_[i] = entries[i].second;
        }
      }
      memory_.ChargeUnchecked(out_vars_.size() * sizeof(VarValue) +
                              out_measures_.size() * sizeof(double));
      return Status::Ok();
    }
  } else {
    const size_t entry_bytes = kHashEntryOverhead + RowFootprint(nkeys);
    // The fold runs on the byte-keyed Swiss table by default: probing hashes
    // the key bytes in place (no per-row vector materialization in the map,
    // no node allocation, no modulo), which is what closed the historical
    // hash_marginalize/batch gap against the packed path.
    VecKeyMap<double> table(hash_impl_);
    while (true) {
      auto has = child_->NextBatch(&batch);
      if (!has.ok()) return Annotate(has.status(), "HashMarginalize: input");
      if (!*has) break;
      for (size_t k = 0; k < nkeys; ++k) key_cols[k] = batch.col(key_indices_[k]);
      const double* measures = batch.measures();
      const size_t n = batch.num_rows();
      if (!parts.empty()) {
        MPFDB_RETURN_IF_ERROR(spill_batch(n));
        continue;
      }
      for (size_t r = 0; r < n; ++r) {
        for (size_t k = 0; k < nkeys; ++k) key_vals[k] = key_cols[k][r];
        if (!parts.empty()) {
          // Mid-batch degrade: the rest of this batch goes to disk.
          MPFDB_RETURN_IF_ERROR(parts[SpillPartOf(KeyHash()(key_vals))]->Append(
              key_vals.data(), measures[r]));
          continue;
        }
        auto [slot, inserted] = table.FindOrInsert(key_vals, measures[r]);
        if (!inserted) {
          *slot = semiring_.Add(*slot, measures[r]);
          continue;
        }
        Status charge = table_memory.Charge(entry_bytes, "HashMarginalize");
        if (charge.ok()) continue;
        if (ctx_ == nullptr || !ctx_->spill_enabled()) return charge;
        MPFDB_ASSIGN_OR_RETURN(parts, MakeSpillPartitions(ctx_, nkeys));
        if (stats_ != nullptr) stats_->spill_partitions = parts.size();
        Status flush = Status::Ok();
        table.ForEach([&](const std::vector<VarValue>& k, const double& m) {
          if (!flush.ok()) return;
          flush = parts[SpillPartOf(KeyHash()(k))]->Append(k.data(), m);
        });
        MPFDB_RETURN_IF_ERROR(flush);
        table.clear();
        table_memory.ReleaseAll();
      }
    }
    if (parts.empty()) {
      std::vector<std::pair<std::vector<VarValue>, double>> entries;
      entries.reserve(table.size());
      table.ForEach([&](const std::vector<VarValue>& k, const double& m) {
        entries.emplace_back(k, m);
      });
      std::sort(entries.begin(), entries.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      out_vars_.resize(entries.size() * nkeys);
      out_measures_.resize(entries.size());
      for (size_t i = 0; i < entries.size(); ++i) {
        std::copy(entries[i].first.begin(), entries[i].first.end(),
                  out_vars_.begin() + static_cast<ptrdiff_t>(i * nkeys));
        out_measures_[i] = entries[i].second;
      }
      memory_.ChargeUnchecked(out_vars_.size() * sizeof(VarValue) +
                              out_measures_.size() * sizeof(double));
      return Status::Ok();
    }
  }

  // Spilled: re-aggregate every partition, then lay out the sorted groups —
  // per-key Add replay order matches the in-memory path, so the result is
  // bit-identical to an unconstrained run.
  std::vector<std::pair<std::vector<VarValue>, double>> entries;
  MPFDB_RETURN_IF_ERROR(
      DrainAggSpill(parts, semiring_, nkeys, ctx_, hash_impl_, &entries));
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  out_vars_.resize(entries.size() * nkeys);
  out_measures_.resize(entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    std::copy(entries[i].first.begin(), entries[i].first.end(),
              out_vars_.begin() + static_cast<ptrdiff_t>(i * nkeys));
    out_measures_[i] = entries[i].second;
  }
  memory_.ChargeUnchecked(out_vars_.size() * sizeof(VarValue) +
                          out_measures_.size() * sizeof(double));
  return Status::Ok();
}

StatusOr<bool> HashMarginalize::TryDrainBatchesParallel() {
  ThreadPool* pool = PoolOf(ctx_);
  if (pool == nullptr || !child_->SupportsMorselStreams()) return false;
  // Thread-local buffering regroups updates for different keys relative to
  // the serial schedule; only a commutative Add licenses that. (Per-key
  // order is preserved regardless — see the partition fold below.)
  if (!semiring_.AddIsCommutative()) return false;
  // A single morsel would pay for the 16-partition fold and buy nothing.
  const size_t morsels =
      MorselCount(child_->MorselSourceRows(), pool->num_threads());
  if (morsels == 1) return false;
  const size_t nkeys = key_indices_.size();
  std::optional<PackedKeyCodec> codec = MakeCodecFor(catalog_, group_vars_);
  MPFDB_ASSIGN_OR_RETURN(std::vector<OperatorPtr> streams,
                         child_->MakeMorselStreams(morsels));
  if (streams.empty()) return false;
  const size_t num_morsels = streams.size();

  // Phase 1: every morsel stream drains into per-(morsel, partition)
  // buffers of raw (key, measure) pairs, routed by high key-hash bits so
  // each key lands in exactly one partition. Raw pairs — not per-worker
  // partial aggregates — because folding a key's updates in any order other
  // than the serial one would re-associate floating-point Adds.
  //
  // Phase 2: each partition folds its buffers in morsel-index order.
  // Morsels are contiguous input ranges in index order, so every key's
  // updates replay in exactly the serial input order: results are
  // bit-identical to the single-threaded drain for any thread count.
  std::deque<MemoryGuard> guards;
  for (size_t i = 0; i < num_morsels; ++i) guards.emplace_back(ctx_);

  if (codec) {
    struct Buf {
      std::vector<uint64_t> keys;
      std::vector<double> measures;
    };
    std::vector<std::array<Buf, kAggPartitions>> bufs(num_morsels);
    Status phase1 = pool->ParallelFor(num_morsels, [&](size_t i) -> Status {
      PhysicalOperator& stream = *streams[i];
      stream.BindContext(ctx_);
      Status opened = stream.Open();
      if (!opened.ok()) {
        stream.Close();
        return Annotate(opened, "HashMarginalize: input");
      }
      RowBatch batch;
      std::vector<uint64_t> keys(kBatchSize);
      std::vector<const VarValue*> key_cols(nkeys);
      Status result = Status::Ok();
      while (true) {
        auto has = stream.NextBatch(&batch);
        if (!has.ok()) {
          result = Annotate(has.status(), "HashMarginalize: input");
          break;
        }
        if (!*has) break;
        const size_t n = batch.num_rows();
        for (size_t k = 0; k < nkeys; ++k) {
          key_cols[k] = batch.col(key_indices_[k]);
        }
        if (!codec->EncodeColumnar(key_cols.data(), n, keys.data())) {
          result = PackedDomainViolation("HashMarginalize");
          break;
        }
        result = guards[i].Charge(n * (sizeof(uint64_t) + sizeof(double)),
                                  "HashMarginalize");
        if (!result.ok()) break;
        const double* measures = batch.measures();
        for (size_t r = 0; r < n; ++r) {
          Buf& buf = bufs[i][AggPartOf(PackedKeyHash()(keys[r]))];
          buf.keys.push_back(keys[r]);
          buf.measures.push_back(measures[r]);
        }
      }
      stream.Close();
      return result;
    });
    MPFDB_RETURN_IF_ERROR(phase1);

    std::deque<MemoryGuard> fold_guards;
    for (size_t p = 0; p < kAggPartitions; ++p) fold_guards.emplace_back(ctx_);
    std::array<std::vector<std::pair<uint64_t, double>>, kAggPartitions>
        part_entries;
    Status phase2 = pool->ParallelFor(kAggPartitions, [&](size_t p) -> Status {
      PackedMap<double> agg(hash_impl_, 1024);
      size_t charged_entries = 0;
      Status fold = Status::Ok();
      DispatchAdd(semiring_, [&](auto add) {
        for (size_t i = 0; i < num_morsels && fold.ok(); ++i) {
          const Buf& buf = bufs[i][p];
          const size_t n = buf.measures.size();
          for (size_t r = 0; r < n; ++r) {
            auto [slot, inserted] =
                agg.FindOrInsert(buf.keys[r], buf.measures[r]);
            if (!inserted) *slot = add(*slot, buf.measures[r]);
          }
          if (agg.size() > charged_entries) {
            fold = fold_guards[p].Charge(
                (agg.size() - charged_entries) * kPackedAggEntryBytes,
                "HashMarginalize");
            charged_entries = agg.size();
          }
          if (fold.ok() && ctx_ != nullptr && n > 0) fold = ctx_->Poll(n);
        }
      });
      MPFDB_RETURN_IF_ERROR(fold);
      auto& entries = part_entries[p];
      entries.reserve(agg.size());
      agg.ForEach([&](uint64_t key, const double& measure) {
        entries.emplace_back(key, measure);
      });
      return Status::Ok();
    });
    MPFDB_RETURN_IF_ERROR(phase2);

    // Merge is concatenation — the partitions' key sets are disjoint — and
    // the same packed-key integer sort the serial drain performs.
    std::vector<std::pair<uint64_t, double>> entries;
    size_t total = 0;
    for (const auto& pe : part_entries) total += pe.size();
    entries.reserve(total);
    for (const auto& pe : part_entries) {
      entries.insert(entries.end(), pe.begin(), pe.end());
    }
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    out_vars_.resize(entries.size() * nkeys);
    out_measures_.resize(entries.size());
    for (size_t i = 0; i < entries.size(); ++i) {
      codec->Decode(entries[i].first, out_vars_.data() + i * nkeys);
      out_measures_[i] = entries[i].second;
    }
  } else {
    struct Buf {
      std::vector<VarValue> keys;  // nkeys values per row
      std::vector<double> measures;
    };
    std::vector<std::array<Buf, kAggPartitions>> bufs(num_morsels);
    Status phase1 = pool->ParallelFor(num_morsels, [&](size_t i) -> Status {
      PhysicalOperator& stream = *streams[i];
      stream.BindContext(ctx_);
      Status opened = stream.Open();
      if (!opened.ok()) {
        stream.Close();
        return Annotate(opened, "HashMarginalize: input");
      }
      RowBatch batch;
      std::vector<VarValue> key_vals(nkeys);
      std::vector<const VarValue*> key_cols(nkeys);
      Status result = Status::Ok();
      while (true) {
        auto has = stream.NextBatch(&batch);
        if (!has.ok()) {
          result = Annotate(has.status(), "HashMarginalize: input");
          break;
        }
        if (!*has) break;
        const size_t n = batch.num_rows();
        for (size_t k = 0; k < nkeys; ++k) {
          key_cols[k] = batch.col(key_indices_[k]);
        }
        result = guards[i].Charge(n * RowFootprint(nkeys), "HashMarginalize");
        if (!result.ok()) break;
        const double* measures = batch.measures();
        for (size_t r = 0; r < n; ++r) {
          for (size_t k = 0; k < nkeys; ++k) key_vals[k] = key_cols[k][r];
          Buf& buf = bufs[i][AggPartOf(KeyHash()(key_vals))];
          buf.keys.insert(buf.keys.end(), key_vals.begin(), key_vals.end());
          buf.measures.push_back(measures[r]);
        }
      }
      stream.Close();
      return result;
    });
    MPFDB_RETURN_IF_ERROR(phase1);

    const size_t entry_bytes = kHashEntryOverhead + RowFootprint(nkeys);
    std::deque<MemoryGuard> fold_guards;
    for (size_t p = 0; p < kAggPartitions; ++p) fold_guards.emplace_back(ctx_);
    std::array<std::vector<std::pair<std::vector<VarValue>, double>>,
               kAggPartitions>
        part_entries;
    Status phase2 = pool->ParallelFor(kAggPartitions, [&](size_t p) -> Status {
      VecKeyMap<double> table(hash_impl_);
      std::vector<VarValue> key_vals(nkeys);
      for (size_t i = 0; i < num_morsels; ++i) {
        const Buf& buf = bufs[i][p];
        const size_t n = buf.measures.size();
        for (size_t r = 0; r < n; ++r) {
          key_vals.assign(buf.keys.begin() + static_cast<ptrdiff_t>(r * nkeys),
                          buf.keys.begin() +
                              static_cast<ptrdiff_t>((r + 1) * nkeys));
          auto [slot, inserted] = table.FindOrInsert(key_vals, buf.measures[r]);
          if (inserted) {
            MPFDB_RETURN_IF_ERROR(
                fold_guards[p].Charge(entry_bytes, "HashMarginalize"));
          } else {
            *slot = semiring_.Add(*slot, buf.measures[r]);
          }
        }
        if (ctx_ != nullptr && n > 0) MPFDB_RETURN_IF_ERROR(ctx_->Poll(n));
      }
      auto& entries = part_entries[p];
      entries.reserve(table.size());
      table.ForEach([&](const std::vector<VarValue>& k, const double& m) {
        entries.emplace_back(k, m);
      });
      return Status::Ok();
    });
    MPFDB_RETURN_IF_ERROR(phase2);

    std::vector<std::pair<std::vector<VarValue>, double>> entries;
    size_t total = 0;
    for (const auto& pe : part_entries) total += pe.size();
    entries.reserve(total);
    for (auto& pe : part_entries) {
      for (auto& e : pe) entries.push_back(std::move(e));
    }
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    out_vars_.resize(entries.size() * nkeys);
    out_measures_.resize(entries.size());
    for (size_t i = 0; i < entries.size(); ++i) {
      std::copy(entries[i].first.begin(), entries[i].first.end(),
                out_vars_.begin() + static_cast<ptrdiff_t>(i * nkeys));
      out_measures_[i] = entries[i].second;
    }
  }

  memory_.ChargeUnchecked(out_vars_.size() * sizeof(VarValue) +
                          out_measures_.size() * sizeof(double));
  return true;
}

StatusOr<std::vector<OperatorPtr>> HashMarginalize::MakeMorselStreams(
    size_t n) {
  // Vending streams forces the blocking drain, exactly as the first
  // NextBatch pull would; the streams then read disjoint ranges of the
  // sorted groups this operator owns.
  if (!drained_) {
    Status drained = DrainBatches();
    child_->Close();
    MPFDB_RETURN_IF_ERROR(drained);
    drained_ = true;
  }
  std::vector<OperatorPtr> streams;
  streams.reserve(n);
  for (auto [begin, end] : SplitRanges(out_measures_.size(), n)) {
    streams.push_back(std::make_unique<MaterializedRangeStream>(
        schema_, out_vars_.data(), out_measures_.data(), begin, end));
  }
  return streams;
}

StatusOr<bool> HashMarginalize::Next(Row* row) {
  if (!drained_) {
    Status drained = DrainRows();
    child_->Close();
    MPFDB_RETURN_IF_ERROR(drained);
    drained_ = true;
  }
  MPFDB_RETURN_IF_ERROR(PollContext());
  if (next_group_ >= groups_.size()) return false;
  *row = groups_[next_group_++];
  return true;
}

StatusOr<bool> HashMarginalize::NextBatch(RowBatch* batch) {
  if (!drained_) {
    Status drained = DrainBatches();
    child_->Close();
    MPFDB_RETURN_IF_ERROR(drained);
    drained_ = true;
  }
  const size_t arity = schema_.arity();
  batch->Prepare(arity);
  const size_t total = out_measures_.size();
  if (next_group_ >= total) return false;
  const size_t n = std::min(kBatchSize, total - next_group_);
  MPFDB_RETURN_IF_ERROR(PollContext(n));
  for (size_t c = 0; c < arity; ++c) {
    VarValue* out = batch->col(c);
    const VarValue* in = out_vars_.data() + next_group_ * arity + c;
    for (size_t r = 0; r < n; ++r) out[r] = in[r * arity];
  }
  std::copy(out_measures_.begin() + static_cast<ptrdiff_t>(next_group_),
            out_measures_.begin() + static_cast<ptrdiff_t>(next_group_ + n),
            batch->measures());
  batch->set_num_rows(n);
  next_group_ += n;
  return true;
}

void HashMarginalize::Close() {
  groups_.clear();
  out_vars_.clear();
  out_measures_.clear();
  memory_.ReleaseAll();
}

// --- SortMarginalize -------------------------------------------------------

SortMarginalize::SortMarginalize(OperatorPtr child,
                                 std::vector<std::string> group_vars,
                                 Semiring semiring, bool input_presorted)
    : child_(std::move(child)),
      group_vars_(std::move(group_vars)),
      semiring_(semiring),
      input_presorted_(input_presorted),
      schema_(group_vars_, child_->output_schema().measure_name()) {}

Status SortMarginalize::Open() {
  for (const auto& var : group_vars_) {
    if (!child_->output_schema().HasVariable(var)) {
      return Status::InvalidArgument("group variable '" + var +
                                     "' not in child schema");
    }
  }
  key_indices_ = IndicesOf(child_->output_schema(), group_vars_);
  memory_.Bind(ctx_);
  memory_.set_stats(stats_);
  drained_ = false;
  cursor_ = 0;
  next_group_ = 0;
  // The input is drained on the first pull (Next or NextBatch), not here, so
  // the sort's materialization is charged where the drive loop can observe a
  // budget breach and the batch path can drain the child vectorized.
  return child_->Open();
}

// Row-mode drain: materialize, then stable-sort on the group key. Stability
// keeps equal-key rows in child arrival order, which makes the per-run folds
// in Next bit-identical to HashMarginalize's arrival-order folds. When the
// physical planner proved the input already arrives sorted by the group
// variables the sort is skipped (a stable sort of sorted input is the
// identity permutation).
Status SortMarginalize::DrainRows() {
  sorted_input_.clear();
  MPFDB_RETURN_IF_ERROR(
      DrainChild(*child_, &sorted_input_, &memory_, "SortMarginalize: input"));
  if (!input_presorted_) {
    std::stable_sort(sorted_input_.begin(), sorted_input_.end(),
                     [this](const Row& a, const Row& b) {
                       for (size_t k : key_indices_) {
                         if (a.vars[k] != b.vars[k]) return a.vars[k] < b.vars[k];
                       }
                       return false;
                     });
  }
  cursor_ = 0;
  return Status::Ok();
}

// Batch-mode drain: pull the child through NextBatch into a row-major arena,
// stable-sort row indices on the group key, and fold each run into the
// output layout HashMarginalize uses. The index sort applies the same
// comparator and stability as the row path's sort of Row objects, so both
// paths visit rows in the same order and produce identical bits.
Status SortMarginalize::DrainBatches() {
  const size_t in_arity = child_->output_schema().arity();
  const size_t nkeys = key_indices_.size();
  std::vector<VarValue> in_vars;
  std::vector<double> in_measures;
  MPFDB_RETURN_IF_ERROR(DrainToArenaBatches(*child_, &in_vars, &in_measures,
                                            &memory_,
                                            "SortMarginalize: input"));
  const size_t num_rows = in_measures.size();
  std::vector<size_t> order(num_rows);
  for (size_t i = 0; i < num_rows; ++i) order[i] = i;
  if (!input_presorted_) {
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      const VarValue* ra = in_vars.data() + a * in_arity;
      const VarValue* rb = in_vars.data() + b * in_arity;
      for (size_t k : key_indices_) {
        if (ra[k] != rb[k]) return ra[k] < rb[k];
      }
      return false;
    });
  }

  out_vars_.clear();
  out_measures_.clear();
  size_t i = 0;
  while (i < num_rows) {
    const VarValue* first = in_vars.data() + order[i] * in_arity;
    const size_t group_base = out_vars_.size();
    out_vars_.resize(group_base + nkeys);
    for (size_t k = 0; k < nkeys; ++k) {
      out_vars_[group_base + k] = first[key_indices_[k]];
    }
    double acc = in_measures[order[i]];
    ++i;
    while (i < num_rows) {
      const VarValue* next = in_vars.data() + order[i] * in_arity;
      bool same = true;
      for (size_t k : key_indices_) {
        if (next[k] != first[k]) {
          same = false;
          break;
        }
      }
      if (!same) break;
      acc = semiring_.Add(acc, in_measures[order[i]]);
      ++i;
    }
    out_measures_.push_back(acc);
    MPFDB_RETURN_IF_ERROR(PollContext());
  }
  memory_.ChargeUnchecked(out_vars_.size() * sizeof(VarValue) +
                          out_measures_.size() * sizeof(double));
  next_group_ = 0;
  return Status::Ok();
}

StatusOr<bool> SortMarginalize::Next(Row* row) {
  if (!drained_) {
    Status drained = DrainRows();
    child_->Close();
    MPFDB_RETURN_IF_ERROR(drained);
    drained_ = true;
  }
  MPFDB_RETURN_IF_ERROR(PollContext());
  if (cursor_ >= sorted_input_.size()) return false;
  // Aggregate the current key run.
  const Row& first = sorted_input_[cursor_];
  row->vars.resize(key_indices_.size());
  for (size_t k = 0; k < key_indices_.size(); ++k) {
    row->vars[k] = first.vars[key_indices_[k]];
  }
  row->measure = first.measure;
  ++cursor_;
  while (cursor_ < sorted_input_.size()) {
    const Row& next = sorted_input_[cursor_];
    bool same = true;
    for (size_t k = 0; k < key_indices_.size(); ++k) {
      if (next.vars[key_indices_[k]] != row->vars[k]) {
        same = false;
        break;
      }
    }
    if (!same) break;
    row->measure = semiring_.Add(row->measure, next.measure);
    ++cursor_;
  }
  return true;
}

StatusOr<bool> SortMarginalize::NextBatch(RowBatch* batch) {
  // Presorted input streams: groups arrive contiguously, so each run folds
  // on the fly (in child arrival order, like every other path) and the
  // input is never materialized. The group being folded carries across
  // child batch boundaries in cur_key_/cur_acc_.
  if (input_presorted_) {
    const size_t arity = schema_.arity();
    const size_t nkeys = key_indices_.size();
    batch->Prepare(arity);
    size_t emitted = 0;
    auto emit_group = [&]() {
      for (size_t c = 0; c < arity; ++c) batch->col(c)[emitted] = cur_key_[c];
      batch->measures()[emitted] = cur_acc_;
      ++emitted;
    };
    bool out_full = false;
    while (!out_full) {
      if (in_pos_ >= in_batch_.num_rows()) {
        if (stream_done_) break;
        MPFDB_ASSIGN_OR_RETURN(bool more, child_->NextBatch(&in_batch_));
        if (!more) {
          stream_done_ = true;
          child_->Close();
          break;
        }
        in_pos_ = 0;
        MPFDB_RETURN_IF_ERROR(PollContext(in_batch_.num_rows()));
        continue;
      }
      const size_t n = in_batch_.num_rows();
      while (in_pos_ < n) {
        const size_t r = in_pos_;
        bool same = have_group_;
        if (same) {
          for (size_t k = 0; k < nkeys; ++k) {
            if (in_batch_.col(key_indices_[k])[r] != cur_key_[k]) {
              same = false;
              break;
            }
          }
        }
        if (same) {
          cur_acc_ = semiring_.Add(cur_acc_, in_batch_.measures()[r]);
        } else {
          if (have_group_) {
            if (emitted == kBatchSize) {
              // Output batch full; resume at this row on the next call.
              out_full = true;
              break;
            }
            emit_group();
          }
          cur_key_.resize(nkeys);
          for (size_t k = 0; k < nkeys; ++k) {
            cur_key_[k] = in_batch_.col(key_indices_[k])[r];
          }
          cur_acc_ = in_batch_.measures()[r];
          have_group_ = true;
        }
        ++in_pos_;
      }
    }
    if (stream_done_ && have_group_ && emitted < kBatchSize) {
      emit_group();
      have_group_ = false;
    }
    batch->set_num_rows(emitted);
    MPFDB_RETURN_IF_ERROR(PollContext(emitted == 0 ? 1 : emitted));
    return emitted > 0;
  }
  if (!drained_) {
    Status drained = DrainBatches();
    child_->Close();
    MPFDB_RETURN_IF_ERROR(drained);
    drained_ = true;
  }
  const size_t arity = schema_.arity();
  batch->Prepare(arity);
  const size_t total = out_measures_.size();
  if (next_group_ >= total) return false;
  const size_t n = std::min(kBatchSize, total - next_group_);
  MPFDB_RETURN_IF_ERROR(PollContext(n));
  for (size_t c = 0; c < arity; ++c) {
    VarValue* out = batch->col(c);
    const VarValue* in = out_vars_.data() + next_group_ * arity + c;
    for (size_t r = 0; r < n; ++r) out[r] = in[r * arity];
  }
  std::copy(out_measures_.begin() + static_cast<ptrdiff_t>(next_group_),
            out_measures_.begin() + static_cast<ptrdiff_t>(next_group_ + n),
            batch->measures());
  batch->set_num_rows(n);
  next_group_ += n;
  return true;
}

void SortMarginalize::Close() {
  sorted_input_.clear();
  out_vars_.clear();
  out_measures_.clear();
  drained_ = false;
  in_pos_ = 0;
  stream_done_ = false;
  cur_key_.clear();
  have_group_ = false;
  memory_.ReleaseAll();
}

// --- HashProductJoin -------------------------------------------------------

namespace {

// Per-consumer probe state for the batch hash join: the current left batch,
// its packed keys, and the match run being emitted. The serial operator owns
// one cursor; every parallel probe stream owns its own, all reading the same
// immutable build-side arena.
struct ProbeCursor {
  RowBatch left_batch;
  size_t left_pos = 0;   // next unconsumed row of left_batch
  size_t cur_left = 0;   // row whose match run is being emitted
  bool left_done = false;
  std::vector<uint64_t> probe_keys;  // packed keys of the current left batch
  size_t match_start = 0;            // current match run in the arena
  size_t match_len = 0;
  size_t match_off = 0;
  std::vector<VarValue> key_vals;
  std::vector<const VarValue*> key_cols;
};

// Emits (a slice of) the current left row's contiguous match run: constant
// fills for left-side outputs, contiguous column copies for right-side
// outputs, one vectorizable multiply for the measures. Shared between the
// serial in-memory probe loop, the spill-partition probe loop, and the
// parallel probe streams. ImplT is HashProductJoin::Impl, deduced because
// the type is private; only build-side state is read through it.
template <class ImplT>
void EmitJoinRunSlice(ImplT& st, ProbeCursor& pc, const Semiring& semiring,
                      RowBatch* out) {
  const size_t o = out->num_rows();
  const size_t m = std::min(pc.match_len - pc.match_off, kBatchSize - o);
  const size_t src = pc.match_start + pc.match_off;
  for (auto [out_c, left_c] : st.out_left_cols) {
    VarValue* dst = out->col(out_c) + o;
    const VarValue v = pc.left_batch.col(left_c)[pc.cur_left];
    std::fill(dst, dst + m, v);
  }
  for (auto [out_c, right_c] : st.out_right_cols) {
    const VarValue* arena =
        st.arena_cols.data() + right_c * st.arena_rows + src;
    std::copy(arena, arena + m, out->col(out_c) + o);
  }
  double* dst_m = out->measures() + o;
  const double lm = pc.left_batch.measures()[pc.cur_left];
  const double* am = st.arena_measures.data() + src;
  switch (st.mul_op) {
    case MulOp::kTimes:
      for (size_t i = 0; i < m; ++i) dst_m[i] = lm * am[i];
      break;
    case MulOp::kPlus:
      for (size_t i = 0; i < m; ++i) dst_m[i] = lm + am[i];
      break;
    case MulOp::kGeneric:
      for (size_t i = 0; i < m; ++i) {
        dst_m[i] = semiring.Multiply(lm, am[i]);
      }
      break;
  }
  out->set_num_rows(o + m);
  pc.match_off += m;
}

// The in-memory probe loop: pulls left batches from `left`, looks match runs
// up in the (frozen) build-side head maps, and emits run slices. The build
// state reached through `st` is only read, so any number of cursors can
// probe it concurrently.
template <class ImplT>
StatusOr<bool> JoinProbeNextBatch(ImplT& st, ProbeCursor& pc,
                                  PhysicalOperator& left,
                                  const Semiring& semiring, QueryContext* ctx,
                                  RowBatch* out) {
  const JoinLayout& layout = st.layout;
  const size_t nkeys = layout.shared.size();
  out->Prepare(layout.schema.arity());
  while (!out->full()) {
    if (pc.match_off < pc.match_len) {
      EmitJoinRunSlice(st, pc, semiring, out);
      continue;
    }
    if (pc.left_pos >= pc.left_batch.num_rows()) {
      if (pc.left_done) break;
      auto has = left.NextBatch(&pc.left_batch);
      if (!has.ok()) {
        return Annotate(has.status(), "HashProductJoin: probe side");
      }
      if (!*has) {
        pc.left_done = true;
        break;
      }
      if (ctx != nullptr) {
        MPFDB_RETURN_IF_ERROR(ctx->Poll(pc.left_batch.num_rows()));
      }
      pc.left_pos = 0;
      if (st.codec) {
        // Pack every probe key of the incoming left batch at once.
        const size_t n = pc.left_batch.num_rows();
        pc.key_cols.resize(nkeys);
        for (size_t k = 0; k < nkeys; ++k) {
          pc.key_cols[k] = pc.left_batch.col(layout.shared_left[k]);
        }
        pc.probe_keys.resize(n);
        if (!st.codec->EncodeColumnar(pc.key_cols.data(), n,
                                      pc.probe_keys.data())) {
          return PackedDomainViolation("HashProductJoin");
        }
      }
      continue;
    }
    pc.cur_left = pc.left_pos++;
    pc.match_off = 0;
    pc.match_len = 0;
    if (st.dense) {
      // Perfect index: the packed key addresses its head range directly.
      const auto& range = st.dense_heads[pc.probe_keys[pc.cur_left]];
      pc.match_start = range.first;
      pc.match_len = range.second;
    } else if (st.codec) {
      auto* range = st.packed_heads.Find(pc.probe_keys[pc.cur_left]);
      if (range != nullptr) {
        pc.match_start = range->first;
        pc.match_len = range->second;
      }
    } else {
      pc.key_vals.resize(nkeys);
      for (size_t k = 0; k < nkeys; ++k) {
        pc.key_vals[k] = pc.left_batch.col(layout.shared_left[k])[pc.cur_left];
      }
      auto* range = st.vec_heads.Find(pc.key_vals);
      if (range != nullptr) {
        pc.match_start = range->first;
        pc.match_len = range->second;
      }
    }
  }
  return !out->empty();
}

// One parallel probe stream: a morsel stream of the join's left child joined
// against the shared in-memory build side through a private ProbeCursor.
// ImplT is HashProductJoin::Impl; the referenced build state must outlive
// the stream (the parent operator stays open until its streams are done).
template <class ImplT>
class HashJoinProbeStream : public PhysicalOperator {
 public:
  HashJoinProbeStream(ImplT& st, OperatorPtr left, Semiring semiring)
      : st_(st), left_(std::move(left)), semiring_(semiring) {}

  void BindContext(QueryContext* ctx) override {
    ctx_ = ctx;
    left_->BindContext(ctx);
  }
  Status Open() override { return left_->Open(); }
  StatusOr<bool> Next(Row*) override {
    return Status::Internal("morsel streams are batch-only");
  }
  StatusOr<bool> NextBatch(RowBatch* out) override {
    return JoinProbeNextBatch(st_, probe_, *left_, semiring_, ctx_, out);
  }
  void Close() override { left_->Close(); }
  const Schema& output_schema() const override { return st_.layout.schema; }
  std::string name() const override { return "HashJoinProbeStream"; }

 private:
  ImplT& st_;
  OperatorPtr left_;
  Semiring semiring_;
  ProbeCursor probe_;
};

}  // namespace

struct HashProductJoin::Impl {
  JoinLayout layout;
  HashImpl hash_impl = HashImpl::kSwiss;
  bool built = false;
  bool left_open = false;
  bool right_open = false;

  // Row mode (legacy): per-key vectors of materialized right rows.
  VecKeyMap<std::vector<Row>> build;
  Row left_row;
  const std::vector<Row>* matches = nullptr;
  size_t match_index = 0;
  std::vector<VarValue> probe_key;

  // Batch mode. The build side is drained into a row-major arena chained per
  // key in insertion order, then compacted into a column-major arena where
  // every key's matches are contiguous: the head maps then hold
  // (start, count) ranges, so probe emission is constant fills, contiguous
  // column copies, and one vectorizable multiply over the measure run.
  std::optional<PackedKeyCodec> codec;
  MulOp mul_op = MulOp::kGeneric;
  size_t right_arity = 0;
  size_t arena_rows = 0;
  std::vector<VarValue> arena_cols;     // column-major, stride arena_rows
  std::vector<double> arena_measures;   // aligned with arena_cols rows
  PackedMap<std::pair<uint32_t, uint32_t>> packed_heads;
  VecKeyMap<std::pair<uint32_t, uint32_t>> vec_heads;
  // Perfect-index head "map": when the packed-key universe is small enough
  // (catalog domains are fixed per epoch), (start, count) ranges live in a
  // dense array indexed by the packed key itself — collision-free probes
  // with no hashing at all.
  bool mph_indexes = true;
  bool dense = false;
  std::vector<std::pair<uint32_t, uint32_t>> dense_heads;
  std::vector<std::pair<size_t, size_t>> out_left_cols;   // (out col, left col)
  std::vector<std::pair<size_t, size_t>> out_right_cols;  // (out col, right col)
  ProbeCursor probe;  // the serial consumer's probe state
  std::vector<VarValue> key_vals;
  std::vector<const VarValue*> key_cols;

  // Resource governance. `memory` covers the in-memory build state; when the
  // budget is hit both sides are partitioned to disk (Grace-style) and the
  // partitions are joined pairwise, one resident partition at a time
  // (`part_memory`).
  MemoryGuard memory;
  MemoryGuard part_memory;
  bool spilling = false;
  std::vector<std::unique_ptr<SpillFile>> right_parts;
  std::vector<std::unique_ptr<SpillFile>> left_parts;
  size_t cur_part = 0;
  bool part_loaded = false;
  size_t left_arity = 0;
  std::vector<VarValue> spill_row;
};

HashProductJoin::~HashProductJoin() = default;

HashProductJoin::HashProductJoin(OperatorPtr left, OperatorPtr right,
                                 Semiring semiring, const Catalog* catalog,
                                 HashImpl hash_impl, bool mph_indexes)
    : left_(std::move(left)),
      right_(std::move(right)),
      semiring_(semiring),
      catalog_(catalog),
      hash_impl_(hash_impl),
      mph_indexes_(mph_indexes) {
  schema_ = MakeJoinLayout(left_->output_schema(), right_->output_schema()).schema;
}

Status HashProductJoin::Open() {
  impl_ = std::make_unique<Impl>();
  impl_->layout = MakeJoinLayout(left_->output_schema(), right_->output_schema());
  impl_->hash_impl = hash_impl_;
  impl_->mph_indexes = mph_indexes_;
  impl_->build = VecKeyMap<std::vector<Row>>(hash_impl_);
  impl_->packed_heads = PackedMap<std::pair<uint32_t, uint32_t>>(hash_impl_, 16);
  impl_->vec_heads = VecKeyMap<std::pair<uint32_t, uint32_t>>(hash_impl_);
  impl_->memory.Bind(ctx_);
  impl_->memory.set_stats(stats_);
  impl_->part_memory.Bind(ctx_);
  return Status::Ok();
}

Status HashProductJoin::BuildRows() {
  Impl& st = *impl_;
  const size_t nkeys = st.layout.shared.size();
  const size_t right_arity = right_->output_schema().arity();
  MPFDB_RETURN_IF_ERROR(right_->Open());
  st.right_open = true;
  Row row;
  std::vector<VarValue> key(nkeys);
  // Accounting is chunked: footprints accumulate locally and hit the
  // governor every kChargeChunkBytes, so the common path costs one add per
  // row instead of a Charge call. The budget can transiently be overshot by
  // at most one chunk before the spill kicks in.
  constexpr size_t kChargeChunkBytes = 32 * 1024;
  size_t uncharged_bytes = 0;
  while (true) {
    MPFDB_RETURN_IF_ERROR(PollContext());
    auto has = right_->Next(&row);
    if (!has.ok()) return Annotate(has.status(), "HashProductJoin: build side");
    if (!*has) break;
    for (size_t k = 0; k < nkeys; ++k) {
      key[k] = row.vars[st.layout.shared_right[k]];
    }
    if (st.spilling) {
      MPFDB_RETURN_IF_ERROR(st.right_parts[SpillPartOf(KeyHash()(key))]->Append(
          row.vars.data(), row.measure));
      continue;
    }
    uncharged_bytes += MaterializedRowFootprint(row) + kHashEntryOverhead;
    Status charge = Status::Ok();
    if (uncharged_bytes >= kChargeChunkBytes) {
      charge = st.memory.Charge(uncharged_bytes, "HashProductJoin: build side");
      uncharged_bytes = 0;
    }
    if (charge.ok()) {
      st.build.FindOrInsert(key, {}).first->push_back(row);
      continue;
    }
    if (ctx_ == nullptr || !ctx_->spill_enabled()) return charge;
    // Budget hit: flush the build table to key-hash partitions and keep
    // routing the rest of the build side straight to disk.
    MPFDB_ASSIGN_OR_RETURN(st.right_parts,
                           MakeSpillPartitions(ctx_, right_arity));
    if (stats_ != nullptr) stats_->spill_partitions = st.right_parts.size();
    Status flush = Status::Ok();
    st.build.ForEach([&](const std::vector<VarValue>& k,
                         const std::vector<Row>& rows) {
      if (!flush.ok()) return;
      SpillFile& part = *st.right_parts[SpillPartOf(KeyHash()(k))];
      for (const Row& r : rows) {
        flush = part.Append(r.vars.data(), r.measure);
        if (!flush.ok()) return;
      }
    });
    MPFDB_RETURN_IF_ERROR(flush);
    st.build.clear();
    st.memory.ReleaseAll();
    st.spilling = true;
    MPFDB_RETURN_IF_ERROR(st.right_parts[SpillPartOf(KeyHash()(key))]->Append(
        row.vars.data(), row.measure));
  }
  right_->Close();
  st.right_open = false;
  // Record the sub-chunk tail so stats stay honest; it is at most one chunk,
  // matching the documented transient overshoot, so it is not worth a spill.
  if (!st.spilling && uncharged_bytes > 0) {
    st.memory.ChargeUnchecked(uncharged_bytes);
  }

  MPFDB_RETURN_IF_ERROR(left_->Open());
  st.left_open = true;
  st.probe_key.resize(nkeys);
  if (!st.spilling) return Status::Ok();

  // Partition the probe side by the same key hash so each partition pair can
  // be joined independently in NextSpill.
  st.left_arity = left_->output_schema().arity();
  MPFDB_ASSIGN_OR_RETURN(st.left_parts, MakeSpillPartitions(ctx_, st.left_arity));
  if (stats_ != nullptr) stats_->spill_partitions = st.left_parts.size();
  Row lrow;
  while (true) {
    MPFDB_RETURN_IF_ERROR(PollContext());
    auto has = left_->Next(&lrow);
    if (!has.ok()) return Annotate(has.status(), "HashProductJoin: probe side");
    if (!*has) break;
    for (size_t k = 0; k < nkeys; ++k) {
      st.probe_key[k] = lrow.vars[st.layout.shared_left[k]];
    }
    MPFDB_RETURN_IF_ERROR(
        st.left_parts[SpillPartOf(KeyHash()(st.probe_key))]->Append(
            lrow.vars.data(), lrow.measure));
  }
  left_->Close();
  st.left_open = false;
  return Status::Ok();
}

Status HashProductJoin::BuildBatches() {
  Impl& st = *impl_;
  const size_t nkeys = st.layout.shared.size();
  st.codec = MakeCodecFor(catalog_, st.layout.shared);
  st.mul_op = MulOpFor(semiring_);
  st.right_arity = right_->output_schema().arity();
  st.key_vals.resize(nkeys);
  st.key_cols.resize(nkeys);
  for (size_t c = 0; c < st.layout.schema.arity(); ++c) {
    if (st.layout.out_from_left[c] != kNpos) {
      st.out_left_cols.emplace_back(c, st.layout.out_from_left[c]);
    } else {
      st.out_right_cols.emplace_back(c, st.layout.out_from_right[c]);
    }
  }

  // Drain the right child into a columnar staging copy. With a packed-key
  // codec the drain stages only (column appends plus one EncodeColumnar per
  // batch — no hash work at all); grouping happens afterwards as a counting
  // sort. Without a codec, rows with equal keys are linked into
  // insertion-ordered chains (head/tail per key) as before.
  MPFDB_RETURN_IF_ERROR(right_->Open());
  st.right_open = true;
  std::vector<std::vector<VarValue>> staging_cols(st.right_arity);
  std::vector<double> staging_measures;
  std::vector<uint64_t> staged_keys;  // packed key per staged row (codec only)
  std::vector<uint32_t> next_row;     // insertion chains (vector keys only)
  // Presizing the staging vectors skips their doubling reallocations.
  auto reserve_staging = [&](size_t rows) {
    for (auto& col : staging_cols) col.reserve(rows);
    staging_measures.reserve(rows);
    if (st.codec) staged_keys.reserve(rows);
  };
  // A packed-key universe of <= 2^16 slots is cheap unconditionally, so the
  // dense perfect index is committed before the drain and counts piggyback
  // on each batch's just-encoded (cache-hot) keys. Larger universes are
  // decided after the drain, when the staged row count is known.
  if (st.codec && st.mph_indexes && st.codec->total_bits() <= 16) {
    const size_t universe = size_t{1} << st.codec->total_bits();
    if (st.memory
            .Charge(universe * sizeof(std::pair<uint32_t, uint32_t>),
                    "HashProductJoin: build side")
            .ok()) {
      st.dense = true;
      st.dense_heads.assign(universe, {0, 0});
    }
  }
  RowBatch batch;
  st.spill_row.resize(st.right_arity);
  size_t charged_bytes = 0;
  const size_t staged_row_bytes = st.right_arity * sizeof(VarValue) +
                                  sizeof(double) + sizeof(uint64_t);
  // Flushes the staged build rows to key-hash partitions and frees the
  // staging state; after this the drain loop routes rows straight to disk.
  auto spill_staged = [&]() -> Status {
    MPFDB_ASSIGN_OR_RETURN(st.right_parts,
                           MakeSpillPartitions(ctx_, st.right_arity));
    if (stats_ != nullptr) stats_->spill_partitions = st.right_parts.size();
    std::vector<VarValue> key(nkeys);
    const size_t staged = staging_measures.size();
    for (size_t r = 0; r < staged; ++r) {
      for (size_t k = 0; k < nkeys; ++k) {
        key[k] = staging_cols[st.layout.shared_right[k]][r];
      }
      for (size_t c = 0; c < st.right_arity; ++c) {
        st.spill_row[c] = staging_cols[c][r];
      }
      MPFDB_RETURN_IF_ERROR(st.right_parts[SpillPartOf(KeyHash()(key))]->Append(
          st.spill_row.data(), staging_measures[r]));
    }
    for (auto& col : staging_cols) std::vector<VarValue>().swap(col);
    std::vector<double>().swap(staging_measures);
    std::vector<uint64_t>().swap(staged_keys);
    std::vector<uint32_t>().swap(next_row);
    st.packed_heads = PackedMap<std::pair<uint32_t, uint32_t>>(st.hash_impl, 16);
    st.vec_heads.clear();
    st.dense = false;
    std::vector<std::pair<uint32_t, uint32_t>>().swap(st.dense_heads);
    st.memory.ReleaseAll();
    charged_bytes = 0;
    st.spilling = true;
    return Status::Ok();
  };
  auto process_batch = [&](const RowBatch& batch) -> Status {
    const size_t n = batch.num_rows();
    MPFDB_RETURN_IF_ERROR(PollContext(n));
    for (size_t k = 0; k < nkeys; ++k) {
      st.key_cols[k] = batch.col(st.layout.shared_right[k]);
    }
    if (st.spilling) {
      const double* measures = batch.measures();
      for (size_t r = 0; r < n; ++r) {
        for (size_t k = 0; k < nkeys; ++k) st.key_vals[k] = st.key_cols[k][r];
        for (size_t c = 0; c < st.right_arity; ++c) {
          st.spill_row[c] = batch.col(c)[r];
        }
        MPFDB_RETURN_IF_ERROR(
            st.right_parts[SpillPartOf(KeyHash()(st.key_vals))]->Append(
                st.spill_row.data(), measures[r]));
      }
      return Status::Ok();
    }
    const size_t base = staging_measures.size();
    for (size_t c = 0; c < st.right_arity; ++c) {
      const VarValue* col = batch.col(c);
      staging_cols[c].insert(staging_cols[c].end(), col, col + n);
    }
    staging_measures.insert(staging_measures.end(), batch.measures(),
                            batch.measures() + n);
    if (st.codec) {
      staged_keys.resize(base + n);
      if (!st.codec->EncodeColumnar(st.key_cols.data(), n,
                                    staged_keys.data() + base)) {
        return PackedDomainViolation("HashProductJoin");
      }
      if (st.dense) {
        const uint64_t* keys = staged_keys.data() + base;
        for (size_t r = 0; r < n; ++r) ++st.dense_heads[keys[r]].second;
      }
    } else {
      next_row.resize(base + n, kNoChain);
      for (size_t r = 0; r < n; ++r) {
        const uint32_t idx = static_cast<uint32_t>(base + r);
        for (size_t k = 0; k < nkeys; ++k) st.key_vals[k] = st.key_cols[k][r];
        auto [slot, inserted] =
            st.vec_heads.FindOrInsert(st.key_vals, {idx, idx});
        if (!inserted) {
          next_row[slot->second] = idx;
          slot->second = idx;
        }
      }
    }
    // Charge the staged rows plus head-map growth (the codec path builds
    // its heads after the drain and charges them there); on budget breach
    // flush everything staged so far to the partitions and degrade.
    const size_t heads_bytes =
        st.codec ? 0
                 : st.vec_heads.size() *
                       (kHashEntryOverhead + RowFootprint(nkeys));
    const size_t total_bytes =
        staging_measures.size() * staged_row_bytes + heads_bytes;
    if (total_bytes > charged_bytes) {
      Status charge = st.memory.Charge(total_bytes - charged_bytes,
                                       "HashProductJoin: build side");
      if (!charge.ok()) {
        if (ctx_ == nullptr || !ctx_->spill_enabled()) return charge;
        MPFDB_RETURN_IF_ERROR(spill_staged());
      } else {
        charged_bytes = total_bytes;
      }
    }
    return Status::Ok();
  };
  // Parallel pre-drain of the build side when a pool is available and the
  // build volume spans more than one morsel: morsel streams of the right
  // child buffer their batches per stream, and the buffered batches replay
  // through process_batch in stream order — exactly the serial staging
  // order, so chaining and compaction stay byte-for-byte deterministic. Only
  // the (usually dominant) production of build rows runs in parallel;
  // hash-table insertion stays single-threaded.
  bool drained_parallel = false;
  ThreadPool* pool = PoolOf(ctx_);
  size_t build_morsels = 1;
  if (pool != nullptr) {
    build_morsels =
        MorselCount(right_->MorselSourceRows(), pool->num_threads());
  }
  if (build_morsels > 1 && right_->SupportsMorselStreams()) {
    auto streams_or = right_->MakeMorselStreams(build_morsels);
    if (!streams_or.ok()) {
      // A budget breach while materializing a blocking child falls back to
      // the serial drain (which degrades to spill); real errors propagate.
      if (streams_or.status().code() != StatusCode::kResourceExhausted ||
          ctx_ == nullptr || !ctx_->spill_enabled()) {
        return streams_or.status();
      }
    } else if (!streams_or->empty()) {
      std::vector<OperatorPtr>& streams = *streams_or;
      const size_t num_morsels = streams.size();
      std::vector<std::vector<RowBatch>> buffered(num_morsels);
      std::deque<MemoryGuard> guards;
      for (size_t i = 0; i < num_morsels; ++i) guards.emplace_back(ctx_);
      const size_t batch_row_bytes =
          st.right_arity * sizeof(VarValue) + sizeof(double);
      Status drain = pool->ParallelFor(num_morsels, [&](size_t i) -> Status {
        PhysicalOperator& stream = *streams[i];
        stream.BindContext(ctx_);
        Status opened = stream.Open();
        if (!opened.ok()) {
          stream.Close();
          return Annotate(opened, "HashProductJoin: build side");
        }
        RowBatch b;
        Status result = Status::Ok();
        while (true) {
          auto has = stream.NextBatch(&b);
          if (!has.ok()) {
            result = Annotate(has.status(), "HashProductJoin: build side");
            break;
          }
          if (!*has) break;
          const size_t n = b.num_rows();
          if (ctx_ != nullptr) {
            result = ctx_->Poll(n);
            if (!result.ok()) break;
          }
          result = guards[i].Charge(n * batch_row_bytes,
                                    "HashProductJoin: build side");
          if (!result.ok()) break;
          buffered[i].push_back(std::move(b));
          b = RowBatch();
        }
        stream.Close();
        return result;
      });
      if (drain.ok()) {
        size_t rows = 0;
        for (const auto& chunk : buffered) {
          for (const RowBatch& b : chunk) rows += b.num_rows();
        }
        reserve_staging(rows);
        for (auto& chunk : buffered) {
          for (RowBatch& b : chunk) MPFDB_RETURN_IF_ERROR(process_batch(b));
        }
        drained_parallel = true;
      } else if (drain.code() != StatusCode::kResourceExhausted ||
                 ctx_ == nullptr || !ctx_->spill_enabled()) {
        return drain;
      }
      // On kResourceExhausted the buffered batches and their reservations
      // are dropped here and the untouched right_ child drains serially,
      // degrading to a Grace-style spill as usual.
    }
  }
  if (!drained_parallel) {
    // Scans and filters report their source cardinality, an upper bound on
    // the rows they yield.
    reserve_staging(right_->MorselSourceRows());
    while (true) {
      auto has = right_->NextBatch(&batch);
      if (!has.ok()) {
        return Annotate(has.status(), "HashProductJoin: build side");
      }
      if (!*has) break;
      MPFDB_RETURN_IF_ERROR(process_batch(batch));
    }
  }
  right_->Close();
  st.right_open = false;

  // Codec path: group the staged rows now that the drain is done. Count the
  // rows per key — either into a dense array indexed by the packed key
  // itself (small domains; collision-free probes with zero hash work) or
  // into the head hash map, assigning dense ids as keys first appear — and
  // remember each row's group so compaction is a pure counting-sort scatter.
  std::vector<uint32_t> staged_ids;   // per-row head id (codec hash path)
  std::vector<uint32_t> head_counts;  // rows per head id (codec hash path)
  if (!st.spilling && st.codec) {
    const size_t total = staging_measures.size();
    const size_t bits = st.codec->total_bits();
    // Universes above the pre-drain 2^16 threshold are worth a dense index
    // only when the staged row count amortizes them (counts then need a
    // second pass over the staged keys).
    if (!st.dense && st.mph_indexes && bits > 16 && bits <= 24 &&
        (size_t{1} << bits) <= total * 8) {
      const size_t universe = size_t{1} << bits;
      Status charge =
          st.memory.Charge(universe * sizeof(std::pair<uint32_t, uint32_t>),
                           "HashProductJoin: build side");
      if (charge.ok()) {  // the perfect index is optional; hash on breach
        st.dense = true;
        st.dense_heads.assign(universe, {0, 0});
        for (size_t r = 0; r < total; ++r) {
          ++st.dense_heads[staged_keys[r]].second;
        }
      }
    }
    if (!st.dense) {
      staged_ids.resize(total);
      for (size_t r = 0; r < total; ++r) {
        auto [slot, inserted] = st.packed_heads.FindOrInsert(
            staged_keys[r], {static_cast<uint32_t>(head_counts.size()), 0});
        if (inserted) head_counts.push_back(0);
        ++head_counts[slot->first];
        staged_ids[r] = slot->first;
      }
      Status charge =
          st.memory.Charge(st.packed_heads.size() * kPackedAggEntryBytes,
                           "HashProductJoin: build side");
      if (!charge.ok()) {
        if (ctx_ == nullptr || !ctx_->spill_enabled()) return charge;
        MPFDB_RETURN_IF_ERROR(spill_staged());
      }
    }
  }
  if (!st.spilling) {
    // The columnar arena briefly coexists with the staging copy; charge it
    // before allocating so the peak is accounted. A breach here still
    // degrades cleanly — the staged rows all flush to disk.
    Status charge = st.memory.Charge(
        staging_measures.size() *
            (st.right_arity * sizeof(VarValue) + sizeof(double)),
        "HashProductJoin: build side");
    if (!charge.ok()) {
      if (ctx_ == nullptr || !ctx_->spill_enabled()) return charge;
      MPFDB_RETURN_IF_ERROR(spill_staged());
    }
  }
  if (st.spilling) {
    MPFDB_RETURN_IF_ERROR(left_->Open());
    st.left_open = true;
    // Partition the probe side by the same key hash so each partition pair
    // can be joined independently in NextBatchSpill.
    st.left_arity = left_->output_schema().arity();
    MPFDB_ASSIGN_OR_RETURN(st.left_parts,
                           MakeSpillPartitions(ctx_, st.left_arity));
    if (stats_ != nullptr) stats_->spill_partitions = st.left_parts.size();
    st.spill_row.resize(std::max(st.spill_row.size(), st.left_arity));
    RowBatch lbatch;
    while (true) {
      auto lhas = left_->NextBatch(&lbatch);
      if (!lhas.ok()) {
        return Annotate(lhas.status(), "HashProductJoin: probe side");
      }
      if (!*lhas) break;
      const size_t n = lbatch.num_rows();
      MPFDB_RETURN_IF_ERROR(PollContext(n));
      const double* measures = lbatch.measures();
      for (size_t r = 0; r < n; ++r) {
        for (size_t k = 0; k < nkeys; ++k) {
          st.key_vals[k] = lbatch.col(st.layout.shared_left[k])[r];
        }
        for (size_t c = 0; c < st.left_arity; ++c) {
          st.spill_row[c] = lbatch.col(c)[r];
        }
        MPFDB_RETURN_IF_ERROR(
            st.left_parts[SpillPartOf(KeyHash()(st.key_vals))]->Append(
                st.spill_row.data(), measures[r]));
      }
    }
    left_->Close();
    st.left_open = false;
    return Status::Ok();
  }

  // Compact the staging copy so each key's rows are contiguous (preserving
  // their insertion order) and column-major; the heads switch to
  // (start, count) ranges. The codec path is a counting sort: prefix-sum
  // the per-key counts into starts, compute every row's destination with
  // the starts as bump cursors, then scatter column by column. The
  // vector-key path walks its insertion chains as before.
  const size_t total = staging_measures.size();
  st.arena_rows = total;
  st.arena_cols.resize(total * st.right_arity);
  st.arena_measures.resize(total);
  if (st.codec) {
    std::vector<uint32_t> row_pos(total);
    if (st.dense) {
      uint32_t pos = 0;
      for (auto& h : st.dense_heads) {
        h.first = pos;
        pos += h.second;
      }
      for (size_t r = 0; r < total; ++r) {
        row_pos[r] = st.dense_heads[staged_keys[r]].first++;
      }
      for (auto& h : st.dense_heads) h.first -= h.second;
    } else {
      std::vector<uint32_t> starts(head_counts.size());
      uint32_t pos = 0;
      for (size_t id = 0; id < head_counts.size(); ++id) {
        starts[id] = pos;
        pos += head_counts[id];
      }
      for (size_t r = 0; r < total; ++r) row_pos[r] = starts[staged_ids[r]]++;
      for (size_t id = 0; id < head_counts.size(); ++id) {
        starts[id] -= head_counts[id];
      }
      st.packed_heads.ForEachMutable(
          [&](uint64_t, std::pair<uint32_t, uint32_t>& payload) {
            const uint32_t id = payload.first;
            payload = {starts[id], head_counts[id]};
          });
    }
    for (size_t c = 0; c < st.right_arity; ++c) {
      const VarValue* src = staging_cols[c].data();
      VarValue* dst = st.arena_cols.data() + c * total;
      for (size_t r = 0; r < total; ++r) dst[row_pos[r]] = src[r];
    }
    for (size_t r = 0; r < total; ++r) {
      st.arena_measures[row_pos[r]] = staging_measures[r];
    }
  } else {
    size_t pos = 0;
    st.vec_heads.ForEachMutable([&](const std::vector<VarValue>&,
                                    std::pair<uint32_t, uint32_t>& payload) {
      const size_t start = pos;
      for (uint32_t idx = payload.first; idx != kNoChain; idx = next_row[idx]) {
        for (size_t c = 0; c < st.right_arity; ++c) {
          st.arena_cols[c * total + pos] = staging_cols[c][idx];
        }
        st.arena_measures[pos] = staging_measures[idx];
        ++pos;
      }
      payload = {static_cast<uint32_t>(start),
                 static_cast<uint32_t>(pos - start)};
    });
  }
  MPFDB_RETURN_IF_ERROR(left_->Open());
  st.left_open = true;
  return Status::Ok();
}

StatusOr<bool> HashProductJoin::Next(Row* row) {
  Impl& st = *impl_;
  if (!st.built) {
    MPFDB_RETURN_IF_ERROR(BuildRows());
    st.built = true;
  }
  if (st.spilling) return NextSpill(row);
  while (true) {
    MPFDB_RETURN_IF_ERROR(PollContext());
    if (st.matches != nullptr && st.match_index < st.matches->size()) {
      const Row& right_row = (*st.matches)[st.match_index++];
      const JoinLayout& layout = st.layout;
      row->vars.resize(layout.schema.arity());
      for (size_t c = 0; c < row->vars.size(); ++c) {
        row->vars[c] = layout.out_from_left[c] != kNpos
                           ? st.left_row.vars[layout.out_from_left[c]]
                           : right_row.vars[layout.out_from_right[c]];
      }
      row->measure = semiring_.Multiply(st.left_row.measure, right_row.measure);
      return true;
    }
    // Advance to the next probing left row.
    auto has = left_->Next(&st.left_row);
    if (!has.ok()) return Annotate(has.status(), "HashProductJoin: probe side");
    if (!*has) return false;
    for (size_t k = 0; k < st.probe_key.size(); ++k) {
      st.probe_key[k] = st.left_row.vars[st.layout.shared_left[k]];
    }
    st.matches = st.build.Find(st.probe_key);
    st.match_index = 0;
  }
}

StatusOr<bool> HashProductJoin::NextSpill(Row* row) {
  Impl& st = *impl_;
  const JoinLayout& layout = st.layout;
  while (true) {
    MPFDB_RETURN_IF_ERROR(PollContext());
    if (st.matches != nullptr && st.match_index < st.matches->size()) {
      const Row& right_row = (*st.matches)[st.match_index++];
      row->vars.resize(layout.schema.arity());
      for (size_t c = 0; c < row->vars.size(); ++c) {
        row->vars[c] = layout.out_from_left[c] != kNpos
                           ? st.left_row.vars[layout.out_from_left[c]]
                           : right_row.vars[layout.out_from_right[c]];
      }
      row->measure = semiring_.Multiply(st.left_row.measure, right_row.measure);
      return true;
    }
    if (st.cur_part >= kSpillPartitions) return false;
    if (!st.part_loaded) {
      // Rebuild the hash table from this partition's build rows.
      st.build.clear();
      st.part_memory.ReleaseAll();
      SpillFile& rp = *st.right_parts[st.cur_part];
      MPFDB_RETURN_IF_ERROR(rp.Rewind());
      if (ctx_ != nullptr) ctx_->RecordSpill(rp.num_rows(), rp.bytes_written());
      Row rec;
      rec.vars.resize(right_->output_schema().arity());
      std::vector<VarValue> key(layout.shared.size());
      while (true) {
        MPFDB_RETURN_IF_ERROR(PollContext());
        MPFDB_ASSIGN_OR_RETURN(bool has,
                               rp.Next(rec.vars.data(), &rec.measure));
        if (!has) break;
        for (size_t k = 0; k < key.size(); ++k) {
          key[k] = rec.vars[layout.shared_right[k]];
        }
        st.part_memory.ChargeUnchecked(MaterializedRowFootprint(rec) +
                                       kHashEntryOverhead);
        st.build.FindOrInsert(key, {}).first->push_back(rec);
      }
      MPFDB_RETURN_IF_ERROR(st.left_parts[st.cur_part]->Rewind());
      if (ctx_ != nullptr) {
        ctx_->RecordSpill(st.left_parts[st.cur_part]->num_rows(),
                          st.left_parts[st.cur_part]->bytes_written());
      }
      st.part_loaded = true;
    }
    // Pull the next probe row of this partition.
    st.left_row.vars.resize(st.left_arity);
    MPFDB_ASSIGN_OR_RETURN(
        bool has, st.left_parts[st.cur_part]->Next(st.left_row.vars.data(),
                                                   &st.left_row.measure));
    if (!has) {
      st.right_parts[st.cur_part].reset();
      st.left_parts[st.cur_part].reset();
      ++st.cur_part;
      st.part_loaded = false;
      st.matches = nullptr;
      continue;
    }
    for (size_t k = 0; k < st.probe_key.size(); ++k) {
      st.probe_key[k] = st.left_row.vars[layout.shared_left[k]];
    }
    st.matches = st.build.Find(st.probe_key);
    st.match_index = 0;
  }
}

StatusOr<bool> HashProductJoin::NextBatch(RowBatch* out) {
  Impl& st = *impl_;
  if (!st.built) {
    MPFDB_RETURN_IF_ERROR(BuildBatches());
    st.built = true;
  }
  if (st.spilling) return NextBatchSpill(out);
  return JoinProbeNextBatch(st, st.probe, *left_, semiring_, ctx_, out);
}

Status HashProductJoin::LoadSpillPartition() {
  Impl& st = *impl_;
  const size_t nkeys = st.layout.shared.size();
  SpillFile& rp = *st.right_parts[st.cur_part];
  MPFDB_RETURN_IF_ERROR(rp.Rewind());
  if (ctx_ != nullptr) ctx_->RecordSpill(rp.num_rows(), rp.bytes_written());
  // Same staging-then-compact build as BuildBatches, restricted to one
  // partition. Probing uses vec_heads: partitioning hashed decoded keys, so
  // the packed codec plays no role on the spill path.
  const size_t total = static_cast<size_t>(rp.num_rows());
  std::vector<VarValue> staging_vars(total * st.right_arity);
  std::vector<double> staging_measures(total);
  std::vector<uint32_t> next_row(total, kNoChain);
  st.vec_heads.clear();
  std::vector<VarValue> key(nkeys);
  for (size_t r = 0; r < total; ++r) {
    MPFDB_ASSIGN_OR_RETURN(
        bool has,
        rp.Next(staging_vars.data() + r * st.right_arity, &staging_measures[r]));
    if (!has) return Status::Internal("spill partition shorter than expected");
    const VarValue* src = staging_vars.data() + r * st.right_arity;
    for (size_t k = 0; k < nkeys; ++k) key[k] = src[st.layout.shared_right[k]];
    const uint32_t idx = static_cast<uint32_t>(r);
    auto [slot, inserted] = st.vec_heads.FindOrInsert(key, {idx, idx});
    if (!inserted) {
      next_row[slot->second] = idx;
      slot->second = idx;
    }
  }
  MPFDB_RETURN_IF_ERROR(PollContext(total));
  st.arena_rows = total;
  st.arena_cols.assign(total * st.right_arity, 0);
  st.arena_measures.assign(total, 0.0);
  size_t pos = 0;
  st.vec_heads.ForEachMutable([&](const std::vector<VarValue>&,
                                  std::pair<uint32_t, uint32_t>& payload) {
    const size_t start = pos;
    for (uint32_t idx = payload.first; idx != kNoChain; idx = next_row[idx]) {
      const VarValue* src =
          staging_vars.data() + static_cast<size_t>(idx) * st.right_arity;
      for (size_t c = 0; c < st.right_arity; ++c) {
        st.arena_cols[c * total + pos] = src[c];
      }
      st.arena_measures[pos] = staging_measures[idx];
      ++pos;
    }
    payload = {static_cast<uint32_t>(start),
               static_cast<uint32_t>(pos - start)};
  });
  st.part_memory.ReleaseAll();
  st.part_memory.ChargeUnchecked(
      total * (st.right_arity * sizeof(VarValue) + sizeof(double)));
  MPFDB_RETURN_IF_ERROR(st.left_parts[st.cur_part]->Rewind());
  if (ctx_ != nullptr) {
    ctx_->RecordSpill(st.left_parts[st.cur_part]->num_rows(),
                      st.left_parts[st.cur_part]->bytes_written());
  }
  st.part_loaded = true;
  return Status::Ok();
}

StatusOr<bool> HashProductJoin::NextBatchSpill(RowBatch* out) {
  Impl& st = *impl_;
  ProbeCursor& pc = st.probe;
  const JoinLayout& layout = st.layout;
  const size_t nkeys = layout.shared.size();
  out->Prepare(layout.schema.arity());
  while (!out->full()) {
    if (pc.match_off < pc.match_len) {
      EmitJoinRunSlice(st, pc, semiring_, out);
      continue;
    }
    if (pc.left_pos >= pc.left_batch.num_rows()) {
      if (st.cur_part >= kSpillPartitions) break;
      if (!st.part_loaded) MPFDB_RETURN_IF_ERROR(LoadSpillPartition());
      // Refill the probe batch from the current partition's probe run.
      pc.left_batch.Prepare(st.left_arity);
      size_t n = 0;
      double measure = 0.0;
      while (n < kBatchSize) {
        MPFDB_ASSIGN_OR_RETURN(
            bool has,
            st.left_parts[st.cur_part]->Next(st.spill_row.data(), &measure));
        if (!has) break;
        pc.left_batch.AppendRow(st.spill_row.data(), measure);
        ++n;
      }
      MPFDB_RETURN_IF_ERROR(PollContext(n == 0 ? 1 : n));
      if (n == 0) {
        st.right_parts[st.cur_part].reset();
        st.left_parts[st.cur_part].reset();
        ++st.cur_part;
        st.part_loaded = false;
        continue;
      }
      pc.left_pos = 0;
      continue;
    }
    pc.cur_left = pc.left_pos++;
    pc.match_off = 0;
    pc.match_len = 0;
    for (size_t k = 0; k < nkeys; ++k) {
      st.key_vals[k] = pc.left_batch.col(layout.shared_left[k])[pc.cur_left];
    }
    auto* range = st.vec_heads.Find(st.key_vals);
    if (range != nullptr) {
      pc.match_start = range->first;
      pc.match_len = range->second;
    }
  }
  return !out->empty();
}

size_t HashProductJoin::MorselSourceRows() const {
  const bool built = impl_ != nullptr && impl_->built;
  return left_->MorselSourceRows() +
         (built ? impl_->arena_rows : right_->MorselSourceRows());
}

StatusOr<std::vector<OperatorPtr>> HashProductJoin::MakeMorselStreams(
    size_t n) {
  Impl& st = *impl_;
  // Vending streams forces the blocking build, exactly as the first
  // NextBatch pull would. Afterwards the head maps and arena are frozen:
  // each stream probes them through a private cursor over a disjoint range
  // of the left child, so concatenating stream outputs in index order
  // reproduces the serial probe output.
  if (!st.built) {
    MPFDB_RETURN_IF_ERROR(BuildBatches());
    st.built = true;
  }
  // The spill path rebuilds per-partition state as it probes; that is
  // inherently sequential, so a degraded join drains serially.
  if (st.spilling) return std::vector<OperatorPtr>{};
  MPFDB_ASSIGN_OR_RETURN(std::vector<OperatorPtr> left_streams,
                         left_->MakeMorselStreams(n));
  std::vector<OperatorPtr> streams;
  streams.reserve(left_streams.size());
  for (auto& ls : left_streams) {
    streams.push_back(std::make_unique<HashJoinProbeStream<Impl>>(
        st, std::move(ls), semiring_));
  }
  return streams;
}

void HashProductJoin::Close() {
  if (impl_) {
    if (impl_->left_open) left_->Close();
    if (impl_->right_open) right_->Close();
  }
  impl_.reset();
}

// --- SortMergeProductJoin ----------------------------------------------------

struct SortMergeProductJoin::Impl {
  JoinLayout layout;
  MemoryGuard memory;
  bool drained = false;
  // Row mode: materialized, stable-sorted inputs.
  std::vector<Row> left_rows;
  std::vector<Row> right_rows;
  // Batch mode: flat row-major arenas plus stable-sorted row index orders
  // (the cursors below then index into l_order/r_order instead of the row
  // vectors — same comparator, same stability, same merge sequence).
  size_t l_arity = 0, r_arity = 0;
  std::vector<VarValue> l_vars, r_vars;
  std::vector<double> l_measures, r_measures;
  std::vector<size_t> l_order, r_order;
  size_t li = 0, ri = 0;
  // Current matching run on both sides (half-open): rows with equal keys.
  size_t l_end = 0, r_end = 0;
  size_t l_cursor = 0, r_cursor = 0;
  bool in_run = false;
};

SortMergeProductJoin::~SortMergeProductJoin() = default;

SortMergeProductJoin::SortMergeProductJoin(OperatorPtr left, OperatorPtr right,
                                           Semiring semiring,
                                           bool left_presorted,
                                           bool right_presorted)
    : left_(std::move(left)),
      right_(std::move(right)),
      semiring_(semiring),
      left_presorted_(left_presorted),
      right_presorted_(right_presorted) {
  schema_ = MakeJoinLayout(left_->output_schema(), right_->output_schema()).schema;
}

Status SortMergeProductJoin::Open() {
  impl_ = std::make_unique<Impl>();
  impl_->layout = MakeJoinLayout(left_->output_schema(), right_->output_schema());
  impl_->memory.Bind(ctx_);
  impl_->memory.set_stats(stats_);
  // Inputs are drained on the first pull (Next or NextBatch), not here, so
  // the batch path can drain both children vectorized.
  MPFDB_RETURN_IF_ERROR(left_->Open());
  return right_->Open();
}

// Row-mode drain: materialize both inputs and stable-sort them on the shared
// variables. Stability keeps equal-key rows in arrival order, which makes
// the run emission a key-restricted subsequence of hash join's output (see
// the class comment). A presorted side (interesting-order reuse) skips its
// sort — a stable sort of sorted input is the identity permutation.
Status SortMergeProductJoin::DrainRows() {
  Impl& st = *impl_;
  Status drained = DrainChild(*left_, &st.left_rows, &st.memory,
                              "SortMergeProductJoin: left input");
  left_->Close();
  MPFDB_RETURN_IF_ERROR(drained);
  drained = DrainChild(*right_, &st.right_rows, &st.memory,
                       "SortMergeProductJoin: right input");
  right_->Close();
  MPFDB_RETURN_IF_ERROR(drained);

  auto sorter = [](const std::vector<size_t>& keys) {
    return [&keys](const Row& a, const Row& b) {
      for (size_t k : keys) {
        if (a.vars[k] != b.vars[k]) return a.vars[k] < b.vars[k];
      }
      return false;
    };
  };
  if (!left_presorted_) {
    std::stable_sort(st.left_rows.begin(), st.left_rows.end(),
                     sorter(st.layout.shared_left));
  }
  if (!right_presorted_) {
    std::stable_sort(st.right_rows.begin(), st.right_rows.end(),
                     sorter(st.layout.shared_right));
  }
  return Status::Ok();
}

// Batch-mode drain: pull both children through NextBatch into arenas and
// stable-sort row indices with the same comparator as the row path, so both
// drive modes merge rows in the same order and produce identical bits.
Status SortMergeProductJoin::DrainBatches() {
  Impl& st = *impl_;
  st.l_arity = left_->output_schema().arity();
  st.r_arity = right_->output_schema().arity();
  Status drained = DrainToArenaBatches(*left_, &st.l_vars, &st.l_measures,
                                       &st.memory,
                                       "SortMergeProductJoin: left input");
  left_->Close();
  MPFDB_RETURN_IF_ERROR(drained);
  drained = DrainToArenaBatches(*right_, &st.r_vars, &st.r_measures,
                                &st.memory,
                                "SortMergeProductJoin: right input");
  right_->Close();
  MPFDB_RETURN_IF_ERROR(drained);

  auto sort_indices = [](std::vector<size_t>* order, size_t count,
                         const std::vector<VarValue>& vars, size_t arity,
                         const std::vector<size_t>& keys, bool presorted) {
    order->resize(count);
    for (size_t i = 0; i < count; ++i) (*order)[i] = i;
    if (presorted) return;
    std::stable_sort(order->begin(), order->end(), [&](size_t a, size_t b) {
      const VarValue* ra = vars.data() + a * arity;
      const VarValue* rb = vars.data() + b * arity;
      for (size_t k : keys) {
        if (ra[k] != rb[k]) return ra[k] < rb[k];
      }
      return false;
    });
  };
  sort_indices(&st.l_order, st.l_measures.size(), st.l_vars, st.l_arity,
               st.layout.shared_left, left_presorted_);
  sort_indices(&st.r_order, st.r_measures.size(), st.r_vars, st.r_arity,
               st.layout.shared_right, right_presorted_);
  return Status::Ok();
}

StatusOr<bool> SortMergeProductJoin::Next(Row* row) {
  Impl& st = *impl_;
  if (!st.drained) {
    MPFDB_RETURN_IF_ERROR(DrainRows());
    st.drained = true;
  }
  const JoinLayout& layout = st.layout;
  auto compare_keys = [&](const Row& l, const Row& r) {
    for (size_t k = 0; k < layout.shared.size(); ++k) {
      VarValue lv = l.vars[layout.shared_left[k]];
      VarValue rv = r.vars[layout.shared_right[k]];
      if (lv != rv) return lv < rv ? -1 : 1;
    }
    return 0;
  };

  while (true) {
    MPFDB_RETURN_IF_ERROR(PollContext());
    if (st.in_run) {
      if (st.r_cursor < st.r_end) {
        const Row& l = st.left_rows[st.l_cursor];
        const Row& r = st.right_rows[st.r_cursor++];
        row->vars.resize(layout.schema.arity());
        for (size_t c = 0; c < row->vars.size(); ++c) {
          row->vars[c] = layout.out_from_left[c] != kNpos
                             ? l.vars[layout.out_from_left[c]]
                             : r.vars[layout.out_from_right[c]];
        }
        row->measure = semiring_.Multiply(l.measure, r.measure);
        return true;
      }
      // Advance to next left row in the run.
      ++st.l_cursor;
      st.r_cursor = st.ri;
      if (st.l_cursor >= st.l_end) {
        st.in_run = false;
        st.li = st.l_end;
        st.ri = st.r_end;
      }
      continue;
    }
    if (st.li >= st.left_rows.size() || st.ri >= st.right_rows.size()) {
      return false;
    }
    int cmp = compare_keys(st.left_rows[st.li], st.right_rows[st.ri]);
    if (cmp < 0) {
      ++st.li;
    } else if (cmp > 0) {
      ++st.ri;
    } else {
      // Find the extent of the equal-key run on both sides.
      st.l_end = st.li + 1;
      while (st.l_end < st.left_rows.size() &&
             compare_keys(st.left_rows[st.l_end], st.right_rows[st.ri]) == 0) {
        ++st.l_end;
      }
      st.r_end = st.ri + 1;
      while (st.r_end < st.right_rows.size() &&
             compare_keys(st.left_rows[st.li], st.right_rows[st.r_end]) == 0) {
        ++st.r_end;
      }
      st.l_cursor = st.li;
      st.r_cursor = st.ri;
      st.in_run = true;
    }
  }
}

StatusOr<bool> SortMergeProductJoin::NextBatch(RowBatch* out) {
  Impl& st = *impl_;
  if (!st.drained) {
    MPFDB_RETURN_IF_ERROR(DrainBatches());
    st.drained = true;
  }
  const JoinLayout& layout = st.layout;
  const size_t arity = layout.schema.arity();
  out->Prepare(arity);

  auto lrow = [&](size_t i) {
    return st.l_vars.data() + st.l_order[i] * st.l_arity;
  };
  auto rrow = [&](size_t i) {
    return st.r_vars.data() + st.r_order[i] * st.r_arity;
  };
  auto compare_keys = [&](const VarValue* l, const VarValue* r) {
    for (size_t k = 0; k < layout.shared.size(); ++k) {
      VarValue lv = l[layout.shared_left[k]];
      VarValue rv = r[layout.shared_right[k]];
      if (lv != rv) return lv < rv ? -1 : 1;
    }
    return 0;
  };

  std::vector<VarValue*> cols(arity);
  for (size_t c = 0; c < arity; ++c) cols[c] = out->col(c);
  double* measures = out->measures();
  size_t emitted = 0;
  // Same merge automaton as the row path, over sorted index arrays: the
  // (l_cursor, r_cursor) visit sequence is identical, so the batch engine
  // emits exactly the row engine's output.
  while (emitted < kBatchSize) {
    if (st.in_run) {
      if (st.r_cursor < st.r_end) {
        const VarValue* l = lrow(st.l_cursor);
        const VarValue* r = rrow(st.r_cursor);
        for (size_t c = 0; c < arity; ++c) {
          cols[c][emitted] = layout.out_from_left[c] != kNpos
                                 ? l[layout.out_from_left[c]]
                                 : r[layout.out_from_right[c]];
        }
        measures[emitted] =
            semiring_.Multiply(st.l_measures[st.l_order[st.l_cursor]],
                               st.r_measures[st.r_order[st.r_cursor]]);
        ++st.r_cursor;
        ++emitted;
        continue;
      }
      ++st.l_cursor;
      st.r_cursor = st.ri;
      if (st.l_cursor >= st.l_end) {
        st.in_run = false;
        st.li = st.l_end;
        st.ri = st.r_end;
      }
      continue;
    }
    if (st.li >= st.l_order.size() || st.ri >= st.r_order.size()) break;
    int cmp = compare_keys(lrow(st.li), rrow(st.ri));
    if (cmp < 0) {
      ++st.li;
    } else if (cmp > 0) {
      ++st.ri;
    } else {
      st.l_end = st.li + 1;
      while (st.l_end < st.l_order.size() &&
             compare_keys(lrow(st.l_end), rrow(st.ri)) == 0) {
        ++st.l_end;
      }
      st.r_end = st.ri + 1;
      while (st.r_end < st.r_order.size() &&
             compare_keys(lrow(st.li), rrow(st.r_end)) == 0) {
        ++st.r_end;
      }
      st.l_cursor = st.li;
      st.r_cursor = st.ri;
      st.in_run = true;
    }
  }
  MPFDB_RETURN_IF_ERROR(PollContext(emitted == 0 ? 1 : emitted));
  out->set_num_rows(emitted);
  return emitted > 0;
}

void SortMergeProductJoin::Close() { impl_.reset(); }

// --- NestedLoopProductJoin ---------------------------------------------------

NestedLoopProductJoin::NestedLoopProductJoin(OperatorPtr left, OperatorPtr right,
                                             Semiring semiring)
    : left_(std::move(left)), right_(std::move(right)), semiring_(semiring) {
  JoinLayout layout = MakeJoinLayout(left_->output_schema(), right_->output_schema());
  schema_ = layout.schema;
  shared_left_ = layout.shared_left;
  shared_right_ = layout.shared_right;
  out_from_left_ = layout.out_from_left;
  out_from_right_ = layout.out_from_right;
}

Status NestedLoopProductJoin::Open() {
  left_vars_.clear();
  right_vars_.clear();
  left_measures_.clear();
  right_measures_.clear();
  left_arity_ = left_->output_schema().arity();
  right_arity_ = right_->output_schema().arity();
  memory_.Bind(ctx_);
  memory_.set_stats(stats_);
  MPFDB_RETURN_IF_ERROR(left_->Open());
  Status drained = DrainToArena(*left_, &left_vars_, &left_measures_, &memory_,
                                "NestedLoopProductJoin: left input");
  left_->Close();
  MPFDB_RETURN_IF_ERROR(drained);
  MPFDB_RETURN_IF_ERROR(right_->Open());
  drained = DrainToArena(*right_, &right_vars_, &right_measures_, &memory_,
                         "NestedLoopProductJoin: right input");
  right_->Close();
  MPFDB_RETURN_IF_ERROR(drained);
  i_ = 0;
  j_ = 0;
  return Status::Ok();
}

StatusOr<bool> NestedLoopProductJoin::Next(Row* row) {
  const size_t num_left = left_measures_.size();
  const size_t num_right = right_measures_.size();
  while (i_ < num_left) {
    // One poll per outer row, weighted by the inner-side cardinality so the
    // deadline check keeps up with the quadratic work.
    if (j_ == 0) {
      MPFDB_RETURN_IF_ERROR(PollContext(num_right == 0 ? 1 : num_right));
    }
    const VarValue* l = left_vars_.data() + i_ * left_arity_;
    while (j_ < num_right) {
      const VarValue* r = right_vars_.data() + j_ * right_arity_;
      const double right_measure = right_measures_[j_];
      ++j_;
      bool match = true;
      for (size_t k = 0; k < shared_left_.size(); ++k) {
        if (l[shared_left_[k]] != r[shared_right_[k]]) {
          match = false;
          break;
        }
      }
      if (!match) continue;
      row->vars.resize(schema_.arity());
      for (size_t c = 0; c < row->vars.size(); ++c) {
        row->vars[c] = out_from_left_[c] != kNpos ? l[out_from_left_[c]]
                                                  : r[out_from_right_[c]];
      }
      row->measure = semiring_.Multiply(left_measures_[i_], right_measure);
      return true;
    }
    j_ = 0;
    ++i_;
  }
  return false;
}

void NestedLoopProductJoin::Close() {
  left_vars_.clear();
  right_vars_.clear();
  left_measures_.clear();
  right_measures_.clear();
  memory_.ReleaseAll();
}

}  // namespace mpfdb::exec
