#ifndef MPFDB_EXEC_BATCH_H_
#define MPFDB_EXEC_BATCH_H_

#include <bit>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "storage/schema.h"

namespace mpfdb::exec {

// Rows per RowBatch. Sized so one batch's columns plus measures stay well
// inside L2 for typical arities while amortizing the per-batch virtual call.
inline constexpr size_t kBatchSize = 1024;

// Fixed-capacity columnar batch of rows flowing between operators: one flat VarValue buffer holding `arity` columns of
// kBatchSize values each (column stride kBatchSize) plus a contiguous
// measure vector. Producers overwrite the batch in place, so its contents
// are only valid until the producer's next NextBatch call.
class RowBatch {
 public:
  // Sets the batch to `arity` columns and zero rows. Buffers are reused when
  // the arity is unchanged, so a steady-state pipeline never allocates here.
  void Prepare(size_t arity) {
    if (arity_ != arity || measures_.size() != kBatchSize) {
      arity_ = arity;
      var_data_.resize(arity * kBatchSize);
      measures_.resize(kBatchSize);
    }
    num_rows_ = 0;
  }

  size_t arity() const { return arity_; }
  size_t num_rows() const { return num_rows_; }
  bool empty() const { return num_rows_ == 0; }
  bool full() const { return num_rows_ == kBatchSize; }
  void set_num_rows(size_t n) { num_rows_ = n; }

  VarValue* col(size_t c) { return var_data_.data() + c * kBatchSize; }
  const VarValue* col(size_t c) const {
    return var_data_.data() + c * kBatchSize;
  }
  double* measures() { return measures_.data(); }
  const double* measures() const { return measures_.data(); }

  // Appends one row given in row-major order (index gathers, spill reads).
  void AppendRow(const VarValue* vars, double measure) {
    for (size_t c = 0; c < arity_; ++c) col(c)[num_rows_] = vars[c];
    measures_[num_rows_] = measure;
    ++num_rows_;
  }

 private:
  size_t arity_ = 0;
  size_t num_rows_ = 0;
  std::vector<VarValue> var_data_;  // column-major, stride kBatchSize
  std::vector<double> measures_;
};

// Packs a composite categorical key into a single uint64 when the catalog's
// domain statistics show every component fits: a variable with domain size D
// occupies bit_width(D - 1) bits. The first variable lands in the most
// significant bits, so comparing packed keys as integers reproduces the
// lexicographic order of the decoded tuples — HashMarginalize relies on this
// for its deterministic output order.
class PackedKeyCodec {
 public:
  // Builds a codec for key components with the given domain sizes, or
  // nullopt when the total bit width exceeds 64 (callers then fall back to
  // the std::vector<VarValue> key representation).
  static std::optional<PackedKeyCodec> Make(
      const std::vector<int64_t>& domains) {
    std::vector<uint8_t> bits;
    bits.reserve(domains.size());
    size_t total = 0;
    for (int64_t d : domains) {
      if (d <= 0) return std::nullopt;
      uint8_t b = static_cast<uint8_t>(
          std::bit_width(static_cast<uint64_t>(d - 1)));
      bits.push_back(b);
      total += b;
    }
    if (total > 64) return std::nullopt;
    PackedKeyCodec codec;
    codec.bits_ = std::move(bits);
    codec.shifts_.resize(codec.bits_.size());
    size_t shift = total;
    for (size_t i = 0; i < codec.bits_.size(); ++i) {
      shift -= codec.bits_[i];
      codec.shifts_[i] = static_cast<uint8_t>(shift);
    }
    return codec;
  }

  size_t num_vars() const { return bits_.size(); }

  // Total packed width: every encoded key is < 2^total_bits(), which lets
  // small-domain callers swap the head hash map for a dense array indexed
  // directly by the packed key.
  size_t total_bits() const {
    size_t total = 0;
    for (uint8_t b : bits_) total += b;
    return total;
  }

  // Packs vals[0..num_vars). Returns false if a value falls outside its bit
  // budget — data violating the catalog's declared domain contract.
  bool Encode(const VarValue* vals, uint64_t* key) const {
    uint64_t packed = 0;
    uint32_t overflow = 0;
    for (size_t i = 0; i < bits_.size(); ++i) {
      uint32_t v = static_cast<uint32_t>(vals[i]);
      overflow |= bits_[i] >= 32 ? 0u : (v >> bits_[i]);
      packed |= static_cast<uint64_t>(v) << shifts_[i];
    }
    *key = packed;
    return overflow == 0;
  }

  // Columnar Encode: packs `n` keys whose i-th components live in cols[i].
  // Returns false if any value overflows its bit budget. The column-major
  // loop lets the compiler vectorize the shift-and-or per component.
  bool EncodeColumnar(const VarValue* const* cols, size_t n,
                      uint64_t* keys) const {
    if (bits_.empty()) {
      for (size_t r = 0; r < n; ++r) keys[r] = 0;
      return true;
    }
    uint32_t overflow = 0;
    for (size_t i = 0; i < bits_.size(); ++i) {
      const VarValue* col = cols[i];
      const uint8_t shift = shifts_[i];
      const uint8_t bits = bits_[i];
      if (i == 0) {
        for (size_t r = 0; r < n; ++r) {
          uint32_t v = static_cast<uint32_t>(col[r]);
          overflow |= bits >= 32 ? 0u : (v >> bits);
          keys[r] = static_cast<uint64_t>(v) << shift;
        }
      } else {
        for (size_t r = 0; r < n; ++r) {
          uint32_t v = static_cast<uint32_t>(col[r]);
          overflow |= bits >= 32 ? 0u : (v >> bits);
          keys[r] |= static_cast<uint64_t>(v) << shift;
        }
      }
    }
    return overflow == 0;
  }

  // XOR-mask with each component's sign bit set. For full-width (32-bit)
  // components — the catalog-free fallback layout — unsigned comparison of
  // (key ^ mask) reproduces the signed lexicographic order of the decoded
  // tuples, so callers can sort raw integers instead of decoded vectors.
  uint64_t SignFlipMask() const {
    uint64_t mask = 0;
    for (size_t i = 0; i < bits_.size(); ++i) {
      mask |= 1ull << (shifts_[i] + bits_[i] - 1);
    }
    return mask;
  }

  void Decode(uint64_t key, VarValue* vals) const {
    for (size_t i = 0; i < bits_.size(); ++i) {
      uint64_t mask =
          bits_[i] >= 64 ? ~0ull : (1ull << bits_[i]) - 1;
      vals[i] = static_cast<VarValue>((key >> shifts_[i]) & mask);
    }
  }

 private:
  PackedKeyCodec() = default;

  std::vector<uint8_t> bits_;
  std::vector<uint8_t> shifts_;
};

// Finalizer-style mixer (splitmix64). Packed keys are near-dense integers,
// so they need real mixing before masking to a power-of-two table.
struct PackedKeyHash {
  size_t operator()(uint64_t x) const {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return static_cast<size_t>(x);
  }
};

}  // namespace mpfdb::exec

#endif  // MPFDB_EXEC_BATCH_H_
