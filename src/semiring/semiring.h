#ifndef MPFDB_SEMIRING_SEMIRING_H_
#define MPFDB_SEMIRING_SEMIRING_H_

#include <algorithm>
#include <string>

#include "util/status.h"

namespace mpfdb {

// The commutative semirings over which MPF queries are defined (Section 2 of
// the paper). A semiring supplies the "additive" operation used by the
// marginalizing GroupBy aggregate and the "multiplicative" operation used by
// the product join. Measures are stored as double regardless of semiring; the
// boolean semiring uses 0.0 / 1.0.
enum class SemiringKind {
  // (R, +, *): SUM aggregate, product join. Probabilistic inference.
  kSumProduct = 0,
  // (R ∪ {+inf}, min, +): MIN aggregate, additive join. Shortest-path /
  // cheapest-configuration decision support ("minimum investment").
  kMinSum,
  // (R ∪ {-inf}, max, +): MAX aggregate, additive join.
  kMaxSum,
  // ([0, inf), max, *): MAX aggregate, product join. MPE / Viterbi.
  kMaxProduct,
  // ({0,1}, or, and): logical satisfiability / reachability.
  kBoolOrAnd,
  // Sum-product in log space: measures are log-probabilities, Multiply is
  // +, Add is log-sum-exp. Isomorphic to kSumProduct but numerically stable
  // for long products of small probabilities (large Bayesian networks).
  kLogSumProduct,
};

// Runtime semiring descriptor. Cheap value type; Add and Multiply are
// branchy but defined here, so the executor's hot loops inline their
// switches (only log-sum-exp calls out of line).
class Semiring {
 public:
  explicit Semiring(SemiringKind kind) : kind_(kind) {}

  static Semiring SumProduct() { return Semiring(SemiringKind::kSumProduct); }
  static Semiring MinSum() { return Semiring(SemiringKind::kMinSum); }
  static Semiring MaxSum() { return Semiring(SemiringKind::kMaxSum); }
  static Semiring MaxProduct() { return Semiring(SemiringKind::kMaxProduct); }
  static Semiring BoolOrAnd() { return Semiring(SemiringKind::kBoolOrAnd); }
  static Semiring LogSumProduct() {
    return Semiring(SemiringKind::kLogSumProduct);
  }

  // Parses "sum_product", "min_sum", "max_sum", "max_product" or
  // "bool_or_and" (aliases: "sum", "min", "max", "or").
  static StatusOr<Semiring> FromName(const std::string& name);

  SemiringKind kind() const { return kind_; }
  std::string name() const;

  // Name of the additive aggregate as it appears in queries (SUM/MIN/MAX/OR).
  std::string aggregate_name() const;

  // The additive (marginalization) operation.
  double Add(double a, double b) const {
    switch (kind_) {
      case SemiringKind::kSumProduct:
        return a + b;
      case SemiringKind::kMinSum:
        return std::min(a, b);
      case SemiringKind::kMaxSum:
      case SemiringKind::kMaxProduct:
        return std::max(a, b);
      case SemiringKind::kBoolOrAnd:
        return (a != 0.0 || b != 0.0) ? 1.0 : 0.0;
      case SemiringKind::kLogSumProduct:
        return LogSumExp(a, b);
    }
    return 0.0;
  }
  // The multiplicative (product-join) operation.
  double Multiply(double a, double b) const {
    switch (kind_) {
      case SemiringKind::kSumProduct:
      case SemiringKind::kMaxProduct:
        return a * b;
      case SemiringKind::kMinSum:
      case SemiringKind::kMaxSum:
      case SemiringKind::kLogSumProduct:
        return a + b;
      case SemiringKind::kBoolOrAnd:
        return (a != 0.0 && b != 0.0) ? 1.0 : 0.0;
    }
    return 0.0;
  }

  // Identity of Add: the value of an empty aggregate.
  double AddIdentity() const;
  // Identity of Multiply: the implicit measure of a plain relation.
  double MultiplyIdentity() const;

  // True if Add is commutative (a ⊕ b == b ⊕ a as abstract values). Every
  // built-in kind is; the predicate exists so the parallel executor can
  // assert the property it relies on — thread-local pre-aggregation
  // regroups updates for *different* keys relative to the serial schedule,
  // which is only meaning-preserving in a commutative monoid. Per-key
  // combine order is still kept identical to serial for bit-exact floats.
  bool AddIsCommutative() const { return true; }

  // True if folding any multiset of values with Add yields bit-identical
  // results for every argument order — i.e. Add is not just abstractly
  // commutative/associative but exactly reorderable on IEEE doubles. Holds
  // for the min/max-based kinds (min/max are selection, not accumulation;
  // the caveat is only that min/max over mixed ±0.0 or NaN inputs could pick
  // a different representative, which the engine never produces from
  // measures it loads). Sum-based kinds (sum-product, log-sum-product)
  // accumulate with floating-point +, which is famously order-sensitive, so
  // they return false. The physical planner uses this to decide whether a
  // sort-merge join (which reorders emission relative to hash join) is
  // unconditionally admissible.
  bool AddIsOrderInvariant() const {
    switch (kind_) {
      case SemiringKind::kMinSum:
      case SemiringKind::kMaxSum:
      case SemiringKind::kMaxProduct:
      case SemiringKind::kBoolOrAnd:
        return true;
      case SemiringKind::kSumProduct:
      case SemiringKind::kLogSumProduct:
        return false;
    }
    return false;
  }

  // True if folding Add over a *superset* of terms can only move the result
  // up (or keep it): max/or are selection over more candidates, sum and
  // log-sum-exp accumulate more mass. False only for kMinSum, where min over
  // more candidates can only move *down*. This is the orientation the
  // dissociation pass uses: a dissociated plan aggregates a superset of the
  // exact query's assignments, so it bounds the exact answer from above when
  // this is true and from below for kMinSum; a conditioned plan (a subset of
  // assignments) bounds from the opposite side. For kSumProduct the superset
  // guarantee additionally requires non-negative measures — see
  // AddMonotoneNeedsNonNegative().
  bool AddMonotoneNondecreasing() const {
    return kind_ != SemiringKind::kMinSum;
  }

  // True when AddMonotoneNondecreasing()'s superset guarantee only holds for
  // non-negative measures (plain floating-point +, where an extra negative
  // term moves the fold down). The dissociation pass verifies the factors
  // and refuses with kFailedPrecondition otherwise. The other kinds need no
  // check: min/max/or are selections regardless of sign, and
  // log-sum-product's measures are logs of implicitly non-negative weights.
  bool AddMonotoneNeedsNonNegative() const {
    return kind_ == SemiringKind::kSumProduct;
  }

  // True if Multiply has an inverse almost everywhere, which the update
  // semijoin of Belief Propagation requires (Definition 6 of the paper).
  bool HasDivision() const;
  // Inverse of Multiply: Divide(Multiply(a, b), b) == a for b invertible.
  // For min/max-sum this is subtraction; for the boolean semiring it aborts
  // via Status in callers (guard with HasDivision()).
  double Divide(double a, double b) const;

  bool operator==(const Semiring& other) const { return kind_ == other.kind_; }

 private:
  // Stable log(exp(a) + exp(b)), log-sum-product's Add.
  static double LogSumExp(double a, double b);

  SemiringKind kind_;
};

}  // namespace mpfdb

#endif  // MPFDB_SEMIRING_SEMIRING_H_
