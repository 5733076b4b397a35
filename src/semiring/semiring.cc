#include "semiring/semiring.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/strings.h"

namespace mpfdb {

StatusOr<Semiring> Semiring::FromName(const std::string& name) {
  std::string lower = ToLower(name);
  if (lower == "sum_product" || lower == "sum") return SumProduct();
  if (lower == "min_sum" || lower == "min") return MinSum();
  if (lower == "max_sum" || lower == "max") return MaxSum();
  if (lower == "max_product") return MaxProduct();
  if (lower == "bool_or_and" || lower == "or") return BoolOrAnd();
  if (lower == "log_sum_product" || lower == "logsum") return LogSumProduct();
  return Status::InvalidArgument("unknown semiring: " + name);
}

std::string Semiring::name() const {
  switch (kind_) {
    case SemiringKind::kSumProduct:
      return "sum_product";
    case SemiringKind::kMinSum:
      return "min_sum";
    case SemiringKind::kMaxSum:
      return "max_sum";
    case SemiringKind::kMaxProduct:
      return "max_product";
    case SemiringKind::kBoolOrAnd:
      return "bool_or_and";
    case SemiringKind::kLogSumProduct:
      return "log_sum_product";
  }
  return "unknown";
}

std::string Semiring::aggregate_name() const {
  switch (kind_) {
    case SemiringKind::kSumProduct:
      return "SUM";
    case SemiringKind::kMinSum:
      return "MIN";
    case SemiringKind::kMaxSum:
    case SemiringKind::kMaxProduct:
      return "MAX";
    case SemiringKind::kBoolOrAnd:
      return "OR";
    case SemiringKind::kLogSumProduct:
      return "LOGSUM";
  }
  return "AGG";
}

double Semiring::LogSumExp(double a, double b) {
  if (a == -std::numeric_limits<double>::infinity()) return b;
  if (b == -std::numeric_limits<double>::infinity()) return a;
  double hi = std::max(a, b);
  double lo = std::min(a, b);
  return hi + std::log1p(std::exp(lo - hi));
}

double Semiring::AddIdentity() const {
  switch (kind_) {
    case SemiringKind::kSumProduct:
      return 0.0;
    case SemiringKind::kMinSum:
      return std::numeric_limits<double>::infinity();
    case SemiringKind::kMaxSum:
      return -std::numeric_limits<double>::infinity();
    case SemiringKind::kMaxProduct:
      return 0.0;
    case SemiringKind::kBoolOrAnd:
      return 0.0;
    case SemiringKind::kLogSumProduct:
      return -std::numeric_limits<double>::infinity();
  }
  return 0.0;
}

double Semiring::MultiplyIdentity() const {
  switch (kind_) {
    case SemiringKind::kSumProduct:
    case SemiringKind::kMaxProduct:
    case SemiringKind::kBoolOrAnd:
      return 1.0;
    case SemiringKind::kMinSum:
    case SemiringKind::kMaxSum:
    case SemiringKind::kLogSumProduct:
      return 0.0;
  }
  return 1.0;
}

bool Semiring::HasDivision() const {
  switch (kind_) {
    case SemiringKind::kSumProduct:
    case SemiringKind::kMinSum:
    case SemiringKind::kMaxSum:
    case SemiringKind::kMaxProduct:
    case SemiringKind::kLogSumProduct:
      return true;
    case SemiringKind::kBoolOrAnd:
      return false;
  }
  return false;
}

double Semiring::Divide(double a, double b) const {
  switch (kind_) {
    case SemiringKind::kSumProduct:
    case SemiringKind::kMaxProduct:
      // By convention 0/0 = 0: a zero product-join contribution stays zero,
      // which is the standard Belief Propagation treatment of zero messages.
      if (b == 0.0) return 0.0;
      return a / b;
    case SemiringKind::kMinSum:
    case SemiringKind::kMaxSum:
    case SemiringKind::kLogSumProduct:
      return a - b;
    case SemiringKind::kBoolOrAnd:
      return a;  // No inverse; callers must check HasDivision().
  }
  return a;
}

}  // namespace mpfdb
