// The workload interface mpfbench (main.cc) runs, and the
// instrumented query decomposition shared by the in-process workloads.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_core.h"
#include "core/database.h"

namespace perfbench {

// One operation's outcome. `seconds` is the latency of the timed call(s)
// only; answer checks run outside it. `wrong` marks a result that failed its
// check (the run then reports "correct": false).
struct OpOutcome {
  bool ok = false;
  bool wrong = false;
  double seconds = 0;
  std::string error;
};

// Running sums for per-layer means (name -> sum, count).
class Accum {
 public:
  void Add(const std::string& name, double value) {
    auto& [sum, n] = sums_[name];
    sum += value;
    ++n;
  }
  double Mean(const std::string& name) const {
    auto it = sums_.find(name);
    return it == sums_.end() || it->second.second == 0
               ? 0
               : it->second.first / static_cast<double>(it->second.second);
  }
  double Sum(const std::string& name) const {
    auto it = sums_.find(name);
    return it == sums_.end() ? 0 : it->second.first;
  }

 private:
  std::map<std::string, std::pair<double, uint64_t>> sums_;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Op type names, indexed by OpStream::types; `side_type()` is the class
  // reported as side_p50_ref.
  virtual std::vector<std::string> op_types() const = 0;
  virtual uint8_t side_type() const = 0;

  // Builds an instance (data, views, caches, servers) and its tables of
  // distinct ops. Timed as setup_s; Teardown, which releases an earlier
  // instance, is not.
  virtual mpfdb::Status Setup(uint64_t seed) = 0;
  virtual void Teardown() = 0;
  // Checks the answers of every distinct operation before timing.
  virtual mpfdb::Status Check() = 0;
  // Re-checks after timing (state the op stream may have changed).
  virtual mpfdb::Status FinalCheck() { return mpfdb::Status::Ok(); }

  // The seeded op stream over the op tables Setup built; empty if Setup has
  // not run.
  virtual OpStream Stream(uint64_t seed, size_t n) const = 0;
  // Runs one op; with a tracer, runs its traced decomposition and records
  // the layer spans and counters into `layers`.
  virtual OpOutcome Run(uint8_t type, uint32_t param, Tracer* tracer,
                        Accum* layers) = 0;

  // Cumulative counters of the library's own stats (plan cache, MVCC, net),
  // read between phases; per-layer metrics use their deltas.
  virtual std::map<std::string, double> Counters() const { return {}; }
  // Set-up time parts (e.g. VE-cache build) of the last Setup, in ms.
  virtual std::map<std::string, double> SetupParts() const { return {}; }

  // The fixed d4 6-cycle quality probe, shared by every workload.
  static mpfdb::StatusOr<double> BoundGapProbe();
};

std::unique_ptr<Workload> MakeDecisionSupport();
std::unique_ptr<Workload> MakeBnServed();
std::unique_ptr<Workload> MakeCyclicApprox();

// Optimize -> PlanPhysical -> ExecutePhysical against the database's current
// snapshot, the public-API decomposition of a Database::Query plan-cache
// miss. With `analyze`, execution runs through ExecuteAnalyze and the
// per-operator self times, row counts and memory land in `layers`. Spans go
// to `tracer` (may be null).
mpfdb::StatusOr<mpfdb::TablePtr> DecomposedQuery(
    mpfdb::Database& db, const std::string& view,
    const mpfdb::MpfQuerySpec& spec, const std::string& optimizer,
    bool analyze, Tracer* tracer, Accum* layers);

// The shared plan cache's hit, miss and eviction counters.
std::map<std::string, double> PlanCacheCounters(const mpfdb::Database& db);

// Wall time of `fn` as an OpOutcome, with `fn`'s status folded in.
template <typename Fn>
OpOutcome TimeCall(Fn&& fn) {
  OpOutcome out;
  const auto start = Clock::now();
  mpfdb::Status status = fn();
  out.seconds = SecondsBetween(start, Clock::now());
  out.ok = status.ok();
  if (!out.ok) out.error = status.ToString();
  return out;
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
