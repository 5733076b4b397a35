// Benchmark-owned building blocks that never call into mpfdb: sample
// statistics, the span tracer, the drift reference kernel, and the seeded
// generators the workloads draw their operation streams from. Kept free of
// library dependencies so the unit tests (tests/bench_core_test.cc) pin
// their behaviour and so a library speed-up can never move the reference.

#ifndef PERFBENCH_BENCH_CORE_H_
#define PERFBENCH_BENCH_CORE_H_

#include <atomic>
#include <barrier>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- Statistics --------------------------------------------------------------

// Median of `values` (mean of the two middle values for even counts); 0 for
// an empty input. Takes a copy so callers keep their sample order.
double Median(std::vector<double> values);

// A tail percentile that keeps at least `min_beyond` samples strictly above
// the reported rank: the sample at rank ceil(q * n) - 1 when that leaves
// min_beyond samples beyond it, else the sample at rank n - 1 - min_beyond
// (a lower percentile). `beyond` receives the number of samples past the
// reported one; 0 for fewer than min_beyond + 1 samples (then the maximum is
// returned).
double TailPercentile(std::vector<double> values, double q, size_t min_beyond,
                      size_t* beyond);

// Normalises a duration (seconds) to a reference-kernel duration.
inline double InRefUnits(double seconds, double ref_seconds) {
  return ref_seconds > 0 ? seconds / ref_seconds : 0;
}

// Divides each op's latency by the reference duration around its slice:
// the mean of the reference pass before slice s (pass_ref[s]) and the one
// after it (pass_ref[s + 1]). The machine's speed drifts within a run, so a
// reference taken next to the ops it normalises tracks it far better than
// one run-wide figure. Infinite latencies (failed ops) stay infinite.
std::vector<double> NormaliseBySlice(const std::vector<double>& seconds,
                                     const std::vector<uint32_t>& slice,
                                     const std::vector<double>& pass_ref);

// --- Reference kernel --------------------------------------------------------

// A fixed, allocation-free unit of the work the workloads spend their time
// on: build an open-addressed hash table (2 x `keys` slots), probe it with
// 2 x `keys` keys and fold the matches into 1024 groups. The input comes
// from a fixed seed; Run() only writes preallocated memory.
class RefKernel {
 public:
  explicit RefKernel(size_t keys);
  // One timed pass; returns its duration in seconds. The checksum is kept so
  // the work cannot be optimised away.
  double Run();
  uint64_t checksum() const { return checksum_; }

 private:
  std::vector<uint64_t> keys_;    // build side
  std::vector<uint64_t> table_;   // open-addressed keys, 0 = empty
  std::vector<double> weights_;   // parallel to table_
  std::vector<uint64_t> probes_;  // probe side, half present
  std::vector<double> groups_;
  size_t slots_ = 0;
  uint64_t checksum_ = 0;
};

// Runs, on every hardware thread at the same moment, the reference kernel
// (64k keys, 2 MiB of table) and then an eviction pass (256k keys, 14 MiB
// per thread) whose time is not used. The benchmark runs a pass between
// measurement slices, never while an operation is outstanding, and divides
// each op's latency by the reference durations around its slice.
//  - On a shared VM each vCPU's speed drifts on its own by up to 25% over
//    seconds, so the reference is the mean over all vCPUs, not one thread.
//  - The eviction pass makes every slice start from the same cold caches
//    instead of whatever the previous slice left behind; without it the
//    run-to-run spread of decision_support's p50 was three times larger.
class RefPool {
 public:
  explicit RefPool(unsigned threads);
  ~RefPool();
  RefPool(const RefPool&) = delete;
  RefPool& operator=(const RefPool&) = delete;

  // One synchronized pass; returns the mean reference duration (seconds).
  double Run();
  unsigned threads() const { return static_cast<unsigned>(kernels_.size()); }

 private:
  void Worker(size_t index);

  std::vector<RefKernel> kernels_;
  std::vector<RefKernel> evictors_;
  std::vector<double> last_;
  std::atomic<bool> stop_{false};
  std::barrier<> start_;
  std::barrier<> finish_;
  std::vector<std::thread> workers_;  // last: joined before the rest dies
};

// --- Tracing -----------------------------------------------------------------

// One recorded span: a layer name, the operation it belongs to, its parent
// span (-1 for an operation's root) and its interval.
struct Span {
  const char* layer = "";
  const char* name = "";
  uint32_t op = 0;
  int32_t parent = -1;
  Clock::time_point start;
  Clock::time_point end;
};

// Records spans in memory (reserved up front) around calls into the library.
// Scope opens a span whose parent is the innermost open span. Self time of a
// span is its duration minus the part of it its direct children cover.
class Tracer {
 public:
  explicit Tracer(size_t reserve = 0) { spans_.reserve(reserve); }

  class Scope {
   public:
    Scope(Tracer* tracer, const char* layer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int32_t index_ = -1;
    int32_t saved_parent_ = -1;
  };

  void set_op(uint32_t op) { op_ = op; }
  const std::vector<Span>& spans() const { return spans_; }

  // Per-layer self time in seconds, summed over every span.
  std::map<std::string, double> LayerSelfSeconds() const;
  // Summed duration of the spans named `name`, and their count.
  double NamedSeconds(const std::string& name, size_t* count) const;

  // Appends a span directly (tests and replayed intervals).
  int32_t Add(const char* layer, const char* name, int32_t parent,
              Clock::time_point start, Clock::time_point end);

 private:
  std::vector<Span> spans_;
  int32_t open_ = -1;
  uint32_t op_ = 0;
};

// Self time of every span in `spans` (seconds, same order): duration minus
// the union of its direct children's intervals clipped to it.
std::vector<double> SpanSelfSeconds(const std::vector<Span>& spans);

// --- Seeded generators ------------------------------------------------------

// SplitMix64: a tiny, fully specified generator, so streams are identical
// across standard libraries (std::uniform_*_distribution is not).
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  // Uniform integer in [0, n).
  uint64_t Below(uint64_t n);
  // Uniform double in [0, 1).
  double Unit();

 private:
  uint64_t state_;
};

// Zipf(s) over ranks 0..n-1 by inverse CDF over a precomputed table: rank k
// is drawn with probability proportional to 1 / (k + 1)^s.
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Draw(SplitMix& rng) const;
  size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

// A seeded operation stream: op i has type types[i] and parameter index
// params[i] (an index into the workload's table of distinct operations of
// that type).
struct OpStream {
  std::vector<uint8_t> types;
  std::vector<uint32_t> params;
};

// Builds `n` ops. `pattern` is the repeating type sequence (e.g. six exact
// reads, three cache reads and one write per ten ops); each op of type t
// draws its parameter from `pickers[t]`. Returns an empty stream when the
// pattern is empty or names a type with no distinct ops to draw from.
struct ParamPicker {
  size_t distinct = 1;  // uniform over [0, distinct) when zipf_s == 0
  double zipf_s = 0;
};
OpStream MakeOpStream(uint64_t seed, size_t n,
                      const std::vector<uint8_t>& pattern,
                      const std::vector<ParamPicker>& pickers);

// --- Process counters -------------------------------------------------------

// VmHWM (peak) and VmRSS (current) of this process in MiB (0 if /proc is
// unavailable).
double PeakRssMiB();
double RssMiB();
// Minor page faults of this process so far.
uint64_t MinorFaults();
// Summed steal ticks over all CPUs from /proc/stat (0 if unavailable).
uint64_t StealTicks();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_CORE_H_
