#include "bench_core.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double TailPercentile(std::vector<double> values, double q, size_t min_beyond,
                      size_t* beyond) {
  *beyond = 0;
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  if (n <= min_beyond) return values.back();
  const double rank = std::ceil(q * static_cast<double>(n));
  size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  idx = std::min(idx, n - 1 - min_beyond);
  *beyond = n - 1 - idx;
  return values[idx];
}

std::vector<double> NormaliseBySlice(const std::vector<double>& seconds,
                                     const std::vector<uint32_t>& slice,
                                     const std::vector<double>& pass_ref) {
  std::vector<double> out(seconds.size());
  for (size_t i = 0; i < seconds.size(); ++i) {
    const size_t s = slice[i];
    const double before = pass_ref[std::min(s, pass_ref.size() - 1)];
    const double after = pass_ref[std::min(s + 1, pass_ref.size() - 1)];
    out[i] = InRefUnits(seconds[i], 0.5 * (before + after));
  }
  return out;
}

// --- RefKernel ---------------------------------------------------------------

namespace {

constexpr size_t kRefKeys = size_t{1} << 16;    // 2 MiB of table
constexpr size_t kEvictKeys = size_t{1} << 18;  // 14 MiB with its inputs
constexpr size_t kRefGroups = 1024;
constexpr uint64_t kRefSeed = 0x5eedf00dULL;

inline uint64_t HashKey(uint64_t key) {
  key ^= key >> 33;
  key *= 0xff51afd7ed558ccdULL;
  key ^= key >> 33;
  return key;
}
}  // namespace

RefKernel::RefKernel(size_t keys)
    : keys_(keys),
      table_(keys * 2, 0),
      weights_(keys * 2, 0.0),
      probes_(keys * 2),
      groups_(kRefGroups, 0.0),
      slots_(keys * 2) {
  SplitMix rng(kRefSeed);
  for (uint64_t& key : keys_) key = rng.Next() | 1;
  for (size_t i = 0; i < probes_.size(); ++i) {
    probes_[i] = i % 2 == 0 ? keys_[rng.Below(keys)] : (rng.Next() | 1);
  }
}

double RefKernel::Run() {
  const auto start = Clock::now();
  // Build: insert every key into the (cleared) open-addressed table.
  std::fill(table_.begin(), table_.end(), 0);
  for (size_t i = 0; i < keys_.size(); ++i) {
    size_t slot = HashKey(keys_[i]) & (slots_ - 1);
    while (table_[slot] != 0) slot = (slot + 1) & (slots_ - 1);
    table_[slot] = keys_[i];
    weights_[slot] = 0.5 + static_cast<double>(i & 255) / 256.0;
  }
  // Probe and fold the matches into a few groups, like a join feeding an
  // aggregation.
  std::fill(groups_.begin(), groups_.end(), 0.0);
  for (uint64_t key : probes_) {
    size_t slot = HashKey(key) & (slots_ - 1);
    while (table_[slot] != 0) {
      if (table_[slot] == key) {
        groups_[key & (kRefGroups - 1)] += weights_[slot];
        break;
      }
      slot = (slot + 1) & (slots_ - 1);
    }
  }
  const double seconds = SecondsBetween(start, Clock::now());
  double total = 0;
  for (double g : groups_) total += g;
  uint64_t bits = 0;
  std::memcpy(&bits, &total, sizeof(bits));
  checksum_ ^= bits;
  return seconds;
}

RefPool::RefPool(unsigned threads)
    : kernels_(std::max(1u, threads), RefKernel(kRefKeys)),
      evictors_(kernels_.size(), RefKernel(kEvictKeys)),
      last_(kernels_.size(), 0.0),
      start_(static_cast<std::ptrdiff_t>(kernels_.size())),
      finish_(static_cast<std::ptrdiff_t>(kernels_.size())) {
  for (size_t i = 1; i < kernels_.size(); ++i) {
    workers_.emplace_back([this, i] { Worker(i); });
  }
}

RefPool::~RefPool() {
  stop_.store(true);
  start_.arrive_and_wait();
  for (std::thread& t : workers_) t.join();
}

void RefPool::Worker(size_t index) {
  while (true) {
    start_.arrive_and_wait();
    if (stop_.load()) return;
    last_[index] = kernels_[index].Run();
    evictors_[index].Run();
    finish_.arrive_and_wait();
  }
}

double RefPool::Run() {
  start_.arrive_and_wait();
  last_[0] = kernels_[0].Run();
  evictors_[0].Run();
  finish_.arrive_and_wait();
  double total = 0;
  for (double d : last_) total += d;
  return total / static_cast<double>(last_.size());
}

// --- Tracer ------------------------------------------------------------------

Tracer::Scope::Scope(Tracer* tracer, const char* layer, const char* name)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  const auto now = Clock::now();
  index_ = tracer_->Add(layer, name, tracer_->open_, now, now);
  saved_parent_ = tracer_->open_;
  tracer_->open_ = index_;
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[static_cast<size_t>(index_)].end = Clock::now();
  tracer_->open_ = saved_parent_;
}

int32_t Tracer::Add(const char* layer, const char* name, int32_t parent,
                    Clock::time_point start, Clock::time_point end) {
  Span span;
  span.layer = layer;
  span.name = name;
  span.op = op_;
  span.parent = parent;
  span.start = start;
  span.end = end;
  spans_.push_back(span);
  return static_cast<int32_t>(spans_.size() - 1);
}

std::vector<double> SpanSelfSeconds(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<Clock::time_point, Clock::time_point>>>
      children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start, s.end);
    }
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0;
    Clock::time_point cursor = s.start;
    for (auto [a, b] : kids) {
      a = std::max(a, cursor);
      b = std::min(b, s.end);
      if (b > a) {
        covered += SecondsBetween(a, b);
        cursor = b;
      }
    }
    self[i] = SecondsBetween(s.start, s.end) - covered;
  }
  return self;
}

std::map<std::string, double> Tracer::LayerSelfSeconds() const {
  std::map<std::string, double> out;
  const std::vector<double> self = SpanSelfSeconds(spans_);
  for (size_t i = 0; i < spans_.size(); ++i) out[spans_[i].layer] += self[i];
  return out;
}

double Tracer::NamedSeconds(const std::string& name, size_t* count) const {
  double total = 0;
  *count = 0;
  for (const Span& s : spans_) {
    if (name == s.name) {
      total += SecondsBetween(s.start, s.end);
      ++*count;
    }
  }
  return total;
}

// --- Generators --------------------------------------------------------------

uint64_t SplitMix::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t SplitMix::Below(uint64_t n) {
  // Multiply-shift range reduction; the bias is far below anything a
  // benchmark stream could observe.
  return static_cast<uint64_t>(
      (static_cast<unsigned __int128>(Next()) * n) >> 64);
}

double SplitMix::Unit() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

Zipf::Zipf(size_t n, double s) : cdf_(n) {
  double total = 0;
  for (size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t Zipf::Draw(SplitMix& rng) const {
  const double u = rng.Unit();
  auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

OpStream MakeOpStream(uint64_t seed, size_t n,
                      const std::vector<uint8_t>& pattern,
                      const std::vector<ParamPicker>& pickers) {
  OpStream stream;
  stream.types.resize(n);
  stream.params.resize(n);
  SplitMix rng(seed);
  std::vector<Zipf> zipfs;
  zipfs.reserve(pickers.size());
  for (const ParamPicker& p : pickers) {
    zipfs.emplace_back(p.zipf_s > 0 ? p.distinct : 1, p.zipf_s);
  }
  // Rotate the pattern by a seeded offset so different seeds do not all
  // start on the same op type.
  for (uint8_t type : pattern) {
    if (type >= pickers.size() || pickers[type].distinct == 0) return {};
  }
  if (pattern.empty()) return {};
  const size_t offset = rng.Below(pattern.size());
  for (size_t i = 0; i < n; ++i) {
    const uint8_t type = pattern[(i + offset) % pattern.size()];
    const ParamPicker& p = pickers[type];
    stream.types[i] = type;
    stream.params[i] = static_cast<uint32_t>(
        p.zipf_s > 0 ? zipfs[type].Draw(rng) : rng.Below(p.distinct));
  }
  return stream;
}

// --- Process counters --------------------------------------------------------

namespace {
double StatusFieldMiB(const char* field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const size_t len = std::strlen(field);
  while (std::getline(status, line)) {
    if (line.compare(0, len, field) == 0) {
      std::istringstream in(line.substr(len));
      double kib = 0;
      in >> kib;
      return kib / 1024.0;
    }
  }
  return 0;
}
}  // namespace

double PeakRssMiB() { return StatusFieldMiB("VmHWM:"); }
double RssMiB() { return StatusFieldMiB("VmRSS:"); }

uint64_t MinorFaults() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<uint64_t>(usage.ru_minflt);
}

uint64_t StealTicks() {
  std::ifstream stat("/proc/stat");
  std::string label;
  uint64_t user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0,
           softirq = 0, steal = 0;
  if (!(stat >> label) || label != "cpu") return 0;
  stat >> user >> nice >> system >> idle >> iowait >> irq >> softirq >> steal;
  return steal;
}

}  // namespace perfbench
