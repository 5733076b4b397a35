// mpfbench: runs one named workload from a seed, checks its answers, and
// prints every metric by name with its unit. The last line of stdout is the
// result object; the line before it is the method/info block.
//
//   mpfbench --workload <decision_support|bn_served|cyclic_approx>
//            --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 measures the gated end-to-end metrics untraced, in a closed loop
// with one client, over kSegments freshly set-up instances. --trace 1 spends
// the first third of the time untraced (for the plan-cache hit rate and the
// tracing-overhead base) and the rest on traced decompositions of the same
// op stream, and prints the per-layer metrics. Timed ops are grouped into
// slices; between slices, with no request outstanding, a reference pass
// runs on every vCPU, and each op's latency is divided by the passes around
// its slice. README.md explains the workloads and metrics.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_core.h"
#include "workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

constexpr int kSegments = 5;            // fresh instances per untraced run
constexpr int kSetupsPerSegment = 5;    // setup_s is the median of all
constexpr double kWarmupSeconds = 1.5;  // per instance, before timing
constexpr double kSliceSeconds = 0.2;   // reference pass between slices
constexpr size_t kStreamLength = 1 << 18;
constexpr size_t kMinBeyond = 10;       // samples past the tail percentile
constexpr double kTraceSumTolerance = 0.02;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      args->trace = std::atoi(value);
      if (args->trace != 0 && args->trace != 1) return false;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": " +
           JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(attempted, 1)),
              static_cast<unsigned long long>(failed),
              MetricsJson(metrics).c_str());
  std::fflush(stdout);
}

// Per-layer metrics printed with --trace 1, in BENCHMARK.json order. A
// metric a workload does not exercise (no wire on the in-process workloads,
// say) reads 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerSpec() {
  static const std::vector<std::pair<std::string, std::string>> spec = {
      {"exec.execute_ms", "ms"},
      {"exec.join_self_ms", "ms"},
      {"exec.agg_self_ms", "ms"},
      {"exec.scan_self_ms", "ms"},
      {"exec.multiway_self_ms", "ms"},
      {"exec.rows_per_result_row", "ratio"},
      {"exec.peak_mb", "MiB"},
      {"exec.spill_bytes", "bytes"},
      {"core.minor_faults_per_op", "count"},
      {"plan.physical_ms", "ms"},
      {"plan.non_hash_nodes", "count"},
      {"opt.optimize_ms", "ms"},
      {"server.plan_cache.hit_rate", "ratio"},
      {"server.plan_cache.evictions", "count"},
      {"net.roundtrip_ms", "ms"},
      {"server.session_query_ms", "ms"},
      {"net.overhead_ms", "ms"},
      {"net.encode_us", "us"},
      {"net.decode_us", "us"},
      {"net.result_bytes", "bytes"},
      {"net.protocol_errors", "count"},
      {"net.reads_paused", "count"},
      {"server.refused", "count"},
      {"server.queue_depth_max", "count"},
      {"core.snapshot_us", "us"},
      {"core.query_ms", "ms"},
      {"core.unaccounted_ms", "ms"},
      {"core.commit_ms", "ms"},
      {"core.delta_refreshes_per_commit", "ratio"},
      {"core.full_rebuilds", "count"},
      {"storage.versions_retained", "count"},
      {"storage.live_measure_chunks", "count"},
      {"workload.vecache.build_ms", "ms"},
      {"workload.vecache.answer_ms", "ms"},
      {"core.whatif_ms", "ms"},
      {"opt.faq_optimize_ms", "ms"},
      {"opt.dissociate_ms", "ms"},
      {"exec.gibbs_samples_per_s", "1/s"},
      {"exec.gibbs_rounds", "count"},
      {"net.self_ms", "ms"},
      {"server.self_ms", "ms"},
      {"core.self_ms", "ms"},
      {"opt.self_ms", "ms"},
      {"plan.self_ms", "ms"},
      {"exec.self_ms", "ms"},
      {"workload.self_ms", "ms"},
      {"storage.self_ms", "ms"},
      {"bench.self_ms", "ms"},
      {"bench.ref_ms", "ms"},
      {"bench.trace_overhead", "ratio"},
      {"bench.trace_sum_error", "ratio"},
  };
  return spec;
}

// Ops of one measured phase, in run order.
struct Phase {
  std::vector<double> seconds;   // latency of each op, failed ones too
  std::vector<uint8_t> ok;
  std::vector<uint8_t> types;
  std::vector<uint32_t> slices;  // slice each op ran in
  std::vector<double> pass_ref;  // reference passes; pass s precedes slice s
  std::vector<size_t> segment_starts;  // index of each segment's first op
  std::vector<uint64_t> attempted;
  std::vector<uint64_t> failed;
  uint64_t completed = 0;

  double BusySeconds() const {
    double total = 0;
    for (double s : seconds) total += s;
    return total;
  }
  // Latencies (raw or in reference units) with failures as +inf, so a
  // failed op misses any latency limit; optionally of one op type only.
  std::vector<double> Latencies(bool in_ref, int type = -1) const {
    std::vector<double> v =
        in_ref ? NormaliseBySlice(seconds, slices, pass_ref) : seconds;
    std::vector<double> out;
    for (size_t i = 0; i < v.size(); ++i) {
      if (type >= 0 && types[i] != type) continue;
      out.push_back(ok[i] ? v[i] : std::numeric_limits<double>::infinity());
    }
    return out;
  }
  // The 99th percentile in reference units, taken per segment and reported
  // as the median over segments, so a stall that hits one segment cannot
  // carry the run's tail. `beyond` gets the fewest samples past the
  // percentile in any segment.
  double SegmentP99(size_t* beyond) const {
    const std::vector<double> all = Latencies(true);
    std::vector<double> tails;
    *beyond = all.size();
    for (size_t k = 0; k < segment_starts.size(); ++k) {
      const size_t end = k + 1 < segment_starts.size() ? segment_starts[k + 1]
                                                       : all.size();
      size_t b = 0;
      tails.push_back(TailPercentile(
          std::vector<double>(all.begin() + segment_starts[k],
                              all.begin() + end),
          0.99, kMinBeyond, &b));
      *beyond = std::min(*beyond, b);
    }
    return Median(tails);
  }
};

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: mpfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\n");
    return 2;
  }
  std::unique_ptr<Workload> workload;
  if (args.workload == "decision_support") {
    workload = MakeDecisionSupport();
  } else if (args.workload == "bn_served") {
    workload = MakeBnServed();
  } else if (args.workload == "cyclic_approx") {
    workload = MakeCyclicApprox();
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const std::vector<std::string> types = workload->op_types();

  RefPool ref(std::max(1u, std::thread::hardware_concurrency()));
  for (int i = 0; i < 3; ++i) ref.Run();  // fault in the inputs

  const uint64_t steal_start = StealTicks();
  const auto run_start = Clock::now();
  const std::vector<Metric> no_metrics;

  // --- set-up, repeated; each instance replaces the previous one --------
  std::vector<double> setup_seconds;
  std::map<std::string, std::vector<double>> setup_parts;
  auto setup = [&]() {
    workload->Teardown();
    const auto t0 = Clock::now();
    mpfdb::Status status = workload->Setup(args.seed);
    setup_seconds.push_back(SecondsBetween(t0, Clock::now()));
    if (!status.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", status.ToString().c_str());
      return false;
    }
    for (const auto& [name, ms] : workload->SetupParts()) {
      setup_parts[name].push_back(ms);
    }
    return true;
  };

  OpStream stream;  // built from the first instance's op tables
  size_t cursor = 0;
  bool wrong = false;
  std::string wrong_detail;
  uint64_t total_attempted = 0, total_failed = 0;
  Accum layers;
  Tracer tracer(args.trace ? size_t{1} << 18 : 0);

  auto run_phase = [&](double seconds, bool traced, Phase* phase) {
    phase->attempted.resize(types.size(), 0);
    phase->failed.resize(types.size(), 0);
    const auto phase_end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    phase->pass_ref.push_back(ref.Run());
    while (!wrong && Clock::now() < phase_end) {
      const auto slice_end =
          std::min(phase_end,
                   Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(
                                          kSliceSeconds)));
      const auto slice = static_cast<uint32_t>(phase->pass_ref.size() - 1);
      while (!wrong && Clock::now() < slice_end) {
        const size_t i = cursor++ % stream.types.size();
        const uint8_t type = stream.types[i];
        OpOutcome out;
        if (traced) {
          tracer.set_op(static_cast<uint32_t>(cursor));
          const uint64_t faults = MinorFaults();
          const auto t0 = Clock::now();
          {
            Tracer::Scope root(&tracer, "bench", "bench.op");
            out = workload->Run(type, stream.params[i], &tracer, &layers);
          }
          out.seconds = SecondsBetween(t0, Clock::now());
          layers.Add("core.minor_faults_per_op",
                     static_cast<double>(MinorFaults() - faults));
        } else {
          out = workload->Run(type, stream.params[i], nullptr, nullptr);
        }
        ++phase->attempted[type];
        ++total_attempted;
        if (!out.ok) {
          ++phase->failed[type];
          ++total_failed;
          std::fprintf(stderr, "op %s failed: %s\n", types[type].c_str(),
                       out.error.c_str());
        } else {
          ++phase->completed;
        }
        if (out.wrong) {
          wrong = true;
          wrong_detail = "wrong answer from a " + types[type] + " op";
        }
        phase->seconds.push_back(out.seconds);
        phase->ok.push_back(out.ok ? 1 : 0);
        phase->types.push_back(type);
        phase->slices.push_back(slice);
      }
      phase->pass_ref.push_back(ref.Run());
      }
  };

  // Counter deltas, summed over the measured segments.
  using Counters = std::map<std::string, double>;
  auto add_delta = [](Counters* sum, const Counters& before,
                      const Counters& after) {
    for (const auto& [name, v] : after) {
      (*sum)[name] += v - (before.count(name) ? before.at(name) : 0);
    }
  };
  Counters untraced_delta, traced_delta;

  // Untraced runs measure in kSegments segments, each on a freshly set-up
  // instance that is checked and warmed (plan cache, lazy structures) first:
  // how fast one instance runs depends on where its data and threads land,
  // so averaging over instances steadies the run. Set-ups are spread over
  // the segments so their median samples the whole run. Peak RSS is read
  // after the first segment: later instances raise the high-water mark by
  // however much the allocator's per-thread arenas fragment, which says
  // nothing about the library's own use.
  Phase warmup, untraced, traced;
  const int segments = args.trace ? 1 : kSegments;
  const double untraced_seconds = args.trace ? args.seconds / 3 : args.seconds;
  // The reference pool's memory is resident before the first set-up;
  // peak_rss_mb counts what the workload adds on top of it.
  const double base_rss_mib = RssMiB();
  double peak_rss_mib = 0;
  for (int k = 0; k < segments && !wrong; ++k) {
    for (int i = 0; i < kSetupsPerSegment; ++i) {
      if (!setup()) return 1;
    }
    if (k == 0) {
      stream = workload->Stream(args.seed, kStreamLength);
      if (stream.types.empty()) {
        std::fprintf(stderr, "empty op stream\n");
        return 1;
      }
    }
    if (mpfdb::Status check = workload->Check(); !check.ok()) {
      std::fprintf(stderr, "correctness check failed: %s\n",
                   check.ToString().c_str());
      PrintResult(false, total_attempted, total_failed, no_metrics);
      return 1;
    }
    run_phase(kWarmupSeconds, false, &warmup);
    const Counters before = workload->Counters();
    untraced.segment_starts.push_back(untraced.seconds.size());
    run_phase(untraced_seconds / segments, false, &untraced);
    add_delta(&untraced_delta, before, workload->Counters());
    if (k == 0) peak_rss_mib = PeakRssMiB() - base_rss_mib;
  }
  if (args.trace && !wrong) {
    const Counters before = workload->Counters();
    run_phase(args.seconds * 2 / 3, true, &traced);
    add_delta(&traced_delta, before, workload->Counters());
  }
  const Counters counters_end = workload->Counters();

  if (!wrong) {
    if (mpfdb::Status check = workload->FinalCheck(); !check.ok()) {
      wrong = true;
      wrong_detail = check.ToString();
    }
  }
  if (wrong) {
    std::fprintf(stderr, "correctness check failed: %s\n",
                 wrong_detail.c_str());
    PrintResult(false, total_attempted, total_failed, no_metrics);
    return 1;
  }

  mpfdb::StatusOr<double> bound_gap = 0.0;
  if (!args.trace) bound_gap = Workload::BoundGapProbe();
  if (!bound_gap.ok()) {
    std::fprintf(stderr, "bound-gap probe failed: %s\n",
                 bound_gap.status().ToString().c_str());
    return 1;
  }
  const double run_seconds = SecondsBetween(run_start, Clock::now());
  const double steal_seconds =
      static_cast<double>(StealTicks() - steal_start) /
      static_cast<double>(sysconf(_SC_CLK_TCK));

  // --- end-to-end metrics (from the untraced phase) --------------------
  const Phase& m = untraced;
  std::vector<double> passes = untraced.pass_ref;
  passes.insert(passes.end(), traced.pass_ref.begin(), traced.pass_ref.end());
  const double ref_s = Median(passes);
  size_t beyond = 0, pooled_beyond = 0;
  const std::vector<double> lat = m.Latencies(false);
  const std::vector<double> lat_ref = m.Latencies(true);
  const double p50_s = Median(lat);
  const double p99_s = TailPercentile(lat, 0.99, kMinBeyond, &pooled_beyond);
  const double p99_ref = m.SegmentP99(&beyond);
  const double side_p50_s = Median(m.Latencies(false, workload->side_type()));
  const double ops_per_s =
      m.BusySeconds() > 0 ? static_cast<double>(m.completed) / m.BusySeconds()
                          : 0;
  double busy_ref = 0;
  for (double r : NormaliseBySlice(m.seconds, m.slices, m.pass_ref)) {
    busy_ref += r;
  }
  const double hits = untraced_delta["plan_cache.hits"];
  const double misses = untraced_delta["plan_cache.misses"];
  const double hit_rate = hits + misses > 0 ? hits / (hits + misses) : 0;

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", "s", Median(setup_seconds)},
        {"ops_per_ref", "ops/ref",
         busy_ref > 0 ? static_cast<double>(m.completed) / busy_ref : 0},
        {"p50_ref", "ref", Median(lat_ref)},
        {"p99_ref", "ref", p99_ref},
        {"side_p50_ref", "ref",
         Median(m.Latencies(true, workload->side_type()))},
        {"peak_rss_mb", "MiB", peak_rss_mib},
        {"bound_gap", "ratio", *bound_gap},
    };
  } else {
    // Per-layer metrics from the traced phase.
    const double traced_ops = static_cast<double>(traced.seconds.size());
    const std::map<std::string, double> self = tracer.LayerSelfSeconds();
    double self_total = 0;
    for (const auto& [layer, s] : self) self_total += s;
    const double op_total = traced.BusySeconds();
    const double sum_error =
        op_total > 0 ? std::fabs(self_total - op_total) / op_total : 0;
    // Cost of recording one span, calibrated on a scratch tracer.
    Tracer calib(1 << 16);
    const auto c0 = Clock::now();
    for (int i = 0; i < (1 << 16); ++i) {
      Tracer::Scope s(&calib, "bench", "calib");
    }
    const double span_cost = SecondsBetween(c0, Clock::now()) / (1 << 16);
    const double spans_per_op =
        traced_ops > 0 ? static_cast<double>(tracer.spans().size()) / traced_ops
                       : 0;
    auto span_mean = [&](const std::string& name, double scale) {
      size_t n = 0;
      const double total = tracer.NamedSeconds(name, &n);
      return n > 0 ? total / static_cast<double>(n) * scale : 0;
    };
    // Counters over the whole measured time, untraced and traced.
    auto delta = [&](const std::string& name) {
      return untraced_delta[name] + traced_delta[name];
    };
    for (const auto& [name, unit] : PerLayerSpec()) {
      double v = 0;
      const std::string base = name.substr(0, name.rfind('_'));
      if (name == "server.plan_cache.hit_rate") {
        v = hit_rate;
      } else if (name == "server.plan_cache.evictions") {
        v = untraced_delta["plan_cache.evictions"];
      } else if (name == "bench.ref_ms") {
        v = ref_s * 1e3;
      } else if (name == "bench.trace_overhead") {
        const double base_latency = p50_s;
        v = base_latency > 0 ? spans_per_op * span_cost / base_latency : 0;
      } else if (name == "bench.trace_sum_error") {
        v = sum_error;
      } else if (name == "net.overhead_ms") {
        v = std::max(0.0, span_mean("net.roundtrip", 1e3) -
                              span_mean("server.session_query", 1e3));
      } else if (name == "workload.vecache.build_ms") {
        v = Median(setup_parts[name]);
      } else if (name.size() > 8 &&
                 name.compare(name.size() - 8, 8, ".self_ms") == 0) {
        const std::string layer = name.substr(0, name.size() - 8);
        v = traced_ops > 0 && self.count(layer)
                ? self.at(layer) / traced_ops * 1e3
                : 0;
      } else if (counters_end.count(name)) {
        // Gauges read at the end; monotonic counters as run deltas.
        v = name.rfind("storage.", 0) == 0 || name == "server.queue_depth_max"
                ? counters_end.at(name)
                : delta(name);
      } else if (layers.Sum(name) != 0) {
        v = layers.Mean(name);
      } else if (name.size() > 3 &&
                 name.compare(name.size() - 3, 3, "_ms") == 0) {
        v = span_mean(base, 1e3);
      } else if (name.size() > 3 &&
                 name.compare(name.size() - 3, 3, "_us") == 0) {
        v = span_mean(base, 1e6);
      }
      metrics.push_back({name, unit, v});
    }
    if (sum_error > kTraceSumTolerance) {
      std::fprintf(stderr,
                   "layer self times (%.6f s) do not add up to the traced op "
                   "time (%.6f s) within %.0f%%\n",
                   self_total, op_total, kTraceSumTolerance * 100);
      return 1;
    }
  }

  // --- method and info block (not gated) -------------------------------
  std::ostringstream info;
  info << "{\"method\": {\"workload\": " << JsonString(args.workload)
       << ", \"seed\": " << args.seed << ", \"run_seconds\": "
       << Num(args.seconds) << ", \"trace\": " << args.trace
       << ", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"cpu_model\": " << JsonString(CpuModel())
       << ", \"compiler\": " << JsonString(__VERSION__)
       << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
       << ", \"clients\": 1, \"loop\": \"closed\", \"segments\": " << segments
       << ", \"setups\": " << setup_seconds.size()
       << ", \"wall_s\": " << Num(run_seconds)
       << ", \"steal_s\": " << Num(steal_seconds) << "}, \"info\": {"
       << "\"ops_per_s\": " << Num(ops_per_s)
       << ", \"p50_ms\": " << Num(p50_s * 1e3)
       << ", \"p99_ms\": " << Num(p99_s * 1e3)
       << ", \"samples\": " << lat.size()
       << ", \"p99_segment_beyond\": " << beyond
       << ", \"side_p50_ms\": " << Num(side_p50_s * 1e3)
       << ", \"bench.ref_ms\": " << Num(ref_s * 1e3)
       << ", \"ref_passes\": " << passes.size()
       << ", \"ref_threads\": " << ref.threads()
       << ", \"plan_cache_hit_rate\": " << Num(hit_rate)
       << ", \"attempted\": " << total_attempted
       << ", \"failed\": " << total_failed << ", \"per_type\": {";
  for (size_t t = 0; t < types.size(); ++t) {
    const uint64_t attempted = warmup.attempted[t] + untraced.attempted[t] +
                               (args.trace ? traced.attempted[t] : 0);
    const uint64_t failed = warmup.failed[t] + untraced.failed[t] +
                            (args.trace ? traced.failed[t] : 0);
    info << (t ? ", " : "") << JsonString(types[t]) << ": {\"attempted\": "
         << attempted << ", \"failed\": " << failed << ", \"p50_ms\": "
         << Num(Median(untraced.Latencies(false, static_cast<int>(t))) * 1e3)
         << "}";
  }
  info << "}}}";
  std::printf("%s\n", info.str().c_str());
  PrintResult(true, total_attempted, total_failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
