// perfbench: one workload of the repository benchmark, in one process.
//
//   perfbench --workload NAME --seed N --requests N [--trace] [--setup-only]
//             [--tmp DIR] [--spans FILE]
//
// Workloads (see README.md for why each exists):
//   report_pot3d16       pot3d, tiny, cluster B, 16 nodes, trace+regions,
//                        4 engine threads; run -> build_report -> to_json ->
//                        validate (the CLI --report path)
//   analyze_minisweep16  minisweep, tiny, B, 16 nodes, event graph retained,
//                        1 engine thread; run -> build_report (wait states,
//                        critical path) -> to_json -> validate
//   threads_minisweep16  minisweep, tiny, B, 16 nodes, plain run at 4 engine
//                        threads + the metric summary
//   service_mixed        in-process SimService (2 workers, memory+disk cache)
//                        driven by a closed loop of 2 clients over a seeded
//                        stream of hot (cached) and never-seen (miss) keys
//   service_disk         the same service and traffic with a one-entry
//                        memory tier, so hits are served from the disk tier
//
// Untraced mode measures the end-to-end metrics: per-request wall time over a
// fixed request count, process CPU per request, peak RSS, and failures.
// Traced mode (--trace) alternates untraced and traced requests; traced ones
// are wrapped in spans, composed library calls are re-called on the finished
// engine to split their time, and the per-layer metrics are derived from the
// spans.  --setup-only exits right where the timed phase would start, so the
// caller can time set-up in fresh processes.
//
// Every request's output is checked; any failure is counted, printed, and
// makes the exit code 1.  The last stdout line is "PERFBENCH_RESULT <json>".
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/runner.hpp"
#include "core/suite.hpp"
#include "machine/registry.hpp"
#include "perf/report.hpp"
#include "service/execute.hpp"
#include "service/service.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"

namespace {

namespace core = spechpc::core;
namespace mach = spechpc::mach;
namespace perf = spechpc::perf;
namespace power = spechpc::power;
namespace service = spechpc::service;
namespace sim = spechpc::sim;
namespace util = spechpc::util;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// CLOCK_MONOTONIC seconds; the caller compares it with its own monotonic
/// clock reading taken just before it spawned this process.
double monotonic_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

struct Usage {
  double user_s = 0.0;  ///< all threads
  double sys_s = 0.0;
  long minflt = 0;
  double cpu_s() const { return user_s + sys_s; }
};

Usage usage_now() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return {tv(ru.ru_utime), tv(ru.ru_stime), ru.ru_minflt};
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << v;
  return os.str();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest percentile that still has `kTailAbove` samples above it: the
/// (kTailAbove+1)-th largest sample, at percentile 100 * (n - kTailAbove) / n.
/// With a fixed request count this is the same percentile on every commit.
struct Tail {
  double value = 0.0;
  double pct = 0.0;
  std::size_t above = 0;
};
constexpr std::size_t kTailAbove = 10;

Tail tail_of(std::vector<double> v) {
  Tail t;
  const std::size_t n = v.size();
  if (n <= kTailAbove) return t;
  std::sort(v.begin(), v.end());
  t.value = v[n - kTailAbove - 1];
  t.pct = 100.0 * static_cast<double>(n - kTailAbove) / static_cast<double>(n);
  t.above = kTailAbove;
  return t;
}

// --- spans -----------------------------------------------------------------

/// One timed call.  `recall` marks a component re-called after the request
/// (on the finished engine) to split a composed call's time; such spans are
/// not part of the request's own wall time.
struct Span {
  std::string name;
  double t0 = 0.0;  ///< seconds since the tracer's epoch
  double t1 = 0.0;
  int parent = -1;
  long request = -1;  ///< -1 = set-up
  bool recall = false;
  double seconds() const { return t1 - t0; }
};

/// In-memory span store, written out once at the end of the run.  Safe to
/// use from several threads (the service workload's clients and workers).
class Tracer {
 public:
  int begin(std::string name, int parent, long request, bool recall = false) {
    const double t = now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({std::move(name), t, t, parent, request, recall});
    return static_cast<int>(spans_.size()) - 1;
  }
  double end(int id) {
    const double t = now();
    std::lock_guard<std::mutex> lock(mu_);
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.t1 = t;
    return s.seconds();
  }
  /// Times `f()` as span `name`; returns its result and, when `seconds` is
  /// given, stores the span's duration there.
  template <class F>
  auto span(const char* name, int parent, long request, F&& f,
            bool recall = false, double* seconds = nullptr) {
    const int id = begin(name, parent, request, recall);
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      const double dt = end(id);
      if (seconds) *seconds = dt;
    } else {
      auto out = f();
      const double dt = end(id);
      if (seconds) *seconds = dt;
      return out;
    }
  }
  std::vector<Span> snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }
  void write(const std::string& path) const {
    std::ofstream f(path);
    if (!f) throw std::runtime_error("cannot write spans to " + path);
    for (const Span& s : snapshot())
      f << "{\"name\":" << util::json_quote(s.name) << ",\"start_s\":"
        << num(s.t0) << ",\"end_s\":" << num(s.t1)
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << ",\"recall\":" << (s.recall ? "true" : "false") << "}\n";
  }

 private:
  double now() const { return seconds_between(epoch_, Clock::now()); }
  Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Per-layer samples gathered over the traced requests; each metric is
/// reported as the median of its samples.
class Layers {
 public:
  void add(const std::string& name, double v) {
    std::lock_guard<std::mutex> lock(mu_);
    samples_[name].push_back(v);
  }
  std::map<std::string, double> medians() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::map<std::string, double> out;
    for (const auto& [k, v] : samples_) out[k] = median(v);
    return out;
  }
  /// True when every sample of `name` is identical (exact counts).
  bool repeats_exactly(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = samples_.find(name);
    if (it == samples_.end()) return true;
    const auto& v = it->second;
    return std::all_of(v.begin(), v.end(), [&](double x) { return x == v[0]; });
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::vector<double>> samples_;
};

// --- shared run pieces -----------------------------------------------------

/// Keeps a re-called component's result alive so the compiler cannot drop
/// the call (perf::collect, for one, is inline).
template <class T>
void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

struct Failures {
  void add(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu);
    if (list.size() < 20) list.push_back(what);
    ++count;
  }
  std::mutex mu;
  std::vector<std::string> list;
  long count = 0;
};

/// Engine counters of one finished run, added to the per-layer samples.
/// Counters of a layer the run did not use (trace, event graph, parallel
/// windows) are left out, so they print as idle instead of as 0.
void add_engine_layers(Layers& layers, const sim::Engine& engine) {
  const sim::EngineStats& es = engine.stats();
  layers.add("simmpi.events", static_cast<double>(es.events_processed));
  if (!engine.timeline().intervals().empty())
    layers.add("simmpi.trace_intervals",
               static_cast<double>(engine.timeline().intervals().size()));
  if (engine.graph_enabled()) {
    layers.add("simmpi.graph_events", static_cast<double>(es.graph_events));
    layers.add("simmpi.graph_bytes", static_cast<double>(es.graph_bytes));
  }
  double exec = 0.0, ingest = 0.0;
  std::uint64_t windows = 0, syncs = 0, empty = 0;
  for (const sim::PartitionStats& p : es.partitions) {
    exec += p.exec_wall_s;
    ingest += p.ingest_wall_s;
    windows = std::max(windows, p.horizon_syncs);
    syncs += p.horizon_syncs;
    empty += p.empty_windows;
  }
  layers.add("simmpi.exec_s", exec);
  if (es.partition_count > 1) {
    layers.add("simmpi.windows", static_cast<double>(windows));
    layers.add("simmpi.empty_window_frac",
               syncs ? static_cast<double>(empty) / static_cast<double>(syncs)
                     : 0.0);
    layers.add("simmpi.ingest_s", ingest);
    layers.add("simmpi.barrier_wait_s", es.barrier_wait_s);
  }
}

/// Re-calls run_benchmark's post-run passes on the finished engine (span
/// `run` covers the whole run_on_nodes/run_benchmark call) and attributes the
/// remainder to the engine itself.
void split_run(Tracer& tr, Layers& layers, int run_span, double run_s,
               long id, const sim::Engine& engine,
               const mach::ClusterSpec& cluster) {
  const int c = tr.begin("perf.collect", run_span, id, true);
  keep(perf::collect(engine));
  const double collect_s = tr.end(c);
  const int a = tr.begin("power.analyze", run_span, id, true);
  keep(power::PowerModel(cluster).analyze(engine));
  const double analyze_s = tr.end(a);
  const double engine_s = run_s - collect_s - analyze_s;
  layers.add("perf.collect_s", collect_s);
  layers.add("power.analyze_s", analyze_s);
  layers.add("simmpi.engine_s", engine_s);
  const auto events = static_cast<double>(engine.stats().events_processed);
  layers.add("simmpi.events_per_s", engine_s > 0 ? events / engine_s : 0.0);
  add_engine_layers(layers, engine);
}

/// Re-calls build_report's passes on the finished engine (mirroring the
/// conditions core::build_report applies) and records the unattributed rest.
void split_report(Tracer& tr, Layers& layers, int report_span,
                  double report_s, long id, const sim::Engine& engine,
                  const mach::ClusterSpec& cluster) {
  double parts = 0.0;
  const auto part = [&](const char* name, auto&& f) {
    const int s = tr.begin(name, report_span, id, true);
    f();
    const double dt = tr.end(s);
    layers.add(std::string(name) + "_s", dt);
    parts += dt;
  };
  if (engine.regions_enabled())
    part("perf.region_rows", [&] { keep(perf::region_rows(engine)); });
  if (!engine.timeline().intervals().empty()) {
    const power::PowerModel model(cluster);
    power::EnergyTimeline tl;
    part("perf.time_series",
         [&] { keep(perf::time_series(engine.timeline(), 32)); });
    part("power.analyze_timeline",
         [&] { tl = power::analyze_timeline(model, engine, 32); });
    if (engine.regions_enabled())
      part("power.region_energy", [&] {
        keep(power::attribute_region_energy(model, engine, tl));
      });
  }
  part("perf.wait_state_rows",
       [&] { keep(perf::wait_state_rows(engine, engine.threads())); });
  if (engine.graph_enabled())
    part("perf.critical_path", [&] {
      keep(perf::analyze_critical_path(engine.event_graph(), engine.nranks(),
                                       engine.elapsed(), engine.threads()));
    });
  layers.add("core.build_report_unattributed_s", report_s - parts);
}

/// The analysis checks every report gets: wait-state conservation, and a
/// critical path that is computed exactly when the event graph was retained
/// and whose length equals the makespan.
std::string check_analysis(const std::vector<perf::WaitStateRow>& waits,
                           bool cp_computed, double cp_length_s,
                           double makespan_s, bool expect_critical_path) {
  const double cons = perf::wait_state_conservation_error(waits);
  if (!(cons <= 1e-9))
    return "wait_state_conservation_error " + num(cons) + " > 1e-9";
  if (cp_computed != expect_critical_path)
    return std::string("critical path ") +
           (cp_computed ? "computed without" : "not computed with") +
           " analysis on";
  if (cp_computed && cp_length_s != makespan_s)
    return "critical path length " + num(cp_length_s) + " != makespan " +
           num(makespan_s);
  return {};
}

/// Output checks of a report the harness built: schema validation of its
/// JSON plus the analysis checks on the RunReport.
std::string check_report(const perf::RunReport& rep, const std::string& json,
                         bool valid, const std::string& valid_err,
                         bool expect_critical_path) {
  if (json.empty()) return "empty report";
  if (!valid) return "report fails validate_run_report_json: " + valid_err;
  const perf::CriticalPath& cp = rep.critical_path;
  return check_analysis(rep.wait_states, cp.computed, cp.length_s,
                        cp.makespan_s, expect_critical_path);
}

/// The same checks on a served report, from its bytes alone.  to_json
/// writes every double with max_digits10, so the parsed numbers are the
/// report's own and the exact critical-path comparison still holds.
std::string check_report_json(std::string_view json,
                              bool expect_critical_path) {
  std::string err;
  if (json.empty()) return "empty report";
  if (!perf::validate_run_report_json(json, &err))
    return "report fails validate_run_report_json: " + err;
  const util::JsonValue doc = util::parse_json(json, "report");
  std::vector<perf::WaitStateRow> waits;
  for (const util::JsonValue& w : doc.object.at("wait_states").array) {
    const auto at = [&](const char* key) { return w.object.at(key).number; };
    perf::WaitStateRow row;
    row.late_sender_s = at("late_sender_s");
    row.late_receiver_s = at("late_receiver_s");
    row.collective_s = at("collective_s");
    row.fault_stall_s = at("fault_stall_s");
    row.mpi_s = at("mpi_s");
    waits.push_back(row);
  }
  const auto& cp = doc.object.at("critical_path").object;
  return check_analysis(waits, cp.at("computed").boolean,
                        cp.at("length_s").number, cp.at("makespan_s").number,
                        expect_critical_path);
}

// --- the three run workloads ---------------------------------------------

struct RunShape {
  const char* app;
  int threads;
  bool report;  ///< request builds, serializes and validates the report
  bool trace;   ///< trace + regions on (the CLI --report path)
  bool analyze;
};

constexpr int kNodes = 16;
constexpr int kRunWarmups = 1;

const std::map<std::string, RunShape>& run_shapes() {
  static const std::map<std::string, RunShape> shapes = {
      {"report_pot3d16", {"pot3d", 4, true, true, false}},
      {"analyze_minisweep16", {"minisweep", 1, true, false, true}},
      {"threads_minisweep16", {"minisweep", 4, false, false, false}},
  };
  return shapes;
}

/// The plain run's output: the metric summary the CLI's `run` prints.
std::string metric_summary(const core::RunResult& r) {
  const perf::JobMetrics& m = r.metrics();
  const power::PowerReport& p = r.power();
  std::string s;
  for (double v : {r.seconds_per_step(), m.performance(),
                   m.vectorization_ratio(), m.mem_bandwidth(),
                   m.mpi_fraction(), p.chip_w, p.dram_w, p.total_energy_j(),
                   p.edp()})
    s += num(v) + ' ';
  s += std::to_string(m.nranks) + ' ' + std::to_string(m.nodes) + ' ' +
       std::to_string(r.engine().stats().events_processed);
  return s;
}

class RunBench {
 public:
  RunBench(const RunShape& shape, Tracer* tracer, Layers* layers,
           Failures& failures)
      : shape_(shape), tr_(tracer), layers_(layers), failures_(failures) {}

  void setup() {
    if (tr_) {
      cluster_ = tr_->span("machine.resolve", -1, -1, [] {
        return mach::Registry::builtin().resolve("B");
      });
      tr_->span("util.parse_json", -1, -1, [] {
        return util::parse_json(
            mach::Registry::builtin().descriptor_text("B"), "descriptor");
      });
      app_ = tr_->span("core.make_app", -1, -1, [&] { return make_app(); });
    } else {
      cluster_ = mach::Registry::builtin().resolve("B");
      app_ = make_app();
    }
    for (int i = 0; i < kRunWarmups; ++i) timed_request(-1 - i, false);
  }

  /// One request; returns its wall seconds (checks run after the clock
  /// stops).  `traced` wraps it in spans and splits composed calls.
  double timed_request(long id, bool traced) {
    const core::RunOptions opts = options(shape_.threads, traced);
    perf::RunReport rep;
    std::string json, valid_err, summary;
    bool valid = false;
    std::optional<core::RunResult> result;
    int root = -1, run_span = -1, report_span = -1;
    double run_s = 0.0, report_s = 0.0;
    const Usage u0 = usage_now();

    const auto t0 = Clock::now();
    if (traced) {
      root = tr_->begin("request", -1, id);
      run_span = tr_->begin("core.run_on_nodes", root, id);
    }
    result.emplace(core::run_on_nodes(*app_, cluster_, kNodes, opts));
    if (traced) run_s = tr_->end(run_span);
    const Usage u1 = usage_now();
    if (shape_.report) {
      if (traced) report_span = tr_->begin("core.build_report", root, id);
      rep = core::build_report(*result, cluster_, shape_.app, "tiny");
      if (traced) {
        report_s = tr_->end(report_span);
        double dt = 0.0;
        json = tr_->span("perf.to_json", root, id,
                         [&] { return perf::to_json(rep); }, false, &dt);
        layers_->add("perf.to_json_s", dt);
        valid = tr_->span("perf.validate", root, id, [&] {
          return perf::validate_run_report_json(json, &valid_err);
        }, false, &dt);
        layers_->add("perf.validate_s", dt);
      } else {
        json = perf::to_json(rep);
        valid = perf::validate_run_report_json(json, &valid_err);
      }
    } else {
      summary = traced ? tr_->span("perf.summary", root, id,
                                   [&] { return metric_summary(*result); })
                       : metric_summary(*result);
    }
    if (traced) tr_->end(root);
    const double wall = seconds_between(t0, Clock::now());

    if (traced) {
      split_run(*tr_, *layers_, run_span, run_s, id, result->engine(),
                cluster_);
      layers_->add("simmpi.minflt_per_request",
                   static_cast<double>(u1.minflt - u0.minflt));
      if (shape_.report) {
        split_report(*tr_, *layers_, report_span, report_s, id,
                     result->engine(), cluster_);
        layers_->add("core.build_report_s", report_s);
      }
      if (shape_.report)
        layers_->add("perf.report_bytes", static_cast<double>(json.size()));
    }
    check(id, rep, json, valid, valid_err, summary);
    return wall;
  }

  /// After the timed phase: the result must not depend on the engine's
  /// thread count.  Compares the full report at 1 and 4 threads.
  void verify_thread_invariance() {
    if (shape_.threads == 1) return;
    const auto report_digest = [&](int threads) {
      const core::RunResult r =
          core::run_on_nodes(*app_, cluster_, kNodes, options(threads, false));
      return util::sha256_hex(
          perf::to_json(core::build_report(r, cluster_, shape_.app, "tiny")));
    };
    // Report workloads already hold the digest of their own thread count.
    const std::string digest[2] = {
        shape_.report ? digest_ : report_digest(shape_.threads),
        report_digest(1)};
    if (digest[0] != digest[1])
      failures_.add("report differs between " +
                    std::to_string(shape_.threads) + " and 1 engine threads");
    else
      std::cout << "check: report byte-identical at " << shape_.threads
                << " and 1 engine threads (sha256 " << digest[0].substr(0, 16)
                << ")\n";
  }

  const std::string& digest() const { return digest_; }

 private:
  std::unique_ptr<spechpc::apps::AppProxy> make_app() const {
    auto app = core::make_app(shape_.app, core::Workload::kTiny);
    app->set_measured_steps(3);  // the CLI defaults
    app->set_warmup_steps(1);
    return app;
  }

  core::RunOptions options(int threads, bool profile) const {
    core::RunOptions o;
    o.trace = shape_.trace;
    o.regions = shape_.trace;
    o.analyze = shape_.analyze;
    o.engine_threads = threads;
    o.profile_host = profile;
    return o;
  }

  void check(long id, const perf::RunReport& rep, const std::string& json,
             bool valid, const std::string& valid_err,
             const std::string& summary) {
    std::string err;
    std::string digest;
    if (shape_.report) {
      err = check_report(rep, json, valid, valid_err, shape_.analyze);
      // Host-profiled (traced) reports carry wall-clock fields, so only
      // untraced reports enter the identity check.
      if (err.empty() && !rep.engine_stats.host_profiled)
        digest = util::sha256_hex(json);
    } else {
      digest = util::sha256_hex(summary);
    }
    if (err.empty() && !digest.empty()) {
      if (digest_.empty()) digest_ = digest;
      else if (digest != digest_)
        err = "output sha256 " + digest.substr(0, 16) +
              " differs from the run's first " + digest_.substr(0, 16);
    }
    if (!err.empty())
      failures_.add("request " + std::to_string(id) + ": " + err);
  }

  RunShape shape_;
  Tracer* tr_;
  Layers* layers_;
  Failures& failures_;
  mach::ClusterSpec cluster_;
  std::unique_ptr<spechpc::apps::AppProxy> app_;
  std::string digest_;
};

// --- service_mixed, service_disk --------------------------------------------

constexpr int kServiceWorkers = 2;
/// Memory-tier capacity (entries) per service workload.  service_mixed keeps
/// the service default, which holds the hot set; service_disk keeps one
/// entry, so a hit is a memory miss, a disk read and a checksum check.
const std::map<std::string, std::size_t>& service_memory_entries() {
  static const std::map<std::string, std::size_t> m = {
      {"service_mixed", service::CacheConfig{}.memory_entries},
      {"service_disk", 1}};
  return m;
}
constexpr int kServiceClients = 2;
/// 1 request in 20 is a never-seen key: the 95 % hit ratio of the mixed
/// traffic phase of bench/bench_service.cpp (200 lookups over 10 keys).
constexpr int kMissEvery = 20;
constexpr int kRecallMisses = 24;    ///< misses re-run to split execute_s
constexpr int kHotBand = 8;  ///< hot keys use the top kHotBand rank counts
constexpr int kMinRanks = 8;

struct SvcKey {
  int app = 0;
  int cluster = 0;  ///< 0 = A, 1 = B
  bool analyze = false;
  bool eager = false;
  int ranks = 0;
  auto tie() const { return std::tie(app, cluster, analyze, eager, ranks); }
  bool operator<(const SvcKey& o) const { return tie() < o.tie(); }
};

std::string params_json(const SvcKey& k) {
  return std::string("{\"app\":\"") +
         std::string(core::app_names()[static_cast<std::size_t>(k.app)]) +
         "\",\"cluster\":\"" + (k.cluster ? "B" : "A") +
         "\",\"ranks\":" + std::to_string(k.ranks) +
         ",\"steps\":1,\"eager\":" + (k.eager ? "true" : "false") +
         ",\"analyze\":" + (k.analyze ? "true" : "false") + "}";
}

std::string envelope(long id, const SvcKey& k) {
  return "{\"id\":" + std::to_string(id) +
         ",\"method\":\"run\",\"params\":" + params_json(k) + "}";
}

/// The value of `key` when it is the last field of its enclosing object, as
/// "report" is in a run result and "result" in a response envelope ("" when
/// absent).
std::string_view field_of(std::string_view resp, std::string_view key) {
  const std::string marker = "\"" + std::string(key) + "\":";
  const std::size_t pos = resp.find(marker);
  const std::size_t closing = key == "report" ? 2 : 1;
  if (pos == std::string_view::npos ||
      resp.size() < pos + marker.size() + closing)
    return {};
  return resp.substr(pos + marker.size(),
                     resp.size() - pos - marker.size() - closing);
}

/// Seeded request stream.  The hot set has one key per app x cluster x
/// analyze combination at a near-full-node rank count (the top kHotBand
/// values), so every seed's hit path serves reports of about the same
/// sizes.  Never-seen miss keys cycle through app x cluster x analyze x
/// eager and draw their rank count from successive strata of
/// [kMinRanks, cores - kHotBand], so every seed has the same cost mix.
/// The seed picks the rank counts, the miss positions and the hot-key order.
struct Stream {
  std::vector<SvcKey> hot;
  std::vector<SvcKey> lines;  ///< request i's key
  std::vector<bool> miss;     ///< request i is a never-seen key
};

Stream make_stream(std::uint64_t seed, long requests) {
  const int napps = static_cast<int>(core::app_names().size());
  const mach::Registry& reg = mach::Registry::builtin();
  const int cores[2] = {reg.get("A").cores_per_node(),
                        reg.get("B").cores_per_node()};
  std::mt19937_64 rng(seed);
  const auto combo = [&](int c) {
    SvcKey k;
    k.app = c % napps;
    k.cluster = (c / napps) % 2;
    k.analyze = (c / napps / 2) % 2 == 1;
    k.eager = (c / napps / 4) % 2 == 1;
    return k;
  };

  Stream s;
  const int hot_combos = napps * 2 * 2;
  for (int c = 0; c < hot_combos; ++c) {
    SvcKey k = combo(c);
    std::uniform_int_distribution<int> band(0, kHotBand - 1);
    k.ranks = cores[k.cluster] - band(rng);
    s.hot.push_back(k);
  }

  const int miss_combos = hot_combos * 2;
  const long misses = requests / kMissEvery;
  const int rounds = static_cast<int>((misses + miss_combos - 1) / miss_combos);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::set<SvcKey> used;
  std::vector<SvcKey> miss_keys;
  for (long m = 0; m < misses; ++m) {
    SvcKey k = combo(static_cast<int>(m % miss_combos));
    const int lo = kMinRanks, hi = cores[k.cluster] - kHotBand;
    const int j = static_cast<int>(m / miss_combos);
    const int base =
        lo + static_cast<int>((j + unit(rng)) * (hi - lo + 1) / rounds);
    // Walk to the nearest unused rank count when the draw collides.
    bool placed = false;
    for (int d = 0; d <= hi - lo && !placed; ++d)
      for (int r : {base + d, base - d})
        if (!placed && r >= lo && r <= hi) {
          k.ranks = r;
          placed = used.insert(k).second;
        }
    if (!placed)
      throw std::runtime_error("miss key space exhausted");
    miss_keys.push_back(k);
  }
  std::shuffle(miss_keys.begin(), miss_keys.end(), rng);

  s.miss.assign(static_cast<std::size_t>(requests), false);
  std::vector<long> slots(static_cast<std::size_t>(requests));
  std::iota(slots.begin(), slots.end(), 0L);
  std::shuffle(slots.begin(), slots.end(), rng);
  for (long m = 0; m < misses; ++m)
    s.miss[static_cast<std::size_t>(slots[static_cast<std::size_t>(m)])] = true;
  std::uniform_int_distribution<int> pick(0, hot_combos - 1);
  std::size_t next_miss = 0;
  for (long i = 0; i < requests; ++i)
    s.lines.push_back(s.miss[static_cast<std::size_t>(i)]
                          ? miss_keys[next_miss++]
                          : s.hot[static_cast<std::size_t>(pick(rng))]);
  return s;
}

/// A fresh cache directory, removed when the benchmark ends (also when it
/// ends by an exception).
class TempDir {
 public:
  explicit TempDir(const std::string& parent) {
    fs::create_directories(parent);
    std::string tmpl = (fs::path(parent) / "svc-XXXXXX").string();
    if (::mkdtemp(tmpl.data()) == nullptr)
      throw std::runtime_error("mkdtemp failed under " + parent);
    path_ = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

class ServiceBench {
 public:
  ServiceBench(std::uint64_t seed, long requests, std::size_t memory_entries,
               const std::string& tmp, Tracer* tracer, Layers* layers,
               Failures& failures)
      : stream_(make_stream(seed, requests)),
        memory_entries_(memory_entries),
        dir_(tmp),
        tr_(tracer),
        layers_(layers),
        failures_(failures) {}

  void setup() {
    if (tr_) {
      tr_->span("machine.resolve", -1, -1, [] {
        (void)mach::Registry::builtin().resolve("A");
        return mach::Registry::builtin().resolve("B");
      });
      tr_->span("util.parse_json", -1, -1, [] {
        return util::parse_json(
            mach::Registry::builtin().descriptor_text("B"), "descriptor");
      });
    }
    service::ServiceConfig cfg;
    cfg.workers = kServiceWorkers;
    cfg.cache.dir = dir_.path() + "/cache";
    cfg.cache.memory_entries = memory_entries_;
    if (tr_) {
      // Times every execution the service performs (the real
      // execute_request, unchanged) so misses can be split into execution
      // and everything around it.
      cfg.execute_override = [this](const service::SimRequest& req,
                                    const std::atomic<bool>* cancel) {
        const auto t0 = Clock::now();
        std::string out = service::execute_request(req, cancel, 1);
        const double dt = seconds_between(t0, Clock::now());
        std::lock_guard<std::mutex> lock(exec_mu_);
        exec_s_[service::cache_key(req)] = dt;
        return out;
      };
      probe_ = std::make_unique<service::ResultCache>(
          service::CacheConfig{dir_.path() + "/probe", memory_entries_, 0});
    }
    svc_ = std::make_unique<service::SimService>(cfg);
    // Fill the cache with the hot set, then walk it once more as hits.
    for (std::size_t h = 0; h < stream_.hot.size(); ++h) {
      const std::string resp = svc_->handle_line(envelope(-1, stream_.hot[h]));
      const std::string_view rep = field_of(resp, "report");
      std::string err;
      if (rep.empty() || !perf::validate_run_report_json(rep, &err))
        throw std::runtime_error("warm-up of hot key " +
                                 params_json(stream_.hot[h]) +
                                 " failed: " + resp.substr(0, 200) + err);
      refs_[stream_.hot[h]] = std::string(rep);
      if (probe_) probe_->put(service::cache_key(parse(stream_.hot[h])),
                              std::string(rep));
    }
    for (const SvcKey& k : stream_.hot)
      check(-1, k, false, svc_->handle_line(envelope(-1, k)));
    stats0_ = svc_->stats();
    cache0_ = svc_->cache().stats();
  }

  /// Closed loop: each client sends its next request when the previous one
  /// returned.  Returns per-request latencies (index = request id).  With
  /// `trace_odd`, odd requests are traced and split into layers.
  std::vector<double> run(bool trace_odd) {
    const long n = static_cast<long>(stream_.lines.size());
    std::vector<double> lat(static_cast<std::size_t>(n), 0.0);
    std::atomic<long> next{0};
    std::vector<std::thread> clients;
    std::exception_ptr error;
    std::mutex error_mu;
    for (int c = 0; c < kServiceClients; ++c)
      clients.emplace_back([&] {
        try {
          for (long i = next++; i < n; i = next++) {
            const auto ui = static_cast<std::size_t>(i);
            const SvcKey& k = stream_.lines[ui];
            const std::string line = envelope(i, k);
            const bool traced = trace_odd && (i % 2 == 1);
            int root = -1;
            if (traced) root = tr_->begin("request", -1, i);
            const auto t0 = Clock::now();
            const std::string resp = svc_->handle_line(line);
            lat[ui] = seconds_between(t0, Clock::now());
            if (traced) tr_->end(root);
            check(i, k, stream_.miss[ui], resp);
            if (traced)
              split_request(i, root, stream_.miss[ui], line, lat[ui]);
          }
        } catch (...) {
          std::lock_guard<std::mutex> lock(error_mu);
          if (!error) error = std::current_exception();
        }
      });
    for (std::thread& t : clients) t.join();
    if (error) std::rethrow_exception(error);
    return lat;
  }

  /// After the timed phase: cached responses must be byte-identical to a
  /// direct execute_request of the same request, and pass the analysis
  /// checks (every hit was byte-compared to these references).
  void verify_against_direct() {
    std::size_t same = 0, sound = 0;
    for (const SvcKey& k : stream_.hot) {
      if (service::execute_request(parse(k), nullptr, 1) == refs_[k])
        ++same;
      else
        failures_.add("cached response differs from execute_request for " +
                      params_json(k));
      const std::string err = check_report_json(refs_[k], k.analyze);
      if (err.empty())
        ++sound;
      else
        failures_.add("hot key " + params_json(k) + ": " + err);
    }
    std::cout << "check: " << same << "/" << stream_.hot.size()
              << " hot-key responses byte-identical to execute_request, "
              << sound << "/" << stream_.hot.size()
              << " pass conservation and critical path == makespan\n";
  }

  /// Traced-run follow-up: cache put cost and the simulation split of the
  /// first misses, re-run directly through core.
  void split_misses() {
    std::vector<SvcKey> misses;
    for (std::size_t i = 0; i < stream_.lines.size(); ++i)
      if (stream_.miss[i] && misses.size() < kRecallMisses)
        misses.push_back(stream_.lines[i]);
    const mach::Registry& reg = mach::Registry::builtin();
    long id = static_cast<long>(stream_.lines.size());
    for (const SvcKey& k : misses) {
      const service::SimRequest req = parse(k);
      const mach::ClusterSpec cluster = reg.get(req.cluster);
      double dt = 0.0;
      auto app = tr_->span("core.make_app", -1, id, [&] {
        auto a = core::make_app(req.app, core::Workload::kTiny);
        a->set_measured_steps(req.steps);
        a->set_warmup_steps(1);
        return a;
      }, true, &dt);
      layers_->add("core.make_app_s", dt);
      core::RunOptions opts;  // as execute_request runs it, plus profiling
      opts.protocol.force_eager = req.eager;
      opts.regions = opts.trace = true;
      opts.analyze = req.analyze;
      opts.profile_host = true;
      const int run_span = tr_->begin("core.run_benchmark", -1, id, true);
      const Usage u0 = usage_now();
      const core::RunResult r =
          core::run_benchmark(*app, cluster, req.ranks, opts);
      const Usage u1 = usage_now();
      const double run_s = tr_->end(run_span);
      split_run(*tr_, *layers_, run_span, run_s, id, r.engine(), cluster);
      layers_->add("simmpi.minflt_per_request",
                   static_cast<double>(u1.minflt - u0.minflt));
      const int rep_span = tr_->begin("core.build_report", -1, id, true);
      const perf::RunReport rep =
          core::build_report(r, cluster, req.app, req.workload);
      const double rep_s = tr_->end(rep_span);
      split_report(*tr_, *layers_, rep_span, rep_s, id, r.engine(), cluster);
      layers_->add("core.build_report_s", rep_s);
      const std::string json = tr_->span(
          "perf.to_json", -1, id, [&] { return perf::to_json(rep); }, true,
          &dt);
      layers_->add("perf.to_json_s", dt);
      layers_->add("perf.report_bytes", static_cast<double>(json.size()));
      std::string err;
      const bool ok = tr_->span(
          "perf.validate", -1, id,
          [&] { return perf::validate_run_report_json(json, &err); }, true,
          &dt);
      layers_->add("perf.validate_s", dt);
      err = check_report(rep, json, ok, err, req.analyze);
      if (!err.empty())
        failures_.add("re-run miss " + params_json(k) + ": " + err);
      tr_->span("service.cache_put", -1, id,
                [&] { probe_->put(service::cache_key(req), json); }, true, &dt);
      layers_->add("service.cache_put_us", 1e6 * dt);
      ++id;
    }
  }

  /// Drains the service and records its ServiceStats and CacheStats (the
  /// service's own `stats` method) plus the timed-phase deltas.
  void finish() {
    svc_->drain();
    const service::ServiceStats s = svc_->stats();
    const service::CacheStats c = svc_->cache().stats();
    const auto d = [](std::uint64_t a, std::uint64_t b) {
      return static_cast<double>(a - b);
    };
    const double lookups = d(c.lookups(), cache0_.lookups());
    const double hit_ratio =
        lookups > 0 ? d(c.hits(), cache0_.hits()) / lookups : 0.0;
    stats_json_ = std::string(
        field_of(svc_->handle_line(R"({"id":0,"method":"stats"})"), "result"));
    std::cout << "service and cache stats: " << stats_json_
              << "; timed-phase hit ratio " << num(hit_ratio) << "\n";
    if (layers_) {
      layers_->add("service.hit_ratio", hit_ratio);
      layers_->add("service.coalesced", d(s.coalesced, stats0_.coalesced));
      layers_->add("service.shed", d(s.shed, stats0_.shed));
      layers_->add("service.timeouts", d(s.timeouts, stats0_.timeouts));
    }
  }

  const std::string& stats_json() const { return stats_json_; }

 private:
  static service::SimRequest parse(const SvcKey& k) {
    return service::parse_request(params_json(k),
                                  service::SimRequest::Kind::kRun);
  }

  void check(long id, const SvcKey& k, bool miss, const std::string& resp) {
    std::string err;
    const std::string_view rep = field_of(resp, "report");
    const bool cached =
        resp.find(R"("result":{"cached":true)") != std::string::npos;
    std::string why;
    if (rep.empty())
      err = "no report in response " + resp.substr(0, 160);
    else if (cached == miss)
      err = miss ? "never-seen key served from cache"
                 : "hot key missed the cache";
    else if (miss && !(why = check_report_json(rep, k.analyze)).empty())
      err = "miss report: " + why;
    else if (!miss && rep != refs_.at(k))
      err = "cached report differs from the warm-up report";
    if (!err.empty())
      failures_.add("request " + std::to_string(id) + " " + params_json(k) +
                    ": " + err);
  }

  /// Re-calls the hit path's components on the same line (after the request
  /// returned) and records the miss path's execution/queue split.
  void split_request(long id, int root, bool miss,
                     const std::string& line, double round_trip) {
    double parse_s = 0.0, key_s = 0.0, get_s = 0.0;
    const service::SimRequest req = tr_->span(
        "service.parse_request", root, id,
        [&] {
          const util::JsonValue env = util::parse_json(line, "request JSON");
          return service::parse_request(env.object.at("params"),
                                        service::SimRequest::Kind::kRun);
        },
        true, &parse_s);
    const std::string key = tr_->span(
        "service.cache_key", root, id, [&] { return service::cache_key(req); },
        true, &key_s);
    layers_->add("service.parse_request_us", 1e6 * parse_s);
    layers_->add("service.cache_key_us", 1e6 * key_s);
    if (!miss) {
      tr_->span("service.cache_get", root, id,
                [&] { return probe_->get(key); }, true, &get_s);
      layers_->add("service.cache_get_us", 1e6 * get_s);
      layers_->add("service.hit_us", 1e6 * round_trip);
      layers_->add("request.unattributed_s",
                   round_trip - parse_s - key_s - get_s);
      return;
    }
    double exec = 0.0;
    {
      std::lock_guard<std::mutex> lock(exec_mu_);
      const auto it = exec_s_.find(key);
      if (it == exec_s_.end()) return;
      exec = it->second;
    }
    layers_->add("service.execute_s", exec);
    layers_->add("service.queue_wait_s", round_trip - exec);
  }

  Stream stream_;
  std::size_t memory_entries_;
  TempDir dir_;
  Tracer* tr_;
  Layers* layers_;
  Failures& failures_;
  std::map<SvcKey, std::string> refs_;  ///< hot key -> report bytes
  std::unique_ptr<service::ResultCache> probe_;  ///< traced: component timing
  std::mutex exec_mu_;
  std::map<std::string, double> exec_s_;  ///< cache key -> execute seconds
  std::unique_ptr<service::SimService> svc_;  // declared last: drained first
  service::ServiceStats stats0_;
  service::CacheStats cache0_;
  std::string stats_json_;
};

// --- main ------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  long requests = 0;
  bool trace = false;
  bool setup_only = false;
  std::string tmp = ".bench_build/perfbench/tmp";
  std::string spans;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string f = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + f);
      return argv[++i];
    };
    if (f == "--workload") a.workload = value();
    else if (f == "--seed") a.seed = std::stoull(value());
    else if (f == "--requests") a.requests = std::stol(value());
    else if (f == "--trace") a.trace = true;
    else if (f == "--setup-only") a.setup_only = true;
    else if (f == "--tmp") a.tmp = value();
    else if (f == "--spans") a.spans = value();
    else throw std::invalid_argument("unknown flag " + f);
  }
  if (!service_memory_entries().count(a.workload) &&
      !run_shapes().count(a.workload))
    throw std::invalid_argument("unknown workload '" + a.workload + "'");
  if (a.requests < 2 * static_cast<long>(kTailAbove))
    throw std::invalid_argument("--requests must be >= 20");
  return a;
}

struct Outcome {
  std::vector<double> latency;  ///< untraced requests
  std::vector<double> traced;   ///< traced requests (trace mode only)
  Usage cpu;  ///< process CPU over the timed phase
  double peak_rss_mb = 0.0;  ///< at the end of the timed phase
  long attempted = 0;
  long completed = 0;  ///< requests that returned (run workloads may throw)
};

int run(const Args& a) {
  Failures failures;
  std::unique_ptr<Tracer> tracer;
  std::unique_ptr<Layers> layers;
  if (a.trace) {
    tracer = std::make_unique<Tracer>();
    layers = std::make_unique<Layers>();
  }
  const bool is_service = service_memory_entries().count(a.workload) > 0;
  std::cout << "workload " << a.workload << ": "
            << (is_service ? "seeded request stream (seed " +
                                 std::to_string(a.seed) + ")"
                           : "single deterministic input (seed unused)")
            << ", " << a.requests << " requests, "
            << (a.trace ? "traced" : "untraced") << "\n";

  const auto t_setup = Clock::now();
  std::unique_ptr<RunBench> runb;
  std::unique_ptr<ServiceBench> svcb;
  if (is_service) {
    svcb = std::make_unique<ServiceBench>(
        a.seed, a.requests, service_memory_entries().at(a.workload), a.tmp,
        tracer.get(), layers.get(), failures);
    svcb->setup();
  } else {
    runb = std::make_unique<RunBench>(run_shapes().at(a.workload), tracer.get(),
                                      layers.get(), failures);
    runb->setup();
  }
  const double setup_done = monotonic_s();
  const double setup_in_process = seconds_between(t_setup, Clock::now());

  Outcome out;
  if (!a.setup_only) {
    const Usage u0 = usage_now();
    if (svcb) {
      const std::vector<double> lat = svcb->run(a.trace);
      for (std::size_t i = 0; i < lat.size(); ++i)
        (a.trace && i % 2 == 1 ? out.traced : out.latency).push_back(lat[i]);
    } else {
      for (long i = 0; i < a.requests; ++i) {
        const bool traced = a.trace && i % 2 == 1;
        try {
          const double wall = runb->timed_request(i, traced);
          (traced ? out.traced : out.latency).push_back(wall);
        } catch (const std::exception& e) {
          failures.add("request " + std::to_string(i) + " threw: " + e.what());
        }
      }
    }
    const Usage u1 = usage_now();
    out.peak_rss_mb = peak_rss_mb();
    out.cpu = {u1.user_s - u0.user_s, u1.sys_s - u0.sys_s,
               u1.minflt - u0.minflt};
    out.attempted = a.requests;
    out.completed = svcb ? a.requests
                         : static_cast<long>(out.latency.size() +
                                             out.traced.size());
    if (svcb) {
      if (a.trace) svcb->split_misses();
      svcb->finish();
      svcb->verify_against_direct();
    } else {
      runb->verify_thread_invariance();
    }
  }
  if (tracer && !a.spans.empty()) tracer->write(a.spans);

  std::ostringstream js;
  js << "{\"workload\":" << util::json_quote(a.workload)
     << ",\"seed\":" << a.seed
     << ",\"input\":\"" << (is_service ? "seeded" : "deterministic") << "\""
     << ",\"build_type\":" << util::json_quote(PERFBENCH_BUILD_TYPE)
     << ",\"compiler\":" << util::json_quote(PERFBENCH_COMPILER)
     << ",\"setup_done_monotonic_s\":" << num(setup_done)
     << ",\"setup_in_process_s\":" << num(setup_in_process)
     << ",\"attempted\":" << out.attempted
     << ",\"failed\":" << failures.count << ",\"failures\":[";
  for (std::size_t i = 0; i < failures.list.size(); ++i)
    js << (i ? "," : "") << util::json_quote(failures.list[i]);
  js << "]";
  if (svcb && !a.setup_only) js << ",\"service_stats\":" << svcb->stats_json();
  if (runb) js << ",\"output_sha256\":" << util::json_quote(runb->digest());
  if (!a.setup_only) {
    const std::vector<double>& lat = out.latency;
    const Tail t = tail_of(lat);
    const double p50 = median(lat);
    const double n = static_cast<double>(std::max(1L, out.completed));
    js << ",\"end_to_end\":{\"request_s_p50\":" << num(p50)
       << ",\"request_s_tail\":" << num(t.value)
       << ",\"request_s_tail_pct\":" << num(t.pct)
       << ",\"request_s_tail_above\":" << t.above
       << ",\"request_samples\":" << lat.size()
       << ",\"cpu_s_per_request\":" << num(out.cpu.cpu_s() / n)
       << ",\"cpu_sys_s_per_request\":" << num(out.cpu.sys_s / n)
       << ",\"minflt_per_request\":"
       << num(static_cast<double>(out.cpu.minflt) / n)
       << ",\"peak_rss_mb\":" << num(out.peak_rss_mb)
       << ",\"failed_frac\":"
       << num(static_cast<double>(failures.count) /
              static_cast<double>(out.attempted))
       << "}";
    if (layers) {
      // A run workload repeats one input, so its exact counts must repeat.
      for (const char* name : {"simmpi.events", "simmpi.trace_intervals",
                               "simmpi.graph_events"})
        if (runb && !layers->repeats_exactly(name))
          failures.add(std::string(name) + " differs between requests");
      if (!out.traced.empty() && p50 > 0)
        layers->add("trace.overhead_frac", median(out.traced) / p50 - 1.0);
      for (const Span& s : tracer->snapshot())
        if (s.request < 0 && !s.recall)
          layers->add(s.name + "_s", s.seconds());
      if (runb) {
        // Root remainder: request time its direct (non-recall) children do
        // not cover.
        const std::vector<Span> spans = tracer->snapshot();
        std::map<int, double> covered;
        for (const Span& s : spans)
          if (s.parent >= 0 && !s.recall) covered[s.parent] += s.seconds();
        for (std::size_t i = 0; i < spans.size(); ++i)
          if (spans[i].name == "request")
            layers->add("request.unattributed_s",
                        spans[i].seconds() - covered[static_cast<int>(i)]);
      }
      js << ",\"per_layer\":{";
      bool first = true;
      for (const auto& [k, v] : layers->medians()) {
        js << (first ? "" : ",") << util::json_quote(k) << ":" << num(v);
        first = false;
      }
      js << "}";
    }
  }
  js << "}";
  std::cout << "PERFBENCH_RESULT " << js.str() << std::endl;
  return failures.count == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  try {
    a = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
  try {
    return run(a);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << a.workload << " failed: " << e.what() << "\n";
    return 1;
  }
}
