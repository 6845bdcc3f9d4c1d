/// \file common.hpp
/// \brief Shared pieces of the perfbench workloads: clocks, summary
///        statistics, failure accounting, the span tracer and the
///        report every run prints.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "serve/json.hpp"

namespace perfbench {

using Json = sateda::serve::Json;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b);
inline double seconds_since(Clock::time_point t) {
  return seconds_between(t, Clock::now());
}
/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// Median of \p v (0 when empty).
double median(std::vector<double> v);
/// Nearest-rank percentile, \p p in [0, 1]: always one of the values,
/// never an interpolation between two unlike items.
double percentile(std::vector<double> v, double p);

/// Minimal 64-bit generator (splitmix64): the inputs depend only on
/// the seed, never on the standard library's distributions.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [lo, hi].
  int range(int lo, int hi);
  bool coin() { return (next() >> 63) != 0; }

 private:
  std::uint64_t state_;
};

/// Per-run failure accounting: every item attempted, every item whose
/// verdict, certificate or replay did not check.
struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> notes;  ///< first few failure messages

  void fail(const std::string& why);
  void merge(const Outcome& o);
};

/// In-memory span recorder for the traced run; spans nest through an
/// explicit stack.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::int64_t item = -1;
    int parent = -1;
    double start = 0.0;  ///< seconds since the tracer's epoch
    double end = 0.0;
  };

  explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}

  int open(const char* name, std::int64_t item);
  void close(int id);

  /// Self time (duration minus the time covered by child spans) summed
  /// per span name over spans with index >= \p first.
  std::map<std::string, double> self_seconds(std::size_t first = 0) const;
  std::size_t size() const { return spans_.size(); }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a null tracer makes it a no-op, which is how the untraced
/// run pays nothing.
class Scope {
 public:
  Scope(Tracer* t, const char* name, std::int64_t item)
      : tracer_(t), id_(t != nullptr ? t->open(name, item) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

/// Writes every span of \p tracer to \p path as JSONL, one object per
/// span.
void write_spans(const std::string& path, const Tracer& tracer);

/// One measured value.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::int64_t samples = 0;  ///< values the figure summarizes
};

/// What one invocation reports.  Metric names follow BENCHMARK.json.
struct Report {
  std::string workload;
  bool traced = false;
  Outcome outcome;
  std::map<std::string, Metric> metrics;
  Json detail = Json::object();  ///< workload-specific extras

  void set(const std::string& name, double value, const std::string& unit,
           std::int64_t samples);
  Json to_json() const;
};

/// One traced pass's per-layer figures: values keyed by per-layer metric
/// name (summed over the pass), and raw samples for percentile metrics
/// keyed by the metric name without its _p50_ms/_p99_ms suffix.
struct LayerPass {
  std::map<std::string, double> values;
  std::map<std::string, std::vector<double>> samples;

  void add(const std::string& name, double v) { values[name] += v; }
  double get(const std::string& name) const;
  /// get(num) / get(den), or 0 when the denominator is 0.
  double ratio(const std::string& num, const std::string& den) const;
};

/// Everything one pass over a workload's inputs measured.
struct PassResult {
  double setup_s = 0.0;    ///< set-up before the first query
  double verdict_s = 0.0;  ///< first query to last checked verdict
  std::vector<double> item_ms;  ///< per-item latency
  /// Per item: verdict code and conflict count, which a traced replay
  /// must reproduce exactly.
  std::vector<std::pair<int, std::int64_t>> fingerprint;
  Outcome outcome;
  LayerPass layers;  ///< filled by traced passes only
};

/// Runs one pass; \p tracer is null for an untraced pass.
using PassFn = std::function<PassResult(Tracer* tracer)>;

/// Runs \p pass repeatedly for \p seconds and summarizes: untraced runs
/// give the end-to-end metrics; traced runs alternate traced and
/// untraced passes, check every traced pass against an untraced
/// reference, and give the per-layer metrics.
Report drive(const std::string& workload, double seconds, bool trace,
             const std::string& spans_path, const PassFn& pass);

/// Reads a whole file; throws std::runtime_error when unreadable.
std::string read_file(const std::string& path);
void write_file(const std::string& path, const std::string& text);

}  // namespace perfbench
