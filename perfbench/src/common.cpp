#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

int Rng::range(int lo, int hi) {
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<int>(next() % span);
}

void Outcome::fail(const std::string& why) {
  ++failed;
  if (notes.size() < 8) notes.push_back(why);
}

void Outcome::merge(const Outcome& o) {
  attempted += o.attempted;
  failed += o.failed;
  for (const std::string& n : o.notes) {
    if (notes.size() < 8) notes.push_back(n);
  }
}

int Tracer::open(const char* name, std::int64_t item) {
  Span s;
  s.name = name;
  s.item = item;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.start = seconds_between(epoch_, Clock::now());
  spans_.push_back(s);
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  spans_[static_cast<std::size_t>(id)].end =
      seconds_between(epoch_, Clock::now());
  stack_.pop_back();
}

std::map<std::string, double> Tracer::self_seconds(std::size_t first) const {
  // Children always follow their parent, so one pass subtracting each
  // child's duration from its parent yields self times.
  std::vector<double> self(spans_.size(), 0.0);
  for (std::size_t i = first; i < spans_.size(); ++i) {
    self[i] += spans_[i].end - spans_[i].start;
    const int p = spans_[i].parent;
    if (p >= static_cast<int>(first)) {
      self[static_cast<std::size_t>(p)] -= spans_[i].end - spans_[i].start;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = first; i < spans_.size(); ++i) {
    out[spans_[i].name] += self[i];
  }
  return out;
}

void write_spans(const std::string& path, const Tracer& tracer) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  char buf[256];
  for (const Tracer::Span& s : tracer.spans()) {
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"item\":%lld,\"parent\":%d,"
                  "\"start\":%.9f,\"end\":%.9f}\n",
                  s.name, static_cast<long long>(s.item), s.parent, s.start, s.end);
    out << buf;
  }
}

void Report::set(const std::string& name, double value,
                 const std::string& unit, std::int64_t samples) {
  metrics[name] = Metric{value, unit, samples};
}

Json Report::to_json() const {
  Json j = Json::object();
  j.set("workload", workload);
  j.set("traced", traced);
  j.set("correct", outcome.failed == 0 && outcome.attempted > 0);
  j.set("attempted", outcome.attempted);
  j.set("failed", outcome.failed);
  Json m = Json::object();
  for (const auto& [name, metric] : metrics) {
    Json v = Json::object();
    v.set("value", metric.value);
    v.set("unit", metric.unit);
    v.set("samples", metric.samples);
    m.set(name, std::move(v));
  }
  j.set("metrics", std::move(m));
  Json notes = Json::array();
  for (const std::string& n : outcome.notes) notes.push_back(n);
  j.set("failures", std::move(notes));
  j.set("detail", detail);
  return j;
}

double LayerPass::get(const std::string& name) const {
  const auto it = values.find(name);
  return it == values.end() ? 0.0 : it->second;
}

double LayerPass::ratio(const std::string& num, const std::string& den) const {
  const double d = get(den);
  return d > 0.0 ? get(num) / d : 0.0;
}

namespace {

struct LayerMetricDef {
  const char* name;
  const char* unit;
};

/// The per-layer metrics of BENCHMARK.json.  A traced run reports every
/// one; a layer the workload never calls reads 0.  Time metrics named
/// after a span ("circuit.read" -> "circuit.read_s") are that span's
/// self time summed over a pass.
constexpr LayerMetricDef kLayerMetrics[] = {
    {"circuit.read_s", "s"},          {"circuit.miter_s", "s"},
    {"circuit.strash_s", "s"},        {"circuit.strash_kept", "ratio"},
    {"circuit.rewrite_s", "s"},       {"circuit.rewrite_kept", "ratio"},
    {"circuit.settled_frac", "ratio"}, {"circuit.encode_s", "s"},
    {"circuit.cnf_clauses", "count"}, {"csat.hints_s", "s"},
    {"sat.solve_s", "s"},             {"sat.conflicts", "count"},
    {"sat.propagations", "count"},    {"sat.decisions", "count"},
    {"sat.props_per_s", "1/s"},       {"sat.watch_visits_per_prop", "ratio"},
    {"sat.blocker_hit_rate", "ratio"}, {"sat.learnt_clauses", "count"},
    {"sat.deleted_clauses", "count"}, {"sat.arena_gc_runs", "count"},
    {"sat.proof_lemmas", "count"},    {"sat.drat_check_s", "s"},
    {"sat.query_p50_ms", "ms"},       {"sat.query_p99_ms", "ms"},
    {"sat.session_vars", "count"},    {"atpg.collapse_s", "s"},
    {"atpg.encode_s", "s"},           {"atpg.query_clauses", "count"},
    {"atpg.replay_s", "s"},           {"atpg.redundant_frac", "ratio"},
    {"serve.load_s", "s"},            {"serve.json_s", "s"},
    {"serve.response_bytes", "B"},    {"serve.overhead_p50_ms", "ms"},
    {"serve.overhead_p99_ms", "ms"},  {"bmc.unroll_s", "s"},
    {"bmc.vars_final", "count"},      {"trace.overhead_s", "s"},
};

bool is_layer_metric(const std::string& name) {
  for (const LayerMetricDef& d : kLayerMetrics) {
    if (name == d.name) return true;
  }
  return false;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

void report_layers(Report& rep, const std::vector<LayerPass>& passes) {
  const auto n = static_cast<std::int64_t>(passes.size());
  for (const LayerMetricDef& d : kLayerMetrics) {
    const std::string name = d.name;
    const bool p50 = ends_with(name, "_p50_ms");
    if (p50 || ends_with(name, "_p99_ms")) {
      const std::string base = name.substr(0, name.size() - 7);
      std::vector<double> pool;
      for (const LayerPass& p : passes) {
        const auto it = p.samples.find(base);
        if (it != p.samples.end()) {
          pool.insert(pool.end(), it->second.begin(), it->second.end());
        }
      }
      rep.set(name, percentile(pool, p50 ? 0.5 : 0.99), d.unit,
              static_cast<std::int64_t>(pool.size()));
      continue;
    }
    std::vector<double> vals;
    for (const LayerPass& p : passes) vals.push_back(p.get(name));
    rep.set(name, median(vals), d.unit, n);
  }
}

/// Calls \p pass until \p seconds have elapsed, at least \p min_passes
/// times.
template <typename F>
void repeat_for(double seconds, int min_passes, F&& pass) {
  const Clock::time_point t0 = Clock::now();
  int n = 0;
  do {
    pass();
    ++n;
  } while (n < min_passes || seconds_since(t0) < seconds);
}

/// Index of the first item where two passes disagree, or -1.
long first_mismatch(const PassResult& a, const PassResult& b) {
  const std::size_t n = std::max(a.fingerprint.size(), b.fingerprint.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (i >= a.fingerprint.size() || i >= b.fingerprint.size() ||
        a.fingerprint[i] != b.fingerprint[i]) {
      return static_cast<long>(i);
    }
  }
  return -1;
}

}  // namespace

Report drive(const std::string& workload, double seconds, bool trace,
             const std::string& spans_path, const PassFn& pass) {
  Report rep;
  rep.workload = workload;
  rep.traced = trace;
  if (!trace) {
    // Every figure is a median over passes, so one pass disturbed by the
    // host moves none of them; the percentiles are taken per pass first.
    std::vector<double> setup, verdict, p50, p90, p99;
    std::int64_t items = 0;
    repeat_for(seconds, 3, [&] {
      PassResult r = pass(nullptr);
      setup.push_back(r.setup_s);
      verdict.push_back(r.verdict_s);
      p50.push_back(percentile(r.item_ms, 0.50));
      p90.push_back(percentile(r.item_ms, 0.90));
      p99.push_back(percentile(r.item_ms, 0.99));
      items += static_cast<std::int64_t>(r.item_ms.size());
      rep.outcome.merge(r.outcome);
    });
    const auto passes = static_cast<std::int64_t>(verdict.size());
    Json each = Json::array();
    for (double v : verdict) each.push_back(v);
    rep.detail.set("pass_verdict_s", std::move(each));
    rep.set("setup_s", median(setup), "s", passes);
    rep.set("verdict_s", median(verdict), "s", passes);
    rep.set("latency_p50_ms", median(p50), "ms", items);
    rep.set("latency_p90_ms", median(p90), "ms", items);
    rep.set("latency_p99_ms", median(p99), "ms", items);
    rep.set("peak_rss_mb", peak_rss_mb(), "MB", 1);
    return rep;
  }

  const Clock::time_point epoch = Clock::now();
  Tracer tracer(epoch);
  // The reference pass also warms caches and the allocator, so it is
  // left out of the overhead comparison.
  const PassResult ref = pass(nullptr);
  rep.outcome.merge(ref.outcome);
  std::vector<double> untraced, traced;
  std::vector<LayerPass> layers;
  auto check = [&](const PassResult& r, const char* what) {
    const long at = first_mismatch(ref, r);
    if (at >= 0) {
      rep.outcome.fail(std::string(what) + " disagrees with the untraced run at item " +
                       std::to_string(at));
    }
    rep.outcome.merge(r.outcome);
  };
  repeat_for(seconds - seconds_since(epoch), 2, [&] {
    const std::size_t first = tracer.size();
    PassResult r = pass(&tracer);
    for (const auto& [span, self] : tracer.self_seconds(first)) {
      if (is_layer_metric(span + "_s")) r.layers.add(span + "_s", self);
    }
    check(r, "traced replay");
    traced.push_back(r.verdict_s);
    layers.push_back(std::move(r.layers));
    PassResult u = pass(nullptr);
    check(u, "repeated untraced pass");
    untraced.push_back(u.verdict_s);
  });
  report_layers(rep, layers);
  rep.set("trace.overhead_s", median(traced) - median(untraced), "s",
          static_cast<std::int64_t>(traced.size()));
  write_spans(spans_path, tracer);
  return rep;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << text;
}

}  // namespace perfbench
