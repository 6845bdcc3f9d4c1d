// bmc_sweep: counters, shift registers and LFSRs, each swept depth by
// depth with one BmcEngine whose solver keeps every clause and learnt
// clause across the sweep.
#include <memory>

#include "bmc/bmc.hpp"
#include "bmc/sequential.hpp"
#include "circuit/bench_io.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using sateda::bmc::BmcEngine;
using sateda::bmc::SequentialCircuit;

struct MachineSpec {
  std::string name, file;
  int primary_inputs = 0;
  std::vector<bool> init;
  int bound = 0;
  int expect = -1;  ///< shortest counterexample depth, -1: none within bound
};

/// The BENCH core's outputs are bad followed by the next-state functions.
SequentialCircuit load_machine(const MachineSpec& s, const std::string& dir) {
  SequentialCircuit m;
  m.comb = sateda::circuit::read_bench_file(dir + "/" + s.file);
  m.num_primary_inputs = s.primary_inputs;
  m.bad = m.comb.outputs()[0];
  m.next_state.assign(m.comb.outputs().begin() + 1, m.comb.outputs().end());
  m.initial_state = s.init;
  m.outputs = {m.bad};
  return m;
}

PassResult run_pass(const std::vector<MachineSpec>& specs, const std::string& dir,
                    Tracer* t) {
  PassResult pr;
  LayerPass& lp = pr.layers;
  const Clock::time_point t0 = Clock::now();
  std::vector<SequentialCircuit> machines;
  std::vector<std::unique_ptr<BmcEngine>> engines;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    {
      Scope s(t, "circuit.read", static_cast<std::int64_t>(i));
      machines.push_back(load_machine(specs[i], dir));
    }
    sateda::bmc::BmcOptions o;
    o.max_depth = specs[i].bound;
    engines.push_back(std::make_unique<BmcEngine>(machines.back(), o));
  }
  const Clock::time_point t1 = Clock::now();
  std::int64_t item = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const MachineSpec& s = specs[i];
    BmcEngine& e = *engines[i];
    int found = -1;
    for (int k = 0; k <= s.bound && found < 0; ++k, ++item) {
      ++pr.outcome.attempted;
      const sateda::sat::SolverStats before = e.solver().stats();
      const Clock::time_point tk = Clock::now();
      sateda::sat::SolveResult r;
      {
        Scope span(t, "bmc.check_depth", item);
        r = e.check_depth(k);
      }
      const double check_s = seconds_since(tk);
      const sateda::sat::SolverStats after = e.solver().stats();
      const std::int64_t conflicts = after.conflicts - before.conflicts;
      if (r == sateda::sat::SolveResult::kSat) {
        found = k;
        Scope span(t, "bmc.replay", item);
        if (k != s.expect) {
          pr.outcome.fail(s.name + ": counterexample at depth " + std::to_string(k) +
                          ", expected " + std::to_string(s.expect));
        } else if (!sateda::bmc::replay_reaches_bad(machines[i], e.extract_trace(k))) {
          pr.outcome.fail(s.name + ": trace does not replay");
        }
      } else if (r == sateda::sat::SolveResult::kUnknown) {
        pr.outcome.fail(s.name + ": UNKNOWN at depth " + std::to_string(k));
      } else if (k == s.expect) {
        pr.outcome.fail(s.name + ": no counterexample at depth " + std::to_string(k));
      }
      pr.item_ms.push_back(1000.0 * seconds_since(tk));
      pr.fingerprint.emplace_back(static_cast<int>(r), conflicts);
      if (t != nullptr) {
        const double solve_s = after.solve_time_sec - before.solve_time_sec;
        lp.add("bmc.unroll_s", check_s - solve_s);
        lp.add("sat.solve_s", solve_s);
        lp.samples["sat.query"].push_back(1000.0 * solve_s);
      }
    }
    if (t != nullptr) {
      const sateda::sat::SolverStats st = e.solver().stats();
      lp.add("sat.conflicts", static_cast<double>(st.conflicts));
      lp.add("sat.propagations", static_cast<double>(st.propagations));
      lp.add("sat.decisions", static_cast<double>(st.decisions));
      lp.add("watch_visits", static_cast<double>(st.watch_visits));
      lp.add("blocker_hits", static_cast<double>(st.blocker_hits));
      lp.add("sat.learnt_clauses", static_cast<double>(st.learnt_clauses));
      lp.add("sat.deleted_clauses", static_cast<double>(st.deleted_clauses));
      lp.add("sat.arena_gc_runs", static_cast<double>(st.arena_gc_runs));
      lp.add("bmc.vars_final", e.solver().num_vars());
    }
  }
  pr.verdict_s = seconds_between(t1, Clock::now());
  pr.setup_s = seconds_between(t0, t1);
  if (t != nullptr) {
    lp.values["sat.props_per_s"] = lp.ratio("sat.propagations", "sat.solve_s");
    lp.values["sat.watch_visits_per_prop"] = lp.ratio("watch_visits", "sat.propagations");
    lp.values["sat.blocker_hit_rate"] = lp.ratio("blocker_hits", "watch_visits");
  }
  return pr;
}

}  // namespace

Report run_bmc_sweep(const std::string& dir, double seconds, bool trace,
                     const std::string& spans_path) {
  const Json manifest = Json::parse(read_file(dir + "/manifest.json"));
  std::vector<MachineSpec> specs;
  for (const Json& e : manifest.find("machines")->items()) {
    MachineSpec s;
    s.name = e.find("name")->as_string();
    s.file = e.find("file")->as_string();
    s.primary_inputs = static_cast<int>(e.find("primary_inputs")->as_int64());
    for (char c : e.find("init")->as_string()) s.init.push_back(c == '1');
    s.bound = static_cast<int>(e.find("bound")->as_int64());
    s.expect = static_cast<int>(e.find("expect")->as_int64());
    specs.push_back(std::move(s));
  }
  Report rep = drive("bmc_sweep", seconds, trace, spans_path,
                     [&](Tracer* t) { return run_pass(specs, dir, t); });
  rep.detail.set("machines", static_cast<std::int64_t>(specs.size()));
  return rep;
}

}  // namespace perfbench
