// cec_certified: one-shot certified equivalence checks over a seeded mix
// of miter pairs.  The untraced pass calls equiv::check_equivalence; the
// traced pass replays the same certified path layer by layer (miter,
// strash, rewrite, cone encoding, hints, solve) so each call can be
// timed, and must reach the same verdict with the same conflict count.
#include <vector>

#include "circuit/bench_io.hpp"
#include "circuit/encoder.hpp"
#include "circuit/miter.hpp"
#include "circuit/rewrite.hpp"
#include "circuit/simulator.hpp"
#include "circuit/structural_hash.hpp"
#include "csat/hints.hpp"
#include "equiv/cec.hpp"
#include "sat/drat_check.hpp"
#include "sat/proof.hpp"
#include "sat/solver.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using sateda::circuit::Circuit;
using sateda::circuit::GateType;
using sateda::circuit::NodeId;
using sateda::equiv::CecVerdict;

struct Pair {
  std::string id;
  bool expect_equal = true;
  Circuit a, b;
};

struct Spec {
  std::string id, a, b;
  bool expect_equal = true;
};

/// What the flow concluded about one pair, before certification.
struct Answer {
  CecVerdict verdict = CecVerdict::kUnknown;
  std::vector<bool> counterexample;
  bool solved = false;  ///< a SAT call was made (formula + proof exist)
  std::int64_t conflicts = 0;
  sateda::CnfFormula formula;
};

sateda::equiv::CecOptions cec_options(sateda::sat::ProofTracer* proof) {
  sateda::equiv::CecOptions o;
  o.rewrite = true;
  o.plaisted_greenbaum = true;
  o.struct_hints = true;
  o.proof = proof;
  return o;
}

/// The entry point, as a user calls it.
Answer check_untraced(const Pair& p, sateda::sat::Proof& proof) {
  sateda::equiv::CecResult r =
      sateda::equiv::check_equivalence(p.a, p.b, cec_options(&proof));
  Answer a;
  a.verdict = r.verdict;
  a.counterexample = std::move(r.counterexample);
  a.solved = !r.pipeline_formula.clauses().empty();
  a.conflicts = r.conflicts;
  a.formula = std::move(r.pipeline_formula);
  return a;
}

/// Returns true and fills \p a when the single miter output is a constant.
bool settled(const Circuit& miter, std::size_t num_inputs, Answer& a) {
  const GateType t = miter.node(miter.outputs()[0]).type;
  if (t == GateType::kConst0) {
    a.verdict = CecVerdict::kEquivalent;
    return true;
  }
  if (t == GateType::kConst1) {
    a.verdict = CecVerdict::kNotEquivalent;
    a.counterexample.assign(num_inputs, false);
    return true;
  }
  return false;
}

/// The same certified path check_equivalence takes with cec_options(),
/// one public layer call at a time, each in its own span.
Answer check_traced(const Pair& p, sateda::sat::Proof& proof, Tracer* t,
                    std::int64_t item, LayerPass& lp) {
  Answer a;
  Circuit miter;
  {
    Scope s(t, "circuit.miter", item);
    miter = sateda::circuit::build_miter(p.a, p.b);
  }
  const std::size_t n = p.a.inputs().size();
  {
    Scope s(t, "circuit.strash", item);
    sateda::circuit::StrashStats st;
    miter = sateda::circuit::strash(miter, &st);
    lp.add("strash.in", static_cast<double>(st.gates_before));
    lp.add("strash.out", static_cast<double>(st.gates_after));
  }
  if (settled(miter, n, a)) return a;
  {
    Scope s(t, "circuit.rewrite", item);
    sateda::circuit::RewriteResult rr = sateda::circuit::rewrite(miter);
    lp.add("rewrite.in", static_cast<double>(rr.stats.gates_before));
    lp.add("rewrite.out", static_cast<double>(rr.stats.gates_after));
    miter = std::move(rr.circuit);
  }
  if (settled(miter, n, a)) return a;

  const std::vector<std::pair<NodeId, bool>> objectives{{miter.outputs()[0], true}};
  sateda::circuit::ConeEncoding enc;
  {
    Scope s(t, "circuit.encode", item);
    sateda::circuit::ConeEncodingOptions eo;
    eo.plaisted_greenbaum = true;
    enc = sateda::circuit::encode_objectives(miter, objectives, eo);
  }
  lp.add("circuit.cnf_clauses", static_cast<double>(enc.formula.num_clauses()));
  a.solved = true;
  a.formula = enc.formula;
  sateda::sat::Solver solver(cec_options(nullptr).solver);
  solver.set_proof_tracer(&proof);
  bool okay = false;
  {
    Scope s(t, "sat.add", item);
    okay = solver.add_formula(enc.formula);
  }
  if (!okay) {
    a.verdict = CecVerdict::kEquivalent;
    return a;
  }
  {
    Scope s(t, "csat.hints", item);
    sateda::csat::make_structure_hints(miter, enc.node_to_var, objectives).apply(solver);
  }
  sateda::sat::SolveResult r;
  {
    Scope s(t, "sat.search", item);
    r = solver.solve();
  }
  const sateda::sat::SolverStats st = solver.stats();
  a.conflicts = st.conflicts;
  lp.add("sat.solve_s", st.solve_time_sec);
  lp.add("sat.conflicts", static_cast<double>(st.conflicts));
  lp.add("sat.propagations", static_cast<double>(st.propagations));
  lp.add("sat.decisions", static_cast<double>(st.decisions));
  lp.add("watch_visits", static_cast<double>(st.watch_visits));
  lp.add("blocker_hits", static_cast<double>(st.blocker_hits));
  lp.add("sat.learnt_clauses", static_cast<double>(st.learnt_clauses));
  lp.add("sat.deleted_clauses", static_cast<double>(st.deleted_clauses));
  lp.add("sat.arena_gc_runs", static_cast<double>(st.arena_gc_runs));
  lp.samples["sat.query"].push_back(1000.0 * st.solve_time_sec);
  if (r == sateda::sat::SolveResult::kUnsat) {
    a.verdict = CecVerdict::kEquivalent;
  } else if (r == sateda::sat::SolveResult::kSat) {
    a.verdict = CecVerdict::kNotEquivalent;
    for (NodeId i : miter.inputs()) {
      const sateda::Var v = enc.node_to_var[static_cast<std::size_t>(i)];
      a.counterexample.push_back(v != sateda::kNullVar && solver.model_value(v).is_true());
    }
  }
  return a;
}

/// Checks one answer against the known one and certifies it: EQ
/// answers that reached the solver by check_drat on the refuted
/// formula, NEQ answers by replaying the counterexample.
void certify(const Pair& p, const Answer& a, const sateda::sat::Proof& proof,
             Tracer* t, std::int64_t item, Outcome& out, LayerPass& lp) {
  if (a.verdict == CecVerdict::kUnknown) {
    out.fail(p.id + ": UNKNOWN");
    return;
  }
  const bool equal = a.verdict == CecVerdict::kEquivalent;
  if (equal != p.expect_equal) {
    out.fail(p.id + ": answered " + sateda::equiv::to_string(a.verdict));
    return;
  }
  if (equal && a.solved) {
    Scope s(t, "sat.drat_check", item);
    if (t != nullptr) {
      std::int64_t lemmas = 0;
      for (const auto& step : proof.steps()) lemmas += step.deletion ? 0 : 1;
      lp.add("sat.proof_lemmas", static_cast<double>(lemmas));
    }
    if (!sateda::sat::check_drat(a.formula, proof).ok) {
      out.fail(p.id + ": DRAT proof rejected");
    }
  } else if (!equal) {
    Scope s(t, "circuit.replay", item);
    if (sateda::circuit::simulate_outputs(p.a, a.counterexample) ==
        sateda::circuit::simulate_outputs(p.b, a.counterexample)) {
      out.fail(p.id + ": counterexample does not replay");
    }
  }
}

PassResult run_pass(const std::vector<Spec>& specs, const std::string& dir, Tracer* t) {
  PassResult pr;
  LayerPass& lp = pr.layers;
  const Clock::time_point t0 = Clock::now();
  std::vector<Pair> pairs;
  pairs.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    Scope s(t, "circuit.read", static_cast<std::int64_t>(i));
    pairs.push_back({specs[i].id, specs[i].expect_equal,
                     sateda::circuit::read_bench_file(dir + "/" + specs[i].a),
                     sateda::circuit::read_bench_file(dir + "/" + specs[i].b)});
  }
  const Clock::time_point t1 = Clock::now();
  std::int64_t settled_pairs = 0;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto item = static_cast<std::int64_t>(i);
    const Clock::time_point ti = Clock::now();
    sateda::sat::Proof proof;
    Answer a;
    {
      Scope s(t, "cec.pair", item);
      a = t == nullptr ? check_untraced(pairs[i], proof)
                       : check_traced(pairs[i], proof, t, item, lp);
      certify(pairs[i], a, proof, t, item, pr.outcome, lp);
    }
    ++pr.outcome.attempted;
    settled_pairs += a.solved ? 0 : 1;
    pr.item_ms.push_back(1000.0 * seconds_since(ti));
    pr.fingerprint.emplace_back(static_cast<int>(a.verdict), a.conflicts);
  }
  pr.verdict_s = seconds_between(t1, Clock::now());
  pr.setup_s = seconds_between(t0, t1);

  if (t != nullptr) {
    lp.values["circuit.strash_kept"] = lp.ratio("strash.out", "strash.in");
    lp.values["circuit.rewrite_kept"] = lp.ratio("rewrite.out", "rewrite.in");
    lp.values["circuit.settled_frac"] =
        static_cast<double>(settled_pairs) / static_cast<double>(pairs.size());
    lp.values["sat.props_per_s"] = lp.ratio("sat.propagations", "sat.solve_s");
    lp.values["sat.watch_visits_per_prop"] = lp.ratio("watch_visits", "sat.propagations");
    lp.values["sat.blocker_hit_rate"] = lp.ratio("blocker_hits", "watch_visits");
  }
  return pr;
}

}  // namespace

Report run_cec(const std::string& dir, double seconds, bool trace,
               const std::string& spans_path) {
  const Json manifest = Json::parse(read_file(dir + "/manifest.json"));
  std::vector<Spec> specs;
  for (const Json& e : manifest.find("pairs")->items()) {
    specs.push_back({e.find("id")->as_string(), e.find("a")->as_string(),
                     e.find("b")->as_string(),
                     e.find("expect")->as_string() == "eq"});
  }
  Report rep = drive("cec_certified", seconds, trace, spans_path,
                     [&](Tracer* t) { return run_pass(specs, dir, t); });
  rep.detail.set("pairs", static_cast<std::int64_t>(specs.size()));
  return rep;
}

}  // namespace perfbench
