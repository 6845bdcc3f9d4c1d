// Input generator: every netlist a workload reads, and every answer it
// is checked against, comes from here.  Known answers are derived by a
// path that shares nothing with the timed flow:
//  - construction (resynthesized and commutativity pairs),
//  - a simulated witness (injected bugs, detectable faults),
//  - a from-scratch miter solve whose DRAT proof is checked (redundant
//    faults),
//  - closed form or simulation of the machine (BMC depths).
#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "atpg/fault.hpp"
#include "bmc/sequential.hpp"
#include "circuit/bench_io.hpp"
#include "circuit/encoder.hpp"
#include "circuit/generators.hpp"
#include "circuit/miter.hpp"
#include "circuit/simulator.hpp"
#include "sat/drat_check.hpp"
#include "sat/proof.hpp"
#include "sat/solver.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using sateda::CnfFormula;
using sateda::circuit::Circuit;
using sateda::circuit::GateType;
using sateda::circuit::kNullNode;
using sateda::circuit::NodeId;

/// Writes \p c as BENCH and returns the circuit read back from the file,
/// whose node numbering is what every later consumer sees.
Circuit write_and_reload(const Circuit& c, const std::string& dir,
                         const std::string& file) {
  write_file(dir + "/" + file, sateda::circuit::to_bench_string(c));
  return sateda::circuit::read_bench_file(dir + "/" + file);
}

/// Copies \p src gate by gate; \p gate builds the copy of node \p id
/// from its already-copied fanins and returns the new node.
template <typename F>
Circuit rebuild(const Circuit& src, const std::string& name, F&& gate) {
  Circuit out(name);
  std::vector<NodeId> map(src.num_nodes(), kNullNode);
  for (NodeId i : src.inputs()) map[i] = out.add_input(src.node(i).name);
  for (NodeId id = 0; id < static_cast<NodeId>(src.num_nodes()); ++id) {
    const sateda::circuit::Node& n = src.node(id);
    if (n.type == GateType::kInput) continue;
    if (n.type == GateType::kConst0 || n.type == GateType::kConst1) {
      map[id] = out.add_const(n.type == GateType::kConst1);
      continue;
    }
    std::vector<NodeId> fanins;
    fanins.reserve(n.fanins.size());
    for (NodeId f : n.fanins) fanins.push_back(map[f]);
    map[id] = gate(out, id, n.type, std::move(fanins));
  }
  for (NodeId o : src.outputs()) out.mark_output(map[o]);
  return out;
}

/// Same function as \p src, with each AND/OR/NAND/NOR gate replaced by
/// its De Morgan dual over inverted fanins with probability 1/2.
Circuit demorgan(const Circuit& src, Rng& rng) {
  return rebuild(src, src.name() + "_dm",
                 [&](Circuit& out, NodeId, GateType t,
                     std::vector<NodeId> fanins) {
                   GateType dual = t;
                   switch (t) {
                     case GateType::kAnd: dual = GateType::kNor; break;
                     case GateType::kOr: dual = GateType::kNand; break;
                     case GateType::kNand: dual = GateType::kOr; break;
                     case GateType::kNor: dual = GateType::kAnd; break;
                     default: break;
                   }
                   if (dual == t || !rng.coin()) return out.add_gate(t, fanins);
                   for (NodeId& f : fanins) f = out.add_not(f);
                   return out.add_gate(dual, fanins);
                 });
}

/// Ripple-carry adder with De Morgan'd NOR carry logic: the standard
/// "two implementations" CEC counterpart of ripple_carry_adder(n).
Circuit resynthesized_adder(int n) {
  Circuit c("adder_nor" + std::to_string(n));
  std::vector<NodeId> a(n), b(n);
  for (int i = 0; i < n; ++i) a[i] = c.add_input("a" + std::to_string(i));
  for (int i = 0; i < n; ++i) b[i] = c.add_input("b" + std::to_string(i));
  NodeId carry = c.add_input("cin");
  for (int i = 0; i < n; ++i) {
    const NodeId p = c.add_xor(a[i], b[i]);
    c.mark_output(c.add_xor(p, carry));
    const NodeId g = c.add_and(a[i], b[i]);
    const NodeId pc = c.add_and(p, carry);
    carry = c.add_nand(c.add_not(g), c.add_not(pc));
  }
  c.mark_output(carry);
  return c;
}

/// The n x n array multiplier fed b*a instead of a*b: functionally equal
/// to array_multiplier(n), structurally disjoint.
Circuit swapped_multiplier(int n) {
  Circuit s("mulswap" + std::to_string(n));
  std::vector<NodeId> in;
  for (int i = 0; i < 2 * n; ++i) in.push_back(s.add_input("i" + std::to_string(i)));
  const Circuit inner = sateda::circuit::array_multiplier(n);
  std::vector<NodeId> wired(static_cast<std::size_t>(2 * n));
  for (int i = 0; i < n; ++i) {
    wired[static_cast<std::size_t>(i)] = in[static_cast<std::size_t>(n + i)];
    wired[static_cast<std::size_t>(n + i)] = in[static_cast<std::size_t>(i)];
  }
  const std::vector<NodeId> map = sateda::circuit::append_copy(s, inner, wired);
  for (NodeId o : inner.outputs()) s.mark_output(map[o]);
  return s;
}

std::vector<std::uint64_t> random_words(Rng& rng, std::size_t n) {
  std::vector<std::uint64_t> w(n);
  for (std::uint64_t& x : w) x = rng.next();
  return w;
}

/// First simulated input pattern on which \p a and \p b differ, from
/// \p batches batches of 64 random patterns; empty when none does.
std::vector<bool> find_witness(const Circuit& a, const Circuit& b, Rng& rng,
                               int batches) {
  for (int t = 0; t < batches; ++t) {
    const std::vector<std::uint64_t> in = random_words(rng, a.inputs().size());
    const std::vector<std::uint64_t> va = sateda::circuit::simulate_words(a, in);
    const std::vector<std::uint64_t> vb = sateda::circuit::simulate_words(b, in);
    std::uint64_t diff = 0;
    for (std::size_t o = 0; o < a.outputs().size(); ++o) {
      diff |= va[a.outputs()[o]] ^ vb[b.outputs()[o]];
    }
    if (diff == 0) continue;
    const int bit = __builtin_ctzll(diff);
    std::vector<bool> w(in.size());
    for (std::size_t i = 0; i < in.size(); ++i) w[i] = (in[i] >> bit) & 1;
    return w;
  }
  return {};
}

Json bits_json(const std::vector<bool>& bits) {
  std::string s;
  for (bool b : bits) s += b ? '1' : '0';
  return Json(s);
}

// --- cec_certified ----------------------------------------------------

struct CecPair {
  std::string id;
  std::string group;
  Circuit a, b;
  bool equal = true;
  std::vector<bool> witness;  ///< on !equal: inputs where outputs differ
};

/// A copy of \p src with one gate's function changed (AND<->OR,
/// NAND<->NOR, XOR<->XNOR, NOT<->BUF), chosen until simulation finds a
/// witness that the change is observable.
CecPair inject_bug(const Circuit& src, const std::string& id, Rng& rng) {
  std::vector<NodeId> gates;
  for (NodeId n = 0; n < static_cast<NodeId>(src.num_nodes()); ++n) {
    const GateType t = src.node(n).type;
    if (t != GateType::kInput && t != GateType::kConst0 && t != GateType::kConst1) {
      gates.push_back(n);
    }
  }
  for (int attempt = 0; attempt < 64; ++attempt) {
    const NodeId victim =
        gates[static_cast<std::size_t>(rng.range(0, static_cast<int>(gates.size()) - 1))];
    Circuit bug = rebuild(src, src.name() + "_bug",
                          [&](Circuit& out, NodeId id, GateType t,
                              std::vector<NodeId> fanins) {
                            if (id == victim) {
                              switch (t) {
                                case GateType::kAnd: t = GateType::kOr; break;
                                case GateType::kOr: t = GateType::kAnd; break;
                                case GateType::kNand: t = GateType::kNor; break;
                                case GateType::kNor: t = GateType::kNand; break;
                                case GateType::kXor: t = GateType::kXnor; break;
                                case GateType::kXnor: t = GateType::kXor; break;
                                case GateType::kNot: t = GateType::kBuf; break;
                                case GateType::kBuf: t = GateType::kNot; break;
                                default: break;
                              }
                            }
                            return out.add_gate(t, fanins);
                          });
    std::vector<bool> w = find_witness(src, bug, rng, 16);
    if (w.empty()) continue;
    CecPair p;
    p.id = id;
    p.group = "bug";
    p.a = src;
    p.b = std::move(bug);
    p.equal = false;
    p.witness = std::move(w);
    return p;
  }
  throw std::runtime_error("no observable bug found in " + src.name());
}

CecPair equal_pair(const std::string& id, const std::string& group, Circuit a,
                   Circuit b, Rng& rng) {
  // By construction; a random-simulation sweep guards the generator.
  if (!find_witness(a, b, rng, 4).empty()) {
    throw std::runtime_error("generator bug: " + id + " is not equivalent");
  }
  CecPair p;
  p.id = id;
  p.group = group;
  p.a = std::move(a);
  p.b = std::move(b);
  return p;
}

}  // namespace

void generate_cec(std::uint64_t seed, const std::string& dir) {
  using namespace sateda::circuit;
  Rng rng(seed);
  std::vector<CecPair> pairs;
  // Sizes form a fixed ladder, so the pass's work barely moves with the
  // seed; the seed changes the circuits themselves (De Morgan choices,
  // random netlists, bug sites) and the order of the pairs.
  const int kSlots = 14;
  for (int i = 0; i < kSlots; ++i) {
    const int w = 64 + 12 * i;
    pairs.push_back(equal_pair("adder" + std::to_string(w), "resynth",
                               ripple_carry_adder(w),
                               demorgan(resynthesized_adder(w), rng), rng));
  }
  for (int i = 0; i < kSlots; ++i) {
    const int w = 8 + 4 * i;
    Circuit a = alu(w);
    Circuit b = demorgan(a, rng);
    pairs.push_back(equal_pair("alu" + std::to_string(w), "resynth",
                               std::move(a), std::move(b), rng));
  }
  for (int i = 0; i < kSlots; ++i) {
    const int g = 200 + 35 * i;
    Circuit a = random_circuit(32, g, rng.next());
    Circuit b = demorgan(a, rng);
    pairs.push_back(equal_pair("rand" + std::to_string(g), "resynth",
                               std::move(a), std::move(b), rng));
  }
  for (int i = 0; i < kSlots; ++i) {
    const int w = 16 + 6 * i;
    pairs.push_back(inject_bug(ripple_carry_adder(w),
                               "adder" + std::to_string(w) + "_bug", rng));
  }
  for (int i = 0; i < kSlots; ++i) {
    const int w = 8 + 3 * i;
    pairs.push_back(inject_bug(alu(w), "alu" + std::to_string(w) + "_bug", rng));
  }
  for (int i = 0; i < kSlots; ++i) {
    const int g = 100 + 18 * i;
    pairs.push_back(inject_bug(random_circuit(24, g, rng.next()),
                               "rand" + std::to_string(g) + "_bug", rng));
  }
  // Multiplier commutativity has no short resolution proofs; these
  // pairs carry the search and certification work.  Their structure is
  // fixed so that the heaviest items do not move with the seed.
  for (int n : {4, 5, 6}) {
    pairs.push_back(equal_pair("mult" + std::to_string(n), "commute",
                               array_multiplier(n), swapped_multiplier(n), rng));
  }
  // Deterministic but seed-dependent order of the pairs.
  for (std::size_t i = pairs.size(); i > 1; --i) {
    std::swap(pairs[i - 1], pairs[static_cast<std::size_t>(rng.next() % i)]);
  }

  Json list = Json::array();
  for (CecPair& p : pairs) {
    const std::string fa = p.id + ".a.bench";
    const std::string fb = p.id + ".b.bench";
    write_and_reload(p.a, dir, fa);
    write_and_reload(p.b, dir, fb);
    Json e = Json::object();
    e.set("id", p.id);
    e.set("group", p.group);
    e.set("a", fa);
    e.set("b", fb);
    e.set("expect", p.equal ? "eq" : "neq");
    if (!p.equal) e.set("witness", bits_json(p.witness));
    list.push_back(std::move(e));
  }
  Json manifest = Json::object();
  manifest.set("workload", "cec_certified");
  manifest.set("seed", static_cast<std::int64_t>(seed));
  manifest.set("pairs", std::move(list));
  write_file(dir + "/manifest.json", manifest.dump() + "\n");
}

// --- atpg_serve -------------------------------------------------------

namespace {

/// The good circuit plus a faulty duplicate of the fanout cone of
/// stuck-at fault \p f (a constant replaces the faulty stem, or the
/// faulty input pin of one gate).  Its single output is 1 exactly on the
/// input patterns that detect \p f; it has no output when the cone
/// reaches no primary output.
Circuit fault_miter(const Circuit& good, const sateda::atpg::Fault& f) {
  using sateda::atpg::Fault;
  Circuit m(good.name() + "_fault");
  NodeId konst = kNullNode;
  auto stuck = [&]() {
    if (konst == kNullNode) konst = m.add_const(f.stuck_value);
    return konst;
  };
  std::vector<NodeId> g(good.num_nodes(), kNullNode);
  std::vector<NodeId> bad(good.num_nodes(), kNullNode);
  for (NodeId i : good.inputs()) g[i] = bad[i] = m.add_input();
  if (good.is_input(f.node) && f.pin == Fault::kOutputPin) bad[f.node] = stuck();
  for (NodeId id = 0; id < static_cast<NodeId>(good.num_nodes()); ++id) {
    const sateda::circuit::Node& n = good.node(id);
    if (n.type == GateType::kInput) continue;
    if (n.type == GateType::kConst0 || n.type == GateType::kConst1) {
      g[id] = bad[id] = m.add_const(n.type == GateType::kConst1);
    } else {
      std::vector<NodeId> gi, bi;
      for (NodeId x : n.fanins) {
        gi.push_back(g[x]);
        bi.push_back(bad[x]);
      }
      if (id == f.node && f.pin != Fault::kOutputPin) {
        bi[static_cast<std::size_t>(f.pin)] = stuck();
      }
      g[id] = m.add_gate(n.type, gi);
      bad[id] = bi == gi ? g[id] : m.add_gate(n.type, bi);
    }
    if (id == f.node && f.pin == Fault::kOutputPin) bad[id] = stuck();
  }
  std::vector<NodeId> diffs;
  for (NodeId o : good.outputs()) {
    if (bad[o] != g[o]) diffs.push_back(m.add_xor(g[o], bad[o]));
  }
  if (diffs.size() == 1) m.mark_output(diffs[0]);
  if (diffs.size() > 1) m.mark_output(m.add_gate(GateType::kOr, diffs));
  return m;
}

/// Classifies one fault: detected (with a simulated witness) or
/// redundant.  Faults no random pattern detects get a from-scratch solve
/// of their fault miter; an UNSAT answer counts only once its DRAT proof
/// checks.  Throws if an answer cannot be confirmed.
bool is_redundant(const Circuit& good, const sateda::atpg::Fault& f, Rng& rng) {
  const Circuit m = fault_miter(good, f);
  if (m.outputs().empty()) return true;  // the fault cannot reach an output
  for (int t = 0; t < 8; ++t) {
    const std::vector<std::uint64_t> in = random_words(rng, m.inputs().size());
    if (sateda::circuit::simulate_words(m, in)[m.outputs()[0]] != 0) return false;
  }
  CnfFormula cnf = sateda::circuit::encode_circuit(m);
  cnf.add_unit(sateda::pos(m.outputs()[0]));
  sateda::sat::Proof proof;
  sateda::sat::Solver solver;
  solver.set_proof_tracer(&proof);
  const bool okay = solver.add_formula(cnf);
  const sateda::sat::SolveResult r =
      okay ? solver.solve() : sateda::sat::SolveResult::kUnsat;
  if (r == sateda::sat::SolveResult::kUnsat) {
    if (!sateda::sat::check_drat(cnf, proof).ok) {
      throw std::runtime_error("redundancy proof did not check");
    }
    return true;
  }
  if (r != sateda::sat::SolveResult::kSat) {
    throw std::runtime_error("fault miter solve was undecided");
  }
  std::vector<bool> witness;
  for (NodeId i : m.inputs()) witness.push_back(solver.model_value(i).is_true());
  if (!sateda::circuit::simulate_outputs(m, witness)[0]) {
    throw std::runtime_error("fault witness does not replay");
  }
  return false;
}

}  // namespace

void generate_atpg(std::uint64_t seed, const std::string& dir) {
  using namespace sateda::circuit;
  Rng rng(seed);
  struct Named {
    std::string name;
    Circuit c;
  };
  // The ALU and the multiplier are fixed and keep all their faults in
  // collapse order; the seeded random netlists contribute a seeded sample
  // of a fixed size, so every seed sends the same number of faults to
  // each session.
  const std::size_t kRandomSample = 150;
  std::vector<Named> netlists;
  netlists.push_back({"alu16", alu(16)});
  netlists.push_back({"mult6", array_multiplier(6)});
  // Six small random netlists rather than one large one: their costs
  // average out, so the pass's work barely moves with the seed.
  for (int i = 0; i < 6; ++i) {
    netlists.push_back({"rand" + std::to_string(i), random_circuit(24, 160, rng.next())});
  }

  Json circuits = Json::array();
  for (Named& n : netlists) {
    const std::string file = n.name + ".bench";
    const Circuit c = write_and_reload(n.c, dir, file);
    std::vector<sateda::atpg::Fault> faults =
        sateda::atpg::collapse_faults(c, sateda::atpg::enumerate_faults(c));
    if (n.name.rfind("rand", 0) == 0) {
      // A seeded sample, kept in collapse order: the order a warm session
      // sees its faults in moves its cost far more than the seed should.
      if (faults.size() < kRandomSample) throw std::runtime_error("fault list too short");
      std::vector<std::size_t> pick(faults.size());
      for (std::size_t i = 0; i < pick.size(); ++i) pick[i] = i;
      for (std::size_t i = pick.size(); i > 1; --i) {
        std::swap(pick[i - 1], pick[static_cast<std::size_t>(rng.next() % i)]);
      }
      pick.resize(kRandomSample);
      std::sort(pick.begin(), pick.end());
      std::vector<sateda::atpg::Fault> sample;
      for (std::size_t i : pick) sample.push_back(faults[i]);
      faults = std::move(sample);
    }
    Json list = Json::array();
    int redundant = 0;
    for (const sateda::atpg::Fault& f : faults) {
      const bool r = is_redundant(c, f, rng);
      redundant += r ? 1 : 0;
      Json e = Json::array();
      e.push_back(static_cast<std::int64_t>(f.node));
      e.push_back(f.pin);
      e.push_back(f.stuck_value ? 1 : 0);
      e.push_back(r ? "redundant" : "detected");
      list.push_back(std::move(e));
    }
    Json e = Json::object();
    e.set("name", n.name);
    e.set("file", file);
    e.set("redundant", redundant);
    e.set("faults", std::move(list));
    circuits.push_back(std::move(e));
  }
  Json manifest = Json::object();
  manifest.set("workload", "atpg_serve");
  manifest.set("seed", static_cast<std::int64_t>(seed));
  manifest.set("circuits", std::move(circuits));
  write_file(dir + "/manifest.json", manifest.dump() + "\n");
}

// --- bmc_sweep --------------------------------------------------------

namespace {

/// First step at which \p m asserts bad under the all-\p input_value
/// input sequence, within \p bound steps; -1 when it never does.  For
/// the counter (enable held high) and the shift register (ones shifted
/// in) that sequence is the fastest route to bad, so this is the
/// shortest counterexample depth; the LFSR has no inputs at all.
int simulated_depth(const sateda::bmc::SequentialCircuit& m, int bound) {
  std::vector<bool> state = m.initial_state;
  const std::vector<bool> inputs(static_cast<std::size_t>(m.num_primary_inputs), true);
  for (int k = 0; k <= bound; ++k) {
    auto [next, bad] = sateda::bmc::step(m, state, inputs);
    if (bad) return k;
    state = std::move(next);
  }
  return -1;
}

}  // namespace

void generate_bmc(std::uint64_t seed, const std::string& dir) {
  using sateda::bmc::SequentialCircuit;
  Rng rng(seed);
  const int kBound = 64;
  struct Spec {
    std::string name;
    SequentialCircuit m;
    int expect;
  };
  std::vector<Spec> specs;
  // Depths form a fixed ladder, so every seed does the same number of
  // depth queries; the seed picks start states, LFSR taps and the free
  // bits of the shift registers.
  //
  // Counters carry the search.  From start s, bad = s + d (mod 256) is
  // first reachable at depth d (closed form); half of them lie beyond
  // the bound and sweep all of it.
  auto counter = [&](const std::string& name, int d) {
    const int start = rng.range(0, 255);
    SequentialCircuit m =
        sateda::bmc::counter_machine(8, static_cast<std::uint64_t>((start + d) & 255));
    for (int b = 0; b < 8; ++b) m.initial_state[static_cast<std::size_t>(b)] = (start >> b) & 1;
    specs.push_back({name, std::move(m), d <= kBound ? d : -1});
  };
  for (int i = 0; i < 24; ++i) counter("counter_r" + std::to_string(i), 16 + 2 * i);
  for (int i = 0; i < 24; ++i) counter("counter_u" + std::to_string(i), 65 + 8 * i);
  // Shift registers and LFSRs carry unrolling with no search.  A shift
  // register whose first w-d bits start at 1 and whose next bit starts
  // at 0 needs exactly d more ones shifted in.
  for (int i = 0; i < 8; ++i) {
    const int d = 20 + 8 * i;
    const int w = d + 8;
    SequentialCircuit m = sateda::bmc::shift_register_machine(w);
    for (int b = 0; b < w; ++b) {
      m.initial_state[static_cast<std::size_t>(b)] = b < w - d || (b > w - d && rng.coin());
    }
    specs.push_back({"shift" + std::to_string(i), std::move(m), d <= kBound ? d : -1});
  }
  for (int i = 0; i < 8; ++i) {
    const int bits = 16;
    const std::uint64_t taps = (rng.next() & 0xfffe) | 1;
    const std::uint64_t start = (rng.next() & 0xffff) | 1;
    // Bad is the state reached after `steps` steps; the simulation below
    // finds its first occurrence (earlier if the sequence cycles).
    const int steps = 16 + 8 * i;
    SequentialCircuit probe = sateda::bmc::lfsr_machine(bits, taps, start, 0);
    std::vector<bool> state = probe.initial_state;
    for (int k = 0; k < steps; ++k) state = sateda::bmc::step(probe, state, {}).first;
    std::uint64_t bad_state = 0;
    for (int b = 0; b < bits; ++b) {
      if (state[static_cast<std::size_t>(b)]) bad_state |= std::uint64_t{1} << b;
    }
    specs.push_back({"lfsr" + std::to_string(i),
                     sateda::bmc::lfsr_machine(bits, taps, start, bad_state), 0});
  }

  Json list = Json::array();
  for (Spec& s : specs) {
    const int simulated = simulated_depth(s.m, kBound);
    if (s.name.rfind("lfsr", 0) == 0) {
      s.expect = simulated;
    } else if (simulated != s.expect) {
      throw std::runtime_error("generator bug: closed form disagrees for " + s.name);
    }
    // BENCH carries the combinational core; its outputs are bad followed
    // by the next-state functions, and the latch data goes in the manifest.
    Circuit core(s.name);
    std::vector<NodeId> in;
    for (NodeId i : s.m.comb.inputs()) in.push_back(core.add_input(s.m.comb.node(i).name));
    const std::vector<NodeId> map = sateda::circuit::append_copy(core, s.m.comb, in);
    core.mark_output(map[s.m.bad]);
    for (NodeId n : s.m.next_state) core.mark_output(map[n]);
    const std::string file = s.name + ".bench";
    write_and_reload(core, dir, file);
    Json e = Json::object();
    e.set("name", s.name);
    e.set("file", file);
    e.set("primary_inputs", s.m.num_primary_inputs);
    e.set("init", bits_json(s.m.initial_state));
    e.set("bound", kBound);
    e.set("expect", s.expect);
    list.push_back(std::move(e));
  }
  Json manifest = Json::object();
  manifest.set("workload", "bmc_sweep");
  manifest.set("seed", static_cast<std::int64_t>(seed));
  manifest.set("machines", std::move(list));
  write_file(dir + "/manifest.json", manifest.dump() + "\n");
}

}  // namespace perfbench
