// atpg_serve: stuck-at fault lists answered through the serve protocol.
// Each netlist's faults are dealt round-robin over two warm sessions.  A
// closed-loop client encodes a fault's query, sends push/add/solve/pop
// as JSON lines and reads the four replies before it encodes the next
// fault.  Requests run exactly as a serve worker runs them (parse,
// serve::handle_session_request, dump), but on the client's own thread:
// the daemon's worker pool is left out because its cross-thread wake-ups
// made wall time unrepeatable (see perfbench/STEADINESS.md).
#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>
#include <tuple>

#include "atpg/fault.hpp"
#include "atpg/fault_cnf.hpp"
#include "atpg/fault_sim.hpp"
#include "circuit/bench_io.hpp"
#include "circuit/encoder.hpp"
#include "cnf/dimacs.hpp"
#include "sat/session.hpp"
#include "serve/protocol.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using sateda::atpg::Fault;
using sateda::circuit::Circuit;

constexpr int kSessions = 2;  ///< warm sessions per netlist

struct FaultSpec {
  Fault fault;
  bool redundant = false;
};

struct CircuitSpec {
  std::string name, file;
  std::vector<FaultSpec> faults;  ///< in the order they are sent
};

/// Runs request lines against \p session the way a serve worker does:
/// parse, handle_session_request, dump.  Returns the reply lines.
std::vector<std::string> round_trip(sateda::sat::SolverSession& session,
                                    const std::vector<std::string>& requests) {
  std::vector<std::string> replies;
  replies.reserve(requests.size());
  for (const std::string& line : requests) {
    const Json req = Json::parse(line);
    replies.push_back(sateda::serve::handle_session_request(
                          session, req.find("op")->as_string(), req, req.find("id"))
                          .dump());
  }
  return replies;
}

Json request(const char* op, const std::string& session) {
  Json r = Json::object();
  r.set("op", op);
  r.set("session", session);
  return r;
}

bool ok(const Json& reply) {
  const Json* v = reply.find("ok");
  return v != nullptr && v->is_bool() && v->as_bool();
}

std::string session_name(const CircuitSpec& spec, int j) {
  return spec.name + "#" + std::to_string(j);
}

/// One netlist as the flow holds it after set-up.
struct Netlist {
  const CircuitSpec* spec = nullptr;
  Circuit circuit;
  std::unique_ptr<sateda::atpg::FaultSimulator> sim;
  std::vector<int> input_index;  ///< node -> input position, or -1
  std::vector<std::unique_ptr<sateda::sat::SolverSession>> sessions;
  std::int64_t base_vars = 0;
  std::size_t first_item = 0;  ///< global index of faults[0]
};

/// Sends every fault of \p net and checks every answer.
void run_faults(const Netlist& net, Tracer* t, PassResult& pr) {
  // Layer figures are kept only in traced passes; untraced passes pay
  // nothing for them.
  const bool traced = t != nullptr;
  LayerPass& lp = pr.layers;
  const Circuit& c = net.circuit;
  std::vector<sateda::Var> next_free(kSessions, static_cast<sateda::Var>(net.base_vars));
  for (std::size_t k = 0; k < net.spec->faults.size(); ++k) {
    const int j = static_cast<int>(k % kSessions);
    const std::string session = session_name(*net.spec, j);
    const FaultSpec& fs = net.spec->faults[k];
    const std::size_t item = net.first_item + k;
    const auto span_item = static_cast<std::int64_t>(item);
    // Built only for failure messages.
    const auto name = [&] {
      char buf[64];
      std::snprintf(buf, sizeof buf, ":n%d.in%d/sa%d", fs.fault.node, fs.fault.pin,
                    fs.fault.stuck_value ? 1 : 0);
      return net.spec->name + buf;
    };
    const Clock::time_point ti = Clock::now();
    ++pr.outcome.attempted;
    if (traced) lp.add("faults", 1);
    Scope span(t, "atpg.fault", span_item);
    sateda::atpg::FaultQueryCnf q;
    // push() takes the session's next free variable as the epoch
    // selector; the query's variables follow it.
    const sateda::Var first_free = next_free[static_cast<std::size_t>(j)] + 1;
    {
      Scope s(t, "atpg.encode", span_item);
      q = sateda::atpg::encode_fault_query(c, fs.fault, first_free);
    }
    if (q.trivially_redundant) {
      if (traced) lp.add("redundant", 1);
      if (!fs.redundant) pr.outcome.fail(name() + ": trivially redundant, expected detected");
      pr.fingerprint[item] = {2, 0};
      pr.item_ms.push_back(1000.0 * seconds_since(ti));
      continue;
    }
    next_free[static_cast<std::size_t>(j)] = q.next_var;
    if (traced) {
      lp.add("queries", 1);
      lp.add("query_clauses", static_cast<double>(q.clauses.num_clauses()));
    }
    std::vector<std::string> lines;
    {
      Scope s(t, "serve.json", span_item);
      Json add = request("add", session);
      Json clauses = Json::array();
      for (const sateda::Clause& cl : q.clauses) {
        Json row = Json::array();
        for (sateda::Lit l : cl) row.push_back(sateda::serve::to_dimacs(l));
        clauses.push_back(std::move(row));
      }
      add.set("clauses", std::move(clauses));
      Json solve = request("solve", session);
      Json assume = Json::array();
      for (sateda::Lit l : q.assumptions) assume.push_back(sateda::serve::to_dimacs(l));
      solve.set("assume", std::move(assume));
      lines = {request("push", session).dump(), add.dump(), solve.dump(),
               request("pop", session).dump()};
    }
    const Clock::time_point tr = Clock::now();
    std::vector<std::string> replies;
    {
      Scope s(t, "serve.round_trip", span_item);
      replies = round_trip(*net.sessions[static_cast<std::size_t>(j)], lines);
    }
    const double trip_ms = 1000.0 * seconds_since(tr);
    std::vector<Json> r;
    {
      Scope s(t, "serve.json", span_item);
      for (const std::string& line : replies) {
        if (traced) lp.add("response_bytes", static_cast<double>(line.size()));
        r.push_back(Json::parse(line));
      }
    }
    if (!ok(r[0]) || !ok(r[1]) || !ok(r[2]) || !ok(r[3])) {
      pr.outcome.fail(name() + ": serve error response");
      continue;
    }
    // push reports the session's next free variable (DIMACS numbering)
    // after taking the selector: where the encoding started.
    const Json* nv = r[0].find("next_var");
    if (nv == nullptr || nv->as_int64() != static_cast<std::int64_t>(first_free) + 1) {
      pr.outcome.fail(name() + ": session variables out of step with the client");
    }
    const std::string result = r[2].find("result")->as_string();
    const Json& st = *r[2].find("stats");
    const auto conflicts = st.find("conflicts")->as_int64();
    if (traced) {
      const double wall_ms = r[2].find("wall_ms")->as_number();
      lp.samples["sat.query"].push_back(wall_ms);
      lp.samples["serve.overhead"].push_back(trip_ms - wall_ms);
      lp.add("sat.solve_s", st.find("solve_time_sec")->as_number());
      lp.add("sat.conflicts", static_cast<double>(conflicts));
      lp.add("sat.propagations", st.find("propagations")->as_number());
      lp.add("sat.decisions", st.find("decisions")->as_number());
      lp.add("sat.learnt_clauses", st.find("learnt_clauses")->as_number());
      lp.add("sat.deleted_clauses", st.find("deleted_clauses")->as_number());
    }
    if (result == "sat") {
      // Good node x is variable x of the base encoding.
      std::vector<bool> pattern(c.inputs().size(), false);
      for (const Json& lit : r[2].find("model")->items()) {
        const std::int64_t d = lit.as_int64();
        const std::int64_t var = (d > 0 ? d : -d) - 1;
        if (var < static_cast<std::int64_t>(net.input_index.size()) &&
            net.input_index[static_cast<std::size_t>(var)] >= 0) {
          pattern[static_cast<std::size_t>(net.input_index[static_cast<std::size_t>(var)])] =
              d > 0;
        }
      }
      bool detects = false;
      {
        Scope s(t, "atpg.replay", span_item);
        detects = net.sim->detects(pattern, fs.fault);
      }
      if (fs.redundant) pr.outcome.fail(name() + ": SAT on a certified-redundant fault");
      if (!detects) pr.outcome.fail(name() + ": test pattern does not detect the fault");
      pr.fingerprint[item] = {0, conflicts};
    } else if (result == "unsat") {
      if (traced) lp.add("redundant", 1);
      if (!fs.redundant) pr.outcome.fail(name() + ": UNSAT on a detectable fault");
      pr.fingerprint[item] = {1, conflicts};
    } else {
      pr.outcome.fail(name() + ": " + result);
      pr.fingerprint[item] = {3, conflicts};
    }
    pr.item_ms.push_back(1000.0 * seconds_since(ti));
  }
}

using FaultKey = std::tuple<int, int, bool>;

FaultKey key(const Fault& f) { return {f.node, f.pin, f.stuck_value}; }

PassResult run_pass(const std::vector<CircuitSpec>& specs, const std::string& dir,
                    Tracer* t) {
  PassResult pr;
  const Clock::time_point t0 = Clock::now();

  // Set-up: read the netlists, collapse their fault lists, encode the
  // good circuits and load each into its warm sessions.
  std::vector<Netlist> nets(specs.size());
  std::size_t items = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto id = static_cast<std::int64_t>(i);
    Netlist& net = nets[i];
    net.spec = &specs[i];
    net.first_item = items;
    items += specs[i].faults.size();
    {
      Scope s(t, "circuit.read", id);
      net.circuit = sateda::circuit::read_bench_file(dir + "/" + specs[i].file);
    }
    std::vector<Fault> faults;
    {
      Scope s(t, "atpg.collapse", id);
      faults = sateda::atpg::collapse_faults(net.circuit,
                                             sateda::atpg::enumerate_faults(net.circuit));
    }
    std::vector<FaultKey> mine, given;
    for (const Fault& f : faults) mine.push_back(key(f));
    for (const FaultSpec& f : specs[i].faults) given.push_back(key(f.fault));
    std::sort(mine.begin(), mine.end());
    std::sort(given.begin(), given.end());
    if (!std::includes(mine.begin(), mine.end(), given.begin(), given.end())) {
      pr.outcome.fail(specs[i].name + ": fault list is not part of the collapsed list");
    }
    sateda::CnfFormula base;
    {
      Scope s(t, "circuit.encode", id);
      base = sateda::circuit::encode_circuit(net.circuit);
    }
    net.sim = std::make_unique<sateda::atpg::FaultSimulator>(net.circuit);
    net.input_index.assign(net.circuit.num_nodes(), -1);
    for (std::size_t k = 0; k < net.circuit.inputs().size(); ++k) {
      net.input_index[static_cast<std::size_t>(net.circuit.inputs()[k])] = static_cast<int>(k);
    }
    // Opening a session builds a default engine, as the daemon's open
    // does; the good circuit then arrives as a load request.
    Scope s(t, "serve.load", id);
    std::ostringstream text;
    sateda::write_dimacs(text, base, specs[i].name);
    for (int j = 0; j < kSessions; ++j) {
      net.sessions.push_back(std::make_unique<sateda::sat::SolverSession>());
      Json load = request("load", session_name(specs[i], j));
      load.set("dimacs", text.str());
      const Json loaded = Json::parse(round_trip(*net.sessions.back(), {load.dump()})[0]);
      if (!ok(loaded)) pr.outcome.fail(session_name(specs[i], j) + ": load failed");
      net.base_vars = ok(loaded) ? loaded.find("vars")->as_int64() : 0;
    }
  }

  const Clock::time_point t1 = Clock::now();
  pr.fingerprint.assign(items, {-1, 0});
  for (const Netlist& net : nets) run_faults(net, t, pr);
  pr.verdict_s = seconds_between(t1, Clock::now());
  pr.setup_s = seconds_between(t0, t1);

  if (t != nullptr) {
    // Session size at the end of the stream, from the stats op.
    LayerPass& lp = pr.layers;
    double vars = 0.0;
    for (const Netlist& net : nets) {
      for (int j = 0; j < kSessions; ++j) {
        const Json reply = Json::parse(round_trip(
            *net.sessions[static_cast<std::size_t>(j)],
            {request("stats", session_name(*net.spec, j)).dump()})[0]);
        if (ok(reply)) vars += reply.find("vars")->as_number();
      }
    }
    lp.values["sat.session_vars"] = vars / static_cast<double>(nets.size() * kSessions);
    lp.values["sat.props_per_s"] = lp.ratio("sat.propagations", "sat.solve_s");
    lp.values["atpg.query_clauses"] = lp.ratio("query_clauses", "queries");
    lp.values["atpg.redundant_frac"] = lp.ratio("redundant", "faults");
    lp.values["serve.response_bytes"] = lp.ratio("response_bytes", "queries");
  }
  return pr;
}

}  // namespace

Report run_atpg_serve(const std::string& dir, double seconds, bool trace,
                      const std::string& spans_path) {
  const Json manifest = Json::parse(read_file(dir + "/manifest.json"));
  std::vector<CircuitSpec> specs;
  std::int64_t faults = 0;
  for (const Json& e : manifest.find("circuits")->items()) {
    CircuitSpec cs;
    cs.name = e.find("name")->as_string();
    cs.file = e.find("file")->as_string();
    for (const Json& f : e.find("faults")->items()) {
      const std::vector<Json>& v = f.items();
      FaultSpec fs;
      fs.fault.node = static_cast<sateda::circuit::NodeId>(v[0].as_int64());
      fs.fault.pin = static_cast<int>(v[1].as_int64());
      fs.fault.stuck_value = v[2].as_int64() != 0;
      fs.redundant = v[3].as_string() == "redundant";
      cs.faults.push_back(fs);
    }
    faults += static_cast<std::int64_t>(cs.faults.size());
    specs.push_back(std::move(cs));
  }
  Report rep = drive("atpg_serve", seconds, trace, spans_path,
                     [&](Tracer* t) { return run_pass(specs, dir, t); });
  rep.detail.set("faults", faults);
  rep.detail.set("sessions_per_netlist", kSessions);
  return rep;
}

}  // namespace perfbench
