#include "flow/flow.hpp"

#include <cstdio>
#include <sstream>

#include "network/stats.hpp"
#include "network/transform.hpp"
#include "obs/trace.hpp"
#include "util/errors.hpp"
#include "util/progress.hpp"

namespace rmsyn {

namespace {

uint64_t fnv1a64(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

} // namespace

FlowRow run_flow(const Benchmark& bench, const FlowOptions& opt) {
  obs::Span flow_span("flow:" + bench.name);
  const uint64_t row_start_ns = obs::now_ns();
  if (ProgressBoard::active())
    ProgressBoard::instance().set_circuit(bench.name);
  FlowRow row;
  row.circuit = bench.name;
  row.num_inputs = bench.num_inputs;
  row.num_outputs = bench.num_outputs;
  row.arithmetic = bench.arithmetic;
  row.exact_benchmark = bench.exact;

  // Each flow runs under its own governor (fresh budget) and its own
  // try/catch: a verification throw in one flow must not discard the
  // other's result.
  std::optional<Network> ours;
  {
    SynthOptions so = opt.synth;
    std::optional<ResourceGovernor> gov;
    if (so.governor == nullptr && !opt.limits.unlimited()) {
      gov.emplace(opt.limits);
      so.governor = &*gov;
    }
    try {
      SynthReport rep;
      Network n = synthesize(bench.spec, so, &rep);
      row.ours_lits = rep.stats.lits;
      row.ours_seconds = rep.seconds;
      row.bdd = rep.bdd;
      row.sim = rep.sim;
      row.rewrite = rep.rewrite;
      row.ours_status = rep.status;
      row.stages.accumulate(rep.stages);
      row.ours_polls = rep.governor_polls;
      row.ladder_descents = rep.ladder_descents;
      if (!rep.status.is_failed()) ours = std::move(n);
    } catch (const std::exception& e) {
      row.ours_status =
          FlowStatus::failed("verify", e.what(), classify_exception(e));
      row.ours_lits = 0;
      row.ours_seconds = 0.0;
    }
  }

  std::optional<Network> base;
  {
    BaselineOptions bo = opt.baseline;
    std::optional<ResourceGovernor> gov;
    if (bo.governor == nullptr && !opt.limits.unlimited()) {
      gov.emplace(opt.limits);
      bo.governor = &*gov;
    }
    try {
      BaselineReport rep;
      Network n = baseline_synthesize(bench.spec, bo, &rep);
      row.base_lits = rep.stats.lits;
      row.base_seconds = rep.seconds;
      row.base_status = rep.status;
      row.stages.accumulate(rep.stages);
      row.base_polls = rep.governor_polls;
      base = std::move(n);
    } catch (const std::exception& e) {
      row.base_status = FlowStatus::failed("baseline-verify", e.what(),
                                           classify_exception(e));
      row.base_lits = 0;
      row.base_seconds = 0.0;
    }
  }

  // Bottom rung of the degradation ladder: when our flow failed outright,
  // the delivered result is the baseline's network (status stays failed so
  // the table shows what happened).
  if (!ours.has_value() && base.has_value()) {
    ours = base;
    row.ours_lits = network_stats(*ours).lits;
  }

  if (opt.run_mapping) {
    obs::ScopedStage stage(nullptr, &row.stages, "mapping");
    if (ours.has_value()) {
      const auto mo = map_network(*ours, mcnc_library());
      row.ours_gates = mo.gate_count;
      row.ours_map_lits = mo.literal_count;
    }
    if (base.has_value()) {
      const auto mb = map_network(*base, mcnc_library());
      row.base_gates = mb.gate_count;
      row.base_map_lits = mb.literal_count;
    }
  }
  if (opt.run_power) {
    obs::ScopedStage stage(nullptr, &row.stages, "power");
    // Power is compared on XOR-expanded AND/OR networks so that a kept XOR
    // primitive (one net here, one cell after mapping) does not get an
    // artificial 3x advantage over the baseline's discrete implementation.
    const auto nets_of = [](const Network& n) {
      return expand_xor(decompose2(strash(n)));
    };
    // Derive the simulation seed from the circuit name so the column is a
    // pure function of the circuit: rows computed concurrently (or in any
    // order) match the serial table exactly.
    PowerOptions po = opt.power;
    po.sim_seed = opt.power.sim_seed ^ fnv1a64(bench.name);
    if (ours.has_value()) {
      const PowerReport pr = estimate_power(nets_of(*ours), po);
      row.ours_power = pr.total;
      row.sim.accumulate(pr.sim);
    }
    if (base.has_value()) {
      const PowerReport pr = estimate_power(nets_of(*base), po);
      row.base_power = pr.total;
      row.sim.accumulate(pr.sim);
    }
  }
  row.row_seconds =
      1e-9 * static_cast<double>(obs::now_ns() - row_start_ns);
  return row;
}

FlowRow run_flow(const std::string& circuit, const FlowOptions& opt) {
  return run_flow(make_benchmark(circuit), opt);
}

std::string format_table2(const std::vector<FlowRow>& rows) {
  std::ostringstream out;
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%-10s %-8s | %-7s %-8s | %-7s %-8s | %-6s %-6s | %-6s %-6s | "
                "%-8s %-8s\n",
                "circuit", "i/o", "SISlits", "SIStime", "ourlits", "ourtime",
                "SISgts", "SISlit", "ourgts", "ourlit", "impr%lit",
                "impr%pow");
  out << buf;
  out << std::string(110, '-') << "\n";

  const auto emit = [&](const FlowRow& r, const char* mark) {
    char io[32];
    std::snprintf(io, sizeof io, "%d/%d", r.num_inputs, r.num_outputs);
    std::string tags = mark;
    if (!r.ours_status.is_ok())
      tags += " [ours:" + r.ours_status.to_string() + "]";
    if (!r.base_status.is_ok())
      tags += " [sis:" + r.base_status.to_string() + "]";
    std::snprintf(buf, sizeof buf,
                  "%-10s %-8s | %-7zu %-8.2f | %-7zu %-8.2f | %-6zu %-6zu | "
                  "%-6zu %-6zu | %-8.1f %-8.1f %s\n",
                  r.circuit.c_str(), io, r.base_lits, r.base_seconds,
                  r.ours_lits, r.ours_seconds, r.base_gates, r.base_map_lits,
                  r.ours_gates, r.ours_map_lits, r.improve_lits_pct(),
                  r.improve_power_pct(), tags.c_str());
    out << buf;
  };

  FlowRow arith_total, all_total;
  double arith_impr_l = 0, arith_impr_p = 0, all_impr_l = 0, all_impr_p = 0;
  std::size_t n_arith = 0;
  for (const auto& r : rows) {
    emit(r, r.arithmetic ? (r.exact_benchmark ? "[arith]" : "[arith,sub]")
                         : (r.exact_benchmark ? "" : "[sub]"));
    const auto acc = [&](FlowRow& t) {
      t.base_lits += r.base_lits;
      t.base_seconds += r.base_seconds;
      t.ours_lits += r.ours_lits;
      t.ours_seconds += r.ours_seconds;
      t.base_gates += r.base_gates;
      t.base_map_lits += r.base_map_lits;
      t.ours_gates += r.ours_gates;
      t.ours_map_lits += r.ours_map_lits;
    };
    acc(all_total);
    all_impr_l += r.improve_lits_pct();
    all_impr_p += r.improve_power_pct();
    if (r.arithmetic) {
      acc(arith_total);
      arith_impr_l += r.improve_lits_pct();
      arith_impr_p += r.improve_power_pct();
      ++n_arith;
    }
  }
  out << std::string(110, '-') << "\n";
  const auto emit_total = [&](const char* name, const FlowRow& t, double il,
                              double ip, std::size_t n) {
    if (n == 0) return;
    std::snprintf(buf, sizeof buf,
                  "%-10s %-8s | %-7zu %-8.2f | %-7zu %-8.2f | %-6zu %-6zu | "
                  "%-6zu %-6zu | %-8.1f %-8.1f\n",
                  name, "", t.base_lits, t.base_seconds, t.ours_lits,
                  t.ours_seconds, t.base_gates, t.base_map_lits, t.ours_gates,
                  t.ours_map_lits, il / static_cast<double>(n),
                  ip / static_cast<double>(n));
    out << buf;
  };
  emit_total("Tot.arith", arith_total, arith_impr_l, arith_impr_p, n_arith);
  emit_total("Tot.all", all_total, all_impr_l, all_impr_p, rows.size());
  return out.str();
}

std::string format_dd_kernel_summary(const std::vector<FlowRow>& rows) {
  obs::MetricsRegistry m;
  for (const FlowRow& r : rows) stat_fields::absorb(m, "dd.", r.bdd);
  return obs::format_metrics_summary(m);
}

obs::MetricsRegistry collect_flow_metrics(const std::vector<FlowRow>& rows) {
  obs::MetricsRegistry m;
  for (const FlowRow& r : rows) {
    stat_fields::absorb(m, "dd.", r.bdd);
    // Rows that never simulated or rewrote anything grow no sim.* or
    // rewrite.* entries.
    if (!r.sim.empty()) stat_fields::absorb(m, "sim.", r.sim);
    if (!r.rewrite.empty()) stat_fields::absorb(m, "rewrite.", r.rewrite);
    m.absorb_status(r.worst_status());
    m.add("flow.governor_polls", r.ours_polls + r.base_polls);
    m.add("flow.ladder_descents", r.ladder_descents);
    // Rows spliced from a pre-v3 resume journal carry no latency; skip
    // them rather than pull the percentiles toward zero.
    if (r.row_seconds > 0.0) m.observe("flow.row_seconds", r.row_seconds);
  }
  return m;
}

namespace {

obs::Json status_json(const FlowStatus& st) {
  obs::Json j = obs::Json::object();
  j["outcome"] = st.is_failed() ? "failed"
                                : (st.is_degraded() ? "degraded" : "ok");
  j["stage"] = st.stage;
  j["reason"] = st.reason;
  j["code"] = to_string(st.code);
  return j;
}

} // namespace

obs::Json flow_row_json(const FlowRow& row) {
  obs::Json j = obs::Json::object();
  j["circuit"] = row.circuit;
  j["inputs"] = row.num_inputs;
  j["outputs"] = row.num_outputs;
  j["arithmetic"] = row.arithmetic;
  j["exact_benchmark"] = row.exact_benchmark;
  j["base_lits"] = row.base_lits;
  j["base_seconds"] = row.base_seconds;
  j["ours_lits"] = row.ours_lits;
  j["ours_seconds"] = row.ours_seconds;
  j["base_gates"] = row.base_gates;
  j["base_map_lits"] = row.base_map_lits;
  j["ours_gates"] = row.ours_gates;
  j["ours_map_lits"] = row.ours_map_lits;
  j["base_power"] = row.base_power;
  j["ours_power"] = row.ours_power;
  j["improve_lits_pct"] = row.improve_lits_pct();
  j["improve_power_pct"] = row.improve_power_pct();
  obs::Json status = obs::Json::object();
  status["ours"] = status_json(row.ours_status);
  status["base"] = status_json(row.base_status);
  status["worst"] = row.worst_status().is_failed()
                        ? "failed"
                        : (row.worst_status().is_degraded() ? "degraded"
                                                            : "ok");
  j["status"] = std::move(status);
  j["governor_polls"] = row.ours_polls + row.base_polls;
  j["ladder_descents"] = row.ladder_descents;
  j["attempts"] = row.attempts;
  j["row_seconds"] = row.row_seconds;
  if (!row.rewrite.empty())
    j["rewrite"] = stat_fields::to_json<obs::Json>(row.rewrite);
  obs::Json stages = obs::Json::array();
  for (const StageBreakdown::Entry& e : row.stages.entries) {
    obs::Json st = obs::Json::object();
    st["name"] = e.name;
    st["seconds"] = e.seconds;
    st["calls"] = e.calls;
    stages.push_back(std::move(st));
  }
  j["stages"] = std::move(stages);
  return j;
}

namespace {

FlowStatus status_from_json(const obs::Json& j, const char* what) {
  if (!j.is_object())
    throw RmsynError(ErrorCode::ParseError,
                     std::string("flow_row_from_json: ") + what +
                         " is not an object");
  FlowStatus st;
  const std::string outcome =
      j.contains("outcome") ? j.get("outcome").as_string() : "ok";
  if (outcome == "ok") st.outcome = FlowOutcome::Ok;
  else if (outcome == "degraded") st.outcome = FlowOutcome::Degraded;
  else if (outcome == "failed") st.outcome = FlowOutcome::Failed;
  else
    throw RmsynError(ErrorCode::ParseError,
                     "flow_row_from_json: bad outcome '" + outcome + "'");
  if (j.contains("stage")) st.stage = j.get("stage").as_string();
  if (j.contains("reason")) st.reason = j.get("reason").as_string();
  if (j.contains("code"))
    st.code = error_code_from_string(j.get("code").as_string());
  return st;
}

} // namespace

FlowRow flow_row_from_json(const obs::Json& j) {
  if (!j.is_object())
    throw RmsynError(ErrorCode::ParseError,
                     "flow_row_from_json: row is not an object");
  FlowRow row;
  const auto num = [&](const char* key) -> double {
    return j.contains(key) && j.get(key).is_number() ? j.get(key).as_number()
                                                     : 0.0;
  };
  const auto count = [&](const char* key) -> std::size_t {
    const double v = num(key);
    return v <= 0.0 ? 0 : static_cast<std::size_t>(v);
  };
  if (j.contains("circuit")) row.circuit = j.get("circuit").as_string();
  row.num_inputs = static_cast<int>(num("inputs"));
  row.num_outputs = static_cast<int>(num("outputs"));
  row.arithmetic = j.contains("arithmetic") && j.get("arithmetic").as_bool();
  row.exact_benchmark =
      j.contains("exact_benchmark") && j.get("exact_benchmark").as_bool();
  row.base_lits = count("base_lits");
  row.base_seconds = num("base_seconds");
  row.ours_lits = count("ours_lits");
  row.ours_seconds = num("ours_seconds");
  row.base_gates = count("base_gates");
  row.base_map_lits = count("base_map_lits");
  row.ours_gates = count("ours_gates");
  row.ours_map_lits = count("ours_map_lits");
  row.base_power = num("base_power");
  row.ours_power = num("ours_power");
  if (j.contains("status")) {
    const obs::Json& st = j.get("status");
    if (st.contains("ours"))
      row.ours_status = status_from_json(st.get("ours"), "status.ours");
    if (st.contains("base"))
      row.base_status = status_from_json(st.get("base"), "status.base");
  }
  if (j.contains("rewrite") && j.get("rewrite").is_object())
    stat_fields::from_json(j.get("rewrite"), row.rewrite);
  row.ours_polls = static_cast<uint64_t>(num("governor_polls"));
  row.ladder_descents = count("ladder_descents");
  row.attempts = j.contains("attempts")
                     ? static_cast<int>(num("attempts"))
                     : 1;
  if (row.attempts < 1) row.attempts = 1;
  row.row_seconds = num("row_seconds");
  if (j.contains("stages") && j.get("stages").is_array()) {
    const obs::Json& stages = j.get("stages");
    for (std::size_t i = 0; i < stages.size(); ++i) {
      const obs::Json& e = stages.at(i);
      if (!e.is_object() || !e.contains("name")) continue;
      const double calls = e.contains("calls") ? e.get("calls").as_number() : 1.0;
      row.stages.add(e.get("name").as_string(),
                     e.contains("seconds") ? e.get("seconds").as_number() : 0.0,
                     calls < 1.0 ? 1 : static_cast<uint64_t>(calls));
    }
  }
  return row;
}

} // namespace rmsyn
