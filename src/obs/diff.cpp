#include "obs/diff.hpp"

#include <cmath>
#include <cstdio>

namespace rmsyn::obs {

const char* to_string(Verdict v) {
  switch (v) {
    case Verdict::Same: return "same";
    case Verdict::Improve: return "improve";
    case Verdict::Noise: return "noise";
    case Verdict::Regress: return "regress";
    case Verdict::SchemaMismatch: return "schema-mismatch";
  }
  return "?";
}

void DiffResult::note(DiffEntry e) {
  if (e.verdict > worst) worst = e.verdict;
  if (e.verdict != Verdict::Same) entries.push_back(std::move(e));
}

void DiffResult::note_error(std::string msg) {
  worst = Verdict::SchemaMismatch;
  errors.push_back(std::move(msg));
}

namespace {

bool contains_word(const std::string& key, const char* word) {
  return key.find(word) != std::string::npos;
}

/// Timing-like key: compared in the noise band, skipped by ignore_timing.
bool is_timing_key(const std::string& key) {
  return contains_word(key, "seconds") || contains_word(key, "_ms") ||
         contains_word(key, "_ns") || contains_word(key, "wall") ||
         contains_word(key, "rss");
}

/// QoR key: deterministic, gated with zero tolerance, lower is better.
bool is_qor_key(const std::string& key) {
  return contains_word(key, "lits") || contains_word(key, "gates") ||
         contains_word(key, "power") || contains_word(key, "nodes") ||
         contains_word(key, "depth");
}

/// Rate key: higher is better, noise band (cuts_per_second, nodes_per_sec
/// and friends). Checked before is_qor_key, so a rate over nodes or lits is
/// never a zero-tolerance count.
bool is_rate_key(const std::string& key) {
  return contains_word(key, "per_second") || key.ends_with("_per_sec") ||
         contains_word(key, "_rate");
}

Verdict judge_timing(double base, double ours, const DiffOptions& opt) {
  const double delta = ours - base;
  const double band =
      std::max(opt.seconds_noise_floor,
               opt.seconds_noise_frac * std::fabs(base));
  if (delta > band) return Verdict::Regress;
  if (delta < -band) return Verdict::Improve;
  return base == ours ? Verdict::Same : Verdict::Noise;
}

Verdict judge_qor_lower_better(double base, double ours) {
  if (ours > base) return Verdict::Regress;
  if (ours < base) return Verdict::Improve;
  return Verdict::Same;
}

int status_severity(const std::string& s) {
  return s == "failed" ? 2 : (s == "degraded" ? 1 : 0);
}

void diff_qor_number(DiffResult& r, const std::string& path,
                     const std::string& key, double base, double ours,
                     const DiffOptions& opt) {
  DiffEntry e;
  e.path = path;
  e.base = base;
  e.ours = ours;
  if (is_timing_key(key)) {
    if (opt.ignore_timing) return;
    e.verdict = judge_timing(base, ours, opt);
  } else if (is_rate_key(key)) {
    if (opt.ignore_timing) return; // rates are time-derived
    e.verdict = judge_timing(-base, -ours, opt); // higher-better, banded
  } else if (is_qor_key(key)) {
    e.verdict = judge_qor_lower_better(base, ours);
  } else {
    e.verdict = base == ours ? Verdict::Same : Verdict::Noise;
  }
  r.note(std::move(e));
}

// --- report mode -------------------------------------------------------------

bool looks_like_report(const Json& doc) {
  return doc.is_object() && doc.contains("tool") &&
         doc.get("tool").is_string() &&
         doc.get("tool").as_string() == "rmsyn" && doc.contains("rows") &&
         doc.get("rows").is_array();
}

const Json* find_row(const Json& rows, const std::string& circuit) {
  for (const Json& r : rows.items())
    if (r.is_object() && r.contains("circuit") &&
        r.get("circuit").is_string() &&
        r.get("circuit").as_string() == circuit)
      return &r;
  return nullptr;
}

void diff_row(DiffResult& r, const std::string& circuit, const Json& base,
              const Json& ours, const DiffOptions& opt) {
  const std::string prefix = "rows[" + circuit + "].";
  for (const auto& [key, bv] : base.members()) {
    if (!bv.is_number()) continue;
    // Derived percentages restate the map_lits/power columns.
    if (contains_word(key, "improve_")) continue;
    if (!ours.contains(key)) {
      // Additive schema evolution: a column the candidate lacks (old
      // binary diffed against a new baseline) is tolerated only for
      // non-QoR telemetry.
      if (is_qor_key(key))
        r.note_error(prefix + key + ": missing from candidate");
      continue;
    }
    const Json& ov = ours.get(key);
    if (!ov.is_number()) {
      r.note_error(prefix + key + ": number vs " +
                   std::string(ov.is_string() ? "string" : "non-number"));
      continue;
    }
    diff_qor_number(r, prefix + key, key, bv.as_number(), ov.as_number(),
                    opt);
  }
  // Worst-status severity: ok < degraded < failed.
  const auto worst_of = [](const Json& row) -> std::string {
    if (!row.contains("status")) return "ok";
    const Json& st = row.get("status");
    if (!st.is_object() || !st.contains("worst")) return "ok";
    return st.get("worst").as_string();
  };
  const std::string bs = worst_of(base), os = worst_of(ours);
  if (status_severity(os) != status_severity(bs)) {
    DiffEntry e;
    e.path = prefix + "status.worst";
    e.base = status_severity(bs);
    e.ours = status_severity(os);
    e.verdict = status_severity(os) > status_severity(bs)
                    ? Verdict::Regress
                    : Verdict::Improve;
    r.note(std::move(e));
  }
}

// --- generic mode ------------------------------------------------------------

void diff_walk(DiffResult& r, const std::string& path, const Json& base,
               const Json& ours, const std::string& key,
               const DiffOptions& opt) {
  if (base.is_number() && ours.is_number()) {
    diff_qor_number(r, path, key, base.as_number(), ours.as_number(), opt);
    return;
  }
  if (base.is_bool() && ours.is_bool()) {
    if (base.as_bool() != ours.as_bool()) {
      DiffEntry e;
      e.path = path;
      e.base = base.as_bool() ? 1 : 0;
      e.ours = ours.as_bool() ? 1 : 0;
      // A true->false flip on an invariant flag (equivalent,
      // jobs_bit_identical, monotone_cost) is a hard regression.
      e.verdict = base.as_bool() && !ours.as_bool() ? Verdict::Regress
                                                    : Verdict::Improve;
      r.note(std::move(e));
    }
    return;
  }
  if (base.is_object() && ours.is_object()) {
    for (const auto& [k, bv] : base.members()) {
      if (!ours.contains(k)) {
        if (bv.is_number() || bv.is_bool())
          r.note_error(path.empty() ? k + ": missing from candidate"
                                    : path + "." + k +
                                          ": missing from candidate");
        continue;
      }
      diff_walk(r, path.empty() ? k : path + "." + k, bv, ours.get(k), k,
                opt);
    }
    return;
  }
  if (base.is_array() && ours.is_array()) {
    // BENCH row arrays: match by "circuit"/"name" label when present so
    // reordering is not a mismatch; fall back to positional pairing.
    const auto label_of = [](const Json& e) -> std::string {
      if (!e.is_object()) return std::string();
      for (const char* k : {"circuit", "name", "bench"})
        if (e.contains(k) && e.get(k).is_string())
          return e.get(k).as_string();
      return std::string();
    };
    const bool labeled =
        base.size() > 0 && !label_of(base.at(0)).empty();
    if (labeled) {
      for (const Json& be : base.items()) {
        const std::string label = label_of(be);
        const Json* oe = nullptr;
        for (const Json& cand : ours.items())
          if (label_of(cand) == label) {
            oe = &cand;
            break;
          }
        if (oe == nullptr) {
          r.note_error(path + "[" + label + "]: missing from candidate");
          continue;
        }
        diff_walk(r, path + "[" + label + "]", be, *oe, key, opt);
      }
    } else {
      if (base.size() != ours.size()) {
        r.note_error(path + ": array size " +
                     std::to_string(base.size()) + " vs " +
                     std::to_string(ours.size()));
        return;
      }
      for (std::size_t i = 0; i < base.size(); ++i)
        diff_walk(r, path + "[" + std::to_string(i) + "]", base.at(i),
                  ours.at(i), key, opt);
    }
    return;
  }
  if (base.type() != ours.type())
    r.note_error(path + ": type mismatch");
  // Matching strings/nulls carry no QoR signal; ignore.
}

} // namespace

DiffResult diff_reports(const Json& base, const Json& ours,
                        const DiffOptions& opt) {
  DiffResult r;
  if (!looks_like_report(base)) {
    r.note_error("baseline is not an rmsyn run report");
    return r;
  }
  if (!looks_like_report(ours)) {
    r.note_error("candidate is not an rmsyn run report");
    return r;
  }
  const Json& brows = base.get("rows");
  const Json& orows = ours.get("rows");
  for (const Json& brow : brows.items()) {
    if (!brow.is_object() || !brow.contains("circuit")) continue;
    const std::string circuit = brow.get("circuit").as_string();
    const Json* orow = find_row(orows, circuit);
    if (orow == nullptr) {
      r.note_error("rows[" + circuit + "]: missing from candidate");
      continue;
    }
    diff_row(r, circuit, brow, *orow, opt);
  }
  // Whole-run wall time, banded like any other timing metric.
  if (!opt.ignore_timing && base.contains("wall_seconds") &&
      ours.contains("wall_seconds"))
    diff_qor_number(r, "wall_seconds", "wall_seconds",
                    base.get("wall_seconds").as_number(),
                    ours.get("wall_seconds").as_number(), opt);
  return r;
}

DiffResult diff_generic(const Json& base, const Json& ours,
                        const DiffOptions& opt) {
  DiffResult r;
  diff_walk(r, "", base, ours, "", opt);
  return r;
}

DiffResult diff_documents(const Json& base, const Json& ours,
                          const DiffOptions& opt) {
  const bool br = looks_like_report(base), or_ = looks_like_report(ours);
  if (br && or_) return diff_reports(base, ours, opt);
  if (br != or_) {
    DiffResult r;
    r.note_error(br ? "baseline is a run report but candidate is not"
                    : "candidate is a run report but baseline is not");
    return r;
  }
  return diff_generic(base, ours, opt);
}

std::string format_diff(const DiffResult& r) {
  std::string out;
  char buf[320];
  for (const std::string& e : r.errors) {
    out += "schema-mismatch: ";
    out += e;
    out += "\n";
  }
  int improves = 0, noises = 0, regresses = 0;
  for (const DiffEntry& e : r.entries) {
    switch (e.verdict) {
      case Verdict::Improve: ++improves; break;
      case Verdict::Noise: ++noises; break;
      case Verdict::Regress: ++regresses; break;
      default: break;
    }
    std::snprintf(buf, sizeof buf, "%-8s %s: %g -> %g\n",
                  to_string(e.verdict), e.path.c_str(), e.base, e.ours);
    out += buf;
  }
  std::snprintf(buf, sizeof buf,
                "verdict: %s (%d regressed, %d improved, %d within noise, "
                "%zu schema errors)\n",
                to_string(r.worst), regresses, improves, noises,
                r.errors.size());
  out += buf;
  return out;
}

int diff_exit_code(const DiffResult& r) {
  switch (r.worst) {
    case Verdict::SchemaMismatch: return 4;
    case Verdict::Regress: return 2;
    default: return 0;
  }
}

} // namespace rmsyn::obs
