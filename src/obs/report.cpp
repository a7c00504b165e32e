#include "obs/report.hpp"

#include <cstdio>

namespace rmsyn::obs {

Json metrics_json(const MetricsRegistry& m) {
  Json out = Json::object();
  for (const MetricsRegistry::Entry& e : m.snapshot()) {
    Json v = Json::object();
    v["kind"] = to_string(e.v.kind);
    switch (e.v.kind) {
      case MetricKind::Counter: v["count"] = e.v.count; break;
      case MetricKind::Gauge: v["value"] = e.v.value; break;
      case MetricKind::Histogram:
        v["count"] = e.v.count;
        v["sum"] = e.v.sum;
        v["min"] = e.v.min;
        v["mean"] = e.v.mean();
        v["max"] = e.v.max;
        v["p50"] = e.v.percentile(0.5);
        v["p90"] = e.v.percentile(0.9);
        v["p99"] = e.v.percentile(0.99);
        break;
    }
    out[e.name] = std::move(v);
  }
  return out;
}

ReportBuilder::ReportBuilder(std::string command, int jobs)
    : command_(std::move(command)), jobs_(jobs) {}

void ReportBuilder::add_row(Json row) { rows_.push_back(std::move(row)); }

void ReportBuilder::set_metrics(const MetricsRegistry& m) {
  metrics_ = metrics_json(m);
}

void ReportBuilder::set_trace(const Tracer::Summary& s,
                              double run_wall_seconds,
                              const std::string& trace_path) {
  Json t = Json::object();
  t["path"] = trace_path;
  t["events"] = s.events;
  t["dropped"] = s.dropped;
  t["threads"] = s.threads;
  t["span_seconds"] = s.span_seconds;
  t["wall_seconds"] = s.wall_seconds;
  t["coverage_pct"] =
      run_wall_seconds > 0.0
          ? 100.0 * (s.wall_seconds < run_wall_seconds ? s.wall_seconds
                                                       : run_wall_seconds) /
                run_wall_seconds
          : 0.0;
  trace_ = std::move(t);
}

namespace {

Json profile_node_json(const Profiler::Node& n) {
  Json j = Json::object();
  j["name"] = n.name;
  j["calls"] = n.calls;
  j["incl_ms"] = 1e-6 * static_cast<double>(n.incl_ns);
  j["excl_ms"] = 1e-6 * static_cast<double>(n.excl_ns);
  if (n.peak_rss_mb > 0.0) j["peak_rss_mb"] = n.peak_rss_mb;
  if (n.dd_live_nodes > 0.0) j["dd_live_nodes"] = n.dd_live_nodes;
  if (!n.children.empty()) {
    Json kids = Json::array();
    for (const Profiler::Node& c : n.children)
      kids.push_back(profile_node_json(c));
    j["children"] = std::move(kids);
  }
  return j;
}

} // namespace

void ReportBuilder::set_profile(const Profiler::Node& root,
                                const std::string& folded_path) {
  Json p = Json::object();
  p["folded_path"] = folded_path;
  p["root"] = profile_node_json(root);
  profile_ = std::move(p);
}

Json ReportBuilder::finish(double wall_seconds) const {
  Json doc = Json::object();
  doc["tool"] = "rmsyn";
  doc["schema_version"] = kReportSchemaVersion;
  doc["command"] = command_;
  doc["jobs"] = jobs_;
  doc["wall_seconds"] = wall_seconds;
  // Worst row status: the report's one-glance verdict, mirroring the CLI
  // exit code (ok < degraded < failed).
  int worst = 0;
  for (const Json& r : rows_) {
    const Json& st = r.get("status");
    const std::string& s = st.get("worst").as_string();
    const int sev = s == "failed" ? 2 : (s == "degraded" ? 1 : 0);
    if (sev > worst) worst = sev;
  }
  doc["worst_status"] =
      worst == 2 ? "failed" : (worst == 1 ? "degraded" : "ok");
  Json rows = Json::array();
  for (const Json& r : rows_) rows.push_back(r);
  doc["rows"] = std::move(rows);
  doc["metrics"] = metrics_.is_null() ? Json::object() : metrics_;
  if (!trace_.is_null()) doc["trace"] = trace_;
  if (!profile_.is_null()) doc["profile"] = profile_;
  return doc;
}

// --- subset JSON-Schema validation ------------------------------------------

namespace {

const char* type_name(Json::Type t) {
  switch (t) {
    case Json::Type::Null: return "null";
    case Json::Type::Bool: return "boolean";
    case Json::Type::Number: return "number";
    case Json::Type::String: return "string";
    case Json::Type::Array: return "array";
    case Json::Type::Object: return "object";
  }
  return "?";
}

bool matches_type(const Json& doc, const std::string& want) {
  if (want == "integer") {
    if (!doc.is_number()) return false;
    const double d = doc.as_number();
    return d == static_cast<double>(static_cast<long long>(d));
  }
  return want == type_name(doc.type());
}

void validate_at(const Json& doc, const Json& schema, const std::string& path,
                 std::vector<std::string>* errors) {
  if (!schema.is_object()) return;
  const std::string label = path.empty() ? "$" : path;

  if (schema.contains("type")) {
    const Json& t = schema.get("type");
    bool ok = false;
    if (t.is_string()) {
      ok = matches_type(doc, t.as_string());
    } else if (t.is_array()) {
      for (const Json& alt : t.items())
        if (alt.is_string() && matches_type(doc, alt.as_string())) {
          ok = true;
          break;
        }
    }
    if (!ok) {
      errors->push_back(label + ": expected type " + t.dump() + ", got " +
                        type_name(doc.type()));
      return; // properties/items checks would only cascade noise
    }
  }

  if (doc.is_object()) {
    const Json& req = schema.get("required");
    for (const Json& k : req.items()) {
      if (k.is_string() && !doc.contains(k.as_string()))
        errors->push_back(label + ": missing required key \"" +
                          k.as_string() + "\"");
    }
    const Json& props = schema.get("properties");
    for (const auto& [key, sub] : props.members()) {
      if (doc.contains(key))
        validate_at(doc.get(key), sub, path + "." + key, errors);
    }
  }

  if (doc.is_array() && schema.contains("items")) {
    const Json& items = schema.get("items");
    for (std::size_t i = 0; i < doc.size(); ++i)
      validate_at(doc.at(i), items, path + "[" + std::to_string(i) + "]",
                  errors);
  }
}

} // namespace

bool validate_json(const Json& doc, const Json& schema,
                   std::vector<std::string>* errors) {
  const std::size_t before = errors->size();
  validate_at(doc, schema, "", errors);
  return errors->size() == before;
}

// --- file I/O ----------------------------------------------------------------

void write_json_file(const std::string& path, const Json& doc, int indent) {
  const std::string text = doc.dump(indent);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr)
    throw std::runtime_error("cannot open '" + path + "' for writing");
  const std::size_t n = std::fwrite(text.data(), 1, text.size(), f);
  const bool ok = n == text.size() && std::fclose(f) == 0;
  if (!ok) throw std::runtime_error("short write to '" + path + "'");
}

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) throw std::runtime_error("cannot open '" + path + "'");
  std::string out;
  char buf[1 << 14];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  const bool bad = std::ferror(f) != 0;
  std::fclose(f);
  if (bad) throw std::runtime_error("read error on '" + path + "'");
  return out;
}

} // namespace rmsyn::obs
