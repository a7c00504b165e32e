#include "sched/journal.hpp"

#include <cerrno>
#include <fstream>
#include <sstream>

#include "benchgen/spec.hpp"
#include "network/network.hpp"
#include "obs/json.hpp"
#include "util/errors.hpp"
#include "util/faultplan.hpp"

#if defined(_WIN32)
#include <io.h>
#define rmsyn_fileno _fileno
#define rmsyn_fsync _commit
#else
#include <unistd.h>
#define rmsyn_fileno fileno
#define rmsyn_fsync fsync
#endif

namespace rmsyn {

uint64_t fnv1a64(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

namespace {

std::string hex16(uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i, v >>= 4) s[i] = digits[v & 0xF];
  return s;
}

/// Inverse of hex16; returns false on any non-hex character or bad length.
bool parse_hex16(const std::string& s, uint64_t* out) {
  if (s.size() != 16) return false;
  uint64_t v = 0;
  for (const char c : s) {
    uint64_t d = 0;
    if (c >= '0' && c <= '9') d = static_cast<uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') d = static_cast<uint64_t>(c - 'a') + 10;
    else if (c >= 'A' && c <= 'F') d = static_cast<uint64_t>(c - 'A') + 10;
    else return false;
    v = (v << 4) | d;
  }
  *out = v;
  return true;
}

} // namespace

uint64_t journal_input_digest(const Benchmark& bench) {
  // Structural digest of the spec network: name, PI/PO counts, and every
  // live node's (id, type, fanins) plus the PO list. Deliberately not a
  // BLIF round-trip — write_blif rejects wide XOR gates (the parity and
  // xor10 specs carry them), and a flat walk is cheaper than serializing.
  const Network& net = bench.spec;
  uint64_t h = fnv1a64(bench.name);
  const auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i, v >>= 8) {
      h ^= v & 0xFF;
      h *= 0x100000001b3ull;
    }
  };
  mix(net.pi_count());
  mix(net.po_count());
  for (NodeId n = 0; n < net.node_count(); ++n) {
    if (net.is_dead(n)) continue;
    mix(n);
    mix(static_cast<uint64_t>(net.type(n)));
    for (const NodeId f : net.fanins(n)) mix(f);
  }
  for (const NodeId po : net.pos()) mix(po);
  return h;
}

uint64_t journal_options_digest(const FlowOptions& opt) {
  // Canonical key=value line, one entry per result-affecting knob. Adding
  // a knob here invalidates old journals for runs that change it — that is
  // the point.
  std::ostringstream ss;
  ss << "v=1"
     << ";synth.method=" << static_cast<int>(opt.synth.method)
     << ";synth.redundancy=" << opt.synth.run_redundancy_removal
     << ";synth.resub=" << opt.synth.run_resub
     << ";synth.cube_limit=" << opt.synth.cube_limit
     << ";synth.verify=" << opt.synth.verify
     << ";synth.reach=" << opt.synth.try_reach_order
     << ";synth.pol.exh=" << opt.synth.polarity.exhaustive_limit
     << ";synth.pol.greedy=" << opt.synth.polarity.greedy_passes
     << ";synth.red.filter=" << opt.synth.redundancy.use_pattern_filter
     << ";synth.red.obs=" << opt.synth.redundancy.observability_pass
     << ";synth.red.fanin=" << opt.synth.redundancy.and_fanin_pass
     << ";synth.red.patterns=" << opt.synth.redundancy.max_patterns
     << ";synth.red.bddcap=" << opt.synth.redundancy.bdd_node_limit
     << ";synth.rewrite=" << opt.synth.run_rewrite
     << ";synth.rw.cuts=" << opt.synth.rewrite.cut_limit
     << ";synth.rw.passes=" << opt.synth.rewrite.max_passes
     << ";synth.rw.patterns=" << opt.synth.rewrite.sim_patterns
     << ";synth.rw.seed=" << opt.synth.rewrite.sim_seed
     << ";synth.rw.db=" << opt.synth.rewrite.db_path
     << ";base.redundancy=" << opt.baseline.run_redundancy_removal
     << ";base.elim=" << opt.baseline.eliminate_value
     << ";base.extract=" << opt.baseline.extract_rounds
     << ";base.verify=" << opt.baseline.verify
     << ";base.flatten=" << opt.baseline.flatten_to_two_level
     << ";base.cubecap=" << opt.baseline.flatten_cube_cap
     << ";map=" << opt.run_mapping
     << ";power=" << opt.run_power
     << ";power.exact=" << opt.power.exact
     << ";power.bddcap=" << opt.power.bdd_node_limit
     << ";power.patterns=" << opt.power.sim_patterns
     << ";power.seed=" << opt.power.sim_seed
     << ";limits.deadline=" << opt.limits.deadline_seconds
     << ";limits.nodes=" << opt.limits.node_limit
     << ";limits.steps=" << opt.limits.step_limit;
  return fnv1a64(ss.str());
}

// --- append side -------------------------------------------------------------

BatchJournal::~BatchJournal() { close(); }

void BatchJournal::close() {
  if (f_ != nullptr) {
    std::fclose(f_);
    f_ = nullptr;
  }
}

bool BatchJournal::open(const std::string& path) {
  close();
  f_ = std::fopen(path.c_str(), "ab");
  return f_ != nullptr;
}

bool BatchJournal::append(const std::string& circuit, uint64_t input_digest,
                          uint64_t options_digest, const FlowRow& row) {
  if (f_ == nullptr) return false;
  if (fault_journal_append()) {
    // Injected journal-write failure: behave exactly like a real one.
    close();
    return false;
  }
  obs::Json j = obs::Json::object();
  j["v"] = 1;
  j["circuit"] = circuit;
  j["input_digest"] = hex16(input_digest);
  j["options_digest"] = hex16(options_digest);
  const FlowStatus& worst = row.worst_status();
  j["status"] = worst.is_failed() ? "failed"
                                  : (worst.is_degraded() ? "degraded" : "ok");
  j["row"] = flow_row_json(row);
  const std::string line = j.dump() + "\n";
  if (std::fwrite(line.data(), 1, line.size(), f_) != line.size() ||
      std::fflush(f_) != 0 || rmsyn_fsync(rmsyn_fileno(f_)) != 0) {
    close();
    return false;
  }
  return true;
}

// --- read side ---------------------------------------------------------------

JournalContents read_journal(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in)
    throw RmsynError(ErrorCode::ParseError,
                     "read_journal: cannot open " + path);
  JournalContents out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    try {
      const obs::Json j = obs::Json::parse(line);
      if (!j.is_object() || !j.contains("circuit") ||
          !j.contains("input_digest") || !j.contains("options_digest") ||
          !j.contains("row")) {
        ++out.skipped_lines;
        continue;
      }
      JournalRecord rec;
      rec.circuit = j.get("circuit").as_string();
      if (!parse_hex16(j.get("input_digest").as_string(), &rec.input_digest) ||
          !parse_hex16(j.get("options_digest").as_string(),
                       &rec.options_digest)) {
        ++out.skipped_lines;
        continue;
      }
      rec.status = j.contains("status") ? j.get("status").as_string() : "ok";
      rec.row = flow_row_from_json(j.get("row"));
      out.records.push_back(std::move(rec));
    } catch (const std::exception&) {
      // Torn tail after SIGKILL, or plain corruption: skip, never fail.
      ++out.skipped_lines;
    }
  }
  return out;
}

} // namespace rmsyn
