#include "util/faultplan.hpp"

#include <charconv>
#include <mutex>

#include "util/errors.hpp"

namespace rmsyn {

namespace faultdetail {

std::atomic<bool> g_active{false};
std::atomic<bool> g_cache_miss{false};
CountedSite g_arena, g_journal, g_alloc;

namespace {
std::mutex g_mu; // guards g_plan (the counted sites are atomics)
FaultPlan g_plan;

uint64_t splitmix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}
} // namespace

void throw_arena_fault() {
  throw RmsynError(ErrorCode::InjectedFault,
                   "fault-plan: arena allocation failed at node " +
                       std::to_string(g_arena.at.load()));
}

} // namespace faultdetail

namespace {
void set_plan(const FaultPlan& p, bool active) {
  using namespace faultdetail;
  std::lock_guard<std::mutex> lk(g_mu);
  g_plan = p;
  g_arena.arm(p.arena_fail_at_node);
  g_journal.arm(p.journal_fail_at_record);
  g_alloc.arm(p.fail_at_allocation);
  g_cache_miss.store(p.overflow_computed_table, std::memory_order_relaxed);
  g_active.store(active, std::memory_order_release);
}
} // namespace

void install_fault_plan(const FaultPlan& p) { set_plan(p, true); }

void clear_fault_plan() { set_plan(FaultPlan{}, false); }

FaultPlan active_fault_plan() {
  std::lock_guard<std::mutex> lk(faultdetail::g_mu);
  return fault_plan_active() ? faultdetail::g_plan : FaultPlan{};
}

bool fault_stage(const char* stage) {
  if (!fault_plan_active()) return false;
  std::lock_guard<std::mutex> lk(faultdetail::g_mu);
  return !faultdetail::g_plan.trip_at_stage.empty() &&
         faultdetail::g_plan.trip_at_stage == stage;
}

std::string apply_io_faults(std::string bytes) {
  if (!fault_plan_active()) return bytes;
  const FaultPlan p = active_fault_plan();
  if (p.io_corrupt_at != 0 && p.io_corrupt_at <= bytes.size()) {
    // Never XOR with 0 (that would be a no-op "corruption").
    const uint8_t x = static_cast<uint8_t>(
        faultdetail::splitmix64(p.seed ^ p.io_corrupt_at) | 1u);
    bytes[p.io_corrupt_at - 1] = static_cast<char>(
        static_cast<uint8_t>(bytes[p.io_corrupt_at - 1]) ^ x);
  }
  if (p.io_truncate_at != 0 && p.io_truncate_at < bytes.size())
    bytes.resize(p.io_truncate_at);
  return bytes;
}

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan p;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos)
      throw RmsynError(ErrorCode::ParseError,
                       "fault-plan: expected key=value, got '" + item + "'");
    const std::string key = item.substr(0, eq);
    const std::string val = item.substr(eq + 1);
    const auto bad_value = [&](const std::string& want) {
      return RmsynError(ErrorCode::ParseError, "fault-plan: bad value '" + val +
                            "' for '" + key + "' (want " + want + ")");
    };
    const auto number = [&] {
      uint64_t v = 0;
      const char* end = val.data() + val.size();
      const auto [ptr, ec] = std::from_chars(val.data(), end, v);
      if (ec != std::errc() || ptr != end)
        throw bad_value("an unsigned 64-bit integer");
      return v;
    };
    if (key == "seed") p.seed = number();
    else if (key == "truncate") p.io_truncate_at = number();
    else if (key == "corrupt") p.io_corrupt_at = number();
    else if (key == "arena") p.arena_fail_at_node = number();
    else if (key == "journal") p.journal_fail_at_record = number();
    else if (key == "alloc") p.fail_at_allocation = number();
    else if (key == "stage") {
      if (val.empty()) throw bad_value("a stage name");
      p.trip_at_stage = val;
    } else if (key == "cache") {
      if (val != "0" && val != "1") throw bad_value("0 or 1");
      p.overflow_computed_table = val == "1";
    } else {
      throw RmsynError(ErrorCode::ParseError,
                       "fault-plan: unknown key '" + key +
                           "' (want seed/truncate/corrupt/arena/journal/"
                           "alloc/stage/cache)");
    }
  }
  return p;
}

} // namespace rmsyn
