// Field tables for the stats structs (BddStats, SimStats, WorkerStats,
// rw::RewriteStats).
//
// Each struct lists its fields once, in a static visitor beside the
// members:
//
//   template <class V> static void fields(V&& v) {
//     v("cache_hits", &BddStats::cache_hits, StatKind::Counter);
//     ...
//   }
//
// and merging, emptiness, the metrics export under a dotted prefix and
// the row-JSON write/read are derived here from that table. Adding a
// counter means adding the member and its table entry (plus a formatter
// line if the human summary should show it).
//
// Header-only and duck-typed on the metrics sink and the JSON type, so the
// low-level libraries can declare tables without depending on rmsyn_obs.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

namespace rmsyn {

/// How a stats field merges and how it is exported as a metric.
enum class StatKind : uint8_t {
  Counter,      ///< summed; exported as a counter
  Peak,         ///< max-merged; exported as a max gauge
  Seconds,      ///< summed; one histogram observation per absorbed block
                ///< (zero included: an idle slot is a real sample)
  PhaseSeconds, ///< summed; a histogram observation only when nonzero (a
                ///< phase that never ran, or a row read back from JSON,
                ///< adds none)
  Internal,     ///< summed; not exported (feeds a derived metric)
  Rate,         ///< const member function, never stored or merged;
                ///< exported as a max gauge when positive
};

namespace stat_fields {

/// Adds `from` into `into` field by field, by kind.
template <class S>
void accumulate(S& into, const S& from) {
  S::fields([&](const char*, auto member, StatKind kind) {
    if constexpr (std::is_member_object_pointer_v<decltype(member)>) {
      auto& a = into.*member;
      const auto& b = from.*member;
      if (kind == StatKind::Peak) {
        if (b > a) a = b;
      } else {
        a += b;
      }
    }
  });
}

/// True when no counter (Counter or Internal field) has counted anything.
template <class S>
bool empty(const S& s) {
  bool none = true;
  S::fields([&](const char*, auto member, StatKind kind) {
    if constexpr (std::is_member_object_pointer_v<decltype(member)>) {
      if ((kind == StatKind::Counter || kind == StatKind::Internal) &&
          s.*member != 0)
        none = false;
    }
  });
  return none;
}

/// Exports every field under `prefix` + its table name into a metrics sink
/// (obs::MetricsRegistry's add / set_max / observe).
template <class Sink, class S>
void absorb(Sink& sink, std::string_view prefix, const S& s) {
  std::string name;
  S::fields([&](const char* field, auto member, StatKind kind) {
    name.assign(prefix).append(field);
    if constexpr (std::is_member_function_pointer_v<decltype(member)>) {
      const double r = (s.*member)();
      if (r > 0.0) sink.set_max(name, r);
    } else {
      const auto v = s.*member;
      switch (kind) {
        case StatKind::Counter: sink.add(name, static_cast<uint64_t>(v)); break;
        case StatKind::Peak: sink.set_max(name, static_cast<double>(v)); break;
        case StatKind::Seconds: sink.observe(name, static_cast<double>(v)); break;
        case StatKind::PhaseSeconds:
          if (v > 0) sink.observe(name, static_cast<double>(v));
          break;
        default: break;
      }
    }
  });
}

/// JSON object of the Counter fields (the row JSON carries counts only;
/// timings live in the row's stage breakdown).
template <class Json, class S>
Json to_json(const S& s) {
  Json j = Json::object();
  S::fields([&](const char* field, auto member, StatKind kind) {
    if constexpr (std::is_member_object_pointer_v<decltype(member)>) {
      using T = std::remove_cvref_t<decltype(s.*member)>;
      if constexpr (std::is_integral_v<T>)
        if (kind == StatKind::Counter) j[field] = static_cast<uint64_t>(s.*member);
    }
  });
  return j;
}

/// Reads the Counter fields back from to_json's object; a missing,
/// non-numeric or negative entry reads as 0.
template <class Json, class S>
void from_json(const Json& j, S& s) {
  S::fields([&](const char* field, auto member, StatKind kind) {
    if constexpr (std::is_member_object_pointer_v<decltype(member)>) {
      using T = std::remove_cvref_t<decltype(s.*member)>;
      if constexpr (std::is_integral_v<T>) {
        if (kind != StatKind::Counter || !j.contains(field) ||
            !j.get(field).is_number())
          return;
        const double v = j.get(field).as_number();
        s.*member = v <= 0.0 ? 0 : static_cast<T>(v);
      }
    }
  });
}

} // namespace stat_fields
} // namespace rmsyn
