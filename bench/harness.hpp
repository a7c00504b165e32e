// The shared bench harness (after mockturtle's experiments.hpp): one
// command-line parser, one sampler, one gate reporter and one BENCH_*.json
// writer, so each bench states only what it measures and what it gates.
#pragma once

#include <algorithm>
#include <array>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <initializer_list>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "obs/report.hpp"
#include "util/stopwatch.hpp"

namespace rmsyn::bench {

// --- command line ------------------------------------------------------------

struct Args {
  std::string out;                ///< BENCH file path ("" if none is written)
  std::vector<std::string> names; ///< positional circuit names, in order
  std::string error;              ///< why the line was rejected ("" if not)
};

/// Parses `[--out FILE] [circuit ...]`. A bench whose `default_out` is
/// empty writes no file and rejects --out; one that does not take names
/// rejects positional arguments. Any other flag is an error, so a mistyped
/// option never runs a gate at its default.
inline Args parse_args(int argc, const char* const* argv,
                       const std::string& default_out, bool takes_names) {
  Args args;
  args.out = default_out;
  for (int i = 1; i < argc && args.error.empty(); ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && !default_out.empty()) {
      if (i + 1 < argc) args.out = argv[++i];
      else args.error = "--out needs a file name";
    } else if (arg.starts_with("-")) {
      args.error = "unknown option '" + arg + "'";
    } else if (takes_names) {
      args.names.push_back(arg);
    } else {
      args.error = "unexpected argument '" + arg + "'";
    }
  }
  return args;
}

/// parse_args(), or exit 1 with the error and a usage line on stderr.
inline Args parse_args_or_exit(int argc, char** argv,
                               const std::string& default_out,
                               bool takes_names) {
  Args args = parse_args(argc, argv, default_out, takes_names);
  if (args.error.empty()) return args;
  std::fprintf(stderr, "%s: %s\nusage: %s%s%s\n", argv[0], args.error.c_str(),
               argv[0], default_out.empty() ? "" : " [--out FILE]",
               takes_names ? " [circuit ...]" : "");
  std::exit(1);
}

// --- sampler -----------------------------------------------------------------

/// One configuration's samples, in run order (never empty).
struct Samples {
  std::vector<double> values;

  double min() const { return *std::min_element(values.begin(), values.end()); }
  /// The middle sample; the mean of the two middle ones for an even count.
  double median() const {
    std::vector<double> v = values;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  }
};

enum class Warmup { None, Once };

/// A configuration that returns a number measured that number itself (a
/// rate, a per-operation cost); one that returns nothing is timed here.
template <typename Fn>
double measure(Fn& fn) {
  if constexpr (std::is_void_v<std::invoke_result_t<Fn&>>) {
    const Stopwatch sw;
    fn();
    return sw.seconds();
  } else {
    return static_cast<double>(fn());
  }
}

/// Runs every configuration once untimed (Warmup::Once), then k >= 1
/// rounds that run them in argument order, so cache and clock drift hit
/// every configuration alike. Returns one Samples per configuration.
template <typename... Fns>
std::array<Samples, sizeof...(Fns)> sample(int k, Warmup warmup,
                                           Fns&&... fns) {
  std::array<Samples, sizeof...(Fns)> out;
  if (warmup == Warmup::Once) (static_cast<void>(fns()), ...);
  for (int rep = 0; rep < k; ++rep) {
    std::size_t i = 0;
    (out[i++].values.push_back(measure(fns)), ...);
  }
  return out;
}

// --- gates -------------------------------------------------------------------

/// Prints each gate's verdict as "gate ok: ..." or "GATE FAILED: ...".
class Gates {
public:
  __attribute__((format(printf, 3, 4))) void check(bool ok, const char* fmt,
                                                   ...) {
    std::printf("%s: ", ok ? "gate ok" : "GATE FAILED");
    va_list ap;
    va_start(ap, fmt);
    std::vprintf(fmt, ap);
    va_end(ap);
    std::printf("\n");
    all_ok_ = all_ok_ && ok;
  }
  bool ok() const { return all_ok_; }

private:
  bool all_ok_ = true;
};

// --- BENCH writer ------------------------------------------------------------

using Members = std::initializer_list<std::pair<const char*, obs::Json>>;

/// A JSON object with `members` in order.
inline obs::Json object(Members members) {
  obs::Json o = obs::Json::object();
  for (const auto& [key, value] : members) o[key] = value;
  return o;
}

/// A BENCH document: the stamp every file carries (the bench's name and
/// the host's hardware threads), then `members`.
inline obs::Json bench_doc(const char* bench, Members members) {
  obs::Json doc = object({{"bench", bench},
                          {"hardware_threads",
                           std::thread::hardware_concurrency()}});
  for (const auto& [key, value] : members) doc[key] = value;
  return doc;
}

/// Writes `doc` to `path`; false, after a message on stderr, on failure.
inline bool write_bench(const std::string& path, const obs::Json& doc) {
  try {
    obs::write_json_file(path, doc);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

/// Writes the BENCH file and returns the bench's exit code: 0 only when
/// the file was written and every gate passed.
inline int finish(const Args& args, const obs::Json& doc, const Gates& gates) {
  return write_bench(args.out, doc) && gates.ok() ? 0 : 1;
}

} // namespace rmsyn::bench
