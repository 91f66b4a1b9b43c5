// perfbench: runs one seeded instance of one benchmark workload.
//
//   perfbench --workload <fig06_overload|svc_session>
//             --seed N [--traced] [--scale F]
//
// Prints a one-line summary and then one JSON object with everything the
// instance measured: set-up and run times, per-layer busy times, the raw
// latency samples, exact work counts, schedule quality, the outcome hash and
// any correctness violation. run.py runs several instances per benchmark
// run, each in its own process under a time limit, and turns them into the
// reported metrics.

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "probes.h"
#include "workloads.h"

namespace perfbench {
namespace {

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed N [--traced] "
               "[--scale F]\n",
               why.c_str());
  std::exit(2);
}

InstanceOptions ParseArgs(int argc, char** argv) {
  InstanceOptions o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--traced") {
      o.traced = true;
      continue;
    }
    if (i + 1 >= argc) {
      Usage("missing value for " + flag);
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value, &end, 10);
      have_seed = true;
    } else if (flag == "--scale") {
      o.scale = std::strtod(value, &end);
    } else {
      Usage("unknown flag " + flag);
    }
    if (end != nullptr && (*end != '\0' || end == value)) {
      Usage("bad value for " + flag);
    }
  }
  if (!IsWorkload(o.workload)) {
    Usage("unknown or missing --workload");
  }
  if (!have_seed) {
    Usage("--seed is required");
  }
  if (!(o.scale > 0.0 && o.scale <= 10.0)) {
    Usage("--scale must be in (0, 10]");
  }
  return o;
}

// Minimal JSON writer for one object.
class Json {
 public:
  void Number(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    Raw(key, buf);
  }
  void Int(const std::string& key, int64_t v) { Raw(key, std::to_string(v)); }
  void Bool(const std::string& key, bool v) { Raw(key, v ? "true" : "false"); }
  void String(const std::string& key, const std::string& v) { Raw(key, Quote(v)); }
  void Strings(const std::string& key, const std::vector<std::string>& v) {
    std::string out = "[";
    for (size_t i = 0; i < v.size(); ++i) {
      out += (i > 0 ? ", " : "") + Quote(v[i]);
    }
    Raw(key, out + "]");
  }
  // Nine significant digits: finer than the clock's resolution.
  void Numbers(const std::string& key, const Samples& s) {
    std::string out = "[";
    char buf[32];
    for (size_t i = 0; i < s.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s%.9g", i > 0 ? "," : "", s.values()[i]);
      out += buf;
    }
    Raw(key, out + "]");
  }
  void Object(const std::string& key, const Json& inner) { Raw(key, inner.Text()); }
  std::string Text() const { return "{" + body_ + "}"; }

 private:
  static std::string Quote(const std::string& v) {
    std::string out = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') {
        out += '\\';
      }
      out += (c == '\n' ? ' ' : c);
    }
    return out + "\"";
  }
  void Raw(const std::string& key, const std::string& value) {
    body_ += (body_.empty() ? "" : ", ") + Quote(key) + ": " + value;
  }
  std::string body_;
};

int Main(int argc, char** argv) {
  const InstanceOptions options = ParseArgs(argc, argv);
  const double start = Now();
  const InstanceResult r = RunInstance(options);
  std::printf("%s seed %" PRIu64 "%s: setup %.4f s, wall %.4f s, %zu cycles, hash %016" PRIx64
              " (%.2f s)\n",
              options.workload.c_str(), options.seed, options.traced ? " traced" : "", r.setup_s,
              r.wall_s, r.cycle_ms.size(), r.outcome_hash, Now() - start);

  Json times;
  times.Number("setup_s", r.setup_s);
  times.Number("generate_ms", r.generate_ms);
  times.Number("pretrain_ms", r.pretrain_ms);
  times.Number("wall_s", r.wall_s);
  times.Number("solve_s", r.solve_seconds);
  times.Number("capacity_ms", r.capacity_ms);
  times.Number("valuation_ms", r.valuation_ms);
  times.Number("build_ms", r.build_ms);
  times.Number("placement_ms", r.placement_ms);
  times.Number("sim_self_ms", r.sim_self_ms);
  times.Number("svc_handle_ms", r.svc_handle_ms);
  times.Number("svc_step_ms", r.svc_step_ms);
  times.Number("snapshot_save_ms", r.snapshot_save_ms);
  times.Number("twin_sweep_ms", r.twin_sweep_ms);
  times.Number("peak_rss_mb", r.peak_rss_mb);

  Json samples;
  samples.Numbers("cycle_ms", r.cycle_ms);
  samples.Numbers("submit_us", r.submit_us);
  samples.Numbers("query_us", r.query_us);
  samples.Numbers("whatif_ms", r.whatif_ms);
  samples.Numbers("arrival_us", r.arrival_us);
  samples.Numbers("solve_ms", r.solve_ms);

  Json counts;
  std::vector<std::string> approximate;
  for (const WorkCounts::Item& item : r.counts.Items()) {
    counts.Int(item.name, item.value);
    if (!item.exact) {
      approximate.push_back(item.name);
    }
  }

  Json quality;
  quality.Number("slo_met_pct", r.slo_met_pct);
  quality.Number("goodput_mhr", r.goodput_mhr);
  quality.Number("be_latency_mean_s", r.be_latency_mean_s);
  quality.Int("abandoned", r.abandoned);
  quality.Int("unfinished", r.unfinished);

  char hash[32];
  std::snprintf(hash, sizeof(hash), "%016" PRIx64, r.outcome_hash);
  Json out;
  out.String("workload", options.workload);
  out.Int("seed", static_cast<int64_t>(options.seed));
  out.Bool("traced", options.traced);
  out.String("outcome_hash", hash);
  out.Int("attempted", r.attempted);
  out.Int("failed", r.failed);
  out.Strings("errors", r.errors);
  out.Object("times", times);
  out.Object("quality", quality);
  out.Object("counts", counts);
  out.Strings("approximate_counts", approximate);
  out.Object("samples", samples);
  std::printf("%s\n", out.Text().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
