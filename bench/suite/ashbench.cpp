// ashbench — one benchmark for both clocks.
//
//   ashbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//            [--reps N] [--smoke] [--report FILE] [--trace-dir DIR]
//   ashbench --all [same options] [--out FILE]
//
// One workload per process, single-threaded. The untraced reps repeat the
// workload's fixed, seed-determined traffic until --seconds of host time
// have gone (at least three reps); end-to-end metrics come from them: sim
// metrics must be bit-identical across reps; setup_s is the median rep and
// host_ns_per_msg the lower-quartile rep.
// With --trace 1 one more rep runs under a trace::Session; it must
// reproduce the untraced sim metrics exactly and supplies the per-layer
// metrics plus <workload>.trace.json.
//
// --all runs each workload in its own child process, one at a time, and
// merges their reports into one JSON file.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exit status: 0 when every check passed, 1 on a violation,
// 2 on bad usage.
#include <malloc.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "harness.hpp"

extern char** environ;

namespace ashbench {
namespace {

struct Options {
  std::string workload;
  bool all = false;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = true;
  int reps = 0;  // 0: as many as fit in --seconds, at least kMinReps
  bool smoke = false;
  std::string report;
  std::string out = "ashbench_report.json";
  std::string trace_dir = ".";
};

constexpr int kMinReps = 3;
constexpr int kMaxReps = 50;

int usage(const char* why) {
  std::fprintf(stderr,
               "ashbench: %s\n"
               "usage: ashbench --workload NAME | --all\n"
               "       [--seed N] [--seconds S] [--trace 0|1] [--reps N]\n"
               "       [--smoke] [--report FILE] [--out FILE] "
               "[--trace-dir DIR]\n",
               why);
  return 2;
}

// ---- JSON output ----

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

/// Nearest-rank 25th percentile (the fastest of three or four reps).
/// Interference from a shared host only ever adds time, so the lower
/// quartile of the reps tracks the simulator's own cost more steadily
/// than their median does.
double lower_quartile(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[(v.size() + 3) / 4 - 1];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Everything sim-clock a rep produced; equal across reps or the run is
/// not deterministic.
bool same_sim(const RepResult& a, const RepResult& b) {
  const auto bits = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof x) == 0;
  };
  return a.latencies == b.latencies && a.attempted == b.attempted &&
         a.completed == b.completed && a.failed == b.failed &&
         bits(a.throughput_kmsgs, b.throughput_kmsgs) &&
         bits(a.goodput_mbps, b.goodput_mbps) &&
         bits(a.max_rate_kmsgs, b.max_rate_kmsgs) && a.msgs == b.msgs &&
         a.events == b.events && a.setup_events == b.setup_events &&
         a.sim_state == b.sim_state;
}

struct E2e {
  const MetricDef* def = nullptr;
  double value = 0;
  std::size_t samples = 0, beyond = 0;
  bool percentile = false, supported = true;
};

std::string trace_file_json(const RepResult& t) {
  std::string out = t.tracer_chrome_json;
  // Splice the benchmark's own spans into the tracer's Chrome trace:
  // pid 0 is the tracer (sim us), pid 1 the host clock (us since the rep
  // started), pid 2 the per-request spans (sim us, async by request id).
  if (out.size() >= 2 && out.compare(out.size() - 2, 2, "]}") == 0) {
    out.resize(out.size() - 2);
    out += ",";
  } else {
    out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  }
  out +=
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":"
      "\"ashbench host clock\"}},"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"args\":{\"name\":"
      "\"requests (sim clock)\"}}";
  for (const Span& s : t.host_spans) {
    out += ",{\"name\":" + quote(s.name) +
           ",\"cat\":\"host\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":" +
           num(s.start_us) + ",\"dur\":" + num(s.dur_us) + "}";
  }
  for (const Span& s : t.request_spans) {
    const std::string common = "{\"name\":" + quote(s.name) +
                               ",\"cat\":\"request\",\"pid\":2,\"tid\":0,"
                               "\"id\":" +
                               std::to_string(s.id);
    out += "," + common + ",\"ph\":\"b\",\"ts\":" + num(s.start_us) + "}";
    out += "," + common + ",\"ph\":\"e\",\"ts\":" +
           num(s.start_us + s.dur_us) + "}";
  }
  return out + "]}";
}

int run_one(const Options& opt, const Workload& w) {
  RepConfig cfg;
  cfg.seed = opt.seed;
  cfg.smoke = opt.smoke;

  // ---- untraced reps: e2e metrics ----
  // Rep 0 is kept whole; later reps are compared with it and reduced to
  // their host-clock numbers, so memory does not grow with the rep count.
  RepResult first;
  std::vector<std::string> violations;
  std::vector<double> rep_s, host_ns, setup, ns_per_event, run_s, world,
      download;
  const HostClock::time_point t_all = HostClock::now();
  for (int n = 1;; ++n) {
    const HostClock::time_point t = HostClock::now();
    RepResult r = w.fn(cfg);
    rep_s.push_back(seconds_between(t, HostClock::now()));
    const auto per = [](double s, std::uint64_t count) {
      return count ? s * 1e9 / static_cast<double>(count) : 0;
    };
    host_ns.push_back(per(r.run_s, r.msgs));
    ns_per_event.push_back(per(r.run_s, r.events));
    setup.push_back(r.setup_s);
    run_s.push_back(r.run_s);
    world.push_back(r.setup_s > 0 ? r.world_s / r.setup_s : 0);
    download.push_back(r.setup_s > 0 ? r.download_s / r.setup_s : 0);
    if (n == 1) {
      first = std::move(r);
      violations = first.violations;
    } else if (!same_sim(first, r)) {
      violations.push_back("rep " + std::to_string(n - 1) +
                           " sim metrics differ from rep 0");
    }
    if (opt.reps > 0) {
      if (n >= opt.reps) break;
      continue;
    }
    const double elapsed = seconds_between(t_all, HostClock::now());
    if (n >= kMinReps &&
        (elapsed + median(rep_s) > opt.seconds || n >= kMaxReps)) {
      break;
    }
  }
  const double rss = peak_rss_mb();
  const std::size_t reps = rep_s.size();

  std::vector<Cycles> sorted = first.latencies;
  std::sort(sorted.begin(), sorted.end());
  std::vector<E2e> e2e;
  for (const MetricDef& d : e2e_metrics()) {
    E2e m{&d};
    const std::string name = d.name;
    const auto pct = [&](std::uint32_t per_mille) {
      const Percentile p = percentile(sorted, per_mille);
      m.value = to_us(p.cycles);
      m.samples = p.samples;
      m.beyond = p.beyond;
      m.percentile = true;
      m.supported = p.supported;
    };
    if (name == "latency_p50_us") pct(500);
    if (name == "latency_p99_us") pct(990);
    if (name == "latency_p999_us") pct(999);
    if (name == "throughput_kmsgs") m.value = first.throughput_kmsgs;
    if (name == "goodput_mbps") m.value = first.goodput_mbps;
    if (name == "max_rate_kmsgs") m.value = first.max_rate_kmsgs;
    if (name == "host_ns_per_msg") m.value = lower_quartile(host_ns);
    if (name == "setup_s") m.value = median(setup);
    if (name == "peak_rss_mb") m.value = rss;
    e2e.push_back(m);
  }
  const double failed_ratio =
      first.attempted ? static_cast<double>(first.failed) /
                            static_cast<double>(first.attempted)
                      : 0;

  // ---- traced rep: per-layer metrics ----
  std::map<std::string, double> layer;
  if (opt.trace) {
    RepConfig tcfg = cfg;
    tcfg.traced = true;
    const RepResult traced = w.fn(tcfg);
    for (const std::string& v : traced.violations) {
      violations.push_back("traced rep: " + v);
    }
    if (!same_sim(first, traced)) {
      violations.push_back("traced rep sim metrics differ from untraced");
    }
    layer = traced.layer;
    // Host-clock layers come from the untraced reps (tracing would inflate
    // them); the tracer's cost is the one host-clock number the traced
    // rep owns.
    layer["setup.world_share"] = median(world);
    layer["setup.download_share"] = median(download);
    layer["sim.host_ns_per_event"] = lower_quartile(ns_per_event);
    layer["sim.events_per_msg"] =
        first.msgs ? static_cast<double>(first.events) /
                         static_cast<double>(first.msgs)
                   : 0;
    layer["trace.overhead_ratio"] =
        lower_quartile(run_s) > 0 ? traced.run_s / lower_quartile(run_s) : 0;
    const std::string path =
        opt.trace_dir + "/" + std::string(w.name) + ".trace.json";
    std::ofstream tf(path);
    tf << trace_file_json(traced);
    if (!tf) violations.push_back("could not write " + path);
  }
  const bool correct = violations.empty();
  const auto layer_value = [&](const char* name) {
    const auto it = layer.find(name);
    return it == layer.end() ? 0.0 : it->second;
  };

  // ---- human-readable table ----
  std::printf("== ashbench %s  seed=%llu  reps=%zu%s ==\n", w.name,
              static_cast<unsigned long long>(opt.seed), reps,
              opt.smoke ? "  (smoke)" : "");
  std::printf("  %-22s %14s  %-7s %-5s\n", "metric", "value", "unit",
              "clock");
  for (const E2e& m : e2e) {
    std::printf("  %-22s %14.4f  %-7s %-5s", m.def->name, m.value,
                m.def->unit, m.def->clock);
    if (m.percentile) {
      std::printf("  n=%zu beyond=%zu%s", m.samples, m.beyond,
                  m.supported ? "" : "  UNSUPPORTED (<10 samples beyond)");
    }
    std::printf("\n");
  }
  std::printf("  %-22s %14.6f  %-7s %-5s  attempted=%llu failed=%llu\n",
              "failed_ratio", failed_ratio, "ratio", "sim",
              static_cast<unsigned long long>(first.attempted),
              static_cast<unsigned long long>(first.failed));
  if (opt.trace) {
    std::printf("  -- per layer (traced rep) --\n");
    for (const MetricDef& d : layer_metrics()) {
      std::printf("  %-40s %14.4f  %s\n", d.name, layer_value(d.name),
                  d.unit);
    }
  }
  for (const std::string& v : violations) {
    std::printf("  VIOLATION: %s\n", v.c_str());
  }
  std::printf("  checks: %s\n", correct ? "all passed" : "FAILED");

  // ---- report JSON ----
  std::ostringstream js;
  js << "{\"workload\": " << quote(w.name) << ", \"why\": " << quote(w.why)
     << ", \"seed\": " << opt.seed << ", \"smoke\": "
     << (opt.smoke ? "true" : "false") << ", \"reps\": " << reps
     << ", \"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << first.attempted
     << ", \"completed\": " << first.completed
     << ", \"failed\": " << first.failed
     << ", \"failed_ratio\": " << num(failed_ratio) << ", \"violations\": [";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    js << (i ? ", " : "") << quote(violations[i]);
  }
  js << "], \"e2e\": {";
  for (std::size_t i = 0; i < e2e.size(); ++i) {
    const E2e& m = e2e[i];
    js << (i ? ", " : "") << quote(m.def->name)
       << ": {\"value\": " << num(m.value)
       << ", \"unit\": " << quote(m.def->unit)
       << ", \"clock\": " << quote(m.def->clock)
       << ", \"better\": " << quote(m.def->better);
    if (m.percentile) {
      js << ", \"samples\": " << m.samples << ", \"beyond\": " << m.beyond
         << ", \"supported\": " << (m.supported ? "true" : "false");
    }
    js << "}";
  }
  js << "}, \"host_reps\": {";
  const std::pair<const char*, const std::vector<double>*> series[] = {
      {"host_ns_per_msg", &host_ns}, {"setup_s", &setup}, {"run_s", &run_s}};
  for (std::size_t i = 0; i < std::size(series); ++i) {
    js << (i ? ", " : "") << quote(series[i].first) << ": [";
    for (std::size_t k = 0; k < series[i].second->size(); ++k) {
      js << (k ? ", " : "") << num((*series[i].second)[k]);
    }
    js << "]";
  }
  js << "}, \"layer\": {";
  if (opt.trace) {
    bool comma = false;
    for (const MetricDef& d : layer_metrics()) {
      js << (comma ? ", " : "") << quote(d.name)
         << ": {\"value\": " << num(layer_value(d.name))
         << ", \"unit\": " << quote(d.unit) << ", \"clock\": "
         << quote(d.clock) << ", \"better\": " << quote(d.better)
         << ", \"moves\": " << quote(d.moves) << "}";
      comma = true;
    }
  }
  js << "}}";
  if (!opt.report.empty()) {
    std::ofstream rf(opt.report);
    rf << js.str() << "\n";
    if (!rf) {
      std::fprintf(stderr, "ashbench: could not write %s\n",
                   opt.report.c_str());
      return 1;
    }
  }

  // ---- the last line: the result object ----
  std::ostringstream line;
  line << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << first.attempted
       << ", \"failed\": " << first.failed << ", \"metrics\": {";
  bool comma = false;
  if (opt.trace) {
    for (const MetricDef& d : layer_metrics()) {
      line << (comma ? ", " : "") << quote(d.name)
           << ": {\"value\": " << num(layer_value(d.name))
           << ", \"unit\": " << quote(d.unit) << "}";
      comma = true;
    }
  } else {
    for (const E2e& m : e2e) {
      line << (comma ? ", " : "") << quote(m.def->name)
           << ": {\"value\": " << num(m.value)
           << ", \"unit\": " << quote(m.def->unit) << "}";
      comma = true;
    }
  }
  line << "}}";
  std::printf("%s\n", line.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

/// --all: every workload in its own child process, one at a time.
int run_all(const Options& opt, const char* self) {
  std::string merged = "{\"seed\": " + std::to_string(opt.seed) +
                       ", \"smoke\": " + (opt.smoke ? "true" : "false") +
                       ", \"workloads\": {";
  bool ok = true;
  bool comma = false;
  for (const Workload& w : workloads()) {
    const std::string report = opt.out + "." + w.name + ".json";
    std::vector<std::string> args = {
        self,          "--workload",  w.name,
        "--seed",      std::to_string(opt.seed),
        "--seconds",   num(opt.seconds),
        "--trace",     opt.trace ? "1" : "0",
        "--report",    report,
        "--trace-dir", opt.trace_dir};
    if (opt.reps > 0) {
      args.push_back("--reps");
      args.push_back(std::to_string(opt.reps));
    }
    if (opt.smoke) args.push_back("--smoke");
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    std::fflush(stdout);
    pid_t pid = 0;
    if (posix_spawn(&pid, self, nullptr, nullptr, argv.data(), environ) != 0) {
      std::fprintf(stderr, "ashbench: cannot start %s\n", self);
      return 1;
    }
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    const bool child_ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    ok = ok && child_ok;
    std::ifstream in(report);
    std::stringstream body;
    body << in.rdbuf();
    std::string text = body.str();
    while (!text.empty() && (text.back() == '\n' || text.back() == ' ')) {
      text.pop_back();
    }
    if (text.empty()) {
      ok = false;
      continue;
    }
    merged += (comma ? ", " : "") + quote(w.name) + ": " + text;
    comma = true;
    std::remove(report.c_str());
  }
  merged += "}}\n";
  std::ofstream out(opt.out);
  out << merged;
  if (!out) {
    std::fprintf(stderr, "ashbench: could not write %s\n", opt.out.c_str());
    return 1;
  }
  std::printf("ashbench --all: %s; report in %s\n",
              ok ? "every workload passed every check" : "FAILED",
              opt.out.c_str());
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace ashbench

int main(int argc, char** argv) {
  using namespace ashbench;
  // Reps run back to back in one process. glibc raises its mmap threshold
  // after the first large free, which would turn later reps' node memory
  // into warm heap pages; pinning the threshold at its initial value makes
  // every rep allocate (and fault in) its world like a fresh process, so
  // setup_s and peak_rss_mb do not depend on rep order.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "--all") {
      opt.all = true;
    } else if (a == "--smoke") {
      opt.smoke = true;
    } else if (a == "--workload" || a == "--report" || a == "--out" ||
               a == "--trace-dir") {
      const char* v = value();
      if (v == nullptr) return usage(("missing value for " + a).c_str());
      (a == "--workload"  ? opt.workload
       : a == "--report"  ? opt.report
       : a == "--out"     ? opt.out
                          : opt.trace_dir) = v;
    } else if (a == "--seconds") {
      const char* v = value();
      char* end = nullptr;
      const double x = v ? std::strtod(v, &end) : 0;
      if (v == nullptr || *end != '\0' || !(x >= 0 && x <= 3600)) {
        return usage("--seconds takes 0..3600");
      }
      opt.seconds = x;
    } else if (a == "--seed" || a == "--trace" || a == "--reps") {
      const char* v = value();
      std::uint64_t x = 0;
      const char* end = v == nullptr ? nullptr : v + std::strlen(v);
      if (v == nullptr || std::from_chars(v, end, x).ptr != end || v == end) {
        return usage(("bad value for " + a).c_str());
      }
      if (a == "--seed") opt.seed = x;
      if (a == "--reps") {
        if (x > kMaxReps) return usage("--reps takes 0..50");
        opt.reps = static_cast<int>(x);
      }
      if (a == "--trace") {
        if (x > 1) return usage("--trace takes 0 or 1");
        opt.trace = x == 1;
      }
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (opt.all) return run_all(opt, "/proc/self/exe");
  for (const Workload& w : workloads()) {
    if (opt.workload == w.name) return run_one(opt, w);
  }
  return usage(opt.workload.empty() ? "no workload given"
                                    : ("unknown workload " + opt.workload)
                                          .c_str());
}
