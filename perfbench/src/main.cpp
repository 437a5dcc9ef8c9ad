// perfbench: the repository benchmark.
//
//   perfbench --workload capture|probe|service --seed N --seconds T
//                    --trace 0|1 [--out-dir DIR] [--commit SHA]
//                    [--expected FILE]
//
// --trace 0 measures the end-to-end metrics; --trace 1 is the separate
// traced invocation that reports the per-layer metrics, the per-layer
// self time of the workload's spans and the tracing overhead. The last
// stdout line is the JSON result; "# ..." lines before it carry the
// machine fingerprint, notes and check results. Internal modes
// (--setup-probe, --count-pass, --self-test) are spawned by the benchmark
// itself or run by hand; see perfbench/README.md.
#include <spawn.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>

#include "workloads.hpp"

extern char** environ;

namespace perfbench {
namespace {

/// Workloads whose end-to-end run includes this many setup repetitions.
constexpr int kSetupReps = 41;

struct Args {
  std::string workload;
  std::string setup_probe;
  std::string count_pass;
  bool self_test = false;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool corrupt_one = false;
  std::string out_dir = ".bench_out";
  std::string commit = "unknown";
  std::string expected;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload capture|probe|service --seed N --seconds T "
               "--trace 0|1 [--out-dir DIR] [--commit SHA] [--expected FILE]\n"
               "       perfbench --self-test [--out-dir DIR]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--workload") a.workload = value();
    else if (flag == "--setup-probe") a.setup_probe = value();
    else if (flag == "--count-pass") a.count_pass = value();
    else if (flag == "--self-test") a.self_test = true;
    else if (flag == "--seed") a.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (flag == "--seconds") a.seconds = std::atof(value().c_str());
    else if (flag == "--trace") a.trace = value() == "1";
    else if (flag == "--corrupt-one") a.corrupt_one = true;
    else if (flag == "--out-dir") a.out_dir = value();
    else if (flag == "--commit") a.commit = value();
    else if (flag == "--expected") a.expected = value();
    else usage(("unknown flag " + flag).c_str());
  }
  return a;
}

bool known_workload(const std::string& w) {
  return w == "capture" || w == "probe" || w == "service";
}

/// A child run of this binary with stdout on a pipe.
struct Child {
  pid_t pid = -1;
  int out = -1;
};

Child spawn_self(const std::vector<std::string>& args) {
  Child c;
  int fds[2];
  if (::pipe(fds) != 0) return c;
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&fa, fds[0]);
  posix_spawn_file_actions_addclose(&fa, fds[1]);
  std::vector<std::string> full = {"/proc/self/exe"};
  full.insert(full.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (auto& s : full) argv.push_back(s.data());
  argv.push_back(nullptr);
  const bool spawned =
      posix_spawn(&c.pid, "/proc/self/exe", &fa, nullptr, argv.data(), environ) == 0;
  posix_spawn_file_actions_destroy(&fa);
  ::close(fds[1]);
  if (!spawned) {
    ::close(fds[0]);
    c.pid = -1;
    return c;
  }
  c.out = fds[0];
  return c;
}

/// Read a child's stdout to EOF and reap it; false when it failed.
bool finish_child(Child& c, std::string* out) {
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(c.out, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    if (out != nullptr) out->append(buf, static_cast<std::size_t>(n));
  }
  ::close(c.out);
  int status = 0;
  while (::waitpid(c.pid, &status, 0) < 0 && errno == EINTR) {
  }
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

/// Median wall time from spawning a fresh benchmark process to its first
/// trial dispatch ("ready"), over kSetupReps processes.
double measure_setup(const Args& a, Ops& ops) {
  std::vector<double> s;
  for (int r = 0; r < kSetupReps; ++r) {
    const auto t0 = Clock::now();
    Child c = spawn_self({"--setup-probe", a.workload, "--seed", std::to_string(a.seed),
                          "--out-dir", a.out_dir});
    if (c.pid < 0) {
      ops.fail("cannot spawn a setup probe");
      return 0.0;
    }
    std::string line;
    char ch;
    while (::read(c.out, &ch, 1) == 1 && ch != '\n') line += ch;
    const double elapsed = seconds_since(t0);
    if (!finish_child(c, nullptr) || line != "ready") {
      ops.fail("setup probe did not reach its first trial");
      return 0.0;
    }
    s.push_back(elapsed);
  }
  return median(s);
}

CountPass run_count_pass(const std::string& workload, std::uint64_t seed,
                         const std::string& out_dir) {
  if (workload == "capture") return capture_counts(seed);
  if (workload == "probe") return probe_counts(seed, out_dir);
  return service_counts(seed, out_dir);
}

std::string format_count_pass(const CountPass& p) {
  std::string out;
  char buf[128];
  for (const auto& [k, v] : p.exact) {
    std::snprintf(buf, sizeof(buf), "exact %s %.17g\n", k.c_str(), v);
    out += buf;
  }
  for (const auto& [k, v] : p.measured) {
    std::snprintf(buf, sizeof(buf), "measured %s %.17g\n", k.c_str(), v);
    out += buf;
  }
  return out + "digest " + p.digest + "\n";
}

std::optional<CountPass> parse_count_pass(const std::string& text) {
  CountPass p;
  std::istringstream in(text);
  std::string kind, key;
  while (in >> kind) {
    if (kind == "digest") {
      in >> p.digest;
      continue;
    }
    double v = 0.0;
    if (!(in >> key >> v)) return std::nullopt;
    (kind == "exact" ? p.exact : p.measured)[key] = v;
  }
  if (p.digest.empty()) return std::nullopt;
  return p;
}

/// Run a workload's count pass twice in fresh processes. Counts that do
/// not repeat exactly are a benchmark error: report and exit 3.
CountPass checked_count_pass(const Args& a, const std::string& workload, Ops& ops) {
  std::optional<CountPass> runs[2];
  for (auto& r : runs) {
    Child c = spawn_self({"--count-pass", workload, "--seed", std::to_string(a.seed), "--out-dir",
                          a.out_dir});
    std::string out;
    if (c.pid < 0 || !finish_child(c, &out) || !(r = parse_count_pass(out))) {
      std::fprintf(stderr, "benchmark error: the %s count pass failed\n", workload.c_str());
      std::exit(3);
    }
  }
  if (runs[0]->exact != runs[1]->exact || runs[0]->digest != runs[1]->digest) {
    std::fprintf(stderr, "benchmark error: %s counts differ between two passes at seed %llu\n",
                 workload.c_str(), static_cast<unsigned long long>(a.seed));
    for (const auto& [k, v] : runs[0]->exact) {
      std::fprintf(stderr, "  %s: %.17g vs %.17g\n", k.c_str(), v, runs[1]->exact[k]);
    }
    std::fprintf(stderr, "  digest: %s vs %s\n", runs[0]->digest.c_str(), runs[1]->digest.c_str());
    std::exit(3);
  }
  for (const char* err : {"capture.errors", "probe.errors", "service.timeouts", "service.start_failed"}) {
    const auto it = runs[0]->exact.find(err);
    if (it != runs[0]->exact.end() && it->second != 0.0) {
      ops.fail(workload + " count pass: " + err + " = " + num(it->second));
    }
  }
  return *runs[0];
}

/// Compare the count-pass digest with the recorded one for this
/// (workload, seed), when the expected file lists it.
void check_digest(const Args& a, const std::string& workload, const std::string& digest, Ops& ops,
                  std::vector<std::string>& notes) {
  std::ifstream in(a.expected);
  std::string w, want;
  std::uint64_t seed = 0;
  while (in >> w >> seed >> want) {
    if (w != workload || seed != a.seed) continue;
    if (want != digest) {
      ops.fail(workload + " output digest " + digest + " != recorded " + want);
    }
    notes.push_back(workload + " output digest " + digest + (want == digest ? " matches" : " differs from") +
                    " the recorded digest at seed " + std::to_string(seed));
    return;
  }
  notes.push_back(workload + " output digest " + digest + " (no recorded digest for seed " +
                  std::to_string(a.seed) + ")");
}

double overhead_pct(const LoopStats& st) {
  if (st.plain_us_per_trial.empty() || st.traced_us_per_trial.empty()) return 0.0;
  return (median(st.traced_us_per_trial) / median(st.plain_us_per_trial) - 1.0) * 100.0;
}

void run_loop(Context& ctx, LoopStats& st, std::map<std::string, double>* layer) {
  if (ctx.workload == "capture") capture_loop(ctx, st);
  else if (ctx.workload == "probe") probe_loop(ctx, st);
  else service_loop(ctx, st, layer);
}

/// Trial samples per window of the windowed medians: enough that a
/// window's p99 has at least ten samples beyond it.
constexpr std::size_t kWindowTrials = 1000;

void end_to_end(Context& ctx, const LoopStats& st, double setup_s) {
  MetricSet& m = ctx.metrics;
  double rate = 0.0, p50_ms = 0.0, p99_ms = 0.0;
  std::string windows = "pooled";
  if (st.trial_p50_ms >= 0.0) {
    // Service: trials per second of campaign time, percentiles from the
    // daemon's per-trial histogram.
    rate = st.campaign_s > 0 ? static_cast<double>(st.verified) / st.campaign_s : 0.0;
    p50_ms = st.trial_p50_ms;
    p99_ms = st.trial_p99_ms;
  } else {
    std::vector<double> wall_s;
    for (const double ms : st.campaign_ms) wall_s.push_back(ms / 1e3);
    const Windowed w = windowed(st.trial_ms, st.campaign_samples_end, wall_s,
                                st.campaign_verified, kWindowTrials);
    rate = w.trials_per_s;
    p50_ms = w.p50_ms;
    p99_ms = w.p99_ms;
    windows = "medians over " + std::to_string(w.windows) + " windows of >= " +
              std::to_string(kWindowTrials) + " trials";
  }
  m.set("trials_per_s", rate, "1/s");
  m.set("trial_p50_us", p50_ms * 1e3, "us");
  m.set("trial_p99_us", p99_ms * 1e3, "us");
  m.set("setup_s", setup_s, "s");
  m.set("peak_rss_mb", peak_rss_mb(), "MiB");
  m.set("campaign_p50_ms", percentile(st.campaign_ms, 0.50), "ms");
  m.set("campaign_p90_ms", percentile(st.campaign_ms, 0.90), "ms");
  // Requests in time order, windowed like trials: each request is its
  // own one-sample "campaign". Service requests are pooled instead: every
  // service episode repeats the same index growth, and list cost grows
  // with the index, so windows would cut that ramp at arbitrary points.
  double req_p50 = 0.0, req_p99 = 0.0;
  std::string req_windows = "pooled";
  if (st.trial_p50_ms >= 0.0) {
    req_p50 = percentile(st.request_us, 0.50);
    req_p99 = percentile(st.request_us, 0.99);
  } else {
    std::vector<std::size_t> ends(st.request_us.size()), ones(st.request_us.size(), 1);
    for (std::size_t i = 0; i < ends.size(); ++i) ends[i] = i + 1;
    const Windowed rw = windowed(st.request_us, ends, std::vector<double>(ends.size(), 1.0), ones,
                                 kWindowTrials);
    req_p50 = rw.p50_ms;
    req_p99 = rw.p99_ms;
    req_windows = std::to_string(rw.windows) + " windows";
  }
  m.set("request_p50_us", req_p50, "us");
  m.set("request_p99_us", req_p99, "us");
  ctx.notes.push_back("samples: " + std::to_string(st.trials) + " trials (" + windows + "), " +
                      std::to_string(st.campaign_ms.size()) + " campaigns, " +
                      std::to_string(st.request_us.size()) + " requests (" + req_windows + "), " +
                      num(st.campaign_s) + " s in campaigns");
}

void per_layer(Context& ctx, const LoopStats& st,
               const std::map<std::string, CountPass>& passes,
               std::map<std::string, double> layer) {
  MetricSet& m = ctx.metrics;
  const auto unit_of = [](const std::string& name) -> std::string {
    if (name == "runner.utilization") return "ratio";
    if (name.size() > 4 && name.ends_with("_pct")) return "%";
    for (const char* u : {"_ns", "_us", "_ms"}) {
      if (name.ends_with(u)) return u + 1;
    }
    return "count";
  };
  const auto& cap = passes.at("capture");
  const auto& probe = passes.at("probe");
  const auto& svc = passes.at("service");
  for (const char* k : {"sim.events_per_trial", "sim.cancels_per_trial", "ipc.tx_per_trial",
                        "server.windows_per_trial"}) {
    m.set(k, cap.exact.at(k), "count");
  }
  m.set("core.dbound_probes", probe.exact.at("core.dbound_probes"), "count");
  m.set("runner.frames_per_trial", probe.measured.at("runner.frames_per_trial"), "count");
  m.set("service.sse_frames_per_campaign", svc.exact.at("service.sse_frames_per_campaign"), "count");
  m.set("service.threads_end", svc.exact.at("service.threads_end"), "count");
  layer.emplace("runner.utilization", cap.measured.at("runner.utilization"));
  layer.emplace("runner.dispatch_us", probe.measured.at("runner.dispatch_us"));
  for (const char* k : {"service.submit_us", "service.list_us", "service.index_load_ms"}) {
    layer.emplace(k, svc.measured.at(k));
  }
  static const char* kOrder[] = {
      "sim.event_ns", "sim.rng_normal_ns", "ipc.record_ns", "server.add_remove_us",
      "ui.interp_ns", "input.tap_ns", "core.capture_us", "core.password_us",
      "runner.utilization", "core.probe_us", "core.dbound_us", "core.epoch_reset_us",
      "runner.dispatch_us", "runner.encode_ns", "runner.decode_ns",
      "runner.checkpoint_append_us", "obs.snapshot_us", "obs.profile_overhead_pct",
      "service.parse_us", "service.list_us", "service.submit_us", "service.index_load_ms",
      "metrics.table_us"};
  for (const char* k : kOrder) m.set(k, layer.at(k), unit_of(k));
  m.set("trace.overhead_pct", overhead_pct(st), "%");
}

int run_benchmark(const Args& a) {
  Context ctx;
  ctx.workload = a.workload;
  ctx.seed = a.seed;
  ctx.seconds = a.seconds;
  ctx.trace = a.trace;
  ctx.corrupt_one = a.corrupt_one;
  ctx.out_dir = a.out_dir;
  ::mkdir(a.out_dir.c_str(), 0755);
  std::printf("# fingerprint %s\n", fingerprint_json(a.seed, a.commit).c_str());
  std::fflush(stdout);

  if (!a.trace) {
    const double setup_s = measure_setup(a, ctx.ops);
    const CountPass pass = checked_count_pass(a, a.workload, ctx.ops);
    check_digest(a, a.workload, pass.digest, ctx.ops, ctx.notes);
    LoopStats st;
    run_loop(ctx, st, nullptr);
    end_to_end(ctx, st, setup_s);
  } else {
    std::map<std::string, CountPass> passes;
    for (const char* w : {"capture", "probe", "service"}) {
      passes[w] = checked_count_pass(a, w, ctx.ops);
      check_digest(a, w, passes[w].digest, ctx.ops, ctx.notes);
    }
    ctx.tracer.enable(true);
    LoopStats st;
    std::map<std::string, double> layer;
    run_loop(ctx, st, &layer);
    const std::vector<Span> loop_spans = ctx.tracer.spans();
    layer_suite(a.seed, a.out_dir, passes.at("capture"), ctx.tracer, ctx.ops, layer);
    per_layer(ctx, st, passes, layer);
    const auto totals = layer_totals(loop_spans);
    for (const char* l : {"runner", "core", "service"}) {
      const auto it = totals.find(l);
      const LayerTotals t = it == totals.end() ? LayerTotals{} : it->second;
      ctx.metrics.set(std::string("trace.") + l + ".self_ms", t.self_ms, "ms");
      ctx.metrics.set(std::string("trace.") + l + ".spans", static_cast<double>(t.spans), "count");
    }
    for (const auto& [l, t] : totals) {
      ctx.notes.push_back("self time " + l + ": " + num(t.self_ms) + " ms over " +
                          std::to_string(t.spans) + " spans");
    }
    const std::string path = a.out_dir + "/spans-" + a.workload + "-" + std::to_string(a.seed) + ".jsonl";
    if (!write_text(path, spans_jsonl(ctx.tracer.spans()))) ctx.ops.fail("cannot write " + path);
    ctx.notes.push_back("spans written to " + path);
  }

  for (const std::string& n : ctx.notes) std::printf("# %s\n", n.c_str());
  for (const std::string& f : ctx.ops.failures) std::printf("# FAILED %s\n", f.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              ctx.ops.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(ctx.ops.attempted),
              static_cast<unsigned long long>(ctx.ops.failed), ctx.metrics.json().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args a = parse(argc, argv);
  if (a.self_test) {
    ::mkdir(a.out_dir.c_str(), 0755);
    char exe[4096];
    const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
    if (n <= 0) return 1;
    return self_test(std::string(exe, static_cast<std::size_t>(n)), a.out_dir) == 0 ? 0 : 1;
  }
  if (!a.setup_probe.empty()) return setup_probe(a.setup_probe, a.seed, a.out_dir);
  if (!a.count_pass.empty()) {
    if (!known_workload(a.count_pass)) usage("unknown workload");
    std::fputs(format_count_pass(run_count_pass(a.count_pass, a.seed, a.out_dir)).c_str(), stdout);
    return 0;
  }
  if (!known_workload(a.workload)) usage("--workload must be capture, probe or service");
  if (a.seconds <= 0.0) usage("--seconds must be positive");
  return run_benchmark(a);
}
