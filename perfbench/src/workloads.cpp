// `capture` and `probe` workloads: closed loops of campaigns through
// runner::run_campaign, each followed by a few single-trial requests
// through AttackScenario::run_encoded on the main thread.
#include <unistd.h>

#include <algorithm>
#include <cstdio>

#include "core/attack_scenario.hpp"
#include "core/trial_fields.hpp"
#include "core/trial_session.hpp"
#include "device/registry.hpp"
#include "inputs.hpp"
#include "obs/metrics.hpp"
#include "runner/bench_cli.hpp"
#include "runner/checkpoint.hpp"
#include "service/benches.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace animus;

constexpr std::size_t kCaptureBatch = 128;
constexpr std::size_t kCaptureRequests = 48;
constexpr std::size_t kProbeBatch = 512;
constexpr std::size_t kProbeRequests = 64;
constexpr std::size_t kSampleCap = 48;
/// Request inputs come from the same generator, far past any campaign index.
constexpr std::size_t kRequestBase = std::size_t{1} << 40;

template <typename T>
std::string enc(const T& v) {
  return runner::TrialCodec<T>::encode(v);
}

/// Seeded choice of the trials replayed by the output check: index 0
/// always, then about one in 200.
bool sampled(std::uint64_t seed, std::size_t index) {
  return index == 0 || sim::Rng{seed}.fork("sample").fork(index).uniform01() < 0.005;
}

runner::BenchArgs capture_args() {
  runner::BenchArgs args;
  args.run.jobs = 2;
  args.backend = "threads";
  args.tier = "sim";
  args.csv = true;
  return args;
}

runner::BenchArgs probe_args(const std::string& checkpoint) {
  runner::BenchArgs args;
  args.run.jobs = 2;
  args.backend = "process";
  args.shards = 2;
  args.batch = 0;  // auto
  args.tier = "auto";
  args.csv = true;
  args.checkpoint_out = checkpoint;
  return args;
}

/// A capture trial through TrialSession::run, returning its encoded result.
std::string run_capture(const CaptureInput& in, Tracer& tr, std::uint64_t parent,
                        std::int64_t trial) {
  core::TrialSession& session = core::TrialSession::local();
  if (in.password) {
    core::PasswordTrialResult r;
    {
      ScopedSpan s(tr, "core.password", parent, trial);
      r = session.run(in.pw);
    }
    ScopedSpan s(tr, "runner.encode", parent, trial);
    return enc(r);
  }
  core::CaptureTrialResult r;
  {
    ScopedSpan s(tr, "core.capture", parent, trial);
    r = session.run(in.capture);
  }
  ScopedSpan s(tr, "runner.encode", parent, trial);
  return enc(r);
}

/// Decode and sanity-check one capture-workload result.
bool capture_result_ok(const CaptureInput& in, const std::string& encoded) {
  if (in.password) {
    core::PasswordTrialResult r;
    return runner::TrialCodec<core::PasswordTrialResult>::decode(encoded, &r) &&
           r.intended == in.pw.password;
  }
  core::CaptureTrialResult r;
  return runner::TrialCodec<core::CaptureTrialResult>::decode(encoded, &r) &&
         r.touches == in.capture.touches && r.captured <= r.touches && r.rate >= 0.0 &&
         r.rate <= 1.0;
}

/// One-shot fresh-World replay of a capture-workload input.
std::string replay_capture(const CaptureInput& in) {
  return in.password ? enc(core::run_password_trial(in.pw)) : enc(core::run_capture_trial(in.capture));
}

bool probe_result_ok(const ProbeInput& in, const std::string& encoded) {
  if (in.dbound) {
    core::DBoundTrialResult r;
    return runner::TrialCodec<core::DBoundTrialResult>::decode(encoded, &r) && r.d_upper_ms >= 0 &&
           r.d_upper_ms <= in.bound.max_ms;
  }
  core::OutcomeProbe r;
  return runner::TrialCodec<core::OutcomeProbe>::decode(encoded, &r) && r.cycles >= 0;
}

/// One-shot fresh-World replay on the simulation tier.
std::string replay_probe(const ProbeInput& in) {
  if (in.dbound) {
    core::DBoundTrialConfig c = in.bound;
    c.tier = core::Tier::kSim;
    return enc(core::run_d_bound_trial(c));
  }
  core::OutcomeProbeConfig c = in.probe;
  c.tier = core::Tier::kSim;
  return enc(core::run_outcome_probe(c));
}

struct Sample {
  bool request = false;
  std::size_t index = 0;
  std::string encoded;
};

/// Replay every sample and compare encodings byte for byte.
template <typename Input, typename MakeInput, typename Replay>
void check_samples(Context& ctx, std::vector<Sample>& samples, MakeInput make, Replay replay) {
  if (ctx.corrupt_one && !samples.empty()) samples.front().encoded += "#corrupt";
  for (const Sample& s : samples) {
    const Input in = make(s.request ? kRequestBase + s.index : s.index);
    if (replay(in) != s.encoded) {
      ctx.ops.fail((s.request ? "request " : "trial ") + std::to_string(s.index) +
                   ": fresh-World replay encodes differently");
    }
  }
  ctx.notes.push_back("output check: " + std::to_string(samples.size()) +
                      " sampled trials replayed through the one-shot fresh-World entry points");
}

double registry_sum(const obs::Snapshot& snap, const char* name) {
  double total = 0.0;
  for (const obs::MetricPoint& p : snap.points) {
    if (p.name == name) total += p.value;
  }
  return total;
}

}  // namespace

// ------------------------------------------------------------------ capture

void capture_loop(Context& ctx, LoopStats& st) {
  const runner::BenchArgs args = capture_args();
  const core::AttackScenario& capture_scenario = core::require_scenario("capture-rate");
  const core::AttackScenario& password_scenario = core::require_scenario("password-steal");
  core::TrialSession requests;
  std::vector<Sample> samples;
  Digest all;
  std::size_t next = 0, next_request = 0, batch_no = 0;
  const auto deadline = Clock::now() + std::chrono::duration<double>(ctx.seconds);
  while (Clock::now() < deadline) {
    std::vector<CaptureInput> items;
    items.reserve(kCaptureBatch);
    for (std::size_t i = 0; i < kCaptureBatch; ++i) items.push_back(capture_input(ctx.seed, next + i));
    const bool traced = ctx.trace && batch_no % 2 == 1;
    Tracer& tr = traced ? ctx.tracer : ctx.off;
    const std::uint64_t batch_span = tr.open();
    const std::int64_t span_start = now_ns();
    const auto t0 = Clock::now();
    const auto sw = runner::run_campaign(
        "capture", items,
        [&](const CaptureInput& in, const runner::TrialContext& tc) {
          return run_capture(in, tr, batch_span, static_cast<std::int64_t>(next + tc.index));
        },
        args);
    const double wall_s = seconds_since(t0);
    if (batch_span != 0) tr.close(batch_span, "runner.run_campaign", span_start, 0, -1, items.size());
    st.campaign_ms.push_back(wall_s * 1e3);
    st.campaign_s += wall_s;
    (traced ? st.traced_us_per_trial : st.plain_us_per_trial)
        .push_back(wall_s * 1e6 / static_cast<double>(items.size()));
    st.trial_ms.insert(st.trial_ms.end(), sw.stats.samples_ms.begin(), sw.stats.samples_ms.end());
    const std::uint64_t verified_before = st.verified;
    std::vector<char> errored(items.size(), 0);
    for (const runner::TrialError& e : sw.errors) {
      errored[e.index] = 1;
      ctx.ops.fail("trial " + std::to_string(next + e.index) + ": " + e.what);
    }
    for (std::size_t i = 0; i < items.size(); ++i) {
      ++st.trials;
      ++ctx.ops.attempted;
      if (errored[i]) continue;
      if (!capture_result_ok(items[i], sw.results[i])) {
        ctx.ops.fail("trial " + std::to_string(next + i) + ": result fails its checks");
        continue;
      }
      ++st.verified;
      all.add(sw.results[i]);
      if (samples.size() < kSampleCap && sampled(ctx.seed, next + i)) {
        samples.push_back({false, next + i, sw.results[i]});
      }
    }
    next += items.size();
    st.campaign_verified.push_back(st.verified - verified_before);
    st.campaign_samples_end.push_back(st.trial_ms.size());

    for (std::size_t r = 0; r < kCaptureRequests; ++r, ++next_request) {
      const CaptureInput in = capture_input(ctx.seed, kRequestBase + next_request);
      const core::AttackScenario& s = in.password ? password_scenario : capture_scenario;
      const std::string config = in.password ? enc(in.pw) : enc(in.capture);
      ++ctx.ops.attempted;
      const auto q0 = Clock::now();
      std::string out;
      {
        ScopedSpan span(tr, in.password ? "core.password" : "core.capture", 0,
                        static_cast<std::int64_t>(kRequestBase + next_request));
        out = s.run_encoded(requests, config, {});
      }
      st.request_us.push_back(seconds_since(q0) * 1e6);
      if (!capture_result_ok(in, out)) {
        ctx.ops.fail("request " + std::to_string(next_request) + ": result fails its checks");
      } else if (samples.size() < kSampleCap && sampled(ctx.seed ^ 1, next_request)) {
        samples.push_back({true, next_request, out});
      }
    }
    ++batch_no;
  }
  check_samples<CaptureInput>(
      ctx, samples, [&](std::size_t i) { return capture_input(ctx.seed, i); }, replay_capture);
  ctx.notes.push_back("digest of all " + std::to_string(st.verified) +
                      " timed trial outputs: " + all.hex());
}

CountPass capture_counts(std::uint64_t seed) {
  constexpr std::size_t kTrials = 384;
  std::vector<CaptureInput> items;
  for (std::size_t i = 0; i < kTrials; ++i) items.push_back(capture_input(seed, i));
  Tracer off;
  const obs::Snapshot before = obs::global_registry().snapshot();
  const auto sw = runner::run_campaign(
      "capture-count", items,
      [&](const CaptureInput& in, const runner::TrialContext& tc) {
        return run_capture(in, off, 0, static_cast<std::int64_t>(tc.index));
      },
      capture_args());
  const obs::Snapshot after = obs::global_registry().snapshot();
  const auto delta = [&](const char* name) {
    return (registry_sum(after, name) - registry_sum(before, name)) / static_cast<double>(kTrials);
  };
  CountPass out;
  out.exact["sim.events_per_trial"] = delta("animus_events_executed_total");
  out.exact["sim.cancels_per_trial"] = delta("animus_events_cancelled_total");
  out.exact["ipc.tx_per_trial"] = delta("animus_binder_transactions_total");
  out.exact["server.windows_per_trial"] = delta("animus_windows_added_total");
  out.exact["capture.errors"] = static_cast<double>(sw.errors.size());
  out.measured["runner.utilization"] = sw.stats.utilization();
  out.measured["sim.max_pending"] = registry_sum(after, "animus_events_max_pending");
  Digest d;
  for (const std::string& r : sw.results) d.add(r);
  out.digest = d.hex();
  return out;
}

// -------------------------------------------------------------------- probe

void probe_loop(Context& ctx, LoopStats& st) {
  core::TrialSession requests;
  std::vector<Sample> samples;
  Digest all;
  std::size_t next = 0, next_request = 0, batch_no = 0;
  const runner::BenchArgs replay_args = capture_args();
  bool noted_replay = false;
  const auto deadline = Clock::now() + std::chrono::duration<double>(ctx.seconds);
  while (Clock::now() < deadline) {
    std::vector<ProbeInput> items;
    items.reserve(kProbeBatch);
    for (std::size_t i = 0; i < kProbeBatch; ++i) items.push_back(probe_input(ctx.seed, next + i));
    const std::string checkpoint =
        ctx.out_dir + "/probe-" + std::to_string(batch_no) + ".ckpt.jsonl";
    const runner::BenchArgs args = probe_args(checkpoint);
    const bool traced = ctx.trace && batch_no % 2 == 1;
    Tracer& tr = traced ? ctx.tracer : ctx.off;
    const std::uint64_t batch_span = tr.open();
    const std::int64_t span_start = now_ns();
    const auto t0 = Clock::now();
    // Trial bodies run in the forked shards, so they carry no spans.
    const auto sw = runner::run_campaign(
        "probe", items,
        [](const ProbeInput& in, const runner::TrialContext&) {
          return in.scenario->run_encoded(core::TrialSession::local(), in.encoded, {});
        },
        args);
    const double wall_s = seconds_since(t0);
    if (batch_span != 0) tr.close(batch_span, "runner.run_campaign", span_start, 0, -1, items.size());
    st.campaign_ms.push_back(wall_s * 1e3);
    st.campaign_s += wall_s;
    (traced ? st.traced_us_per_trial : st.plain_us_per_trial)
        .push_back(wall_s * 1e6 / static_cast<double>(items.size()));
    st.trial_ms.insert(st.trial_ms.end(), sw.stats.samples_ms.begin(), sw.stats.samples_ms.end());

    if (traced) {
      // Core spans for the shard-run bodies come from a threads-backend
      // replay of the same inputs, which must also encode identically.
      if (!noted_replay) {
        ctx.notes.push_back(
            "probe trial bodies run in forked shards: their core/runner.encode spans come "
            "from a threads-backend replay of the same inputs (outside the timed campaigns)");
        noted_replay = true;
      }
      const std::uint64_t replay_span = tr.open();
      const std::int64_t replay_start = now_ns();
      const auto rw = runner::run_campaign(
          "probe-replay", items,
          [&](const ProbeInput& in, const runner::TrialContext& tc) {
            const auto trial = static_cast<std::int64_t>(next + tc.index);
            std::string out;
            {
              ScopedSpan s(tr, in.dbound ? "core.dbound" : "core.probe", replay_span, trial);
              out = in.scenario->run_encoded(core::TrialSession::local(), in.encoded, {});
            }
            return out;
          },
          replay_args);
      tr.close(replay_span, "runner.run_campaign_replay", replay_start, 0, -1, items.size());
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (rw.results[i] != sw.results[i]) {
          ctx.ops.fail("trial " + std::to_string(next + i) + ": threads replay differs");
        }
      }
    }

    // Read the checkpoint back: every appended trial must match.
    if (batch_no % 16 == 0) {
      std::string error;
      const auto data = runner::load_checkpoint(checkpoint, &error);
      const runner::CheckpointData::Section* section = data ? data->section("probe") : nullptr;
      if (section == nullptr || section->trials.size() != items.size() - sw.errors.size()) {
        ctx.ops.fail("checkpoint " + checkpoint + " does not hold every trial: " + error);
      } else {
        for (const auto& t : section->trials) {
          std::string value;
          if (!runner::TrialCodec<std::string>::decode(t.result, &value) ||
              value != sw.results[t.index]) {
            ctx.ops.fail("checkpoint trial " + std::to_string(next + t.index) + " differs");
          }
        }
      }
    }
    ::unlink(checkpoint.c_str());

    const std::uint64_t verified_before = st.verified;
    std::vector<char> errored(items.size(), 0);
    for (const runner::TrialError& e : sw.errors) {
      errored[e.index] = 1;
      ctx.ops.fail("trial " + std::to_string(next + e.index) + ": " + e.what);
    }
    for (std::size_t i = 0; i < items.size(); ++i) {
      ++st.trials;
      ++ctx.ops.attempted;
      if (errored[i]) continue;
      if (!probe_result_ok(items[i], sw.results[i])) {
        ctx.ops.fail("trial " + std::to_string(next + i) + ": result fails its checks");
        continue;
      }
      ++st.verified;
      all.add(sw.results[i]);
      if (samples.size() < kSampleCap && sampled(ctx.seed, next + i)) {
        samples.push_back({false, next + i, sw.results[i]});
      }
    }
    next += items.size();
    st.campaign_verified.push_back(st.verified - verified_before);
    st.campaign_samples_end.push_back(st.trial_ms.size());

    for (std::size_t r = 0; r < kProbeRequests; ++r, ++next_request) {
      const ProbeInput in = probe_input(ctx.seed, kRequestBase + next_request);
      ++ctx.ops.attempted;
      const auto q0 = Clock::now();
      std::string out;
      {
        ScopedSpan span(tr, in.dbound ? "core.dbound" : "core.probe", 0,
                        static_cast<std::int64_t>(kRequestBase + next_request));
        out = in.scenario->run_encoded(requests, in.encoded, {});
      }
      st.request_us.push_back(seconds_since(q0) * 1e6);
      if (!probe_result_ok(in, out)) {
        ctx.ops.fail("request " + std::to_string(next_request) + ": result fails its checks");
      } else if (samples.size() < kSampleCap && sampled(ctx.seed ^ 1, next_request)) {
        samples.push_back({true, next_request, out});
      }
    }
    ++batch_no;
  }
  check_samples<ProbeInput>(
      ctx, samples, [&](std::size_t i) { return probe_input(ctx.seed, i); }, replay_probe);
  ctx.notes.push_back("digest of all " + std::to_string(st.verified) +
                      " timed trial outputs: " + all.hex());
}

CountPass probe_counts(std::uint64_t seed, const std::string& out_dir) {
  constexpr std::size_t kTrials = 1024;
  std::vector<ProbeInput> items;
  for (std::size_t i = 0; i < kTrials; ++i) items.push_back(probe_input(seed, i));
  const std::string checkpoint = out_dir + "/probe-count.ckpt.jsonl";
  const auto sw = runner::run_campaign(
      "probe", items,
      [](const ProbeInput& in, const runner::TrialContext&) {
        return in.scenario->run_encoded(core::TrialSession::local(), in.encoded, {});
      },
      probe_args(checkpoint));
  ::unlink(checkpoint.c_str());
  CountPass out;
  double probes = 0.0, searches = 0.0, ineligible = 0.0;
  Digest d;
  for (std::size_t i = 0; i < kTrials; ++i) {
    d.add(sw.results[i]);
    ineligible += items[i].analytic_eligible ? 0.0 : 1.0;
    if (!items[i].dbound) continue;
    core::DBoundTrialResult r;
    if (runner::TrialCodec<core::DBoundTrialResult>::decode(sw.results[i], &r)) {
      probes += r.probes;
      searches += 1.0;
    }
  }
  out.exact["core.dbound_probes"] = searches > 0 ? probes / searches : 0.0;
  out.exact["probe.ineligible_share"] = ineligible / static_cast<double>(kTrials);
  out.exact["probe.errors"] = static_cast<double>(sw.errors.size());
  const runner::SweepStats& s = sw.stats;
  double busy_ms = 0.0;
  for (const runner::WorkerUtil& w : s.workers) busy_ms += w.busy_ms;
  const double trials = static_cast<double>(std::max<std::uint64_t>(s.dispatch.trials, 1));
  out.measured["runner.frames_per_trial"] = static_cast<double>(s.dispatch.frames) / trials;
  out.measured["runner.dispatch_us"] =
      std::max(0.0, s.wall_ms * static_cast<double>(s.workers.size()) - busy_ms) * 1e3 /
      static_cast<double>(kTrials);
  out.digest = d.hex();
  return out;
}

// -------------------------------------------------------------------- setup

int setup_probe(const std::string& workload, std::uint64_t seed, const std::string& out_dir) {
  // Registries every workload resolves before its first trial.
  core::register_builtin_scenarios();
  (void)service::campaign_benches();
  (void)device::all_devices();
  const auto ready = [] {
    std::fputs("ready\n", stdout);
    std::fflush(stdout);
  };
  if (workload == "capture") {
    const std::vector<CaptureInput> items = {capture_input(seed, 0), capture_input(seed, 1)};
    std::atomic<bool> said{false};
    runner::run_campaign(
        "setup", items,
        [&](const CaptureInput& in, const runner::TrialContext&) {
          if (!said.exchange(true)) ready();
          Tracer off;
          return run_capture(in, off, 0, 0);
        },
        capture_args());
    return 0;
  }
  if (workload == "probe") {
    // Shards inherit stdout: the first shard to start a trial reports.
    const std::vector<ProbeInput> items = {probe_input(seed, 0), probe_input(seed, 1)};
    const std::string checkpoint = out_dir + "/setup-" + std::to_string(::getpid()) + ".ckpt";
    runner::run_campaign(
        "setup", items,
        [&](const ProbeInput& in, const runner::TrialContext& tc) {
          if (tc.index == 0) ready();
          return in.scenario->run_encoded(core::TrialSession::local(), in.encoded, {});
        },
        probe_args(checkpoint));
    ::unlink(checkpoint.c_str());
    return 0;
  }
  if (workload == "service") return service_setup_probe(seed, out_dir);
  return 2;
}

}  // namespace perfbench
