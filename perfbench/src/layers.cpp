// Layer timing suite: each metric times calls into one layer's public
// functions, in blocks, on inputs generated from the workload seed. A
// block is one span (`calls` = calls it covers); the metric is the
// median per-call time over the blocks.
#include <unistd.h>

#include <functional>

#include "core/trial_fields.hpp"
#include "core/trial_session.hpp"
#include "device/registry.hpp"
#include "inputs.hpp"
#include "ipc/transaction_log.hpp"
#include "metrics/table.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "runner/checkpoint.hpp"
#include "runner/field_codec.hpp"
#include "server/world.hpp"
#include "service/daemon.hpp"
#include "service/http.hpp"
#include "sim/event_loop.hpp"
#include "sim/rng.hpp"
#include "ui/interpolator.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace animus;

constexpr int kBlocks = 7;

/// Median over kBlocks of (block wall / calls), in nanoseconds. `block`
/// runs a batch of calls and returns how many it made.
double per_call_ns(Tracer& tr, const char* span, const std::function<std::size_t()>& block) {
  std::vector<double> ns;
  for (int b = 0; b < kBlocks; ++b) {
    const std::uint64_t id = tr.open();
    const std::int64_t t0 = now_ns();
    const std::size_t calls = block();
    const std::int64_t t1 = now_ns();
    if (id != 0) tr.close(id, span, t0, 0, -1, calls);
    if (calls > 0) ns.push_back(static_cast<double>(t1 - t0) / static_cast<double>(calls));
  }
  return median(ns);
}

// ---- sim: a bare event loop in the capture trial's shape

struct Hold {
  sim::EventLoop loop;
  sim::Rng rng{7};
  double cancel_ratio = 0.0;
  sim::EventLoop::EventId pending_cancel{};
};

void fire(Hold* h) {
  h->loop.schedule_after(sim::us(h->rng.uniform_int(100, 20'000)), [h] { fire(h); });
  if (h->rng.uniform01() < h->cancel_ratio) {
    h->loop.cancel(h->pending_cancel);
    h->pending_cancel =
        h->loop.schedule_after(sim::us(h->rng.uniform_int(100, 20'000)), [h] { fire(h); });
  }
}

server::WorldConfig world_config(std::uint64_t seed) {
  server::WorldConfig wc;
  wc.profile = device::reference_device();
  wc.seed = seed;
  wc.trace_enabled = false;
  return wc;
}

}  // namespace

void layer_suite(std::uint64_t seed, const std::string& out_dir, const CountPass& capture,
                 Tracer& tr, Ops& ops, std::map<std::string, double>& out) {

  {  // sim.event_ns at the capture pass's max_pending and cancel ratio
    Hold h;
    const auto mp = capture.measured.find("sim.max_pending");
    const std::size_t pending =
        mp == capture.measured.end() ? 64 : std::max<std::size_t>(8, static_cast<std::size_t>(mp->second));
    const double events = capture.exact.at("sim.events_per_trial");
    h.cancel_ratio = events > 0 ? capture.exact.at("sim.cancels_per_trial") / events : 0.0;
    h.rng = sim::Rng{seed}.fork("layer.sim");
    for (std::size_t i = 0; i < pending; ++i) {
      h.loop.schedule_after(sim::us(h.rng.uniform_int(100, 20'000)), [hp = &h] { fire(hp); });
    }
    out["sim.event_ns"] = per_call_ns(tr, "sim.event_loop_step", [&] {
      constexpr std::size_t kSteps = 50'000;
      for (std::size_t i = 0; i < kSteps; ++i) h.loop.step();
      return kSteps;
    });
  }
  {  // sim.rng_normal_ns
    sim::Rng rng = sim::Rng{seed}.fork("layer.rng");
    volatile double sink = 0.0;
    out["sim.rng_normal_ns"] = per_call_ns(tr, "sim.rng_normal", [&] {
      constexpr std::size_t kCalls = 200'000;
      double acc = 0.0;
      for (std::size_t i = 0; i < kCalls; ++i) acc += rng.normal(10.0, 2.0);
      sink = sink + acc;
      return kCalls;
    });
  }
  {  // ipc.record_ns: a trial's worth (~640) of Binder records per ledger reset
    ipc::TransactionLog log;
    std::int64_t t = 0;
    out["ipc.record_ns"] = per_call_ns(tr, "ipc.record", [&] {
      constexpr std::size_t kCalls = 64'000;
      for (std::size_t i = 0; i < kCalls; ++i) {
        if (i % 640 == 0) log.reset();
        t += 500;
        log.record(server::kMalwareUid,
                   i % 2 == 0 ? ipc::MethodCode::kAddView : ipc::MethodCode::kRemoveView,
                   "android.view.IWindowManager", sim::us(t), sim::us(t + 800));
      }
      return kCalls;
    });
  }
  {  // server.add_remove_us: one overlay addView + removeView, landed
    server::World world(world_config(seed));
    world.server().grant_overlay_permission(server::kMalwareUid);
    std::size_t cycles = 0;
    out["server.add_remove_us"] = per_call_ns(tr, "server.add_remove", [&] {
      constexpr std::size_t kCalls = 300;
      world.reset_to_epoch(world_config(seed + cycles));
      world.server().grant_overlay_permission(server::kMalwareUid);
      for (std::size_t i = 0; i < kCalls; ++i) {
        server::OverlaySpec spec;
        spec.bounds = ui::Rect{90, 900, 900, 600};
        const server::ViewHandle h = world.server().add_view(server::kMalwareUid, std::move(spec));
        world.run_until(world.now() + sim::ms(8));
        world.server().remove_view(server::kMalwareUid, h);
        world.run_until(world.now() + sim::ms(8));
      }
      cycles += kCalls;
      return kCalls;
    }) / 1e3;
  }
  {  // ui.interp_ns: the alert interpolator at the 10 ms frame grid of a 360 ms animation
    const ui::Interpolator& f = ui::fast_out_slow_in();
    volatile double sink = 0.0;
    out["ui.interp_ns"] = per_call_ns(tr, "ui.interpolator_value", [&] {
      constexpr std::size_t kCalls = 100'000;
      double acc = 0.0;
      for (std::size_t i = 0; i < kCalls; ++i) acc += f.value(static_cast<double>(i % 37) / 36.0);
      sink = sink + acc;
      return kCalls;
    });
  }
  {  // input.tap_ns: inject_tap on a full-screen activity, run to lift-off
    std::size_t taps = 0;
    server::World world(world_config(seed));
    out["input.tap_ns"] = per_call_ns(tr, "input.inject_tap", [&] {
      constexpr std::size_t kCalls = 500;
      world.reset_to_epoch(world_config(seed + taps));
      ui::Window app;
      app.owner_uid = server::kBenignUid;
      app.type = ui::WindowType::kActivity;
      app.bounds = ui::Rect{0, 0, 1080, 2280};
      app.content = "testapp";
      app.on_touch = [&taps](sim::SimTime, ui::Point) { ++taps; };
      world.wms().add_window_now(std::move(app));
      for (std::size_t i = 0; i < kCalls; ++i) {
        world.input().inject_tap(ui::Point{540, static_cast<int>(900 + i % 600)});
        world.run_until(world.now() + sim::ms(150));
      }
      return kCalls;
    });
  }

  // core: TrialSession::run on the workloads' own inputs.
  core::TrialSession session;
  {
    std::size_t next = 0;
    const auto run_kind = [&](bool password) {
      return [&, password]() -> std::size_t {
        std::size_t ran = 0;
        while (ran < 16) {
          const CaptureInput in = capture_input(seed, next++);
          if (in.password != password) continue;
          if (password) {
            (void)session.run(in.pw);
          } else {
            (void)session.run(in.capture);
          }
          ++ran;
        }
        return ran;
      };
    };
    out["core.capture_us"] = per_call_ns(tr, "core.capture", run_kind(false)) / 1e3;
    next = 0;
    out["core.password_us"] = per_call_ns(tr, "core.password", run_kind(true)) / 1e3;
  }
  std::vector<core::OutcomeProbe> probe_results;
  {
    std::size_t next = 0;
    const auto run_kind = [&](bool dbound, std::size_t per_block) {
      return [&, dbound, per_block]() -> std::size_t {
        std::size_t ran = 0;
        while (ran < per_block) {
          const ProbeInput in = probe_input(seed, next++);
          if (in.dbound != dbound) continue;
          if (dbound) {
            (void)session.run(in.bound);
          } else {
            core::OutcomeProbe r = session.run(in.probe);
            if (probe_results.size() < 256) probe_results.push_back(r);
          }
          ++ran;
        }
        return ran;
      };
    };
    out["core.probe_us"] = per_call_ns(tr, "core.probe", run_kind(false, 128)) / 1e3;
    next = 0;
    out["core.dbound_us"] = per_call_ns(tr, "core.dbound", run_kind(true, 8)) / 1e3;
  }
  {  // core.epoch_reset_us: TrialSession::begin_epoch on a warm World
    std::uint64_t s = seed;
    (void)session.begin_epoch(world_config(s));
    out["core.epoch_reset_us"] = per_call_ns(tr, "core.epoch_reset", [&] {
      constexpr std::size_t kCalls = 200;
      for (std::size_t i = 0; i < kCalls; ++i) (void)session.begin_epoch(world_config(++s));
      return kCalls;
    }) / 1e3;
  }

  // runner: field codec and checkpoint appends on probe results.
  std::vector<std::string> encoded;
  for (const auto& r : probe_results) encoded.push_back(runner::TrialCodec<core::OutcomeProbe>::encode(r));
  {
    std::size_t bytes = 0;
    out["runner.encode_ns"] = per_call_ns(tr, "runner.encode", [&] {
      for (const auto& r : probe_results) bytes += runner::TrialCodec<core::OutcomeProbe>::encode(r).size();
      return probe_results.size();
    });
    core::OutcomeProbe back;
    std::size_t ok = 0;
    out["runner.decode_ns"] = per_call_ns(tr, "runner.decode", [&] {
      for (const auto& e : encoded) ok += runner::TrialCodec<core::OutcomeProbe>::decode(e, &back);
      return encoded.size();
    });
    if (ok != encoded.size() * kBlocks || bytes == 0) ops.fail("layer suite: field codec round trip failed");
  }
  {
    const std::string path = out_dir + "/layer-" + std::to_string(::getpid()) + ".ckpt.jsonl";
    runner::CheckpointHeader header;
    header.label = "layer";
    header.total = encoded.size();
    header.root_seed = seed;
    runner::CheckpointWriter writer(path, header, 64);
    std::size_t index = 0;
    out["runner.checkpoint_append_us"] = per_call_ns(tr, "runner.checkpoint_append", [&] {
      for (const auto& e : encoded) writer.append(index++ % encoded.size(), seed, e);
      return encoded.size();
    }) / 1e3;
    writer.close();
    ::unlink(path.c_str());
  }

  // obs: registry snapshot and the span profiler's cost on capture trials.
  out["obs.snapshot_us"] = per_call_ns(tr, "obs.snapshot", [&] {
    constexpr std::size_t kCalls = 50;
    for (std::size_t i = 0; i < kCalls; ++i) (void)obs::global_registry().snapshot();
    return kCalls;
  }) / 1e3;
  {
    const bool was_enabled = obs::span_profiler().enabled();
    std::vector<CaptureInput> inputs;
    for (std::size_t i = 0; inputs.size() < 8; ++i) {
      CaptureInput in = capture_input(seed, i);
      if (!in.password) inputs.push_back(std::move(in));
    }
    const auto block = [&](bool on) {
      if (on) {
        obs::span_profiler().enable();
      } else {
        obs::span_profiler().disable();
      }
      const auto t0 = Clock::now();
      for (const CaptureInput& in : inputs) (void)session.run(in.capture);
      return seconds_since(t0);
    };
    std::vector<double> ratio;
    for (int r = 0; r < 9; ++r) {
      const std::uint64_t id = tr.open();
      const std::int64_t t0 = now_ns();
      // Alternate which side runs first so drift cancels.
      const double a = r % 2 == 0 ? block(false) : 0.0;
      const double on = block(true);
      const double off = r % 2 == 0 ? a : block(false);
      if (id != 0) tr.close(id, "obs.profile_on_off", t0, 0, -1, 2 * inputs.size());
      ratio.push_back(on / off);
    }
    obs::span_profiler().reset();
    if (was_enabled) {
      obs::span_profiler().enable();
    } else {
      obs::span_profiler().disable();
    }
    out["obs.profile_overhead_pct"] = (median(ratio) - 1.0) * 100.0;
  }

  {  // service.parse_us: HTTP framing + submission validation of recorded requests
    const std::string post_body = service_submission(seed, 1).body();
    const std::vector<std::string> raws = {
        "GET /campaigns HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n",
        "GET /campaigns/c0042/profile HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n",
        "POST /campaigns HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n"
        "Content-Length: " + std::to_string(post_body.size()) + "\r\n\r\n" + post_body,
    };
    std::size_t parsed = 0;
    out["service.parse_us"] = per_call_ns(tr, "service.parse", [&] {
      constexpr std::size_t kRounds = 200;
      for (std::size_t i = 0; i < kRounds; ++i) {
        for (const std::string& raw : raws) {
          bool malformed = false;
          const auto req = service::HttpRequest::parse(raw, &malformed);
          if (req && req->method == "POST") {
            std::string error;
            parsed += service::CampaignSubmission::parse(req->body, &error).has_value();
          } else {
            parsed += req.has_value();
          }
        }
      }
      return kRounds * raws.size();
    }) / 1e3;
    if (parsed == 0) ops.fail("layer suite: recorded requests did not parse");
  }
  {  // metrics.table_us: a fig07-shaped result table and its CSV
    std::size_t bytes = 0;
    out["metrics.table_us"] = per_call_ns(tr, "metrics.table", [&] {
      constexpr std::size_t kCalls = 200;
      for (std::size_t c = 0; c < kCalls; ++c) {
        metrics::Table t({"D (ms)", "min", "Q1", "median", "Q3", "max", "mean", "paper mean"});
        for (int d = 50; d <= 200; d += 25) {
          std::vector<std::string> row{metrics::fmt("%d", d)};
          for (int k = 0; k < 7; ++k) row.push_back(metrics::fmt("%.1f", d * 0.4 + k + c * 1e-3));
          t.add_row(std::move(row));
        }
        bytes += t.to_csv().size();
      }
      return kCalls;
    }) / 1e3;
    if (bytes == 0) ops.fail("layer suite: empty table CSV");
  }
}

}  // namespace perfbench
