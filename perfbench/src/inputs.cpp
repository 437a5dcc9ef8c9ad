#include "inputs.hpp"

#include <array>

#include "core/attack_scenario.hpp"
#include "core/trial_fields.hpp"
#include "device/registry.hpp"
#include "input/password.hpp"
#include "input/typist.hpp"
#include "metrics/table.hpp"
#include "runner/field_codec.hpp"
#include "sim/rng.hpp"
#include "victim/catalog.hpp"

namespace perfbench {
namespace {

using namespace animus;

const std::vector<input::TypistProfile>& panel() {
  static const std::vector<input::TypistProfile> p = input::participant_panel();
  return p;
}

std::size_t pick(sim::Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

}  // namespace

CaptureInput capture_input(std::uint64_t seed, std::size_t index) {
  static constexpr std::array<int, 7> kWindowsMs = {50, 75, 100, 125, 150, 175, 200};
  static constexpr std::array<std::size_t, 5> kLengths = {4, 6, 8, 10, 12};
  const auto devices = device::all_devices();
  sim::Rng rng = sim::Rng{seed}.fork("capture").fork(index);
  CaptureInput in;
  in.password = rng.uniform01() < 0.2;
  const std::size_t participant = pick(rng, panel().size());
  const std::size_t device = pick(rng, devices.size());
  if (in.password) {
    const auto apps = victim::table_iv_apps();
    in.pw.profile = devices[device];
    in.pw.app = apps[pick(rng, apps.size())].spec;
    in.pw.typist = panel()[participant];
    sim::Rng password_rng = rng.fork("password");
    in.pw.password = input::random_password(kLengths[pick(rng, kLengths.size())], password_rng);
    in.pw.seed = rng.next_u64();
  } else {
    in.capture.profile = devices[device];
    in.capture.typist = panel()[participant];
    in.capture.attacking_window = sim::ms(kWindowsMs[pick(rng, kWindowsMs.size())]);
    in.capture.touches = 100;
    in.capture.seed = rng.next_u64();
  }
  return in;
}

ProbeInput probe_input(std::uint64_t seed, std::size_t index) {
  const auto devices = device::all_devices();
  sim::Rng rng = sim::Rng{seed}.fork("probe").fork(index);
  ProbeInput in;
  in.dbound = rng.uniform01() < 0.1;
  const std::size_t device = pick(rng, devices.size());
  if (in.dbound) {
    in.bound.profile = devices[device];
    in.bound.seed = rng.next_u64();
    in.bound.deterministic = true;
    in.bound.tier = core::Tier::kAuto;
    in.scenario = &core::require_scenario("d-bound");
    in.encoded = runner::TrialCodec<core::DBoundTrialConfig>::encode(in.bound);
    return in;
  }
  in.probe.profile = devices[device];
  const bool small = rng.uniform01() < 0.25;
  in.probe.attacking_window = sim::ms(small ? rng.uniform_int(1, 19) : rng.uniform_int(1, 700));
  in.probe.seed = rng.next_u64();
  in.probe.tier = core::Tier::kAuto;
  if (rng.uniform01() < 0.125) {
    in.analytic_eligible = false;
    if (rng.uniform01() < 0.5) {
      in.probe.add_before_remove = true;
    } else {
      in.probe.deterministic = false;
    }
  }
  in.scenario = &core::require_scenario("outcome-probe");
  in.encoded = runner::TrialCodec<core::OutcomeProbeConfig>::encode(in.probe);
  return in;
}

std::string Submission::body() const {
  return "{\"bench\":\"" + bench + "\",\"seed\":" + std::to_string(seed) +
         ",\"jobs\":2,\"tier\":\"auto\"}";
}

Submission service_submission(std::uint64_t seed, std::size_t index) {
  // Fixed proportions, seeded order: each block of 15 holds the five
  // light packs once, capture-rate five times, d-bound twice and fig07
  // three times, shuffled. The light packs finish in about the time of
  // the daemon's thread handoffs; with a third of the campaigns below
  // capture-rate and a third above it, the median campaign falls mid-way
  // through capture-rate's campaigns and p90 mid-way through fig07's,
  // rather than on the edge between two kinds of campaign.
  static const std::vector<std::string> block = [] {
    std::vector<std::string> names(3, "fig07");
    for (const core::AttackScenario* s : core::scenario_registry()) {
      const std::size_t weight = s->name == "capture-rate" ? 5 : s->name == "d-bound" ? 2 : 1;
      names.insert(names.end(), weight, s->campaign_label);
    }
    return names;
  }();
  std::vector<std::string> order(block);
  sim::Rng shuffle = sim::Rng{seed}.fork("service.block").fork(index / order.size());
  for (std::size_t i = order.size(); i > 1; --i) std::swap(order[i - 1], order[pick(shuffle, i)]);
  Submission s;
  s.bench = order[index % order.size()];
  sim::Rng rng = sim::Rng{seed}.fork("service").fork(index);
  s.seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1'000'000'000));
  return s;
}

std::vector<service::CampaignRecord> initial_index(std::uint64_t seed, std::size_t n) {
  std::vector<service::CampaignRecord> out;
  for (std::size_t i = 0; i < n; ++i) {
    const Submission sub = service_submission(seed ^ 0x1dea5eedULL, i);
    sim::Rng rng = sim::Rng{seed}.fork("index").fork(i);
    service::CampaignRecord rec;
    char id[32];
    std::snprintf(id, sizeof(id), "c%04zu", i + 1);
    rec.id = id;
    rec.bench = sub.bench;
    rec.seed = sub.seed;
    rec.jobs = 2;
    rec.tier = "auto";
    rec.trials = static_cast<std::size_t>(rng.uniform_int(2, 210));
    rec.wall_ms = rng.uniform(1.0, 80.0);
    metrics::Table table({"trial", "value"});
    for (std::size_t r = 0; r < 8; ++r) {
      table.add_row({metrics::fmt("%zu", r), metrics::fmt("%.3f", rng.uniform01())});
    }
    rec.csv = table.to_csv();
    rec.status = "done";
    out.push_back(std::move(rec));
  }
  return out;
}

}  // namespace perfbench
