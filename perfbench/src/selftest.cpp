// Benchmark self-tests (perfbench --self-test):
//   - the input generators are deterministic per seed and differ across seeds;
//   - the percentile rule and the span self-time arithmetic give the
//     right answers on synthetic data;
//   - a short smoke run of each workload counts one deliberately
//     corrupted result as failed.

#include <cstdio>
#include <string>

#include "core/trial_fields.hpp"
#include "inputs.hpp"
#include "runner/field_codec.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace animus;

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

std::string capture_key(std::uint64_t seed, std::size_t i) {
  const CaptureInput in = capture_input(seed, i);
  return in.password ? "pw:" + runner::TrialCodec<core::PasswordTrialConfig>::encode(in.pw)
                     : "cap:" + runner::TrialCodec<core::CaptureTrialConfig>::encode(in.capture);
}

void generators() {
  bool same = true, differ = false, mixed_cap = false, mixed_pw = false;
  for (std::size_t i = 0; i < 64; ++i) {
    same &= capture_key(11, i) == capture_key(11, i);
    differ |= capture_key(11, i) != capture_key(12, i);
    const bool pw = capture_input(11, i).password;
    mixed_pw |= pw;
    mixed_cap |= !pw;
  }
  expect(same, "capture inputs repeat at the same seed");
  expect(differ, "capture inputs differ across seeds");
  expect(mixed_cap && mixed_pw, "capture inputs mix capture and password trials");

  same = true;
  differ = false;
  std::size_t dbound = 0, ineligible = 0;
  constexpr std::size_t kProbes = 2000;
  for (std::size_t i = 0; i < kProbes; ++i) {
    const ProbeInput a = probe_input(11, i);
    same &= a.encoded == probe_input(11, i).encoded;
    differ |= a.encoded != probe_input(12, i).encoded;
    dbound += a.dbound;
    ineligible += !a.dbound && !a.analytic_eligible;
  }
  expect(same, "probe inputs repeat at the same seed");
  expect(differ, "probe inputs differ across seeds");
  const double share = static_cast<double>(ineligible) / static_cast<double>(kProbes - dbound);
  expect(share > 0.09 && share < 0.16, "about 1 in 8 outcome probes is analytic-ineligible");

  same = true;
  differ = false;
  for (std::size_t i = 0; i < 64; ++i) {
    same &= service_submission(11, i).body() == service_submission(11, i).body();
    differ |= service_submission(11, i).body() != service_submission(12, i).body();
  }
  expect(same, "service submissions repeat at the same seed");
  expect(differ, "service submissions differ across seeds");
}

void arithmetic() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  expect(percentile(v, 0.50) == 50.0, "p50 of 1..100 is 50");
  expect(percentile(v, 0.99) == 99.0, "p99 of 1..100 is 99");
  expect(percentile(v, 0.90) == 90.0, "p90 of 1..100 is 90");
  expect(percentile(v, 1.0) == 100.0 && percentile(v, 0.0) == 1.0, "p0/p100 are the extremes");
  expect(percentile({7.0}, 0.99) == 7.0 && percentile({}, 0.5) == 0.0, "one and zero samples");
  expect(percentile({1, 2, 3, 4}, 0.5) == 2.0, "nearest rank: p50 of 1..4 is 2");

  // Campaigns of 600, 600, 600, 600 and 300 samples in windows of >= 1000:
  // [c0,c1] and [c2,c3], with the short tail c4 folded into the last.
  std::vector<double> samples;
  std::vector<std::size_t> ends, verified;
  const std::vector<double> wall(5, 1.0);
  for (const std::size_t n : {600, 600, 600, 600, 300}) {
    for (std::size_t i = 0; i < n; ++i) samples.push_back(ends.size() < 2 ? 1.0 : 3.0);
    ends.push_back(samples.size());
    verified.push_back(n);
  }
  const Windowed w = windowed(samples, ends, wall, verified, 1000);
  expect(w.windows == 2, "windowing folds a short tail into the last window");
  expect(w.trials_per_s == 500.0 && w.p50_ms == 1.0 && w.p99_ms == 1.0,
         "window figures are nearest-rank medians of per-window figures");

  // Parent [0,100] with overlapping children [10,30] and [20,50] and
  // one that runs past its end [90,120]: covered = 40 + 10.
  std::vector<Span> spans = {
      {"runner.run_campaign", 0, 100, 1, 0, -1, 1},
      {"core.capture", 10, 30, 2, 1, 0, 1},
      {"core.capture", 20, 50, 3, 1, 1, 1},
      {"runner.encode", 90, 120, 4, 1, 2, 1},
      {"core.probe", 40, 45, 5, 3, 1, 1},
  };
  const auto self = self_times_ns(spans);
  expect(self.at(1) == 50, "parent self time subtracts the union of its children");
  expect(self.at(2) == 20 && self.at(3) == 25 && self.at(4) == 30,
         "child self times subtract their own children only");
  const auto layers = layer_totals(spans);
  expect(layers.at("runner").spans == 2 && layers.at("core").spans == 3,
         "layer totals count spans per layer prefix");
  expect(layers.at("runner").self_ms * 1e6 == 80.0 && layers.at("core").self_ms * 1e6 == 50.0,
         "layer self time sums span self times");
}

void smoke(const std::string& exe, const std::string& out_dir) {
  for (const char* w : {"capture", "probe", "service"}) {
    const std::string cmd = exe + " --workload " + w +
                            " --seed 3 --seconds 1 --trace 0 --corrupt-one --out-dir " + out_dir +
                            " 2>/dev/null";
    std::FILE* p = ::popen(cmd.c_str(), "r");
    std::string out, last;
    char buf[4096];
    while (p != nullptr && std::fgets(buf, sizeof(buf), p) != nullptr) {
      out = buf;
      if (out.rfind("{", 0) == 0) last = out;
    }
    const int status = p != nullptr ? ::pclose(p) : -1;
    expect(status == 0 && last.find("\"correct\": false") != std::string::npos &&
               last.find("\"failed\": 1,") != std::string::npos,
           std::string("smoke run of ") + w + " counts one corrupted result as failed");
  }
}

}  // namespace

int self_test(const std::string& exe, const std::string& out_dir) {
  generators();
  arithmetic();
  smoke(exe, out_dir);
  std::printf("%d self-test failure(s)\n", failures);
  return failures;
}

}  // namespace perfbench
