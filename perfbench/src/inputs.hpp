// Seeded input generators. Every input is a pure function of
// (workload seed, index), so a run can draw as many as its time budget
// allows and the same seed always yields the same sequence.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/attack_analysis.hpp"
#include "core/report.hpp"
#include "service/index.hpp"

namespace animus::core {
struct AttackScenario;
}

namespace perfbench {

/// One `capture` workload trial: a Section VI-B capture trial or a
/// Section VI-C1 password trial.
struct CaptureInput {
  bool password = false;
  animus::core::CaptureTrialConfig capture;
  animus::core::PasswordTrialConfig pw;
};

/// Capture trials: 30-participant panel x 30 devices x D in
/// {50, 75, ..., 200} ms, 100 touches. One in five trials is a password
/// trial with a Table III length (4..12) instead.
CaptureInput capture_input(std::uint64_t seed, std::size_t index);

/// One `probe` workload trial: a Fig. 6 outcome probe or a Table II
/// D-bound search, both at tier=auto, as the encoded config the scenario
/// registry runs.
struct ProbeInput {
  bool dbound = false;
  bool analytic_eligible = true;  ///< deterministic and remove-before-add
  animus::core::OutcomeProbeConfig probe;
  animus::core::DBoundTrialConfig bound;
  const animus::core::AttackScenario* scenario = nullptr;
  std::string encoded;
};

/// Outcome probes (nine in ten) use D from 1 to 700 ms, a quarter of
/// them below 20 ms, across the 30 devices; one probe in eight is
/// ineligible for the analytic tier (add-before-remove or
/// non-deterministic). D-bound searches (one in ten) are deterministic.
ProbeInput probe_input(std::uint64_t seed, std::size_t index);

/// One `service` submission: a registry campaign name and its seed.
struct Submission {
  std::string bench;
  std::uint64_t seed = 0;
  [[nodiscard]] std::string body() const;  ///< POST /campaigns JSON
};

/// Mostly small `scenario:*` packs, fig07 one time in five: seeded
/// shuffles of fixed blocks of 15 submissions.
Submission service_submission(std::uint64_t seed, std::size_t index);

/// Finished-campaign records the service index starts with.
std::vector<animus::service::CampaignRecord> initial_index(std::uint64_t seed, std::size_t n);

}  // namespace perfbench
