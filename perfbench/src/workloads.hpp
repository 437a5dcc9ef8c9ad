// The three workloads, their fixed-size count passes and the layer
// timing suite. Every function here calls the library only through its
// public entry points and times those calls from outside.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// Everything one invocation accumulates.
struct Context {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test hook: corrupt one stored result before the output check,
  /// which must then count exactly one failed operation.
  bool corrupt_one = false;
  std::string out_dir;  ///< work files (checkpoints, index, spans)

  Tracer tracer;        ///< enabled only for traced batches
  Tracer off;           ///< never enabled: untraced batches record nothing
  Ops ops;
  MetricSet metrics;
  std::vector<std::string> notes;  ///< printed as "# ..." lines
};

/// Closed-loop samples shared by the workloads.
struct LoopStats {
  std::vector<double> trial_ms;     ///< SweepStats::samples_ms of every campaign
  std::vector<double> campaign_ms;  ///< wall of each campaign
  /// Per campaign: verified trials, and trial_ms.size() after it.
  std::vector<std::size_t> campaign_verified;
  std::vector<std::size_t> campaign_samples_end;
  std::vector<double> request_us;   ///< single-call round trips
  double campaign_s = 0.0;          ///< summed campaign wall
  std::uint64_t trials = 0;
  std::uint64_t verified = 0;       ///< trials whose output passed every check
  /// Trace runs alternate traced and untraced units of work (a campaign,
  /// or a service read mix); their per-trial (per-mix) wall in microseconds.
  std::vector<double> plain_us_per_trial;
  std::vector<double> traced_us_per_trial;
  /// Set when per-trial percentiles come from a histogram instead of
  /// trial_ms samples (the service workload), in milliseconds.
  double trial_p50_ms = -1.0;
  double trial_p99_ms = -1.0;
};

/// Exact counts of one fixed-size pass, plus the digest of its outputs.
/// `exact` must repeat bit for bit at the same seed; `measured` holds
/// pass-derived figures that are timing dependent.
struct CountPass {
  std::map<std::string, double> exact;
  std::map<std::string, double> measured;
  std::string digest;
};

// Workload loops: run for ctx.seconds, fill `st`, check outputs into ctx.ops.
void capture_loop(Context& ctx, LoopStats& st);
void probe_loop(Context& ctx, LoopStats& st);
void service_loop(Context& ctx, LoopStats& st, std::map<std::string, double>* layer);

// Fixed-size passes over the first inputs of each workload's sequence.
CountPass capture_counts(std::uint64_t seed);
CountPass probe_counts(std::uint64_t seed, const std::string& out_dir);
CountPass service_counts(std::uint64_t seed, const std::string& out_dir);

/// Time calls into each layer's public functions on inputs generated from
/// `seed`; adds every timing metric (name -> value) to `out`.
void layer_suite(std::uint64_t seed, const std::string& out_dir, const CountPass& capture,
                 Tracer& tracer, Ops& ops, std::map<std::string, double>& out);

/// The setup sequence of `workload` up to its first trial dispatch, run
/// in a fresh process; writes "ready" on stdout at that point.
int setup_probe(const std::string& workload, std::uint64_t seed, const std::string& out_dir);

/// The service half of setup_probe: daemon start, index load, server
/// start and the first accepted submission.
int service_setup_probe(std::uint64_t seed, const std::string& out_dir);

/// Benchmark self-tests; returns the number of failures.
int self_test(const std::string& exe, const std::string& out_dir);

}  // namespace perfbench
