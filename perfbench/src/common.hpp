// Shared pieces of the benchmark program: clocks, the percentile rule,
// the in-memory span recorder with its self-time arithmetic, the result
// line, and the machine fingerprint.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile (q in [0,1]) of unsorted samples: the
/// smallest sample with at least q of all samples at or below it.
/// Returns 0 for an empty input.
double percentile(std::vector<double> samples, double q);

/// 50th percentile by the same nearest-rank rule.
inline double median(std::vector<double> samples) { return percentile(std::move(samples), 0.5); }

/// Run-level figures taken as medians over windows of consecutive
/// campaigns, each window holding at least `min_samples` trial samples,
/// so a burst of contention on a shared machine moves a minority of
/// windows instead of the whole figure.
struct Windowed {
  double trials_per_s = 0.0;  ///< median of window verified trials / window wall
  double p50_ms = 0.0;        ///< median of window sample p50 (samples' unit)
  double p99_ms = 0.0;        ///< median of window sample p99 (samples' unit)
  std::size_t windows = 0;
};

/// `samples_end[c]` is the end of campaign c's samples in `samples_ms`;
/// `wall_s[c]` and `verified[c]` its wall time and verified trials.
/// Trailing campaigns that do not fill a window join the last one.
Windowed windowed(const std::vector<double>& samples_ms,
                  const std::vector<std::size_t>& samples_end, const std::vector<double>& wall_s,
                  const std::vector<std::size_t>& verified, std::size_t min_samples);

/// FNV-1a 64-bit running digest of simulated outputs.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::string_view s) {
    for (const unsigned char c : s) {
      h ^= c;
      h *= 0x100000001b3ULL;
    }
    h ^= 0xff;  // record separator, so "ab"+"c" != "a"+"bc"
    h *= 0x100000001b3ULL;
  }
  [[nodiscard]] std::string hex() const;
};

// ------------------------------------------------------------- spans

/// One recorded span. Times are steady-clock nanoseconds; `parent` is
/// 0 for a root span; `trial` is the input index the span served, or
/// -1 when the span is not tied to one trial.
struct Span {
  std::string name;  ///< "<layer>.<call>", e.g. "core.capture"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::int64_t trial = -1;
  std::uint64_t calls = 1;  ///< calls the span covers (a timed block of N calls)
};

/// In-memory span store. Disabled tracers record nothing and hand out
/// id 0, so call sites need no branches of their own.
class Tracer {
 public:
  /// Set before any thread records into this tracer.
  void enable(bool on) { enabled_ = on; }

  /// Open a span; returns its id (0 when disabled).
  std::uint64_t open() { return enabled_ ? next_id_.fetch_add(1) : 0; }
  /// Record a finished span.
  void close(std::uint64_t id, const char* name, std::int64_t start_ns, std::uint64_t parent,
             std::int64_t trial, std::uint64_t calls = 1);

  [[nodiscard]] std::vector<Span> spans() const;

 private:
  bool enabled_ = false;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span around one call.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const char* name, std::uint64_t parent = 0, std::int64_t trial = -1)
      : t_(t), name_(name), parent_(parent), trial_(trial), id_(t.open()),
        start_(id_ != 0 ? now_ns() : 0) {}
  ~ScopedSpan() {
    if (id_ != 0) t_.close(id_, name_, start_, parent_, trial_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& t_;
  const char* name_;
  std::uint64_t parent_;
  std::int64_t trial_;
  std::uint64_t id_;
  std::int64_t start_;
};

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers (children running
/// in parallel on several workers are counted once).
std::map<std::uint64_t, std::int64_t> self_times_ns(const std::vector<Span>& spans);

struct LayerTotals {
  double self_ms = 0.0;
  std::uint64_t spans = 0;
};

/// Self time and span counts summed per layer (the name's prefix
/// before the first '.').
std::map<std::string, LayerTotals> layer_totals(const std::vector<Span>& spans);

/// JSON-lines dump of spans (one object per line).
std::string spans_jsonl(const std::vector<Span>& spans);

// ------------------------------------------------------------- results

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Ordered metric list printed as the result line's "metrics" object.
class MetricSet {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] std::string json() const;

 private:
  std::vector<Metric> metrics_;
};

/// Operation accounting of one run: every trial, campaign or request the
/// workload issued and every one whose output failed a check.
struct Ops {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure descriptions

  void fail(std::string what);
};

/// Format a double with all its digits (shortest round trip).
std::string num(double v);

/// Escape `s` into a JSON string body.
std::string json_escape(std::string_view s);

// ------------------------------------------------------------- machine

/// CPU model, nproc, governor, compiler, build type, commit and seed as
/// one JSON object.
std::string fingerprint_json(std::uint64_t seed, const std::string& commit);

/// Peak resident set of this process, MiB.
double peak_rss_mb();

/// Thread stacks currently mapped in this process: mappings of exactly
/// the default pthread stack size. Counts live threads and threads that
/// exited but were never joined (their stacks stay reserved until join),
/// plus glibc's small cache of reusable stacks.
std::size_t mapped_thread_stacks();

/// Write `body` to `path`; false on I/O error.
bool write_text(const std::string& path, const std::string& body);

}  // namespace perfbench
