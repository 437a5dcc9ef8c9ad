#include "common.hpp"

#include <pthread.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <unordered_map>

namespace perfbench {

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  if (rank < 1) rank = 1;
  if (rank > samples.size()) rank = samples.size();
  return samples[rank - 1];
}

Windowed windowed(const std::vector<double>& samples_ms,
                  const std::vector<std::size_t>& samples_end, const std::vector<double>& wall_s,
                  const std::vector<std::size_t>& verified, std::size_t min_samples) {
  // Campaign index ranges [first, last) of each window.
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  std::size_t first = 0, begin = 0;
  for (std::size_t c = 0; c < samples_end.size(); ++c) {
    if (samples_end[c] - begin < min_samples) continue;
    ranges.emplace_back(first, c + 1);
    first = c + 1;
    begin = samples_end[c];
  }
  if (first < samples_end.size()) {
    if (ranges.empty()) {
      ranges.emplace_back(first, samples_end.size());
    } else {
      ranges.back().second = samples_end.size();
    }
  }
  std::vector<double> rate, p50, p99;
  for (const auto& [lo, hi] : ranges) {
    double wall = 0.0, ok = 0.0;
    for (std::size_t c = lo; c < hi; ++c) {
      wall += wall_s[c];
      ok += static_cast<double>(verified[c]);
    }
    const std::size_t from = lo == 0 ? 0 : samples_end[lo - 1];
    const std::vector<double> w(samples_ms.begin() + static_cast<std::ptrdiff_t>(from),
                                samples_ms.begin() + static_cast<std::ptrdiff_t>(samples_end[hi - 1]));
    rate.push_back(wall > 0.0 ? ok / wall : 0.0);
    p50.push_back(percentile(w, 0.50));
    p99.push_back(percentile(w, 0.99));
  }
  Windowed out;
  out.trials_per_s = median(rate);
  out.p50_ms = median(p50);
  out.p99_ms = median(p99);
  out.windows = ranges.size();
  return out;
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

void Tracer::close(std::uint64_t id, const char* name, std::int64_t start_ns,
                   std::uint64_t parent, std::int64_t trial, std::uint64_t calls) {
  Span s;
  s.name = name;
  s.start_ns = start_ns;
  s.end_ns = now_ns();
  s.id = id;
  s.parent = parent;
  s.trial = trial;
  s.calls = calls;
  std::lock_guard<std::mutex> lock{mu_};
  spans_.push_back(std::move(s));
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock{mu_};
  return spans_;
}

std::map<std::uint64_t, std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::uint64_t, std::int64_t> out;
  for (const Span& s : spans) {
    std::int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::int64_t cur_lo = 0, cur_hi = 0;
      bool open = false;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_ns);
        hi = std::min(hi, s.end_ns);
        if (hi <= lo) continue;
        if (open && lo <= cur_hi) {
          cur_hi = std::max(cur_hi, hi);
          continue;
        }
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
      if (open) covered += cur_hi - cur_lo;
    }
    out[s.id] = (s.end_ns - s.start_ns) - covered;
  }
  return out;
}

std::map<std::string, LayerTotals> layer_totals(const std::vector<Span>& spans) {
  const auto self = self_times_ns(spans);
  std::map<std::string, LayerTotals> out;
  for (const Span& s : spans) {
    const std::string layer = s.name.substr(0, s.name.find('.'));
    LayerTotals& t = out[layer];
    t.self_ms += static_cast<double>(self.at(s.id)) / 1e6;
    t.spans += 1;
  }
  return out;
}

std::string spans_jsonl(const std::vector<Span>& spans) {
  std::string out;
  const auto self = self_times_ns(spans);
  for (const Span& s : spans) {
    out += "{\"name\":\"" + json_escape(s.name) + "\",\"start_ns\":" + std::to_string(s.start_ns) +
           ",\"end_ns\":" + std::to_string(s.end_ns) + ",\"id\":" + std::to_string(s.id) +
           ",\"parent\":" + std::to_string(s.parent) + ",\"trial\":" + std::to_string(s.trial) +
           ",\"calls\":" + std::to_string(s.calls) +
           ",\"self_ns\":" + std::to_string(self.at(s.id)) + "}\n";
  }
  return out;
}

void MetricSet::set(const std::string& name, double value, const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

std::string MetricSet::json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics_[i].name + "\": {\"value\": " + num(metrics_[i].value) +
           ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  return out + "}";
}

void Ops::fail(std::string what) {
  ++failed;
  if (failures.size() < 8) failures.push_back(std::move(what));
}

std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

std::string first_line_of(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

}  // namespace

std::string fingerprint_json(std::uint64_t seed, const std::string& commit) {
  std::string governor = first_line_of("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor");
  if (governor.empty()) governor = "unreadable";
  std::string out = "{";
  out += "\"cpu\":\"" + json_escape(cpu_model()) + "\"";
  out += ",\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  out += ",\"governor\":\"" + json_escape(governor) + "\"";
  out += ",\"compiler\":\"" + json_escape(PERFBENCH_COMPILER) + "\"";
  out += ",\"build_type\":\"" + json_escape(PERFBENCH_BUILD_TYPE) + "\"";
  out += ",\"commit\":\"" + json_escape(commit) + "\"";
  out += ",\"seed\":" + std::to_string(seed);
  return out + "}";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::size_t mapped_thread_stacks() {
  pthread_attr_t attr;
  pthread_attr_init(&attr);
  std::size_t stack = 0;
  pthread_attr_getstacksize(&attr, &stack);
  pthread_attr_destroy(&attr);
  std::ifstream in("/proc/self/maps");
  std::string line;
  std::size_t n = 0;
  while (std::getline(in, line)) {
    unsigned long long lo = 0, hi = 0;
    if (std::sscanf(line.c_str(), "%llx-%llx", &lo, &hi) != 2) continue;
    // glibc maps guard + stack as one region, then protects the guard:
    // the usable part shows as its own mapping of `stack - guard` bytes.
    const unsigned long long size = hi - lo;
    const unsigned long long page = static_cast<unsigned long long>(sysconf(_SC_PAGESIZE));
    if (size == stack || size == stack - page) ++n;
  }
  return n;
}

bool write_text(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool wrote = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return std::fclose(f) == 0 && wrote;
}

}  // namespace perfbench
