// `service` workload: campaignd's CampaignDaemon behind HttpServer on an
// ephemeral loopback port, driven by one client over real sockets.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <thread>

#include "inputs.hpp"
#include "obs/metrics.hpp"
#include "runner/bench_cli.hpp"
#include "service/benches.hpp"
#include "service/daemon.hpp"
#include "service/http.hpp"
#include "service/index.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace animus;

constexpr std::size_t kInitialIndex = 40;
constexpr double kDoneTimeoutS = 60.0;
/// The client submits on a fixed 40 ms schedule (immediately when it is
/// behind), so the index size and the number of connections at the end
/// of an episode depend on its length, not on how fast the machine is.
constexpr double kSlotS = 0.04;
/// A run is split into episodes of about this length, each on a fresh
/// stack and a fresh copy of the seeded index, so a longer run repeats
/// the same index growth instead of growing a larger index.
constexpr double kEpisodeS = 10.0;

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Write the seeded starting index of the service workload to `path`.
bool write_initial_index(std::uint64_t seed, const std::string& path) {
  ::unlink(path.c_str());
  service::ManifestIndex index(path);
  for (const service::CampaignRecord& rec : initial_index(seed, kInitialIndex)) {
    if (!index.append(rec)) return false;
  }
  return true;
}

struct Reply {
  int status = 0;  ///< 0 = transport failure
  std::string body;
};

/// One request on its own connection (the server answers
/// Connection: close, so the reply ends at EOF).
Reply http(int port, const char* method, const std::string& path, const std::string& body = "") {
  Reply reply;
  const int fd = connect_loopback(port);
  if (fd < 0) return reply;
  std::string req = std::string(method) + " " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  if (!body.empty()) {
    req += "Content-Type: application/json\r\nContent-Length: " + std::to_string(body.size()) +
           "\r\n";
  }
  req += "\r\n" + body;
  std::string raw;
  if (send_all(fd, req)) {
    char buf[16384];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      raw.append(buf, static_cast<std::size_t>(n));
    }
  }
  ::close(fd);
  const auto sp = raw.find(' ');
  const auto head_end = raw.find("\r\n\r\n");
  if (sp == std::string::npos || head_end == std::string::npos) return reply;
  reply.status = std::atoi(raw.c_str() + sp + 1);
  reply.body = raw.substr(head_end + 4);
  return reply;
}

/// Value of a flat `"key":"value"` or `"key":number` JSON field.
std::string field(const std::string& json, const std::string& key) {
  const std::string pat = "\"" + key + "\":";
  const auto at = json.find(pat);
  if (at == std::string::npos) return "";
  auto p = at + pat.size();
  if (p < json.size() && json[p] == '"') {
    const auto end = json.find('"', p + 1);
    return end == std::string::npos ? "" : json.substr(p + 1, end - p - 1);
  }
  const auto end = json.find_first_of(",}", p);
  return json.substr(p, end == std::string::npos ? std::string::npos : end - p);
}

/// The client's /events connection, read on the client's own thread
/// while it waits for a campaign: counts frames per campaign id and
/// records when each campaign's final frame arrives. Frames that arrive
/// during the read mix wait in the socket until the next wait.
class SseListener {
 public:
  struct Campaign {
    std::size_t frames = 0;
    bool done = false;
    std::string status;
    std::size_t trials = 0;
    std::size_t errors = 0;
    Clock::time_point at{};
  };

  SseListener() = default;
  SseListener(const SseListener&) = delete;
  SseListener& operator=(const SseListener&) = delete;
  ~SseListener() { stop(); }

  bool start(int port, service::SseHub& hub) {
    const std::size_t subscribers = hub.subscriber_count();
    fd_ = connect_loopback(port);
    if (fd_ < 0 || !send_all(fd_, "GET /events HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n")) return false;
    // The server writes its headers before it subscribes; wait until the
    // hub holds this connection so no campaign frame can be missed.
    const auto until = Clock::now() + std::chrono::seconds(10);
    while (hub.subscriber_count() <= subscribers && Clock::now() < until) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return hub.subscriber_count() > subscribers;
  }

  void stop() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  /// Read frames until campaign `id` reports done or error (nullopt on
  /// timeout or a closed stream).
  std::optional<Campaign> wait_done(const std::string& id, double timeout_s) {
    const auto until = Clock::now() + std::chrono::duration<double>(timeout_s);
    while (!campaigns_[id].done) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(until - Clock::now());
      if (left.count() <= 0) return std::nullopt;
      pollfd p{fd_, POLLIN, 0};
      const int ready = ::poll(&p, 1, static_cast<int>(left.count()));
      if (ready < 0 && errno == EINTR) continue;
      if (ready <= 0) return std::nullopt;
      char chunk[16384];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return std::nullopt;
      buf_.append(chunk, static_cast<std::size_t>(n));
      std::size_t end;
      while ((end = buf_.find("\n\n")) != std::string::npos) {
        on_frame(buf_.substr(0, end));
        buf_.erase(0, end + 2);
      }
    }
    return campaigns_[id];
  }

  [[nodiscard]] std::size_t frames(const std::string& id) const {
    const auto it = campaigns_.find(id);
    return it == campaigns_.end() ? 0 : it->second.frames;
  }

 private:
  void on_frame(const std::string& frame) {
    const auto ev = frame.find("event: ");
    const auto data = frame.find("data: ");
    if (ev == std::string::npos || data == std::string::npos) return;  // headers, comments
    const std::string event = frame.substr(ev + 7, frame.find('\n', ev) - ev - 7);
    const std::string json = frame.substr(data + 6);
    const std::string id = field(json, "id");
    if (id.empty()) return;
    Campaign& c = campaigns_[id];
    ++c.frames;
    if (event != "campaign") return;
    const std::string status = field(json, "status");
    if (status == "done" || status == "error") {
      c.done = true;
      c.status = status;
      c.trials = static_cast<std::size_t>(std::atoll(field(json, "trials").c_str()));
      c.errors = static_cast<std::size_t>(std::atoll(field(json, "errors").c_str()));
      c.at = Clock::now();
    }
  }

  int fd_ = -1;
  std::string buf_;
  std::map<std::string, Campaign> campaigns_;
};

/// Daemon + server + listener on a fresh seeded index, torn down in
/// reverse order.
struct Stack {
  std::string index_path;
  std::unique_ptr<service::CampaignDaemon> daemon;
  std::unique_ptr<service::HttpServer> server;
  SseListener events;

  bool start(std::uint64_t seed, const std::string& dir, bool listen) {
    ::mkdir(dir.c_str(), 0755);
    index_path = dir + "/index.jsonl";
    if (!write_initial_index(seed, index_path)) return false;
    service::CampaignDaemon::Options opts;
    opts.index_path = index_path;
    daemon = std::make_unique<service::CampaignDaemon>(opts);
    daemon->start();
    server = std::make_unique<service::HttpServer>(
        [d = daemon.get()](const service::HttpRequest& r) { return d->handle(r); },
        &daemon->hub());
    if (!server->start(0)) return false;
    return !listen || events.start(server->port(), daemon->hub());
  }

  void stop() {
    events.stop();
    if (server) server->stop();
    if (daemon) daemon->stop();
  }

  ~Stack() { stop(); }
};

/// Merged per-trial latency histogram of every campaign label.
struct TrialHist {
  std::vector<double> bounds;
  std::vector<double> buckets;
};

TrialHist trial_hist() {
  TrialHist h;
  for (const obs::MetricPoint& p : obs::global_registry().snapshot().points) {
    if (p.name != "animus_trial_latency_ms") continue;
    if (h.bounds.empty()) {
      h.bounds = p.bounds;
      h.buckets.assign(p.buckets.size(), 0.0);
    }
    if (p.buckets.size() != h.buckets.size()) continue;
    for (std::size_t i = 0; i < p.buckets.size(); ++i) {
      h.buckets[i] += static_cast<double>(p.buckets[i]);
    }
  }
  return h;
}

/// Quantile of the bucket counts in `after` minus `before`, linearly
/// interpolated inside the bucket that holds it.
double hist_quantile(const TrialHist& before, const TrialHist& after, double q) {
  std::vector<double> c = after.buckets;
  for (std::size_t i = 0; i < c.size() && i < before.buckets.size(); ++i) c[i] -= before.buckets[i];
  double total = 0.0;
  for (const double v : c) total += v;
  if (total <= 0.0) return 0.0;
  const double target = q * total;
  double seen = 0.0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (seen + c[i] >= target && c[i] > 0.0) {
      const double lo = i == 0 ? 0.0 : after.bounds[i - 1];
      const double hi = i < after.bounds.size() ? after.bounds[i] : lo * 2.0;
      return lo + (hi - lo) * (target - seen) / c[i];
    }
    seen += c[i];
  }
  return after.bounds.empty() ? 0.0 : after.bounds.back();
}

struct ReadMix {
  std::vector<double> request_us;
  std::string record;  ///< body of GET /campaigns/<id>
};

/// The fixed read mix issued after every campaign.
void read_mix(Context* ctx, int port, const std::string& id, ReadMix& mix) {
  const std::string paths[] = {"/campaigns", "/campaigns/" + id, "/campaigns/" + id + "/profile",
                               "/campaigns/" + id + "/metrics", "/healthz"};
  for (const std::string& path : paths) {
    const auto t0 = Clock::now();
    Reply r = http(port, "GET", path);
    const double us = seconds_since(t0) * 1e6;
    mix.request_us.push_back(us);
    if (path == paths[1]) mix.record = std::move(r.body);
    if (ctx != nullptr) {
      ++ctx->ops.attempted;
      if (r.status != 200) ctx->ops.fail("GET " + path + " answered " + std::to_string(r.status));
    }
  }
}

double direct_list_us(service::CampaignDaemon& daemon) {
  service::HttpRequest req;
  req.method = "GET";
  req.path = "/campaigns";
  std::vector<double> us;
  for (int i = 0; i < 5; ++i) {
    const auto t0 = Clock::now();
    const service::HttpResponse res = daemon.handle(req);
    us.push_back(seconds_since(t0) * 1e6);
  }
  return median(us);
}

double index_load_ms(const std::string& path) {
  std::vector<double> ms;
  for (int i = 0; i < 5; ++i) {
    service::ManifestIndex index(path);
    const auto t0 = Clock::now();
    index.load();
    ms.push_back(seconds_since(t0) * 1e3);
  }
  return median(ms);
}

}  // namespace


void service_loop(Context& ctx, LoopStats& st, std::map<std::string, double>* layer) {
  const std::string dir = ctx.out_dir + "/service-" + std::to_string(::getpid());
  const auto episodes =
      static_cast<std::size_t>(std::max(1.0, std::round(ctx.seconds / kEpisodeS)));
  const auto episode_len = std::chrono::duration<double>(ctx.seconds / static_cast<double>(episodes));
  struct Sampled {
    Submission sub;
    std::string record;
  };
  std::vector<Sampled> sampled;
  std::vector<double> submit_us;
  std::map<std::string, std::vector<double>> by_bench;  // campaign ms per bench
  std::vector<std::vector<double>> by_path(5);          // request us per read-mix path
  Digest all;
  const TrialHist before = trial_hist();
  std::size_t i = 0, late = 0, final_index = kInitialIndex;
  bool stalled = false;
  for (std::size_t e = 0; e < episodes && !stalled; ++e) {
    Stack stack;
    if (!stack.start(ctx.seed, dir, true)) {
      ctx.ops.fail("service stack failed to start");
      return;
    }
    const int port = stack.server->port();
    const auto start = Clock::now();
    std::size_t n = 0;  // submissions in this episode
    for (;; ++n, ++i) {
      const auto slot = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(kSlotS * static_cast<double>(n)));
      if (slot - start >= episode_len) break;
      if (Clock::now() > slot + std::chrono::milliseconds(1)) ++late;
      std::this_thread::sleep_until(slot);
      const Submission sub = service_submission(ctx.seed, i);
      Tracer& tr = ctx.trace && i % 2 == 1 ? ctx.tracer : ctx.off;
      ++ctx.ops.attempted;
      const auto t0 = Clock::now();
      std::string id;
      {
        ScopedSpan span(tr, "service.submit", 0, static_cast<std::int64_t>(i));
        const Reply r = http(port, "POST", "/campaigns", sub.body());
        id = field(r.body, "id");
        if (r.status != 202 || id.empty()) {
          ctx.ops.fail("POST /campaigns answered " + std::to_string(r.status));
          continue;
        }
      }
      submit_us.push_back(seconds_since(t0) * 1e6);
      std::optional<SseListener::Campaign> done;
      {
        ScopedSpan span(tr, "service.wait_done", 0, static_cast<std::int64_t>(i));
        done = stack.events.wait_done(id, kDoneTimeoutS);
      }
      if (!done) {
        ctx.ops.fail("campaign " + id + " (" + sub.bench + ") never reported done");
        stalled = true;
        break;
      }
      st.campaign_ms.push_back(std::chrono::duration<double, std::milli>(done->at - t0).count());
      st.campaign_s += st.campaign_ms.back() / 1e3;
      by_bench[sub.bench].push_back(st.campaign_ms.back());
      st.trials += done->trials;
      if (done->status != "done" || done->errors != 0) {
        ctx.ops.fail("campaign " + id + " finished with status " + done->status);
      } else {
        st.verified += done->trials;
      }
      ReadMix mix;
      const auto m0 = Clock::now();
      {
        ScopedSpan span(tr, "service.read_mix", 0, static_cast<std::int64_t>(i));
        read_mix(&ctx, port, id, mix);
      }
      (&tr == &ctx.off ? st.plain_us_per_trial : st.traced_us_per_trial)
          .push_back(seconds_since(m0) * 1e6);
      st.request_us.insert(st.request_us.end(), mix.request_us.begin(), mix.request_us.end());
      for (std::size_t k = 0; k < mix.request_us.size() && k < by_path.size(); ++k) {
        by_path[k].push_back(mix.request_us[k]);
      }
      all.add(field(mix.record, "csv"));
      if (i == 0 ||
          (sampled.size() < 6 && sim::Rng{ctx.seed}.fork("sample").fork(i).uniform01() < 0.1)) {
        sampled.push_back({sub, mix.record});
      }
    }
    final_index = kInitialIndex + n;
    if (layer != nullptr && e + 1 == episodes) {
      (*layer)["service.list_us"] = direct_list_us(*stack.daemon);
      (*layer)["service.index_load_ms"] = index_load_ms(stack.index_path);
    }
    stack.stop();
    ::unlink(stack.index_path.c_str());
  }
  ::rmdir(dir.c_str());
  const TrialHist after = trial_hist();
  // The daemon's sweeps feed every SweepStats sample into this histogram.
  st.trial_p50_ms = hist_quantile(before, after, 0.5);
  st.trial_p99_ms = hist_quantile(before, after, 0.99);
  if (layer != nullptr) (*layer)["service.submit_us"] = median(submit_us);

  // Output check: sampled CSVs against the direct registry run.
  if (ctx.corrupt_one && !sampled.empty()) {
    std::string& rec = sampled.front().record;
    const auto at = rec.find("\"csv\":\"");
    if (at != std::string::npos) rec[at + 7] = rec[at + 7] == 'X' ? 'Y' : 'X';
  }
  for (const Sampled& s : sampled) {
    const auto rec = service::CampaignRecord::parse(
        s.record.substr(0, s.record.find_last_not_of('\n') + 1));
    const service::CampaignBench* bench = service::find_campaign_bench(s.sub.bench);
    runner::BenchArgs args;
    args.csv = true;
    args.run.root_seed = s.sub.seed;
    args.run.jobs = 2;
    args.tier = "auto";
    if (!rec || bench == nullptr || rec->csv != bench->run(args).table.to_csv()) {
      ctx.ops.fail(s.sub.bench + " seed " + std::to_string(s.sub.seed) +
                   ": daemon CSV differs from the direct run");
    }
  }
  ctx.notes.push_back("output check: " + std::to_string(sampled.size()) +
                      " sampled campaign CSVs compared with direct registry runs");
  std::string per_bench = "campaign p50 ms by bench:";
  for (const auto& [bench, ms] : by_bench) per_bench += " " + bench + "=" + num(median(ms));
  ctx.notes.push_back(per_bench);
  std::string per_path = "request p50/p90 us by path (list, record, profile, metrics, healthz):";
  for (const auto& us : by_path) per_path += " " + num(median(us)) + "/" + num(percentile(us, 0.9));
  ctx.notes.push_back(per_path);
  ctx.notes.push_back("digest of all " + std::to_string(i) + " campaign CSVs: " + all.hex() + "; " +
                      std::to_string(episodes) + " episode(s), final index " +
                      std::to_string(final_index) + " records; " + std::to_string(late) +
                      " submissions started late");
}

CountPass service_counts(std::uint64_t seed, const std::string& out_dir) {
  constexpr std::size_t kCampaigns = 15;  // one full block of the submission mix
  CountPass out;
  Stack stack;
  const std::string dir = out_dir + "/service-count-" + std::to_string(::getpid());
  if (!stack.start(seed, dir, true)) {
    out.exact["service.start_failed"] = 1.0;
    return out;
  }
  const int port = stack.server->port();
  std::vector<double> submit_us;
  double frames = 0.0;
  Digest d;
  for (std::size_t i = 0; i < kCampaigns; ++i) {
    const Submission sub = service_submission(seed, i);
    const auto t0 = Clock::now();
    const Reply r = http(port, "POST", "/campaigns", sub.body());
    submit_us.push_back(seconds_since(t0) * 1e6);
    const std::string id = field(r.body, "id");
    const auto done = stack.events.wait_done(id, kDoneTimeoutS);
    if (!done) {
      out.exact["service.timeouts"] += 1.0;
      continue;
    }
    ReadMix mix;
    read_mix(nullptr, port, id, mix);
    d.add(field(mix.record, "csv"));
    frames += static_cast<double>(stack.events.frames(id));
  }
  // Let finished connection threads exit before counting stacks.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  out.exact["service.sse_frames_per_campaign"] = frames / static_cast<double>(kCampaigns);
  out.exact["service.threads_end"] = static_cast<double>(mapped_thread_stacks());
  out.measured["service.submit_us"] = median(submit_us);
  out.measured["service.list_us"] = direct_list_us(*stack.daemon);
  out.measured["service.index_load_ms"] = index_load_ms(stack.index_path);
  out.digest = d.hex();
  stack.stop();
  ::unlink(stack.index_path.c_str());
  ::rmdir(dir.c_str());
  return out;
}

int service_setup_probe(std::uint64_t seed, const std::string& out_dir) {
  Stack stack;
  const std::string dir = out_dir + "/service-setup-" + std::to_string(::getpid());
  if (!stack.start(seed, dir, false)) return 1;
  const Reply r = http(stack.server->port(), "POST", "/campaigns", service_submission(seed, 0).body());
  if (r.status != 202) return 1;
  std::fputs("ready\n", stdout);
  std::fflush(stdout);
  stack.stop();
  ::unlink(stack.index_path.c_str());
  ::rmdir(dir.c_str());
  return 0;
}

}  // namespace perfbench
