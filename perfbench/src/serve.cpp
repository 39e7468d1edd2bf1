// serve_http: an open loop of evenly spaced single-sample requests over
// loopback keep-alive HTTP, alternating the tiered digit model and the
// face model, against serving_demo's configuration (see serve_config)
// on a private kPoolThreads-thread pool.
//
// The generator is one thread with kConnections non-blocking
// connections. It never waits on an outstanding response before
// sending (requests pipeline on a connection), and it times every
// request from its intended send time, so a stall anywhere charges the
// wait of every request due during it.
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <span>
#include <stdexcept>

#include "man/artifact/plan_artifact.h"
#include "man/backend/kernel_backend.h"
#include "man/serve/http/http_client.h"
#include "man/serve/http/http_server.h"
#include "man/serve/inference_server.h"
#include "man/serve/thread_pool.h"
#include "workloads.h"

namespace perfbench {

namespace {

using man::engine::FixedNetwork;
using man::serve::InferenceServer;
using man::serve::ThreadPool;
using man::serve::http::HttpServer;

/// Offered load. At this rate nothing is shed and the ladder stays at
/// tier 0; per-request parse, wire, dispatch and wake-up cost more
/// than the compute, so the front end is what this workload measures.
constexpr double kRate = 3000.0;
constexpr int kConnections = 4;
/// Distinct seeded inputs per model; requests cycle through them.
constexpr std::size_t kPoolInputs = 256;
constexpr std::int64_t kDrainNs = 5'000'000'000;
constexpr int kLoadReps = 9;

constexpr int kDigit = 0;
constexpr int kFace = 1;
const char* const kModelKeys[2] = {"digit", "face"};

/// serving_demo's batching and admission settings, except the
/// queue-delay SLO: at serving_demo's 20 ms, a host stall of a few
/// milliseconds on a small VM inflates the server's delay estimate
/// enough to step down the QoS ladder and shed with 429, which this
/// non-overload workload would count as failed requests. At 1 s the
/// ladder stays at tier 0 and nothing is shed unless the server really
/// falls a second behind.
man::serve::ServeConfig serve_config(std::shared_ptr<ThreadPool> pool) {
  man::serve::ServeConfig config;
  config.max_batch = 32;
  config.max_wait = std::chrono::microseconds(300);
  config.workers = kPoolThreads;
  config.min_samples_per_worker = 1;
  config.pool = std::move(pool);
  config.queue_capacity = 256;
  config.queue_delay_slo = std::chrono::seconds(1);
  return config;
}

/// One running serving stack. Members are destroyed in reverse order:
/// the HTTP front end stops before the servers, which drain before the
/// pool joins.
struct Stack {
  std::shared_ptr<const FixedNetwork> face;
  std::shared_ptr<ThreadPool> pool;
  std::unique_ptr<InferenceServer> digit_server;
  std::unique_ptr<InferenceServer> face_server;
  std::unique_ptr<HttpServer> http;
};

std::unique_ptr<Stack> start_stack(man::serve::EngineCache& cache,
                                   Tracer& tracer, std::uint64_t group,
                                   std::uint64_t parent) {
  auto stack = std::make_unique<Stack>();
  man::serve::TieredEngine tiered;
  {
    ScopedSpan span(tracer, "EngineCache::tiered", group, parent);
    tiered = cache.tiered(mlp_case().spec, digit_ladder());
  }
  {
    ScopedSpan span(tracer, "EngineCache::get", group, parent);
    stack->face = cache.get(face_spec());
  }
  stack->pool = std::make_shared<ThreadPool>(kPoolThreads);
  auto digit_config = serve_config(stack->pool);
  digit_config.qos_tiers = digit_ladder();
  stack->digit_server =
      std::make_unique<InferenceServer>(std::move(tiered), digit_config);
  stack->face_server = std::make_unique<InferenceServer>(
      *stack->face, serve_config(stack->pool));
  stack->http = std::make_unique<HttpServer>();
  stack->http->add_model(kModelKeys[kDigit], *stack->digit_server);
  stack->http->add_model(kModelKeys[kFace], *stack->face_server);
  stack->http->start();
  return stack;
}

/// Expected raw outputs per model, per tier, per pool input.
struct Expected {
  std::vector<std::string> tier_names[2];
  std::vector<std::vector<std::int64_t>> raw[2];
  std::vector<double> energy_nj[2];
  std::size_t out[2] = {0, 0};

  [[nodiscard]] int tier_index(int model, const std::string& name) const {
    for (std::size_t t = 0; t < tier_names[model].size(); ++t) {
      if (tier_names[model][t] == name) return static_cast<int>(t);
    }
    return -1;
  }
  [[nodiscard]] bool matches(int model, int tier, std::size_t input,
                             const std::vector<std::int64_t>& got) const {
    if (tier < 0 || got.size() != out[model]) return false;
    const auto& ref = raw[model][static_cast<std::size_t>(tier)];
    return std::equal(got.begin(), got.end(),
                      ref.begin() + static_cast<std::ptrdiff_t>(
                                        input * out[model]));
  }
};

struct Response {
  int status = 0;
  bool has_tier = false;
  std::string tier;
  std::string body;
};

bool header_is(const char* line, std::size_t len, const char* name) {
  const std::size_t n = std::strlen(name);
  return len > n && line[n] == ':' && strncasecmp(line, name, n) == 0;
}

std::string header_value(const char* line, std::size_t len,
                         const char* name) {
  std::size_t i = std::strlen(name) + 1;
  while (i < len && line[i] == ' ') ++i;
  std::size_t end = len;
  while (end > i && (line[end - 1] == ' ' || line[end - 1] == '\r')) --end;
  return std::string(line + i, end - i);
}

/// Takes one complete response off the front of `buf` (from `off`);
/// false when more bytes are needed.
bool take_response(const std::string& buf, std::size_t& off, Response& r) {
  const std::size_t head_end = buf.find("\r\n\r\n", off);
  if (head_end == std::string::npos) return false;
  r = Response{};
  r.status = std::atoi(buf.c_str() + off + 9);  // "HTTP/1.1 200 OK"
  std::size_t content_length = 0;
  std::size_t line = buf.find("\r\n", off) + 2;
  while (line < head_end) {
    const std::size_t eol = buf.find("\r\n", line);
    const char* p = buf.data() + line;
    const std::size_t len = eol - line;
    if (header_is(p, len, "Content-Length")) {
      content_length = std::strtoull(
          header_value(p, len, "Content-Length").c_str(), nullptr, 10);
    } else if (header_is(p, len, "X-Man-Accuracy-Tier")) {
      r.has_tier = true;
      r.tier = header_value(p, len, "X-Man-Accuracy-Tier");
    }
    line = eol + 2;
  }
  const std::size_t body = head_end + 4;
  if (buf.size() < body + content_length) return false;
  r.body.assign(buf, body, content_length);
  off = body + content_length;
  return true;
}

std::uint64_t json_uint(const std::string& body, const char* key) {
  const std::size_t at = body.find(key);
  if (at == std::string::npos) return 0;
  return std::strtoull(body.c_str() + at + std::strlen(key), nullptr, 10);
}

std::vector<std::int64_t> json_raw(const std::string& body) {
  std::vector<std::int64_t> raw;
  std::size_t at = body.find("\"raw\":[");
  if (at == std::string::npos) return raw;
  const char* p = body.c_str() + at + 7;
  while (*p != ']' && *p != '\0') {
    char* end = nullptr;
    raw.push_back(std::strtoll(p, &end, 10));
    if (end == p) return {};
    p = end;
    if (*p == ',') ++p;
  }
  return raw;
}

struct Request {
  std::int64_t intended_ns = 0;
  std::int64_t sent_ns = 0;
  std::int64_t done_ns = -1;
  std::uint32_t input = 0;
  int model = kDigit;
  int status = 0;  ///< HTTP status; 0 when no response arrived
  int tier = -1;
  bool ok = false;
  std::uint64_t queue_ns = 0;
  std::uint64_t compute_ns = 0;
};

struct Conn {
  int fd = -1;
  std::string out;
  std::size_t out_off = 0;
  std::string in;
  std::size_t in_off = 0;
  std::deque<std::size_t> pending;
  bool dead = false;
};

/// The generator's connections; closed on destruction.
class Connections {
 public:
  explicit Connections(std::uint16_t port) : conns_(kConnections) {
    for (Conn& c : conns_) {
      c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
      if (c.fd < 0) throw std::runtime_error("socket failed");
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port);
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (::connect(c.fd, reinterpret_cast<sockaddr*>(&addr),
                    sizeof(addr)) != 0) {
        throw std::runtime_error("connect failed");
      }
      const int one = 1;
      ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
    }
  }
  ~Connections() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
  }
  Connections(const Connections&) = delete;
  Connections& operator=(const Connections&) = delete;

  std::vector<Conn>& conns() { return conns_; }

 private:
  std::vector<Conn> conns_;
};

/// Sends `reqs` (intended times already set) on schedule over `conns`
/// and resolves every one: a response checked by `expected`, or a
/// failure when its connection dies or the drain deadline passes.
void drive(std::vector<Conn>& conns, std::vector<Request>& reqs,
           const std::vector<std::string> (&frames)[2],
           const Expected& expected) {
  std::size_t next = 0;
  std::size_t outstanding = 0;
  const std::int64_t drain_deadline =
      (reqs.empty() ? now_ns() : reqs.back().intended_ns) + kDrainNs;
  const auto fail_conn = [&](Conn& c, std::int64_t now) {
    c.dead = true;
    for (std::size_t idx : c.pending) reqs[idx].done_ns = now;
    outstanding -= c.pending.size();
    c.pending.clear();
  };
  const auto flush = [&](Conn& c, std::int64_t now) {
    while (!c.dead && c.out_off < c.out.size()) {
      const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                               c.out.size() - c.out_off, MSG_NOSIGNAL);
      if (n > 0) {
        c.out_off += static_cast<std::size_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return;
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        fail_conn(c, now);
      }
    }
    c.out.clear();
    c.out_off = 0;
  };
  const auto on_readable = [&](Conn& c) {
    char buf[65536];
    for (;;) {
      const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
      if (n > 0) {
        c.in.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      fail_conn(c, now_ns());
      return;
    }
    const std::int64_t now = now_ns();
    Response response;
    while (!c.pending.empty() && take_response(c.in, c.in_off, response)) {
      Request& r = reqs[c.pending.front()];
      c.pending.pop_front();
      outstanding -= 1;
      r.done_ns = now;
      r.status = response.status;
      if (response.status != 200 || !response.has_tier) continue;
      r.tier = expected.tier_index(r.model, response.tier);
      r.queue_ns = json_uint(response.body, "\"queue_ns\":");
      r.compute_ns = json_uint(response.body, "\"compute_ns\":");
      r.ok = expected.matches(r.model, r.tier, r.input,
                              json_raw(response.body));
    }
    if (c.in_off == c.in.size()) {
      c.in.clear();
      c.in_off = 0;
    }
  };

  pollfd fds[kConnections];
  for (;;) {
    std::int64_t now = now_ns();
    while (next < reqs.size() && reqs[next].intended_ns <= now) {
      Request& r = reqs[next];
      Conn& c = conns[next % conns.size()];
      r.sent_ns = now;
      if (c.dead) {
        r.done_ns = now;
      } else {
        c.out += frames[r.model][r.input];
        c.pending.push_back(next);
        outstanding += 1;
        flush(c, now);
      }
      ++next;
    }
    if (next == reqs.size() && (outstanding == 0 || now >= drain_deadline)) {
      break;
    }
    // Poll without blocking: on a VM a timed sleep can wake
    // milliseconds late, which would make the schedule, not the
    // server, set the measured latency. The generator spins instead.
    const timespec ts{0, 0};
    for (int i = 0; i < kConnections; ++i) {
      Conn& c = conns[static_cast<std::size_t>(i)];
      fds[i].fd = c.dead ? -1 : c.fd;
      fds[i].events = static_cast<short>(
          POLLIN | (c.out_off < c.out.size() ? POLLOUT : 0));
      fds[i].revents = 0;
    }
    if (::ppoll(fds, kConnections, &ts, nullptr) < 0 && errno != EINTR) {
      throw std::runtime_error("ppoll failed");
    }
    for (int i = 0; i < kConnections; ++i) {
      Conn& c = conns[static_cast<std::size_t>(i)];
      if (c.dead) continue;
      if (fds[i].revents & POLLOUT) flush(c, now_ns());
      if (fds[i].revents & (POLLIN | POLLERR | POLLHUP)) on_readable(c);
    }
  }
  const std::int64_t end = now_ns();
  for (Request& r : reqs) {
    if (r.done_ns < 0) r.done_ns = end;
  }
  for (Conn& c : conns) {
    if (!c.pending.empty()) fail_conn(c, end);
  }
}

/// Evenly spaced schedule starting shortly after now, alternating
/// digit and face and cycling through the pool inputs.
std::vector<Request> schedule(double seconds, std::uint64_t first) {
  const auto count = static_cast<std::size_t>(seconds * kRate);
  const double period_ns = 1e9 / kRate;
  const std::int64_t t0 = now_ns() + 2'000'000;
  std::vector<Request> reqs(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t n = first + i;
    reqs[i].intended_ns =
        t0 + static_cast<std::int64_t>(static_cast<double>(i) * period_ns);
    reqs[i].model = static_cast<int>(n % 2);
    reqs[i].input = static_cast<std::uint32_t>((n / 2) % kPoolInputs);
  }
  return reqs;
}

std::string body_bytes(std::span<const float> pixels) {
  std::string body(pixels.size() * sizeof(float), '\0');
  std::memcpy(body.data(), pixels.data(), body.size());
  return body;
}

}  // namespace

void run_serve(const Options& options, double seconds, bool emit_e2e,
               bool emit_layers, Report& report, Tracer& tracer) {
  ScratchDir dir;
  const std::string plans = dir.subdir("plans");
  const man::serve::EngineSpec specs[2] = {mlp_case().spec, face_spec()};

  // Prepare (untimed): compile and publish the digit ladder and the
  // face engine, draw the seeded input pools, compute every tier's
  // scalar reference and its modeled energy per sample.
  std::vector<float> pool_inputs[2] = {
      make_images(options.seed, /*stream=*/2, kPoolInputs),
      make_images(options.seed, /*stream=*/3, kPoolInputs)};
  Expected expected;
  std::vector<std::string> artifact_paths;
  std::vector<std::string> artifact_keys;
  double compile_s = 0.0;
  {
    auto cache = make_cache(dir, plans);
    const auto t0 = Clock::now();
    const auto tiered = cache->tiered(specs[kDigit], digit_ladder());
    const auto face = cache->get(specs[kFace]);
    compile_s = seconds_between(t0, Clock::now());
    for (const auto& tier : tiered.tiers) {
      auto spec = specs[kDigit];
      spec.alphabets = tier.spec.alphabets;
      artifact_keys.push_back(spec.key());
      expected.tier_names[kDigit].push_back(tier.spec.name);
      man::engine::EngineStats stats;
      expected.raw[kDigit].push_back(
          scalar_reference(*tier.engine, pool_inputs[kDigit], &stats));
      expected.energy_nj[kDigit].push_back(
          energy_nj_per_sample(stats, *tier.engine, spec));
      expected.out[kDigit] = tier.engine->output_size();
    }
    artifact_keys.push_back(specs[kFace].key());
    expected.tier_names[kFace].push_back("full");
    man::engine::EngineStats stats;
    expected.raw[kFace].push_back(
        scalar_reference(*face, pool_inputs[kFace], &stats));
    expected.energy_nj[kFace].push_back(
        energy_nj_per_sample(stats, *face, specs[kFace]));
    expected.out[kFace] = face->output_size();
  }
  for (const auto& key : artifact_keys) {
    artifact_paths.push_back(man::artifact::artifact_path(plans, key));
  }
  if (options.corrupt_reference) {
    for (int m = 0; m < 2; ++m) {
      for (auto& raw : expected.raw[m]) corrupt(raw, expected.out[m]);
    }
  }
  std::vector<std::string> frames[2];
  for (int m = 0; m < 2; ++m) {
    const std::string target = std::string("/v1/infer/") + kModelKeys[m];
    for (std::size_t i = 0; i < kPoolInputs; ++i) {
      frames[m].push_back(man::serve::http::HttpClient::frame(
          "POST", target,
          body_bytes(std::span<const float>(pool_inputs[m])
                         .subspan(i * kImagePixels, kImagePixels)),
          "application/octet-stream"));
    }
  }

  if (emit_layers) {
    std::vector<double> load_ms;
    for (int rep = 0; rep < kLoadReps; ++rep) {
      const auto t0 = Clock::now();
      for (std::size_t a = 0; a < artifact_paths.size(); ++a) {
        ScopedSpan span(tracer, "artifact::load_engine", rep);
        report.check(man::artifact::load_engine(artifact_paths[a],
                                                artifact_keys[a]) != nullptr);
      }
      load_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
    }
    double bytes = 0.0;
    for (const auto& path : artifact_paths) {
      bytes += static_cast<double>(std::filesystem::file_size(path));
    }
    report.metric("serve.engine_cache.compile_s", compile_s, "s");
    report.metric("serve.artifact.load_ms", median(load_ms), "ms");
    report.metric("serve.artifact.bytes", bytes, "bytes");
  }

  // Set-up, repeated: a fresh cache mmaps the published artifacts, the
  // pool, both servers and the HTTP front end start, and the first
  // digit request must come back 200, tier-labelled and bit-exact.
  std::unique_ptr<Stack> stack;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    stack.reset();
    man::serve::http::HttpResponse first;
    const auto t0 = Clock::now();
    {
      ScopedSpan setup(tracer, "serve.setup", rep);
      auto cache = make_cache(dir, plans);
      stack = start_stack(*cache, tracer, rep, setup.id());
      ScopedSpan request(tracer, "http.request", rep, setup.id());
      man::serve::http::HttpClient client("127.0.0.1", stack->http->port());
      first = client.request(
          "POST", "/v1/infer/digit",
          body_bytes(std::span<const float>(pool_inputs[kDigit])
                         .subspan(0, kImagePixels)),
          "application/octet-stream");
    }
    setup_s.push_back(seconds_between(t0, Clock::now()));
    const std::string* tier = first.find_header("X-Man-Accuracy-Tier");
    report.check(first.status == 200 && tier != nullptr &&
                 expected.matches(kDigit, expected.tier_index(kDigit, *tier),
                                  0, json_raw(first.body)));
  }

  Connections connections(stack->http->port());
  std::vector<Request> warmup = schedule(kWarmupSeconds, 0);
  drive(connections.conns(), warmup, frames, expected);
  for (const Request& r : warmup) report.check(r.ok);

  const auto digit_before = stack->digit_server->metrics();
  const auto face_before = stack->face_server->metrics();
  const auto http_before = stack->http->metrics();
  std::vector<Request> reqs = schedule(seconds, warmup.size());
  drive(connections.conns(), reqs, frames, expected);
  const auto digit_after = stack->digit_server->metrics();
  const auto face_after = stack->face_server->metrics();
  const auto http_after = stack->http->metrics();

  Sliced latency_s;
  std::vector<double> late_ms, queue_ms, compute_ms, front_ms;
  std::uint64_t ok = 0, digit_ok = 0, digit_tier0 = 0;
  // Failed requests by cause: no response (transport error or drain
  // timeout), a status other than 200, or a 200 without the tier
  // header or with wrong outputs.
  double no_response = 0, bad_status = 0, bad_output = 0;
  std::int64_t last_done = reqs.empty() ? 0 : reqs.front().intended_ns;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const Request& r = reqs[i];
    latency_s.add(
        static_cast<double>(r.intended_ns - reqs[0].intended_ns) / 1e9,
        static_cast<double>(r.done_ns - r.intended_ns) / 1e9);
    late_ms.push_back(static_cast<double>(r.sent_ns - r.intended_ns) / 1e6);
    last_done = std::max(last_done, r.done_ns);
    if (!report.check(r.ok)) {
      (r.status == 0 ? no_response : r.status != 200 ? bad_status
                                                     : bad_output) += 1;
      continue;
    }
    ok += 1;
    if (r.model == kDigit) {
      digit_ok += 1;
      if (r.tier == 0) digit_tier0 += 1;
    }
    const double server_ns = static_cast<double>(r.queue_ns + r.compute_ns);
    queue_ms.push_back(static_cast<double>(r.queue_ns) / 1e6);
    compute_ms.push_back(static_cast<double>(r.compute_ns) / 1e6);
    front_ms.push_back(
        (static_cast<double>(r.done_ns - r.sent_ns) - server_ns) / 1e6);
    if (tracer.enabled()) {
      const std::uint64_t id =
          tracer.add("http.request", i, 0, r.sent_ns, r.done_ns);
      const auto queue_end =
          r.sent_ns + static_cast<std::int64_t>(r.queue_ns);
      tracer.add("server.queue", i, id, r.sent_ns, queue_end);
      tracer.add("server.compute", i, id, queue_end,
                 queue_end + static_cast<std::int64_t>(r.compute_ns));
    }
  }

  // Energy: each tier's per-sample energy on the seeded inputs,
  // weighted by the samples the servers actually ran at each tier.
  double energy_total = 0.0, served_samples = 0.0;
  for (std::size_t t = 0; t < digit_after.tier_samples.size(); ++t) {
    const double n = static_cast<double>(digit_after.tier_samples[t] -
                                         digit_before.tier_samples[t]);
    energy_total += n * expected.energy_nj[kDigit][t];
    served_samples += n;
  }
  const double face_samples =
      static_cast<double>(face_after.samples - face_before.samples);
  energy_total += face_samples * expected.energy_nj[kFace][0];
  served_samples += face_samples;

  report.note("serve.backend", man::backend::resolve().name());
  report.note("serve.rate_per_s", kRate);
  report.note("serve.connections", kConnections);
  report.note("serve.requests", static_cast<double>(reqs.size()));
  report.note("serve.ok", static_cast<double>(ok));
  report.note("serve.failed_no_response", no_response);
  report.note("serve.failed_status", bad_status);
  report.note("serve.failed_output", bad_output);
  const std::vector<double> all = latency_s.all();
  report.note("serve.latency_p99_ms", quantile(all, 0.99) * 1e3);
  report.note("serve.latency_p999_ms", quantile(all, 0.999) * 1e3);
  report.note("serve.latency_samples", static_cast<double>(all.size()));

  if (emit_e2e) {
    // From the first request's intended send to the last response.
    const double window_s =
        static_cast<double>(last_done - reqs.front().intended_ns) / 1e9;
    report.metric("samples_per_s", static_cast<double>(ok) / window_s,
                  "samples/s");
    report.metric("latency_p50_ms", latency_s.quantile(0.5) * 1e3, "ms");
    report.metric("latency_p90_ms", latency_s.quantile(0.9) * 1e3, "ms");
    report.metric("setup_s", median(setup_s), "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.metric("energy_nj_per_sample", energy_total / served_samples,
                  "nJ");
  }
  if (emit_layers) {
    const double batches =
        static_cast<double>(digit_after.batches - digit_before.batches +
                            face_after.batches - face_before.batches);
    const double size_flushes =
        static_cast<double>(digit_after.size_flushes -
                            digit_before.size_flushes +
                            face_after.size_flushes - face_before.size_flushes);
    const double deadline_flushes = static_cast<double>(
        digit_after.deadline_flushes - digit_before.deadline_flushes +
        face_after.deadline_flushes - face_before.deadline_flushes);
    const double http_requests =
        static_cast<double>(http_after.requests - http_before.requests);
    const double http_bytes =
        static_cast<double>(http_after.bytes_in - http_before.bytes_in +
                            http_after.bytes_out - http_before.bytes_out);
    report.metric("dispatch.queue_p50_ms", median(queue_ms), "ms");
    report.metric("dispatch.compute_p50_ms", median(compute_ms), "ms");
    report.metric("dispatch.batch_mean", served_samples / batches, "samples");
    report.metric("dispatch.deadline_flush_share",
                  deadline_flushes / (deadline_flushes + size_flushes),
                  "ratio");
    report.metric("http.front_p50_ms", median(front_ms), "ms");
    report.metric("http.bytes_per_req", http_bytes / http_requests, "bytes");
    report.metric("http.backpressure_pauses",
                  static_cast<double>(http_after.backpressure_pauses -
                                      http_before.backpressure_pauses),
                  "count");
    report.metric("http.shed",
                  static_cast<double>(http_after.shed - http_before.shed),
                  "count");
    report.metric("qos.tier0_share",
                  digit_ok == 0 ? 0.0
                                : static_cast<double>(digit_tier0) /
                                      static_cast<double>(digit_ok),
                  "ratio");
    report.metric("loadgen.late_p99_ms", quantile(late_ms, 0.99), "ms");
    report.metric("loadgen.late_max_ms", quantile(late_ms, 1.0), "ms");
  }
}

}  // namespace perfbench
