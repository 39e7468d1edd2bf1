#include "common.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <random>
#include <stdexcept>

namespace perfbench {

namespace {

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, res.ptr);
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

}  // namespace

std::int64_t now_ns() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin)
      .count();
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

void Sliced::add(double offset_s, double value, double units) {
  const auto slice = static_cast<std::size_t>(
      std::max(0.0, offset_s) / kSliceSeconds);
  if (slices_.size() <= slice) {
    slices_.resize(slice + 1);
    units_.resize(slice + 1, 0.0);
  }
  slices_[slice].push_back(value);
  units_[slice] += units;
}

double Sliced::quantile(double q) const {
  std::vector<double> per_slice;
  for (const auto& slice : slices_) {
    if (!slice.empty()) per_slice.push_back(perfbench::quantile(slice, q));
  }
  return median(per_slice);
}

double Sliced::rate() const {
  std::vector<double> per_slice;
  for (std::size_t s = 0; s < slices_.size(); ++s) {
    double busy = 0.0;
    for (double v : slices_[s]) busy += v;
    if (busy > 0.0) per_slice.push_back(units_[s] / busy);
  }
  return median(per_slice);
}

std::vector<double> Sliced::all() const {
  std::vector<double> values;
  for (const auto& slice : slices_) {
    values.insert(values.end(), slice.begin(), slice.end());
  }
  return values;
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::note(const std::string& key, double value) {
  notes_.emplace_back(key, json_number(value));
}

void Report::note(const std::string& key, const std::string& value) {
  notes_.emplace_back(key, json_string(value));
}

bool Report::check(bool ok) {
  attempted_ += 1;
  if (!ok) failed_ += 1;
  return ok;
}

void Report::print() const {
  std::string info = "{\"info\":{";
  for (std::size_t i = 0; i < notes_.size(); ++i) {
    if (i > 0) info += ",";
    info += json_string(notes_[i].first) + ":" + notes_[i].second;
  }
  info += "}}";
  std::string result = "{\"correct\":";
  result += (failed_ == 0 && attempted_ > 0) ? "true" : "false";
  result += ",\"attempted\":" + std::to_string(attempted_);
  result += ",\"failed\":" + std::to_string(failed_);
  result += ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) result += ",";
    result += json_string(metrics_[i].name) +
              ":{\"value\":" + json_number(metrics_[i].value) +
              ",\"unit\":" + json_string(metrics_[i].unit) + "}";
  }
  result += "}}";
  std::printf("%s\n%s\n", info.c_str(), result.c_str());
  std::fflush(stdout);
}

std::uint64_t Tracer::next_id() {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void Tracer::record(std::uint64_t id, const char* name, std::uint64_t group,
                    std::uint64_t parent, std::int64_t start_ns,
                    std::int64_t end_ns) {
  if (!enabled_ || id == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (spans_.size() >= kMaxSpans) {
    dropped_ += 1;
    return;
  }
  spans_.push_back({id, name, group, parent, start_ns, end_ns});
}

std::uint64_t Tracer::add(const char* name, std::uint64_t group,
                          std::uint64_t parent, std::int64_t start_ns,
                          std::int64_t end_ns) {
  const std::uint64_t id = next_id();
  record(id, name, group, parent, start_ns, end_ns);
  return id;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

void Tracer::write(const std::filesystem::path& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::filesystem::create_directories(path.parent_path());
  std::ofstream out(path);
  out << "{\"dropped\":" << dropped_ << ",\"spans\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "") << "{\"id\":" << s.id << ",\"name\":\""
        << s.name << "\",\"group\":" << s.group << ",\"parent\":" << s.parent
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}";
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("cannot write trace " + path.string());
}

std::filesystem::path output_root() {
  return std::filesystem::path(".bench_build") / "perfbench";
}

ScratchDir::ScratchDir() {
  const auto parent = output_root() / "work";
  std::filesystem::create_directories(parent);
  std::string pattern = (parent / "run-XXXXXX").string();
  if (mkdtemp(pattern.data()) == nullptr) {
    throw std::runtime_error("cannot create scratch dir under " +
                             parent.string());
  }
  path_ = std::filesystem::absolute(pattern);
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

std::string ScratchDir::subdir(const std::string& name) const {
  const auto dir = path_ / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

std::vector<float> make_images(std::uint64_t seed, std::uint64_t stream,
                               std::size_t count) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + stream);
  std::uniform_int_distribution<int> coord(2, 29);
  std::uniform_int_distribution<int> level(4, 16);
  std::uniform_int_distribution<int> strokes(2, 4);
  std::uniform_int_distribution<int> noise_pixel(0, 1023);
  std::vector<float> images(count * kImagePixels, 0.0f);
  for (std::size_t n = 0; n < count; ++n) {
    float* img = images.data() + n * kImagePixels;
    const int stroke_count = strokes(rng);
    for (int s = 0; s < stroke_count; ++s) {
      const int x0 = coord(rng), y0 = coord(rng);
      const int x1 = coord(rng), y1 = coord(rng);
      const float value = static_cast<float>(level(rng)) / 16.0f;
      const int steps = std::max(std::abs(x1 - x0), std::abs(y1 - y0)) + 1;
      for (int t = 0; t < steps; ++t) {
        const int x = x0 + (x1 - x0) * t / steps;
        const int y = y0 + (y1 - y0) * t / steps;
        for (int dy = 0; dy < 2; ++dy) {
          for (int dx = 0; dx < 2; ++dx) {
            float& px = img[(y + dy) * 32 + (x + dx)];
            px = std::max(px, value);
          }
        }
      }
    }
    for (int k = 0; k < 24; ++k) {
      img[noise_pixel(rng)] = static_cast<float>(level(rng)) / 32.0f;
    }
  }
  return images;
}

KeepAwake::KeepAwake() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  try {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &allowed)) continue;
      threads_.emplace_back([this, cpu] {
        sched_param param{};
        pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
        while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
          __builtin_ia32_pause();
#endif
        }
      });
    }
  } catch (...) {
    stop_.store(true, std::memory_order_relaxed);
    for (auto& thread : threads_) thread.join();
    throw;
  }
}

KeepAwake::~KeepAwake() {
  stop_.store(true, std::memory_order_relaxed);
  for (auto& thread : threads_) thread.join();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
