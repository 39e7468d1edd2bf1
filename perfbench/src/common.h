// Shared plumbing of the repository benchmark: run options, the
// result report (printed as the final JSON line), in-memory span
// tracing, order statistics, the per-run scratch directory and the
// seeded input generator.
#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Pixels per input image: every model the benchmark drives takes one
/// 32x32 single-channel image.
inline constexpr std::size_t kImagePixels = 1024;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test only: flips one bit of every expected output, so a
  /// correct program must report every checked operation as failed.
  bool corrupt_reference = false;
};

/// Nanoseconds on the steady clock since the process's first call.
[[nodiscard]] std::int64_t now_ns();

[[nodiscard]] double seconds_between(Clock::time_point a, Clock::time_point b);

/// Order statistics over a copy of `values` (nearest rank; 0 when
/// empty).
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);

/// Timed windows are cut into slices of this length. A latency metric
/// is the median across slices of each slice's quantile, so a host
/// stall of a few milliseconds moves one slice, not the result.
inline constexpr double kSliceSeconds = 0.25;

/// Values grouped by slice (slice index = time into the window /
/// kSliceSeconds).
class Sliced {
 public:
  /// `value` is a duration in seconds; `units` the work it completed.
  void add(double offset_s, double value, double units = 0.0);
  /// Median across non-empty slices of each slice's q-quantile.
  [[nodiscard]] double quantile(double q) const;
  /// Median across slices of units per second, for values that are the
  /// durations of back-to-back operations.
  [[nodiscard]] double rate() const;
  /// Every value, unsliced.
  [[nodiscard]] std::vector<double> all() const;

 private:
  std::vector<std::vector<double>> slices_;
  std::vector<double> units_;
};

/// Metrics, operation counts and diagnostics of one run. Only the
/// metrics and counts reach the final JSON line; `note` values are
/// printed on the line before it.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void note(const std::string& key, double value);
  void note(const std::string& key, const std::string& value);
  /// Counts one checked operation; returns `ok`.
  bool check(bool ok);

  /// Prints the diagnostics line, then the result line.
  void print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;  // JSON values
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// In-memory span recorder. Every span has a name, its own id, the id
/// of the span that caused it (0 for a root), a group id shared by all
/// spans of one batch or request, and start/end on the steady clock.
/// Disabled tracers record nothing. Spans are written out once, at the
/// end of the run.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// A new span id (0 when disabled), taken when the span starts so
  /// that its children can name it as their parent.
  std::uint64_t next_id();

  /// Records a finished span under an id from next_id().
  void record(std::uint64_t id, const char* name, std::uint64_t group,
              std::uint64_t parent, std::int64_t start_ns,
              std::int64_t end_ns);

  /// next_id() plus record(), for a span whose bounds are known.
  std::uint64_t add(const char* name, std::uint64_t group,
                    std::uint64_t parent, std::int64_t start_ns,
                    std::int64_t end_ns);

  void write(const std::filesystem::path& path) const;

  [[nodiscard]] std::size_t size() const;

 private:
  struct Span {
    std::uint64_t id;
    const char* name;
    std::uint64_t group;
    std::uint64_t parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  static constexpr std::size_t kMaxSpans = 1'000'000;

  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
  std::uint64_t dropped_ = 0;
};

/// Times one call into the program as a span; a no-op when tracing is
/// off.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t group,
             std::uint64_t parent = 0)
      : tracer_(tracer),
        name_(name),
        group_(group),
        parent_(parent),
        id_(tracer.next_id()),
        start_ns_(tracer.enabled() ? now_ns() : 0) {}
  ~ScopedSpan() {
    if (id_ != 0) {
      tracer_.record(id_, name_, group_, parent_, start_ns_, now_ns());
    }
  }

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  const char* name_;
  std::uint64_t group_;
  std::uint64_t parent_;
  std::uint64_t id_;
  std::int64_t start_ns_;
};

/// A fresh directory under the run's working area, removed (with
/// everything in it) when the object dies.
class ScratchDir {
 public:
  ScratchDir();
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] const std::filesystem::path& path() const { return path_; }
  /// A new, empty subdirectory (for one plan-artifact cache).
  [[nodiscard]] std::string subdir(const std::string& name) const;

 private:
  std::filesystem::path path_;
};

/// Directory the benchmark writes into, relative to the checkout root.
[[nodiscard]] std::filesystem::path output_root();

/// `count` seeded, image-like 32x32 inputs laid out contiguously:
/// a dark background with a few bright strokes and sparse noise, at
/// intensities on a 1/16 grid. `stream` separates independent input
/// sets drawn from one seed.
[[nodiscard]] std::vector<float> make_images(std::uint64_t seed,
                                             std::uint64_t stream,
                                             std::size_t count);

/// Keeps every CPU the process may run on busy for its lifetime with
/// one SCHED_IDLE spinner thread pinned per CPU. The scheduler runs a
/// spinner only when its CPU would otherwise idle, and preempts it as
/// soon as a real thread wakes there. On a VM an idle vCPU halts, and
/// waking it again can take milliseconds (measured: timer wake-ups
/// 3 ms late at p90 without spinners, 60 us with them), which would
/// make every thread hand-off in the measured program pay the host's
/// reschedule instead of its own cost.
class KeepAwake {
 public:
  KeepAwake();
  ~KeepAwake();
  KeepAwake(const KeepAwake&) = delete;
  KeepAwake& operator=(const KeepAwake&) = delete;

  [[nodiscard]] std::size_t threads() const noexcept {
    return threads_.size();
  }

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// Peak resident set of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H
