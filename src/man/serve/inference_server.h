// Async serving front-end over the batched fixed-point runtime,
// speaking the typed request/response API (serve_types.h): submit()
// takes an InferenceRequest{payload, deadline, priority} and resolves
// an InferenceResult whose Status can express success, an exceeded
// deadline, admission-control rejection, a malformed payload, or
// shutdown — the same vocabulary the HTTP front-end maps onto wire
// status codes. A dispatcher thread coalesces accepted requests into
// micro-batches — flushing on max-batch-size or on the earliest
// flush deadline across the queue — and a pooled BatchRunner executes
// every micro-batch on a persistent man::serve::ThreadPool. Because
// each sample's result depends only on that sample's pixels,
// coalescing is invisible: kOk responses are bit-identical to running
// FixedNetwork::infer_into sample by sample, regardless of how
// traffic interleaves or how many workers run.
//
// Admission control: the queue is bounded (ServeConfig::
// queue_capacity samples); a submit that would overflow it resolves
// kRejectedOverload immediately, with a Retry-After hint derived from
// the estimated queue delay (EWMA of recent per-sample compute time ×
// queued samples — the same estimate the HTTP front-end sheds on once
// it exceeds ServeConfig::queue_delay_slo).
#ifndef MAN_SERVE_INFERENCE_SERVER_H
#define MAN_SERVE_INFERENCE_SERVER_H

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "man/engine/batch_runner.h"
#include "man/engine/fixed_network.h"
#include "man/serve/serve_types.h"

namespace man::serve {

/// Deadline-aware micro-batching front-end for one compiled engine —
/// or, given a TieredEngine, for a ladder of precision variants of
/// one model: each micro-batch is dispatched at the accuracy tier the
/// current deadline pressure calls for (full precision while the
/// queue is clear, stepping down as the estimated queue delay climbs
/// toward queue_delay_slo — the paper's accuracy/energy trade applied
/// per micro-batch, so overload degrades precision before the HTTP
/// front-end sheds with 429). submit()/submit_async() are
/// thread-safe; the engine(s) must outlive the server. Run several
/// servers over different engines on one shared ThreadPool to serve
/// many model configurations from a single process.
class InferenceServer {
 public:
  using Clock = std::chrono::steady_clock;
  /// Completion callback for submit_async(). Invoked exactly once:
  /// from the dispatcher thread after the micro-batch completes, or
  /// inline from the submitting thread for immediate rejections
  /// (kBadRequest / kRejectedOverload / kShutdown). Must not block.
  using Callback = std::function<void(InferenceResult&&)>;

  /// Serving metrics (snapshot under the queue lock).
  struct Metrics {
    /// Accepted submissions / samples across them (rejections are
    /// counted separately and never reach the queue).
    std::uint64_t requests = 0;
    std::uint64_t samples = 0;
    /// Micro-batches dispatched, split by what closed them
    /// (max_batch vs earliest-flush-deadline/drain), plus the
    /// biggest one.
    std::uint64_t batches = 0;
    std::uint64_t size_flushes = 0;
    std::uint64_t deadline_flushes = 0;
    std::size_t largest_batch = 0;
    /// Typed-API outcomes: admission-control rejections, malformed
    /// payloads, requests whose hard deadline expired while queued,
    /// and submissions after shutdown.
    std::uint64_t rejected_overload = 0;
    std::uint64_t rejected_bad_request = 0;
    std::uint64_t deadline_expired = 0;
    std::uint64_t rejected_shutdown = 0;
    /// Micro-batches / samples dispatched per accuracy tier (index =
    /// ladder position; one entry on an untiered server).
    std::vector<std::uint64_t> tier_batches;
    std::vector<std::uint64_t> tier_samples;
  };

  /// Starts the dispatcher thread. ServeConfig::validate() applies —
  /// nonsense configs throw std::invalid_argument, as does a config
  /// carrying a QoS ladder (single-engine servers are untiered; pass
  /// a TieredEngine to serve a ladder).
  InferenceServer(const man::engine::FixedNetwork& engine, ServeConfig config);

  /// Tiered flavour: serves `tiered` (validated; tier 0 = full
  /// precision), picking a tier per micro-batch from deadline
  /// pressure. When config.qos_tiers is non-empty its length must
  /// match the ladder (the config is the spec the engine was built
  /// from); config.qos_min_tier pins the minimum degradation rung.
  /// The server keeps the tier engines alive (shared ownership).
  InferenceServer(TieredEngine tiered, ServeConfig config);

  /// Graceful: drains every accepted request, then stops.
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Queues `request` and calls `callback` with its result. Never
  /// throws for per-request conditions — the result carries the
  /// Status instead (kBadRequest for an empty/ragged payload,
  /// kRejectedOverload when the bounded queue is full, kShutdown
  /// after shutdown() or when the engine fails, kDeadlineExceeded if
  /// the hard deadline passes before compute starts, else kOk with
  /// payload fields bit-identical to the sequential engine path).
  /// The request waits up to max_wait for co-batching; one whose
  /// deadline falls inside that window flushes the queue at once.
  /// The HTTP front-end's epoll loop uses this flavour: it must not
  /// block on futures.
  void submit_async(InferenceRequest request, Callback callback);

  /// Future flavour of submit_async(), same semantics.
  std::future<InferenceResult> submit(InferenceRequest request);

  /// Stops accepting requests, serves everything already queued, and
  /// joins the dispatcher. Idempotent; also run by the destructor.
  void shutdown();

  /// Estimated time a newly queued sample would wait before compute:
  /// queued samples × EWMA per-sample batch time. Zero until the
  /// first batch calibrates the estimate. The HTTP front-end sheds
  /// load once this exceeds config().queue_delay_slo; the tier picker
  /// steps precision down as it climbs toward that SLO.
  [[nodiscard]] std::chrono::nanoseconds estimated_queue_delay() const;

  /// The deterministic tier-selection policy, exposed pure for tests:
  /// tier t serves while the estimated delay sits in
  /// [t·slo/tier_count, (t+1)·slo/tier_count); at or past the SLO the
  /// last (cheapest) tier serves — shedding beyond it is the
  /// front-end's job. `min_tier` pins the floor (ServeConfig::
  /// qos_min_tier); a non-positive SLO degenerates to the last tier.
  [[nodiscard]] static std::size_t pick_tier(
      std::chrono::nanoseconds estimated_delay, std::chrono::microseconds slo,
      std::size_t tier_count, std::size_t min_tier) noexcept;

  /// Ladder shape: 1 on an untiered server.
  [[nodiscard]] std::size_t tier_count() const noexcept {
    return tiers_.size();
  }
  /// The tier's spec ({"full", 0-alphabet placeholder} when untiered).
  [[nodiscard]] const QosTier& tier_spec(std::size_t tier) const {
    return tiers_.at(tier).spec;
  }
  /// The engine a tier dispatches to.
  [[nodiscard]] const man::engine::FixedNetwork& tier_engine(
      std::size_t tier) const {
    return *tiers_.at(tier).engine;
  }

  [[nodiscard]] const man::engine::FixedNetwork& engine() const noexcept {
    return *engine_;
  }
  [[nodiscard]] const ServeConfig& config() const noexcept { return config_; }
  [[nodiscard]] Metrics metrics() const;

  /// Aggregate per-layer activity over everything served so far (the
  /// dispatch runner's stats; snapshot, taken between batches).
  [[nodiscard]] man::engine::EngineStats stats() const;

 private:
  struct Pending {
    std::vector<float> pixels;
    std::size_t count = 0;
    /// Co-batching flush trigger: enqueue time + max_wait, or the
    /// enqueue time itself when hard_deadline comes sooner.
    Clock::time_point flush_at;
    Clock::time_point hard_deadline;
    int priority = 0;
    Clock::time_point enqueued_at;
    Callback callback;
  };

  /// Shared admission path. Returns true if the request was queued;
  /// otherwise `rejection` holds the immediate result to deliver.
  bool try_enqueue(Pending&& pending, InferenceResult& rejection);

  /// One rung of the serving ladder: the spec, the engine (owned when
  /// the server was built from a TieredEngine, borrowed on the
  /// single-engine path), and the rung's dedicated BatchRunner (each
  /// runner binds one engine; they share the config's pool/backend).
  struct TierRunner {
    QosTier spec;
    std::shared_ptr<const man::engine::FixedNetwork> owned;
    const man::engine::FixedNetwork* engine = nullptr;
    std::unique_ptr<man::engine::BatchRunner> runner;
  };

  /// Common constructor tail once tiers_ is populated: resolves the
  /// backend name, sizes the per-tier metrics, seeds the stats
  /// snapshot and starts the dispatcher.
  void finish_init();
  /// Every tier runner's stats merged into one EngineStats, each
  /// labelled with its tier name (idle runners contribute layer
  /// geometry but no label vote). Only the dispatcher (or the
  /// constructor, before it starts) may call this — runner stats are
  /// not synchronized against a running batch.
  [[nodiscard]] man::engine::EngineStats merged_runner_stats() const;

  void dispatch_loop();
  /// Computes one micro-batch on `tier`: one result per request, in
  /// batch order (kShutdown for all when the engine fails).
  [[nodiscard]] std::vector<InferenceResult> run_batch(
      const std::vector<Pending>& batch, std::size_t total_samples,
      std::size_t tier);
  [[nodiscard]] std::chrono::nanoseconds estimated_delay_locked()
      const noexcept;

  const man::engine::FixedNetwork* engine_;
  ServeConfig config_;
  std::vector<TierRunner> tiers_;
  std::string backend_name_;  ///< resolved once; immutable thereafter

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  std::size_t queued_samples_ = 0;
  bool stopping_ = false;
  Metrics metrics_;
  /// EWMA of per-sample micro-batch wall time, for the queue-delay
  /// estimate (0 until the first batch lands).
  std::uint64_t ewma_ns_per_sample_ = 0;
  /// Copy of the runner's stats, refreshed after each batch so
  /// readers never race the dispatcher.
  man::engine::EngineStats stats_snapshot_;

  std::mutex shutdown_mutex_;  ///< serializes shutdown()/~InferenceServer
  std::thread dispatcher_;
};

}  // namespace man::serve

#endif  // MAN_SERVE_INFERENCE_SERVER_H
