#ifndef C2M_SERVICE_INGEST_HPP
#define C2M_SERVICE_INGEST_HPP

/**
 * @file
 * Asynchronous ingest service over the sharded engine.
 *
 * IngestService fronts a ShardedEngine with one bounded MPSC queue
 * per shard. Any number of producer threads submit() BatchOps; a
 * background drainer runs deterministic epochs:
 *
 *   1. cut: every shard queue's pending ops are swapped out (each
 *      cut is a FIFO prefix of that shard's submissions);
 *   2. coalesce: per shard, duplicate (counter, group) deltas are
 *      summed through a per-shard write-combining scratch table
 *      (core/coalesce.hpp) so a hot counter costs one fabric update
 *      per epoch;
 *   3. execute: the epoch's buckets run through the engine's
 *      hierarchical drain pipeline (ShardedEngine::runEpoch) on the
 *      lane pool — stage tasks are claimed by whichever lane is
 *      free, so one skewed shard cannot serialize the epoch behind
 *      busy lanes.
 *      With the engine's drain planner on
 *      (EngineConfig::drainPlanner, default), the epoch executes as
 *      ONE merged set of column-parallel digit planes, gang-issued
 *      across shards — at most D*(R-1) leader fabric programs per
 *      group per epoch instead of one replicated plan per shard;
 *      ServiceStats::plans* sample the per-epoch planner activity.
 *
 * Ordering and consistency:
 *  - Per (producer, shard), ops apply in submission order; a
 *    same-shard span submitted in one call lands in one epoch
 *    (capacity permitting). Cross-shard spans may straddle an epoch
 *    boundary — only per-shard atomicity is promised.
 *  - Epochs are barriers: epoch E finishes on every shard before
 *    E+1 cuts, so per-shard buckets never reorder and work stealing
 *    cannot change results — final counters are bit-identical to a
 *    single blocking engine replaying the same ops.
 *  - flush() returns an epoch token covering everything submitted
 *    before the call; wait(token) blocks until it is applied.
 *    snapshot()/readCounters() drain up to such a token and read
 *    the engine between epochs, so readers never observe a torn
 *    (partially applied) epoch; the snapshot may be newer than the
 *    token, never older.
 *
 * Backpressure is per shard queue: Block stalls producers until the
 * drainer catches up, Drop rejects the overflow and counts it.
 * While a service is attached, drive the engine only through it
 * (direct accumulateBatch/readAllCounters calls would race the
 * drainer).
 */

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "common/statfields.hpp"
#include "core/sharded.hpp"
#include "obs/metrics.hpp"
#include "service/queue.hpp"

namespace c2m {
namespace service {

struct IngestConfig
{
    size_t queueCapacity = 4096; ///< per-shard pending-op bound
    /**
     * Coalescing window: the drainer sleeps until this many ops are
     * queued (across all shards) before cutting an epoch. flush(),
     * stop() and full queues override it. Larger windows merge more
     * duplicates per epoch at the cost of ingest latency.
     */
    size_t minDrainOps = 1;
    bool coalesce = true;
    Backpressure backpressure = Backpressure::Block;
    /**
     * Fabric-time epoch sizing: when > 0, the drainer adapts its
     * coalescing window so one epoch executes about this much modeled
     * fabric time (EngineStats fabric ns, see docs/perf.md). An EWMA
     * of the observed per-op fabric cost converts the target into an
     * op-count window after each epoch; minDrainOps seeds the window
     * until the first sample lands. flush(), stop() and full queues
     * still cut immediately.
     */
    double targetEpochFabricNs = 0.0;
};

/**
 * ServiceStats fields, one row each (common/statfields.hpp). The plan*
 * and fabric* rows are sampled per epoch from the engine's
 * core::StatsWindow delta while the drainer holds the engine, so they
 * attribute column-parallel execution and modeled fabric cost to
 * ingest epochs even when other drivers (scrubber, tensor ops) share
 * the engine: engine.fabric.* remains the engine-lifetime total,
 * service fabric is the slice this service's epochs executed.
 */
#define C2M_SERVICE_STATS_FIELDS(X)                                   \
    X(uint64_t, submitted, "service.submitted", Sum) /* accepted */   \
    X(uint64_t, queued, "service.queued", Sum) /* pending (gauge) */  \
    X(uint64_t, dropped, "service.dropped", Sum) /* Drop rejects */   \
    X(uint64_t, stalls, "service.stalls", Sum) /* producer blocks */  \
    X(uint64_t, coalesced, "service.coalesced", Sum) /* merged away */ \
    X(uint64_t, flushedOps, "service.flushed_ops", Sum) /* executed */ \
    X(uint64_t, epochs, "service.epochs", Sum) /* epochs applied */   \
    X(uint64_t, steals, "service.steals", Sum) /* off-home buckets */ \
    X(uint64_t, plans, "service.plans", Sum)                          \
    X(uint64_t, planPrograms, "service.plan_programs", Sum)           \
    X(uint64_t, plannedOps, "service.planned_ops", Sum)               \
    X(uint64_t, planFallbackOps, "service.plan_fallback_ops", Sum)    \
    X(double, fabricNs, "service.fabric_ns", Sum)                     \
    X(double, fabricNj, "service.fabric_nj", Sum)

struct ServiceStats
{
    C2M_STATS_FIELDS(C2M_SERVICE_STATS_FIELDS)
    C2M_STATS_OPS(ServiceStats, C2M_SERVICE_STATS_FIELDS)
};

/**
 * Hook into the drainer's epoch boundary. The service invokes the
 * observer from the drainer thread while it holds the engine: after
 * an epoch's buckets have executed, onShardOps() reports each
 * shard's applied (coalesced) ops, then onEpochApplied() marks the
 * boundary — the engine is quiescent for its whole duration, so the
 * observer may drive it (this is where the reliability scrubber
 * sweeps counter rows). Both run *before* the epoch is marked
 * applied: snapshot readers waiting on the epoch see the
 * post-observer state. counters() is merged into report().
 */
class EpochObserver
{
  public:
    virtual ~EpochObserver() = default;

    /** Ops of @p shard just applied to the engine (epoch executing). */
    virtual void onShardOps(unsigned shard,
                            std::span<const core::BatchOp> ops) = 0;

    /** Epoch @p epoch fully executed; engine quiescent. */
    virtual void onEpochApplied(uint64_t epoch) = 0;

    /**
     * Service shutting down after the last ops were applied; the
     * engine stays quiescent from here on. Observers that defer work
     * across boundaries (budgeted/interval scrubbing) must finish it
     * now so post-stop engine reads see fully reconciled state.
     */
    virtual void onStop(uint64_t epoch) { onEpochApplied(epoch); }

    /** Named counters merged into IngestService::report(). */
    virtual CounterMap counters() const { return {}; }
};

/** Drain-latency distribution over recent epochs (microseconds). */
struct DrainLatency
{
    uint64_t samples = 0; ///< epochs timed (window-limited)
    uint64_t p50 = 0;
    uint64_t p95 = 0;
    uint64_t p99 = 0;
    uint64_t max = 0;
};

class IngestService
{
  public:
    /**
     * Attach to @p engine and start the drainer. The engine must
     * outlive the service and not be driven directly while attached.
     */
    explicit IngestService(core::ShardedEngine &engine,
                           const IngestConfig &cfg = {});
    ~IngestService();

    IngestService(const IngestService &) = delete;
    IngestService &operator=(const IngestService &) = delete;

    const IngestConfig &config() const { return cfg_; }
    core::ShardedEngine &engine() { return engine_; }

    /**
     * Attach an epoch-boundary observer (e.g. a
     * reliability::Scrubber). Must be called before any traffic is
     * submitted; the observer must outlive the service. Pass nullptr
     * to detach (only while idle).
     */
    void attachObserver(EpochObserver *observer);

    /**
     * Submit ops from any thread; returns how many were accepted
     * (all, under Block backpressure). Ops are routed to their
     * owning shard's queue; each shard's portion of the span is
     * enqueued contiguously.
     */
    size_t submit(std::span<const core::BatchOp> ops);
    bool submit(const core::BatchOp &op);

    /**
     * Epoch token covering every op submitted before this call;
     * wakes the drainer regardless of minDrainOps.
     */
    uint64_t flush();
    /** Block until epoch @p token has been applied. */
    void wait(uint64_t token);
    uint64_t flushAndWait();

    /**
     * Cut and apply one epoch even when no ops are queued, unlike
     * flush(), which short-circuits on an idle service. Epoch
     * observers that defer maintenance to boundaries (e.g. a
     * virtualized space whose deltas are all journaled host-side)
     * need a boundary to make progress on an otherwise idle
     * service. Returns the token to wait() on.
     */
    uint64_t forceEpoch();

    struct Snapshot
    {
        uint64_t epoch; ///< the applied epoch the counters reflect
        std::vector<int64_t> counters;
    };

    /**
     * Epoch-consistent read: drains everything submitted before the
     * call, then reads the full counter space between epochs. The
     * returned epoch is >= the flush token — never a torn batch.
     */
    Snapshot snapshot(unsigned group = 0);
    std::vector<int64_t> readCounters(unsigned group = 0);

    /**
     * Drain every queued op and join the drainer (idempotent; the
     * destructor calls it). Ops accepted before the queues close are
     * never lost: if any are still queued once the drainer has
     * joined, stop() runs them as one more ordinary epoch on the
     * calling thread — it advances the epoch counter, and an
     * attached observer sees onEpochApplied for it before onStop.
     * Ops submitted after stop() closes the queues are rejected.
     */
    void stop();

    ServiceStats serviceStats() const;
    /**
     * Current coalescing window in ops: minDrainOps, or the adapted
     * window when targetEpochFabricNs is set.
     */
    size_t effectiveMinDrainOps() const
    {
        return dynamicMinDrainOps_.load(std::memory_order_relaxed);
    }
    /** Engine stats, read race-free against the drainer. */
    core::EngineStats engineStats() const;
    /**
     * Merged service.* + engine.* (+ observer) counters plus the
     * drain-latency percentiles, renderCounters-ready.
     */
    CounterMap report() const;

    /**
     * p50/p95/p99/max of the per-epoch drain latency (cut through
     * observer hooks) over the service lifetime. Quantiles come from
     * a log-bucketed histogram: exact below 4 us, within one bucket
     * width (<= 25% relative) above.
     */
    DrainLatency drainLatency() const;

    /** The underlying drain-latency histogram (for MetricsRegistry). */
    const obs::LogHistogram &drainHistogram() const { return drainHist_; }

  private:
    struct Bucket
    {
        unsigned shard;
        std::vector<core::BatchOp> ops;
    };

    void drainerLoop();
    /** Cut + coalesce + execute one epoch; returns ops cut. */
    size_t runEpoch(uint64_t epoch);
    void executeEpoch(uint64_t epoch, std::vector<Bucket> &buckets,
                      ServiceStats &epoch_stats);
    /** Producer-side: force a drain now (full queue, flush). */
    void kick();

    /** Record one epoch's drain time (thread-safe). */
    void recordDrainLatency(uint64_t us);

    core::ShardedEngine &engine_;
    const IngestConfig cfg_;
    EpochObserver *observer_ = nullptr;
    std::vector<std::unique_ptr<BoundedOpQueue>> queues_;
    /** Total pending ops; adjusted under the owning queue's mutex. */
    std::atomic<size_t> queuedOps_{0};

    mutable std::mutex m_;
    std::condition_variable drainCv_; ///< wakes the drainer
    std::condition_variable epochCv_; ///< wakes wait()ers
    uint64_t cutEpoch_ = 0;     ///< epochs started  (guarded by m_)
    uint64_t appliedEpoch_ = 0; ///< epochs finished (guarded by m_)
    uint64_t flushTarget_ = 0;  ///< newest token    (guarded by m_)
    bool forceDrain_ = false;   ///< guarded by m_
    bool stop_ = false;         ///< guarded by m_
    bool stopFinalized_ = false; ///< stop() ran once (guarded by m_)
    ServiceStats stats_;        ///< epoch-side sums (guarded by m_)
    /** Coalescing window in ops; adapted by fabric-time sizing. */
    std::atomic<size_t> dynamicMinDrainOps_{1};
    /** EWMA of modeled fabric ns per flushed op (guarded by m_). */
    double ewmaOpNs_ = 0.0;

    /**
     * Per-epoch drain latency distribution in us: a log-bucketed
     * concurrent histogram (obs::) instead of the old exact-sample
     * ring — unbounded history, fixed footprint, lock-free record.
     */
    obs::LogHistogram drainHist_;

    /** Serializes epoch execution against snapshot reads. */
    mutable std::mutex engineMutex_;
    /**
     * Epoch-side state, touched by the drainer thread or by stop()
     * after the drainer joined: last epoch executed per shard (FIFO
     * assert) and per-shard write-combining coalesce tables.
     */
    std::vector<uint64_t> lastShardEpoch_;
    std::vector<core::CoalesceScratch> coalesceScratch_;
    /** Per-epoch engine sampling window (guarded by engineMutex_). */
    core::StatsWindow epochWindow_;

    std::thread drainer_;
};

/**
 * Split @p ops into @p num_producers contiguous slices and submit
 * each from its own producer thread (num_producers == 0 behaves as
 * 1). Returns the total ops accepted. Final counter values equal a
 * serial submission of @p ops: per-counter sums commute, whatever
 * epoch each slice lands in.
 */
size_t submitConcurrent(IngestService &service,
                        std::span<const core::BatchOp> ops,
                        unsigned num_producers);

} // namespace service
} // namespace c2m

#endif // C2M_SERVICE_INGEST_HPP
