#include "service/ingest.hpp"

#include <algorithm>
#include <chrono>

#include "common/logging.hpp"
#include "obs/trace.hpp"

namespace c2m {
namespace service {

IngestService::IngestService(core::ShardedEngine &engine,
                             const IngestConfig &cfg)
    : engine_(engine), cfg_(cfg), epochWindow_(engine)
{
    C2M_ASSERT(cfg_.queueCapacity >= 1,
               "queueCapacity must be >= 1");
    dynamicMinDrainOps_.store(std::max<size_t>(1, cfg_.minDrainOps),
                              std::memory_order_relaxed);
    lastShardEpoch_.assign(engine_.numShards(), 0);
    coalesceScratch_.resize(engine_.numShards());
    for (unsigned s = 0; s < engine_.numShards(); ++s)
        queues_.push_back(std::make_unique<BoundedOpQueue>(
            cfg_.queueCapacity, cfg_.backpressure,
            [this] { kick(); }, s));
    drainer_ = std::thread([this] { drainerLoop(); });
}

IngestService::~IngestService() { stop(); }

void
IngestService::attachObserver(EpochObserver *observer)
{
    std::lock_guard<std::mutex> lk(m_);
    if (observer) {
        C2M_ASSERT(cutEpoch_ == 0 &&
                       queuedOps_.load(std::memory_order_relaxed) ==
                           0,
                   "attach the epoch observer before submitting "
                   "traffic");
    } else {
        // Detach requires a quiescent service (no epoch in flight,
        // nothing queued, no concurrent producers).
        C2M_ASSERT(cutEpoch_ == appliedEpoch_ &&
                       queuedOps_.load(std::memory_order_relaxed) ==
                           0,
                   "detach the epoch observer only while idle");
    }
    observer_ = observer;
}

size_t
IngestService::submit(std::span<const core::BatchOp> ops)
{
    if (ops.empty())
        return 0;
    // Pre-charge the gauge so an op sitting in a queue is always
    // counted; rejected ops are refunded below. Overcounting between
    // the two points only wakes the drainer early.
    queuedOps_.fetch_add(ops.size(), std::memory_order_relaxed);
    size_t accepted = 0;
    const unsigned nshards = engine_.numShards();
    if (nshards == 1) {
        accepted = queues_[0]->push(ops);
    } else if (ops.size() == 1) {
        // Single-op hot path: route directly, no group buffers.
        accepted =
            queues_[engine_.shardOf(ops[0].counter)]->push(ops);
    } else {
        // Bucket by owning shard, preserving order, so each shard's
        // portion is pushed contiguously under one queue lock (one
        // epoch, capacity permitting).
        std::vector<std::vector<core::BatchOp>> groups(nshards);
        for (const auto &op : ops)
            groups[engine_.shardOf(op.counter)].push_back(op);
        for (unsigned s = 0; s < nshards; ++s)
            if (!groups[s].empty())
                accepted += queues_[s]->push(groups[s]);
    }
    if (accepted < ops.size())
        queuedOps_.fetch_sub(ops.size() - accepted,
                             std::memory_order_relaxed);
    if (accepted > 0 && queuedOps_.load(std::memory_order_relaxed) >=
                            effectiveMinDrainOps()) {
        std::lock_guard<std::mutex> lk(m_);
        drainCv_.notify_one();
    }
    return accepted;
}

bool
IngestService::submit(const core::BatchOp &op)
{
    return submit(std::span<const core::BatchOp>(&op, 1)) == 1;
}

uint64_t
IngestService::flush()
{
    std::lock_guard<std::mutex> lk(m_);
    // Nothing queued and no epoch in flight: already satisfied.
    if (stop_ || (cutEpoch_ == appliedEpoch_ &&
                  queuedOps_.load(std::memory_order_relaxed) == 0))
        return appliedEpoch_;
    const uint64_t token = cutEpoch_ + 1;
    flushTarget_ = std::max(flushTarget_, token);
    drainCv_.notify_one();
    return token;
}

void
IngestService::wait(uint64_t token)
{
    std::unique_lock<std::mutex> lk(m_);
    C2M_ASSERT(token <= std::max(flushTarget_, appliedEpoch_),
               "epoch token ", token, " was never issued");
    epochCv_.wait(lk, [&] { return appliedEpoch_ >= token; });
}

uint64_t
IngestService::flushAndWait()
{
    const uint64_t token = flush();
    wait(token);
    return token;
}

uint64_t
IngestService::forceEpoch()
{
    std::lock_guard<std::mutex> lk(m_);
    if (stop_)
        return appliedEpoch_;
    const uint64_t token = cutEpoch_ + 1;
    flushTarget_ = std::max(flushTarget_, token);
    drainCv_.notify_one();
    return token;
}

IngestService::Snapshot
IngestService::snapshot(unsigned group)
{
    wait(flush());
    // Holding engineMutex_ keeps the drainer out of its execute
    // phase, so the read happens exactly at an epoch boundary (>= the
    // flush token; cuts may still proceed concurrently).
    std::lock_guard<std::mutex> ek(engineMutex_);
    uint64_t epoch;
    {
        std::lock_guard<std::mutex> lk(m_);
        epoch = appliedEpoch_;
    }
    return {epoch, engine_.readAllCounters(group)};
}

std::vector<int64_t>
IngestService::readCounters(unsigned group)
{
    return snapshot(group).counters;
}

void
IngestService::stop()
{
    {
        std::lock_guard<std::mutex> lk(m_);
        stop_ = true;
        drainCv_.notify_one();
    }
    if (drainer_.joinable())
        drainer_.join();
    EpochObserver *observer;
    {
        // The leftover-epoch + observer shutdown turn runs once;
        // a second stop() (typically the destructor's) must not call
        // back into an observer the caller may have destroyed. The
        // observer pointer is snapshotted under m_ like report()'s.
        std::lock_guard<std::mutex> lk(m_);
        if (stopFinalized_)
            return;
        stopFinalized_ = true;
        observer = observer_;
    }
    for (auto &q : queues_)
        q->close();
    // Ops accepted between the drainer's last epoch and close() run
    // as one more epoch on this thread, so accepted work is never
    // lost. A closed queue accepts nothing, so the sizes are exact.
    bool leftover = false;
    for (const auto &q : queues_)
        leftover |= q->sizeApprox() > 0;
    if (leftover) {
        uint64_t epoch;
        {
            std::lock_guard<std::mutex> lk(m_);
            epoch = ++cutEpoch_;
        }
        runEpoch(epoch);
    }
    // Final observer turn: an attached scrubber must reconcile
    // everything it deferred (budgeted or interval-spaced sweeps)
    // before the engine is read post-stop.
    if (observer) {
        std::lock_guard<std::mutex> ek(engineMutex_);
        uint64_t final_epoch;
        {
            std::lock_guard<std::mutex> lk(m_);
            final_epoch = appliedEpoch_;
        }
        observer->onStop(final_epoch);
    }
}

ServiceStats
IngestService::serviceStats() const
{
    ServiceStats s;
    {
        std::lock_guard<std::mutex> lk(m_);
        s = stats_;
    }
    for (const auto &q : queues_) {
        const auto qs = q->stats();
        s.submitted += qs.submitted;
        s.dropped += qs.dropped;
        s.stalls += qs.stalls;
    }
    s.queued = queuedOps_.load(std::memory_order_relaxed);
    return s;
}

core::EngineStats
IngestService::engineStats() const
{
    std::lock_guard<std::mutex> ek(engineMutex_);
    return engine_.stats();
}

CounterMap
IngestService::report() const
{
    CounterMap merged = serviceStats().toCounters();
    mergeCounters(merged, engineStats().toCounters());
    const auto lat = drainLatency();
    merged["service.drain_p50_us"] = lat.p50;
    merged["service.drain_p95_us"] = lat.p95;
    merged["service.drain_p99_us"] = lat.p99;
    merged["service.drain_max_us"] = lat.max;
    EpochObserver *observer;
    {
        // Snapshot under m_: attachObserver() writes under the same
        // lock, so a detach racing this report is ordered.
        std::lock_guard<std::mutex> lk(m_);
        observer = observer_;
    }
    if (observer)
        mergeCounters(merged, observer->counters());
    return merged;
}

void
IngestService::kick()
{
    std::lock_guard<std::mutex> lk(m_);
    forceDrain_ = true;
    drainCv_.notify_one();
}

void
IngestService::drainerLoop()
{
    for (;;) {
        uint64_t epoch;
        {
            std::unique_lock<std::mutex> lk(m_);
            drainCv_.wait(lk, [&] {
                return stop_ || forceDrain_ ||
                       flushTarget_ > cutEpoch_ ||
                       queuedOps_.load(std::memory_order_relaxed) >=
                           effectiveMinDrainOps();
            });
            const bool work_left =
                flushTarget_ > cutEpoch_ ||
                queuedOps_.load(std::memory_order_relaxed) > 0;
            if (stop_ && !work_left)
                break;
            forceDrain_ = false;
            epoch = ++cutEpoch_;
        }
        runEpoch(epoch);
    }
}

size_t
IngestService::runEpoch(uint64_t epoch)
{
    obs::ScopedSpan epoch_span("epoch", obs::kServiceTrack);
    std::vector<Bucket> buckets;
    size_t cut_total = 0;
    {
        obs::ScopedSpan cut_span("epoch.cut", obs::kServiceTrack);
        for (unsigned s = 0; s < engine_.numShards(); ++s) {
            auto ops = queues_[s]->cut();
            if (ops.empty())
                continue;
            cut_total += ops.size();
            buckets.push_back({s, std::move(ops)});
        }
        queuedOps_.fetch_sub(cut_total, std::memory_order_relaxed);
    }
    if (auto *tr = obs::tracer())
        tr->counter("service.queued", obs::kServiceTrack,
                    queuedOps_.load(std::memory_order_relaxed));

    ServiceStats es;
    es.epochs = 1;
    if (cfg_.coalesce) {
        obs::ScopedSpan co_span("epoch.coalesce", obs::kServiceTrack);
        // Per-shard write-combining tables persist across epochs, so
        // the steady-state coalesce pass allocates only the output
        // vector it hands to the bucket.
        core::CoalesceResult r;
        for (auto &b : buckets) {
            core::coalesceOps(b.ops, coalesceScratch_[b.shard], r);
            es.coalesced += r.merged;
            b.ops = std::move(r.ops);
        }
    }
    for (const auto &b : buckets)
        es.flushedOps += b.ops.size();

    const auto t0 = std::chrono::steady_clock::now();
    {
        std::lock_guard<std::mutex> ek(engineMutex_);
        epochWindow_.reopen();
        {
            // The fabric clock of the trace is the engine-lifetime
            // fabric total.
            obs::ScopedSpan x_span(
                "epoch.execute", obs::kServiceTrack,
                obs::tracer() ? engine_.stats().fabric.fabricNs : 0.0);
            executeEpoch(epoch, buckets, es);
            if (x_span.active())
                x_span.setFabricEnd(engine_.stats().fabric.fabricNs);
        }
        // Attribute the drain's planner and fabric activity to this
        // epoch.
        const core::EngineStats d = epochWindow_.delta();
        es.plans += d.plansExecuted;
        es.planPrograms += d.planPrograms;
        es.plannedOps += d.plannedOps;
        es.planFallbackOps += d.planFallbackOps;
        es.fabricNs += d.fabric.fabricNs;
        es.fabricNj += d.fabric.fabricNj;
        if (auto *tr = obs::tracer()) {
            // Program-cache hit/miss bursts, sampled per epoch: the
            // counter track's slope shows cache-busting epochs.
            const auto lifetime = engine_.stats();
            tr->counter("progcache.hits", obs::kServiceTrack,
                        lifetime.programCacheHits);
            tr->counter("progcache.misses", obs::kServiceTrack,
                        lifetime.programCacheMisses);
        }
        if (observer_) {
            // Observer hooks run before the epoch is marked applied,
            // so a scrub at the boundary is visible to every snapshot
            // waiting on this epoch.
            obs::ScopedSpan ob_span("epoch.observer",
                                    obs::kServiceTrack);
            for (const auto &b : buckets)
                observer_->onShardOps(b.shard, b.ops);
            observer_->onEpochApplied(epoch);
        }
        const auto us =
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - t0)
                .count();
        // Applied-marking happens inside engineMutex_ so a snapshot
        // taken between epochs sees an epoch label matching the
        // counters it reads.
        std::lock_guard<std::mutex> lk(m_);
        appliedEpoch_ = epoch;
        stats_ += es;
        if (cfg_.targetEpochFabricNs > 0.0 && es.flushedOps > 0 &&
            es.fabricNs > 0.0) {
            // Fabric-time epoch sizing: fold this epoch's modeled
            // per-op cost into the EWMA and retarget the coalescing
            // window so the next epoch drains ~targetEpochFabricNs
            // of fabric time. Capped at one queue's capacity so the
            // window can always fill without producer stalls forcing
            // the cut.
            const double op_ns =
                es.fabricNs / static_cast<double>(es.flushedOps);
            ewmaOpNs_ = ewmaOpNs_ > 0.0
                            ? 0.75 * ewmaOpNs_ + 0.25 * op_ns
                            : op_ns;
            double window = cfg_.targetEpochFabricNs / ewmaOpNs_;
            if (window < 1.0)
                window = 1.0;
            const double cap =
                static_cast<double>(cfg_.queueCapacity);
            if (window > cap)
                window = cap;
            dynamicMinDrainOps_.store(
                static_cast<size_t>(window),
                std::memory_order_relaxed);
        }
        recordDrainLatency(static_cast<uint64_t>(us));
        epochCv_.notify_all();
    }
    return cut_total;
}

void
IngestService::recordDrainLatency(uint64_t us)
{
    drainHist_.record(us);
}

DrainLatency
IngestService::drainLatency() const
{
    DrainLatency out;
    out.samples = drainHist_.count();
    if (out.samples == 0)
        return out;
    out.p50 = drainHist_.percentile(0.50);
    out.p95 = drainHist_.percentile(0.95);
    out.p99 = drainHist_.percentile(0.99);
    out.max = drainHist_.max();
    return out;
}

void
IngestService::executeEpoch(uint64_t epoch,
                            std::vector<Bucket> &buckets,
                            ServiceStats &epoch_stats)
{
    for (const auto &b : buckets) {
        // The stealing contract: whole ready buckets only, applied in
        // strictly increasing epoch order per shard.
        C2M_ASSERT(lastShardEpoch_[b.shard] < epoch,
                   "bucket reorder on shard ", b.shard);
        lastShardEpoch_[b.shard] = epoch;
    }
    // One call per epoch into the engine's hierarchical drain
    // pipeline: per-shard combine/count stages run on the lane pool's
    // claim loop, the merged scan/offset plan is priced globally, and
    // cross-shard plane programs gang-issue instead of replicating
    // per shard.
    std::vector<core::ShardedEngine::EpochBucket> eb;
    eb.reserve(buckets.size());
    for (const auto &b : buckets)
        eb.push_back({b.shard, b.ops});
    epoch_stats.steals += engine_.runEpoch(eb);
}

size_t
submitConcurrent(IngestService &service,
                 std::span<const core::BatchOp> ops,
                 unsigned num_producers)
{
    const unsigned n = std::max(1u, num_producers);
    if (n == 1 || ops.size() < n)
        return service.submit(ops);
    std::atomic<size_t> accepted{0};
    std::vector<std::thread> producers;
    producers.reserve(n);
    const size_t per = (ops.size() + n - 1) / n;
    for (unsigned p = 0; p < n; ++p) {
        const size_t lo = p * per;
        const size_t hi = std::min(ops.size(), lo + per);
        if (lo >= hi)
            break;
        producers.emplace_back([&, lo, hi] {
            accepted.fetch_add(
                service.submit(ops.subspan(lo, hi - lo)),
                std::memory_order_relaxed);
        });
    }
    for (auto &t : producers)
        t.join();
    return accepted.load(std::memory_order_relaxed);
}

} // namespace service
} // namespace c2m
