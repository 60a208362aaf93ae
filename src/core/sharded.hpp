#ifndef C2M_CORE_SHARDED_HPP
#define C2M_CORE_SHARDED_HPP

/**
 * @file
 * Sharded batch counting engine.
 *
 * A ShardedEngine owns N independent C2MEngine shards. The logical
 * counter space [0, numCounters) is split into N contiguous column
 * ranges; each shard simulates only its own (narrower) Ambit
 * subarray, with its own RNG stream derived from EngineConfig::seed
 * and its own EngineStats. Shards share no mutable state, so a batch
 * executes with no locks on the hot path: ops are bucketed per shard
 * on the host, and every parallel per-shard task — broadcasts, tensor
 * ops, epoch stages, scrub sweeps — goes through one claim loop
 * (runShards): free pool lanes claim the listed shards from a shared
 * index, and each shard's task runs start to finish on one worker
 * inside the shard's single-writer guard. Which lane runs a shard
 * depends on scheduling; what a shard computes depends only on the
 * order its tasks are called in.
 *
 * Two ingest paths:
 *  - accumulateBatch(): histogram-style point updates, each routed to
 *    the single shard owning the target counter. Because that shard's
 *    subarray holds only 1/N of the columns, every row operation the
 *    update expands into touches 1/N of the bits — the batch gets
 *    faster per op as shards are added even on one core, and shards
 *    run concurrently on top of that.
 *  - accumulate()/accumulateSigned() with a mask handle: the classic
 *    broadcast path. Masks registered through addMask() are sliced
 *    column-wise across shards, and the increment fans out to all
 *    shards in parallel.
 *
 * Digit-plane drain planner (EngineConfig::drainPlanner, default on):
 * a shard bucket of point updates is not replayed one op at a time —
 * its deltas are summed per (counter, group) once, on every path, and
 * the planner decomposes the sums into radix-R digits, and for every
 * populated (digit position d, digit value k) builds ONE shared plane
 * mask covering all counters whose delta has digit k at position d.
 * Each plane costs a single masked karyIncrement, so a bucket of N
 * ops executes in at most D*(R-1) column-parallel fabric programs
 * per group (Fig. 15) instead of N whole-row program sequences. Every plane is written through one
 * reserved plane-mask row per shard; cached increment programs bind
 * that row when they run, so their keys depend only on (digit, k)
 * and replay across planes and epochs. Signed-mode groups, buckets
 * with a negative sum, and buckets whose modeled fabric cost
 * (C2mCostModel's k-ary/IARM command counts priced by DramTimings)
 * does not beat per-op replay of the same sums fall back to the
 * serial path; either path yields bit-identical counter values.
 *
 * Hierarchical (global-then-sliced) planning — runEpoch(): draining
 * one bucket per shard through runShardOps replicates every plane
 * program N times, which makes plan fabric time exactly linear in
 * shard count. runEpoch instead runs the classic radix-count stage
 * split over ALL buckets of an epoch:
 *
 *   1. combine — per shard (parallel, host-only): sum each
 *      (counter, group) delta of the bucket, the only coalescing
 *      pass on any path, and partition the sums by group;
 *   2. count — per shard (same pass): decompose the sums into one
 *      per-(digit, k) plane histogram;
 *   3. scan/offset — host-serial: merge the per-shard histograms
 *      into ONE global plan per group, price plan-vs-fallback on the
 *      merged plan, and slice it back: for every (digit, k) plane
 *      the lowest shard holding it becomes the gang LEADER that
 *      issues the plane program (FabricCat::Plan); the other shards
 *      execute the identical command stream in the leader's issue
 *      slots as FOLLOWERS (FabricCat::PlanFanout, commands counted
 *      as ganged). Per-shard IARM preparation runs here, host-side,
 *      with the same per-shard worst profiles independent plans
 *      would use, so scheduler state is bit-identical either way;
 *   4. execute — per shard (parallel): each shard writes its own
 *      plane-mask slices into its plane row (never ganged) and
 *      executes its slice of the merged plan.
 *
 * Ganged follower commands ride the leader's rank-window slots, so
 * stats() excludes them from the tFAW/tRRD rank floor: plan fabric
 * attribution becomes sublinear in shard count while the ledger
 * stays bit-exact (the fan-out cost is visible in its own row).
 *
 * Results are bit-identical to a single C2MEngine over the full
 * counter space on the same op stream (columns are independent in the
 * Ambit simulation), and independent of the thread count: per-shard
 * op order is fixed by the batch order, not by scheduling.
 */

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "common/bitvec.hpp"
#include "common/stats.hpp"
#include "core/coalesce.hpp"
#include "core/engine.hpp"
#include "core/threadpool.hpp"

namespace c2m {
namespace reliability {
class Scrubber;
}

namespace core {

class ShardedEngine
{
  public:
    /**
     * @param cfg logical configuration; cfg.numCounters is the total
     *        counter count across all shards, cfg.seed the root seed
     *        from which per-shard streams are split.
     * @param num_shards shard count (>= 1, <= cfg.numCounters).
     * @param num_threads pool size; 0 means one thread per shard.
     */
    ShardedEngine(const EngineConfig &cfg, unsigned num_shards,
                  unsigned num_threads = 0);

    const EngineConfig &config() const { return cfg_; }
    unsigned numShards() const
    {
        return static_cast<unsigned>(shards_.size());
    }
    size_t numCounters() const { return cfg_.numCounters; }

    C2MEngine &shard(unsigned s) { return *shards_[s]; }
    const C2MEngine &shard(unsigned s) const { return *shards_[s]; }
    /** Shard owning logical counter @p counter. */
    unsigned shardOf(uint64_t counter) const;
    /** First logical counter of shard @p s. */
    size_t shardStart(unsigned s) const { return starts_[s]; }
    /** Column count of shard @p s. */
    size_t shardWidth(unsigned s) const
    {
        return starts_[s + 1] - starts_[s];
    }

    /**
     * Register a mask over the full logical counter space; each shard
     * receives its column slice. Returns a handle valid for the
     * broadcast accumulate()/accumulateSigned() calls.
     */
    unsigned addMask(const std::vector<uint8_t> &mask);
    unsigned numMasks() const { return numMasks_; }
    void setMask(unsigned handle, const std::vector<uint8_t> &mask);

    /** Execute a batch of point updates; returns when all are done. */
    void accumulateBatch(std::span<const BatchOp> ops);

    /**
     * One shard's ops for an epoch drain, as cut (stage 1 coalesces
     * them): at most one bucket per shard, ops all owned by that
     * shard. The spans must stay valid for the duration of the
     * runEpoch call.
     */
    struct EpochBucket
    {
        unsigned shard;
        std::span<const BatchOp> ops;
    };

    /**
     * Drain one epoch's buckets through the hierarchical radix-count
     * pipeline (see the file comment): parallel combine/count per
     * bucket, one merged scan/offset plan per group priced globally
     * and sliced back with gang-issue roles, then parallel sliced
     * execution. Both parallel stages run through runShards. Stages
     * 1+2 run inside an `epoch.prepare` trace span and stage 3
     * inside `epoch.plan`. Returns the execute-stage steals (buckets
     * run off their home lane). Counter results are bit-identical to
     * draining each bucket through runShardOps, and to replaySerial
     * on the concatenated op stream.
     */
    uint64_t runEpoch(std::span<const EpochBucket> buckets);

    /**
     * Execute a ready bucket of point updates, all owned by shard
     * @p s, on the calling thread in bucket order. Any thread may run
     * any shard's bucket, but shards are strictly single-writer —
     * concurrent callers on one shard panic, and per-shard op order
     * is whatever order the buckets are run in.
     */
    void runShardOps(unsigned s, std::span<const BatchOp> ops);

    /**
     * Run an arbitrary task against shard @p s on the calling thread
     * under the same single-writer guard as runShardOps: two writers
     * inside one shard panic. @p fn receives the shard engine and the
     * shard's first logical counter index.
     */
    void runShardTask(
        unsigned s,
        const std::function<void(C2MEngine &, size_t)> &fn);

    /** Broadcast @p value to masked counters on every shard. */
    void accumulate(uint64_t value, unsigned mask_handle,
                    unsigned group = 0);
    void accumulateSigned(int64_t value, unsigned mask_handle,
                          unsigned group = 0);

    /** Counter values over the full logical space, in logical order. */
    std::vector<int64_t> readAllCounters(unsigned group = 0);

    // ---- Tensor-style fan-out (each runs on all shards) ----
    void addCounters(unsigned dst_group, unsigned src_group);
    void relu(unsigned group);
    /**
     * counters <<= amount on every shard; @p spare_group is clobbered
     * as scratch (matches C2MEngine::shiftLeft).
     */
    void shiftLeft(unsigned group, unsigned spare_group,
                   unsigned amount);
    void drain(unsigned group);
    void clear();

    /** Lifetime stats: statsSince() a window that starts at zero. */
    EngineStats stats() const;

    /**
     * Merged stats of the work done since @p begin, a snapshot of
     * every shard's stats (empty: since construction). Per-shard
     * deltas are summed with EngineStats::operator+=; the critical
     * path is recomputed from them as the slowest shard's serial
     * fabric time (one shard is one bank), floored on the DRAM
     * backends by the rank window over the deltas' non-ganged
     * commands. Subtracting two merged critical paths would not give
     * the window's critical path. Call while quiescent.
     */
    EngineStats statsSince(std::span<const EngineStats> begin) const;

  private:
    /** Scrub sweeps run through runShards over allShards_. */
    friend class reliability::Scrubber;

    /**
     * Internal mask handle reserved per shard for point updates; kept
     * apart from the plane row so runShardSerial can skip rewriting
     * it while the target column is unchanged.
     */
    static constexpr unsigned kPointMask = 0;
    /** Internal mask handle every digit plane is written through. */
    static constexpr unsigned kPlaneMask = 1;
    /** Shard mask handles below this are internal. */
    static constexpr unsigned kReservedMasks = 2;

    /**
     * One group's slice of a shard's summed bucket, carried through
     * the epoch pipeline: stage 1/2 fill ops and planes, stage 3
     * decides `planned` and fills steps/pre with gang roles,
     * stage 4 executes. Reused across epochs so the steady-state
     * drain path performs no per-op allocation (plane masks are
     * lazily sized once per part, D x (R-1) shard-width rows).
     */
    struct PlanPart
    {
        uint32_t group = 0;
        /**
         * Summed ops of this part, one per (counter, group): a view
         * into the shard's `sums` on the single-group fast path, into
         * `own` when the sums had to be partitioned by group.
         */
        std::span<const BatchOp> ops;
        std::vector<BatchOp> own; ///< backing store (multi-group)
        /** Plane masks, indexed digit * (R-1) + (k-1). */
        std::vector<BitVector> planes;
        std::vector<uint8_t> planeUsed; ///< build-pass dirty flags
        std::vector<uint32_t> touched;  ///< plane indices this plan
        std::vector<MaskedStep> steps;  ///< stage-3 sliced program
        std::vector<PlanRipple> pre;    ///< scheduled IARM ripples
        /** Modeled ns of replaying this part's ops per-op. */
        double fallbackNs = 0.0;
        /** Plan candidate after stage 2; final verdict after 3. */
        bool planned = false;
    };

    /**
     * Per-shard planner workspace. Reused across buckets so the
     * steady-state drain path performs no per-op allocation: the
     * point mask is updated two bits at a time, the delta summer's
     * table and output and the part list keep their capacity between
     * epochs.
     * Guarded by the shard's single-writer discipline like the
     * engine itself — except stage 3, which runs host-serial across
     * all shards of an epoch with no stage-1/4 task in flight.
     */
    struct PlannerScratch
    {
        BitVector pointMask; ///< reusable single-bit point mask
        size_t pointCol;     ///< column currently set in pointMask
        /** Per-(counter, group) delta sums of the current bucket. */
        CoalesceScratch summer;
        std::vector<BatchOp> sums;
        /** Group partition of this shard's bucket, parts[0..used). */
        std::vector<PlanPart> parts;
        size_t partsUsed = 0;
        /** Modeled ns to rewrite one of this shard's mask rows. */
        double maskWriteNs = 0.0;
    };

    /**
     * Pipeline stages 1+2 for one shard (host-only, no fabric work):
     * sum each (counter, group) delta of @p ops, partition the sums
     * by group, then per part build the per-(digit, k) plane
     * histogram and price the per-op replay alternative. Caller
     * holds the shard's single-writer guard.
     */
    void prepareShardParts(unsigned s, std::span<const BatchOp> ops);
    /** Stage 2 for one part: planes and fallback price. */
    void analyzePart(unsigned s, PlanPart &part);
    /**
     * Stage 3 (host-serial): for every distinct group across
     * @p shard_ids, price ONE merged plan (union of planes, leader
     * issue slots) against the summed per-part replay price, commit
     * or demote all candidate parts together, slice the plan back
     * per shard with gang-issue roles, and run each committed
     * shard's IARM preparation.
     */
    void planParts(std::span<const unsigned> shard_ids);
    /**
     * Stage 4 for one shard: execute each part's plan slice, or
     * replay it per-op, inside the shard.drain trace span. Caller
     * holds the shard's single-writer guard.
     */
    void execShardParts(unsigned s);
    /** Per-op replay of @p ops through the shard's point mask. */
    void runShardSerial(unsigned s, std::span<const BatchOp> ops);
    /**
     * Run @p fn(engine, s) once for each shard s in @p shards, each
     * call inside that shard's single-writer guard, and drain. One
     * claim loop per lane (at most one per shard) pops shards off a
     * shared index in list order, so an idle lane picks up the next
     * shard instead of waiting behind a busy one. Each shard runs its
     * tasks in call order whatever lane claims them, which keeps
     * counter values, command streams and the fabric ledger
     * independent of scheduling. Returns the steals: shards run off
     * their home lane (s % pool size). Must not be called from a pool
     * worker.
     */
    uint64_t runShards(
        std::span<const unsigned> shards,
        const std::function<void(C2MEngine &, unsigned)> &fn);

    EngineConfig cfg_;
    std::vector<size_t> starts_; ///< numShards+1 range boundaries
    std::vector<std::unique_ptr<C2MEngine>> shards_;
    std::vector<PlannerScratch> scratch_; ///< one per shard
    /** Single-writer flag per shard (see ShardGuard in sharded.cpp). */
    std::unique_ptr<std::atomic<bool>[]> shardBusy_;
    unsigned numMasks_ = 0;
    /**
     * Modeled ns of one masked k-ary increment program, indexed by
     * k (entry 0 unused): C2mCostModel command counts (RcaCostModel
     * for the RCA backend) priced at the substrate's per-command ns.
     * Drives the merged plan-vs-fallback decision in planParts.
     */
    std::vector<double> planIncNs_;
    /**
     * Largest delta one accumulate call takes: R^(D-1) - 1 on the JC
     * backends (the top digit is the guard), unbounded on RCA.
     */
    int64_t maxStep_ = std::numeric_limits<int64_t>::max();
    /** Every shard, in order: the list broadcasts run over. */
    std::vector<unsigned> allShards_;
    ThreadPool pool_;
};

/**
 * A measurement window over a ShardedEngine: snapshots every shard's
 * stats when opened and reports the work done since as merged deltas,
 * with the critical path recomputed from the per-shard deltas
 * (ShardedEngine::statsSince). Every "this batch only" number — bench
 * cells, per-epoch service sampling — comes from a window, so no
 * reader subtracts merged stats field by field. Open and read only
 * while the engine is quiescent; reopen() reuses the snapshot storage,
 * so a long-lived window samples without allocating.
 */
class StatsWindow
{
  public:
    /** Opens the window at @p engine's current stats. */
    explicit StatsWindow(const ShardedEngine &engine);

    /**
     * A window that starts at zero: the engine's whole life, the
     * fabric work of its construction included. Its delta() equals
     * ShardedEngine::stats().
     */
    static StatsWindow lifetime(const ShardedEngine &engine);

    /** Move the window's start to now. */
    void reopen();

    /** Merged work since the window opened. */
    EngineStats delta() const { return engine_.statsSince(begin_); }

    /** Work shard @p s did since the window opened. */
    EngineStats shardDelta(unsigned s) const
    {
        return engine_.shard(s).stats() - begin_[s];
    }

  private:
    const ShardedEngine &engine_;
    std::vector<EngineStats> begin_; ///< one snapshot per shard
};

/**
 * Read group @p group of @p engine into a Histogram over [lo, hi]:
 * counter i contributes its value as the count of sample i. Counters
 * outside [lo, hi] land in the under/overflow buckets; zero counters
 * are skipped.
 */
Histogram countersToHistogram(ShardedEngine &engine, int64_t lo,
                              int64_t hi, unsigned group = 0);

/** Same conversion from an already-read counter vector. */
Histogram countersToHistogram(std::span<const int64_t> counters,
                              int64_t lo, int64_t hi);

/**
 * Canonical blocking baseline: replay @p ops in order on one
 * C2MEngine over the full counter space, switching a single point
 * mask per target change. Sharded batches and the async ingest
 * service must produce counters bit-identical to this. Requires
 * cfg.maxMaskRows >= 1 (one mask row is used).
 */
std::vector<int64_t> replaySerial(const EngineConfig &cfg,
                                  std::span<const BatchOp> ops,
                                  unsigned group = 0);

} // namespace core
} // namespace c2m

#endif // C2M_CORE_SHARDED_HPP
