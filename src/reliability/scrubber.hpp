#ifndef C2M_RELIABILITY_SCRUBBER_HPP
#define C2M_RELIABILITY_SCRUBBER_HPP

/**
 * @file
 * Online counter-state scrubbing over the sharded engine.
 *
 * The Scrubber keeps, per shard and logical counter group, an
 * ECC-encoded RowMirror (the trusted side store) plus a journal of
 * the point-update deltas applied since the group's last sweep. At
 * an epoch boundary — hooked through service::EpochObserver, or
 * driven explicitly in standalone mode — due shards are swept:
 *
 *   1. the mirror itself is SEC-DED decode-corrected (it models
 *      spare DRAM rows and may decay) and its counter values are
 *      recovered;
 *   2. journaled deltas are applied, giving the expected values;
 *   3. the shard is drained, putting fault-free counter state into
 *      canonical form (a pure function of the values);
 *   4. the expected canonical image is re-encoded, and every
 *      persistent counter row (digit bits, Onext, Osign, every TMR
 *      replica) is read back through the reliable host path and
 *      ECC-decoded against the expected parity lanes: single-flip
 *      words are corrected by the code, denser corruption is
 *      recovered from the image, and every event is accounted;
 *   5. the mirror adopts the expected image and the journal resets.
 *
 * Because step 4 forces the fabric onto the canonical encoding of
 * the true sums, a swept run ends bit-identical to a fault-free
 * serial replay whatever the injected CIM fault rate — the property
 * pinned by test_reliability.cpp. Sweep outcomes feed the
 * HealthMonitor, which (with ScrubConfig::adaptive) retunes the
 * sweep cadence and the live FR-check count of ECC-protected
 * backends against ecc::ProtectionModel targets.
 *
 * Coverage contract: the scrubber sees point updates only (epoch
 * buckets or noteBatch). Broadcast accumulates and tensor ops bypass
 * the journal; call rebase() after driving such ops, or the next
 * sweep would "correct" legitimate state away.
 *
 * Drain-planner interplay: when the engine executes a bucket as
 * column-parallel digit planes (EngineConfig::drainPlanner), the
 * journal still records exactly the planned deltas — onShardOps
 * receives the same coalesced ops the planner folds, and the journal
 * keys per-counter *sums*, which plans preserve by construction
 * (digit decomposition of the summed delta). Plans also ripple
 * through the same IARM scheduler the sweep's drain() uses, so the
 * canonical expected image is unchanged and a scrubbed planner run
 * stays bit-identical to fault-free serial replay (pinned by
 * test_reliability.cpp).
 */

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/statfields.hpp"
#include "core/sharded.hpp"
#include "reliability/health.hpp"
#include "reliability/mirror.hpp"
#include "service/ingest.hpp"

namespace c2m {
namespace reliability {

struct ScrubConfig
{
    /** Epoch boundaries between sweeps of one shard. */
    unsigned interval = 1;
    /** Budget: at most this many shard sweeps per boundary
     *  (0 = unlimited). Overdue shards rotate fairly. */
    unsigned maxShardsPerBoundary = 0;
    /** Let the HealthMonitor retune interval and FR checks. */
    bool adaptive = false;
    /** Per-bit decay injected into the mirror store per boundary
     *  (campaigns; exercises the side store's own SEC-DED). */
    double storeFaultRate = 0.0;
    HealthConfig health;
};

/** ScrubStats fields, one row each (common/statfields.hpp). */
#define C2M_SCRUB_STATS_FIELDS(X)                                     \
    /* epoch boundaries observed / shard sweeps executed */           \
    X(uint64_t, boundaries, "reliability.boundaries", Sum)            \
    X(uint64_t, sweeps, "reliability.sweeps", Sum)                    \
    /* fabric rows read and checked / rows with any deviation */      \
    X(uint64_t, rowsScrubbed, "reliability.rows_scrubbed", Sum)       \
    X(uint64_t, rowsRepaired, "reliability.rows_repaired", Sum)       \
    /* deviating bits found / flips fixed by SEC-DED alone */         \
    X(uint64_t, faultyBits, "reliability.faulty_bits", Sum)           \
    X(uint64_t, bitsCorrected, "reliability.bits_corrected", Sum)     \
    /* words recovered from the mirror */                             \
    X(uint64_t, wordsRecovered, "reliability.words_recovered", Sum)   \
    /* side-store flips corrected / side-store words past SEC-DED */  \
    X(uint64_t, mirrorBitsCorrected,                                  \
      "reliability.mirror_bits_corrected", Sum)                       \
    X(uint64_t, mirrorWordsLost, "reliability.mirror_words_lost", Sum) \
    /* deltas recorded since attach / live FR-check changes applied */ \
    X(uint64_t, opsJournaled, "reliability.ops_journaled", Sum)       \
    X(uint64_t, frRetunes, "reliability.fr_retunes", Sum)             \
    /* modeled fabric ns spent inside sweeps (drain + row scrub) */   \
    X(double, sweepFabricNs, "reliability.sweep_fabric_ns", Sum)

struct ScrubStats
{
    C2M_STATS_FIELDS(C2M_SCRUB_STATS_FIELDS)
    C2M_STATS_OPS(ScrubStats, C2M_SCRUB_STATS_FIELDS)
};

class Scrubber final : public service::EpochObserver
{
  public:
    /**
     * Attach to @p engine (which must outlive the scrubber). The
     * engine's counters must be in their cleared state — the initial
     * mirrors assume zero. Requires a backend with caps().rowScrub.
     */
    explicit Scrubber(core::ShardedEngine &engine,
                      const ScrubConfig &cfg = {});

    /** True iff @p engine's substrate supports row scrubbing. */
    static bool supports(core::ShardedEngine &engine);

    const ScrubConfig &config() const { return cfg_; }
    /** Live sweep cadence (cfg.interval unless adaptive retuned). */
    unsigned interval() const;

    // ---- service::EpochObserver (drainer thread) ----
    void onShardOps(unsigned shard,
                    std::span<const core::BatchOp> ops) override;
    void onEpochApplied(uint64_t epoch) override;
    /** Full sweep: deferred (budgeted/interval) work must finish. */
    void onStop(uint64_t epoch) override;
    CounterMap counters() const override;

    // ---- Standalone mode (bare ShardedEngine, single driver) ----

    /** Journal a batch applied via accumulateBatch/runShardOps. */
    void noteBatch(std::span<const core::BatchOp> ops);

    /** Advance one boundary: sweep due shards per cadence/budget. */
    void boundary();

    /** Sweep every shard now, regardless of cadence. */
    void scrubAll();

    /**
     * Sweep shard @p s now, regardless of cadence or budget. This is
     * the virtualization layer's pre-write hook: before rewriting a
     * shard's counter rows (spill/restore) it heals the shard and
     * applies the pending journal, so the subsequent rebaseShard()
     * cannot adopt faulty or stale state.
     */
    void sweepNow(unsigned s);

    /**
     * Per-shard rebase(): re-mirror shard @p s from the engine's
     * current counter values, trusting the fabric, and discard the
     * shard's pending journal entries. Required after row-level
     * writes the journal cannot see (counter-group spill/restore).
     */
    void rebaseShard(unsigned s);

    /**
     * Re-mirror from the engine's current counter values, trusting
     * the fabric. Required after ops the journal cannot see
     * (broadcast accumulates, tensor ops); discards pending journal
     * entries.
     */
    void rebase();

    ScrubStats stats() const;
    ScrubStats shardStats(unsigned s) const;
    HealthMonitor health() const;

  private:
    struct ShardState
    {
        std::vector<RowMirror> mirrors; ///< per logical group
        /** (group << 40 | local column) -> pending delta sum. */
        std::unordered_map<uint64_t, int64_t> journal;
        uint64_t lastSweepBoundary = 0;
        uint64_t lastTra = 0; ///< fabric TRA count at last sweep
        ScrubStats stats;
        Rng decayRng{1};
    };

    /** Shared boundary prologue: advance cadence, decay the store. */
    void beginBoundary();
    void sweepDue();
    /** Sweep @p due shards in parallel (ShardedEngine::runShards). */
    void runSweeps(std::span<const unsigned> due);
    /** Sweep one shard (caller holds its single-writer guard). */
    void sweepShard(core::C2MEngine &eng, ShardState &st,
                    uint64_t boundary);
    void injectStoreDecay();
    void applyAdaptive();

    core::ShardedEngine &engine_;
    ScrubConfig cfg_;
    std::vector<ShardState> shards_;
    uint64_t boundary_ = 0; ///< boundaries seen (drainer/driver only)
    unsigned rotate_ = 0;   ///< budget fairness cursor
    unsigned appliedFrChecks_ = 0; ///< last live FR-check retune

    /**
     * Guards aggregate_, health_, liveInterval_ and every
     * ShardState::stats block: sweeps (pool lanes) append their
     * deltas under it, readers (counters()/stats() from reporting
     * threads) sum under it. Mirrors and journals need no lock — they
     * are touched only with the owning shard quiescent.
     */
    mutable std::mutex m_;
    ScrubStats aggregate_; ///< boundary/journal/retune counters
    HealthMonitor health_;
    unsigned liveInterval_; ///< adaptive cadence (cfg.interval seed)
};

} // namespace reliability
} // namespace c2m

#endif // C2M_RELIABILITY_SCRUBBER_HPP
