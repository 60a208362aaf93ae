#ifndef C2M_CORE_ENGINE_HPP
#define C2M_CORE_ENGINE_HPP

/**
 * @file
 * The Count2Multiply execution engine (Sec. 5).
 *
 * One engine instance owns a counting backend (EngineConfig::backend:
 * Ambit DRAM, Pinatubo/MAGIC NVM, or the SIMDRAM-style RCA baseline)
 * holding one or more groups of column-parallel counters plus the
 * mask rows of the stationary operand Z. The host-side routine
 * converts each streamed input value into k-ary increment muPrograms
 * (digit unpacking, Sec. 5.1), schedules deferred carry rippling with
 * IARM (Sec. 4.5.2) on substrates with pending flags — the RCA
 * baseline instead takes each input as one whole-value W-bit add,
 * zeros included (CountingBackend::addValue) — and relies on
 * the backend's checked execution (check-and-retry, in-fabric voting)
 * when protection is enabled (Sec. 6). Which protection and tensor
 * features a substrate offers is advertised through BackendCaps and
 * asserted at configuration time.
 *
 * Counter groups:
 *  - kernels needing signed results use two groups dual-rail
 *    (accumulate positive contributions in group 0, negative in
 *    group 1, subtract at readout);
 *  - TMR replicates every group three times and votes after each
 *    digit update;
 *  - tensor ops (vector add, shift-left) operate across groups.
 */

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "cim/ambit.hpp"
#include "core/backend.hpp"
#include "core/config.hpp"
#include "jc/iarm.hpp"
#include "jc/layout.hpp"

namespace c2m {
namespace core {

/**
 * One column-parallel step of a drain plan: add @p k to digit
 * @p digit of every counter whose bit in mask row @p maskHandle is
 * set. The mask is borrowed, not owned — planners keep a reusable
 * pool of plane masks and hand out pointers for the duration of one
 * planPrepare/executePlan pair. Each step carries its own mask handle so
 * planes can live in persistent per-plane rows: plane (digit, k)
 * always lands in the same row index, keeping its cached increment
 * program's key stable across epochs.
 */
struct MaskedStep
{
    unsigned digit;
    unsigned k; ///< 1..radix-1
    unsigned maskHandle;
    const BitVector *mask;
    /**
     * Gang-issue role in a merged cross-shard plan: the lead shard of
     * a (digit, k) plane issues the plane program and is charged
     * FabricCat::Plan; follower shards execute the identical command
     * stream in the leader's issue slots (same row indices — shard
     * layouts only differ in column width) and are charged
     * FabricCat::PlanFanout with their commands counted as ganged.
     * Single-shard plans are all-lead.
     */
    bool lead = true;
};

/**
 * One scheduled carry ripple of a drain plan, with the same
 * gang-issue role as MaskedStep: per (digit, occurrence) across the
 * shards of a merged plan, the first shard needing the ripple leads
 * and the rest follow in lockstep.
 */
struct PlanRipple
{
    unsigned digit;
    bool lead = true;
};

class C2MEngine
{
  public:
    explicit C2MEngine(const EngineConfig &cfg);
    ~C2MEngine();

    const EngineConfig &config() const { return cfg_; }

    /**
     * Engine-level protection/cache counters with the backend's
     * fabric tallies (commands, injected faults, host row accesses)
     * merged in. Returned by value: the fabric part is sampled from
     * the simulator at call time.
     */
    EngineStats stats() const
    {
        EngineStats s = stats_;
        s.fabric = backend_->opStats();
        // One engine = one bank: its critical path is its serial
        // fabric time. ShardedEngine recomputes the bank-parallel
        // bound over all shards.
        s.fabricCriticalNs = s.fabric.fabricNs;
        return s;
    }

    /** The counting substrate this engine drives. */
    CountingBackend &backend() { return *backend_; }
    const CountingBackend &backend() const { return *backend_; }

    /**
     * The underlying Ambit subarray (DRAM-fabric backends only:
     * Ambit and RCA; panics otherwise).
     */
    cim::AmbitSubarray &subarray();

    /** JC row layout (JC backends only: Ambit and NVM). */
    const jc::CounterLayout &layout(unsigned group = 0) const;

    /** Physical replica count per logical group (3 for TMR). */
    unsigned numReplicas() const { return replicas(); }

    /** Physical group index of (logical group, replica). */
    unsigned physicalGroup(unsigned group, unsigned replica) const
    {
        return physIndex(group, replica);
    }

    /** Store a binary mask (the next row of Z); returns its handle. */
    unsigned addMask(const std::vector<uint8_t> &mask);
    unsigned numMasks() const { return numMasks_; }
    /** Overwrite an existing mask row. */
    void setMask(unsigned handle, const std::vector<uint8_t> &mask);
    /**
     * In-place overwrite from a prebuilt packed row: no byte-vector
     * conversion, no allocation. The batch hot paths (point masks,
     * plane masks) route through this overload.
     */
    void setMask(unsigned handle, const BitVector &mask);

    /**
     * Accumulate @p value into every counter of @p group whose bit in
     * mask @p mask_handle is set (value >= 0). Zero inputs are free
     * except on substrates without pending flags (RCA), where every
     * input, zero included, is one masked add of value mod 2^W.
     */
    void accumulate(uint64_t value, unsigned mask_handle,
                    unsigned group = 0);

    /** Signed accumulation: negative values decrement (Sec. 4.4). */
    void accumulateSigned(int64_t value, unsigned mask_handle,
                          unsigned group = 0);

    /**
     * Column-parallel masked accumulate (Fig. 15), host-side half: a
     * plan is a batch of digit-plane steps, each one masked k-ary
     * increment covering every counter whose epoch delta has digit k
     * at that position. This is the multi-counter entry point the
     * drain planner schedules through — it skips the per-value digit
     * loop entirely: IARM headroom is prepared ONCE for the whole plan
     * using the per-digit worst case (max k over the steps of each
     * digit). Split from executePlan so a hierarchical planner can
     * prepare every shard's slice of a merged plan before any fabric
     * work runs.
     *
     * Requirements (planners fall back to per-op replay otherwise):
     * Kary counting, group not in signed mode, each counter covered
     * by at most one step per digit position.
     *
     * Validates @p steps, builds the per-digit worst-case profile,
     * advances the group's IARM scheduler (prepareAdd/applyAdd) and
     * appends the ripples the plan owes to @p pre — plus, in
     * FullRipple mode, the unconditional post-pass to @p post.
     * Touches no fabric state; the caller decides each ripple's gang
     * role and then runs executePlan.
     */
    void planPrepare(std::span<const MaskedStep> steps,
                     unsigned group, std::vector<PlanRipple> &pre,
                     std::vector<PlanRipple> &post);

    /**
     * Fabric half of a prepared plan: broadcast the @p pre ripples,
     * write each step's plane mask into its persistent row and issue
     * the masked increments, then the @p post full-ripple pass.
     * Lead ripples/steps charge FabricCat::Plan (mask writes
     * MaskWrite as usual); follower ones charge PlanFanout and count
     * their AAP/AP commands as ganged — executed in lockstep under
     * the lead shard's issue slots. @p folded_ops is the number of
     * point updates the plan folds in; it feeds
     * inputsAccumulated/plannedOps so batch accounting matches the
     * per-op path.
     */
    void executePlan(std::span<const MaskedStep> steps,
                     std::span<const PlanRipple> pre,
                     std::span<const PlanRipple> post, unsigned group,
                     uint64_t folded_ops);

    /**
     * True once the group has seen a decrement: pending flags are
     * kept fully resolved and the drain planner must not defer
     * carries (it falls back to per-op replay).
     */
    bool signedMode(unsigned group) const
    {
        return groupHasDecrements_[group];
    }

    /** Planner bookkeeping: @p n ops bypassed plans (per-op path). */
    void notePlanFallback(uint64_t n)
    {
        stats_.planFallbackOps += n;
    }

    /** Current counter values (Onext/Osign accounted, no draining). */
    std::vector<int64_t> readCounters(unsigned group = 0);

    /** Reset counters of all groups to zero. */
    void clear();

    // ---- Tensor-style operations (Sec. 5.2.4) ----
    // Require a backend with caps().tensorOps (Ambit).

    /** dst += src element-wise (JC vector addition, Alg. 2). */
    void addCounters(unsigned dst_group, unsigned src_group);

    /** Zero all counters of @p group that are negative (Osign). */
    void relu(unsigned group);

    /**
     * counters <<= amount via repeated doubling; @p spare_group is
     * clobbered as scratch.
     */
    void shiftLeft(unsigned group, unsigned spare_group,
                   unsigned amount);

    /** Resolve every pending overflow of a group (Sec. 4.4). */
    void drain(unsigned group);

  private:
    /** Physical replica count per logical group (3 for TMR). */
    unsigned replicas() const
    {
        return cfg_.protection == Protection::Tmr ? 3 : 1;
    }
    unsigned physIndex(unsigned group, unsigned replica) const;

    /** Majority-vote the rows of digit @p digit across replicas. */
    void voteDigit(unsigned group, unsigned digit);

    /**
     * One input on a substrate without pending flags: a masked add
     * of @p value (mod 2^W) per replica, then one vote under TMR.
     */
    void addValue(unsigned group, uint64_t value, unsigned mask_row);

    void incrementDigit(unsigned group, unsigned digit, unsigned k,
                        unsigned mask_row);
    void decrementDigit(unsigned group, unsigned digit, unsigned k,
                        unsigned mask_row);
    void ripple(unsigned group, unsigned digit);
    void borrowRipple(unsigned group, unsigned digit);

    /**
     * Clear every pending flag by repeated highest-first passes
     * (each pass moves fresh pendings one digit up; top pendings
     * fold into Osign). Used in signed mode, where Onext must be
     * unambiguous before the direction can change.
     */
    void resolveAllPendings(unsigned group, bool borrows);

    unsigned maskRowIndex(unsigned handle) const;

    EngineConfig cfg_;
    unsigned bitsPerDigit_;
    EngineStats stats_; ///< must precede backend_ (holds a reference)
    std::unique_ptr<CountingBackend> backend_;
    std::vector<jc::IarmScheduler> schedulers_; ///< per logical group
    std::vector<bool> groupHasDecrements_;
    unsigned numMasks_ = 0;
};

} // namespace core
} // namespace c2m

#endif // C2M_CORE_ENGINE_HPP
