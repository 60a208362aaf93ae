#ifndef C2M_CORE_CONFIG_HPP
#define C2M_CORE_CONFIG_HPP

/**
 * @file
 * Engine-level configuration and statistics shared by C2MEngine, the
 * counting backends and the sharded engine.
 *
 * The counting substrate is selected by EngineConfig::backend: the
 * same host-side engine (digit unpacking, IARM scheduling, dual-rail
 * groups) drives an Ambit DRAM subarray, a Pinatubo/MAGIC NVM
 * machine, or the SIMDRAM-style ripple-carry baseline through one
 * core::CountingBackend interface (Sec. 4.6, Sec. 7).
 */

#include <cstddef>
#include <cstdint>

#include "cim/cost.hpp"
#include "cim/fault.hpp"
#include "common/statfields.hpp"
#include "dram/energy.hpp"
#include "dram/timing.hpp"

namespace c2m {
namespace core {

enum class Protection : uint8_t
{
    None, ///< raw CIM
    Ecc,  ///< XOR-embedded FR checks with retry (Sec. 6)
    Tmr,  ///< triple modular redundancy with majority vote
};

/**
 * Counting policies compared by the Fig. 8 cost model (C2mCostModel,
 * DesignPoint). The engine itself always runs Kary counting with
 * IARM rippling; Unit and FullRipple exist only as modeled baselines.
 */
enum class RippleMode : uint8_t
{
    Iarm,       ///< input-aware rippling minimization (Sec. 4.5.2)
    FullRipple, ///< full carry propagation after every input
};

enum class CountMode : uint8_t
{
    Kary, ///< one increment per non-zero digit (Sec. 4.5.1)
    Unit, ///< d unit increments per digit value d (Sec. 4.4)
};

/** Counting substrate driven through core::CountingBackend. */
enum class BackendKind : uint8_t
{
    Ambit,       ///< DRAM triple-row-activation fabric (Sec. 4)
    NvmPinatubo, ///< non-stateful NVM bulk-bitwise logic (Fig. 10a)
    NvmMagic,    ///< stateful NOR-only memristor logic (Fig. 10b)
    Rca,         ///< SIMDRAM-style W-bit ripple-carry adder (Sec. 3)
};

/** Human-readable backend name ("ambit", "nvm-pinatubo", ...). */
const char *backendName(BackendKind kind);

struct EngineConfig
{
    unsigned radix = 4;
    unsigned capacityBits = 32;
    size_t numCounters = 256;
    unsigned numGroups = 1;
    unsigned maxMaskRows = 64;
    Protection protection = Protection::None;
    unsigned frChecks = 1;   ///< FR computations per masking step
    unsigned maxRetries = 4; ///< re-executions before giving up
    double faultRate = 0.0;  ///< per-bit MAJ3 fault probability
    uint64_t seed = 1;
    BackendKind backend = BackendKind::Ambit;
    /**
     * Column-parallel drain planning for batched point updates
     * (ShardedEngine/IngestService): decompose each counter's epoch
     * delta into radix digits and issue ONE masked k-ary increment
     * per populated (digit, k) plane, bounding fabric programs per
     * bucket at O(D*(R-1)) per group instead of O(ops). Final counter
     * values are bit-identical to per-op replay; signed-mode groups
     * and buckets the plan cannot beat fall back to the per-op path
     * automatically.
     */
    bool drainPlanner = true;
    /**
     * Fabric cost parameter sets (timing + energy). The DRAM-fabric
     * backends (Ambit, Rca) charge per-command costs derived from
     * dramTimings/dramEnergy (core/fabriccost.hpp); the NVM backends
     * charge nvmCost. Every backend reports the result through
     * opStats().fabricNs/fabricNj and EngineStats::fabric.
     */
    dram::DramTimings dramTimings = dram::DramTimings{};
    dram::EnergyModel dramEnergy = dram::EnergyModel{};
    cim::NvmCostParams nvmCost = cim::NvmCostParams{};
};

/**
 * EngineStats fields, one row each (common/statfields.hpp):
 *  - planLeadPrograms: plane increments this engine issued as a gang
 *    leader (or stand-alone). planPrograms - planLeadPrograms is the
 *    follower count: planes executed in lockstep under another shard's
 *    issue slot in a merged cross-shard plan.
 *  - fabric: fabric-level command and fault tallies (AAP/AP commands,
 *    triple activations, injected fault bits, host row accesses) and
 *    the fabric-time ledger, copied from the backend's simulator by
 *    C2MEngine::stats() so merged service reports expose fault
 *    activity next to the engine-level protection counters.
 *  - fabricCriticalNs: bank-parallel critical-path fabric time, the
 *    modeled ns until the last shard finishes when shards execute as
 *    banks of one rank (bounded below by the tFAW/tRRD rank window,
 *    DramTimings::issueIntervalNs). For a single engine this equals
 *    fabric.fabricNs; ShardedEngine::statsSince() computes the real
 *    bound. Merged by max, not sum — parallel contributors overlap.
 */
#define C2M_ENGINE_STATS_FIELDS(X)                                    \
    X(uint64_t, inputsAccumulated, "engine.inputs_accumulated", Sum)  \
    X(uint64_t, increments, "engine.increments", Sum)                 \
    X(uint64_t, ripples, "engine.ripples", Sum)                       \
    X(uint64_t, checksRun, "engine.checks_run", Sum)                  \
    X(uint64_t, faultsDetected, "engine.faults_detected", Sum)        \
    X(uint64_t, retries, "engine.retries", Sum)                       \
    X(uint64_t, uncorrectedBlocks, "engine.uncorrected_blocks", Sum)  \
    /* unreadable JC patterns at readout */                           \
    X(uint64_t, invalidStates, "engine.invalid_states", Sum)          \
    X(uint64_t, voteOps, "engine.vote_ops", Sum)                      \
    /* programs replayed from cache / generated fresh */              \
    X(uint64_t, programCacheHits, "engine.program_cache_hits", Sum)   \
    X(uint64_t, programCacheMisses, "engine.program_cache_misses", Sum) \
    /* column-parallel plans applied / masked plane increments */     \
    X(uint64_t, plansExecuted, "engine.plans_executed", Sum)          \
    X(uint64_t, planPrograms, "engine.plan_programs", Sum)            \
    X(uint64_t, planLeadPrograms, "engine.plan_lead_programs", Sum)   \
    /* point updates folded into plans / taking the per-op path */    \
    X(uint64_t, plannedOps, "engine.planned_ops", Sum)                \
    X(uint64_t, planFallbackOps, "engine.plan_fallback_ops", Sum)     \
    X(cim::OpStats, fabric, "engine.fabric", Sum)                     \
    X(double, fabricCriticalNs, "engine.fabric.critical_ns", Max)

struct EngineStats
{
    C2M_STATS_FIELDS(C2M_ENGINE_STATS_FIELDS)
    C2M_STATS_OPS(EngineStats, C2M_ENGINE_STATS_FIELDS)
};

} // namespace core
} // namespace c2m

#endif // C2M_CORE_CONFIG_HPP
