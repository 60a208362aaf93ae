#ifndef C2M_OBS_PROFILER_HPP
#define C2M_OBS_PROFILER_HPP

/**
 * @file
 * Trace analytics: turns raw TraceRecorder events (live lanes or a
 * re-parsed Chrome export) into per-epoch critical-path profiles, and
 * turns EngineStats into a fabric-time ledger whose category rows sum
 * bit-exactly to the fabric_ns total every BENCH cell already
 * reports (the OpStats charge/merge discipline guarantees it; the
 * ledger verifies and renders it).
 *
 * The profiler follows the top-down attribution style of TMA-like
 * methodologies: first split the host epoch into phases
 * (cut/execute/observer, and inside execute the engine's
 * prepare/plan stages), then split execution across shards
 * to find the critical path and quantify skew, then attribute every
 * modeled fabric nanosecond to the activity that charged it.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "cim/fault.hpp"
#include "common/json.hpp"
#include "core/config.hpp"
#include "obs/trace.hpp"

namespace c2m::obs {

/** One closed span, normalized from either input source. */
struct ProfSpan
{
    std::string name;
    uint32_t track = 0; ///< shard index or kServiceTrack
    int64_t beginNs = 0;
    int64_t endNs = 0;
    double fabricDeltaNs = -1.0; ///< modeled ns consumed; <0 = none

    int64_t hostNs() const { return endNs - beginNs; }
};

/** One instant, normalized from either input source. */
struct ProfInstant
{
    std::string name;
    uint32_t track = 0;
    int64_t hostNs = 0;
    uint64_t arg = 0;
    uint64_t arg2 = 0;
};

/** Normalized trace: what both analysis paths consume. */
struct ProfileInput
{
    std::vector<ProfSpan> spans;
    std::vector<ProfInstant> instants;
    uint64_t eventCount = 0;
    uint64_t droppedEvents = 0;
};

/**
 * Normalize a quiesced recorder's lanes: pair begin/end events per
 * (lane, track) exactly like the Chrome exporter (orphan ends
 * dropped, unclosed begins closed at the lane's last stamp).
 */
ProfileInput profileFromRecorder(const TraceRecorder &rec);

/**
 * Normalize a parsed Chrome trace export (the output of
 * exportChromeTrace round-trips; fabric-clock mirror tracks are
 * skipped so spans are not double counted). Returns false when the
 * document lacks a traceEvents array.
 */
bool profileFromChromeJson(const json::Value &doc, ProfileInput &out);

/** Host time and modeled fabric time one shard consumed in an epoch. */
struct ShardDrainStat
{
    uint32_t shard = 0;
    uint64_t drains = 0;        ///< shard.drain spans aggregated
    int64_t hostNs = 0;         ///< summed host-clock drain time
    double fabricNs = 0.0;      ///< summed modeled fabric time
};

/** Critical-path profile of one service epoch (or synthetic window). */
struct EpochProfile
{
    int64_t beginNs = 0;
    int64_t endNs = 0;
    bool synthetic = false; ///< no epoch span: whole-trace window

    // Phase breakdown (host ns of the epoch.* sub-spans).
    int64_t cutNs = 0;
    /** Service-side coalescing; only older traces carry the span. */
    int64_t coalesceNs = 0;
    int64_t executeNs = 0;
    /** Engine stages 1+2 (coalesce, partition, plane histograms). */
    int64_t prepareNs = 0;
    /** Engine stage 3 (merged plan, gang roles); inside execute. */
    int64_t planNs = 0;
    int64_t observerNs = 0;

    std::vector<ShardDrainStat> shards;
    int32_t criticalShard = -1; ///< largest host drain time
    double skew = 0.0;          ///< straggler hostNs / mean hostNs
    double fabricCriticalNs = 0.0; ///< max per-shard fabric ns
    double utilization = 0.0; ///< fabricCriticalNs / host epoch ns

    // Planner activity inside the window (priced from instants).
    uint64_t planCommits = 0;
    uint64_t planFallbacks = 0;
    double planPricedNs = 0.0;     ///< summed committed plan prices
    double fallbackPricedNs = 0.0; ///< summed fallback prices

    int64_t hostNs() const { return endNs - beginNs; }
};

/**
 * Group the input into per-epoch profiles using the `epoch` spans on
 * the service track as windows. Traces without epoch spans (e.g. the
 * sharded_scaling bench driving the engine directly) yield one
 * synthetic profile covering the whole trace.
 */
std::vector<EpochProfile> buildEpochProfiles(const ProfileInput &in);

/** Render profiles as an aligned text report (common/table). */
std::string renderEpochProfiles(const std::vector<EpochProfile> &eps);

/**
 * The fabric-time ledger: EngineStats attribution rows plus the
 * invariant check that they sum — in the canonical left-to-right
 * order, hence bit-exactly — to the fabric_ns total.
 */
struct FabricLedger
{
    double rows[cim::kFabricCatCount] = {};
    double totalNs = 0.0;

    static FabricLedger fromStats(const core::EngineStats &st);

    /** Canonical-order sum of the rows. */
    double ledgerSum() const;

    /** Bit-exact: ledgerSum() == totalNs, no tolerance. */
    bool exact() const { return ledgerSum() == totalNs; }

    std::string render() const;
};

} // namespace c2m::obs

#endif // C2M_OBS_PROFILER_HPP
