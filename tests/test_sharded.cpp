/**
 * @file
 * Sharded batch engine tests: shard-vs-single-engine equivalence on
 * random point-update streams (unsigned, signed, ECC, TMR), sliced
 * broadcast masks, tensor-op fan-out, determinism across thread
 * counts, stats merging, and the batched workload histograms.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "common/rng.hpp"
#include "core/sharded.hpp"
#include "workloads/dna.hpp"
#include "workloads/sparsity.hpp"

using namespace c2m;
using core::BatchOp;
using core::C2MEngine;
using core::EngineConfig;
using core::EngineStats;
using core::Protection;
using core::ShardedEngine;

namespace {

EngineConfig
baseConfig(size_t counters = 64, unsigned radix = 4)
{
    EngineConfig cfg;
    cfg.radix = radix;
    cfg.capacityBits = 20;
    cfg.numCounters = counters;
    cfg.maxMaskRows = 8;
    return cfg;
}

std::vector<BatchOp>
randomOps(size_t n, size_t counters, uint64_t seed,
          bool with_negatives)
{
    Rng rng(seed);
    std::vector<BatchOp> ops;
    ops.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        BatchOp op;
        op.counter = rng.nextBounded(counters);
        op.value = static_cast<int64_t>(rng.nextBounded(60));
        if (with_negatives && rng.nextBool(0.4))
            op.value = -op.value;
        op.group = 0;
        ops.push_back(op);
    }
    return ops;
}

/** Reference: the same op stream on one engine over the full space. */
std::vector<int64_t>
runSingle(const EngineConfig &cfg, const std::vector<BatchOp> &ops,
          unsigned group = 0)
{
    C2MEngine eng(cfg);
    const unsigned h =
        eng.addMask(std::vector<uint8_t>(cfg.numCounters, 0));
    size_t current = std::numeric_limits<size_t>::max();
    for (const auto &op : ops) {
        if (op.counter != current) {
            std::vector<uint8_t> mask(cfg.numCounters, 0);
            mask[op.counter] = 1;
            eng.setMask(h, mask);
            current = op.counter;
        }
        if (op.value >= 0)
            eng.accumulate(static_cast<uint64_t>(op.value), h,
                           op.group);
        else
            eng.accumulateSigned(op.value, h, op.group);
    }
    return eng.readCounters(group);
}

} // namespace

class ShardedVsSingle : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(ShardedVsSingle, UnsignedPointStreamMatches)
{
    const auto cfg = baseConfig(64, GetParam());
    const auto ops = randomOps(300, cfg.numCounters, 7, false);

    ShardedEngine sharded(cfg, 4);
    sharded.accumulateBatch(ops);
    EXPECT_EQ(sharded.readAllCounters(), runSingle(cfg, ops));
    EXPECT_EQ(sharded.stats().inputsAccumulated, ops.size());
}

TEST_P(ShardedVsSingle, SignedPointStreamMatches)
{
    const auto cfg = baseConfig(48, GetParam());
    const auto ops = randomOps(200, cfg.numCounters, 11, true);

    ShardedEngine sharded(cfg, 4);
    sharded.accumulateBatch(ops);
    EXPECT_EQ(sharded.readAllCounters(), runSingle(cfg, ops));
}

INSTANTIATE_TEST_SUITE_P(Radices, ShardedVsSingle,
                         ::testing::Values(4u, 10u));

TEST(Sharded, EccConfigMatchesFaultFree)
{
    auto cfg = baseConfig(32);
    cfg.protection = Protection::Ecc;
    const auto ops = randomOps(120, cfg.numCounters, 3, true);

    ShardedEngine sharded(cfg, 4);
    sharded.accumulateBatch(ops);
    EXPECT_EQ(sharded.readAllCounters(), runSingle(cfg, ops));
    EXPECT_GT(sharded.stats().checksRun, 0u);
    EXPECT_EQ(sharded.stats().faultsDetected, 0u);
}

TEST(Sharded, TmrConfigMatchesFaultFree)
{
    auto cfg = baseConfig(32);
    cfg.protection = Protection::Tmr;
    const auto ops = randomOps(100, cfg.numCounters, 5, false);

    ShardedEngine sharded(cfg, 4);
    sharded.accumulateBatch(ops);
    EXPECT_EQ(sharded.readAllCounters(), runSingle(cfg, ops));
    EXPECT_GT(sharded.stats().voteOps, 0u);
}

TEST(Sharded, UnevenSplitCoversEveryCounter)
{
    const auto cfg = baseConfig(67);
    ShardedEngine sharded(cfg, 4);
    size_t total = 0;
    for (unsigned s = 0; s < sharded.numShards(); ++s)
        total += sharded.shardWidth(s);
    EXPECT_EQ(total, cfg.numCounters);
    for (uint64_t c = 0; c < cfg.numCounters; ++c) {
        const unsigned s = sharded.shardOf(c);
        EXPECT_GE(c, sharded.shardStart(s));
        EXPECT_LT(c, sharded.shardStart(s) + sharded.shardWidth(s));
    }

    const auto ops = randomOps(150, cfg.numCounters, 13, true);
    ShardedEngine run(cfg, 4);
    run.accumulateBatch(ops);
    EXPECT_EQ(run.readAllCounters(), runSingle(cfg, ops));
}

TEST(Sharded, DeterministicAcrossThreadCounts)
{
    const auto cfg = baseConfig(64);
    const auto ops = randomOps(250, cfg.numCounters, 17, true);

    std::vector<int64_t> reference;
    EngineStats ref_stats;
    for (unsigned threads : {1u, 2u, 4u}) {
        ShardedEngine eng(cfg, 4, threads);
        eng.accumulateBatch(ops);
        const auto counters = eng.readAllCounters();
        const auto st = eng.stats();
        if (reference.empty()) {
            reference = counters;
            ref_stats = st;
            continue;
        }
        EXPECT_EQ(counters, reference) << "threads=" << threads;
        EXPECT_EQ(st.increments, ref_stats.increments);
        EXPECT_EQ(st.ripples, ref_stats.ripples);
        EXPECT_EQ(st.inputsAccumulated, ref_stats.inputsAccumulated);
    }
}

TEST(Sharded, BroadcastMaskedAccumulateMatches)
{
    const auto cfg = baseConfig(64);
    Rng rng(23);

    C2MEngine single(cfg);
    ShardedEngine sharded(cfg, 4);
    std::vector<unsigned> hs, hd;
    for (int m = 0; m < 3; ++m) {
        std::vector<uint8_t> mask(cfg.numCounters);
        for (auto &b : mask)
            b = rng.nextBool(0.5);
        hs.push_back(single.addMask(mask));
        hd.push_back(sharded.addMask(mask));
    }

    for (int step = 0; step < 40; ++step) {
        const uint64_t v = rng.nextBounded(100);
        const unsigned m = static_cast<unsigned>(rng.nextBounded(3));
        single.accumulate(v, hs[m]);
        sharded.accumulate(v, hd[m]);
    }
    EXPECT_EQ(sharded.readAllCounters(), single.readCounters());

    // Overwriting a sliced mask keeps the engines in lockstep.
    std::vector<uint8_t> updated(cfg.numCounters, 1);
    single.setMask(hs[0], updated);
    sharded.setMask(hd[0], updated);
    single.accumulate(9, hs[0]);
    sharded.accumulate(9, hd[0]);
    EXPECT_EQ(sharded.readAllCounters(), single.readCounters());
}

TEST(Sharded, TensorOpFanOutMatchesSingleEngine)
{
    auto cfg = baseConfig(32);
    cfg.numGroups = 2;
    Rng rng(31);

    C2MEngine single(cfg);
    ShardedEngine sharded(cfg, 4);
    std::vector<uint8_t> mask(cfg.numCounters, 1);
    const unsigned hs = single.addMask(mask);
    const unsigned hd = sharded.addMask(mask);

    for (int step = 0; step < 10; ++step) {
        const uint64_t v = 1 + rng.nextBounded(30);
        single.accumulate(v, hs, 0);
        sharded.accumulate(v, hd, 0);
        single.accumulate(v / 2, hs, 1);
        sharded.accumulate(v / 2, hd, 1);
    }
    single.drain(0);
    sharded.drain(0);
    single.addCounters(0, 1);
    sharded.addCounters(0, 1);
    EXPECT_EQ(sharded.readAllCounters(0), single.readCounters(0));

    // Drive group 1 negative, then relu both.
    single.accumulateSigned(-1000, hs, 1);
    sharded.accumulateSigned(-1000, hd, 1);
    single.relu(1);
    sharded.relu(1);
    const auto counters = sharded.readAllCounters(1);
    EXPECT_EQ(counters, single.readCounters(1));
    for (int64_t c : counters)
        EXPECT_GE(c, 0);

    single.clear();
    sharded.clear();
    EXPECT_EQ(sharded.readAllCounters(0), single.readCounters(0));
}

TEST(Sharded, MergedStatsAggregateFaultCounters)
{
    auto cfg = baseConfig(64);
    cfg.protection = Protection::Ecc;
    cfg.faultRate = 2e-4;
    const auto ops = randomOps(200, cfg.numCounters, 41, false);

    ShardedEngine sharded(cfg, 4);
    sharded.accumulateBatch(ops);
    const auto merged = sharded.stats();
    EXPECT_EQ(merged.inputsAccumulated, ops.size());
    EXPECT_GT(merged.checksRun, 0u);

    // The merge equals the field-wise sum over the shards.
    EngineStats manual;
    for (unsigned s = 0; s < sharded.numShards(); ++s)
        manual += sharded.shard(s).stats();
    EXPECT_EQ(merged.checksRun, manual.checksRun);
    EXPECT_EQ(merged.faultsDetected, manual.faultsDetected);
    EXPECT_EQ(merged.retries, manual.retries);
}

TEST(EngineStatsMerge, SumsEveryField)
{
    // fabricNs must equal sum(attrNs) (the ledger invariant), so the
    // fixtures put their whole 24.0/240.0 into the plan row.
    EngineStats a{1,  2,  3,  4,  5,  6,  7,  8,
                  9,  10, 11, 12, 13, 14, 15, 16,
                  {17, 18, 19, 20, 21, 22, 23, 24.0, 25.0, {24.0}},
                  26.0};
    const EngineStats b{10,  20,  30,  40,  50,  60,  70,  80,
                        90,  100, 110, 120, 130, 140, 150, 160,
                        {170, 180, 190, 200, 210, 220, 230, 240.0,
                         250.0, {240.0}},
                        260.0};
    a += b;
    EXPECT_EQ(a.inputsAccumulated, 11u);
    EXPECT_EQ(a.increments, 22u);
    EXPECT_EQ(a.ripples, 33u);
    EXPECT_EQ(a.checksRun, 44u);
    EXPECT_EQ(a.faultsDetected, 55u);
    EXPECT_EQ(a.retries, 66u);
    EXPECT_EQ(a.uncorrectedBlocks, 77u);
    EXPECT_EQ(a.invalidStates, 88u);
    EXPECT_EQ(a.voteOps, 99u);
    EXPECT_EQ(a.programCacheHits, 110u);
    EXPECT_EQ(a.programCacheMisses, 121u);
    EXPECT_EQ(a.plansExecuted, 132u);
    EXPECT_EQ(a.planPrograms, 143u);
    EXPECT_EQ(a.planLeadPrograms, 154u);
    EXPECT_EQ(a.plannedOps, 165u);
    EXPECT_EQ(a.planFallbackOps, 176u);
    EXPECT_EQ(a.fabric.aap, 187u);
    EXPECT_EQ(a.fabric.ap, 198u);
    EXPECT_EQ(a.fabric.tra, 209u);
    EXPECT_EQ(a.fabric.faultsInjected, 220u);
    EXPECT_EQ(a.fabric.rowReads, 231u);
    EXPECT_EQ(a.fabric.rowWrites, 242u);
    EXPECT_EQ(a.fabric.gangedCommands, 253u);
    EXPECT_DOUBLE_EQ(a.fabric.fabricNs, 264.0);
    EXPECT_DOUBLE_EQ(a.fabric.fabricNj, 275.0);
    EXPECT_DOUBLE_EQ(a.fabric.attr(cim::FabricCat::Plan), 264.0);
    // Bit-exact ledger invariant survives the merge.
    double ledger = 0.0;
    for (double row : a.fabric.attrNs)
        ledger += row;
    EXPECT_EQ(ledger, a.fabric.fabricNs);
    // Critical path is a max over parallel contributors, not a sum.
    EXPECT_DOUBLE_EQ(a.fabricCriticalNs, 260.0);

    // The per-contributor delta undoes the sum and re-syncs the ledger.
    const EngineStats d = a - b;
    EXPECT_EQ(d.inputsAccumulated, 1u);
    EXPECT_EQ(d.planFallbackOps, 16u);
    EXPECT_EQ(d.fabric.aap, 17u);
    EXPECT_EQ(d.fabric.gangedCommands, 23u);
    EXPECT_DOUBLE_EQ(d.fabric.fabricNj, 25.0);
    EXPECT_DOUBLE_EQ(d.fabric.attr(cim::FabricCat::Plan), 24.0);
    EXPECT_EQ(d.fabric.attr(cim::FabricCat::Plan), d.fabric.fabricNs);
}

// ---------------------------------------------------------------------
// Digit-plane drain planner
// ---------------------------------------------------------------------

namespace {

/** Positive-delta stream (plans engage; no signed fallback). */
std::vector<BatchOp>
positiveOps(size_t n, size_t counters, uint64_t seed,
            unsigned groups = 1)
{
    Rng rng(seed);
    std::vector<BatchOp> ops;
    ops.reserve(n);
    for (size_t i = 0; i < n; ++i)
        ops.push_back({rng.nextBounded(counters),
                       static_cast<int64_t>(1 + rng.nextBounded(50)),
                       static_cast<uint32_t>(rng.nextBounded(groups))});
    return ops;
}

/** Zipf(1.0)-skewed keys: the coalesced-bucket shape epochs see. */
std::vector<BatchOp>
zipfOps(size_t n, size_t counters, uint64_t seed)
{
    ZipfRng keys(counters, 1.0, seed);
    Rng val(seed ^ 0x5bf0);
    std::vector<BatchOp> ops;
    ops.reserve(n);
    for (size_t i = 0; i < n; ++i)
        ops.push_back({keys.next(),
                       static_cast<int64_t>(1 + val.nextBounded(7)),
                       0});
    return ops;
}

/** Adversarial: every counter hit once, every delta distinct. */
std::vector<BatchOp>
distinctDeltaOps(size_t counters)
{
    std::vector<BatchOp> ops;
    ops.reserve(counters);
    for (size_t c = 0; c < counters; ++c)
        ops.push_back({c, static_cast<int64_t>(c + 1), 0});
    return ops;
}

/** Run @p ops as one sharded batch with the planner on/off. */
std::pair<std::vector<int64_t>, EngineStats>
runPlanned(EngineConfig cfg, const std::vector<BatchOp> &ops,
           bool planner, unsigned shards = 4)
{
    cfg.drainPlanner = planner;
    ShardedEngine eng(cfg, shards);
    eng.accumulateBatch(ops);
    return {eng.readAllCounters(), eng.stats()};
}

} // namespace

TEST(DrainPlanner, UniformStreamMatchesSerialReplay)
{
    const auto cfg = baseConfig(96);
    const auto ops = positiveOps(600, cfg.numCounters, 3);
    const auto ref = core::replaySerial(cfg, ops);

    const auto [on, stats_on] = runPlanned(cfg, ops, true);
    const auto [off, stats_off] = runPlanned(cfg, ops, false);
    EXPECT_EQ(on, ref);
    EXPECT_EQ(off, ref);
    EXPECT_GT(stats_on.plansExecuted, 0u);
    EXPECT_GT(stats_on.planPrograms, 0u);
    EXPECT_EQ(stats_on.plannedOps + stats_on.planFallbackOps,
              ops.size());
    // The column-parallel win: far fewer fabric programs.
    EXPECT_LT(stats_on.increments, stats_off.increments / 4);
    EXPECT_EQ(stats_off.plansExecuted, 0u);
    EXPECT_EQ(stats_on.inputsAccumulated, ops.size());
}

TEST(DrainPlanner, ZipfStreamMatchesSerialReplay)
{
    const auto cfg = baseConfig(256);
    const auto ops = zipfOps(2000, cfg.numCounters, 21);
    const auto ref = core::replaySerial(cfg, ops);

    const auto [on, stats_on] = runPlanned(cfg, ops, true);
    EXPECT_EQ(on, ref);
    EXPECT_GT(stats_on.plansExecuted, 0u);
}

TEST(DrainPlanner, AdversarialDistinctDeltasMatch)
{
    // All-distinct deltas populate the most planes per plan — the
    // worst case for plane sharing; correctness must hold whether
    // the cost heuristic plans or falls back.
    const auto cfg = baseConfig(128);
    const auto ops = distinctDeltaOps(cfg.numCounters);
    const auto ref = core::replaySerial(cfg, ops);

    const auto [on, stats_on] = runPlanned(cfg, ops, true);
    EXPECT_EQ(on, ref);
    EXPECT_EQ(stats_on.plannedOps + stats_on.planFallbackOps,
              ops.size());
}

TEST(DrainPlanner, PlanProgramsBoundedByDigitPlanes)
{
    const auto cfg = baseConfig(256);
    const auto ops = positiveOps(1500, cfg.numCounters, 9);

    EngineConfig pcfg = cfg;
    pcfg.drainPlanner = true;
    ShardedEngine eng(pcfg, 4);
    eng.accumulateBatch(ops);
    const auto st = eng.stats();
    // One batch = at most one plan per (shard, group); each plan
    // issues at most D*(R-1) plane programs.
    const unsigned D = eng.shard(0).backend().numDigits();
    const uint64_t bound = static_cast<uint64_t>(D) *
                           (cfg.radix - 1) * eng.numShards();
    EXPECT_LE(st.planPrograms, bound);
    EXPECT_LE(st.plansExecuted, eng.numShards());
    EXPECT_EQ(eng.readAllCounters(), core::replaySerial(cfg, ops));
}

TEST(DrainPlanner, GuardDigitSumsFallBackInsteadOfPanicking)
{
    // 70000 unit hits on one counter: each raw op is in range, but
    // the summed delta's top digit would land in the guard digit the
    // planner cannot address — the bucket must fall back per-op (the
    // path that grows the counter via ripples), not abort.
    auto cfg = baseConfig(8);
    cfg.capacityBits = 16; // D = 9 digits at radix 4
    std::vector<BatchOp> ops(70000, BatchOp{0, 1, 0});
    ops.push_back({1, 3, 0});

    EngineConfig pcfg = cfg;
    pcfg.drainPlanner = true;
    ShardedEngine eng(pcfg, 1);
    eng.accumulateBatch(ops);
    const auto counters = eng.readAllCounters();
    EXPECT_EQ(counters[0], 70000);
    EXPECT_EQ(counters[1], 3);
    EXPECT_GT(eng.stats().planFallbackOps, 0u);
}

TEST(DrainPlanner, HotKeyDuplicatesPlanAgainstRawOpCost)
{
    // An uncoalesced hot-key bucket: the sums collapse to few
    // counters, so the plan must be costed against the RAW per-op
    // replay it replaces (~N programs), not against the sums —
    // otherwise 2000 unit hits would fall back to 2000 program
    // chains where a handful of planes suffice.
    const auto cfg = baseConfig(32);
    std::vector<BatchOp> ops(2000, BatchOp{4, 1, 0});
    const auto ref = core::replaySerial(cfg, ops);

    const auto [on, stats_on] = runPlanned(cfg, ops, true, 1);
    EXPECT_EQ(on, ref);
    EXPECT_EQ(stats_on.planFallbackOps, 0u);
    EXPECT_GT(stats_on.plansExecuted, 0u);
    EXPECT_LT(stats_on.increments, 20u);
}

TEST(DrainPlanner, SignedBucketsFallBackPerOp)
{
    const auto cfg = baseConfig(64);
    const auto ops = randomOps(400, cfg.numCounters, 19, true);
    const auto ref = runSingle(cfg, ops);

    const auto [on, stats_on] = runPlanned(cfg, ops, true);
    EXPECT_EQ(on, ref);
    EXPECT_GT(stats_on.planFallbackOps, 0u);
}

TEST(DrainPlanner, SignedModeGroupNeverPlans)
{
    // Once a group saw a decrement, every later bucket must take the
    // per-op path (pending flags stay fully resolved in signed mode).
    const auto cfg = baseConfig(32);
    EngineConfig pcfg = cfg;
    pcfg.drainPlanner = true;
    ShardedEngine eng(pcfg, 1);
    std::vector<BatchOp> neg{{3, -5, 0}};
    eng.accumulateBatch(neg);
    const auto pos = positiveOps(100, cfg.numCounters, 31);
    eng.accumulateBatch(pos);

    const auto st = eng.stats();
    EXPECT_EQ(st.plansExecuted, 0u);
    EXPECT_EQ(st.planFallbackOps, 1 + pos.size());

    std::vector<BatchOp> all = neg;
    all.insert(all.end(), pos.begin(), pos.end());
    EXPECT_EQ(eng.readAllCounters(), runSingle(cfg, all));
}

TEST(DrainPlanner, MultiGroupBucketsPlanIndependently)
{
    auto cfg = baseConfig(64);
    cfg.numGroups = 3;
    const auto ops = positiveOps(900, cfg.numCounters, 41, 3);

    EngineConfig pcfg = cfg;
    pcfg.drainPlanner = true;
    ShardedEngine eng(pcfg, 2);
    eng.accumulateBatch(ops);
    EXPECT_GT(eng.stats().plansExecuted, 0u);
    for (unsigned g = 0; g < 3; ++g)
        EXPECT_EQ(eng.readAllCounters(g),
                  core::replaySerial(cfg, ops, g))
            << "group " << g;
}

class PlannerBackends
    : public ::testing::TestWithParam<core::BackendKind>
{
};

TEST_P(PlannerBackends, PlannedBatchMatchesSerialReplay)
{
    auto cfg = baseConfig(64);
    cfg.backend = GetParam();
    cfg.capacityBits = 16;
    const auto ops = zipfOps(1200, cfg.numCounters, 61);
    const auto ref = core::replaySerial(cfg, ops);

    const auto [on, stats_on] = runPlanned(cfg, ops, true);
    const auto [off, stats_off] = runPlanned(cfg, ops, false);
    EXPECT_EQ(on, ref);
    EXPECT_EQ(off, ref);
    EXPECT_GT(stats_on.plansExecuted, 0u);
    EXPECT_LT(stats_on.increments, stats_off.increments);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, PlannerBackends,
    ::testing::Values(core::BackendKind::Ambit,
                      core::BackendKind::NvmPinatubo,
                      core::BackendKind::NvmMagic,
                      core::BackendKind::Rca),
    [](const ::testing::TestParamInfo<core::BackendKind> &info) {
        switch (info.param) {
          case core::BackendKind::Ambit:
            return "ambit";
          case core::BackendKind::NvmPinatubo:
            return "nvm_pinatubo";
          case core::BackendKind::NvmMagic:
            return "nvm_magic";
          default:
            return "rca";
        }
    });

// ---------------------------------------------------------------------
// Hierarchical epoch pipeline (accumulateBatch runs one runEpoch):
// merged plans + gang issue
// ---------------------------------------------------------------------

namespace {

/** Gang-issue ledger invariants every drained engine must satisfy. */
void
expectGangInvariants(const EngineStats &st, unsigned shards)
{
    // Followers are a subset of plan programs, ganged commands a
    // subset of all commands, and the attribution ledger stays
    // bit-exact with the PlanFanout row included.
    EXPECT_LE(st.planLeadPrograms, st.planPrograms);
    EXPECT_LE(st.fabric.gangedCommands, st.fabric.commands());
    double ledger = 0.0;
    for (double row : st.fabric.attrNs)
        ledger += row;
    EXPECT_EQ(ledger, st.fabric.fabricNs);
    if (shards == 1) {
        // Single-shard plans are all-lead: nothing to gang.
        EXPECT_EQ(st.planLeadPrograms, st.planPrograms);
        EXPECT_EQ(st.fabric.gangedCommands, 0u);
        EXPECT_DOUBLE_EQ(
            st.fabric.attr(cim::FabricCat::PlanFanout), 0.0);
    }
}

} // namespace

class EpochPipeline
    : public ::testing::TestWithParam<
          std::tuple<core::BackendKind, unsigned>>
{
};

TEST_P(EpochPipeline, UnsignedEpochMatchesSerialReplay)
{
    const auto [backend, shards] = GetParam();
    auto cfg = baseConfig(96);
    cfg.backend = backend;
    cfg.capacityBits = 16;
    const auto ops = positiveOps(800, cfg.numCounters, 77);
    const auto ref = core::replaySerial(cfg, ops);

    EngineConfig pcfg = cfg;
    pcfg.drainPlanner = true;
    ShardedEngine eng(pcfg, shards);
    eng.accumulateBatch(ops);
    EXPECT_EQ(eng.readAllCounters(), ref);

    const auto st = eng.stats();
    EXPECT_EQ(st.plannedOps + st.planFallbackOps, ops.size());
    expectGangInvariants(st, shards);
    if (shards > 1 && st.plansExecuted >= shards) {
        // A dense uniform stream touches the same (digit, k) planes
        // on every shard, so the merged plan must actually gang:
        // followers exist and are charged in their own ledger row.
        EXPECT_LT(st.planLeadPrograms, st.planPrograms);
        EXPECT_GT(st.fabric.gangedCommands, 0u);
        EXPECT_GT(st.fabric.attr(cim::FabricCat::PlanFanout), 0.0);
    }
}

TEST_P(EpochPipeline, SignedEpochFallsBackAndMatches)
{
    const auto [backend, shards] = GetParam();
    auto cfg = baseConfig(64);
    cfg.backend = backend;
    cfg.capacityBits = 16;
    const auto ops = randomOps(300, cfg.numCounters, 83, true);
    const auto ref = runSingle(cfg, ops);

    EngineConfig pcfg = cfg;
    pcfg.drainPlanner = true;
    ShardedEngine eng(pcfg, shards);
    eng.accumulateBatch(ops);
    EXPECT_EQ(eng.readAllCounters(), ref);

    const auto st = eng.stats();
    EXPECT_GT(st.planFallbackOps, 0u);
    expectGangInvariants(st, shards);
    // Serial replay is never ganged: fallback ns stays per shard.
    EXPECT_GT(st.fabric.attr(cim::FabricCat::Fallback), 0.0);
}

TEST_P(EpochPipeline, StatsWindowCoversOnlyItsBatch)
{
    const auto [backend, shards] = GetParam();
    auto cfg = baseConfig(96);
    cfg.backend = backend;
    cfg.capacityBits = 16;
    ShardedEngine eng(cfg, shards);
    const auto lifetime = core::StatsWindow::lifetime(eng);

    // Warm-up epoch on the per-op path, then the measured batch.
    eng.accumulateBatch(randomOps(300, cfg.numCounters, 83, true));
    const core::StatsWindow batch(eng);
    const auto ops = positiveOps(800, cfg.numCounters, 77);
    eng.accumulateBatch(ops);

    // A window from zero is the engine's lifetime view, exactly.
    const auto total = eng.stats();
    EXPECT_EQ(lifetime.delta().fabricCriticalNs, total.fabricCriticalNs);

    // The later window sees only the batch, with a critical path
    // recomputed from per-shard deltas rather than the lifetime one.
    const auto d = batch.delta();
    EXPECT_EQ(d.plannedOps + d.planFallbackOps, ops.size());
    expectGangInvariants(d, shards);
    EXPECT_GT(d.fabricCriticalNs, 0.0);
    EXPECT_LE(d.fabricCriticalNs, d.fabric.fabricNs);
    EXPECT_LT(d.fabricCriticalNs, total.fabricCriticalNs);
    double slowest = 0.0;
    for (unsigned s = 0; s < shards; ++s)
        slowest = std::max(slowest, batch.shardDelta(s).fabric.fabricNs);
    EXPECT_GE(d.fabricCriticalNs, slowest);
    if (shards == 1) {
        EXPECT_EQ(d.fabricCriticalNs, d.fabric.fabricNs);
    }
}

INSTANTIATE_TEST_SUITE_P(
    BackendsByShards, EpochPipeline,
    ::testing::Combine(
        ::testing::Values(core::BackendKind::Ambit,
                          core::BackendKind::NvmPinatubo,
                          core::BackendKind::NvmMagic,
                          core::BackendKind::Rca),
        ::testing::Values(1u, 2u, 4u, 8u)),
    [](const ::testing::TestParamInfo<
        std::tuple<core::BackendKind, unsigned>> &info) {
        std::string name;
        switch (std::get<0>(info.param)) {
          case core::BackendKind::Ambit:
            name = "ambit";
            break;
          case core::BackendKind::NvmPinatubo:
            name = "nvm_pinatubo";
            break;
          case core::BackendKind::NvmMagic:
            name = "nvm_magic";
            break;
          default:
            name = "rca";
            break;
        }
        return name + "_x" + std::to_string(std::get<1>(info.param));
    });

TEST(EpochPipeline, RepeatedEpochsReuseScratchAndStayExact)
{
    // Three epochs of different shapes through one engine: the
    // per-part scratch (planes, tables, step lists) is reused across
    // runEpoch calls and must never leak state between epochs.
    auto cfg = baseConfig(128);
    cfg.capacityBits = 16;
    EngineConfig pcfg = cfg;
    pcfg.drainPlanner = true;
    ShardedEngine eng(pcfg, 4);

    const auto e1 = positiveOps(500, cfg.numCounters, 5);
    const auto e2 = zipfOps(700, cfg.numCounters, 6);
    const auto e3 = distinctDeltaOps(cfg.numCounters);
    eng.accumulateBatch(e1);
    eng.accumulateBatch(e2);
    eng.accumulateBatch(e3);

    std::vector<BatchOp> all = e1;
    all.insert(all.end(), e2.begin(), e2.end());
    all.insert(all.end(), e3.begin(), e3.end());
    EXPECT_EQ(eng.readAllCounters(), core::replaySerial(cfg, all));
    expectGangInvariants(eng.stats(), 4);
}

TEST(EpochPipeline, MultiGroupEpochMergesPerGroup)
{
    // Groups plan independently even inside one merged epoch: each
    // group gets its own global plan, sliced across the shards that
    // hold its ops.
    auto cfg = baseConfig(64);
    cfg.numGroups = 3;
    const auto ops = positiveOps(900, cfg.numCounters, 47, 3);

    EngineConfig pcfg = cfg;
    pcfg.drainPlanner = true;
    ShardedEngine eng(pcfg, 4);
    eng.accumulateBatch(ops);
    for (unsigned g = 0; g < 3; ++g)
        EXPECT_EQ(eng.readAllCounters(g),
                  core::replaySerial(cfg, ops, g))
            << "group " << g;
    expectGangInvariants(eng.stats(), 4);
}

TEST(EpochPipeline, MergedPlanAttributionSublinearInShards)
{
    // The tentpole claim: one gang-issued global plan instead of N
    // replicated per-shard plans. Lead programs stop scaling with
    // the shard count, so 8-shard plan attribution must stay well
    // under 4x the 1-shard cost for the same stream (it was exactly
    // 8x under replication).
    auto cfg = baseConfig(256);
    cfg.capacityBits = 16;
    cfg.drainPlanner = true;
    const auto ops = positiveOps(4000, cfg.numCounters, 91);

    auto planAttr = [&](unsigned shards) {
        ShardedEngine eng(cfg, shards);
        eng.accumulateBatch(ops);
        EXPECT_GT(eng.stats().plansExecuted, 0u);
        return eng.stats().fabric.attr(cim::FabricCat::Plan);
    };
    const double one = planAttr(1);
    const double eight = planAttr(8);
    EXPECT_GT(one, 0.0);
    EXPECT_LT(eight, 4.0 * one);
}

TEST(DrainPlanner, ProtectedConfigsStayExact)
{
    for (const auto prot : {Protection::Ecc, Protection::Tmr}) {
        auto cfg = baseConfig(48);
        cfg.protection = prot;
        const auto ops = positiveOps(300, cfg.numCounters, 51);
        const auto ref = core::replaySerial(cfg, ops);
        const auto [on, stats_on] = runPlanned(cfg, ops, true);
        EXPECT_EQ(on, ref);
        EXPECT_GT(stats_on.plansExecuted, 0u);
        if (prot == Protection::Ecc)
            EXPECT_GT(stats_on.checksRun, 0u);
        else
            EXPECT_GT(stats_on.voteOps, 0u);
    }
}

TEST(ShardedWorkloads, DnaBatchedHistogramMatchesHost)
{
    workloads::DnaConfig dcfg;
    dcfg.genomeLen = 4096;
    dcfg.binSize = 256;
    dcfg.numReads = 8;
    workloads::DnaWorkload dna(dcfg);

    auto ecfg = baseConfig(128);
    ecfg.capacityBits = 24;
    ecfg.maxMaskRows = 1;
    ShardedEngine eng(ecfg, 4);

    const auto host = dna.repetitionHistogram();
    const auto batched = dna.repetitionHistogram(eng);
    EXPECT_EQ(batched.total(), host.total());
    EXPECT_EQ(batched.overflow(), host.overflow());
    EXPECT_EQ(batched.underflow(), host.underflow());
    for (int64_t v = 0; v <= 18; ++v)
        EXPECT_EQ(batched.binCount(v), host.binCount(v))
            << "bin " << v;
}

TEST(ShardedWorkloads, SparsityValueHistogramMatchesHost)
{
    const unsigned bits = 5; // values in [1, 32)
    const auto values =
        workloads::sparseUnsignedVector(600, bits, 0.4, 77);

    auto ecfg = baseConfig(32);
    ecfg.capacityBits = 16;
    ecfg.maxMaskRows = 1;
    ShardedEngine eng(ecfg, 4);
    const auto h = workloads::valueHistogram(values, eng);

    std::vector<uint64_t> expected(32, 0);
    for (uint64_t v : values)
        ++expected[v];
    EXPECT_EQ(h.total(), values.size());
    for (int64_t v = 0; v < 32; ++v)
        EXPECT_EQ(h.binCount(v), expected[static_cast<size_t>(v)])
            << "value " << v;

    const auto signedv =
        workloads::sparseSignedVector(400, bits, 0.3, 78);
    ShardedEngine eng2(ecfg, 4);
    const auto hm = workloads::magnitudeHistogram(signedv, eng2);
    std::vector<uint64_t> mexp(32, 0);
    for (int64_t v : signedv)
        ++mexp[static_cast<size_t>(v < 0 ? -v : v)];
    for (int64_t v = 0; v < 32; ++v)
        EXPECT_EQ(hm.binCount(v), mexp[static_cast<size_t>(v)]);
}

// Every parallel per-shard task runs under the shard's single-writer
// guard, broadcasts included: a broadcast issued while the caller
// already holds shard 0 is a second writer on shard 0. The pool's
// workers are threads, so the child must re-execute the binary
// rather than fork this process mid-test.
TEST(ShardedDeathTest, BroadcastInsideShardTaskPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ShardedEngine eng(baseConfig(64), 4);
    const unsigned h = eng.addMask(std::vector<uint8_t>(64, 1));
    EXPECT_DEATH(eng.runShardTask(0,
                                  [&](C2MEngine &, size_t) {
                                      eng.accumulate(1, h);
                                  }),
                 "concurrent writers");
}
