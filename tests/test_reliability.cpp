/**
 * @file
 * Reliability-subsystem tests: canonical-image encoding against the
 * live fabric, RowCodec round trips at random geometry, scrub-under-
 * concurrent-ingest exactness (the subsystem's acceptance property:
 * scrubbed runs end bit-identical to fault-free serial replay while
 * unscrubbed runs at the same fault rate do not), standalone
 * sweeps, the mirror store's own SEC-DED, TMR replicas, NVM fabrics,
 * and the health monitor's blind fault-rate estimate.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "core/engine.hpp"
#include "core/sharded.hpp"
#include "ecc/rowcodec.hpp"
#include "reliability/health.hpp"
#include "reliability/mirror.hpp"
#include "reliability/scrubber.hpp"
#include "service/ingest.hpp"

using namespace c2m;
using namespace c2m::core;
using c2m::reliability::HealthMonitor;
using c2m::reliability::RowMirror;
using c2m::reliability::Scrubber;
using c2m::reliability::ScrubObservation;

namespace {

EngineConfig
faultyConfig(size_t counters, double fault_rate, uint64_t seed)
{
    EngineConfig cfg;
    cfg.numCounters = counters;
    cfg.capacityBits = 24;
    cfg.faultRate = fault_rate;
    cfg.seed = seed;
    return cfg;
}

std::vector<BatchOp>
randomOps(size_t count, size_t counters, uint64_t seed,
          bool with_negatives)
{
    Rng rng(seed);
    std::vector<BatchOp> ops;
    ops.reserve(count);
    for (size_t i = 0; i < count; ++i) {
        int64_t v = 1 + static_cast<int64_t>(rng.nextBounded(40));
        if (with_negatives && rng.nextBool(0.3))
            v = -v;
        ops.push_back({rng.nextBounded(counters), v, 0});
    }
    return ops;
}

std::vector<int64_t>
faultFreeReference(const EngineConfig &cfg,
                   std::span<const BatchOp> ops)
{
    EngineConfig clean = cfg;
    clean.faultRate = 0.0;
    return replaySerial(clean, ops);
}

} // namespace

// ---------------------------------------------------------------------
// Canonical counter images (the mirror's correctness foundation)
// ---------------------------------------------------------------------

class CanonicalEncode
    : public ::testing::TestWithParam<std::tuple<unsigned, bool>>
{
};

TEST_P(CanonicalEncode, MatchesDrainedFabricRows)
{
    const unsigned radix = std::get<0>(GetParam());
    const bool with_negatives = std::get<1>(GetParam());

    EngineConfig cfg;
    cfg.radix = radix;
    cfg.capacityBits = 20;
    cfg.numCounters = 48;
    cfg.maxMaskRows = 2;
    cfg.seed = 100 + radix;
    C2MEngine eng(cfg);

    Rng rng(7 * radix + with_negatives);
    std::vector<uint8_t> mask(cfg.numCounters);
    const unsigned h = eng.addMask(mask);
    std::vector<int64_t> expect(cfg.numCounters, 0);
    for (int it = 0; it < 120; ++it) {
        for (auto &b : mask)
            b = rng.nextBool(0.4);
        eng.setMask(h, mask);
        int64_t v = 1 + static_cast<int64_t>(rng.nextBounded(200));
        if (with_negatives && rng.nextBool(0.4))
            v = -v;
        eng.accumulateSigned(v, h);
        for (size_t c = 0; c < mask.size(); ++c)
            if (mask[c])
                expect[c] += v;
    }
    eng.drain(0);

    RowMirror mirror(eng.layout(0), cfg.numCounters);
    mirror.encodeValues(expect);
    for (size_t r = 0; r < mirror.numRows(); ++r) {
        const unsigned row = mirror.fabricRow(eng.layout(0), r);
        EXPECT_EQ(eng.backend().scrubReadRow(row), mirror.dataBits(r))
            << "mirror row " << r;
    }
    // And the mirror decodes back to the exact values.
    EXPECT_EQ(mirror.decodeValues(), expect);
}

INSTANTIATE_TEST_SUITE_P(
    Radixes, CanonicalEncode,
    ::testing::Combine(::testing::Values(4u, 6u, 10u, 16u),
                       ::testing::Bool()));

// ---------------------------------------------------------------------
// RowCodec batch + scrub path at random geometry
// ---------------------------------------------------------------------

TEST(RowCodecRoundTrip, RandomWidthsEncodeDecode)
{
    Rng rng(21);
    for (int trial = 0; trial < 40; ++trial) {
        const size_t width = 1 + rng.nextBounded(400);
        ecc::RowCodec codec(width);
        std::vector<BitVector> rows(
            3, BitVector(codec.totalBits()));
        for (auto &row : rows)
            for (size_t i = 0; i < width; ++i)
                row.set(i, rng.nextBool(0.5));
        codec.encodeRows(rows);
        for (const auto &row : rows)
            EXPECT_TRUE(codec.checkRow(row));

        // A single flip in one row is healed by the batch pass.
        const std::vector<BitVector> clean = rows;
        const size_t victim = rng.nextBounded(width);
        rows[1].set(victim, !rows[1].get(victim));
        const auto res = codec.correctRows(rows);
        EXPECT_EQ(res.corrected, 1u);
        EXPECT_EQ(res.uncorrectable, 0u);
        for (size_t r = 0; r < rows.size(); ++r) {
            EXPECT_TRUE(codec.checkRow(rows[r]));
            EXPECT_EQ(rows[r], clean[r]);
        }
    }
}

TEST(RowCodecScrub, CorrectsSingleFlipsRecoversDenseOnes)
{
    Rng rng(22);
    for (int trial = 0; trial < 30; ++trial) {
        const size_t width = 65 + rng.nextBounded(300);
        ecc::RowCodec codec(width);
        BitVector trusted(codec.totalBits());
        for (size_t i = 0; i < width; ++i)
            trusted.set(i, rng.nextBool(0.5));
        codec.encodeRow(trusted);

        // Fabric copy with one sparse flip and one dense word.
        BitVector fabric(width);
        for (size_t i = 0; i < width; ++i)
            fabric.set(i, trusted.get(i));
        const size_t sparse = rng.nextBounded(std::min<size_t>(64, width));
        fabric.set(sparse, !fabric.get(sparse));
        size_t dense_word = width > 64 ? 1 : 0;
        size_t flipped_dense = 0;
        for (size_t b = 0; b < 3; ++b) {
            const size_t pos = dense_word * 64 + b;
            if (pos < width && pos != sparse) {
                fabric.set(pos, !fabric.get(pos));
                ++flipped_dense;
            }
        }
        const auto res = codec.scrubRow(fabric, trusted);
        EXPECT_GE(res.corrected, 1u);
        if (flipped_dense >= 2) {
            EXPECT_GE(res.uncorrectable, 1u);
        }
        for (size_t i = 0; i < width; ++i)
            EXPECT_EQ(fabric.get(i), trusted.get(i)) << "bit " << i;
    }
}

// ---------------------------------------------------------------------
// Scrubbed ingest == fault-free replay (the acceptance property)
// ---------------------------------------------------------------------

TEST(ReliabilityIngest, ScrubbedRunMatchesFaultFreeReplay)
{
    const auto cfg = faultyConfig(96, 1e-3, 11);
    const auto ops = randomOps(3000, cfg.numCounters, 5, true);
    const auto ref = faultFreeReference(cfg, ops);

    ShardedEngine eng(cfg, 4);
    // The observer must outlive the service (stop() hands it a final
    // sweep), so the scrubber is constructed first.
    Scrubber scrub(eng);
    service::IngestService svc(eng, {});
    svc.attachObserver(&scrub);

    // Producers run while the scrubber corrects injected faults at
    // every epoch boundary (the TSan job covers this interleaving).
    service::submitConcurrent(svc, ops, 4);
    const auto snap = svc.snapshot();
    EXPECT_EQ(snap.counters, ref);

    const auto st = scrub.stats();
    EXPECT_GT(st.sweeps, 0u);
    EXPECT_GT(st.rowsScrubbed, 0u);
    EXPECT_GT(st.faultyBits, 0u);
    EXPECT_GT(st.bitsCorrected + st.wordsRecovered, 0u);
    EXPECT_EQ(st.mirrorWordsLost, 0u);

    // Scrub + fault activity surfaces in the merged service report.
    const auto report = svc.report();
    EXPECT_GT(report.at("reliability.sweeps"), 0u);
    EXPECT_GT(report.at("engine.fabric.faults_injected"), 0u);
    EXPECT_GT(report.at("engine.fabric.tra"), 0u);
    ASSERT_TRUE(report.count("health.fault_rate_ppt"));
}

TEST(ReliabilityIngest, ScrubbedPlannerDrainMatchesFaultFreeReplay)
{
    // Column-parallel drain plans under live CIM faults: the journal
    // records the planned (coalesced) deltas, so sweeps reconstruct
    // the exact expected image and the run ends bit-identical to a
    // fault-free serial replay — with far fewer fabric programs.
    const auto cfg = faultyConfig(96, 1e-3, 23);
    const auto ops = randomOps(3000, cfg.numCounters, 7, false);
    const auto ref = faultFreeReference(cfg, ops);

    ShardedEngine eng(cfg, 4);
    Scrubber scrub(eng);
    service::IngestConfig icfg;
    icfg.minDrainOps = 256; // real coalesced buckets per epoch
    icfg.queueCapacity = ops.size();
    service::IngestService svc(eng, icfg);
    svc.attachObserver(&scrub);

    service::submitConcurrent(svc, ops, 4);
    const auto snap = svc.snapshot();
    EXPECT_EQ(snap.counters, ref);

    // The plans actually engaged (this is not fallback coverage),
    // and the scrubber journaled every planned delta.
    const auto est = svc.engineStats();
    EXPECT_GT(est.plansExecuted, 0u);
    EXPECT_GT(est.plannedOps, 0u);
    const auto st = scrub.stats();
    EXPECT_GT(st.sweeps, 0u);
    EXPECT_GT(st.opsJournaled, 0u);
    EXPECT_EQ(st.mirrorWordsLost, 0u);
}

TEST(ReliabilityIngest, PlannerOffScrubbedRunStaysExactToo)
{
    auto cfg = faultyConfig(64, 1e-3, 29);
    cfg.drainPlanner = false;
    const auto ops = randomOps(1500, cfg.numCounters, 13, false);
    const auto ref = faultFreeReference(cfg, ops);

    ShardedEngine eng(cfg, 4);
    Scrubber scrub(eng);
    service::IngestService svc(eng, {});
    svc.attachObserver(&scrub);
    service::submitConcurrent(svc, ops, 2);
    EXPECT_EQ(svc.snapshot().counters, ref);
    EXPECT_EQ(svc.engineStats().plansExecuted, 0u);
}

TEST(ReliabilityIngest, UnscrubbedRunShowsUncorrectedErrors)
{
    const auto cfg = faultyConfig(96, 1e-3, 11);
    const auto ops = randomOps(3000, cfg.numCounters, 5, true);
    const auto ref = faultFreeReference(cfg, ops);

    ShardedEngine eng(cfg, 4);
    service::IngestService svc(eng, {});
    service::submitConcurrent(svc, ops, 4);
    const auto snap = svc.snapshot();

    size_t wrong = 0;
    for (size_t i = 0; i < ref.size(); ++i)
        wrong += snap.counters[i] != ref[i];
    EXPECT_GT(wrong, 0u);
}

TEST(ReliabilityIngest, StragglersScrubbedOnStop)
{
    const auto cfg = faultyConfig(64, 2e-3, 17);
    const auto ops = randomOps(1200, cfg.numCounters, 9, false);
    const auto ref = faultFreeReference(cfg, ops);

    ShardedEngine eng(cfg, 2);
    // Nothing flushes the submitted ops before stop(): the service
    // drains them in its last epochs, and every boundary, the one
    // stop() adds included, sweeps every shard, so reads after stop
    // see exact counters.
    Scrubber scrub(eng);
    service::IngestService svc(eng, {});
    svc.attachObserver(&scrub);
    svc.submit(ops);
    svc.stop();

    EXPECT_EQ(eng.readAllCounters(0), ref);
    EXPECT_GT(scrub.stats().sweeps, 0u);
}

TEST(ReliabilityIngest, ObserverDetachesWhileIdle)
{
    const auto cfg = faultyConfig(32, 0.0, 91);
    ShardedEngine eng(cfg, 2);
    Scrubber scrub(eng);
    service::IngestService svc(eng, {});
    svc.attachObserver(&scrub);
    svc.submit(randomOps(100, cfg.numCounters, 93, false));
    svc.flushAndWait();
    ASSERT_GT(svc.report().count("reliability.sweeps"), 0u);

    svc.attachObserver(nullptr); // documented idle detach
    svc.submit(randomOps(50, cfg.numCounters, 95, false));
    svc.flushAndWait();
    EXPECT_EQ(svc.report().count("reliability.sweeps"), 0u);
}

// ---------------------------------------------------------------------
// Standalone mode, mirror store, TMR, NVM
// ---------------------------------------------------------------------

TEST(ScrubberStandalone, BatchesNotedAndSweptExactly)
{
    const auto cfg = faultyConfig(80, 1e-3, 23);
    const auto ops = randomOps(2500, cfg.numCounters, 31, true);
    const auto ref = faultFreeReference(cfg, ops);

    ShardedEngine eng(cfg, 4);
    Scrubber scrub(eng);
    const size_t chunk = 250;
    for (size_t lo = 0; lo < ops.size(); lo += chunk) {
        const auto part = std::span<const BatchOp>(ops).subspan(
            lo, std::min(chunk, ops.size() - lo));
        eng.accumulateBatch(part);
        scrub.noteBatch(part);
        scrub.boundary();
    }
    EXPECT_EQ(eng.readAllCounters(0), ref);
    // One policy: every boundary sweeps every shard.
    const auto st = scrub.stats();
    EXPECT_EQ(st.boundaries, (ops.size() + chunk - 1) / chunk);
    EXPECT_EQ(st.sweeps, st.boundaries * eng.numShards());
}

TEST(RowMirror, StoreFlipsAreCorrectedOnDecode)
{
    // The side store models spare ECC-protected rows: sparse flips in
    // them are repaired by its own SEC-DED when a sweep decodes it.
    const auto cfg = faultyConfig(72, 0.0, 41);
    C2MEngine eng(cfg);
    RowMirror mirror(eng.layout(0), cfg.numCounters);
    Rng rng(43);
    std::vector<int64_t> values(cfg.numCounters);
    for (auto &v : values)
        v = static_cast<int64_t>(rng.nextBounded(100'000)) - 50'000;
    mirror.encodeValues(values);

    size_t flipped = 0;
    for (size_t r = 0; r < mirror.numRows(); ++r)
        flipped += mirror.row(r).injectFaults(rng, 2e-3);
    ASSERT_GT(flipped, 0u);

    ecc::RowCodec::CorrectResult res;
    EXPECT_EQ(mirror.decodeValues(&res), values);
    EXPECT_GT(res.corrected, 0u);
    EXPECT_EQ(res.uncorrectable, 0u);
}

TEST(ScrubberProtection, TmrReplicasAreSwept)
{
    auto cfg = faultyConfig(48, 1e-3, 47);
    cfg.protection = Protection::Tmr;
    const auto ops = randomOps(800, cfg.numCounters, 53, false);
    const auto ref = faultFreeReference(cfg, ops);

    ShardedEngine eng(cfg, 2);
    Scrubber scrub(eng);
    eng.accumulateBatch(ops);
    scrub.noteBatch(ops);
    scrub.boundary();
    EXPECT_EQ(eng.readAllCounters(0), ref);
    // Three replicas tripled the swept rows relative to one group.
    EXPECT_EQ(scrub.stats().rowsScrubbed % 3, 0u);
}

TEST(ScrubberProtection, NvmFabricIsScrubbable)
{
    auto cfg = faultyConfig(64, 1e-3, 59);
    cfg.backend = BackendKind::NvmPinatubo;
    const auto ops = randomOps(1200, cfg.numCounters, 61, true);
    const auto ref = faultFreeReference(cfg, ops);

    ShardedEngine eng(cfg, 2);
    ASSERT_TRUE(Scrubber::supports(eng));
    Scrubber scrub(eng);
    const size_t chunk = 200;
    for (size_t lo = 0; lo < ops.size(); lo += chunk) {
        const auto part = std::span<const BatchOp>(ops).subspan(
            lo, std::min(chunk, ops.size() - lo));
        eng.accumulateBatch(part);
        scrub.noteBatch(part);
        scrub.boundary();
    }
    EXPECT_EQ(eng.readAllCounters(0), ref);
}

TEST(ScrubberProtection, RcaFabricIsNotScrubbable)
{
    auto cfg = faultyConfig(64, 0.0, 67);
    cfg.backend = BackendKind::Rca;
    ShardedEngine eng(cfg, 2);
    EXPECT_FALSE(Scrubber::supports(eng));
}

// ---------------------------------------------------------------------
// Health monitor
// ---------------------------------------------------------------------

TEST(HealthMonitor, EstimatesLiveFaultRateFromScrubOutcomes)
{
    const double injected = 2e-3;
    const auto cfg = faultyConfig(96, injected, 71);
    const auto ops = randomOps(4000, cfg.numCounters, 73, false);

    ShardedEngine eng(cfg, 4);
    Scrubber scrub(eng);
    const size_t chunk = 400;
    for (size_t lo = 0; lo < ops.size(); lo += chunk) {
        const auto part = std::span<const BatchOp>(ops).subspan(
            lo, std::min(chunk, ops.size() - lo));
        eng.accumulateBatch(part);
        scrub.noteBatch(part);
        scrub.boundary();
    }
    const double est = scrub.health().estimatedFaultRate();
    // Blind estimate from persisted flips: same order of magnitude.
    EXPECT_GT(est, injected / 10);
    EXPECT_LT(est, injected * 10);
}

TEST(HealthMonitor, RecommendationsScaleWithObservedRate)
{
    HealthMonitor quiet, noisy;
    quiet.observe({/*faultyBits=*/1, /*traDelta=*/1'000'000,
                   /*rowBits=*/512});
    noisy.observe({/*faultyBits=*/50'000, /*traDelta=*/1'000'000,
                   /*rowBits=*/512});
    EXPECT_LT(quiet.estimatedFaultRate(), noisy.estimatedFaultRate());
}
