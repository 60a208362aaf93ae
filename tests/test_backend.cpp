/**
 * @file
 * CountingBackend tests: the same engine drives Ambit, NVM
 * (Pinatubo/MAGIC) and RCA substrates with identical counter
 * readouts on unprotected configs, capability flags gate protection
 * and tensor support, and the per-backend program cache replays
 * bit-identical programs with hit/miss counts surfaced in
 * EngineStats.
 */

#include <gtest/gtest.h>

#include <iterator>

#include "common/rng.hpp"
#include "core/backend_rca.hpp"
#include "core/costmodel.hpp"
#include "core/engine.hpp"
#include "core/kernels.hpp"
#include "core/sharded.hpp"
#include "workloads/dna.hpp"
#include "workloads/sparsity.hpp"

using namespace c2m;
using core::BackendKind;
using core::C2MEngine;
using core::EngineConfig;
using core::ShardedEngine;

namespace {

constexpr BackendKind kAllBackends[] = {
    BackendKind::Ambit, BackendKind::NvmPinatubo,
    BackendKind::NvmMagic, BackendKind::Rca};

EngineConfig
baseConfig(BackendKind kind, unsigned radix = 4)
{
    EngineConfig cfg;
    cfg.backend = kind;
    cfg.radix = radix;
    cfg.capacityBits = 16;
    cfg.numCounters = 8;
    cfg.maxMaskRows = 4;
    return cfg;
}

/** An op stream exercising k-ary steps, multi-digit carries, zeros. */
const uint64_t kValues[] = {1, 3, 0, 7, 2, 15, 64, 5, 1023, 2, 77};

std::vector<uint8_t>
altMask(size_t n, unsigned phase)
{
    std::vector<uint8_t> m(n, 0);
    for (size_t i = 0; i < n; ++i)
        m[i] = (i % 3) == phase;
    return m;
}

/** Four distinct masks: the three altMask phases, then all ones. */
std::vector<uint8_t>
rotMask(size_t n, unsigned m)
{
    return m < 3 ? altMask(n, m) : std::vector<uint8_t>(n, 1);
}

} // namespace

class BackendKindTest
    : public ::testing::TestWithParam<BackendKind>
{
};

TEST_P(BackendKindTest, UnsignedAccumulateMatchesHostReference)
{
    auto cfg = baseConfig(GetParam());
    C2MEngine eng(cfg);
    const auto m0 = altMask(cfg.numCounters, 0);
    const auto m1 = altMask(cfg.numCounters, 1);
    const unsigned h0 = eng.addMask(m0);
    const unsigned h1 = eng.addMask(m1);

    std::vector<int64_t> expect(cfg.numCounters, 0);
    for (size_t i = 0; i < std::size(kValues); ++i) {
        const unsigned h = i % 2 ? h1 : h0;
        const auto &m = i % 2 ? m1 : m0;
        eng.accumulate(kValues[i], h);
        for (size_t c = 0; c < expect.size(); ++c)
            if (m[c])
                expect[c] += static_cast<int64_t>(kValues[i]);
    }
    EXPECT_EQ(eng.readCounters(), expect)
        << "backend " << core::backendName(GetParam());
}

TEST_P(BackendKindTest, SignedAccumulateMatchesHostReference)
{
    auto cfg = baseConfig(GetParam());
    C2MEngine eng(cfg);
    const auto m0 = altMask(cfg.numCounters, 0);
    const unsigned h0 = eng.addMask(m0);

    const int64_t stream[] = {5, -3, 40, -60, 7, -1, -200, 33};
    std::vector<int64_t> expect(cfg.numCounters, 0);
    for (int64_t v : stream) {
        eng.accumulateSigned(v, h0);
        for (size_t c = 0; c < expect.size(); ++c)
            if (m0[c])
                expect[c] += v;
    }
    EXPECT_EQ(eng.readCounters(), expect)
        << "backend " << core::backendName(GetParam());
}

TEST_P(BackendKindTest, ReadDigitMatchesDecompositionAfterDrain)
{
    auto cfg = baseConfig(GetParam());
    C2MEngine eng(cfg);
    std::vector<uint8_t> all(cfg.numCounters, 1);
    const unsigned h = eng.addMask(all);

    uint64_t total = 0;
    for (uint64_t v : {9u, 27u, 100u}) {
        eng.accumulate(v, h);
        total += v;
    }
    eng.drain(0);

    auto &backend = eng.backend();
    uint64_t rest = total;
    for (unsigned d = 0; d < backend.numDigits(); ++d) {
        const auto digits = backend.readDigit(0, d);
        for (size_t c = 0; c < cfg.numCounters; ++c)
            EXPECT_EQ(digits[c], rest % cfg.radix)
                << "digit " << d << " col " << c << " backend "
                << core::backendName(GetParam());
        rest /= cfg.radix;
    }
}

TEST_P(BackendKindTest, GemvBinaryKernelRunsOnEveryBackend)
{
    auto cfg = baseConfig(GetParam());
    cfg.maxMaskRows = 8;
    C2MEngine eng(cfg);
    const auto Z = workloads::randomBinaryMatrix(
        6, cfg.numCounters, 0.5, 42);
    const std::vector<uint64_t> x = {3, 0, 9, 1, 14, 6};
    EXPECT_EQ(core::gemvIntBinary(eng, x, Z),
              core::refGemvBinary(x, Z));
}

TEST_P(BackendKindTest, CachedProgramsAreBitIdenticalToUncached)
{
    // Replay == regeneration: a fresh engine generates each program
    // the first time the stream needs it; after clear() it replays
    // the stream from the warm cache alone. Each pass charges the
    // fabric ledger from zero, so equal command streams give bit-equal
    // ns and nJ. Inputs rotate over the masks; a program binds its
    // mask row when it runs, so rotating over four masks misses
    // exactly as often as one mask does.
    const auto cfg = baseConfig(GetParam());
    const auto passes = [&](unsigned num_masks) {
        C2MEngine eng(cfg);
        std::vector<unsigned> h;
        for (unsigned m = 0; m < num_masks; ++m)
            h.push_back(eng.addMask(rotMask(cfg.numCounters, m)));
        std::vector<std::pair<std::vector<int64_t>, core::EngineStats>>
            out;
        for (int pass = 0; pass < 2; ++pass) {
            eng.clear();
            eng.backend().opStatsRef().reset();
            const core::EngineStats before = eng.stats();
            for (size_t i = 0; i < 3 * std::size(kValues); ++i)
                eng.accumulate(kValues[i % std::size(kValues)],
                               h[i % num_masks]);
            auto counters = eng.readCounters();
            out.emplace_back(std::move(counters), eng.stats() - before);
        }
        return out;
    };
    const auto runs = passes(4);
    const core::EngineStats &cold = runs[0].second;
    const core::EngineStats &warm = runs[1].second;

    EXPECT_EQ(runs[1].first, runs[0].first);
    EXPECT_EQ(warm.fabric.aap, cold.fabric.aap);
    EXPECT_EQ(warm.fabric.ap, cold.fabric.ap);
    EXPECT_EQ(warm.fabric.tra, cold.fabric.tra);
    EXPECT_DOUBLE_EQ(warm.fabric.fabricNs, cold.fabric.fabricNs);
    EXPECT_DOUBLE_EQ(warm.fabric.fabricNj, cold.fabric.fabricNj);
    EXPECT_GT(cold.programCacheHits, 0u);
    EXPECT_GT(cold.programCacheMisses, 0u);
    EXPECT_EQ(warm.programCacheMisses, 0u);
    EXPECT_EQ(cold.programCacheMisses,
              passes(1)[0].second.programCacheMisses);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, BackendKindTest, ::testing::ValuesIn(kAllBackends),
    [](const ::testing::TestParamInfo<BackendKind> &info) {
        std::string name = core::backendName(info.param);
        for (auto &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

TEST(BackendEquivalence, AllBackendsAgreeBitForBit)
{
    std::vector<std::vector<int64_t>> reads;
    for (BackendKind kind : kAllBackends) {
        auto cfg = baseConfig(kind);
        C2MEngine eng(cfg);
        const unsigned h0 = eng.addMask(altMask(cfg.numCounters, 0));
        const unsigned h1 = eng.addMask(altMask(cfg.numCounters, 1));
        for (size_t i = 0; i < std::size(kValues); ++i)
            eng.accumulate(kValues[i], i % 2 ? h1 : h0);
        eng.accumulateSigned(-123, h0);
        eng.accumulateSigned(-6, h1);
        reads.push_back(eng.readCounters());
    }
    for (size_t b = 1; b < reads.size(); ++b)
        EXPECT_EQ(reads[0], reads[b])
            << "backend " << core::backendName(kAllBackends[b])
            << " diverges from ambit";
}

TEST(BackendReadDigit, NegativeCountersAgreeAtNonPowerOfTwoRadix)
{
    // radix 6: 2^W is not divisible by 6^D, so the RCA backend must
    // reduce into the JC ring before slicing digits of a negative
    // counter (a plain mod-2^W digit read would diverge here).
    std::vector<std::vector<unsigned>> per_backend;
    for (BackendKind kind : kAllBackends) {
        auto cfg = baseConfig(kind, /*radix=*/6);
        C2MEngine eng(cfg);
        std::vector<uint8_t> all(cfg.numCounters, 1);
        const unsigned h = eng.addMask(all);
        eng.accumulateSigned(5, h);
        eng.accumulateSigned(-12, h);
        std::vector<unsigned> digits;
        for (unsigned d = 0; d < eng.backend().numDigits(); ++d)
            for (unsigned v : eng.backend().readDigit(0, d))
                digits.push_back(v);
        per_backend.push_back(std::move(digits));
    }
    for (size_t b = 1; b < per_backend.size(); ++b)
        EXPECT_EQ(per_backend[0], per_backend[b])
            << "backend " << core::backendName(kAllBackends[b])
            << " digit readout diverges from ambit";
}

TEST(BackendCaps, AdvertiseExpectedFeatures)
{
    for (BackendKind kind : kAllBackends) {
        C2MEngine eng(baseConfig(kind));
        const auto &caps = eng.backend().caps();
        switch (kind) {
        case BackendKind::Ambit:
            EXPECT_TRUE(caps.eccChecks && caps.tmrVoting &&
                        caps.signedCounting && caps.tensorOps &&
                        caps.pendingFlags);
            break;
        case BackendKind::NvmPinatubo:
        case BackendKind::NvmMagic:
            EXPECT_FALSE(caps.eccChecks);
            EXPECT_FALSE(caps.tmrVoting);
            EXPECT_TRUE(caps.signedCounting);
            EXPECT_FALSE(caps.tensorOps);
            EXPECT_TRUE(caps.pendingFlags);
            break;
        case BackendKind::Rca:
            EXPECT_TRUE(caps.eccChecks);
            EXPECT_TRUE(caps.tmrVoting);
            EXPECT_TRUE(caps.signedCounting);
            EXPECT_FALSE(caps.tensorOps);
            EXPECT_FALSE(caps.pendingFlags);
            break;
        }
    }
}

TEST(BackendProtection, EccRunsOnAmbitAndRca)
{
    for (BackendKind kind :
         {BackendKind::Ambit, BackendKind::Rca}) {
        auto cfg = baseConfig(kind);
        cfg.protection = core::Protection::Ecc;
        C2MEngine eng(cfg);
        std::vector<uint8_t> all(cfg.numCounters, 1);
        const unsigned h = eng.addMask(all);
        eng.accumulate(21, h);
        eng.accumulate(9, h);
        EXPECT_EQ(eng.readCounters(),
                  std::vector<int64_t>(cfg.numCounters, 30));
        EXPECT_GT(eng.stats().checksRun, 0u);
    }
}

TEST(RcaInputs, EveryInputIsOneFullWidthAdd)
{
    // RCA cannot skip zeros or exploit small digits: 1, R^3 - 1 and
    // 0 each cost exactly one masked W-bit add.
    auto cfg = baseConfig(BackendKind::Rca);
    C2MEngine eng(cfg);
    const unsigned h = eng.addMask(altMask(cfg.numCounters, 0));
    auto &rca = dynamic_cast<core::RcaBackend &>(eng.backend());
    const uint64_t add_cmds =
        core::RcaCostModel(rca.width()).accumulateOps();
    const uint64_t R = cfg.radix;
    for (uint64_t v : {uint64_t{1}, R * R * R - 1, uint64_t{0}}) {
        const auto before = eng.subarray().stats().commands();
        eng.accumulate(v, h);
        EXPECT_EQ(eng.subarray().stats().commands() - before, add_cmds)
            << "value " << v;
    }
    EXPECT_EQ(eng.stats().increments, 3u);
    EXPECT_EQ(eng.stats().inputsAccumulated, 3u);
}

TEST(RcaInputs, TmrOutvotesACorruptedReplicaRow)
{
    auto cfg = baseConfig(BackendKind::Rca);
    cfg.protection = core::Protection::Tmr;
    C2MEngine eng(cfg);
    std::vector<uint8_t> all(cfg.numCounters, 1);
    const unsigned h = eng.addMask(all);
    eng.accumulate(5, h);

    // Flip bit 1 of every counter in replica 0 (the one readouts
    // use): 5 -> 7. The next add's vote must restore it from the two
    // clean replicas.
    auto &rca = dynamic_cast<core::RcaBackend &>(eng.backend());
    const uprog::RcaLayout replica0{rca.width(), 0}; // rows from 0
    eng.subarray().rawRow(replica0.bitRow(1)).invert();
    EXPECT_EQ(eng.readCounters(),
              std::vector<int64_t>(cfg.numCounters, 7));

    eng.accumulate(2, h);
    for (unsigned r = 0; r < eng.numReplicas(); ++r)
        EXPECT_EQ(rca.readCounters(eng.physicalGroup(0, r)),
                  std::vector<int64_t>(cfg.numCounters, 7))
            << "replica " << r;
    EXPECT_GT(eng.stats().voteOps, 0u);
}

TEST(BackendProtection, FaultedEccRetriesAreCacheInvariant)
{
    // With faults injected, a cold-cache pass and a warm-cache repeat
    // from the same fault RNG state must follow identical execution
    // paths (same programs, same RNG draws), so the readouts stay
    // bit-identical. Inputs alternate two masks, so the FR checks read
    // whichever mask row the replayed program is bound to.
    auto cfg = baseConfig(BackendKind::Ambit);
    cfg.protection = core::Protection::Ecc;
    cfg.faultRate = 2e-3;
    cfg.seed = 77;
    C2MEngine eng(cfg);
    const unsigned h[2] = {
        eng.addMask(std::vector<uint8_t>(cfg.numCounters, 1)),
        eng.addMask(altMask(cfg.numCounters, 1))};
    const Rng start = eng.subarray().rng();
    const auto pass = [&] {
        for (size_t i = 0; i < std::size(kValues); ++i)
            eng.accumulate(kValues[i], h[i % 2]);
        return eng.readCounters();
    };
    const auto cold = pass();
    const uint64_t misses = eng.stats().programCacheMisses;
    EXPECT_GT(misses, 0u);
    eng.clear();
    eng.subarray().rng() = start;
    EXPECT_EQ(pass(), cold);
    EXPECT_EQ(eng.stats().programCacheMisses, misses);
}

TEST(BackendSharded, NonAmbitShardsMatchHostHistogram)
{
    for (BackendKind kind : kAllBackends) {
        auto cfg = baseConfig(kind);
        cfg.numCounters = 32;
        cfg.maxMaskRows = 1;
        ShardedEngine eng(cfg, 4);
        std::vector<core::BatchOp> ops;
        std::vector<int64_t> expect(cfg.numCounters, 0);
        for (uint64_t i = 0; i < 64; ++i) {
            const uint64_t counter = (i * 7) % cfg.numCounters;
            const int64_t value = 1 + static_cast<int64_t>(i % 5);
            ops.push_back({counter, value, 0});
            expect[counter] += value;
        }
        eng.accumulateBatch(ops);
        EXPECT_EQ(eng.readAllCounters(), expect)
            << "backend " << core::backendName(kind);
    }
}

TEST(BackendSharded, ShiftLeftFansOutToAllShards)
{
    auto cfg = baseConfig(BackendKind::Ambit);
    cfg.numCounters = 16;
    cfg.numGroups = 2;
    cfg.maxMaskRows = 2;
    ShardedEngine eng(cfg, 4);
    std::vector<uint8_t> all(cfg.numCounters, 1);
    const unsigned h = eng.addMask(all);
    eng.accumulate(5, h, 0);

    eng.shiftLeft(0, 1, 2); // x4
    EXPECT_EQ(eng.readAllCounters(0),
              std::vector<int64_t>(cfg.numCounters, 20));
}

TEST(BackendWorkloads, DnaHistogramIsBackendInvariant)
{
    workloads::DnaConfig dcfg;
    dcfg.genomeLen = 2048;
    dcfg.binSize = 256;
    dcfg.numReads = 4;
    workloads::DnaWorkload dna(dcfg);
    const auto host = dna.repetitionHistogram();
    for (BackendKind kind : kAllBackends) {
        const auto h = dna.repetitionHistogram(kind, 2);
        ASSERT_EQ(h.total(), host.total());
        for (int64_t v = h.lo(); v <= h.hi(); ++v)
            EXPECT_EQ(h.binCount(v), host.binCount(v))
                << "bin " << v << " backend "
                << core::backendName(kind);
    }
}

TEST(BackendWorkloads, ValueHistogramIsBackendInvariant)
{
    const auto values =
        workloads::sparseUnsignedVector(96, 5, 0.3, 321);
    std::vector<uint64_t> expect(33, 0);
    for (uint64_t v : values)
        ++expect[v];
    for (BackendKind kind : kAllBackends) {
        const auto h = workloads::valueHistogram(values, kind, 2);
        for (uint64_t v = 0; v < expect.size(); ++v)
            EXPECT_EQ(h.binCount(static_cast<int64_t>(v)), expect[v])
                << "value " << v << " backend "
                << core::backendName(kind);
    }
}
