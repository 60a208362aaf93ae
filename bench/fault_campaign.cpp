/**
 * @file
 * Reliability fault campaign: Monte-Carlo sweep of CIM fault rate x
 * backend (Ambit / NVM / RCA) x protection level (None / ECC / TMR,
 * each with and without online scrubbing where the substrate
 * supports it) under live async ingest.
 *
 * Every cell streams the same op mix through an IngestService with
 * concurrent producers; an attached reliability::Scrubber sweeps
 * counter state at each epoch boundary when enabled. The final
 * snapshot is compared counter-by-counter against the exact host
 * sums (bit-identical to a fault-free core::replaySerial by the
 * sharded-engine invariants), giving:
 *
 *  - silent errors: counters ending with the wrong value;
 *  - corrected/recovered: flips healed by the scrubber's SEC-DED
 *    lanes vs. its mirror fallback;
 *  - throughput overhead: wall time and fabric commands relative to
 *    the same backend's unprotected fault-free cell;
 *  - the HealthMonitor's blind fault-rate estimate next to the
 *    injected truth.
 *
 * Emits BENCH_reliability.json. Exit status is the CI gate: 0 iff
 * every scrub-enabled cell at the paper's protected operating
 * points (fault rate <= 1e-3) ends with zero silent errors.
 *
 * Usage: fault_campaign [--trials=small|full] [--seed=N]
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/sharded.hpp"
#include "harness.hpp"
#include "reliability/scrubber.hpp"
#include "service/ingest.hpp"

using namespace c2m;
using bench::Clock;

namespace {

struct CampaignScale
{
    size_t counters;
    size_t ops;
    unsigned shards;
    unsigned producers;
    std::vector<double> rates;
};

struct Cell
{
    const char *backend;
    const char *protection;
    bool scrub;
    double rate;

    size_t silentErrors = 0;
    int64_t maxAbsErr = 0;
    double wallS = 0.0;
    bench::FabricCell fabric{};
    double sweepFabricNs = 0.0;
    uint64_t fabricCommands = 0;
    uint64_t retries = 0;
    uint64_t uncorrectedBlocks = 0;
    uint64_t sweeps = 0;
    uint64_t faultyBits = 0;
    uint64_t bitsCorrected = 0;
    uint64_t wordsRecovered = 0;
    uint64_t faultsInjected = 0;
    double estRate = 0.0;
    double overhead = 1.0; ///< wall time vs backend's clean baseline

    bench::JsonObject
    json() const
    {
        bench::JsonObject j;
        j.str("backend", backend)
            .str("protection", protection)
            .flag("scrub", scrub)
            .num("fault_rate", rate, "%.1e")
            .count("silent_errors", silentErrors)
            .count("max_abs_err", static_cast<uint64_t>(maxAbsErr))
            .num("wall_s", wallS, "%.4f")
            .num("overhead", overhead, "%.3f")
            .fabric(fabric, false)
            .num("sweep_fabric_ns", sweepFabricNs)
            .count("fabric_commands", fabricCommands)
            .count("retries", retries)
            .count("uncorrected_blocks", uncorrectedBlocks)
            .count("faults_injected", faultsInjected)
            .count("sweeps", sweeps)
            .count("faulty_bits", faultyBits)
            .count("bits_corrected", bitsCorrected)
            .count("words_recovered", wordsRecovered)
            .num("est_fault_rate", estRate, "%.3e");
        return j;
    }
};

struct Scheme
{
    const char *name;
    core::Protection protection;
    bool scrub;
};

core::EngineConfig
cellConfig(core::BackendKind backend, const Scheme &scheme,
           double rate, size_t counters, uint64_t seed)
{
    core::EngineConfig cfg;
    cfg.numCounters = counters;
    cfg.capacityBits = 24;
    cfg.faultRate = rate;
    cfg.seed = seed;
    cfg.backend = backend;
    cfg.protection = scheme.protection;
    if (scheme.protection == core::Protection::Ecc) {
        cfg.frChecks = 2;
        cfg.maxRetries = 6;
    }
    return cfg;
}

std::vector<core::BatchOp>
makeStream(const CampaignScale &scale, uint64_t seed)
{
    // Half uniform, half Zipf-skewed keys; ~30% negative deltas so
    // the signed path is under test too.
    Rng rng(seed);
    ZipfRng zipf(scale.counters, 1.0, seed ^ 0xabcdefULL);
    std::vector<core::BatchOp> ops;
    ops.reserve(scale.ops);
    for (size_t i = 0; i < scale.ops; ++i) {
        const uint64_t c = (i % 2) ? zipf.next()
                                   : rng.nextBounded(scale.counters);
        int64_t v = 1 + static_cast<int64_t>(rng.nextBounded(40));
        if (rng.nextBool(0.3))
            v = -v;
        ops.push_back({c, v, 0});
    }
    return ops;
}

Cell
runCell(core::BackendKind backend, const Scheme &scheme, double rate,
        const CampaignScale &scale,
        const std::vector<core::BatchOp> &ops,
        const std::vector<int64_t> &expected, uint64_t seed)
{
    Cell cell{core::backendName(backend), scheme.name, scheme.scrub,
              rate};
    const uint64_t trace0 = bench::traceMark();

    const auto cfg =
        cellConfig(backend, scheme, rate, scale.counters, seed);
    core::ShardedEngine eng(cfg, scale.shards);
    // Observer before service: it must outlive the service's stop().
    std::unique_ptr<reliability::Scrubber> scrub;
    if (scheme.scrub)
        scrub = std::make_unique<reliability::Scrubber>(eng);
    service::IngestService svc(eng, {});
    if (scrub)
        svc.attachObserver(scrub.get());

    const auto t0 = Clock::now();
    service::submitConcurrent(svc, ops, scale.producers);
    const auto snap = svc.snapshot();
    svc.stop();
    cell.wallS = bench::secondsSince(t0);

    for (size_t i = 0; i < expected.size(); ++i) {
        const int64_t err = snap.counters[i] - expected[i];
        if (err != 0) {
            ++cell.silentErrors;
            cell.maxAbsErr =
                std::max<int64_t>(cell.maxAbsErr, std::abs(err));
        }
    }
    // The engine lives for this cell only: its lifetime stats are
    // exactly the cell's work.
    const auto es = eng.stats();
    cell.fabricCommands = es.fabric.commands();
    cell.faultsInjected = es.fabric.faultsInjected;
    cell.retries = es.retries;
    cell.uncorrectedBlocks = es.uncorrectedBlocks;
    if (scrub) {
        const auto ss = scrub->stats();
        cell.sweeps = ss.sweeps;
        cell.faultyBits = ss.faultyBits;
        cell.bitsCorrected = ss.bitsCorrected;
        cell.wordsRecovered = ss.wordsRecovered;
        cell.sweepFabricNs = ss.sweepFabricNs;
        cell.estRate = scrub->health().estimatedFaultRate();
    }
    cell.fabric = bench::FabricCell::of(es, trace0);
    return cell;
}

} // namespace

int
main(int argc, char **argv)
{
    bool small = false;
    uint64_t seed = 12345;
    bench::Harness h(argc, argv, 0, "[--trials=small|full] [--seed=N] ",
                     [&](const char *arg) {
                         if (!std::strcmp(arg, "--trials=small"))
                             small = true;
                         else if (!std::strcmp(arg, "--trials=full"))
                             small = false;
                         else if (!std::strncmp(arg, "--seed=", 7))
                             seed = std::strtoull(arg + 7, nullptr, 10);
                         else
                             return false;
                         return true;
                     });
    if (!h.ok())
        return 2;

    const CampaignScale scale =
        small ? CampaignScale{96, 2000, 4, 2, {1e-4, 1e-3, 1e-2}}
              : CampaignScale{256, 8000, 4, 4,
                              {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1}};

    const auto ops = makeStream(scale, seed);
    std::vector<int64_t> expected(scale.counters, 0);
    for (const auto &op : ops)
        expected[op.counter] += op.value;

    // Protection levels per backend: scrubbing needs rowScrub
    // (Ambit, NVM); RCA runs its duplicate-compute ECC only.
    const std::vector<Scheme> ambitSchemes = {
        {"none", core::Protection::None, false},
        {"none+scrub", core::Protection::None, true},
        {"ecc", core::Protection::Ecc, false},
        {"ecc+scrub", core::Protection::Ecc, true},
        {"tmr", core::Protection::Tmr, false},
    };
    const std::vector<Scheme> nvmSchemes = {
        {"none", core::Protection::None, false},
        {"none+scrub", core::Protection::None, true},
    };
    const std::vector<Scheme> rcaSchemes = {
        {"none", core::Protection::None, false},
        {"ecc", core::Protection::Ecc, false},
    };
    const std::vector<
        std::pair<core::BackendKind, const std::vector<Scheme> *>>
        backends = {
            {core::BackendKind::Ambit, &ambitSchemes},
            {core::BackendKind::NvmPinatubo, &nvmSchemes},
            {core::BackendKind::Rca, &rcaSchemes},
        };

    std::vector<Cell> cells;
    for (const auto &[backend, schemes] : backends) {
        // Clean unprotected baseline for the overhead column.
        const Scheme base{"none", core::Protection::None, false};
        const double base_wall =
            runCell(backend, base, 0.0, scale, ops, expected, seed)
                .wallS;
        for (double rate : scale.rates)
            for (const auto &scheme : *schemes) {
                cells.push_back(runCell(backend, scheme, rate, scale,
                                        ops, expected, seed));
                if (base_wall > 0.0)
                    cells.back().overhead =
                        cells.back().wallS / base_wall;
            }
    }

    TextTable t({"backend", "protection", "rate", "silent", "maxerr",
                 "sweeps", "sec-fix", "mirror-fix", "est-rate",
                 "overhead"});
    for (const auto &c : cells)
        t.addRow({c.backend, c.protection, TextTable::fmt(c.rate, 6),
                  std::to_string(c.silentErrors),
                  std::to_string(c.maxAbsErr),
                  std::to_string(c.sweeps),
                  std::to_string(c.bitsCorrected),
                  std::to_string(c.wordsRecovered),
                  TextTable::fmt(c.estRate, 6),
                  TextTable::fmt(c.overhead, 2)});
    std::printf("%s", t.render().c_str());

    // CI gate: at the paper's protected operating points (rate <=
    // 1e-3) a scrub-enabled run must end with zero silent errors.
    size_t gate_checked = 0, gate_violations = 0;
    for (const auto &c : cells) {
        if (!c.scrub || c.rate > 1e-3)
            continue;
        ++gate_checked;
        if (c.silentErrors != 0) {
            ++gate_violations;
            std::printf("GATE VIOLATION: %s/%s at %.0e: %zu silent "
                        "errors\n",
                        c.backend, c.protection, c.rate,
                        c.silentErrors);
        }
    }
    h.check(gate_violations == 0,
            "gate: %zu scrub cells at protected operating points, %zu "
            "violations",
            gate_checked, gate_violations);
    h.checkFabric(cells);

    bench::JsonObject top;
    top.str("bench", "fault_campaign")
        .str("trials", small ? "small" : "full")
        .count("seed", seed)
        .count("counters", scale.counters)
        .count("ops", scale.ops)
        .count("shards", scale.shards)
        .count("producers", scale.producers)
        .count("gate_checked", gate_checked)
        .count("gate_violations", gate_violations);
    std::vector<bench::JsonObject> rows;
    for (const auto &c : cells)
        rows.push_back(c.json());
    bench::writeBenchJson("BENCH_reliability.json", top, "cells", rows);
    return h.finish();
}
