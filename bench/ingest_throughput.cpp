/**
 * @file
 * Async ingest throughput: producers x shards x drain planner over
 * uniform and Zipf(1.0)-skewed key streams.
 *
 * Each cell pushes the same op stream through an IngestService
 * configured with a one-epoch coalescing window (minDrainOps =
 * stream length), so the engine's stage 1 merges duplicate (counter,
 * group) deltas before they touch the fabric and the drain planner
 * sees the whole stream as one bucket per shard. The headline
 * numbers:
 *
 *  - coalescing (ServiceStats submitted / flushedOps): ops submitted
 *    per summed op the engine executed. On the planner-off Zipf
 *    4p/4s cell every summed op is one fabric accumulate, and
 *    coalescing must cut them >= 2x — the write-combining win the
 *    batch substrate rewards.
 *  - fabric programs (EngineStats::increments): row-level k-ary
 *    increment programs executed. The digit-plane planner must cut
 *    this >= 5x on the Zipf 4p/4s cell — the column-parallel win
 *    (Fig. 15): one masked program per populated (digit, k) plane
 *    instead of one program chain per counter.
 *  - bit-identity: every cell's final counters are compared against
 *    one blocking C2MEngine replaying the same stream serially.
 *  - fabric cost (EngineStats fabric ns/nj, docs/perf.md): every
 *    cell reports the modeled fabric time and energy of its stream.
 *  - plan-path program caching: an extra Zipf cell drains the same
 *    stream over a 16-epoch window; plan programs are keyed by
 *    (digit, k) and bind the plane-mask row when they run, so those
 *    generated in the first epochs replay from the ProgramCache
 *    afterwards — the cell's hit rate must exceed 90%.
 *
 * Exit status: 0 iff the 4-producer / 4-shard Zipf cell coalesces
 * >= 2x, the planner cuts its fabric programs >= 5x, the multi-epoch
 * cell's cache hit rate is > 0.9, every cell reports nonzero fabric
 * ns and nj, and every cell matches the serial replay.
 *
 * Observability (docs/observability.md): `--trace FILE` installs an
 * obs::TraceRecorder for the whole run and writes a Chrome/Perfetto
 * trace at exit; `--metrics FILE` appends one JSON line per cell
 * from an obs::MetricsRegistry snapshot of the cell's merged
 * service/engine counters. A final showcase cell drives a
 * VirtualCounterSpace with an attached Scrubber through an
 * IngestService so the trace also carries scrub.sweep spans and
 * virt.spill / virt.restore events.
 *
 * Usage: ingest_throughput [--trace FILE] [--metrics FILE]
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/gpu_model.hpp"
#include "core/sharded.hpp"
#include "harness.hpp"
#include "obs/analyze.hpp"
#include "reliability/scrubber.hpp"
#include "service/ingest.hpp"
#include "virt/virtspace.hpp"

using namespace c2m;
using bench::Clock;
using bench::secondsSince;

namespace {

constexpr size_t kNumCounters = 4096;
constexpr size_t kNumOps = 4096;

// The cell that just finished, as the run's "cell" metrics source
// reads it. The bench is single-threaded between cells, so a plain
// global map suffices.
CounterMap g_cellReport;
// Anomaly watchdog over the per-cell snapshots (always runs; the
// registry is snapshotted per cell even without --metrics).
obs::Watchdog g_watchdog;

/** Snapshot the run's metrics after a cell; the watchdog checks it. */
void
sampleCell(bench::Harness &h, CounterMap report)
{
    g_cellReport = std::move(report);
    g_watchdog.evaluate(h.snapshotMetrics());
}

core::EngineConfig
engineConfig(bool planner = true)
{
    core::EngineConfig cfg;
    cfg.radix = 4;
    cfg.capacityBits = 16;
    cfg.numCounters = kNumCounters;
    cfg.maxMaskRows = 1;
    cfg.drainPlanner = planner;
    return cfg;
}

std::vector<core::BatchOp>
makeStream(bool zipf)
{
    std::vector<core::BatchOp> ops;
    ops.reserve(kNumOps);
    Rng val_rng(7);
    if (zipf) {
        ZipfRng keys(kNumCounters, 1.0, 42);
        for (size_t i = 0; i < kNumOps; ++i)
            ops.push_back(
                {keys.next(),
                 static_cast<int64_t>(1 + val_rng.nextBounded(7)),
                 0});
    } else {
        Rng keys(42);
        for (size_t i = 0; i < kNumOps; ++i)
            ops.push_back(
                {keys.nextBounded(kNumCounters),
                 static_cast<int64_t>(1 + val_rng.nextBounded(7)),
                 0});
    }
    return ops;
}

struct Cell
{
    const char *dist;
    unsigned shards;
    unsigned producers;
    bool planner;
    double timeS = 0.0;
    double opsPerS = 0.0;
    uint64_t submitted = 0;
    uint64_t flushedOps = 0;
    uint64_t fabricInputs = 0;
    uint64_t fabricIncrements = 0;
    uint64_t planPrograms = 0;
    uint64_t cacheHits = 0;
    uint64_t cacheMisses = 0;
    bench::FabricCell fabric{};
    bool match = false;
    bench::JsonObject json{};
};

Cell
runCell(bench::Harness &h, const char *dist,
        const std::vector<core::BatchOp> &ops,
        const std::vector<int64_t> &reference, unsigned shards,
        unsigned producers, bool planner,
        size_t min_drain_ops = kNumOps, size_t chunks = 1)
{
    Cell cell{dist, shards, producers, planner};
    const uint64_t trace0 = bench::traceMark();
    core::ShardedEngine engine(engineConfig(planner), shards);
    service::IngestConfig icfg;
    // Default: one-epoch coalescing window — drain only once the
    // whole stream is queued (flush/stop still override), maximizing
    // merges. Smaller windows split the stream into multiple epochs.
    icfg.minDrainOps = min_drain_ops;
    icfg.queueCapacity = 2 * kNumOps;
    service::IngestService svc(engine, icfg);

    const auto t0 = Clock::now();
    if (chunks <= 1) {
        service::submitConcurrent(svc, ops, producers);
    } else {
        // Deterministic multi-epoch drive: flush after each slice so
        // every slice is its own epoch (a bare window would race the
        // producers and drain everything at once).
        const size_t per = (ops.size() + chunks - 1) / chunks;
        for (size_t lo = 0; lo < ops.size(); lo += per) {
            const size_t hi = std::min(ops.size(), lo + per);
            service::submitConcurrent(
                svc,
                std::span<const core::BatchOp>(ops).subspan(
                    lo, hi - lo),
                producers);
            svc.flushAndWait();
        }
    }
    const auto counters = svc.readCounters();
    cell.timeS = secondsSince(t0);
    cell.opsPerS = static_cast<double>(kNumOps) / cell.timeS;
    cell.match = counters == reference;

    // The engine lives for this cell only: its lifetime stats are
    // exactly the cell's work.
    const auto sst = svc.serviceStats();
    const auto est = svc.engineStats();
    cell.submitted = sst.submitted;
    cell.flushedOps = sst.flushedOps;
    cell.fabricInputs = est.inputsAccumulated;
    cell.fabricIncrements = est.increments;
    cell.planPrograms = sst.planPrograms;
    cell.cacheHits = est.programCacheHits;
    cell.cacheMisses = est.programCacheMisses;
    cell.fabric = bench::FabricCell::of(est, trace0);
    cell.json.str("dist", dist)
        .count("shards", shards)
        .count("producers", producers)
        .flag("planner", planner)
        .num("time_s", cell.timeS, "%.6f")
        .num("ops_per_s", cell.opsPerS)
        .count("fabric_inputs", est.inputsAccumulated)
        .count("fabric_increments", est.increments)
        .count("coalesced", sst.coalesced)
        .count("epochs", sst.epochs)
        .count("steals", sst.steals)
        .count("stalls", sst.stalls)
        .count("plans", sst.plans)
        .count("plan_programs", sst.planPrograms)
        .count("planned_ops", sst.plannedOps)
        .count("plan_fallback_ops", sst.planFallbackOps)
        .count("cache_hits", est.programCacheHits)
        .count("cache_misses", est.programCacheMisses)
        .count("min_drain_ops", min_drain_ops)
        .fabric(cell.fabric)
        .flag("match_reference", cell.match);

    h.metrics()
        .histogram("cell_time_us")
        .record(static_cast<uint64_t>(cell.timeS * 1e6));
    sampleCell(h, svc.report());
    return cell;
}

/** Summary of the virt + scrub observability showcase cell. */
struct Showcase
{
    uint64_t promotions = 0;
    uint64_t spills = 0;
    uint64_t restores = 0;
    uint64_t sweeps = 0;
    uint64_t traceEvents = 0;
};

/**
 * Observability showcase: a VirtualCounterSpace (service mode) with
 * an attached Scrubber under ECC + CIM fault injection, driven with
 * a skewed key stream over a tiny fabric so frame pressure forces
 * promotions, spills and restores while the scrubber sweeps at
 * epoch boundaries. Exists so a `--trace` run captures virt.spill /
 * virt.restore spans and scrub.sweep spans alongside the ingest
 * epochs — it contributes nothing to the exit gates.
 */
Showcase
runObservabilityShowcase(bench::Harness &h)
{
    const uint64_t trace0 = bench::traceMark();

    core::EngineConfig cfg = engineConfig();
    cfg.numCounters = 128;
    cfg.protection = core::Protection::Ecc;
    cfg.faultRate = 1e-3;
    core::ShardedEngine engine(cfg, 4);
    service::IngestService svc(engine);
    reliability::Scrubber scrub(engine);
    virt::VirtConfig vcfg;
    vcfg.groupSize = 16;
    vcfg.promoteThreshold = 2;
    vcfg.restoreOpThreshold = 4;
    virt::VirtualCounterSpace space(svc, vcfg);
    space.attachScrubber(&scrub);

    // Three phased hot windows (A, B, A): while one window is hot
    // the other's groups fall quiet and become spill victims; when
    // the first window re-heats, its journaled deltas cross the
    // restore threshold and its images swap back in — so the trace
    // carries virt.spill AND virt.restore spans.
    Rng rng(61);
    for (int phase = 0; phase < 3; ++phase) {
        const uint64_t base = (phase % 2) ? 150 : 0;
        for (size_t i = 0; i < 8000; ++i) {
            uint64_t id = base + rng.nextBounded(150);
            space.add(splitMix64(id),
                      static_cast<int64_t>(1 + rng.nextBounded(3)));
        }
        space.flush();
    }
    svc.stop();

    // One single-op batch per shard: a one-op group prices the plan
    // at >= the per-op replay (one mask write + one increment each
    // way), so the planner declines and the trace also carries
    // plan.fallback instants.
    core::ShardedEngine tiny(engineConfig(), 4);
    for (unsigned s = 0; s < 4; ++s) {
        const std::vector<core::BatchOp> one = {
            {tiny.shardStart(s), 1, 0}};
        tiny.accumulateBatch(one);
    }

    Showcase sc;
    const auto st = space.stats();
    sc.promotions = st.promotions;
    sc.spills = st.spills;
    sc.restores = st.restores;
    sc.sweeps = scrub.stats().sweeps;
    sc.traceEvents = bench::traceMark() - trace0;
    sampleCell(h, space.report());
    return sc;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Harness h(argc, argv, bench::kMetricsFlag);
    if (!h.ok())
        return 2;
    h.metrics().addCounterSource("cell", [] { return g_cellReport; });
    // The watchdog's own alert totals fold into the stream it
    // watches, one snapshot behind.
    h.metrics().addCounterSource("watchdog",
                                 [] { return g_watchdog.counters(); });

    std::printf("async ingest throughput: %zu ops over %zu "
                "counters, one-epoch coalescing window\n",
                kNumOps, kNumCounters);

    std::vector<Cell> cells;
    bool all_match = true;
    double reduction = 0.0;
    double zipf_prog_plan = 0.0, zipf_prog_noplan = 0.0;
    double cache_hit_rate = 0.0;
    for (const bool zipf : {false, true}) {
        const char *dist = zipf ? "zipf1.0" : "uniform";
        const auto ops = makeStream(zipf);
        const auto t0 = Clock::now();
        const auto reference = core::replaySerial(engineConfig(), ops);
        const double replay_s = secondsSince(t0);
        std::printf("%s: serial blocking replay %.3fs (%.0f ops/s)\n",
                    dist, replay_s,
                    static_cast<double>(kNumOps) / replay_s);
        for (const unsigned shards : {1u, 4u}) {
            for (const unsigned producers : {1u, 4u}) {
                for (const bool planner : {false, true}) {
                    const auto cell = runCell(h, dist, ops, reference,
                                              shards, producers,
                                              planner);
                    all_match = all_match && cell.match;
                    if (zipf && shards == 4 && producers == 4) {
                        // Coalescing reduction, planner held off:
                        // ops submitted per summed op executed.
                        if (!planner && cell.flushedOps > 0)
                            reduction =
                                static_cast<double>(cell.submitted) /
                                static_cast<double>(cell.flushedOps);
                        // Planner reduction: row-level programs
                        // executed.
                        (planner ? zipf_prog_plan : zipf_prog_noplan) =
                            static_cast<double>(cell.fabricIncrements);
                    }
                    cells.push_back(cell);
                }
            }
        }
        if (zipf) {
            // Multi-epoch planner-cache cell: drain the same stream
            // over a ~16-epoch window. Plan programs are keyed by
            // (digit, k), not by mask row, so those generated in the
            // first epochs replay from the ProgramCache in every
            // later one.
            auto cell = runCell(h, "zipf-16ep", ops, reference, 4, 4,
                                true, kNumOps / 16, 16);
            all_match = all_match && cell.match;
            const uint64_t lookups =
                cell.cacheHits + cell.cacheMisses;
            cache_hit_rate =
                lookups ? static_cast<double>(cell.cacheHits) /
                              static_cast<double>(lookups)
                        : 0.0;
            cells.push_back(cell);

            // Heaviest contention cell: 16 producers racing into an
            // 8-shard engine with the hierarchical gang-issue drain
            // on — the configuration the merged planner exists for.
            auto hot = runCell(h, dist, ops, reference, 8, 16, true);
            all_match = all_match && hot.match;
            cells.push_back(hot);
        }
    }

    // Showcase cell after the gated grid: scrub sweeps and virt
    // spill/restore activity on the same recorder, so a --trace run
    // shows every event family the tracer knows about.
    const Showcase showcase = runObservabilityShowcase(h);
    std::printf("showcase (virt+scrub over ingest): %llu promotions, "
                "%llu spills, %llu restores, %llu sweeps\n",
                static_cast<unsigned long long>(showcase.promotions),
                static_cast<unsigned long long>(showcase.spills),
                static_cast<unsigned long long>(showcase.restores),
                static_cast<unsigned long long>(showcase.sweeps));

    TextTable t({"dist", "shards", "prod", "plan", "time_s", "ops/s",
                 "fabric_in", "programs", "plan_progs", "fabric_us",
                 "match"});
    for (const auto &c : cells)
        t.addRow({c.dist, std::to_string(c.shards),
                  std::to_string(c.producers),
                  c.planner ? "on" : "off", TextTable::fmt(c.timeS, 3),
                  TextTable::fmt(c.opsPerS, 0),
                  std::to_string(c.fabricInputs),
                  std::to_string(c.fabricIncrements),
                  std::to_string(c.planPrograms),
                  TextTable::fmt(c.fabric.ns / 1e3, 1),
                  c.match ? "yes" : "NO"});
    std::printf("%s", t.render().c_str());

    const double plan_reduction =
        zipf_prog_plan > 0.0 ? zipf_prog_noplan / zipf_prog_plan
                             : 0.0;
    h.check(reduction >= 2.0,
            "zipf 4x4 ops submitted per op executed (coalescing): "
            "%.2fx (need >= 2x)",
            reduction);
    h.check(plan_reduction >= 5.0,
            "zipf 4x4 fabric-program reduction from the drain "
            "planner: %.2fx (need >= 5x)",
            plan_reduction);
    h.check(cache_hit_rate > 0.9,
            "multi-epoch plan-path cache hit rate: %.1f%% (need > "
            "90%%)",
            100.0 * cache_hit_rate);
    h.checkFabric(cells);
    h.check(all_match, "all cells bit-identical to serial replay");
    const CounterMap wd = g_watchdog.counters();
    std::printf("watchdog: %llu evaluations, %llu alerts\n",
                static_cast<unsigned long long>(
                    wd.at("evaluations")),
                static_cast<unsigned long long>(wd.at("alerts")));

    // Analytical GPU baseline on the same cost axis (Fig. 14): a
    // bandwidth-bound scatter-add histogram of the same op stream,
    // for eyeballing the fabric_ns columns against silicon.
    const auto gpu = core::GpuModel::rtx3090ti().countingRun(
        kNumOps, kNumCounters);
    std::printf("gpu model (rtx3090ti) same counting run: %.1f us, "
                "%.1f uJ\n",
                gpu.ns / 1e3, gpu.nj / 1e3);

    bool all_ledger = true;
    for (const auto &c : cells)
        all_ledger = all_ledger && c.fabric.ledgerExact;
    bench::JsonObject top;
    top.str("bench", "ingest_throughput")
        .count("num_ops", kNumOps)
        .count("num_counters", kNumCounters)
        .num("zipf_4x4_fabric_reduction", reduction, "%.3f")
        .num("plan_reduction", plan_reduction, "%.3f")
        .num("plan_cache_hit_rate", cache_hit_rate, "%.4f")
        .flag("all_match_serial_replay", all_match)
        .flag("all_ledger_exact", all_ledger)
        .obj("gpu_model", bench::JsonObject()
                              .str("name", "rtx3090ti")
                              .num("fabric_ns", gpu.ns)
                              .num("fabric_nj", gpu.nj))
        .count("watchdog_evaluations", wd.at("evaluations"))
        .count("watchdog_alerts", wd.at("alerts"))
        .obj("showcase", bench::JsonObject()
                             .count("promotions", showcase.promotions)
                             .count("spills", showcase.spills)
                             .count("restores", showcase.restores)
                             .count("sweeps", showcase.sweeps)
                             .count("trace_events", showcase.traceEvents));
    std::vector<bench::JsonObject> rows;
    for (const auto &c : cells)
        rows.push_back(c.json);
    bench::writeBenchJson("BENCH_ingest.json", top, "cells", rows);
    return h.finish();
}
