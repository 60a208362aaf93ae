/**
 * @file
 * Sharded batch engine scaling: ops/s of the point-update batch path
 * at 1/2/4/8 shards over a fixed logical counter space, with the
 * digit-plane drain planner off and on.
 *
 * Sharding narrows each shard's simulated subarray to 1/N of the
 * columns, so a routed point update expands into row operations that
 * touch 1/N of the bits; shards additionally run concurrently on the
 * thread pool. The planner compounds a third effect: a shard's whole
 * bucket collapses into at most D*(R-1) masked column-parallel
 * programs per group, so fabric programs stop scaling with the op
 * count at all. Both planner settings must stay bit-identical to the
 * serial replay baseline.
 *
 * Every row also reports the modeled fabric cost (EngineStats fabric
 * ns/nj plus the tFAW/tRRD-floored critical path, docs/perf.md) of
 * the measured batch alone, read through a core::StatsWindow, and
 * the JSON carries an analytical GPU baseline (GpuModel::countingRun)
 * costed on the same axis for the Fig. 14-style comparison.
 *
 * `--trace FILE` installs an obs::TraceRecorder for the run and
 * writes a Chrome/Perfetto trace (per-shard drain spans, plan
 * commit/fallback instants); `--metrics FILE` appends one metrics
 * JSON line per row (docs/observability.md).
 */

#include <algorithm>
#include <cstdio>
#include <limits>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/gpu_model.hpp"
#include "core/sharded.hpp"
#include "harness.hpp"

using namespace c2m;
using bench::Clock;
using bench::secondsSince;

int
main(int argc, char **argv)
{
    bench::Harness h(argc, argv, bench::kMetricsFlag);
    if (!h.ok())
        return 2;
    CounterMap row_report;
    h.metrics().addCounterSource("row", [&] { return row_report; });

    core::EngineConfig cfg;
    cfg.radix = 4;
    cfg.capacityBits = 16;
    cfg.numCounters = 32768;
    cfg.maxMaskRows = 1;

    const size_t num_ops = 32768;
    Rng rng(99);
    std::vector<core::BatchOp> ops;
    ops.reserve(num_ops);
    for (size_t i = 0; i < num_ops; ++i)
        ops.push_back({rng.nextBounded(cfg.numCounters),
                       static_cast<int64_t>(1 + rng.nextBounded(15)),
                       0});

    std::printf("sharded batch scaling: %zu point updates over %zu "
                "logical counters\n",
                num_ops, cfg.numCounters);
    TextTable t({"planner", "shards", "time_s", "ops/s", "speedup",
                 "programs", "plan_progs", "cache_hit%",
                 "fabric_us", "crit_us", "skew", "eff"});
    struct Row
    {
        bool planner;
        unsigned shards;
        double speedup;
        bench::FabricCell fabric;
        bench::JsonObject json;
    };
    std::vector<Row> rows;
    const auto reference = core::replaySerial(cfg, ops);
    bool four_shard_ok = false;
    bool all_match = true;
    for (const bool planner : {false, true}) {
        double base_ops_per_s = 0.0;
        for (unsigned shards : {1u, 2u, 4u, 8u}) {
            auto pcfg = cfg;
            pcfg.drainPlanner = planner;
            core::ShardedEngine eng(pcfg, shards);
            // Warm-up: touch every shard once so first-op setup
            // (point mask allocation, page faults) is off the clock.
            std::vector<core::BatchOp> warm;
            for (unsigned s = 0; s < shards; ++s)
                warm.push_back({eng.shardStart(s), 1, 0});
            eng.accumulateBatch(warm);
            eng.clear();
            // Wall time is best-of-5: planner-on cells drain in a
            // few milliseconds, where one sample is at the mercy of
            // thread wake-up jitter and the speedup gate below would
            // flap. Four throwaway reps race the clock first,
            // cleared between runs.
            double best = std::numeric_limits<double>::infinity();
            for (int rep = 0; rep < 4; ++rep) {
                const auto tr0 = Clock::now();
                eng.accumulateBatch(ops);
                best = std::min(best, secondsSince(tr0));
                eng.clear();
            }
            // Every reported fabric number, the critical path
            // included, covers only the measured batch: not the
            // warm-up and timing reps before it.
            const core::StatsWindow window(eng);
            const uint64_t trace0 = bench::traceMark();

            const auto t0 = Clock::now();
            eng.accumulateBatch(ops);
            const double dt = std::min(best, secondsSince(t0));
            const double rate = static_cast<double>(num_ops) / dt;
            const bool match = eng.readAllCounters() == reference;
            all_match = all_match && match;
            if (shards == 1)
                base_ops_per_s = rate;
            const double speedup = rate / base_ops_per_s;
            if (!planner && shards == 4 && speedup > 2.0)
                four_shard_ok = true;
            const auto st = window.delta();
            const uint64_t lookups =
                st.programCacheHits + st.programCacheMisses;
            const double hit_frac =
                lookups ? static_cast<double>(st.programCacheHits) /
                              static_cast<double>(lookups)
                        : 0.0;
            // Per-shard modeled fabric time locates the straggler and
            // quantifies skew without needing a host trace.
            double fab_max = 0.0, fab_sum = 0.0;
            unsigned crit_shard = 0;
            for (unsigned s = 0; s < shards; ++s) {
                const double d = window.shardDelta(s).fabric.fabricNs;
                fab_sum += d;
                if (d > fab_max) {
                    fab_max = d;
                    crit_shard = s;
                }
            }
            const double fab_mean =
                fab_sum / static_cast<double>(shards);
            const double skew =
                fab_mean > 0.0 ? fab_max / fab_mean : 0.0;
            const double eff = st.fabricCriticalNs > 0.0
                                   ? fab_mean / st.fabricCriticalNs
                                   : 0.0;
            Row row{planner, shards, speedup,
                    bench::FabricCell::of(st, trace0), {}};
            row.json.flag("planner", planner)
                .count("shards", shards)
                .num("time_s", dt, "%.6f")
                .num("ops_per_s", rate)
                .num("speedup", speedup, "%.3f")
                .count("fabric_programs", st.increments)
                .count("plan_programs", st.planPrograms)
                .count("plan_fallback_ops", st.planFallbackOps)
                .num("program_cache_hit_rate", hit_frac, "%.4f")
                .num("fabric_skew", skew, "%.4f")
                .count("critical_shard", crit_shard)
                .num("parallel_efficiency", eff, "%.4f")
                .fabric(row.fabric);
            if (h.streamingMetrics()) {
                h.metrics()
                    .histogram("row_time_us")
                    .record(static_cast<uint64_t>(dt * 1e6));
                row_report = eng.stats().toCounters();
                h.snapshotMetrics();
            }
            t.addRow({planner ? "on" : "off", std::to_string(shards),
                      TextTable::fmt(dt, 3), TextTable::fmt(rate, 0),
                      TextTable::fmt(speedup, 2),
                      std::to_string(st.increments),
                      std::to_string(st.planPrograms),
                      TextTable::fmt(100.0 * hit_frac, 1),
                      TextTable::fmt(row.fabric.ns / 1e3, 1),
                      TextTable::fmt(row.fabric.criticalNs / 1e3, 1),
                      TextTable::fmt(skew, 3), TextTable::fmt(eff, 3)});
            rows.push_back(std::move(row));
        }
    }
    std::printf("%s", t.render().c_str());
    h.check(four_shard_ok, "4-shard speedup > 2x (planner off)");
    h.check(all_match, "all cells bit-identical to serial replay");
    h.checkFabric(rows);

    // The hierarchical drain plans once per group and gang-issues the
    // slices, so plan attribution must stop scaling with the shard
    // count (it was exactly Nx under the old per-shard replication)
    // and the planner must no longer invert the 8-shard scaling
    // curve.
    double plan_attr_1 = 0.0, plan_attr_8 = 0.0;
    double planner_speedup_8 = 0.0;
    for (const auto &r : rows) {
        if (!r.planner)
            continue;
        const double plan =
            r.fabric.attr[static_cast<unsigned>(cim::FabricCat::Plan)];
        if (r.shards == 1)
            plan_attr_1 = plan;
        if (r.shards == 8) {
            plan_attr_8 = plan;
            planner_speedup_8 = r.speedup;
        }
    }
    const double plan_attr_ratio =
        plan_attr_1 > 0.0 ? plan_attr_8 / plan_attr_1 : 0.0;
    h.check(plan_attr_ratio > 0.0 && plan_attr_ratio < 4.0,
            "8-shard plan attribution vs 1 shard: %.2fx (need < 4x)",
            plan_attr_ratio);
    h.check(planner_speedup_8 >= 1.0,
            "8-shard planner-on speedup vs 1 shard: %.2fx (need >= 1x)",
            planner_speedup_8);

    // Analytical GPU baseline on the same cost axis (Fig. 14): a
    // bandwidth-bound scatter-add histogram of the same op stream.
    const auto gpu = core::GpuModel::rtx3090ti().countingRun(
        num_ops, cfg.numCounters);
    std::printf("gpu model (rtx3090ti) same counting run: %.1f us, "
                "%.1f uJ\n",
                gpu.ns / 1e3, gpu.nj / 1e3);

    // Machine-readable trail for the perf trajectory (BENCH_sharded
    // .json next to the working directory the bench runs in).
    bench::JsonObject top;
    top.str("bench", "sharded_scaling")
        .str("backend", core::backendName(cfg.backend))
        .count("num_ops", num_ops)
        .count("num_counters", cfg.numCounters)
        .flag("all_match_serial_replay", all_match)
        .num("plan_attr_ratio_8v1", plan_attr_ratio, "%.3f")
        .num("planner_speedup_8", planner_speedup_8, "%.3f")
        .obj("gpu_model", bench::JsonObject()
                              .str("name", "rtx3090ti")
                              .num("fabric_ns", gpu.ns)
                              .num("fabric_nj", gpu.nj));
    std::vector<bench::JsonObject> cells;
    for (const auto &r : rows)
        cells.push_back(r.json);
    bench::writeBenchJson("BENCH_sharded.json", top, "results", cells);
    return h.finish();
}
