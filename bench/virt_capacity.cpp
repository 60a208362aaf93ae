/**
 * @file
 * Virtualized counter capacity: millions of Zipf(1.1) keys over a
 * few-thousand-counter fabric through virt::VirtualCounterSpace.
 *
 * Each cell drives one key stream — an admission sweep touching
 * every distinct key once, then a Zipf(1.1)-skewed delta stream —
 * into a 4-shard fleet fronted by a VirtualCounterSpace. The sketch
 * tier admits every key immediately; heavy hitters cross
 * promoteThreshold and are promoted into exact in-fabric counter
 * groups; frame pressure forces cold groups to spill into
 * ECC-encoded RowMirror images and restore on demand. The headline
 * numbers:
 *
 *  - capacity: the 1e6-key cell serves 1e6 distinct keys over 1024
 *    physical counters (16 frames of 64), promoting the top ~2k keys
 *    while the rest ride the count-min front sketch.
 *  - exactness: every promoted key's final value must equal a serial
 *    replay of its deltas (sketch seed at promotion + every later
 *    delta). The no-spill cell additionally replays its recorded
 *    physical op stream through a blocking engine and demands
 *    bit-identical fabric state.
 *  - accuracy: for sampled never-promoted tail keys, the sketch
 *    estimate must sit within the analytic count-min point bound
 *    ((e/w)*N, plus 3-sigma Morris noise for Morris cells) for
 *    >= 99% of the sample.
 *  - cost: modeled fabric ns/nj (docs/perf.md) plus the spill/restore
 *    maintenance fabric time must be nonzero wherever spills happen.
 *
 * Exit status: 0 iff every cell is shadow-exact, the no-spill cell
 * is bit-identical to physical-op replay, the 1e6-key cell spills,
 * restores and promotes (> 1000 promotions), every checked cell has
 * >= 99% of tail samples within the bound, and every cell reports
 * nonzero fabric ns/nj. A fifth 1e7-key cell runs behind --big.
 */

#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/sharded.hpp"
#include "harness.hpp"
#include "virt/virtspace.hpp"

using namespace c2m;
using bench::Clock;
using bench::secondsSince;

namespace {

uint64_t
hashKey(uint64_t v)
{
    return splitMix64(v); // pure: v is a by-value copy of the state
}

struct CellSpec
{
    const char *name;
    size_t distinctKeys;
    size_t zipfOps;       ///< skewed deltas after the admission sweep
    size_t physCounters;  ///< fabric size (all shards)
    unsigned shards;
    unsigned capacityBits;
    /**
     * Count-min width. Must keep the collision noise floor (e/w)*N
     * below promoteThreshold, or the inflated estimates promote the
     * whole key space instead of the heavy hitters.
     */
    size_t sketchWidth;
    uint64_t promoteThreshold;
    bool morrisCells;
    bool checkReplay;     ///< physical-op replay (needs no spills)
};

struct Cell
{
    CellSpec spec;
    double opsPerS = 0.0;
    uint64_t keysExact = 0;
    uint64_t promotions = 0;
    uint64_t spills = 0;
    uint64_t restores = 0;
    double maintNs = 0.0;
    bench::FabricCell fabric{};
    double tailWithinFrac = 0.0;
    bool shadowMatch = false;
    bool replayMatch = true; ///< only meaningful when checkReplay
    bench::JsonObject json{};
};

/**
 * Serial-replay reference for the exact tier: a promoted key's value
 * is its sketch seed at promotion plus every later delta, replayed
 * in stream order.
 */
struct Shadow
{
    std::map<uint64_t, int64_t> expect;

    void apply(uint64_t key, int64_t value,
               const virt::AddResult &r)
    {
        switch (r.route) {
        case virt::Route::Promoted:
            expect[key] = static_cast<int64_t>(r.seed);
            break;
        case virt::Route::Exact:
        case virt::Route::Journaled:
            expect[key] += value;
            break;
        case virt::Route::Sketch:
            break;
        }
    }
};

Cell
runCell(const CellSpec &spec)
{
    Cell cell{spec};
    const uint64_t trace0 = bench::traceMark();
    core::EngineConfig cfg;
    cfg.numCounters = spec.physCounters;
    cfg.capacityBits = spec.capacityBits;
    cfg.seed = 0xbe9cULL;
    core::ShardedEngine engine(cfg, spec.shards);

    virt::VirtConfig vcfg;
    vcfg.groupSize = 64;
    vcfg.promoteThreshold = spec.promoteThreshold;
    vcfg.restoreOpThreshold = 16;
    vcfg.sketch.width = spec.sketchWidth;
    vcfg.recordPhysicalOps = spec.checkReplay;
    if (spec.morrisCells)
        vcfg.sketch.cells = virt::SketchCells::Morris;
    virt::VirtualCounterSpace space(engine, vcfg);

    // Truth is tracked for a rank-uniform sample of the key space
    // (every sampleEvery-th Zipf rank), keeping memory flat while
    // covering the never-promoted tail the accuracy gate audits.
    const size_t sampleEvery =
        std::max<size_t>(1, spec.distinctKeys / 4096);
    std::unordered_map<uint64_t, uint64_t> truth;

    ZipfRng zipf(spec.distinctKeys, 1.1, 42);
    Shadow shadow;
    const auto t0 = Clock::now();
    // Admission sweep: every distinct key enters the space once —
    // the sketch tier absorbs all of them immediately.
    for (size_t id = 0; id < spec.distinctKeys; ++id) {
        shadow.apply(hashKey(id), 1, space.add(hashKey(id), 1));
        if (id % sampleEvery == 0)
            ++truth[id];
    }
    // Skewed delta stream: heavy ranks cross promoteThreshold.
    for (size_t i = 0; i < spec.zipfOps; ++i) {
        const uint64_t id = zipf.next();
        shadow.apply(hashKey(id), 1, space.add(hashKey(id), 1));
        if (id % sampleEvery == 0)
            ++truth[id];
    }
    space.flush();
    const double time_s = secondsSince(t0);
    const size_t num_ops = spec.distinctKeys + spec.zipfOps;
    cell.opsPerS = static_cast<double>(num_ops) / time_s;

    const auto st = space.stats();
    cell.keysExact = st.keysExact;
    cell.promotions = st.promotions;
    cell.spills = st.spills;
    cell.restores = st.restores;
    cell.maintNs = st.maintenanceFabricNs;
    // The engine lives for this cell only: its lifetime stats are
    // exactly the cell's work.
    cell.fabric = bench::FabricCell::of(engine.stats(), trace0);

    // Exactness: every promoted key bit-identical to the serial
    // replay of its deltas.
    const auto entries = space.exactEntries();
    cell.shadowMatch = entries.size() == shadow.expect.size();
    for (const auto &e : entries) {
        const auto it = shadow.expect.find(e.key);
        cell.shadowMatch = cell.shadowMatch &&
                           it != shadow.expect.end() &&
                           it->second == e.value;
    }

    // Accuracy: sampled tail keys within the analytic point bound.
    size_t within = 0, sampled = 0;
    for (const auto &[id, count] : truth) {
        const uint64_t key = hashKey(id);
        if (space.isExact(key))
            continue;
        ++sampled;
        const double err =
            std::abs(double(space.approxEstimate(key)) -
                     double(count));
        if (err <= space.errorBound(key))
            ++within;
    }
    cell.tailWithinFrac =
        sampled ? double(within) / double(sampled) : 1.0;

    if (spec.checkReplay) {
        // With no spills the recorded physical op stream fully
        // determines the fabric: blocking serial replay must land on
        // bit-identical counter state.
        const auto replayed =
            core::replaySerial(cfg, space.physicalLog());
        cell.replayMatch = st.spills == 0 &&
                           engine.readAllCounters(0) == replayed;
    }

    cell.json.str("cell", spec.name)
        .count("distinct_keys", spec.distinctKeys)
        .count("num_ops", num_ops)
        .count("phys_counters", spec.physCounters)
        .count("shards", spec.shards)
        .flag("morris", spec.morrisCells)
        .num("time_s", time_s, "%.6f")
        .num("ops_per_s", cell.opsPerS)
        .count("keys_exact", st.keysExact)
        .count("resident_groups", st.residentGroups)
        .count("spilled_groups", st.spilledGroups)
        .count("sketch_keys", st.sketchKeys)
        .count("promotions", st.promotions)
        .count("spills", st.spills)
        .count("restores", st.restores)
        .count("materializations", st.materializations)
        .count("sketch_updates", st.sketchUpdates)
        .num("maintenance_fabric_ns", st.maintenanceFabricNs)
        .fabric(cell.fabric, false)
        .num("est_error_bound", st.estErrorBound, "%.3f")
        .count("tail_sampled", sampled)
        .num("tail_within_bound_frac", cell.tailWithinFrac, "%.4f")
        .flag("shadow_match", cell.shadowMatch)
        .flag("replay_match", cell.replayMatch);
    return cell;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Harness h(argc, argv, bench::kBigFlag);
    if (!h.ok())
        return 2;

    std::printf("virtualized counter capacity: Zipf(1.1) key spaces "
                "over a 4-shard fleet\n");

    std::vector<CellSpec> specs = {
        // No-spill cell: 64 frames, ~500 promoted keys -> every
        // group stays resident and the physical op log replays.
        {"zipf1.1-1e5", 100000, 100000, 4096, 4, 16, 1 << 14, 32,
         false, true},
        // Headline: 1e6 distinct keys over 1024 physical counters
        // (16 frames of 64); ~2k promotions force frame pressure.
        {"zipf1.1-1e6", 1000000, 1000000, 1024, 4, 20, 1 << 18, 32,
         false, false},
        // Morris-cell sketch tier: same fabric, wider error bound.
        {"zipf1.1-1e5-morris", 100000, 100000, 1024, 4, 16, 1 << 14,
         32, true, false},
    };
    if (h.big())
        specs.push_back({"zipf1.1-1e7", 10000000, 2000000, 16384, 4,
                         20, 1 << 20, 64, false, false});

    std::vector<Cell> cells;
    for (const auto &s : specs) {
        std::printf("%s: %zu keys over %zu counters...\n", s.name,
                    s.distinctKeys, s.physCounters);
        cells.push_back(runCell(s));
    }

    TextTable t({"cell", "keys", "counters", "ops/s", "exact",
                 "promos", "spills", "restores", "tail_ok",
                 "fabric_us", "shadow"});
    for (const auto &c : cells)
        t.addRow({c.spec.name, std::to_string(c.spec.distinctKeys),
                  std::to_string(c.spec.physCounters),
                  TextTable::fmt(c.opsPerS, 0),
                  std::to_string(c.keysExact),
                  std::to_string(c.promotions),
                  std::to_string(c.spills),
                  std::to_string(c.restores),
                  TextTable::fmt(100.0 * c.tailWithinFrac, 1),
                  TextTable::fmt((c.fabric.ns + c.maintNs) / 1e3, 1),
                  c.shadowMatch ? "yes" : "NO"});
    std::printf("%s", t.render().c_str());

    bool all_shadow = true, all_tail = true, replay_ok = true;
    for (const auto &c : cells) {
        all_shadow = all_shadow && c.shadowMatch;
        all_tail = all_tail && c.tailWithinFrac >= 0.99;
        replay_ok = replay_ok && c.replayMatch;
    }
    const Cell &headline = cells[1];
    const bool pressure = headline.spills > 0 &&
                          headline.restores > 0 &&
                          headline.promotions > 1000 &&
                          headline.maintNs > 0.0;

    h.check(all_shadow, "all cells shadow-exact for promoted keys");
    h.check(replay_ok, "no-spill cell bit-identical to physical replay");
    h.check(pressure,
            "1e6-key cell spills/restores/promotes under frame "
            "pressure (%llu/%llu/%llu)",
            static_cast<unsigned long long>(headline.spills),
            static_cast<unsigned long long>(headline.restores),
            static_cast<unsigned long long>(headline.promotions));
    h.check(all_tail,
            ">= 99%% of sampled tail keys within the count-min bound");
    h.checkFabric(cells);

    bench::JsonObject top;
    top.str("bench", "virt_capacity")
        .flag("all_shadow_exact", all_shadow)
        .flag("replay_match", replay_ok)
        .flag("headline_pressure", pressure)
        .flag("all_tail_within_bound", all_tail);
    std::vector<bench::JsonObject> rows;
    for (const auto &c : cells)
        rows.push_back(c.json);
    bench::writeBenchJson("BENCH_virt.json", top, "cells", rows);
    return h.finish();
}
