/**
 * @file
 * End-to-end benchmark of the Count2Multiply stack, driven through
 * the public APIs only (see DESIGN.md for the workload rationale and
 * the layer -> end-to-end metric map).
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--out DIR]
 *
 * Workloads (4 shards, one pool lane, every thread on one CPU):
 *  - ingest_zipf:       Zipf(1.0) point updates, one closed-loop
 *                       producer, 1024-op batches, one epoch each;
 *  - ingest_mixed_sign: the same stream with one delta in four
 *                       negated, two closed-loop producers, 256-op
 *                       batches, counters preloaded off zero;
 *  - gemv_ternary:      LLaMA-2 V2 (K = N = 8192) ternary GEMV as
 *                       masked matrix accumulation over dual-rail
 *                       stationary masks.
 *
 * --trace 0 measures the end-to-end metrics over a closed-loop window
 * of S seconds (GEMV: S vectors); --trace 1 runs a fixed amount of
 * work with an obs::TraceRecorder installed, between two untraced
 * halves of the same amount, and reports the per-layer metrics
 * (writing them and a Chrome trace to DIR). Every output is checked
 * against a host reference. The last line of stdout is one JSON
 * object:
 *
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 *
 * Exit status: 0 iff every output matched its reference and every
 * self-check (parallel efficiency in (0, 1], ledger rows adding up to
 * the fabric total, the recomputed lifetime critical path equal to
 * ShardedEngine::stats(), no trace-ring wrap) held; 2 on a usage
 * error.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sched.h>

#include "cim/fault.hpp"
#include "common/rng.hpp"
#include "core/gpu_model.hpp"
#include "core/kernels.hpp"
#include "core/sharded.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "service/ingest.hpp"
#include "workloads/llama.hpp"

using namespace c2m;
using Clock = std::chrono::steady_clock;

namespace {

constexpr unsigned kShards = 4;
/**
 * One pool lane drains all four shards, and every thread of the
 * benchmark runs on one CPU (pinToOneCpu()). On a shared virtual
 * machine a hand-off to another CPU has to wake that CPU, and the wake
 * can wait on the hypervisor for a time that swings with co-tenant
 * load; on one CPU a hand-off is a local context switch. Closed-loop
 * clients and the drainer block while the lane executes, so the CPU
 * is never idle and never shared by two runnable threads for long.
 * Host figures therefore measure the host work per op, not the lane
 * pool's parallel speedup; the modeled figures still see four
 * bank-parallel shards.
 */
constexpr unsigned kLanes = 1;
/** Bench-side spans share the service track, beside epoch.*. */
constexpr uint32_t kBenchTrack = obs::kServiceTrack;

const Clock::time_point kOrigin = Clock::now();

/** Host seconds since process start. */
double
nowS()
{
    return std::chrono::duration<double>(Clock::now() - kOrigin).count();
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile; q in (0, 1]. */
double
percentile(std::vector<double> v, double q)
{
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    rank = std::clamp<size_t>(rank, 1, v.size());
    return v[rank - 1];
}

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string outDir;
};

/** Metrics in print order, the correctness tally and self-checks. */
struct Report
{
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics;
    uint64_t attempted = 0; ///< ops submitted + output values checked
    uint64_t failed = 0;    ///< ops rejected + values off reference
    std::vector<std::string> violations; ///< failed self-checks

    void add(const char *name, double value, const char *unit)
    {
        check(std::isfinite(value), std::string(name) + " is not finite");
        metrics.push_back({name, std::isfinite(value) ? value : 0.0,
                           unit});
    }
    void check(bool ok, const std::string &what)
    {
        if (!ok)
            violations.push_back(what);
    }
    bool correct() const { return failed == 0 && violations.empty(); }
};

std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
metricsJson(const Report &r)
{
    std::string out = "{";
    for (size_t i = 0; i < r.metrics.size(); ++i) {
        const auto &m = r.metrics[i];
        out += i ? ", " : "";
        out += "\"" + m.name + "\": {\"value\": " + jsonNumber(m.value) +
               ", \"unit\": \"" + m.unit + "\"}";
    }
    return out + "}";
}

/** Human-readable lines, then the JSON result as the last line. */
int
finish(const Report &r)
{
    for (const auto &m : r.metrics)
        std::printf("%-28s %18.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    const double failed_frac =
        r.attempted ? static_cast<double>(r.failed) /
                          static_cast<double>(r.attempted)
                    : 0.0;
    std::printf("failed_frac %.6g (%llu failed of %llu attempted)\n",
                failed_frac, static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.attempted));
    for (const auto &v : r.violations)
        std::printf("SELF-CHECK FAILED: %s\n", v.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                "%llu, \"metrics\": %s}\n",
                r.correct() ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed),
                metricsJson(r).c_str());
    std::fflush(stdout);
    return r.correct() ? 0 : 1;
}

// ---------------------------------------------------------------------
// Modeled (fabric-clock) window: deltas between quiescent snapshots.
// ---------------------------------------------------------------------

/** Per-shard engine stats; call only while no work is in flight. */
std::vector<core::EngineStats>
shardStats(core::ShardedEngine &eng)
{
    std::vector<core::EngineStats> out;
    for (unsigned s = 0; s < eng.numShards(); ++s)
        out.push_back(eng.shard(s).stats());
    return out;
}

/** Fabric work done between two snapshots. */
struct FabricWindow
{
    double ns = 0.0;         ///< summed over shards (banks)
    double nj = 0.0;
    double criticalNs = 0.0; ///< bank-parallel critical path
    double attr[cim::kFabricCatCount] = {};
    uint64_t aap = 0, ap = 0;
    uint64_t increments = 0, ripples = 0;
    uint64_t cacheHits = 0, cacheMisses = 0;
    uint64_t plannedOps = 0, fallbackOps = 0;
    uint64_t planPrograms = 0, planLeadPrograms = 0;
};

/**
 * Deltas of every counter, and a critical path recomputed from the
 * per-shard deltas: the slowest shard's fabric time, floored on DRAM
 * backends by the rank window over the window's own non-ganged
 * commands (the bound ShardedEngine::stats() applies to lifetime
 * totals; checkLifetime() pins the two together). Subtracting two
 * lifetime critical paths would not give the window's critical path.
 */
FabricWindow
fabricWindow(const std::vector<core::EngineStats> &before,
             const std::vector<core::EngineStats> &after,
             const core::EngineConfig &cfg)
{
    FabricWindow w;
    uint64_t rank_commands = 0;
    for (size_t s = 0; s < before.size(); ++s) {
        const auto &a = before[s];
        const auto &b = after[s];
        const double shard_ns = b.fabric.fabricNs - a.fabric.fabricNs;
        w.ns += shard_ns;
        w.criticalNs = std::max(w.criticalNs, shard_ns);
        w.nj += b.fabric.fabricNj - a.fabric.fabricNj;
        for (unsigned c = 0; c < cim::kFabricCatCount; ++c)
            w.attr[c] += b.fabric.attrNs[c] - a.fabric.attrNs[c];
        w.aap += b.fabric.aap - a.fabric.aap;
        w.ap += b.fabric.ap - a.fabric.ap;
        rank_commands +=
            (b.fabric.commands() - b.fabric.gangedCommands) -
            (a.fabric.commands() - a.fabric.gangedCommands);
        w.increments += b.increments - a.increments;
        w.ripples += b.ripples - a.ripples;
        w.cacheHits += b.programCacheHits - a.programCacheHits;
        w.cacheMisses += b.programCacheMisses - a.programCacheMisses;
        w.plannedOps += b.plannedOps - a.plannedOps;
        w.fallbackOps += b.planFallbackOps - a.planFallbackOps;
        w.planPrograms += b.planPrograms - a.planPrograms;
        w.planLeadPrograms += b.planLeadPrograms - a.planLeadPrograms;
    }
    if (cfg.backend == core::BackendKind::Ambit ||
        cfg.backend == core::BackendKind::Rca) {
        const double rank_floor =
            static_cast<double>(rank_commands) *
            cfg.dramTimings.issueIntervalNs(
                static_cast<unsigned>(before.size()));
        w.criticalNs = std::max(w.criticalNs, rank_floor);
    }
    return w;
}

/**
 * The window taken over the engine's whole life must reproduce the
 * program's own critical path exactly, so the recomputation above
 * cannot drift from ShardedEngine::stats(). Call while quiescent.
 */
void
checkLifetime(Report &r, core::ShardedEngine &eng,
              const core::EngineConfig &cfg)
{
    const std::vector<core::EngineStats> zero(eng.numShards());
    const double ours = fabricWindow(zero, shardStats(eng), cfg).criticalNs;
    const double program = eng.stats().fabricCriticalNs;
    r.check(ours == program, "lifetime critical path " + jsonNumber(ours) +
                                 " != ShardedEngine::stats() " +
                                 jsonNumber(program));
}

/**
 * Parallel efficiency can only leave (0, 1] if the critical path is
 * not at least the slowest shard's time, i.e. if fabricWindow() is
 * broken; its real check is checkLifetime().
 */
void
checkWindow(Report &r, const FabricWindow &w, const char *what)
{
    const double eff =
        w.criticalNs > 0.0 ? w.ns / (kShards * w.criticalNs) : 0.0;
    r.check(eff > 0.0 && eff <= 1.0,
            std::string(what) + ": parallel efficiency " +
                jsonNumber(eff) + " outside (0, 1]");
    double rows = 0.0;
    for (double row : w.attr)
        rows += row;
    r.check(std::fabs(rows - w.ns) <= 1e-9 * std::max(1.0, w.ns),
            std::string(what) + ": ledger rows " + jsonNumber(rows) +
                " != fabric ns " + jsonNumber(w.ns));
}

/** One completed request on the host clock. */
struct Request
{
    double latencyUs; ///< submit to visible
    uint64_t ops;
};

/**
 * Closed-loop results on the host clock, built from back-to-back
 * segments. Throughput is the median of the segments' completion
 * rates: co-tenant load on a shared host comes in bursts, and the
 * median keeps a burst that hits a few segments out of the figure.
 */
struct HostWindow
{
    double wallS = 0.0;
    uint64_t ops = 0;
    std::vector<Request> requests;
    std::vector<double> segmentRates; ///< ops per second, per segment

    /** Close a segment that began at @p begin_s (a nowS() time). */
    void endSegment(double begin_s, uint64_t segment_ops)
    {
        const double wall = nowS() - begin_s;
        wallS += wall;
        ops += segment_ops;
        segmentRates.push_back(static_cast<double>(segment_ops) / wall);
    }
    HostWindow &operator+=(const HostWindow &o)
    {
        wallS += o.wallS;
        ops += o.ops;
        requests.insert(requests.end(), o.requests.begin(),
                        o.requests.end());
        segmentRates.insert(segmentRates.end(), o.segmentRates.begin(),
                            o.segmentRates.end());
        return *this;
    }
};

/**
 * The timed window after the modeled one is cut into this many
 * segments. One more set-up is timed before each, so the set-up
 * samples spread over the whole run as the throughput segments do:
 * host speed on a shared machine drifts over seconds, and set-ups
 * timed back to back would all see one moment of it.
 */
constexpr size_t kSegments = 20;

/**
 * Resident memory in MB. Sampled at the end of the modeled window,
 * which is fixed work: later, the benchmark's own per-request log
 * grows with throughput and would leak host speed into the figure.
 */
double
rssMb()
{
    return static_cast<double>(obs::hostRssKb()) / 1024.0;
}

void
addEndToEnd(Report &r, const std::vector<double> &setup_s,
            const HostWindow &host, const FabricWindow &model,
            double model_ops, double rss_mb)
{
    std::vector<double> lat;
    for (const Request &q : host.requests)
        lat.push_back(q.latencyUs);
    r.add("setup_s", median(setup_s), "s");
    r.add("throughput_ops_s", median(host.segmentRates), "ops/s");
    r.add("latency_p50_us", percentile(lat, 0.50), "us");
    // GEMV has too few requests for a tail: its p95 is one of the
    // slowest two or three vectors of the window.
    r.add("latency_p95_us", percentile(lat, 0.95), "us");
    r.add("fabric_ns_per_op", model.ns / model_ops, "ns/op");
    r.add("fabric_critical_ns_per_op", model.criticalNs / model_ops,
          "ns/op");
    r.add("fabric_nj_per_op", model.nj / model_ops, "nJ/op");
    r.add("rss_mb", rss_mb, "MB");
    std::printf("requests %zu, window %.3f s (%.0f ops/s overall), "
                "modeled ops %.0f, setup reps %zu, parallel efficiency "
                "%.4f\n",
                lat.size(), host.wallS,
                static_cast<double>(host.ops) / host.wallS, model_ops,
                setup_s.size(), model.ns / (kShards * model.criticalNs));
    // Printed, not in the result: p99 sits where the host's own
    // interruptions start to show, and moves with them between runs.
    std::printf("latency_p99_us (not in the result) %.3f us\n",
                percentile(lat, 0.99));
    std::printf("segment rates (ops/s): min %.0f, p25 %.0f, median %.0f, "
                "p75 %.0f, max %.0f over %zu segments\n",
                percentile(host.segmentRates, 1e-9),
                percentile(host.segmentRates, 0.25),
                percentile(host.segmentRates, 0.5),
                percentile(host.segmentRates, 0.75),
                percentile(host.segmentRates, 1.0), host.segmentRates.size());
}

// ---------------------------------------------------------------------
// Per-layer (traced) metrics.
// ---------------------------------------------------------------------

/**
 * Per-layer figures measured from spans and service counters (the
 * rest come from the fabric window); 0 where the layer is off the
 * workload's path.
 */
struct Layers
{
    double submitNsPerOp = 0, stalls = 0, epochs = 0, cutMs = 0,
           coalesceMs = 0, coalesceRatio = 0, waitMs = 0;
    double planMs = 0, steals = 0, shardSkew = 0,
           broadcastUsPerCall = 0;
    double execMs = 0;
    double readoutMs = 0, maskLoadMs = 0, overheadFrac = 0;
};

void
addLayers(Report &r, const Layers &l, const FabricWindow &w,
          double ops)
{
    r.add("service.submit_ns_per_op", l.submitNsPerOp, "ns/op");
    r.add("service.stalls", l.stalls, "count");
    r.add("service.epochs", l.epochs, "count");
    r.add("service.cut_host_ms", l.cutMs, "ms");
    r.add("service.coalesce_host_ms", l.coalesceMs, "ms");
    r.add("service.coalesce_ratio", l.coalesceRatio, "ratio");
    r.add("service.wait_host_ms", l.waitMs, "ms");
    r.add("sharded.plan_host_ms", l.planMs, "ms");
    const double planned = static_cast<double>(w.plannedOps);
    const double plannable = planned + static_cast<double>(w.fallbackOps);
    r.add("sharded.planned_op_frac",
          plannable > 0 ? planned / plannable : 0.0, "ratio");
    r.add("sharded.plan_programs", static_cast<double>(w.planPrograms),
          "count");
    r.add("sharded.plan_lead_programs",
          static_cast<double>(w.planLeadPrograms), "count");
    r.add("sharded.steals", l.steals, "count");
    r.add("sharded.shard_skew", l.shardSkew, "ratio");
    r.add("sharded.broadcast_us_per_call", l.broadcastUsPerCall, "us");
    r.add("exec.host_ms", l.execMs, "ms");
    const double commands = static_cast<double>(w.aap + w.ap);
    r.add("exec.host_ns_per_command",
          commands > 0 ? l.execMs * 1e6 / commands : 0.0, "ns");
    r.add("fabric.aap_per_op", static_cast<double>(w.aap) / ops,
          "count/op");
    r.add("fabric.ap_per_op", static_cast<double>(w.ap) / ops,
          "count/op");
    r.add("engine.increments_per_op",
          static_cast<double>(w.increments) / ops, "count/op");
    r.add("engine.ripples_per_op", static_cast<double>(w.ripples) / ops,
          "count/op");
    const double lookups =
        static_cast<double>(w.cacheHits + w.cacheMisses);
    r.add("progcache.hit_rate",
          lookups > 0 ? static_cast<double>(w.cacheHits) / lookups : 0.0,
          "ratio");
    r.add("progcache.misses", static_cast<double>(w.cacheMisses),
          "count");
    auto row = [&](cim::FabricCat c) {
        return w.attr[static_cast<unsigned>(c)] / ops;
    };
    r.add("ledger.plan_ns", row(cim::FabricCat::Plan), "ns/op");
    r.add("ledger.plan_fanout_ns", row(cim::FabricCat::PlanFanout),
          "ns/op");
    r.add("ledger.fallback_ns", row(cim::FabricCat::Fallback), "ns/op");
    r.add("ledger.mask_write_ns", row(cim::FabricCat::MaskWrite),
          "ns/op");
    r.add("ledger.other_ns", row(cim::FabricCat::Other), "ns/op");
    r.add("readout.host_ms", l.readoutMs, "ms");
    r.add("setup.mask_load_ms", l.maskLoadMs, "ms");
    r.add("trace.overhead_frac", l.overheadFrac, "ratio");
}

/** Summed host ms and count of the spans named @p name. */
struct SpanSum
{
    double ms = 0.0;
    uint64_t count = 0;
};

SpanSum
spanSum(const obs::ProfileInput &in, const char *name)
{
    SpanSum s;
    for (const auto &sp : in.spans) {
        if (sp.name == name) {
            s.ms += static_cast<double>(sp.hostNs()) / 1e6;
            ++s.count;
        }
    }
    return s;
}

obs::TraceConfig
traceConfig()
{
    obs::TraceConfig tc;
    tc.lanes = 8; // clients + drainer + pool lane, one lane each
    tc.capacityPerLane = 1u << 17;
    return tc;
}

/** Write the per-layer JSON and the Chrome trace of a traced run. */
void
writeArtifacts(Report &r, const Args &args,
               const obs::TraceRecorder &rec, const std::string &extra)
{
    if (args.outDir.empty())
        return;
    const std::string stem = args.outDir + "/" + args.workload +
                             "-seed" + std::to_string(args.seed);
    const std::string layers = stem + ".layers.json";
    std::FILE *f = std::fopen(layers.c_str(), "w");
    r.check(f != nullptr, "cannot write " + layers);
    if (f) {
        std::fprintf(f,
                     "{\"workload\": \"%s\", \"seed\": %llu, "
                     "\"metrics\": %s%s}\n",
                     args.workload.c_str(),
                     static_cast<unsigned long long>(args.seed),
                     metricsJson(r).c_str(), extra.c_str());
        std::fclose(f);
    }
    const std::string trace = stem + ".trace.json";
    r.check(obs::writeChromeTrace(rec, trace), "cannot write " + trace);
    std::printf("artifacts: %s, %s\n", layers.c_str(), trace.c_str());
}

std::string
ledgerJson(const FabricWindow &w, double ops)
{
    std::string out = ", \"fabric_ledger_ns_per_op\": {";
    for (unsigned c = 0; c < cim::kFabricCatCount; ++c) {
        out += c ? ", " : "";
        out += std::string("\"") +
               cim::fabricCatName(static_cast<cim::FabricCat>(c)) +
               "\": " + jsonNumber(w.attr[c] / ops);
    }
    return out + "}";
}

// ---------------------------------------------------------------------
// Ingest workloads: closed-loop producers into IngestService.
// ---------------------------------------------------------------------

constexpr size_t kIngestCounters = 65536;

struct IngestSpec
{
    bool mixedSign;
    unsigned producers;
    size_t batchOps;
    size_t poolBatches;   ///< distinct pre-generated batches, cycled
    size_t warmupBatches; ///< per producer, before any window
    /**
     * Per producer: the modeled metrics cover this fixed count of
     * batches at the start of the timed window. Per-op fabric cost
     * drifts as counters fill, so a window sized by host time would
     * move the modeled metrics with host speed; with one producer
     * they repeat exactly for a seed.
     */
    size_t modelBatches;
    size_t tracedBatches; ///< per producer, per pass of a traced run
    /**
     * Added to every counter before the warm-up. A signed stream that
     * starts from zero makes each counter's first decrements borrow
     * through all 16 digits, so its per-op cost falls for tens of
     * seconds as counters leave zero, and a time-bound window would
     * measure a point on that decline set by host speed. From a base
     * whose radix-4 digits are all 2, borrows stop within a digit or
     * two from the first op on.
     */
    int64_t preload;
};

constexpr IngestSpec kIngestZipf{false, 1, 1024, 512, 64, 256, 1024, 0};
constexpr IngestSpec kIngestMixed{true,  2,   256, 1024, 16,
                                  128,   128, 0x2aaaaaaa};

using BatchPool = std::vector<std::vector<core::BatchOp>>;

BatchPool
makeBatchPool(const IngestSpec &spec, uint64_t seed)
{
    ZipfRng keys(kIngestCounters, 1.0, seed);
    Rng values(seed ^ 0x7a1e5eedULL);
    BatchPool pool(spec.poolBatches);
    for (auto &batch : pool) {
        batch.reserve(spec.batchOps);
        for (size_t i = 0; i < spec.batchOps; ++i) {
            int64_t v = values.nextRange(1, 7);
            if (spec.mixedSign && values.nextBool(0.25))
                v = -v;
            batch.push_back({keys.next(), v, 0});
        }
    }
    return pool;
}

/** One closed-loop client: its position in the stream and tallies. */
struct Producer
{
    unsigned id = 0;
    size_t cursor = 0;               ///< requests issued so far
    std::vector<uint64_t> submitted; ///< per pool batch
    std::vector<Request> requests;
};

/**
 * Issue requests (submit -> flush -> wait) until @p min_batches are
 * done and @p seconds have passed since @p t0 (a nowS() time).
 */
void
runProducer(service::IngestService &svc, const BatchPool &pool,
            unsigned num_producers, Producer &p, size_t min_batches,
            double seconds, double t0)
{
    for (size_t n = 0; n < min_batches || nowS() - t0 < seconds; ++n) {
        const size_t idx =
            (p.id + p.cursor++ * num_producers) % pool.size();
        const auto &batch = pool[idx];
        obs::ScopedSpan request("bench.request", kBenchTrack);
        const double a = nowS();
        {
            obs::ScopedSpan s("bench.submit", kBenchTrack);
            svc.submit(batch);
        }
        {
            obs::ScopedSpan s("bench.wait", kBenchTrack);
            svc.wait(svc.flush());
        }
        const double b = nowS();
        p.requests.push_back({(b - a) * 1e6, batch.size()});
        ++p.submitted[idx];
    }
}

/**
 * Run every producer concurrently; returns the host view of this one
 * segment.
 */
HostWindow
runProducers(service::IngestService &svc, const BatchPool &pool,
             std::vector<Producer> &producers, size_t min_batches,
             double seconds)
{
    std::vector<size_t> done_before;
    for (const auto &p : producers)
        done_before.push_back(p.requests.size());
    const double t0 = nowS();
    const unsigned n = static_cast<unsigned>(producers.size());
    if (n == 1) {
        runProducer(svc, pool, n, producers[0], min_batches, seconds, t0);
    } else {
        std::vector<std::thread> threads;
        for (auto &p : producers)
            threads.emplace_back([&] {
                runProducer(svc, pool, n, p, min_batches, seconds, t0);
            });
        for (auto &t : threads)
            t.join();
    }
    HostWindow w;
    uint64_t ops = 0;
    for (size_t i = 0; i < producers.size(); ++i) {
        const auto &reqs = producers[i].requests;
        for (size_t q = done_before[i]; q < reqs.size(); ++q) {
            w.requests.push_back(reqs[q]);
            ops += reqs[q].ops;
        }
    }
    w.endSegment(t0, ops);
    return w;
}

/** The program under test for the ingest workloads. */
struct IngestStack
{
    std::unique_ptr<core::ShardedEngine> eng;
    std::unique_ptr<service::IngestService> svc; ///< torn down first
};

/** Build engine and service, appending the time taken to @p setup_s. */
IngestStack
buildIngest(const core::EngineConfig &cfg,
            const service::IngestConfig &scfg, std::vector<double> &setup_s)
{
    const double t = nowS();
    IngestStack st;
    st.eng = std::make_unique<core::ShardedEngine>(cfg, kShards, kLanes);
    st.svc = std::make_unique<service::IngestService>(*st.eng, scfg);
    setup_s.push_back(nowS() - t);
    return st;
}

/**
 * Exact per-counter sums of everything submitted vs. the service;
 * returns the host ms of the final counter read.
 */
double
checkIngest(Report &r, service::IngestService &svc,
            const BatchPool &pool, const std::vector<Producer> &prods,
            int64_t preload)
{
    std::vector<int64_t> expected(kIngestCounters, preload);
    uint64_t submitted = preload ? kIngestCounters : 0;
    for (size_t b = 0; b < pool.size(); ++b) {
        uint64_t times = 0;
        for (const auto &p : prods)
            times += p.submitted[b];
        if (!times)
            continue;
        submitted += times * pool[b].size();
        for (const auto &op : pool[b])
            expected[op.counter] +=
                op.value * static_cast<int64_t>(times);
    }
    const double t0 = nowS();
    const std::vector<int64_t> got = svc.readCounters(0);
    const double readout_ms = (nowS() - t0) * 1e3;
    uint64_t mismatches = 0;
    for (size_t c = 0; c < kIngestCounters; ++c)
        mismatches += got[c] != expected[c];
    r.attempted += submitted + kIngestCounters;
    r.failed += svc.serviceStats().dropped + mismatches;
    return readout_ms;
}

int
runIngest(const IngestSpec &spec, const Args &args)
{
    Report r;
    const BatchPool pool = makeBatchPool(spec, args.seed);
    core::EngineConfig cfg; // radix 4, 32-bit counters, Ambit
    cfg.numCounters = kIngestCounters;
    cfg.maxMaskRows = 1;
    service::IngestConfig scfg;
    // Epochs are cut by flush() only: one request is one epoch.
    scfg.minDrainOps = std::numeric_limits<size_t>::max();

    std::vector<double> setup_s;
    const IngestStack stack = buildIngest(cfg, scfg, setup_s);
    core::ShardedEngine &eng = *stack.eng;
    service::IngestService &svc = *stack.svc;

    std::vector<Producer> prods(spec.producers);
    for (unsigned i = 0; i < spec.producers; ++i) {
        prods[i].id = i;
        prods[i].submitted.assign(pool.size(), 0);
    }
    if (spec.preload) {
        std::vector<core::BatchOp> base;
        for (uint64_t c = 0; c < kIngestCounters; ++c)
            base.push_back({c, spec.preload, 0});
        svc.submit(base);
        svc.wait(svc.flush());
    }
    runProducers(svc, pool, prods, spec.warmupBatches, 0);

    if (!args.trace) {
        const auto s0 = shardStats(eng);
        HostWindow host = runProducers(svc, pool, prods, spec.modelBatches, 0);
        const FabricWindow model = fabricWindow(s0, shardStats(eng), cfg);
        const double model_ops = static_cast<double>(host.ops);
        const double rss_mb = rssMb();
        const double segment_s =
            (args.seconds - host.wallS) / static_cast<double>(kSegments);
        for (size_t k = 0; k < kSegments; ++k) {
            buildIngest(cfg, scfg, setup_s); // timed, then torn down
            host += runProducers(svc, pool, prods, 1, segment_s);
        }
        checkWindow(r, model, "modeled window");
        checkLifetime(r, eng, cfg);
        checkIngest(r, svc, pool, prods, spec.preload);
        addEndToEnd(r, setup_s, host, model, model_ops, rss_mb);
        return finish(r);
    }

    // Traced run: half the work untraced, all of it traced, the other
    // half untraced again, so a drift over the run cancels out of the
    // tracing overhead.
    HostWindow plain =
        runProducers(svc, pool, prods, spec.tracedBatches / 2, 0);
    obs::TraceRecorder rec(traceConfig());
    const auto s0 = shardStats(eng);
    const auto svc0 = svc.serviceStats();
    rec.install();
    const HostWindow traced =
        runProducers(svc, pool, prods, spec.tracedBatches, 0);
    rec.uninstall();
    const auto s1 = shardStats(eng);
    const auto svc1 = svc.serviceStats();
    plain += runProducers(svc, pool, prods, spec.tracedBatches / 2, 0);
    r.check(rec.droppedEvents() == 0, "trace ring wrapped");
    const double readout_ms =
        checkIngest(r, svc, pool, prods, spec.preload);

    const FabricWindow w = fabricWindow(s0, s1, cfg);
    checkWindow(r, w, "traced window");
    checkLifetime(r, eng, cfg);
    const double ops = static_cast<double>(traced.ops);
    const obs::ProfileInput in = obs::profileFromRecorder(rec);
    Layers l;
    l.submitNsPerOp = spanSum(in, "bench.submit").ms * 1e6 / ops;
    l.waitMs = spanSum(in, "bench.wait").ms;
    l.readoutMs = readout_ms;
    l.stalls = static_cast<double>(svc1.stalls - svc0.stalls);
    l.epochs = static_cast<double>(svc1.epochs - svc0.epochs);
    l.steals = static_cast<double>(svc1.steals - svc0.steals);
    l.coalesceRatio = static_cast<double>(svc1.coalesced - svc0.coalesced) /
                      static_cast<double>(svc1.submitted - svc0.submitted);
    double execute_ms = 0, skew_sum = 0;
    size_t skew_epochs = 0;
    for (const auto &ep : obs::buildEpochProfiles(in)) {
        l.cutMs += static_cast<double>(ep.cutNs) / 1e6;
        l.coalesceMs += static_cast<double>(ep.coalesceNs) / 1e6;
        execute_ms += static_cast<double>(ep.executeNs) / 1e6;
        int64_t slowest = 0;
        for (const auto &sd : ep.shards)
            slowest = std::max(slowest, sd.hostNs);
        l.execMs += static_cast<double>(slowest) / 1e6;
        if (!ep.shards.empty()) {
            skew_sum += ep.skew;
            ++skew_epochs;
        }
    }
    // Planning is the execute stage's host time outside the slowest
    // shard's drain: stage 3 plus the pool hand-offs around it.
    l.planMs = execute_ms - l.execMs;
    l.shardSkew = skew_epochs ? skew_sum / static_cast<double>(skew_epochs)
                              : 0.0;
    l.overheadFrac = traced.wallS / plain.wallS - 1.0;
    addLayers(r, l, w, ops);
    writeArtifacts(r, args, rec, ledgerJson(w, ops));
    return finish(r);
}

// ---------------------------------------------------------------------
// gemv_ternary: masked matrix accumulation on ShardedEngine.
// ---------------------------------------------------------------------

/** One more (throw-away) set-up is timed every this many vectors. */
constexpr size_t kGemvSetupEvery = 10;
constexpr size_t kGemvMinVectors = 2;
constexpr size_t kGemvTracedVectors = 2;

using Ternary = std::vector<std::vector<int8_t>>;

Ternary
makeTernary(size_t K, size_t N, uint64_t seed)
{
    Rng rng(seed ^ 0x2e7a2e7aULL);
    Ternary Z(K, std::vector<int8_t>(N));
    for (auto &row : Z)
        for (auto &z : row)
            z = static_cast<int8_t>(rng.nextRange(-1, 1));
    return Z;
}

/** Input vector @p index of the stream: int8 entries. */
std::vector<int64_t>
makeInput(size_t K, uint64_t seed, size_t index)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + index);
    std::vector<int64_t> x(K);
    for (auto &v : x)
        v = rng.nextRange(-128, 127);
    return x;
}

/** The stationary matrix loaded as dual-rail masks. */
struct GemvEngine
{
    std::unique_ptr<core::ShardedEngine> eng;
    std::vector<unsigned> plus, minus;
};

/** Build the engine and load Z, appending the time to @p setup_s. */
GemvEngine
loadGemv(const core::EngineConfig &cfg, const Ternary &Z,
         std::vector<double> &setup_s)
{
    const double t = nowS();
    GemvEngine g;
    g.eng = std::make_unique<core::ShardedEngine>(cfg, kShards, kLanes);
    const size_t N = Z.front().size();
    std::vector<uint8_t> p(N), m(N);
    for (const auto &row : Z) {
        for (size_t j = 0; j < N; ++j) {
            p[j] = row[j] > 0;
            m[j] = row[j] < 0;
        }
        g.plus.push_back(g.eng->addMask(p));
        g.minus.push_back(g.eng->addMask(m));
    }
    setup_s.push_back(nowS() - t);
    return g;
}

/** y = x . Z: accumulate both rails, read them, subtract. */
std::vector<int64_t>
applyVector(GemvEngine &g, const std::vector<int64_t> &x)
{
    for (size_t i = 0; i < x.size(); ++i) {
        if (x[i] == 0)
            continue;
        const uint64_t mag = static_cast<uint64_t>(std::abs(x[i]));
        const unsigned pos_rail = x[i] > 0 ? 0 : 1;
        obs::ScopedSpan s("bench.accumulate", kBenchTrack);
        g.eng->accumulate(mag, g.plus[i], pos_rail);
        g.eng->accumulate(mag, g.minus[i], 1 - pos_rail);
    }
    obs::ScopedSpan s("bench.readout", kBenchTrack);
    const auto p = g.eng->readAllCounters(0);
    const auto m = g.eng->readAllCounters(1);
    std::vector<int64_t> y(p.size());
    for (size_t j = 0; j < y.size(); ++j)
        y[j] = p[j] - m[j];
    return y;
}

struct GemvStream
{
    size_t next = 0; ///< index of the next input vector
    std::vector<size_t> indices;
    std::vector<std::vector<int64_t>> outputs;
};

/**
 * Apply the next @p count vectors of the stream, one request and one
 * segment each.
 */
HostWindow
runVectors(GemvEngine &g, GemvStream &st, const Args &args, size_t K,
           size_t count)
{
    HostWindow w;
    for (size_t n = 0; n < count; ++n) {
        const double t0 = nowS();
        const auto x = makeInput(K, args.seed, st.next);
        const double a = nowS();
        auto y = applyVector(g, x);
        const double latency_us = (nowS() - a) * 1e6;
        {
            obs::ScopedSpan s("bench.clear", kBenchTrack);
            g.eng->clear();
        }
        st.indices.push_back(st.next++);
        st.outputs.push_back(std::move(y));
        w.requests.push_back({latency_us, K * g.eng->numCounters()});
        w.endSegment(t0, w.requests.back().ops);
    }
    return w;
}

void
checkGemv(Report &r, const GemvStream &st, const Ternary &Z,
          const Args &args)
{
    for (size_t v = 0; v < st.outputs.size(); ++v) {
        const auto ref = core::refGemvTernary(
            makeInput(Z.size(), args.seed, st.indices[v]), Z);
        for (size_t j = 0; j < ref.size(); ++j)
            r.failed += st.outputs[v][j] != ref[j];
        r.attempted += ref.size();
    }
}

/** Analytic GPU time beside the modeled one, as context only. */
std::string
gpuContextJson(const workloads::LlamaShape &shape, double c2m_ms)
{
    const auto gpu = core::GpuModel::rtx3090ti().run(1, shape.N, shape.K);
    std::printf("context (%s, K=%zu N=%zu): modeled critical path %.4f "
                "ms/vector; analytic RTX 3090 Ti GEMV %.4f ms kernel, "
                "%.4f ms with PCIe transfer (paper Fig. 14). The DRAM "
                "model is unvalidated against hardware.\n",
                shape.id.c_str(), shape.K, shape.N, c2m_ms, gpu.kernelMs,
                gpu.totalMs);
    return ", \"gpu_context\": {\"shape\": \"" + shape.id +
           "\", \"c2m_modeled_critical_ms_per_vector\": " +
           jsonNumber(c2m_ms) + ", \"rtx3090ti_kernel_ms\": " +
           jsonNumber(gpu.kernelMs) + ", \"rtx3090ti_total_ms\": " +
           jsonNumber(gpu.totalMs) +
           ", \"note\": \"analytic GPU model; DRAM model unvalidated "
           "against hardware\"}";
}

int
runGemv(const Args &args)
{
    Report r;
    const auto shape = workloads::llamaGemvShapes()[2]; // LLaMA-2 V2
    const size_t K = shape.K, N = shape.N;
    const Ternary Z = makeTernary(K, N, args.seed);
    core::EngineConfig cfg;
    cfg.numCounters = N;
    cfg.numGroups = 2; // dual rail: +1 and -1 contributions
    cfg.maxMaskRows = static_cast<unsigned>(2 * K);

    std::vector<double> setup_s;
    GemvEngine g = loadGemv(cfg, Z, setup_s);

    GemvStream st;
    runVectors(g, st, args, K, 1); // warm-up

    if (!args.trace) {
        // The program cache keeps filling for tens of vectors (every
        // mask row has its own programs), so the window is a fixed
        // count of vectors, one per second of --seconds: every run of
        // a seed then sees the same cache trajectory and the modeled
        // metrics repeat exactly.
        const size_t count = std::max<size_t>(
            kGemvMinVectors, static_cast<size_t>(std::lround(args.seconds)));
        const auto s0 = shardStats(*g.eng);
        HostWindow host;
        for (size_t v = 0; v < count; ++v) {
            if (v % kGemvSetupEvery == kGemvSetupEvery / 2)
                loadGemv(cfg, Z, setup_s); // timed, then torn down
            host += runVectors(g, st, args, K, 1);
        }
        const FabricWindow model = fabricWindow(s0, shardStats(*g.eng), cfg);
        checkWindow(r, model, "modeled window");
        checkLifetime(r, *g.eng, cfg);
        checkGemv(r, st, Z, args);
        addEndToEnd(r, setup_s, host, model, static_cast<double>(host.ops),
                    rssMb());
        gpuContextJson(shape, model.criticalNs / 1e6 /
                                  static_cast<double>(count));
        return finish(r);
    }

    // Untraced, traced, untraced: the cache warms over the run, and
    // the split cancels that drift out of the tracing overhead.
    HostWindow plain = runVectors(g, st, args, K, kGemvTracedVectors / 2);
    obs::TraceRecorder rec(traceConfig());
    const auto s0 = shardStats(*g.eng);
    rec.install();
    const HostWindow traced = runVectors(g, st, args, K, kGemvTracedVectors);
    rec.uninstall();
    const auto s1 = shardStats(*g.eng);
    plain += runVectors(g, st, args, K, kGemvTracedVectors / 2);
    r.check(rec.droppedEvents() == 0, "trace ring wrapped");
    checkGemv(r, st, Z, args);

    const FabricWindow w = fabricWindow(s0, s1, cfg);
    checkWindow(r, w, "traced window");
    checkLifetime(r, *g.eng, cfg);
    const double ops = static_cast<double>(traced.ops);
    const obs::ProfileInput in = obs::profileFromRecorder(rec);
    Layers l;
    const SpanSum acc = spanSum(in, "bench.accumulate");
    l.execMs = acc.ms;
    // Each span covers the two rails' broadcast accumulate calls.
    l.broadcastUsPerCall =
        acc.count ? acc.ms * 1e3 / static_cast<double>(2 * acc.count) : 0.0;
    l.readoutMs = spanSum(in, "bench.readout").ms;
    l.maskLoadMs = setup_s.front() * 1e3;
    l.overheadFrac = traced.wallS / plain.wallS - 1.0;
    addLayers(r, l, w, ops);
    writeArtifacts(r, args, rec,
                   gpuContextJson(shape,
                                  w.criticalNs / 1e6 /
                                      static_cast<double>(kGemvTracedVectors)) +
                       ledgerJson(w, ops));
    return finish(r);
}

/**
 * Restrict the process to the CPU it is running on, which the
 * scheduler chose among the idle ones, so two benchmarks started side
 * by side do not share one CPU. Call before any thread is started:
 * threads inherit the mask of the thread that creates them.
 */
bool
pinToOneCpu()
{
    const int cpu = sched_getcpu();
    if (cpu < 0)
        return false;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    return sched_setaffinity(0, sizeof(set), &set) == 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "ingest_zipf|ingest_mixed_sign|gemv_ternary --seed N "
                 "--seconds S --trace 0|1 [--out DIR]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char *val = argv[i + 1];
        if (key == "--workload")
            args.workload = val;
        else if (key == "--seed")
            args.seed = std::strtoull(val, nullptr, 10);
        else if (key == "--seconds")
            args.seconds = std::strtod(val, nullptr);
        else if (key == "--trace")
            args.trace = std::strcmp(val, "0") != 0;
        else if (key == "--out")
            args.outDir = val;
        else
            return usage();
    }
    if (argc % 2 == 0 || !(args.seconds > 0))
        return usage();
    if (!pinToOneCpu())
        std::fprintf(stderr, "perfbench: could not pin to one CPU; host "
                             "figures will be noisier\n");
    if (args.workload == "ingest_zipf")
        return runIngest(kIngestZipf, args);
    if (args.workload == "ingest_mixed_sign")
        return runIngest(kIngestMixed, args);
    if (args.workload == "gemv_ternary")
        return runGemv(args);
    return usage();
}
