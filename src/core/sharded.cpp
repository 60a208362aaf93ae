#include "core/sharded.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "core/backend_rca.hpp"
#include "core/costmodel.hpp"
#include "jc/digits.hpp"
#include "obs/trace.hpp"

namespace c2m {
namespace core {

namespace {

/** Contiguous range boundaries: remainder spread over the first shards. */
std::vector<size_t>
splitRanges(size_t total, unsigned shards)
{
    std::vector<size_t> starts(shards + 1, 0);
    const size_t base = total / shards;
    const size_t extra = total % shards;
    for (unsigned s = 0; s < shards; ++s)
        starts[s + 1] = starts[s] + base + (s < extra ? 1 : 0);
    return starts;
}

/**
 * Modeled ns of one masked k-ary increment per k, on this config's
 * substrate: analytic command counts (C2mCostModel for the JC
 * backends, RcaCostModel for the ripple-carry baseline — whose cost
 * is k-independent) priced at the per-command latency of the fabric
 * (DRAM bank period, or the NVM op latency).
 */
std::vector<double>
planIncrementNs(const EngineConfig &cfg)
{
    const unsigned digits =
        jc::digitsForCapacityBits(cfg.radix, cfg.capacityBits) + 1;
    const bool nvm = cfg.backend == BackendKind::NvmPinatubo ||
                     cfg.backend == BackendKind::NvmMagic;
    const double cmd_ns =
        nvm ? cfg.nvmCost.opNs : cfg.dramTimings.bankPeriodNs();
    std::vector<double> inc(cfg.radix, 0.0);
    if (cfg.backend == BackendKind::Rca) {
        const RcaCostModel model(
            rcaWidth(cfg.radix, digits),
            cfg.protection == Protection::Ecc);
        for (unsigned k = 1; k < cfg.radix; ++k)
            inc[k] =
                static_cast<double>(model.accumulateOps()) * cmd_ns;
        return inc;
    }
    const C2mCostModel model(cfg.radix, cfg.capacityBits,
                             cfg.protection == Protection::Ecc,
                             cfg.frChecks, cfg.counting, cfg.ripple);
    for (unsigned k = 1; k < cfg.radix; ++k)
        inc[k] = static_cast<double>(model.incrementOps(k)) * cmd_ns;
    return inc;
}

/**
 * Single-writer claim on one shard for the guard's lifetime. Shards
 * are strictly single-writer: a second writer inside one shard means
 * a scheduling bug above this layer, and panics.
 */
class ShardGuard
{
  public:
    ShardGuard(std::atomic<bool> &busy, unsigned s) : busy_(busy)
    {
        C2M_ASSERT(!busy_.exchange(true, std::memory_order_acquire),
                   "concurrent writers on shard ", s);
    }
    ~ShardGuard() { busy_.store(false, std::memory_order_release); }

    ShardGuard(const ShardGuard &) = delete;
    ShardGuard &operator=(const ShardGuard &) = delete;

  private:
    std::atomic<bool> &busy_;
};

} // namespace

ShardedEngine::ShardedEngine(const EngineConfig &cfg,
                             unsigned num_shards,
                             unsigned num_threads)
    : cfg_(cfg),
      starts_(splitRanges(cfg.numCounters,
                          num_shards ? num_shards : 1)),
      pool_(num_threads ? num_threads : std::max(1u, num_shards))
{
    C2M_ASSERT(num_shards >= 1, "need at least one shard");
    C2M_ASSERT(cfg.numCounters >= num_shards,
               "fewer counters than shards");

    // Persistent plane-row pool: one spare mask row per (digit, k)
    // plane so plan programs keep stable (op, digit, k, mask row)
    // cache keys across epochs; deep-capacity overflow planes share
    // kPlaneShared.
    const bool planned =
        cfg.drainPlanner && cfg.counting == CountMode::Kary;
    if (planned) {
        const unsigned digits =
            jc::digitsForCapacityBits(cfg.radix, cfg.capacityBits) +
            1;
        planePool_ = std::min<unsigned>(digits * (cfg.radix - 1),
                                        kMaxPlaneRows);
        planIncNs_ = planIncrementNs(cfg);
    }
    reservedMasks_ = kPlaneBase + planePool_;
    // The reserved handles are ADDITIVE on top of the public budget
    // (each shard is configured with cfg.maxMaskRows + reservedMasks_
    // rows below): a workload config with maxMaskRows as low as 1
    // (dna, sparsity) still gets its full public row count, and the
    // planner keeps its point/plane rows regardless of how small the
    // public budget is. Guard the plane pool so a refactor of the
    // reservation scheme cannot silently starve the plan path.
    C2M_ASSERT(!planned || planePool_ > 0,
               "drain planner reserved no plane rows");

    const bool nvm = cfg.backend == BackendKind::NvmPinatubo ||
                     cfg.backend == BackendKind::NvmMagic;

    // Independent per-shard seeds split from the root seed.
    uint64_t seed_state = cfg.seed;
    scratch_.resize(num_shards);
    for (unsigned s = 0; s < num_shards; ++s) {
        EngineConfig scfg = cfg;
        scfg.numCounters = shardWidth(s);
        scfg.seed = splitMix64(seed_state);
        // Handles [0, reservedMasks_) are internal: the routed point
        // mask, the shared overflow plane row, and the persistent
        // per-plane pool.
        scfg.maxMaskRows = cfg.maxMaskRows + reservedMasks_;
        shards_.push_back(std::make_unique<C2MEngine>(scfg));
        for (unsigned h = 0; h < reservedMasks_; ++h)
            shards_.back()->addMask(
                std::vector<uint8_t>(shardWidth(s), 0));
        scratch_[s].pointMask = BitVector(shardWidth(s));
        scratch_[s].pointCol = std::numeric_limits<size_t>::max();
        scratch_[s].maskWriteNs =
            nvm ? cfg.nvmCost.rowAccessNs
                : cfg.dramTimings.rowAccessNs(static_cast<unsigned>(
                      (shardWidth(s) + 7) / 8));
    }
    shardBusy_ = std::make_unique<std::atomic<bool>[]>(num_shards);
    allShards_.resize(num_shards);
    for (unsigned s = 0; s < num_shards; ++s)
        allShards_[s] = s;
}

unsigned
ShardedEngine::shardOf(uint64_t counter) const
{
    C2M_ASSERT(counter < cfg_.numCounters,
               "counter index out of range: ", counter);
    // Ranges differ by at most one column; start from the uniform
    // guess and walk at most one step each way.
    const size_t n = numShards();
    size_t s = static_cast<size_t>(counter) * n / cfg_.numCounters;
    while (counter < starts_[s])
        --s;
    while (counter >= starts_[s + 1])
        ++s;
    return static_cast<unsigned>(s);
}

unsigned
ShardedEngine::addMask(const std::vector<uint8_t> &mask)
{
    C2M_ASSERT(numMasks_ < cfg_.maxMaskRows,
               "mask rows exhausted; raise maxMaskRows");
    const unsigned handle = numMasks_++;
    setMask(handle, mask);
    return handle;
}

void
ShardedEngine::setMask(unsigned handle,
                       const std::vector<uint8_t> &mask)
{
    C2M_ASSERT(handle < numMasks_, "unknown mask handle ", handle);
    runShards(allShards_, [&](C2MEngine &eng, unsigned s) {
        std::vector<uint8_t> slice(shardWidth(s), 0);
        const size_t lo = starts_[s];
        for (size_t c = 0; c < slice.size() && lo + c < mask.size();
             ++c)
            slice[c] = mask[lo + c];
        // Shard handles 0..reservedMasks_-1 are internal (point and
        // plane masks), so logical handle h lives at shard handle
        // h + reservedMasks_.
        if (handle + reservedMasks_ < eng.numMasks())
            eng.setMask(handle + reservedMasks_, slice);
        else
            eng.addMask(slice);
    });
}

void
ShardedEngine::runShardOps(unsigned s, std::span<const BatchOp> ops)
{
    C2M_ASSERT(s < numShards(), "shard index out of range: ", s);
    const ShardGuard guard(shardBusy_[s], s);
    // One-bucket degenerate case of the epoch pipeline: the merged
    // stage-3 decision over a single shard reduces exactly to the
    // classic per-shard plan-vs-fallback comparison, so this path is
    // bit- and stats-identical to planning the bucket in isolation.
    prepareShardParts(s, ops);
    const unsigned self[1] = {s};
    planParts(self);
    execShardParts(s);
}

void
ShardedEngine::runShardTask(
    unsigned s, const std::function<void(C2MEngine &, size_t)> &fn)
{
    C2M_ASSERT(s < numShards(), "shard index out of range: ", s);
    const ShardGuard guard(shardBusy_[s], s);
    fn(*shards_[s], starts_[s]);
}

void
ShardedEngine::prepareShardParts(unsigned s,
                                 std::span<const BatchOp> ops)
{
    auto &sc = scratch_[s];
    sc.partsUsed = 0;
    if (ops.empty())
        return;
    for (const auto &op : ops)
        C2M_ASSERT(op.counter >= starts_[s] &&
                       op.counter < starts_[s + 1],
                   "counter ", op.counter, " not owned by shard ", s);
    const auto newPart = [&sc]() -> PlanPart & {
        if (sc.partsUsed == sc.parts.size())
            sc.parts.emplace_back();
        PlanPart &p = sc.parts[sc.partsUsed++];
        p.own.clear();
        p.touched.clear();
        p.steps.clear();
        p.pre.clear();
        p.post.clear();
        p.fallbackNs = 0.0;
        p.planned = false;
        return p;
    };
    // Planner off, or Unit counting (no k-ary planes): the bucket
    // stays one serial part in its original op order. With the
    // planner on these ops still count as fallback at execution so
    // the invariant plannedOps + planFallbackOps == batched ops
    // holds for metric consumers.
    if (!cfg_.drainPlanner || cfg_.counting != CountMode::Kary) {
        PlanPart &p = newPart();
        p.group = ops.front().group;
        p.ops = ops;
        return;
    }
    // Common case first: the whole bucket targets one group.
    bool single_group = true;
    for (const auto &op : ops)
        if (op.group != ops.front().group) {
            single_group = false;
            break;
        }
    if (single_group) {
        PlanPart &p = newPart();
        p.group = ops.front().group;
        p.ops = ops;
    } else {
        // Partition by group (first-appearance order, per-group op
        // order preserved); groups hold independent counter state,
        // so draining them one after another cannot change any
        // value.
        for (const auto &op : ops) {
            size_t i = 0;
            while (i < sc.partsUsed && sc.parts[i].group != op.group)
                ++i;
            if (i == sc.partsUsed) {
                PlanPart &p = newPart();
                p.group = op.group;
            }
            sc.parts[i].own.push_back(op);
        }
        for (size_t i = 0; i < sc.partsUsed; ++i)
            sc.parts[i].ops = sc.parts[i].own;
    }
    for (size_t i = 0; i < sc.partsUsed; ++i)
        analyzePart(s, sc.parts[i]);
}

void
ShardedEngine::analyzePart(unsigned s, PlanPart &part)
{
    C2MEngine &eng = *shards_[s];
    auto &sc = scratch_[s];
    // Signed-mode groups keep pending flags fully resolved per op;
    // a plan would defer them, so those parts replay per-op.
    if (eng.signedMode(part.group))
        return;

    // A negative op means serial replay could enter signed mode
    // mid-bucket — fall back so the op-for-op state machine stays
    // bit-identical. Otherwise sum each counter's delta
    // (first-occurrence order; all-zero counters drop out, and they
    // would populate no plane).
    for (const auto &op : part.ops)
        if (op.value < 0)
            return;
    coalesceOps(part.ops, sc.summer, sc.sums);
    const size_t lo = starts_[s];

    // Build the digit planes: counter col joins plane (d, k) iff its
    // summed delta has digit k at position d. The top digit is the
    // guard per-value increments never touch (only ripples carry
    // into it), so a summed delta reaching it cannot be planned —
    // replay the raw ops instead, which stay per-value in range.
    const unsigned R = cfg_.radix;
    const unsigned D = eng.backend().numDigits();
    if (part.planes.empty()) {
        part.planes.assign(static_cast<size_t>(D) * (R - 1),
                           BitVector(shardWidth(s)));
        part.planeUsed.assign(part.planes.size(), 0);
    }
    bool over_capacity = false;
    for (const BatchOp &sum : sc.sums.ops) {
        const size_t col = static_cast<size_t>(sum.counter) - lo;
        uint64_t v = static_cast<uint64_t>(sum.value);
        unsigned pos = 0;
        while (v != 0) {
            const unsigned k = static_cast<unsigned>(v % R);
            v /= R;
            if (k != 0) {
                if (pos + 1 >= D) {
                    over_capacity = true;
                    break;
                }
                const size_t idx =
                    static_cast<size_t>(pos) * (R - 1) + (k - 1);
                if (!part.planeUsed[idx]) {
                    part.planeUsed[idx] = 1;
                    part.planes[idx].fill(false);
                    part.touched.push_back(
                        static_cast<uint32_t>(idx));
                }
                part.planes[idx].set(col, true);
            }
            ++pos;
        }
        if (over_capacity)
            break;
    }
    for (const uint32_t idx : part.touched)
        part.planeUsed[idx] = 0;
    if (over_capacity) {
        part.touched.clear();
        return;
    }

    // Price the per-op replay alternative over the RAW ops — one
    // increment program per nonzero digit of each original value
    // (RCA: one W-bit add per op, zeros included, which is what
    // C2MEngine issues without pending flags) plus a point-mask
    // rewrite per counter switch — so a hot key hit N times costs ~N
    // program chains per-op but shares one plane set once summed.
    // The merged stage-3 decision compares the sum of these against
    // ONE global plan.
    const bool whole_adds = !eng.backend().caps().pendingFlags;
    size_t prev_col = std::numeric_limits<size_t>::max();
    for (const auto &op : part.ops) {
        const size_t col = static_cast<size_t>(op.counter) - lo;
        if (col != prev_col) {
            part.fallbackNs += sc.maskWriteNs;
            prev_col = col;
        }
        if (whole_adds) {
            part.fallbackNs += planIncNs_[1]; // k-independent on RCA
            continue;
        }
        for (uint64_t v = static_cast<uint64_t>(op.value); v != 0;
             v /= R)
            if (const unsigned k = static_cast<unsigned>(v % R))
                part.fallbackNs += planIncNs_[k];
    }
    part.planned = true;
}

void
ShardedEngine::runShardSerial(unsigned s,
                              std::span<const BatchOp> ops)
{
    C2MEngine &eng = *shards_[s];
    auto &sc = scratch_[s];
    const size_t lo = starts_[s];
    // The whole per-op replay path attributes to Fallback — both the
    // planner's bail-outs and the entire batch when the planner is
    // off. Point-mask rewrites inside it still land in MaskWrite via
    // the nested scope in C2MEngine::setMask (innermost wins).
    cim::AttrScope attr(eng.backend().opStatsRef(),
                        cim::FabricCat::Fallback);
    for (const auto &op : ops) {
        const size_t col = static_cast<size_t>(op.counter) - lo;
        if (sc.pointCol != col) {
            // Two-bit in-place update of the reusable point mask: no
            // byte-vector rebuild, no allocation on a column change.
            if (sc.pointCol != std::numeric_limits<size_t>::max())
                sc.pointMask.set(sc.pointCol, false);
            sc.pointMask.set(col, true);
            eng.setMask(kPointMask, sc.pointMask);
            sc.pointCol = col;
        }
        if (op.value >= 0)
            eng.accumulate(static_cast<uint64_t>(op.value),
                           kPointMask, op.group);
        else
            eng.accumulateSigned(op.value, kPointMask, op.group);
    }
}

void
ShardedEngine::planParts(std::span<const unsigned> shard_ids)
{
    const unsigned R = cfg_.radix;
    // Distinct groups, shard-major first-appearance order.
    std::vector<uint32_t> groups;
    for (const unsigned s : shard_ids) {
        const auto &sc = scratch_[s];
        for (size_t i = 0; i < sc.partsUsed; ++i) {
            const uint32_t g = sc.parts[i].group;
            if (std::find(groups.begin(), groups.end(), g) ==
                groups.end())
                groups.push_back(g);
        }
    }
    std::vector<std::pair<unsigned, PlanPart *>> cand;
    std::vector<uint32_t> union_planes;
    std::unordered_map<uint32_t, unsigned> plane_lead;
    std::unordered_map<unsigned, unsigned> issued, occ;
    for (const uint32_t g : groups) {
        // Gather this group's plan candidates across all shards.
        // Every plane in the union is issued ONCE, by the lowest
        // shard holding it (the gang leader); each candidate shard
        // still pays its own mask-row slice writes.
        cand.clear();
        union_planes.clear();
        plane_lead.clear();
        double fallback_ns = 0.0;
        double plan_ns = 0.0;
        for (const unsigned s : shard_ids) {
            auto &sc = scratch_[s];
            for (size_t i = 0; i < sc.partsUsed; ++i) {
                PlanPart &p = sc.parts[i];
                if (p.group != g || !p.planned)
                    continue;
                cand.emplace_back(s, &p);
                fallback_ns += p.fallbackNs;
                plan_ns += static_cast<double>(p.touched.size()) *
                           sc.maskWriteNs;
                for (const uint32_t idx : p.touched) {
                    plane_lead.try_emplace(idx, s);
                    union_planes.push_back(idx);
                }
            }
        }
        if (cand.empty())
            continue;
        std::sort(union_planes.begin(), union_planes.end());
        union_planes.erase(std::unique(union_planes.begin(),
                                       union_planes.end()),
                           union_planes.end());
        for (const uint32_t idx : union_planes)
            plan_ns += planIncNs_[idx % (R - 1) + 1];
        // All-or-nothing commit on the merged prices. At one shard
        // this is exactly the classic per-shard comparison. The
        // priced ns that justified the decision ride along on the
        // lead shard's track: arg = plan price, arg2 = replay price.
        const unsigned lead_shard = cand.front().first;
        if (plan_ns >= fallback_ns) {
            if (auto *t = obs::tracer())
                t->instant(
                    "plan.fallback", lead_shard,
                    static_cast<uint64_t>(std::llround(plan_ns)),
                    static_cast<uint64_t>(std::llround(fallback_ns)));
            for (auto &[s, p] : cand)
                p->planned = false;
            continue;
        }
        if (auto *t = obs::tracer())
            t->instant(
                "plan.commit", lead_shard,
                static_cast<uint64_t>(std::llround(plan_ns)),
                static_cast<uint64_t>(std::llround(fallback_ns)));
        // Slice the merged plan back: deterministic plane order
        // (ascending digit, k) per shard; each plane lands in its
        // persistent mask row so its cached program key is stable
        // across epochs. IARM preparation uses each shard's OWN
        // worst profile, so scheduler state — and therefore every
        // ripple — is bit-identical to independent per-shard plans.
        for (auto &[s, p] : cand) {
            std::sort(p->touched.begin(), p->touched.end());
            for (const uint32_t idx : p->touched)
                p->steps.push_back(
                    {static_cast<unsigned>(idx / (R - 1)),
                     static_cast<unsigned>(idx % (R - 1)) + 1,
                     planeHandle(idx), &p->planes[idx],
                     plane_lead[idx] == s});
            shards_[s]->planPrepare(p->steps, g, p->pre, p->post);
        }
        // Gang the scheduled ripples per (digit, occurrence): the
        // first shard needing the j-th ripple of digit d leads it,
        // later shards' j-th occurrences ride its issue slot. Ripple
        // programs depend only on (group, digit), so the command
        // streams are identical across shards.
        const auto gangRipples = [&](const bool post_pass) {
            issued.clear();
            for (auto &[s, p] : cand) {
                (void)s;
                occ.clear();
                for (PlanRipple &r : post_pass ? p->post : p->pre) {
                    const unsigned j = occ[r.digit]++;
                    unsigned &lead = issued[r.digit];
                    if (j < lead) {
                        r.lead = false;
                    } else {
                        r.lead = true;
                        lead = j + 1;
                    }
                }
            }
        };
        gangRipples(false);
        gangRipples(true);
    }
}

void
ShardedEngine::execShardParts(unsigned s)
{
    auto &sc = scratch_[s];
    C2MEngine &eng = *shards_[s];
    // The drain span carries the shard's cumulative modeled fabric
    // clock on both edges, so the fabric-clock track shows how much
    // fabric time this bucket consumed.
    obs::TraceRecorder *tr = obs::tracer();
    if (tr)
        tr->spanBegin("shard.drain", s, eng.stats().fabric.fabricNs);
    for (size_t i = 0; i < sc.partsUsed; ++i) {
        PlanPart &p = sc.parts[i];
        if (p.planned) {
            eng.executePlan(p.steps, p.pre, p.post, p.group,
                            p.ops.size());
        } else {
            // Demoted or ineligible parts replay per-op; with the
            // planner on they count as fallback so plannedOps +
            // planFallbackOps == batched ops holds.
            if (cfg_.drainPlanner)
                eng.notePlanFallback(p.ops.size());
            runShardSerial(s, p.ops);
        }
    }
    if (tr)
        tr->spanEnd("shard.drain", s, eng.stats().fabric.fabricNs);
}

uint64_t
ShardedEngine::runShards(
    std::span<const unsigned> shards,
    const std::function<void(C2MEngine &, unsigned)> &fn)
{
    std::atomic<size_t> next{0};
    std::atomic<uint64_t> steals{0};
    const unsigned lanes = static_cast<unsigned>(
        std::min<size_t>(pool_.size(), shards.size()));
    for (unsigned l = 0; l < lanes; ++l)
        pool_.post(l, [&] {
            const unsigned lane = pool_.currentLane();
            for (;;) {
                const size_t i =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (i >= shards.size())
                    return;
                const unsigned s = shards[i];
                C2M_ASSERT(s < numShards(),
                           "shard index out of range: ", s);
                if (s % pool_.size() != lane)
                    steals.fetch_add(1, std::memory_order_relaxed);
                const ShardGuard guard(shardBusy_[s], s);
                fn(*shards_[s], s);
            }
        });
    pool_.drain();
    return steals.load(std::memory_order_relaxed);
}

uint64_t
ShardedEngine::runEpoch(std::span<const EpochBucket> buckets)
{
    if (buckets.empty())
        return 0;
    std::vector<unsigned> ids;
    ids.reserve(buckets.size());
    std::vector<std::span<const BatchOp>> ops(numShards());
    for (const EpochBucket &b : buckets) {
        ids.push_back(b.shard);
        ops[b.shard] = b.ops;
    }
    // Stage 1+2 — combine + count (host-only, parallel): partition
    // each bucket by group, sum deltas, build plane histograms.
    runShards(ids, [this, &ops](C2MEngine &, unsigned s) {
        prepareShardParts(s, ops[s]);
    });
    // Stage 3 — merged scan/offset + gang leadership (host-serial;
    // no stage-1/4 task in flight, so scratch access is exclusive).
    planParts(ids);
    // Stage 4 — execute the plane slices (parallel). Only this stage
    // counts steals: it is the one doing fabric work.
    return runShards(
        ids, [this](C2MEngine &, unsigned s) { execShardParts(s); });
}

void
ShardedEngine::accumulateBatch(std::span<const BatchOp> ops)
{
    std::vector<std::vector<BatchOp>> buckets(numShards());
    for (const auto &op : ops)
        buckets[shardOf(op.counter)].push_back(op);
    // One epoch through the hierarchical pipeline: cross-shard plane
    // programs gang-issue instead of replicating per shard.
    std::vector<EpochBucket> eb;
    eb.reserve(buckets.size());
    for (unsigned s = 0; s < numShards(); ++s)
        if (!buckets[s].empty())
            eb.push_back({s, buckets[s]});
    runEpoch(eb);
}

void
ShardedEngine::accumulate(uint64_t value, unsigned mask_handle,
                          unsigned group)
{
    C2M_ASSERT(mask_handle < numMasks_, "unknown mask handle ",
               mask_handle);
    runShards(allShards_, [&](C2MEngine &eng, unsigned) {
        eng.accumulate(value, mask_handle + reservedMasks_, group);
    });
}

void
ShardedEngine::accumulateSigned(int64_t value, unsigned mask_handle,
                                unsigned group)
{
    C2M_ASSERT(mask_handle < numMasks_, "unknown mask handle ",
               mask_handle);
    runShards(allShards_, [&](C2MEngine &eng, unsigned) {
        eng.accumulateSigned(value, mask_handle + reservedMasks_,
                             group);
    });
}

std::vector<int64_t>
ShardedEngine::readAllCounters(unsigned group)
{
    std::vector<int64_t> out(cfg_.numCounters);
    runShards(allShards_, [&](C2MEngine &eng, unsigned s) {
        const auto part = eng.readCounters(group);
        std::copy(part.begin(), part.end(),
                  out.begin() + static_cast<ptrdiff_t>(starts_[s]));
    });
    return out;
}

void
ShardedEngine::addCounters(unsigned dst_group, unsigned src_group)
{
    runShards(allShards_, [&](C2MEngine &eng, unsigned) {
        eng.addCounters(dst_group, src_group);
    });
}

void
ShardedEngine::relu(unsigned group)
{
    runShards(allShards_,
              [&](C2MEngine &eng, unsigned) { eng.relu(group); });
}

void
ShardedEngine::shiftLeft(unsigned group, unsigned spare_group,
                         unsigned amount)
{
    runShards(allShards_, [&](C2MEngine &eng, unsigned) {
        eng.shiftLeft(group, spare_group, amount);
    });
}

void
ShardedEngine::drain(unsigned group)
{
    runShards(allShards_,
              [&](C2MEngine &eng, unsigned) { eng.drain(group); });
}

void
ShardedEngine::clear()
{
    runShards(allShards_,
              [](C2MEngine &eng, unsigned) { eng.clear(); });
}

EngineStats
ShardedEngine::stats() const
{
    return statsSince({});
}

EngineStats
ShardedEngine::statsSince(std::span<const EngineStats> begin) const
{
    C2M_ASSERT(begin.empty() || begin.size() == numShards(),
               "stats snapshot has ", begin.size(), " shards, engine ",
               numShards());
    EngineStats merged;
    for (unsigned s = 0; s < numShards(); ++s) {
        EngineStats d = shards_[s]->stats();
        if (!begin.empty())
            d = d - begin[s];
        // One shard is one bank: its critical path is its serial
        // fabric time, which operator+= max-merges across shards.
        d.fabricCriticalNs = d.fabric.fabricNs;
        merged += d;
    }
    // fabric.fabricNs summed across shards is total fabric work; the
    // critical path is when the last shard finishes. DRAM shards
    // additionally share one rank, where tRRD/tFAW bound the
    // aggregate command issue rate no matter how many banks run
    // (Sec. 7.2.1) — take the tighter of the two bounds. NVM
    // crossbars are independent arrays with no rank window, so the
    // per-shard max stands. Ganged follower commands execute inside
    // their leader's issue slots (one ACTIVATE broadcast drives every
    // participating bank), so they do not occupy rank-window slots of
    // their own and leave the floor.
    if (cfg_.backend == BackendKind::Ambit ||
        cfg_.backend == BackendKind::Rca) {
        const double rank_floor =
            static_cast<double>(merged.fabric.commands() -
                                merged.fabric.gangedCommands) *
            cfg_.dramTimings.issueIntervalNs(numShards());
        if (rank_floor > merged.fabricCriticalNs)
            merged.fabricCriticalNs = rank_floor;
    }
    return merged;
}

StatsWindow::StatsWindow(const ShardedEngine &engine)
    : engine_(engine), begin_(engine.numShards())
{
    reopen();
}

StatsWindow
StatsWindow::lifetime(const ShardedEngine &engine)
{
    StatsWindow w(engine);
    std::fill(w.begin_.begin(), w.begin_.end(), EngineStats{});
    return w;
}

void
StatsWindow::reopen()
{
    for (unsigned s = 0; s < engine_.numShards(); ++s)
        begin_[s] = engine_.shard(s).stats();
}

Histogram
countersToHistogram(ShardedEngine &engine, int64_t lo, int64_t hi,
                    unsigned group)
{
    const auto counts = engine.readAllCounters(group);
    return countersToHistogram(counts, lo, hi);
}

std::vector<int64_t>
replaySerial(const EngineConfig &cfg, std::span<const BatchOp> ops,
             unsigned group)
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

Histogram
countersToHistogram(std::span<const int64_t> counters, int64_t lo,
                    int64_t hi)
{
    Histogram h(lo, hi);
    for (size_t i = 0; i < counters.size(); ++i)
        if (counters[i] > 0)
            h.add(static_cast<int64_t>(i),
                  static_cast<uint64_t>(counters[i]));
    return h;
}

} // namespace core
} // namespace c2m
