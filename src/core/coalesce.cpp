#include "core/coalesce.hpp"

#include <algorithm>
#include <cstring>

namespace c2m {
namespace core {

namespace {

/** splitmix64 finalizer: full-avalanche mix of the (counter, group)
    key so linear probing sees a uniform distribution even for the
    sequential-counter streams benches produce. */
inline uint64_t
mixKey(uint64_t counter, uint32_t group)
{
    uint64_t z = counter ^ (static_cast<uint64_t>(group) << 32);
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

void
coalesceOps(std::span<const BatchOp> ops, CoalesceScratch &sc,
            CoalesceResult &out)
{
    out.ops.clear();
    out.merged = 0;
    if (ops.empty())
        return;
    // Keep load factor <= 0.5 so probe chains stay short; the table
    // only ever grows, so a steady stream of same-sized epochs never
    // reallocates.
    size_t want = 16;
    while (want < ops.size() * 2)
        want <<= 1;
    if (sc.counters.size() < want) {
        sc.counters.resize(want);
        sc.groups.resize(want);
        sc.slots.resize(want);
        sc.stamps.assign(want, 0);
        sc.epoch = 0;
        sc.mask = want - 1;
    }
    // Epoch-stamp clear: one increment invalidates every slot. On
    // the (2^32 calls) wrap the stamps are wiped for real so stale
    // slots from a previous cycle cannot alias as live.
    if (++sc.epoch == 0) {
        std::fill(sc.stamps.begin(), sc.stamps.end(), 0u);
        sc.epoch = 1;
    }
    out.ops.reserve(ops.size());
    for (const auto &op : ops) {
        size_t i = mixKey(op.counter, op.group) & sc.mask;
        for (;;) {
            if (sc.stamps[i] != sc.epoch) {
                sc.stamps[i] = sc.epoch;
                sc.counters[i] = op.counter;
                sc.groups[i] = op.group;
                sc.slots[i] =
                    static_cast<uint32_t>(out.ops.size());
                out.ops.push_back(op);
                break;
            }
            if (sc.counters[i] == op.counter &&
                sc.groups[i] == op.group) {
                out.ops[sc.slots[i]].value += op.value;
                ++out.merged;
                break;
            }
            i = (i + 1) & sc.mask;
        }
    }
    // Elide counters whose deltas cancelled, keeping order stable.
    size_t kept = 0;
    for (size_t i = 0; i < out.ops.size(); ++i) {
        if (out.ops[i].value == 0) {
            ++out.merged;
            continue;
        }
        out.ops[kept++] = out.ops[i];
    }
    out.ops.resize(kept);
}

} // namespace core
} // namespace c2m
