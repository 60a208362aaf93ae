#ifndef C2M_UPROG_PROGCACHE_HPP
#define C2M_UPROG_PROGCACHE_HPP

/**
 * @file
 * Per-backend muProgram cache.
 *
 * A counting program is a fixed command sequence for one step, as in
 * the paper's muPrograms (Sec. 5.1): a pure function of (operation,
 * physical group, digit, step k) for a fixed layout and protection
 * configuration — or, for the ripple-carry baseline's W-bit adds, of
 * (physical group, addend), so a planned digit-plane add and a
 * whole-value add of the same addend share one entry. The mask is
 * not part of the program: generators emit the cim::kMaskRow
 * operand, and the backend binds it to the caller's mask row when
 * the program runs. Each backend generates a program once and
 * replays it under every mask.
 *
 * The cache is bounded by construction: the key space is
 * |ops| x groups x digits x radix (plus the distinct RCA addends),
 * independent of how many mask rows the engine holds. Broadcast
 * work over thousands of masks (a GEMV's rows of Z) and the drain
 * planner's per-epoch digit planes, which all go through one plane
 * mask row per shard, replay the same entries. Gang-issued plan
 * slices execute the same shard-local programs in every shard
 * (shards differ only in column count), so merging plans across
 * shards never introduces new keys.
 */

#include <cstdint>
#include <unordered_map>
#include <utility>

namespace c2m {
namespace uprog {

struct ProgramKey
{
    enum class Op : uint8_t
    {
        Increment,
        Decrement,
        CarryRipple,
        BorrowRipple,
        Add, ///< RCA masked W-bit add (digit = k = 0)
    };

    Op op = Op::Increment;
    uint32_t phys = 0;   ///< physical counter group
    uint16_t digit = 0;
    uint16_t k = 0;      ///< step (0 for ripples)
    uint64_t addend = 0; ///< W-bit addend (Op::Add only)

    bool operator==(const ProgramKey &o) const
    {
        return op == o.op && phys == o.phys && digit == o.digit &&
               k == o.k && addend == o.addend;
    }
};

struct ProgramKeyHash
{
    size_t operator()(const ProgramKey &key) const
    {
        // splitmix64 finalizer over the packed key fields.
        uint64_t x = (static_cast<uint64_t>(key.op) << 56) ^
                     (static_cast<uint64_t>(key.phys) << 36) ^
                     (static_cast<uint64_t>(key.digit) << 24) ^
                     (static_cast<uint64_t>(key.k) << 32) ^
                     key.addend * 0x9e3779b97f4a7c15ULL;
        x ^= x >> 30;
        x *= 0xbf58476d1ce4e5b9ULL;
        x ^= x >> 27;
        x *= 0x94d049bb133111ebULL;
        x ^= x >> 31;
        return static_cast<size_t>(x);
    }
};

/**
 * Cache of generated programs keyed by ProgramKey. @p hits/@p misses
 * reference the owning engine's EngineStats counters so shard merges
 * see cache effectiveness without extra plumbing. Replayed programs
 * are bit-identical to regeneration (pinned by running an op stream
 * on a cold cache and again, after the engine's counters are
 * cleared, on the warm one). Entries live as long as the backend.
 */
template <typename Program> class ProgramCache
{
  public:
    ProgramCache(uint64_t &hits, uint64_t &misses)
        : hits_(hits), misses_(misses)
    {
    }

    template <typename Build>
    const Program &get(const ProgramKey &key, Build &&build)
    {
        auto it = map_.find(key);
        if (it != map_.end()) {
            ++hits_;
            return it->second;
        }
        ++misses_;
        return map_.emplace(key, build()).first->second;
    }

    size_t size() const { return map_.size(); }

  private:
    uint64_t &hits_;
    uint64_t &misses_;
    std::unordered_map<ProgramKey, Program, ProgramKeyHash> map_;
};

} // namespace uprog
} // namespace c2m

#endif // C2M_UPROG_PROGCACHE_HPP
