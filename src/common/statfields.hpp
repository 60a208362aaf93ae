#ifndef C2M_COMMON_STATFIELDS_HPP
#define C2M_COMMON_STATFIELDS_HPP

/**
 * @file
 * Statistics structs defined by one field table.
 *
 * A stats struct names each field exactly once, as a row of an
 * X-macro table X(type, member, counter name, merge rule):
 *
 *   #define C2M_FOO_STATS_FIELDS(X)                       \
 *       X(uint64_t, widgets, "foo.widgets", Sum)          \
 *       X(double, peakNs, "foo.peak_ns", Max)
 *
 *   struct FooStats
 *   {
 *       C2M_STATS_FIELDS(C2M_FOO_STATS_FIELDS)
 *       C2M_STATS_OPS(FooStats, C2M_FOO_STATS_FIELDS)
 *   };
 *
 * C2M_STATS_FIELDS declares the members in table order, so the struct
 * stays an aggregate brace-initializable in that order. C2M_STATS_OPS
 * generates, from the same rows:
 *  - operator+=: the merge of parallel contributors (Sum adds, Max
 *    keeps the larger);
 *  - operator-: the delta between two snapshots of ONE contributor,
 *    later minus earlier. Every row subtracts, Max rows included: a
 *    single contributor's max-merged value is its own running total.
 *    Max rows of a merged view do not subtract meaningfully; recompute
 *    them from per-contributor deltas (core::StatsWindow does this for
 *    the critical path);
 *  - toCounters(): one named counter per row; doubles round to whole
 *    units. A row whose type is itself a stats struct contributes
 *    that struct's appendCounters(out, prefix) under the row's name.
 *
 * Adding a field is one table row; no hand-written merge, delta or
 * counter list exists that could drop it.
 */

#include <cmath>
#include <cstdint>
#include <string>

#include "common/stats.hpp"

namespace c2m {
namespace stats {

/** How a field combines across parallel contributors. */
enum class Merge : uint8_t
{
    Sum, ///< totals add
    Max, ///< overlapping contributors: the larger wins
};

template <Merge Rule, typename T>
void
merge(T &into, const T &from)
{
    if constexpr (Rule == Merge::Max) {
        if (from > into)
            into = from;
    } else {
        into += from;
    }
}

inline void
addCounter(CounterMap &out, const std::string &name, uint64_t v)
{
    out[name] = v;
}

inline void
addCounter(CounterMap &out, const std::string &name, double v)
{
    out[name] = static_cast<uint64_t>(std::llround(v));
}

/** Nested stats struct: its counters, prefixed with @p name. */
template <typename S>
auto
addCounter(CounterMap &out, const std::string &name, const S &nested)
    -> decltype(nested.appendCounters(out, name))
{
    nested.appendCounters(out, name);
}

} // namespace stats
} // namespace c2m

// Row expanders, one per generated piece.
#define C2M_STATS_DECLARE_(type, member, name, rule) type member{};
#define C2M_STATS_MERGE_(type, member, name, rule)                    \
    ::c2m::stats::merge<::c2m::stats::Merge::rule>(member, o.member);
#define C2M_STATS_DELTA_(type, member, name, rule)                    \
    d.member = member - o.member;
#define C2M_STATS_COUNTER_(type, member, name, rule)                  \
    ::c2m::stats::addCounter(out, name, member);

/** Member declarations of @p TABLE, in table order. */
#define C2M_STATS_FIELDS(TABLE) TABLE(C2M_STATS_DECLARE_)

/** operator+=, operator- and toCounters() of @p TABLE's rows. */
#define C2M_STATS_OPS(Self, TABLE)                                    \
    Self &operator+=(const Self &o)                                   \
    {                                                                 \
        TABLE(C2M_STATS_MERGE_)                                       \
        return *this;                                                 \
    }                                                                 \
    Self operator-(const Self &o) const                               \
    {                                                                 \
        Self d;                                                       \
        TABLE(C2M_STATS_DELTA_)                                       \
        return d;                                                     \
    }                                                                 \
    ::c2m::CounterMap toCounters() const                              \
    {                                                                 \
        ::c2m::CounterMap out;                                        \
        TABLE(C2M_STATS_COUNTER_)                                     \
        return out;                                                   \
    }

#endif // C2M_COMMON_STATFIELDS_HPP
