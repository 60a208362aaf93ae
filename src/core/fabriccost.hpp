#ifndef C2M_CORE_FABRICCOST_HPP
#define C2M_CORE_FABRICCOST_HPP

/**
 * @file
 * DRAM command pricing for the fabric-time accounting spine.
 *
 * The substrates charge cim::OpStats at each command issue point
 * (cim/cost.hpp); EngineStats::fabric is that OpStats, summed across
 * shards, next to the bank-parallel EngineStats::fabricCriticalNs.
 * This header turns a DramTimings/EnergyModel pair into the
 * per-command costs the DRAM-fabric backends install.
 */

#include <cstdint>

#include "cim/cost.hpp"
#include "dram/energy.hpp"
#include "dram/timing.hpp"

namespace c2m {
namespace core {

/**
 * Per-command costs of a DRAM CIM substrate under the given timing
 * and energy parameter sets. AAP and AP both occupy their bank for
 * one bankPeriodNs (activation-dominated; the extra activate of the
 * AAP hides under tRAS); host row accesses stream @p num_cols bits
 * through the channel.
 */
inline cim::CommandCosts
dramCommandCosts(const dram::DramTimings &t,
                 const dram::EnergyModel &e, size_t num_cols)
{
    const unsigned row_bytes =
        static_cast<unsigned>((num_cols + 7) / 8);
    cim::CommandCosts c;
    c.aapNs = t.bankPeriodNs();
    c.apNs = t.bankPeriodNs();
    c.rowReadNs = t.rowAccessNs(row_bytes);
    c.rowWriteNs = t.rowAccessNs(row_bytes);
    c.aapNj = e.aapEnergyNj();
    c.apNj = e.apEnergyNj();
    c.rowReadNj = e.rowAccessEnergyNj(row_bytes);
    c.rowWriteNj = e.rowAccessEnergyNj(row_bytes);
    return c;
}

} // namespace core
} // namespace c2m

#endif // C2M_CORE_FABRICCOST_HPP
