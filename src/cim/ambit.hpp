#ifndef C2M_CIM_AMBIT_HPP
#define C2M_CIM_AMBIT_HPP

/**
 * @file
 * Functional, bit-accurate interpreter for the Ambit command set.
 *
 * An AmbitSubarray holds the D-group rows (data), the B-group compute
 * rows (T0..T3, DCC0/1) and executes AAP/AP command sequences exactly
 * as multi-row activation would: a triple activation senses MAJ3 on
 * every bitline and destructively overwrites all three activated rows
 * with the (possibly faulted) sensed value; an AAP then overdrives the
 * destination rows with that value, complementing through negative
 * DCC ports.
 *
 * Fault injection: each triple activation flips each result bit
 * independently with FaultModel::pMaj; copies use pCopy. Host-level
 * row reads/writes (memory-controller RD/WR) are reliable and tracked
 * separately in OpStats.
 *
 * Hot-path contract: executing a micro-op performs zero heap
 * allocations in steady state. All intermediate row values (the
 * sensed bitline image, DCC negations, the MAJ3 fault-disagreement
 * masks) live in member scratch BitVectors sized once at
 * construction; bench/micro_kernels carries an allocation-counting
 * probe that gates on this staying true.
 */

#include <cstdint>
#include <vector>

#include "cim/cost.hpp"
#include "cim/fault.hpp"
#include "cim/rowaddr.hpp"
#include "common/bitvec.hpp"
#include "common/rng.hpp"

namespace c2m {
namespace cim {

class AmbitSubarray
{
  public:
    AmbitSubarray(size_t num_rows, size_t num_cols,
                  FaultModel fault = FaultModel::reliable(),
                  uint64_t seed = 1);

    size_t numRows() const { return dataRows_.size(); }
    size_t numCols() const { return numCols_; }

    // ---- Host (memory controller) access: reliable RD/WR ----

    /** Read a D-group row (counts as a row read). */
    const BitVector &hostReadRow(size_t r);

    /** Overwrite a D-group row (counts as a row write). */
    void hostWriteRow(size_t r, const BitVector &v);

    /** Direct peek without touching access stats (tests/debug). */
    const BitVector &peekRow(size_t r) const;
    BitVector &rawRow(size_t r);

    /** Compute-row peeks for white-box tests. */
    const BitVector &peekT(unsigned i) const;
    const BitVector &peekDcc(unsigned i) const;
    void pokeT(unsigned i, const BitVector &v);
    void pokeDcc(unsigned i, const BitVector &v);

    // ---- Command execution ----

    void execute(const AmbitOp &op);
    /**
     * Execute @p prog with its kMaskRow operands bound to data row
     * @p mask_row for the duration of the run (unbound by default).
     */
    void run(const AmbitProgram &prog, uint32_t mask_row = kMaskRow);

    OpStats &stats() { return stats_; }
    const OpStats &stats() const { return stats_; }
    FaultModel &fault() { return fault_; }
    Rng &rng() { return rng_; }

    /**
     * Install per-command fabric costs; every AAP/AP/row access from
     * here on charges OpStats::fabricNs/fabricNj at its issue point.
     * Defaults to all-zero (pure command counting).
     */
    void setCosts(const CommandCosts &c) { costs_ = c; }
    const CommandCosts &costs() const { return costs_; }

  private:
    /**
     * Storage cell behind a row reference (not C0/C1); kMaskRow
     * resolves to the bound mask row.
     */
    BitVector &cell(const RowRef &ref);

    /**
     * Sense the activation set onto the bitlines: single rows read
     * (negated through DCC negative ports), triples compute MAJ3 with
     * fault injection and destructive writeback. The returned
     * reference points at the senseV_ scratch row and stays valid
     * until the next resolveRead.
     */
    const BitVector &resolveRead(const RowSet &set,
                                 bool is_copy_source);

    /** Drive @p v into every row of @p set (write phase of AAP). */
    void writeSet(const RowSet &set, const BitVector &v);

    size_t numCols_;
    std::vector<BitVector> dataRows_;
    BitVector tRegs_[4];
    BitVector dccRegs_[2];
    BitVector zeros_;
    BitVector ones_;
    /** Sensed bitline image of the current activation (scratch). */
    BitVector senseV_;
    /** Per-activation-slot DCC negation scratch (up to 3 sources). */
    BitVector negBuf_[3];
    /** MAJ3 fault-injection scratch: flips and disagreement mask. */
    BitVector flipsBuf_;
    BitVector andBuf_;
    BitVector orBuf_;
    FaultModel fault_;
    OpStats stats_;
    CommandCosts costs_;
    Rng rng_;
    /** Row kMaskRow resolves to while run() executes a program. */
    uint32_t boundMask_ = kMaskRow;
};

} // namespace cim
} // namespace c2m

#endif // C2M_CIM_AMBIT_HPP
