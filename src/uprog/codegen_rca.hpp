#ifndef C2M_UPROG_CODEGEN_RCA_HPP
#define C2M_UPROG_CODEGEN_RCA_HPP

/**
 * @file
 * Bit-serial ripple-carry adder muPrograms (the SIMDRAM-style
 * baseline, Sec. 3 / Sec. 7.1).
 *
 * The accumulator is stored vertically (bit b of element j in row
 * base+b, column j). A masked accumulation adds a broadcast constant
 * x to every element whose mask bit is 1 by rippling a MAJ3-based
 * full adder through all W bit positions:
 *
 *   c_out = MAJ(a, x_b, c_in)
 *   sum   = MAJ(NOT c_out, c_in, MAJ(a, x_b, NOT c_in))
 *
 * where the addend row for bit b is the mask row itself when bit b of
 * x is 1 and the constant-zero row otherwise (masking for free).
 * This is the paper's point of comparison: the cost is proportional
 * to the full accumulator width W regardless of how small x is.
 */

#include <cstdint>

#include "cim/rowaddr.hpp"
#include "uprog/microop.hpp"

namespace c2m {
namespace uprog {

/** Row layout of one vertical W-bit accumulator group. */
struct RcaLayout
{
    unsigned width = 32;   ///< accumulator bits W
    unsigned baseRow = 0;

    unsigned bitRow(unsigned b) const { return baseRow + b; }
    unsigned carryRow(unsigned parity) const
    {
        return baseRow + width + (parity & 1);
    }
    /** Scratch rows for the protected (duplicate-compute) variant. */
    unsigned carry2Row() const { return baseRow + width + 2; }
    unsigned tRow() const { return baseRow + width + 3; }
    unsigned t2Row() const { return baseRow + width + 4; }
    unsigned sum1Row() const { return baseRow + width + 5; }
    unsigned sum2Row() const { return baseRow + width + 6; }

    unsigned totalRows() const { return width + 7; }
    unsigned endRow() const { return baseRow + totalRows(); }
};

class RcaCodegen
{
  public:
    struct Options
    {
        /** Duplicate-compute-and-compare protection per MAJ3 step. */
        bool protect = false;
    };

    explicit RcaCodegen(RcaLayout layout)
        : RcaCodegen(layout, Options())
    {
    }

    RcaCodegen(RcaLayout layout, Options opts);

    const RcaLayout &layout() const { return layout_; }

    /**
     * acc[j] += addend for every column j with mask bit 1 (modulo
     * 2^width). Ripples through all width bits. The mask is the
     * cim::kMaskRow operand, bound when the program runs.
     */
    CheckedProgram maskedAccumulate(uint64_t addend) const;

    /** Zero the accumulator and carry rows. */
    cim::AmbitProgram clearAccumulators() const;

    /** Unprotected AAP cost of one full-adder bit slice. */
    static constexpr uint64_t kOpsPerBit = 11;

  private:
    void emitFullAdder(CheckedProgram &cp, unsigned bit,
                       bool addend_bit, unsigned carry_parity) const;

    RcaLayout layout_;
    Options opts_;
};

} // namespace uprog
} // namespace c2m

#endif // C2M_UPROG_CODEGEN_RCA_HPP
