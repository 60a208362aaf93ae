#ifndef C2M_UPROG_CODEGEN_AMBIT_HPP
#define C2M_UPROG_CODEGEN_AMBIT_HPP

/**
 * @file
 * muProgram generators for Ambit-style DRAM CIM (Sec. 4, Sec. 6).
 *
 * Produces the AAP/AP command sequences that realize masked k-ary
 * Johnson-counter increments/decrements (Alg. 1, Fig. 6b), overflow
 * detection, deferred carry rippling, and the ECC-protected variants
 * of Fig. 13a. Generated programs are verified bit-exactly against
 * the jc:: golden model by the test suite.
 *
 * Cost note (documented in DESIGN.md): under a strictly destructive
 * triple-row-activation model every masked bit-row update costs 8 AAPs
 * (plain source) or 10 AAPs (complemented source) versus the paper's
 * 7; constant re-initializations that the paper's listing elides are
 * required because TRA write-back clobbers the DCC constants. All
 * benches report the exact op counts these generators emit, alongside
 * the paper's 7n+7 / 13n+16 formulas.
 */

#include <cstdint>

#include "cim/rowaddr.hpp"
#include "jc/layout.hpp"
#include "uprog/microop.hpp"

namespace c2m {
namespace uprog {

struct CodegenOptions
{
    /** Emit the ECC-protected (XOR-embedded) masked updates. */
    bool protect = false;

    /**
     * FR computations per protected masking step (1..3). The paper's
     * Tab. 1 "FR checks" column counts both masking steps of a bit
     * update, i.e. Tab. 1's {2, 4, 6} correspond to frChecks {1, 2, 3}.
     */
    unsigned frChecks = 1;
};

class AmbitCodegen
{
  public:
    explicit AmbitCodegen(jc::CounterLayout layout,
                          CodegenOptions opts = {});

    const jc::CounterLayout &layout() const { return layout_; }
    const CodegenOptions &options() const { return opts_; }

    /**
     * Masked k-ary increment of digit @p digit by @p k (1..2n-1);
     * counters whose bit in the mask row is 0 are unchanged. Wraps
     * are OR-ed into the digit's Onext row (Alg. 1). The mask is the
     * cim::kMaskRow operand, bound when the program runs.
     */
    CheckedProgram karyIncrement(unsigned digit, unsigned k) const
    {
        return increment(digit, k, cim::kMaskRow);
    }

    /** Masked k-ary decrement; borrows are OR-ed into Onext. */
    CheckedProgram karyDecrement(unsigned digit, unsigned k) const
    {
        return decrement(digit, k, cim::kMaskRow);
    }

    /**
     * Deferred carry ripple (Sec. 4.5.2): unit-increment digit+1
     * masked by Onext(digit), then clear Onext(digit).
     */
    CheckedProgram carryRipple(unsigned digit) const;

    /**
     * Borrow ripple for decrements: unit-decrement digit+1 masked by
     * Onext(digit) (pending borrow), then clear. At the top digit the
     * pending borrow is folded into Osign instead.
     */
    CheckedProgram borrowRipple(unsigned digit) const;

    /** Zero every counter row (bits, Onext, Osign). */
    cim::AmbitProgram clearCounters() const;

    // ---- Generic row-level logic (also used by tensor ops) ----

    static void emitCopy(cim::AmbitProgram &p, unsigned src,
                         unsigned dst);
    static void emitNot(cim::AmbitProgram &p, unsigned src,
                        unsigned dst);
    static void emitOr(cim::AmbitProgram &p, unsigned a, unsigned b,
                       unsigned dst);
    static void emitAnd(cim::AmbitProgram &p, unsigned a, unsigned b,
                        unsigned dst);
    /** dst = a AND NOT b. */
    static void emitAndNot(cim::AmbitProgram &p, unsigned a,
                           unsigned b, unsigned dst);

    // ---- Paper cost formulas (for comparison tables) ----

    /** Unprotected masked increment: 7n+7 (Sec. 4.5.1). */
    static uint64_t paperIncrementOps(unsigned n)
    {
        return 7ULL * n + 7;
    }

    /** Protected increments (Tab. 1): 13n+16 / 23n+26 / 33n+36. */
    static uint64_t paperProtectedOps(unsigned n,
                                      unsigned fr_checks_total)
    {
        const uint64_t extra = 5ULL * (fr_checks_total - 2);
        return (13 + extra) * n + (16 + extra);
    }

  private:
    /**
     * dst = (dst AND NOT m) OR ((src XOR src_neg) AND m), the masked
     * bit-row update of Sec. 4.2, dispatched to the plain, negated, or
     * protected emitters.
     */
    void emitMaskedUpdate(CheckedProgram &cp, unsigned dst_row,
                          unsigned src_row, bool src_neg,
                          unsigned mask_row) const;

    void emitMaskedUpdatePlain(cim::AmbitProgram &p, unsigned dst_row,
                               unsigned src_row,
                               unsigned mask_row) const;
    void emitMaskedUpdateNegated(cim::AmbitProgram &p,
                                 unsigned dst_row, unsigned src_row,
                                 unsigned mask_row) const;
    void emitProtectedMaskedUpdate(CheckedProgram &cp,
                                   unsigned dst_row, unsigned src_row,
                                   bool src_neg,
                                   unsigned mask_row) const;

    /**
     * Overflow/underflow detection into Onext (Alg. 1 lines 6/13).
     * @p auto_masked: the predicate is identically 0 for masked-out
     * counters (no explicit AND with the mask needed).
     */
    void emitWrapDetect(cim::AmbitProgram &p, unsigned old_msb_row,
                        unsigned new_msb_row, unsigned onext_row,
                        unsigned mask_row, bool or_form) const;

    /** Shared body of increment/decrement (shift by eff_k). */
    CheckedProgram shiftedUpdate(unsigned digit, unsigned eff_k,
                                 unsigned mask_row) const;

    /**
     * karyIncrement/karyDecrement under mask row @p mask_row: the
     * sentinel for counting steps, Onext(digit-1) for ripples.
     */
    CheckedProgram increment(unsigned digit, unsigned k,
                             unsigned mask_row) const;
    CheckedProgram decrement(unsigned digit, unsigned k,
                             unsigned mask_row) const;

    jc::CounterLayout layout_;
    CodegenOptions opts_;
};

} // namespace uprog
} // namespace c2m

#endif // C2M_UPROG_CODEGEN_AMBIT_HPP
