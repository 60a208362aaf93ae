#include "uprog/codegen_ambit.hpp"

#include "common/logging.hpp"

namespace c2m {
namespace uprog {

using cim::AmbitProgram;
using cim::RowRef;
using cim::RowSet;

namespace {

RowRef
d(unsigned row)
{
    return RowRef::data(row);
}

} // namespace

AmbitCodegen::AmbitCodegen(jc::CounterLayout layout, CodegenOptions opts)
    : layout_(layout), opts_(opts)
{
    C2M_ASSERT(opts_.frChecks >= 1 && opts_.frChecks <= 3,
               "frChecks must be 1..3");
}

// ---------------------------------------------------------------------
// Generic row logic
// ---------------------------------------------------------------------

void
AmbitCodegen::emitCopy(AmbitProgram &p, unsigned src, unsigned dst)
{
    p.aap(d(src), d(dst));
}

void
AmbitCodegen::emitNot(AmbitProgram &p, unsigned src, unsigned dst)
{
    p.aap(d(src), RowRef::dccNeg(0)); // cell0 <- ~src
    p.aap(RowRef::dcc(0), d(dst));    // dst  <- cell0
}

void
AmbitCodegen::emitOr(AmbitProgram &p, unsigned a, unsigned b,
                     unsigned dst)
{
    p.aap(d(a), RowRef::t(0));
    p.aap(d(b), RowRef::t(2));
    p.aap(RowRef::c1(), RowRef::t(1));
    p.aap(RowSet::b12(), d(dst));
}

void
AmbitCodegen::emitAnd(AmbitProgram &p, unsigned a, unsigned b,
                      unsigned dst)
{
    p.aap(d(a), RowRef::t(0));
    p.aap(d(b), RowRef::t(2));
    p.aap(RowRef::c0(), RowRef::t(1));
    p.aap(RowSet::b12(), d(dst));
}

void
AmbitCodegen::emitAndNot(AmbitProgram &p, unsigned a, unsigned b,
                         unsigned dst)
{
    p.aap(d(b), RowRef::dccNeg(0)); // cell0 <- ~b
    p.aap(d(a), RowRef::t(2));
    p.aap(RowRef::c0(), RowRef::t(1));
    p.aap(RowSet{RowRef::t(2), RowRef::dcc(0), RowRef::t(1)}, d(dst));
}

// ---------------------------------------------------------------------
// Masked bit-row updates
// ---------------------------------------------------------------------

void
AmbitCodegen::emitMaskedUpdatePlain(AmbitProgram &p, unsigned dst_row,
                                    unsigned src_row,
                                    unsigned mask_row) const
{
    // dst = (src AND m) OR (dst AND ~m), Fig. 6b style, 8 commands.
    p.aap(d(mask_row), RowSet::b8());       // T0=m, cell0=~m
    p.aap(RowRef::c0(), RowSet::b9());      // T1=0, cell1=1
    p.aap(d(src_row), RowRef::t(2));        // T2=src
    p.ap(RowSet::b12());                    // r1 = m AND src
    p.aap(d(dst_row), RowRef::t(2));        // T2=dst
    p.aap(RowSet::b14(), RowRef::t(1));     // r2 = dst AND ~m -> T1
    p.aap(RowRef::c1(), RowRef::t(2));      // T2=1
    p.aap(RowSet::b12(), d(dst_row));       // dst = r1 OR r2
}

void
AmbitCodegen::emitMaskedUpdateNegated(AmbitProgram &p,
                                      unsigned dst_row,
                                      unsigned src_row,
                                      unsigned mask_row) const
{
    // dst = (~src AND m) OR (dst AND ~m), 10 commands.
    p.aap(d(src_row), RowRef::dccNeg(0));   // cell0=~src
    p.aap(d(mask_row), RowRef::t(2));       // T2=m
    p.aap(RowRef::c0(), RowSet::b9());      // T1=0, cell1=1
    p.ap(RowSet{RowRef::t(2), RowRef::dcc(0), RowRef::t(1)});
                                            // r1 = m AND ~src
    p.aap(RowRef::t(2), RowRef::t(0));      // T0=r1
    p.aap(d(mask_row), RowRef::dccNeg(0));  // cell0=~m
    p.aap(d(dst_row), RowRef::t(2));        // T2=dst
    p.aap(RowSet{RowRef::t(2), RowRef::dcc(0), RowRef::dccNeg(1)},
          RowRef::t(1));                    // r2 = dst AND ~m -> T1
    p.aap(RowRef::c1(), RowRef::t(2));      // T2=1
    p.aap(RowSet::b12(), d(dst_row));       // dst = r1 OR r2
}

void
AmbitCodegen::emitProtectedMaskedUpdate(CheckedProgram &cp,
                                        unsigned dst_row,
                                        unsigned src_row, bool src_neg,
                                        unsigned mask_row) const
{
    const unsigned t2r = layout_.t2Row();
    const unsigned ir1r = layout_.ir1Row();
    const unsigned ir2r = layout_.ir2Row();
    const unsigned fr_rows[3] = {layout_.frRow(), layout_.scratchRow(0),
                                 layout_.scratchRow(1)};

    // Emit c FR syntheses FR_j = ir1 AND NOT ir2 from stored IR rows.
    auto emit_frs = [&](AmbitProgram &p, unsigned ir2_row) {
        for (unsigned j = 0; j < opts_.frChecks; ++j) {
            p.aap(d(ir2_row), RowRef::dccNeg(0)); // cell0=~ir2
            p.aap(d(ir1r), RowRef::t(2));         // T2=ir1
            p.aap(RowRef::c0(), RowRef::t(1));    // T1=0
            p.aap(RowSet{RowRef::t(2), RowRef::dcc(0), RowRef::t(1)},
                  d(fr_rows[j]));                 // FR_j
        }
    };

    auto add_checks = [&](Block &blk, unsigned row_a, bool a_neg,
                          unsigned row_b, bool b_neg) {
        for (unsigned j = 0; j < opts_.frChecks; ++j)
            blk.checks.push_back(FrCheck::xorOf(fr_rows[j], row_a,
                                                a_neg, row_b, b_neg));
    };

    // ---- Block A: ir2a = (src or ~src) AND m -> t2 row, checked ----
    {
        Block blk;
        AmbitProgram &p = blk.prog;
        if (!src_neg) {
            p.aap(d(mask_row), RowSet::b8());    // T0=m
            p.aap(RowRef::c0(), RowRef::t(1));   // T1=0
            p.aap(d(src_row), RowRef::t(2));     // T2=src
            p.aap(RowSet::b12(), d(t2r));        // ir2a = m AND src
            p.aap(d(mask_row), RowRef::t(0));    // T0=m
            p.aap(d(src_row), RowRef::t(2));     // T2=src
            p.aap(RowRef::c1(), RowRef::t(1));   // T1=1
            p.aap(RowSet::b12(), d(ir1r));       // ir1a = m OR src
        } else {
            p.aap(d(src_row), RowRef::dccNeg(0)); // cell0=~src
            p.aap(d(mask_row), RowRef::t(2));     // T2=m
            p.aap(RowRef::c0(), RowRef::t(1));    // T1=0
            p.aap(RowSet{RowRef::t(2), RowRef::dcc(0), RowRef::t(1)},
                  d(t2r));                        // ir2a = m AND ~src
            p.aap(d(src_row), RowRef::dccNeg(0)); // cell0=~src again
            p.aap(d(mask_row), RowRef::t(2));     // T2=m
            p.aap(RowRef::c1(), RowRef::t(1));    // T1=1
            p.aap(RowSet{RowRef::t(2), RowRef::dcc(0), RowRef::t(1)},
                  d(ir1r));                       // ir1a = m OR ~src
        }
        emit_frs(p, t2r);
        add_checks(blk, src_row, src_neg, mask_row, false);
        cp.appendBlock(std::move(blk));
    }

    // ---- Block B: ir2b = dst AND ~m -> ir2 row, checked ----
    {
        Block blk;
        AmbitProgram &p = blk.prog;
        p.aap(d(mask_row), RowRef::dccNeg(0));   // cell0=~m
        p.aap(d(dst_row), RowRef::t(2));         // T2=dst
        p.aap(RowRef::c0(), RowRef::t(1));       // T1=0
        p.aap(RowSet{RowRef::t(2), RowRef::dcc(0), RowRef::t(1)},
              d(ir2r));                          // ir2b = dst AND ~m
        p.aap(d(mask_row), RowRef::dccNeg(0));   // cell0=~m again
        p.aap(d(dst_row), RowRef::t(2));         // T2=dst
        p.aap(RowRef::c1(), RowRef::t(1));       // T1=1
        p.aap(RowSet{RowRef::t(2), RowRef::dcc(0), RowRef::t(1)},
              d(ir1r));                          // ir1b = dst OR ~m
        emit_frs(p, ir2r);
        add_checks(blk, dst_row, false, mask_row, true);
        cp.appendBlock(std::move(blk));
    }

    // ---- Commit: dst = t2 OR ir2 (mutually exclusive => XOR) ----
    if (opts_.frChecks >= 2) {
        // Higher-protection configurations also guard the committing
        // OR by duplicate computation; the retry re-reads t2/ir2,
        // which the commit never overwrites.
        Block blk;
        emitOr(blk.prog, t2r, ir2r, dst_row);
        emitOr(blk.prog, t2r, ir2r, fr_rows[0]);
        blk.checks.push_back(FrCheck::equalRows(dst_row, fr_rows[0]));
        cp.appendBlock(std::move(blk));
    } else {
        AmbitProgram p;
        emitOr(p, t2r, ir2r, dst_row);
        cp.appendUnchecked(p);
    }
}

void
AmbitCodegen::emitMaskedUpdate(CheckedProgram &cp, unsigned dst_row,
                               unsigned src_row, bool src_neg,
                               unsigned mask_row) const
{
    if (opts_.protect) {
        emitProtectedMaskedUpdate(cp, dst_row, src_row, src_neg,
                                  mask_row);
        return;
    }
    AmbitProgram p;
    if (src_neg)
        emitMaskedUpdateNegated(p, dst_row, src_row, mask_row);
    else
        emitMaskedUpdatePlain(p, dst_row, src_row, mask_row);
    cp.appendUnchecked(p);
}

// ---------------------------------------------------------------------
// Overflow / underflow detection
// ---------------------------------------------------------------------

void
AmbitCodegen::emitWrapDetect(AmbitProgram &p, unsigned old_msb_row,
                             unsigned new_msb_row, unsigned onext_row,
                             unsigned mask_row, bool or_form) const
{
    if (!or_form) {
        // w = old AND NOT new; identically 0 for masked-out counters.
        p.aap(d(new_msb_row), RowRef::dccNeg(0)); // cell0=~new
        p.aap(d(old_msb_row), RowRef::t(2));      // T2=old
        p.aap(RowRef::c0(), RowRef::t(1));        // T1=0
        p.ap(RowSet{RowRef::t(2), RowRef::dcc(0), RowRef::t(1)});
                                                  // w -> T2
        p.aap(d(onext_row), RowRef::t(0));        // T0=Onext
        p.aap(RowRef::c1(), RowRef::t(1));        // T1=1
        p.aap(RowSet::b12(), d(onext_row));       // Onext OR w
        return;
    }

    // w = (old OR NOT new) AND mask.
    p.aap(d(new_msb_row), RowRef::dccNeg(0));     // cell0=~new
    p.aap(d(old_msb_row), RowRef::t(2));          // T2=old
    p.aap(RowRef::c1(), RowRef::t(1));            // T1=1
    p.ap(RowSet{RowRef::t(2), RowRef::dcc(0), RowRef::t(1)});
                                                  // w1 -> T2
    p.aap(d(mask_row), RowRef::t(0));             // T0=m
    p.aap(RowRef::c0(), RowRef::t(1));            // T1=0
    p.ap(RowSet::b12());                          // w = m AND w1
    p.aap(d(onext_row), RowRef::t(3));            // T3=Onext
    p.aap(RowRef::c1(), RowRef::t(1));            // T1=1
    p.aap(RowSet{RowRef::t(1), RowRef::t(2), RowRef::t(3)},
          d(onext_row));                          // Onext OR w
}

// ---------------------------------------------------------------------
// k-ary increment / decrement bodies
// ---------------------------------------------------------------------

CheckedProgram
AmbitCodegen::shiftedUpdate(unsigned digit, unsigned eff_k,
                            unsigned mask_row) const
{
    const unsigned n = layout_.bitsPerDigit();
    C2M_ASSERT(digit < layout_.numDigits(), "digit out of range");
    C2M_ASSERT(eff_k >= 1 && eff_k < 2 * n, "shift amount out of range");

    CheckedProgram cp;
    AmbitProgram saves;

    if (eff_k == n) {
        // Complement every bit under the mask; save the MSB for the
        // wrap detector.
        emitCopy(saves, layout_.bitRow(digit, n - 1),
                 layout_.thetaRow(0));
        cp.appendUnchecked(saves);
        for (unsigned i = 0; i < n; ++i)
            emitMaskedUpdate(cp, layout_.bitRow(digit, i),
                             layout_.bitRow(digit, i), true, mask_row);
        return cp;
    }

    const bool over = eff_k > n;
    const unsigned kk = over ? eff_k - n : eff_k;

    // Save the feedback sources b[n-kk .. n-1] into theta rows; the
    // MSB is always theta[kk-1].
    for (unsigned j = 0; j < kk; ++j)
        emitCopy(saves, layout_.bitRow(digit, n - kk + j),
                 layout_.thetaRow(j));
    cp.appendUnchecked(saves);

    // Phase 1: shift toward the MSB, descending so sources are read
    // before they are overwritten. For eff_k <= n the shifted value is
    // plain; for eff_k > n everything is complemented (adding n flips
    // all bits).
    for (unsigned i = n; i-- > kk;)
        emitMaskedUpdate(cp, layout_.bitRow(digit, i),
                         layout_.bitRow(digit, i - kk), over, mask_row);

    // Phase 2: feedback into the low kk bits from the saved thetas,
    // inverted for eff_k <= n and plain for eff_k > n.
    for (unsigned i = 0; i < kk; ++i)
        emitMaskedUpdate(cp, layout_.bitRow(digit, i),
                         layout_.thetaRow(i), !over, mask_row);

    return cp;
}

CheckedProgram
AmbitCodegen::increment(unsigned digit, unsigned k,
                        unsigned mask_row) const
{
    const unsigned n = layout_.bitsPerDigit();
    C2M_ASSERT(k >= 1 && k < 2 * n, "increment step ", k,
               " out of range for radix ", 2 * n);

    CheckedProgram cp = shiftedUpdate(digit, k, mask_row);

    // Overflow (Alg. 1): the old MSB lives in theta[kk-1] (theta[0]
    // when k == n).
    const unsigned kk = k == n ? 1 : (k > n ? k - n : k);
    const unsigned old_msb = layout_.thetaRow(k == n ? 0 : kk - 1);
    const unsigned new_msb = layout_.bitRow(digit, n - 1);

    AmbitProgram wrap;
    emitWrapDetect(wrap, old_msb, new_msb, layout_.onextRow(digit),
                   mask_row, /*or_form=*/k > n);
    cp.appendUnchecked(wrap);
    return cp;
}

CheckedProgram
AmbitCodegen::decrement(unsigned digit, unsigned k,
                        unsigned mask_row) const
{
    const unsigned n = layout_.bitsPerDigit();
    C2M_ASSERT(k >= 1 && k < 2 * n, "decrement step ", k,
               " out of range for radix ", 2 * n);

    // Decrement by k is the state shift of an increment by 2n-k.
    const unsigned eff_k = 2 * n - k;
    CheckedProgram cp = shiftedUpdate(digit, eff_k, mask_row);

    const unsigned kk = eff_k == n ? 1 : (eff_k > n ? eff_k - n : eff_k);
    const unsigned old_msb = layout_.thetaRow(eff_k == n ? 0 : kk - 1);
    const unsigned new_msb = layout_.bitRow(digit, n - 1);

    // Borrow = NOT wrap(eff_k):
    //   eff_k <= n: borrow = ~old OR new  -> or-form with args swapped
    //   eff_k >  n: borrow = ~old AND new -> and-form with args swapped
    AmbitProgram wrap;
    emitWrapDetect(wrap, new_msb, old_msb, layout_.onextRow(digit),
                   mask_row, /*or_form=*/eff_k <= n);
    cp.appendUnchecked(wrap);
    return cp;
}

CheckedProgram
AmbitCodegen::carryRipple(unsigned digit) const
{
    C2M_ASSERT(digit + 1 < layout_.numDigits(),
               "carry ripple out of the top digit");
    CheckedProgram cp =
        increment(digit + 1, 1, layout_.onextRow(digit));
    AmbitProgram clear;
    clear.aap(RowRef::c0(), d(layout_.onextRow(digit)));
    cp.appendUnchecked(clear);
    return cp;
}

CheckedProgram
AmbitCodegen::borrowRipple(unsigned digit) const
{
    C2M_ASSERT(digit + 1 < layout_.numDigits(),
               "borrow ripple out of the top digit");
    CheckedProgram cp =
        decrement(digit + 1, 1, layout_.onextRow(digit));
    AmbitProgram clear;
    clear.aap(RowRef::c0(), d(layout_.onextRow(digit)));
    cp.appendUnchecked(clear);
    return cp;
}

cim::AmbitProgram
AmbitCodegen::clearCounters() const
{
    AmbitProgram p;
    for (unsigned dd = 0; dd < layout_.numDigits(); ++dd) {
        for (unsigned i = 0; i < layout_.bitsPerDigit(); ++i)
            p.aap(RowRef::c0(), d(layout_.bitRow(dd, i)));
        p.aap(RowRef::c0(), d(layout_.onextRow(dd)));
    }
    p.aap(RowRef::c0(), d(layout_.osignRow()));
    return p;
}

} // namespace uprog
} // namespace c2m
