#ifndef C2M_CIM_ROWADDR_HPP
#define C2M_CIM_ROWADDR_HPP

/**
 * @file
 * Row operand model and command ISA for Ambit-style CIM (Sec. 2.2).
 *
 * A subarray's row-address space is split into three groups (Fig. 1b):
 *
 *  - B-group: four temporary rows T0..T3 and two dual-contact cells
 *    DCC0/DCC1. A DCC exposes a positive port (reads/writes the cell)
 *    and a negative port (reads/writes the complement), which is how
 *    Ambit realizes NOT for free during row copies.
 *  - C-group: constant rows C0 (all zeros) and C1 (all ones).
 *  - D-group: the data rows (counters, masks, operands).
 *
 * The B-group's 16 addresses map to sets of 1, 2 or 3 simultaneously
 * activated rows; a 3-row activation (TRA) computes MAJ3 destructively
 * (all three rows end up holding the result). We model activation sets
 * directly as RowSet so muPrograms stay readable; the canonical
 * B-address encodings used by the generated sequences (B8, B9, B11,
 * B12, B14, B15 of Fig. 6b) are provided as named constructors.
 *
 * Commands:
 *  - AAP src, dst ("activate-activate-precharge"): resolve src on the
 *    bitlines (computing MAJ3 if src is a triple), then activate dst to
 *    overwrite its rows with that value (complemented through negative
 *    DCC ports), then precharge.
 *  - AP addr ("activate-precharge"): a bare multi-row activation; for
 *    a triple this leaves MAJ3 in all three activated rows.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.hpp"

namespace c2m {
namespace cim {

/**
 * The mask operand of a counting muProgram. A program is a fixed
 * command sequence for one (digit, k) step that runs under a mask
 * row (Sec. 5.1): code generators emit this sentinel wherever they
 * read the mask, and the simulators resolve it to the row bound by
 * run(prog, mask_row). Executing it with no row bound panics.
 */
inline constexpr uint32_t kMaskRow = 0xffffffffu;

/** Row @p row names with kMaskRow bound to @p mask_row. */
inline uint32_t
bindMask(uint32_t row, uint32_t mask_row)
{
    if (row != kMaskRow)
        return row;
    C2M_ASSERT(mask_row != kMaskRow,
               "program reads the mask row but none is bound");
    return mask_row;
}

/** One row operand. */
struct RowRef
{
    enum class Kind : uint8_t
    {
        Data,    ///< D-group row (index = row number)
        T,       ///< B-group temporary (index in 0..3)
        DccPos,  ///< DCC cell through the positive port (index 0..1)
        DccNeg,  ///< DCC cell through the negative port (index 0..1)
        C0,      ///< constant zero row
        C1,      ///< constant one row
    };

    Kind kind = Kind::Data;
    uint32_t index = 0;

    static RowRef data(uint32_t row) { return {Kind::Data, row}; }
    static RowRef t(uint32_t i) { return {Kind::T, i}; }
    static RowRef dcc(uint32_t i) { return {Kind::DccPos, i}; }
    static RowRef dccNeg(uint32_t i) { return {Kind::DccNeg, i}; }
    static RowRef c0() { return {Kind::C0, 0}; }
    static RowRef c1() { return {Kind::C1, 0}; }

    bool operator==(const RowRef &o) const
    {
        return kind == o.kind && index == o.index;
    }

    std::string toString() const;
};

/** Set of rows activated together (1, 2 or 3 rows). */
struct RowSet
{
    RowRef rows[3];
    uint8_t count = 0;

    RowSet() = default;
    RowSet(RowRef a);                          // NOLINT(implicit)
    RowSet(RowRef a, RowRef b);
    RowSet(RowRef a, RowRef b, RowRef c);

    bool isTriple() const { return count == 3; }

    std::string toString() const;

    // -- Canonical Ambit B-group addresses used by Fig. 6b sequences --

    /** B8: write v into T0 and v-bar into DCC0. */
    static RowSet b8() { return {RowRef::t(0), RowRef::dccNeg(0)}; }
    /** B9: write v into T1 and v-bar into DCC1. */
    static RowSet b9() { return {RowRef::t(1), RowRef::dccNeg(1)}; }
    /** B11: TRA over T0, T1, DCC0 (footnote 2 of the paper). */
    static RowSet b11()
    {
        return {RowRef::t(0), RowRef::t(1), RowRef::dcc(0)};
    }
    /** B12: TRA over T0, T1, T2. */
    static RowSet b12()
    {
        return {RowRef::t(0), RowRef::t(1), RowRef::t(2)};
    }
    /** B14: TRA over T2, DCC0, DCC1-bar (AND with inverted operand). */
    static RowSet b14()
    {
        return {RowRef::t(2), RowRef::dcc(0), RowRef::dccNeg(1)};
    }
    /** B15: TRA over T0, T3, DCC1 (OR when DCC1 holds one). */
    static RowSet b15()
    {
        return {RowRef::t(0), RowRef::t(3), RowRef::dcc(1)};
    }
};

/** One Ambit command. */
struct AmbitOp
{
    enum class Kind : uint8_t { AAP, AP };

    Kind kind = Kind::AAP;
    RowSet src;
    RowSet dst;   ///< unused for AP

    static AmbitOp aap(RowSet src, RowSet dst)
    {
        return {Kind::AAP, src, dst};
    }

    static AmbitOp ap(RowSet set) { return {Kind::AP, set, {}}; }

    /** Number of row activations this command issues (2 for AAP). */
    unsigned activations() const
    {
        return kind == Kind::AAP ? 2 : 1;
    }

    std::string toString() const;
};

/** A straight-line sequence of Ambit commands. */
struct AmbitProgram
{
    std::vector<AmbitOp> ops;

    void aap(RowSet src, RowSet dst)
    {
        ops.push_back(AmbitOp::aap(src, dst));
    }

    void ap(RowSet set) { ops.push_back(AmbitOp::ap(set)); }

    void append(const AmbitProgram &other)
    {
        ops.insert(ops.end(), other.ops.begin(), other.ops.end());
    }

    size_t size() const { return ops.size(); }
    bool empty() const { return ops.empty(); }

    /** Commands whose source is a triple (MAJ3 computations). */
    size_t traCount() const;

    std::string toString() const;
};

} // namespace cim
} // namespace c2m

#endif // C2M_CIM_ROWADDR_HPP
