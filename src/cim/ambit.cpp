#include "cim/ambit.hpp"

#include "common/logging.hpp"

namespace c2m {
namespace cim {

AmbitSubarray::AmbitSubarray(size_t num_rows, size_t num_cols,
                             FaultModel fault, uint64_t seed)
    : numCols_(num_cols),
      dataRows_(num_rows, BitVector(num_cols)),
      zeros_(num_cols),
      ones_(num_cols),
      senseV_(num_cols),
      flipsBuf_(num_cols),
      andBuf_(num_cols),
      orBuf_(num_cols),
      fault_(fault),
      rng_(seed)
{
    for (auto &t : tRegs_)
        t = BitVector(num_cols);
    for (auto &d : dccRegs_)
        d = BitVector(num_cols);
    for (auto &n : negBuf_)
        n = BitVector(num_cols);
    ones_.fill(true);
}

const BitVector &
AmbitSubarray::hostReadRow(size_t r)
{
    C2M_ASSERT(r < dataRows_.size(), "row ", r, " out of range");
    ++stats_.rowReads;
    stats_.charge(costs_.rowReadNs, costs_.rowReadNj);
    return dataRows_[r];
}

void
AmbitSubarray::hostWriteRow(size_t r, const BitVector &v)
{
    C2M_ASSERT(r < dataRows_.size(), "row ", r, " out of range");
    C2M_ASSERT(v.size() == numCols_, "row width mismatch");
    ++stats_.rowWrites;
    stats_.charge(costs_.rowWriteNs, costs_.rowWriteNj);
    dataRows_[r] = v;
}

const BitVector &
AmbitSubarray::peekRow(size_t r) const
{
    C2M_ASSERT(r < dataRows_.size(), "row ", r, " out of range");
    return dataRows_[r];
}

BitVector &
AmbitSubarray::rawRow(size_t r)
{
    C2M_ASSERT(r < dataRows_.size(), "row ", r, " out of range");
    return dataRows_[r];
}

const BitVector &
AmbitSubarray::peekT(unsigned i) const
{
    C2M_ASSERT(i < 4, "T register index out of range");
    return tRegs_[i];
}

const BitVector &
AmbitSubarray::peekDcc(unsigned i) const
{
    C2M_ASSERT(i < 2, "DCC register index out of range");
    return dccRegs_[i];
}

void
AmbitSubarray::pokeT(unsigned i, const BitVector &v)
{
    C2M_ASSERT(i < 4, "T register index out of range");
    tRegs_[i] = v;
}

void
AmbitSubarray::pokeDcc(unsigned i, const BitVector &v)
{
    C2M_ASSERT(i < 2, "DCC register index out of range");
    dccRegs_[i] = v;
}

BitVector &
AmbitSubarray::cell(const RowRef &ref)
{
    switch (ref.kind) {
      case RowRef::Kind::Data: {
        const uint32_t row = bindMask(ref.index, boundMask_);
        C2M_ASSERT(row < dataRows_.size(), "data row ", row,
                   " out of range");
        return dataRows_[row];
      }
      case RowRef::Kind::T:
        C2M_ASSERT(ref.index < 4, "T index out of range");
        return tRegs_[ref.index];
      case RowRef::Kind::DccPos:
      case RowRef::Kind::DccNeg:
        C2M_ASSERT(ref.index < 2, "DCC index out of range");
        return dccRegs_[ref.index];
      default:
        C2M_PANIC("constant rows have no writable cell");
    }
}

const BitVector &
AmbitSubarray::resolveRead(const RowSet &set, bool is_copy_source)
{
    C2M_ASSERT(set.count == 1 || set.count == 3,
               "activation source must be 1 or 3 rows, got ",
               int(set.count));

    // Allocation-free: every intermediate lives in a member scratch
    // row, so replaying a cached program touches the heap not at all.
    auto read_one = [&](uint8_t slot) -> const BitVector & {
        const RowRef &ref = set.rows[slot];
        switch (ref.kind) {
          case RowRef::Kind::C0:
            return zeros_;
          case RowRef::Kind::C1:
            return ones_;
          case RowRef::Kind::DccNeg:
            negBuf_[slot].assignNot(cell(ref));
            return negBuf_[slot];
          default:
            return cell(ref);
        }
    };

    if (set.count == 1) {
        // senseV_ decouples the sensed image from the source cell, so
        // writeSet can overwrite a destination aliasing the source
        // (and a DCC-negated destination cannot corrupt later ones).
        senseV_.copyFrom(read_one(0));
        if (is_copy_source && fault_.pCopy > 0.0)
            stats_.faultsInjected +=
                senseV_.injectFaults(rng_, fault_.pCopy);
        return senseV_;
    }

    // Triple-row activation: MAJ3 with destructive writeback.
    ++stats_.tra;
    const BitVector &a = read_one(0);
    const BitVector &b = read_one(1);
    const BitVector &c = read_one(2);
    senseV_.assignMaj3(a, b, c);
    if (fault_.pMaj > 0.0) {
        // Charge-sharing faults occur where the activated cells
        // disagree; a unanimous bitline senses with a full margin
        // (Sec. 2.3/6.1), so those columns fault only at the
        // (negligible) read-error rate.
        flipsBuf_.fill(false);
        flipsBuf_.injectFaults(rng_, fault_.pMaj);
        andBuf_.assignAnd(a, b);
        andBuf_.assignAnd(andBuf_, c);
        orBuf_.assignOr(a, b);
        orBuf_.assignOr(orBuf_, c);
        // Disagreeing columns: some cell is 1 but not all of them.
        orBuf_.assignXor(andBuf_, orBuf_);
        flipsBuf_.assignAnd(flipsBuf_, orBuf_);
        stats_.faultsInjected += flipsBuf_.popcount();
        senseV_.assignXor(senseV_, flipsBuf_);
    }
    // All activated rows end up holding the sensed value.
    writeSet(set, senseV_);
    return senseV_;
}

void
AmbitSubarray::writeSet(const RowSet &set, const BitVector &v)
{
    C2M_ASSERT(set.count >= 1, "empty write set");
    for (uint8_t i = 0; i < set.count; ++i) {
        const RowRef &ref = set.rows[i];
        switch (ref.kind) {
          case RowRef::Kind::C0:
          case RowRef::Kind::C1:
            C2M_PANIC("writing a constant control row");
          case RowRef::Kind::DccNeg:
            cell(ref).assignNot(v);
            break;
          default:
            cell(ref).copyFrom(v);
            break;
        }
    }
}

void
AmbitSubarray::execute(const AmbitOp &op)
{
    if (op.kind == AmbitOp::Kind::AP) {
        ++stats_.ap;
        stats_.charge(costs_.apNs, costs_.apNj);
        C2M_ASSERT(op.src.isTriple(),
                   "AP is only meaningful on a triple activation");
        resolveRead(op.src, false);
        return;
    }

    ++stats_.aap;
    stats_.charge(costs_.aapNs, costs_.aapNj);
    const bool is_copy = !op.src.isTriple();
    const BitVector &v = resolveRead(op.src, is_copy);
    writeSet(op.dst, v);
}

void
AmbitSubarray::run(const AmbitProgram &prog, uint32_t mask_row)
{
    boundMask_ = mask_row;
    for (const auto &op : prog.ops)
        execute(op);
    boundMask_ = kMaskRow;
}

} // namespace cim
} // namespace c2m
