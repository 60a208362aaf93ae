#include "core/engine.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "core/backend_ambit.hpp"
#include "core/backend_rca.hpp"
#include "dram/subarray.hpp"
#include "jc/digits.hpp"
#include "jc/johnson.hpp"

namespace c2m {
namespace core {

C2MEngine::C2MEngine(const EngineConfig &cfg)
    : cfg_(cfg),
      bitsPerDigit_(jc::bitsForRadix(cfg.radix)),
      backend_(makeBackend(
          cfg,
          cfg.numGroups *
              (cfg.protection == Protection::Tmr ? 3u : 1u),
          stats_))
{
    C2M_ASSERT(cfg.numGroups >= 1, "need at least one counter group");
    C2M_ASSERT(!(cfg.protection == Protection::Ecc) ||
                   (cfg.frChecks >= 1 && cfg.frChecks <= 3),
               "frChecks must be in 1..3");
    C2M_ASSERT(cfg.protection != Protection::Ecc ||
                   backend_->caps().eccChecks,
               backendName(cfg.backend),
               " backend does not support ECC protection");
    C2M_ASSERT(cfg.protection != Protection::Tmr ||
                   backend_->caps().tmrVoting,
               backendName(cfg.backend),
               " backend does not support TMR protection");

    for (unsigned g = 0; g < cfg.numGroups; ++g)
        schedulers_.emplace_back(cfg.radix, backend_->numDigits());
    groupHasDecrements_.assign(cfg.numGroups, false);

    clear();
}

C2MEngine::~C2MEngine() = default;

cim::AmbitSubarray &
C2MEngine::subarray()
{
    if (auto *ambit = dynamic_cast<AmbitBackend *>(backend_.get()))
        return ambit->subarray();
    if (auto *rca = dynamic_cast<RcaBackend *>(backend_.get()))
        return rca->subarray();
    C2M_PANIC(backendName(cfg_.backend),
              " backend is not a DRAM fabric; no subarray");
}

const jc::CounterLayout &
C2MEngine::layout(unsigned group) const
{
    return backend_->layout(physIndex(group, 0));
}

unsigned
C2MEngine::physIndex(unsigned group, unsigned replica) const
{
    C2M_ASSERT(group < cfg_.numGroups && replica < replicas(),
               "group/replica out of range");
    return group * replicas() + replica;
}

unsigned
C2MEngine::maskRowIndex(unsigned handle) const
{
    C2M_ASSERT(handle < numMasks_, "unknown mask handle ", handle);
    return backend_->maskRow(handle);
}

unsigned
C2MEngine::addMask(const std::vector<uint8_t> &mask)
{
    C2M_ASSERT(numMasks_ < cfg_.maxMaskRows,
               "mask rows exhausted; raise maxMaskRows");
    const unsigned handle = numMasks_++;
    setMask(handle, mask);
    return handle;
}

void
C2MEngine::setMask(unsigned handle, const std::vector<uint8_t> &mask)
{
    C2M_ASSERT(handle < numMasks_, "unknown mask handle ", handle);
    cim::AttrScope attr(backend_->opStatsRef(),
                        cim::FabricCat::MaskWrite);
    backend_->writeMask(handle,
                        dram::maskRow(mask, cfg_.numCounters));
}

void
C2MEngine::setMask(unsigned handle, const BitVector &mask)
{
    C2M_ASSERT(handle < numMasks_, "unknown mask handle ", handle);
    C2M_ASSERT(mask.size() == cfg_.numCounters,
               "mask width mismatch");
    cim::AttrScope attr(backend_->opStatsRef(),
                        cim::FabricCat::MaskWrite);
    backend_->writeMask(handle, mask);
}

void
C2MEngine::clear()
{
    backend_->clearCounters();
    for (auto &s : schedulers_)
        s = jc::IarmScheduler(cfg_.radix, backend_->numDigits());
    groupHasDecrements_.assign(cfg_.numGroups, false);
}

void
C2MEngine::voteDigit(unsigned group, unsigned digit)
{
    backend_->voteDigit({physIndex(group, 0), physIndex(group, 1),
                         physIndex(group, 2)},
                        digit);
}

void
C2MEngine::incrementDigit(unsigned group, unsigned digit, unsigned k,
                          unsigned mask_row)
{
    for (unsigned r = 0; r < replicas(); ++r)
        backend_->karyIncrement(physIndex(group, r), digit, k,
                                mask_row);
    if (cfg_.protection == Protection::Tmr)
        voteDigit(group, digit);
    ++stats_.increments;
}

void
C2MEngine::decrementDigit(unsigned group, unsigned digit, unsigned k,
                          unsigned mask_row)
{
    for (unsigned r = 0; r < replicas(); ++r)
        backend_->karyDecrement(physIndex(group, r), digit, k,
                                mask_row);
    if (cfg_.protection == Protection::Tmr)
        voteDigit(group, digit);
    ++stats_.increments;
}

void
C2MEngine::ripple(unsigned group, unsigned digit)
{
    for (unsigned r = 0; r < replicas(); ++r)
        backend_->carryRipple(physIndex(group, r), digit);
    if (cfg_.protection == Protection::Tmr)
        voteDigit(group, digit + 1);
    ++stats_.ripples;
}

void
C2MEngine::borrowRipple(unsigned group, unsigned digit)
{
    for (unsigned r = 0; r < replicas(); ++r)
        backend_->borrowRipple(physIndex(group, r), digit);
    if (cfg_.protection == Protection::Tmr)
        voteDigit(group, digit + 1);
    ++stats_.ripples;
}

void
C2MEngine::addValue(unsigned group, uint64_t value, unsigned mask_row)
{
    for (unsigned r = 0; r < replicas(); ++r)
        backend_->addValue(physIndex(group, r), value, mask_row);
    if (cfg_.protection == Protection::Tmr)
        voteDigit(group, 0);
    ++stats_.increments;
    ++stats_.inputsAccumulated;
}

void
C2MEngine::accumulate(uint64_t value, unsigned mask_handle,
                      unsigned group)
{
    C2M_ASSERT(group < cfg_.numGroups, "group out of range");
    if (!backend_->caps().pendingFlags) {
        // In-place carry substrates (RCA) cannot skip zeros: every
        // input is one full-width masked add.
        addValue(group, value, maskRowIndex(mask_handle));
        return;
    }
    if (value == 0) {
        ++stats_.inputsAccumulated; // zero inputs are skipped entirely
        return;
    }
    const unsigned mask_row = maskRowIndex(mask_handle);
    const auto digits = jc::toDigits(value, cfg_.radix);
    C2M_ASSERT(digits.size() < backend_->numDigits(),
               "value exceeds counter capacity");

    auto &sched = schedulers_[group];
    const bool signed_mode = groupHasDecrements_[group];

    if (!signed_mode) {
        for (unsigned d : sched.prepareAdd(digits))
            ripple(group, d);
        sched.applyAdd(digits);
    }

    for (unsigned pos = 0; pos < digits.size(); ++pos) {
        const unsigned k = digits[pos];
        if (k == 0)
            continue;
        if (cfg_.counting == CountMode::Kary) {
            incrementDigit(group, pos, k, mask_row);
        } else {
            for (unsigned u = 0; u < k; ++u)
                incrementDigit(group, pos, 1, mask_row);
        }
    }

    if (signed_mode) {
        // Signed groups keep Onext fully resolved so the flag's
        // meaning (overflow vs borrow) can switch per input.
        resolveAllPendings(group, /*borrows=*/false);
    } else if (cfg_.ripple == RippleMode::FullRipple) {
        // One unconditional ripple per digit boundary, highest first
        // so carries always land in a just-resolved digit.
        for (unsigned d : sched.fullPassDescending())
            ripple(group, d);
    }
    ++stats_.inputsAccumulated;
}

void
C2MEngine::planPrepare(std::span<const MaskedStep> steps,
                       unsigned group, std::vector<PlanRipple> &pre,
                       std::vector<PlanRipple> &post)
{
    C2M_ASSERT(group < cfg_.numGroups, "group out of range");
    C2M_ASSERT(cfg_.counting == CountMode::Kary,
               "drain plans require k-ary counting");
    C2M_ASSERT(!groupHasDecrements_[group],
               "drain plans require an unsigned-mode group");
    if (steps.empty())
        return; // every folded delta was zero

    // Worst-case digit profile: each counter receives at most one
    // step per digit position (its own delta digit), so max k per
    // position upper-bounds every real counter's addition and the
    // scheduler headroom it prepares is sound for the whole plan.
    // The profile is over THIS shard's planes only, so the scheduler
    // advances exactly as it would under an independent per-shard
    // plan — merged plans change who issues a ripple, never whether
    // it happens.
    std::vector<unsigned> worst;
    for (const auto &s : steps) {
        C2M_ASSERT(s.k >= 1 && s.k < cfg_.radix,
                   "plane step k out of range: ", s.k);
        C2M_ASSERT(s.mask != nullptr, "plane step without a mask");
        if (s.digit >= worst.size())
            worst.resize(s.digit + 1, 0);
        worst[s.digit] = std::max(worst[s.digit], s.k);
    }
    C2M_ASSERT(worst.size() < backend_->numDigits(),
               "planned delta exceeds counter capacity");

    if (!backend_->caps().pendingFlags)
        return;
    auto &sched = schedulers_[group];
    for (unsigned d : sched.prepareAdd(worst))
        pre.push_back({d, true});
    sched.applyAdd(worst);
    if (cfg_.ripple == RippleMode::FullRipple)
        for (unsigned d : sched.fullPassDescending())
            post.push_back({d, true});
}

void
C2MEngine::executePlan(std::span<const MaskedStep> steps,
                       std::span<const PlanRipple> pre,
                       std::span<const PlanRipple> post,
                       unsigned group, uint64_t folded_ops)
{
    ++stats_.plansExecuted;
    stats_.plannedOps += folded_ops;
    stats_.inputsAccumulated += folded_ops;
    if (steps.empty())
        return;

    cim::OpStats &fab = backend_->opStatsRef();
    cim::AttrScope attr(fab, cim::FabricCat::Plan);
    const auto gangRipple = [&](const PlanRipple &r) {
        if (r.lead) {
            ripple(group, r.digit);
            return;
        }
        cim::AttrScope fan(fab, cim::FabricCat::PlanFanout);
        const uint64_t c0 = fab.commands();
        ripple(group, r.digit);
        fab.gangedCommands += fab.commands() - c0;
    };

    for (const auto &r : pre)
        gangRipple(r);

    for (const auto &s : steps) {
        {
            // Mask rows hold per-shard plane slices, so the write is
            // never ganged: MaskWrite stays honestly per shard.
            cim::AttrScope mrow(fab, cim::FabricCat::MaskWrite);
            backend_->writeMask(s.maskHandle, *s.mask);
        }
        if (s.lead) {
            incrementDigit(group, s.digit, s.k,
                           maskRowIndex(s.maskHandle));
            ++stats_.planLeadPrograms;
        } else {
            // Follower slice: the identical command stream executes
            // in the lead shard's issue slots. ECC retries inside the
            // checked execution stay under this scope — a follower
            // retry is modeled as re-running in later gang slots.
            cim::AttrScope fan(fab, cim::FabricCat::PlanFanout);
            const uint64_t c0 = fab.commands();
            incrementDigit(group, s.digit, s.k,
                           maskRowIndex(s.maskHandle));
            fab.gangedCommands += fab.commands() - c0;
        }
        ++stats_.planPrograms;
    }

    for (const auto &r : post)
        gangRipple(r);
}

void
C2MEngine::accumulateSigned(int64_t value, unsigned mask_handle,
                            unsigned group)
{
    if (value >= 0) {
        accumulate(static_cast<uint64_t>(value), mask_handle, group);
        return;
    }
    C2M_ASSERT(backend_->caps().signedCounting,
               backendName(cfg_.backend),
               " backend does not support signed counting");

    // First decrement on this group: resolve outstanding overflows
    // (Sec. 4.4) and enter full-resolution signed mode.
    if (!groupHasDecrements_[group]) {
        drain(group);
        groupHasDecrements_[group] = true;
    }

    const unsigned mask_row = maskRowIndex(mask_handle);
    if (!backend_->caps().pendingFlags) {
        addValue(group, static_cast<uint64_t>(value), mask_row);
        return;
    }
    const auto digits =
        jc::toDigits(static_cast<uint64_t>(-value), cfg_.radix);
    C2M_ASSERT(digits.size() < backend_->numDigits(),
               "value exceeds counter capacity");

    for (unsigned pos = 0; pos < digits.size(); ++pos) {
        if (digits[pos] == 0)
            continue;
        decrementDigit(group, pos, digits[pos], mask_row);
    }
    resolveAllPendings(group, /*borrows=*/true);
    ++stats_.inputsAccumulated;
}

void
C2MEngine::resolveAllPendings(unsigned group, bool borrows)
{
    // Highest boundary first within a pass, so every carry/borrow
    // lands in a just-cleared digit (no flag is ever double-set);
    // each pass moves fresh pendings one digit up, so at most D
    // passes fully drain them into Osign.
    const unsigned D = backend_->numDigits();
    const unsigned phys0 = physIndex(group, 0);
    for (unsigned pass = 0; pass < D; ++pass) {
        bool any = false;
        for (unsigned d = D - 1; d-- > 0;) {
            if (!backend_->anyPending(phys0, d))
                continue;
            any = true;
            if (borrows)
                borrowRipple(group, d);
            else
                ripple(group, d);
        }
        for (unsigned r = 0; r < replicas(); ++r)
            backend_->foldTopBorrowIntoSign(physIndex(group, r));
        if (!any)
            break;
    }
}

void
C2MEngine::drain(unsigned group)
{
    if (!backend_->caps().pendingFlags)
        return;
    for (unsigned d : schedulers_[group].drain())
        ripple(group, d);
}

std::vector<int64_t>
C2MEngine::readCounters(unsigned group)
{
    return backend_->readCounters(physIndex(group, 0));
}

void
C2MEngine::addCounters(unsigned dst_group, unsigned src_group)
{
    C2M_ASSERT(backend_->caps().tensorOps,
               backendName(cfg_.backend),
               " backend does not support tensor ops");
    C2M_ASSERT(dst_group != src_group,
               "in-place doubling needs shiftLeft with a spare group");
    C2M_ASSERT(!groupHasDecrements_[src_group] &&
                   !groupHasDecrements_[dst_group],
               "vector addition requires unsigned-mode groups");
    drain(src_group);
    drain(dst_group);

    const auto &src = backend_->layout(physIndex(src_group, 0));
    const auto &dst0 = backend_->layout(physIndex(dst_group, 0));
    const unsigned n = bitsPerDigit_;
    const unsigned theta = dst0.scratchRow(2);
    const unsigned mrow = dst0.scratchRow(3);

    // The guard (top) digit of any in-capacity counter is zero, so
    // only the digits below it participate.
    for (unsigned dd = 0; dd + 1 < dst0.numDigits(); ++dd) {
        if (dd >= src.numDigits())
            break;
        // The digit receives at most R-1; create headroom through the
        // scheduler exactly like a broadcast add of R-1 would.
        std::vector<unsigned> worst(dd + 1, 0);
        worst[dd] = cfg_.radix - 1;
        for (unsigned d : schedulers_[dst_group].prepareAdd(worst))
            ripple(dst_group, d);
        schedulers_[dst_group].applyAdd(worst);
        // Theta <- src MSB; first pass uses mask = bit OR Theta from
        // the MSB down, second pass mask = Theta AND NOT bit from the
        // LSB up (Alg. 2 with Theta updated in both passes).
        backend_->rowCopy(src.bitRow(dd, n - 1), theta);

        for (unsigned b = n; b-- > 0;) {
            backend_->rowOr(src.bitRow(dd, b), theta, mrow);
            backend_->rowCopy(mrow, theta);
            // Use the raw mask row (it is not a registered handle).
            incrementDigit(dst_group, dd, 1, mrow);
        }
        for (unsigned b = 0; b < n; ++b) {
            backend_->rowAndNot(theta, src.bitRow(dd, b), mrow);
            backend_->rowCopy(mrow, theta);
            incrementDigit(dst_group, dd, 1, mrow);
        }
        // The source digit's pending-overflow flags were drained
        // above, so none remain by construction.
    }
}

void
C2MEngine::relu(unsigned group)
{
    C2M_ASSERT(backend_->caps().tensorOps,
               backendName(cfg_.backend),
               " backend does not support tensor ops");
    for (unsigned r = 0; r < replicas(); ++r)
        backend_->relu(physIndex(group, r));
}

void
C2MEngine::shiftLeft(unsigned group, unsigned spare_group,
                     unsigned amount)
{
    C2M_ASSERT(backend_->caps().tensorOps,
               backendName(cfg_.backend),
               " backend does not support tensor ops");
    C2M_ASSERT(spare_group != group, "spare must differ from group");
    for (unsigned step = 0; step < amount; ++step) {
        drain(group);
        // spare <- group (row copies), then group += spare.
        for (unsigned r = 0; r < replicas(); ++r)
            backend_->copyCounters(physIndex(group, r),
                                   physIndex(spare_group, r));
        schedulers_[spare_group] = schedulers_[group];
        addCounters(group, spare_group);
    }
}

} // namespace core
} // namespace c2m
