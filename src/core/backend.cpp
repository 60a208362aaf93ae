#include "core/backend.hpp"

#include "cim/ambit.hpp"
#include "common/logging.hpp"
#include "core/backend_ambit.hpp"
#include "core/backend_nvm.hpp"
#include "core/backend_rca.hpp"
#include "uprog/microop.hpp"

namespace c2m {
namespace core {

void
runCheckedOnSubarray(cim::AmbitSubarray &sub,
                     const uprog::CheckedProgram &prog,
                     unsigned mask_row, size_t num_cols,
                     unsigned max_retries, EngineStats &stats)
{
    // FR checks name the mask by the same sentinel as the program.
    const auto read = [&](unsigned row) -> const BitVector & {
        return sub.hostReadRow(cim::bindMask(row, mask_row));
    };
    for (const auto &block : prog.blocks) {
        unsigned attempt = 0;
        for (;;) {
            sub.run(block.prog, mask_row);
            if (block.checks.empty())
                break;

            bool mismatch = false;
            for (const auto &chk : block.checks) {
                ++stats.checksRun;
                const BitVector &fr = read(chk.frRow);
                if (chk.mode == uprog::FrCheck::Mode::EqualRows) {
                    if (fr != read(chk.rowA))
                        mismatch = true;
                    continue;
                }
                BitVector a(num_cols);
                a.copyFrom(read(chk.rowA));
                if (chk.aNeg)
                    a.invert();
                BitVector b(num_cols);
                b.copyFrom(read(chk.rowB));
                if (chk.bNeg)
                    b.invert();
                BitVector expect(num_cols);
                expect.assignXor(a, b);
                if (fr != expect)
                    mismatch = true;
            }
            if (!mismatch)
                break;

            ++stats.faultsDetected;
            if (attempt++ >= max_retries) {
                ++stats.uncorrectedBlocks;
                break;
            }
            ++stats.retries;
        }
    }
}

const char *
backendName(BackendKind kind)
{
    switch (kind) {
    case BackendKind::Ambit:
        return "ambit";
    case BackendKind::NvmPinatubo:
        return "nvm-pinatubo";
    case BackendKind::NvmMagic:
        return "nvm-magic";
    case BackendKind::Rca:
        return "rca";
    }
    return "unknown";
}

// Default implementations: capability-gated operations panic when a
// backend that does not advertise them is driven anyway. The engine
// checks caps() up front, so reaching one of these is a library bug.

void
CountingBackend::karyDecrement(unsigned, unsigned, unsigned, unsigned)
{
    C2M_PANIC(backendName(kind()),
              " backend does not support signed counting");
}

void
CountingBackend::addValue(unsigned, uint64_t, unsigned)
{
    C2M_PANIC(backendName(kind()),
              " backend counts digit-wise; it has no whole-value add");
}

void
CountingBackend::borrowRipple(unsigned, unsigned)
{
    C2M_PANIC(backendName(kind()),
              " backend does not support signed counting");
}

void
CountingBackend::foldTopBorrowIntoSign(unsigned)
{
    C2M_PANIC(backendName(kind()),
              " backend does not support signed counting");
}

void
CountingBackend::voteDigit(const std::array<unsigned, 3> &, unsigned)
{
    C2M_PANIC(backendName(kind()),
              " backend does not support TMR voting");
}

const BitVector &
CountingBackend::scrubReadRow(unsigned)
{
    C2M_PANIC(backendName(kind()),
              " backend does not support row scrubbing");
}

void
CountingBackend::scrubWriteRow(unsigned, const BitVector &)
{
    C2M_PANIC(backendName(kind()),
              " backend does not support row scrubbing");
}

const jc::CounterLayout &
CountingBackend::layout(unsigned) const
{
    C2M_PANIC(backendName(kind()),
              " backend has no Johnson-counter row layout");
}

void
CountingBackend::rowCopy(unsigned, unsigned)
{
    C2M_PANIC(backendName(kind()),
              " backend does not support row-level tensor logic");
}

void
CountingBackend::rowOr(unsigned, unsigned, unsigned)
{
    C2M_PANIC(backendName(kind()),
              " backend does not support row-level tensor logic");
}

void
CountingBackend::rowAndNot(unsigned, unsigned, unsigned)
{
    C2M_PANIC(backendName(kind()),
              " backend does not support row-level tensor logic");
}

void
CountingBackend::rowClear(unsigned)
{
    C2M_PANIC(backendName(kind()),
              " backend does not support row-level tensor logic");
}

void
CountingBackend::relu(unsigned)
{
    C2M_PANIC(backendName(kind()),
              " backend does not support tensor ops");
}

void
CountingBackend::copyCounters(unsigned, unsigned)
{
    C2M_PANIC(backendName(kind()),
              " backend does not support tensor ops");
}

std::unique_ptr<CountingBackend>
makeBackend(const EngineConfig &cfg, unsigned physical_groups,
            EngineStats &stats)
{
    switch (cfg.backend) {
    case BackendKind::Ambit:
        return std::make_unique<AmbitBackend>(cfg, physical_groups,
                                              stats);
    case BackendKind::NvmPinatubo:
    case BackendKind::NvmMagic:
        return std::make_unique<NvmBackend>(cfg, physical_groups,
                                            stats);
    case BackendKind::Rca:
        return std::make_unique<RcaBackend>(cfg, physical_groups,
                                            stats);
    }
    C2M_PANIC("unknown backend kind");
}

} // namespace core
} // namespace c2m
