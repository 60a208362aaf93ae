#ifndef C2M_BENCH_HARNESS_HPP
#define C2M_BENCH_HARNESS_HPP

/**
 * @file
 * Shared harness of the JSON-emitting benches (ingest_throughput,
 * sharded_scaling, virt_capacity, fault_campaign):
 *
 *  - Harness: the common flags (`--trace FILE`, and per bench
 *    `--metrics FILE` / `--big`), the run's obs::TraceRecorder and
 *    MetricsRegistry, named pass/fail gates, and at exit the metrics
 *    file, the Chrome trace and its epoch critical-path profile;
 *  - FabricCell: the fields every cell reports about its modeled
 *    fabric work and host footprint, sampled from one EngineStats view
 *    of the cell (a core::StatsWindow delta for "this batch only");
 *  - JsonObject / writeBenchJson: the BENCH_*.json writer, one key per
 *    call, so a field is named exactly once.
 */

#include <chrono>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "cim/fault.hpp"
#include "core/config.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"

namespace c2m {
namespace bench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Trace events recorded so far (0 when not tracing). */
inline uint64_t
traceMark()
{
    const obs::TraceRecorder *tr = obs::tracer();
    return tr ? tr->eventCount() : 0;
}

/** The modeled-fabric and host-footprint fields of one bench cell. */
struct FabricCell
{
    double ns = 0.0;
    double nj = 0.0;
    double criticalNs = 0.0;
    double attr[cim::kFabricCatCount] = {};
    bool ledgerExact = false;
    uint64_t traceEvents = 0;
    uint64_t rssKb = 0;

    /**
     * Sample @p st, the stats of exactly the cell's work, plus the
     * trace events since @p trace_mark and the current RSS.
     */
    static FabricCell
    of(const core::EngineStats &st, uint64_t trace_mark)
    {
        FabricCell f;
        f.ns = st.fabric.fabricNs;
        f.nj = st.fabric.fabricNj;
        f.criticalNs = st.fabricCriticalNs;
        for (unsigned c = 0; c < cim::kFabricCatCount; ++c)
            f.attr[c] = st.fabric.attrNs[c];
        f.ledgerExact = obs::FabricLedger::fromStats(st).exact();
        f.traceEvents = traceMark() - trace_mark;
        f.rssKb = obs::hostRssKb();
        return f;
    }
};

/** One JSON object, built member by member in insertion order. */
class JsonObject
{
  public:
    JsonObject &
    num(const char *key, double v, const char *fmt = "%.1f")
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), fmt, v);
        return raw(key, buf);
    }

    JsonObject &count(const char *key, uint64_t v)
    {
        return raw(key, std::to_string(v));
    }

    JsonObject &flag(const char *key, bool v)
    {
        return raw(key, v ? "true" : "false");
    }

    JsonObject &str(const char *key, const std::string &v)
    {
        return raw(key, '"' + v + '"');
    }

    JsonObject &obj(const char *key, const JsonObject &v)
    {
        return raw(key, v.render());
    }

    /** The FabricCell members; fabric_critical_ns when @p critical. */
    JsonObject &
    fabric(const FabricCell &f, bool critical = true)
    {
        num("fabric_ns", f.ns).num("fabric_nj", f.nj);
        if (critical)
            num("fabric_critical_ns", f.criticalNs);
        JsonObject attr;
        for (unsigned c = 0; c < cim::kFabricCatCount; ++c)
            attr.num(cim::fabricCatName(static_cast<cim::FabricCat>(c)),
                     f.attr[c]);
        return flag("ledger_exact", f.ledgerExact)
            .obj("fabric_attr", attr)
            .count("trace_events", f.traceEvents)
            .count("rss_kb", f.rssKb);
    }

    /** `{"k": v, ...}` on one line. */
    std::string
    render() const
    {
        std::string out = "{";
        for (const auto &m : members_)
            out += (out.size() > 1 ? ", " : "") + m;
        return out + '}';
    }

    /** Members rendered as `"k": v`. */
    const std::vector<std::string> &members() const { return members_; }

  private:
    JsonObject &
    raw(const char *key, const std::string &value)
    {
        std::string m = "\"";
        m += key;
        m += "\": ";
        m += value;
        members_.push_back(std::move(m));
        return *this;
    }

    std::vector<std::string> members_;
};

/**
 * Write @p top's members one per line, then @p cells as the array
 * @p cells_key, one cell per line, to @p path.
 */
inline void
writeBenchJson(const char *path, const JsonObject &top,
               const char *cells_key, const std::vector<JsonObject> &cells)
{
    std::FILE *f = std::fopen(path, "w");
    if (!f)
        return;
    std::fprintf(f, "{\n");
    for (const auto &m : top.members())
        std::fprintf(f, "  %s,\n", m.c_str());
    std::fprintf(f, "  \"%s\": [\n", cells_key);
    for (size_t i = 0; i < cells.size(); ++i)
        std::fprintf(f, "    %s%s\n", cells[i].render().c_str(),
                     i + 1 < cells.size() ? "," : "");
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path);
}

/** Flags a bench accepts on top of `--trace FILE`. */
enum Flag : unsigned
{
    kMetricsFlag = 1u << 0, ///< `--metrics FILE`: JSON-lines snapshots
    kBigFlag = 1u << 1,     ///< `--big`: add the large cells
};

/**
 * The run: command line, trace recorder, metrics registry and exit
 * gates. Construct first thing in main(); if !ok(), exit 2. Return
 * finish() from main().
 */
class Harness
{
  public:
    /**
     * Parse @p argv: `--trace FILE`, plus whatever @p flags enables.
     * @p extra may consume bench-specific arguments (returning true
     * when it took argv[i]); @p extra_usage documents them.
     */
    Harness(int argc, char **argv, unsigned flags,
            const char *extra_usage = "",
            const std::function<bool(const char *)> &extra = {})
    {
        for (int i = 1; i < argc && ok_; ++i) {
            const bool has_value = i + 1 < argc;
            if (!std::strcmp(argv[i], "--trace") && has_value)
                tracePath_ = argv[++i];
            else if ((flags & kMetricsFlag) &&
                     !std::strcmp(argv[i], "--metrics") && has_value)
                metricsPath_ = argv[++i];
            else if ((flags & kBigFlag) && !std::strcmp(argv[i], "--big"))
                big_ = true;
            else if (!extra || !extra(argv[i]))
                ok_ = false;
        }
        if (!ok_) {
            std::printf("usage: %s %s%s[--trace FILE]%s\n", argv[0],
                        extra_usage, (flags & kBigFlag) ? "[--big] " : "",
                        (flags & kMetricsFlag) ? " [--metrics FILE]" : "");
            return;
        }
        if (metricsPath_) {
            metricsFile_ = std::fopen(metricsPath_, "w");
            if (!metricsFile_) {
                std::printf("cannot open %s\n", metricsPath_);
                ok_ = false;
                return;
            }
        }
        if (tracePath_)
            recorder_.install();
    }

    ~Harness()
    {
        if (metricsFile_)
            std::fclose(metricsFile_);
    }

    Harness(const Harness &) = delete;
    Harness &operator=(const Harness &) = delete;

    bool ok() const { return ok_; }
    bool big() const { return big_; }
    bool streamingMetrics() const { return metricsFile_ != nullptr; }
    obs::MetricsRegistry &metrics() { return registry_; }

    /** Snapshot the registry; append it to `--metrics FILE` if set. */
    obs::MetricsRegistry::Snapshot
    snapshotMetrics()
    {
        auto snap = registry_.snapshot();
        if (metricsFile_) {
            const std::string line = registry_.renderJsonLine(snap);
            std::fwrite(line.data(), 1, line.size(), metricsFile_);
        }
        return snap;
    }

    /**
     * Gate: print the printf-formatted description with ": yes" or
     * ": NO", and fail the run's exit status unless @p pass.
     */
    [[gnu::format(printf, 3, 4)]] bool
    check(bool pass, const char *fmt, ...)
    {
        std::va_list ap;
        va_start(ap, fmt);
        std::vprintf(fmt, ap);
        va_end(ap);
        std::printf(": %s\n", pass ? "yes" : "NO");
        pass_ = pass_ && pass;
        return pass;
    }

    /** Nonzero-cost and ledger-exact gates over cells' `fabric`. */
    template <typename Cells>
    void
    checkFabric(const Cells &cells)
    {
        bool nonzero = true, exact = true;
        for (const auto &c : cells) {
            nonzero = nonzero && c.fabric.ns > 0.0 &&
                      c.fabric.nj > 0.0 && c.fabric.criticalNs > 0.0;
            exact = exact && c.fabric.ledgerExact;
        }
        check(nonzero, "every cell reports nonzero fabric ns/nj");
        check(exact, "fabric ledger bit-exact in every cell");
    }

    /**
     * Close `--metrics FILE`, write `--trace FILE` with its epoch
     * critical-path profile, and return the exit status: 0 iff every
     * gate passed.
     */
    int
    finish()
    {
        if (metricsFile_) {
            std::fclose(metricsFile_);
            metricsFile_ = nullptr;
            std::printf("wrote %s (%llu snapshots)\n", metricsPath_,
                        static_cast<unsigned long long>(
                            registry_.snapshotCount()));
        }
        if (tracePath_) {
            recorder_.uninstall();
            if (obs::writeChromeTrace(recorder_, tracePath_))
                std::printf("wrote %s (%llu events, %llu dropped)\n",
                            tracePath_,
                            static_cast<unsigned long long>(
                                recorder_.eventCount()),
                            static_cast<unsigned long long>(
                                recorder_.droppedEvents()));
            else
                std::printf("FAILED to write %s\n", tracePath_);
            // The same analysis tools/trace_analyze runs offline.
            const auto prof = obs::profileFromRecorder(recorder_);
            std::printf(
                "epoch critical-path profile:\n%s",
                obs::renderEpochProfiles(obs::buildEpochProfiles(prof))
                    .c_str());
        }
        return pass_ ? 0 : 1;
    }

  private:
    bool ok_ = true;
    bool pass_ = true;
    bool big_ = false;
    const char *tracePath_ = nullptr;
    const char *metricsPath_ = nullptr;
    std::FILE *metricsFile_ = nullptr;
    obs::TraceRecorder recorder_;
    obs::MetricsRegistry registry_;
};

} // namespace bench
} // namespace c2m

#endif // C2M_BENCH_HARNESS_HPP
