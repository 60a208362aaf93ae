#include "obs/profiler.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>

#include "common/table.hpp"

namespace c2m::obs {

ProfileInput
profileFromRecorder(const TraceRecorder &rec)
{
    ProfileInput out;
    out.eventCount = rec.eventCount();
    out.droppedEvents = rec.droppedEvents();
    for (uint32_t lane = 0; lane < rec.config().lanes; ++lane) {
        const auto evs = rec.laneSnapshot(lane);
        // Same pairing discipline as the Chrome exporter: per-track
        // stacks, orphan ends dropped, unclosed begins closed at the
        // lane's final stamp.
        std::map<uint32_t, std::vector<TraceEvent>> open;
        int64_t lastHostNs = 0;
        for (const TraceEvent &ev : evs) {
            lastHostNs = std::max(lastHostNs, ev.hostNs);
            switch (ev.kind) {
            case EventKind::SpanBegin:
                open[ev.track].push_back(ev);
                break;
            case EventKind::SpanEnd: {
                auto &stack = open[ev.track];
                if (stack.empty())
                    break;
                const TraceEvent &b = stack.back();
                const bool stamped =
                    b.fabricNs > 0 && ev.fabricNs >= b.fabricNs;
                out.spans.push_back(
                    {b.name, b.track, b.hostNs, ev.hostNs,
                     stamped ? ev.fabricNs - b.fabricNs : -1.0});
                stack.pop_back();
                break;
            }
            case EventKind::Instant:
                out.instants.push_back({ev.name, ev.track, ev.hostNs,
                                        ev.arg, ev.arg2});
                break;
            case EventKind::Counter:
                break; // sampled gauges are not span analytics
            }
        }
        for (auto &[track, stack] : open)
            for (const TraceEvent &b : stack)
                out.spans.push_back(
                    {b.name, b.track, b.hostNs, lastHostNs, -1.0});
    }
    return out;
}

namespace {

uint32_t
trackFromPid(double pid)
{
    // Chrome export: pid 0 = service, pid 1+s = shard s.
    return pid < 0.5 ? kServiceTrack
                     : static_cast<uint32_t>(pid + 0.5) - 1;
}

int64_t
nsFromUs(double tsUs)
{
    return static_cast<int64_t>(std::llround(tsUs * 1000.0));
}

} // namespace

bool
profileFromChromeJson(const json::Value &doc, ProfileInput &out)
{
    out = ProfileInput{};
    const json::Value *events = doc.find("traceEvents");
    if (!events || !events->isArray())
        return false;
    if (const json::Value *other = doc.find("otherData")) {
        out.eventCount = static_cast<uint64_t>(
            other->numberOr("event_count", 0.0));
        out.droppedEvents = static_cast<uint64_t>(
            other->numberOr("dropped_events", 0.0));
    }
    // Per (pid, tid) begin stacks; tid separates writer lanes so the
    // pairing mirrors export-time structure.
    struct Key
    {
        uint32_t pid, tid;
        bool operator<(const Key &o) const
        {
            return pid != o.pid ? pid < o.pid : tid < o.tid;
        }
    };
    struct Begin
    {
        std::string name;
        int64_t ns;
    };
    std::map<Key, std::vector<Begin>> open;
    for (const json::Value &ev : events->items) {
        if (!ev.isObject())
            continue;
        const std::string ph = ev.stringOr("ph", "");
        const double pid = ev.numberOr("pid", 0.0);
        if (pid >= 1000.0)
            continue; // fabric-clock mirror: host spans carry deltas
        const uint32_t tid =
            static_cast<uint32_t>(ev.numberOr("tid", 0.0));
        const Key key{static_cast<uint32_t>(pid), tid};
        const int64_t ns = nsFromUs(ev.numberOr("ts", 0.0));
        if (ph == "B") {
            open[key].push_back({ev.stringOr("name", "?"), ns});
        } else if (ph == "E") {
            auto &stack = open[key];
            if (stack.empty())
                continue;
            double fabricDelta = -1.0;
            if (const json::Value *args = ev.find("args"))
                fabricDelta = args->numberOr("fabric_ns", -1.0);
            out.spans.push_back({stack.back().name,
                                 trackFromPid(pid), stack.back().ns,
                                 ns, fabricDelta});
            stack.pop_back();
        } else if (ph == "i") {
            uint64_t arg = 0, arg2 = 0;
            if (const json::Value *args = ev.find("args")) {
                arg = static_cast<uint64_t>(
                    args->numberOr("arg", 0.0));
                arg2 = static_cast<uint64_t>(
                    args->numberOr("arg2", 0.0));
            }
            out.instants.push_back({ev.stringOr("name", "?"),
                                    trackFromPid(pid), ns, arg,
                                    arg2});
        }
    }
    return true;
}

namespace {

void
fillWindow(EpochProfile &ep, const ProfileInput &in)
{
    std::map<uint32_t, ShardDrainStat> perShard;
    for (const ProfSpan &s : in.spans) {
        if (s.beginNs < ep.beginNs || s.beginNs >= ep.endNs)
            continue;
        if (s.track == kServiceTrack) {
            if (s.name == "epoch.cut")
                ep.cutNs += s.hostNs();
            else if (s.name == "epoch.coalesce")
                ep.coalesceNs += s.hostNs();
            else if (s.name == "epoch.execute")
                ep.executeNs += s.hostNs();
            else if (s.name == "epoch.prepare")
                ep.prepareNs += s.hostNs();
            else if (s.name == "epoch.plan")
                ep.planNs += s.hostNs();
            else if (s.name == "epoch.observer")
                ep.observerNs += s.hostNs();
            continue;
        }
        if (s.name != "shard.drain")
            continue;
        auto &sd = perShard[s.track];
        sd.shard = s.track;
        ++sd.drains;
        sd.hostNs += s.hostNs();
        if (s.fabricDeltaNs >= 0.0)
            sd.fabricNs += s.fabricDeltaNs;
    }
    int64_t maxHost = 0, sumHost = 0;
    for (const auto &[shard, sd] : perShard) {
        ep.shards.push_back(sd);
        sumHost += sd.hostNs;
        if (sd.hostNs > maxHost) {
            maxHost = sd.hostNs;
            ep.criticalShard = static_cast<int32_t>(shard);
        }
        ep.fabricCriticalNs = std::max(ep.fabricCriticalNs,
                                       sd.fabricNs);
    }
    if (!ep.shards.empty() && sumHost > 0) {
        const double mean = static_cast<double>(sumHost) /
                            static_cast<double>(ep.shards.size());
        ep.skew = static_cast<double>(maxHost) / mean;
    }
    if (ep.hostNs() > 0)
        ep.utilization = ep.fabricCriticalNs /
                         static_cast<double>(ep.hostNs());

    for (const ProfInstant &i : in.instants) {
        if (i.hostNs < ep.beginNs || i.hostNs >= ep.endNs)
            continue;
        // arg = priced plan ns, arg2 = priced per-op replay ns
        // (core/sharded.cpp emits both on each decision instant).
        if (i.name == "plan.commit") {
            ++ep.planCommits;
            ep.planPricedNs += static_cast<double>(i.arg);
        } else if (i.name == "plan.fallback") {
            ++ep.planFallbacks;
            ep.fallbackPricedNs += static_cast<double>(i.arg2);
        }
    }
}

} // namespace

std::vector<EpochProfile>
buildEpochProfiles(const ProfileInput &in)
{
    std::vector<EpochProfile> eps;
    for (const ProfSpan &s : in.spans) {
        if (s.track != kServiceTrack || s.name != "epoch")
            continue;
        EpochProfile ep;
        ep.beginNs = s.beginNs;
        ep.endNs = s.endNs;
        eps.push_back(ep);
    }
    if (eps.empty()) {
        // No service epochs (bench driving the engine directly):
        // analyze the whole trace as one synthetic window.
        if (in.spans.empty() && in.instants.empty())
            return eps;
        int64_t lo = std::numeric_limits<int64_t>::max();
        int64_t hi = std::numeric_limits<int64_t>::min();
        for (const ProfSpan &s : in.spans) {
            lo = std::min(lo, s.beginNs);
            hi = std::max(hi, s.endNs);
        }
        for (const ProfInstant &i : in.instants) {
            lo = std::min(lo, i.hostNs);
            hi = std::max(hi, i.hostNs);
        }
        EpochProfile ep;
        ep.synthetic = true;
        ep.beginNs = lo;
        ep.endNs = hi + 1; // half-open window includes the last stamp
        eps.push_back(ep);
    } else {
        std::sort(eps.begin(), eps.end(),
                  [](const EpochProfile &a, const EpochProfile &b) {
                      return a.beginNs < b.beginNs;
                  });
    }
    for (EpochProfile &ep : eps)
        fillWindow(ep, in);
    return eps;
}

std::string
renderEpochProfiles(const std::vector<EpochProfile> &eps)
{
    TextTable t({"epoch", "host_us", "cut_us", "coalesce_us",
                 "execute_us", "prepare_us", "plan_us", "observer_us",
                 "shards", "crit_shard", "skew", "fabric_crit_us",
                 "util", "commits", "fallbacks"});
    const auto us = [](int64_t ns) {
        return TextTable::fmt(static_cast<double>(ns) / 1e3, 1);
    };
    for (size_t i = 0; i < eps.size(); ++i) {
        const EpochProfile &ep = eps[i];
        t.addRow({ep.synthetic ? "all" : std::to_string(i),
                  us(ep.hostNs()), us(ep.cutNs), us(ep.coalesceNs),
                  us(ep.executeNs), us(ep.prepareNs), us(ep.planNs),
                  us(ep.observerNs), std::to_string(ep.shards.size()),
                  ep.criticalShard < 0
                      ? std::string("-")
                      : std::to_string(ep.criticalShard),
                  TextTable::fmt(ep.skew, 3),
                  TextTable::fmt(ep.fabricCriticalNs / 1e3, 1),
                  TextTable::fmt(ep.utilization, 4),
                  std::to_string(ep.planCommits),
                  std::to_string(ep.planFallbacks)});
    }
    return t.render();
}

FabricLedger
FabricLedger::fromStats(const core::EngineStats &st)
{
    FabricLedger led;
    for (unsigned i = 0; i < cim::kFabricCatCount; ++i)
        led.rows[i] = st.fabric.attrNs[i];
    led.totalNs = st.fabric.fabricNs;
    return led;
}

double
FabricLedger::ledgerSum() const
{
    double total = 0.0;
    for (double row : rows)
        total += row;
    return total;
}

std::string
FabricLedger::render() const
{
    TextTable t({"category", "fabric_us", "share%"});
    for (unsigned i = 0; i < cim::kFabricCatCount; ++i) {
        const double share =
            totalNs > 0.0 ? 100.0 * rows[i] / totalNs : 0.0;
        t.addRow({cim::fabricCatName(static_cast<cim::FabricCat>(i)),
                  TextTable::fmt(rows[i] / 1e3, 2),
                  TextTable::fmt(share, 1)});
    }
    t.addRow({"total", TextTable::fmt(totalNs / 1e3, 2),
              totalNs > 0.0 ? "100.0" : "0.0"});
    std::string out = t.render();
    out += exact() ? "ledger == fabric_ns total: bit-exact\n"
                   : "LEDGER MISMATCH: rows do not sum to total\n";
    return out;
}

} // namespace c2m::obs
