#include "obs/profile.h"

#include <algorithm>
#include <cstdio>
#include <unordered_set>

#include "ir/graph.h"
#include "obs/chrome.h"
#include "runtime/executor.h"

namespace pe {

namespace {

/** "12.3 KB" / "4.1 MB" — table cells stay narrow. */
std::string
fmtBytes(int64_t b)
{
    char buf[32];
    if (b >= 1 << 20)
        std::snprintf(buf, sizeof(buf), "%.1f MB",
                      static_cast<double>(b) / (1 << 20));
    else if (b >= 1 << 10)
        std::snprintf(buf, sizeof(buf), "%.1f KB",
                      static_cast<double>(b) / (1 << 10));
    else
        std::snprintf(buf, sizeof(buf), "%lld B",
                      static_cast<long long>(b));
    return buf;
}

} // namespace

std::string
countLabels(const std::vector<std::string> &labels)
{
    std::vector<std::pair<std::string, int>> counts;
    for (const std::string &label : labels) {
        auto it =
            std::find_if(counts.begin(), counts.end(),
                         [&](const auto &c) { return c.first == label; });
        if (it == counts.end())
            counts.emplace_back(label, 1);
        else
            ++it->second;
    }
    std::string out;
    for (const auto &[label, n] : counts) {
        if (!out.empty())
            out += ", ";
        out += label + " x" + std::to_string(n);
    }
    return out;
}

ProfileReport
profileTrace(const Executor &ex, const TraceBuffer &trace)
{
    ProfileReport r;
    r.droppedSpans = trace.dropped();
    r.flopsPerStep = ex.graph().totalFlops();
    r.kernelFallbacks = ex.fallbackCount();
    r.fallbackBreakdown = countLabels(ex.fallbackKernels());

    // Per-step rows keyed by stepIndex; the trace may not cover every
    // compiled step (ring overflow), so rows exist only for recorded
    // indices but stay in execution order.
    std::vector<TraceSpan> spans = trace.snapshot();
    std::vector<ProfileStepRow> byStep(
        static_cast<size_t>(ex.numSteps()));
    std::unordered_set<int64_t> runIds;
    for (const TraceSpan &s : spans) {
        if (s.kind != SpanKind::Step)
            continue;
        if (s.stepIndex < 0 || s.stepIndex >= ex.numSteps())
            continue;
        ProfileStepRow &row =
            byStep[static_cast<size_t>(s.stepIndex)];
        if (row.calls == 0) {
            row.stepIndex = s.stepIndex;
            row.node = s.node;
            row.op = s.op;
            row.variant = s.variant;
            row.shards = s.shards;
            row.flops = nodeFlops(ex.graph(), ex.graph().node(s.node));
            row.outBytes = ex.memoryPlan().values[s.node].bytes;
            for (const WorkspacePlacement &w :
                 ex.memoryPlan().workspaces) {
                if (w.node == s.node)
                    row.workspaceBytes =
                        static_cast<int64_t>(w.shards) *
                        w.bytesPerShard;
            }
        }
        ++row.calls;
        row.totalNs += s.durNs;
        runIds.insert(s.runId);
        ++r.stepSpans;
        r.totalNs += s.durNs;
    }
    r.runs = static_cast<int64_t>(runIds.size());

    double totalFlops = 0;
    for (ProfileStepRow &row : byStep) {
        if (row.calls == 0)
            continue;
        row.timeShare = r.totalNs > 0
                            ? static_cast<double>(row.totalNs) /
                                  static_cast<double>(r.totalNs)
                            : 0;
        row.gflops = row.totalNs > 0
                         ? row.flops *
                               static_cast<double>(row.calls) /
                               static_cast<double>(row.totalNs)
                         : 0;
        totalFlops += row.flops * static_cast<double>(row.calls);
        r.steps.push_back(row);
    }
    r.gflops = r.totalNs > 0
                   ? totalFlops / static_cast<double>(r.totalNs)
                   : 0;

    // Per-op fold, sorted by time.
    for (const ProfileStepRow &row : r.steps) {
        ProfileOpRow *op = nullptr;
        for (ProfileOpRow &o : r.ops) {
            if (o.op == row.op)
                op = &o;
        }
        if (!op) {
            r.ops.push_back({});
            op = &r.ops.back();
            op->op = row.op;
        }
        ++op->steps;
        op->calls += row.calls;
        op->totalNs += row.totalNs;
    }
    for (ProfileOpRow &o : r.ops) {
        o.timeShare = r.totalNs > 0
                          ? static_cast<double>(o.totalNs) /
                                static_cast<double>(r.totalNs)
                          : 0;
        double f = 0;
        for (const ProfileStepRow &row : r.steps) {
            if (row.op == o.op)
                f += row.flops * static_cast<double>(row.calls);
        }
        o.gflops = o.totalNs > 0
                       ? f / static_cast<double>(o.totalNs)
                       : 0;
    }
    std::sort(r.ops.begin(), r.ops.end(),
              [](const ProfileOpRow &a, const ProfileOpRow &b) {
                  return a.totalNs > b.totalNs;
              });
    return r;
}

std::string
ProfileReport::table() const
{
    char buf[256];
    std::string out;
    std::snprintf(buf, sizeof(buf),
                  "profile: %lld runs, %lld step spans, %.3f ms "
                  "span time, %.2f GFLOP/s achieved%s\n",
                  static_cast<long long>(runs),
                  static_cast<long long>(stepSpans), totalNs / 1e6,
                  gflops,
                  droppedSpans > 0 ? " (RING OVERFLOWED)" : "");
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  "%5s  %-16s %-14s %6s %7s %10s %7s %9s %10s %10s\n",
                  "step", "op", "variant", "shards", "calls",
                  "time ms", "share", "GFLOP/s", "out", "scratch");
    out += buf;
    for (const ProfileStepRow &s : steps) {
        std::snprintf(buf, sizeof(buf),
                      "%5d  %-16s %-14s %6d %7lld %10.3f %6.1f%% "
                      "%9.2f %10s %10s\n",
                      s.stepIndex, s.op.c_str(),
                      s.variant.empty() ? "default"
                                        : s.variant.c_str(),
                      s.shards, static_cast<long long>(s.calls),
                      s.totalNs / 1e6, 100.0 * s.timeShare, s.gflops,
                      fmtBytes(s.outBytes).c_str(),
                      fmtBytes(s.workspaceBytes).c_str());
        out += buf;
    }
    out += "\nby op type:\n";
    std::snprintf(buf, sizeof(buf), "%-16s %6s %7s %10s %7s %9s\n",
                  "op", "steps", "calls", "time ms", "share",
                  "GFLOP/s");
    out += buf;
    for (const ProfileOpRow &o : ops) {
        std::snprintf(buf, sizeof(buf),
                      "%-16s %6d %7lld %10.3f %6.1f%% %9.2f\n",
                      o.op.c_str(), o.steps,
                      static_cast<long long>(o.calls), o.totalNs / 1e6,
                      100.0 * o.timeShare, o.gflops);
        out += buf;
    }
    return out;
}

std::string
ProfileReport::summary(int topN) const
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "profile: %lld runs, %zu steps, %.2f ms span time, "
                  "%.2f GFLOP/s\n",
                  static_cast<long long>(runs), steps.size(),
                  totalNs / 1e6, gflops);
    std::string out = buf;
    out += "top ops by time:";
    int shown = 0;
    for (const ProfileOpRow &o : ops) {
        if (shown++ >= topN)
            break;
        std::snprintf(buf, sizeof(buf), " %s %.1f%%", o.op.c_str(),
                      100.0 * o.timeShare);
        out += buf;
    }
    out += "\nkernel fallbacks: ";
    if (kernelFallbacks == 0)
        out += "none";
    else
        out += std::to_string(kernelFallbacks) + " -> " +
               fallbackBreakdown;
    out += "\n";
    return out;
}

std::string
ProfileReport::json() const
{
    char buf[256];
    std::string out = "{";
    std::snprintf(buf, sizeof(buf),
                  "\"runs\":%lld,\"step_spans\":%lld,"
                  "\"dropped_spans\":%lld,\"total_ns\":%lld,"
                  "\"flops_per_step\":%.17g,\"gflops\":%.17g,"
                  "\"kernel_fallbacks\":%d,",
                  static_cast<long long>(runs),
                  static_cast<long long>(stepSpans),
                  static_cast<long long>(droppedSpans),
                  static_cast<long long>(totalNs), flopsPerStep,
                  gflops, kernelFallbacks);
    out += buf;
    out += "\"fallback_breakdown\":\"";
    jsonEscape(out, fallbackBreakdown);
    out += "\",\"steps\":[";
    for (size_t i = 0; i < steps.size(); ++i) {
        const ProfileStepRow &s = steps[i];
        if (i)
            out += ",";
        out += "{\"step\":" + std::to_string(s.stepIndex) +
               ",\"node\":" + std::to_string(s.node) + ",\"op\":\"";
        jsonEscape(out, s.op);
        out += "\",\"variant\":\"";
        jsonEscape(out, s.variant);
        std::snprintf(buf, sizeof(buf),
                      "\",\"shards\":%d,\"calls\":%lld,"
                      "\"total_ns\":%lld,\"time_share\":%.17g,"
                      "\"flops\":%.17g,\"gflops\":%.17g,"
                      "\"out_bytes\":%lld,\"workspace_bytes\":%lld}",
                      s.shards, static_cast<long long>(s.calls),
                      static_cast<long long>(s.totalNs), s.timeShare,
                      s.flops, s.gflops,
                      static_cast<long long>(s.outBytes),
                      static_cast<long long>(s.workspaceBytes));
        out += buf;
    }
    out += "],\"ops\":[";
    for (size_t i = 0; i < ops.size(); ++i) {
        const ProfileOpRow &o = ops[i];
        if (i)
            out += ",";
        out += "{\"op\":\"";
        jsonEscape(out, o.op);
        std::snprintf(buf, sizeof(buf),
                      "\",\"steps\":%d,\"calls\":%lld,"
                      "\"total_ns\":%lld,\"time_share\":%.17g,"
                      "\"gflops\":%.17g}",
                      o.steps, static_cast<long long>(o.calls),
                      static_cast<long long>(o.totalNs), o.timeShare,
                      o.gflops);
        out += buf;
    }
    out += "]}";
    return out;
}

} // namespace pe
