/**
 * @file
 * Profile aggregation: fold a TraceBuffer into per-step and
 * per-op-type attribution tables — where the time went inside a run,
 * achieved GFLOP/s vs the graph's analytical FLOPs, and the bytes
 * each step touches (output placement + planned workspace).
 *
 * profileTrace() is pure analysis over a finished trace: it reads the
 * executor's compiled facts (graph, memory plan) and the recorded
 * step spans, and never perturbs execution. The report prints as an
 * aligned table (plan_tool profile), a one-paragraph summary
 * (quickstart / vision_transfer), or JSON (dashboards, CI artifacts).
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace pe {

class Executor;

/** One kernel step's aggregated profile (all runs folded). */
struct ProfileStepRow {
    int stepIndex = -1;
    int node = -1;
    std::string op;
    std::string variant; ///< bound kernel variant incl. SIMD tier
    int shards = 1;
    int64_t calls = 0;   ///< step spans folded into this row
    int64_t totalNs = 0; ///< summed wall time across calls
    double timeShare = 0;    ///< totalNs / report total
    double flops = 0;        ///< analytical FLOPs per call (nodeFlops)
    double gflops = 0;       ///< achieved: calls * flops / totalNs
    int64_t outBytes = 0;    ///< the step's output placement bytes
    int64_t workspaceBytes = 0; ///< planned scratch: shards * perShard
};

/** One op type's aggregated profile (rows merged across steps). */
struct ProfileOpRow {
    std::string op;
    int steps = 0;
    int64_t calls = 0;
    int64_t totalNs = 0;
    double timeShare = 0;
    double gflops = 0;
};

/**
 * The folded profile of one traced context. Time shares are over the
 * summed STEP span time, which is also the coverage numerator
 * plan_tool profile compares against measured wall time (the
 * acceptance bar: spans explain >= 95% of the wall).
 */
/**
 * "label xN, ..." over @p labels, counted in first-appearance order
 * ("MatMul/winograd x3, Conv2d/x x1"); "" when empty. The one
 * aggregation behind the fallback and tier breakdowns.
 */
std::string countLabels(const std::vector<std::string> &labels);

struct ProfileReport {
    int64_t runs = 0;      ///< distinct run ids seen in the trace
    int64_t stepSpans = 0; ///< step spans folded
    int64_t droppedSpans = 0; ///< ring overwrites (capacity too small)
    int64_t totalNs = 0;      ///< summed step wall time
    double flopsPerStep = 0;  ///< analytical graph FLOPs per run
    /** Achieved GFLOP/s over the whole trace (flops-weighted). */
    double gflops = 0;
    int kernelFallbacks = 0;
    std::string fallbackBreakdown; ///< "op/variant xN, ..." ("" = none)
    std::vector<ProfileStepRow> steps; ///< in execution order
    std::vector<ProfileOpRow> ops;     ///< by time, descending

    /** Aligned per-step + per-op tables (plan_tool profile). */
    std::string table() const;

    /** Top-@p topN ops by time + fallbacks, a few lines — what the
     *  examples print after their runs. */
    std::string summary(int topN = 5) const;

    /** The whole report as a JSON object. */
    std::string json() const;
};

/**
 * Fold @p trace (recorded by contexts of @p ex) into a ProfileReport.
 * Only Step spans aggregate; Shard spans refine the picture in the
 * Chrome export but would double-count wall time here.
 */
ProfileReport profileTrace(const Executor &ex,
                           const TraceBuffer &trace);

} // namespace pe
