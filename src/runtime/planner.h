/**
 * @file
 * Tensor lifetime analysis and arena memory planning (Arena v2).
 *
 * Given an execution order, every non-persistent value gets a
 * [firstDef, lastUse] interval and a byte offset inside ONE
 * byte-addressed arena via greedy best-fit. Kernel workspaces are
 * planned in the same arena with the same lifetime machinery: a
 * step's workspace is live only during that step (so best-fit reuses
 * the space across steps), with one instance per shard of the step's
 * launch plan. The arena size IS the measured activation/gradient/
 * scratch memory of the training step, so the operator-reordering
 * ablation and Table 4 read honest numbers from here — kernel scratch
 * no longer hides outside the plan.
 */

#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/dtype.h"
#include "ir/graph.h"

namespace pe {

/** Where a value's storage lives. */
enum class Storage {
    Arena,    ///< activation/gradient/temporary, planned offsets
    Param,    ///< persistent, owned by the ParamStore
    ConstBuf, ///< compile-time constant
    External, ///< Input node, bound by the caller
    Alias,    ///< in-place op output; storage of its input 0
    // Appended after Alias so the serialized u8 tags 0-4 of format-v1
    // plans keep their meaning.
    Cache,    ///< KV-cache value: per-context region that SURVIVES
              ///< across runs of one session (offset is relative to
              ///< the cache region, not the arena)
};

/** One value's placement. */
struct ValuePlacement {
    Storage storage = Storage::Arena;
    DType dtype = DType::F32; ///< storage element type
    int64_t offset = 0;  ///< arena byte offset (Storage::Arena only)
    int64_t bytes = 0;   ///< numel * dtypeSize(dtype)
    int defPos = -1;     ///< position in the execution order
    int lastUsePos = -1;
};

/**
 * A kernel workspace the planner must place: @p shards private
 * instances of @p bytesPerShard bytes live only during the step.
 * Built by planLaunches() from the kernel registry's WorkspaceSpec
 * declarations and the bind-time shard counts.
 */
struct WorkspaceRequest {
    int node = -1;            ///< graph node id of the step
    int64_t bytesPerShard = 0;
    int shards = 1;
};

/** Where a step's workspace landed in the arena. */
struct WorkspacePlacement {
    int node = -1;
    int stepPos = -1;         ///< execution position (its lifetime)
    int shards = 1;
    int64_t bytesPerShard = 0; ///< declared (pre-alignment) size
    int64_t shardStride = 0;   ///< aligned distance between instances
    int64_t offset = 0;        ///< base of shard 0 (arena byte offset)

    /** Arena byte offset of shard @p i's workspace instance. */
    int64_t
    shardOffset(int i) const
    {
        return offset + static_cast<int64_t>(i) * shardStride;
    }
};

/** Result of planning a graph against an execution order. */
struct MemoryPlan {
    std::vector<ValuePlacement> values; ///< indexed by node id
    /** One entry per scratch-bearing step, in execution order. */
    std::vector<WorkspacePlacement> workspaces;
    int64_t arenaBytes = 0; ///< arena extent: values + workspaces
    /** Peak bytes of workspace storage live at any step (the
     *  per-shard instances of the heaviest step). Reported separately
     *  so footprint columns stay comparable with pre-Arena-v2
     *  numbers. */
    int64_t workspaceBytes = 0;
    int64_t paramBytes = 0; ///< weights + optimizer state
    int64_t constBytes = 0;
    int64_t inputBytes = 0;
    /** Arena value bytes split by storage dtype (index = DType) —
     *  the per-precision activation footprint the quantized modes
     *  are judged on. Workspaces excluded (reported separately). */
    std::array<int64_t, 3> arenaValueBytesByDtype{};
    /** Const bytes split by storage dtype (pre-quantized i8 weights
     *  land here in deployment compiles). */
    std::array<int64_t, 3> constBytesByDtype{};
    /** Live arena bytes (values + workspaces) during each execution
     *  position — the per-step memory timeline Table 4's peak is the
     *  max of. Indexed by position in the order. */
    std::vector<int64_t> liveBytesAtStep;
    /** max(liveBytesAtStep): peak simultaneously-live bytes; differs
     *  from arenaBytes only by best-fit fragmentation. */
    int64_t peakLiveBytes = 0;
    /** Extent of the per-context persistent cache region (KV caches).
     *  Zero for every non-generative graph. Cache values never join
     *  the arena's lifetime churn: they are monotonically packed here
     *  and the executor zeroes the region once at bind, never between
     *  runs — that "never" IS the cross-run persistence. */
    int64_t cacheBytes = 0;

    /** Total per-session footprint (Table 4's metric; cacheBytes is 0
     *  for every non-generative graph, so historical rows are
     *  unchanged). */
    int64_t
    totalBytes() const
    {
        return arenaBytes + paramBytes + constBytes + inputBytes +
               cacheBytes;
    }
};

/**
 * Plan memory for @p g executed in @p order.
 *
 * Values are freed at their last use; graph outputs stay live to the
 * end of the step. In-place optimizer outputs alias their parameter
 * and consume no arena space. Each request in @p workspaces is
 * placed for exactly its step's duration.
 */
MemoryPlan planMemory(const Graph &g, const std::vector<int> &order,
                      const std::vector<WorkspaceRequest> &workspaces = {});

/**
 * The compile-time launch summary: per-step workspace requests (with
 * shard counts exactly matching what the executor's bind will build,
 * since both derive from the same PartitionSpec extents and
 * splitRange()) plus the planned shard count of every step.
 */
struct LaunchSummary {
    std::vector<WorkspaceRequest> workspaces;
    /** Planned shard count per kernel step, in execution order
     *  (source ops skipped) — the executor's bind verifies its
     *  actually-bound count against this, so any divergence (e.g. a
     *  reintroduced scratch-serializes-kernels gate) throws at bind
     *  instead of silently skewing the report. */
    std::vector<int> shardsPerStep;
};

/**
 * Evaluate every step's partition extent and workspace declaration
 * against static shapes — no buffers are materialized, so this also
 * serves analysis-only compiles of models too large to execute.
 */
LaunchSummary planLaunches(const Graph &g, const std::vector<int> &order,
                           const std::vector<std::string> &variants,
                           int numThreads);

/** Steps whose launch plan has more than one shard. */
int countShardedSteps(const std::vector<int> &shardsPerStep);

/**
 * Process-wide invocation counts of the compile pipeline's expensive
 * stages. The binary-plan loader (src/plan/) snapshots these around a
 * load and asserts zero delta — the executable proof that loading a
 * serialized plan performs NO planning, scheduling or quantization
 * work, only pointer binding. Counters are monotonically increasing
 * and atomic; they are a debugging/assertion aid, not a profiler.
 */
struct PipelineCounters {
    int64_t planMemory = 0;   ///< planMemory() calls
    int64_t planLaunches = 0; ///< planLaunches() calls
    int64_t reorder = 0;      ///< reorderForMemory() calls
    int64_t quantizePass = 0; ///< quantizePass() calls

    bool
    operator==(const PipelineCounters &o) const
    {
        return planMemory == o.planMemory &&
               planLaunches == o.planLaunches && reorder == o.reorder &&
               quantizePass == o.quantizePass;
    }
    bool operator!=(const PipelineCounters &o) const { return !(*this == o); }
};

/** Snapshot of the pipeline-stage invocation counters. */
PipelineCounters pipelineCounters();

namespace detail {
/** Increment hooks for the stages living outside planner.cc. */
void countReorderInvocation();
void countQuantizePassInvocation();
} // namespace detail

} // namespace pe
