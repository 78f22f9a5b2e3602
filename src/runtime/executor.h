/**
 * @file
 * The compiled-program executor: a flat list of kernel invocations
 * over one pre-planned byte arena. No graph interpretation, no
 * dispatch tables, no per-step allocation happens at run time —
 * everything was resolved at compile time (the paper's central
 * systems argument).
 *
 * Parallel execution keeps that invariant: bindInto() precomputes a
 * per-node launch plan (shard count and [begin, end) ranges over the
 * kernel's declared partition domain, one fully-bound KernelCtx per
 * shard, held by the ExecContext being bound), and run() only replays
 * it — dispatching each step's shards to the worker pool with a
 * barrier before the next step. With numThreads == 1 no shards are
 * built and run() is the same straight loop as before, bit for bit.
 *
 * Arena v2: kernel scratch is no longer ad-hoc per-node vectors. The
 * planner places every workspace in the arena (live only during its
 * step) and bind resolves each shard's private instance to an arena
 * offset. Nothing in a workspace outlives its step, so scratch-bearing
 * kernels shard like any other and run() has no warm-up.
 *
 * Sessions (serving runtime): the Executor itself is an IMMUTABLE
 * compiled program — graph, order, memory plan, const pool, launch
 * geometry. All per-run mutable state (the arena, input staging
 * buffers, the step counter, and the per-shard bound KernelCtx copies
 * whose pointers land in the arena) lives in an ExecContext.
 * makeContext() mints additional contexts over the same plan + frozen
 * ParamStore, so N sessions execute the one compiled program
 * concurrently — one thread per context — with no shared mutable
 * state and no locking on the hot path. The classic single-session
 * API (run()/bindInput()/fetch()) operates on a default context owned
 * by the executor and behaves exactly as before.
 */

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/tensor.h"
#include "hw/threadpool.h"
#include "ir/graph.h"
#include "kernels/kernel.h"
#include "obs/trace.h"
#include "runtime/arena.h"
#include "runtime/paramstore.h"
#include "runtime/planner.h"

namespace pe {

/**
 * The full compiled product of one program, detached from any
 * executor: execution order, kernel-variant choices, the memory plan,
 * the launch geometry (per-step shard counts + thread count), and the
 * packed const pool (non-f32 consts already in their deployed byte
 * layout). The compile pipeline's plan step (pe::planProgram) and the
 * plan loader produce one; an Executor binds it and can export it
 * again (savePlan). Binding performs ZERO planner/scheduler
 * invocations, which is what makes binary-plan deployment "load and
 * run" rather than "recompile" (src/plan/).
 */
struct ProgramArtifact {
    std::vector<int> order;
    std::vector<std::string> variants; ///< by node id ("" = default)
    MemoryPlan plan;
    /** Compile-time shard count per kernel step (planLaunches). */
    std::vector<int> shardsPerStep;
    int numThreads = 1;
    /** Packed const buffers by node id (Const nodes only). Non-f32
     *  consts hold raw i8/f16 bytes exactly as kernels read them, so
     *  binding a loaded artifact repacks nothing. Empty in a fresh
     *  compile product (analysis-only compiles allocate no consts):
     *  the Executor packs it from the graph at bind. */
    std::vector<Tensor> constPool;
};

/** One bound kernel invocation: the launch-plan unit an ExecContext
 *  replays. Pointer fields resolve into the owning context's arena
 *  (or the executor's shared const pool / ParamStore). */
struct BoundStep {
    int node;
    KernelFn fn;
    KernelCtx ctx;
    /** Precomputed per-shard contexts; empty = run ctx serially. */
    std::vector<KernelCtx> shards;
};

/**
 * One session's mutable execution state over a compiled program: its
 * private arena (values + workspaces), input staging buffers and
 * step counter, plus the bound step list whose pointers resolve into
 * this context's storage. Contexts from
 * the same Executor share the graph, memory plan, kernel variants,
 * ParamStore and const pool strictly read-only, so distinct contexts
 * may run() concurrently from distinct threads. A single context is
 * NOT thread-safe — one in-flight request per context at a time.
 */
class ExecContext
{
  public:
    ExecContext() = default;
    ExecContext(const ExecContext &) = delete;
    ExecContext &operator=(const ExecContext &) = delete;

    /** This context's span ring; null while tracing is disarmed.
     *  Read it only between runs (see TraceBuffer's contract). */
    const TraceBuffer *trace() const { return trace_.get(); }

  private:
    friend class Executor;
    Arena arena_;                   ///< values + workspaces
    /** KV-cache region (Storage::Cache values). Zeroed ONCE at bind
     *  and never reset by run(): its contents — the session's cached
     *  K/V rows — are the state that must survive between runs.
     *  Rows change only where run() writes them or a caller writes
     *  them through Executor::rowsOf(). */
    Arena cache_;
    std::vector<Tensor> inputBufs_; ///< by node id (Input staging)
    std::vector<BoundStep> steps_;
    int64_t step_ = 0;
    /** Armed span ring (null = disarmed, the hot-path test). */
    std::unique_ptr<TraceBuffer> trace_;
    bool traceShards_ = true;
};

/**
 * Executes a scheduled graph. Pointers are resolved once at
 * construction; run() is a straight loop over bound kernel calls.
 */
class Executor
{
  public:
    /**
     * Bind a compiled product: the order, memory plan and launch
     * geometry are taken from @p art verbatim — planLaunches/
     * planMemory are NOT called (the plan loader asserts this via
     * pipelineCounters). The only bind-time choices are the kernel
     * tier (see retargetTiers) and packing the const pool when @p art
     * carries none. Throws std::runtime_error when the artifact is
     * inconsistent with @p g.
     */
    Executor(const Graph &g, ProgramArtifact art, ParamStore &store);

    /** Copy out this program's compiled product (for savePlan). */
    ProgramArtifact exportArtifact() const;

    // ---- classic single-session API (the executor's own context) ----

    /** Point an Input node at caller-owned data (shape-checked). */
    void bindInput(const std::string &name, const Tensor &t);

    /** Node id of the Input named @p name; -1 if absent. Lets callers
     *  resolve the name once and bind by id in a hot loop. */
    int inputId(const std::string &name) const;

    /** bindInput without the name lookup (id from inputId()). */
    void bindInputById(int id, const Tensor &t);

    /** Execute one step (forward [+ backward + update] as compiled). */
    void run();

    /** Copy a value out of the arena/store (by node id). */
    Tensor fetch(int node_id) const;

    // ---- session API (serving runtime) ------------------------------

    /**
     * Mint a fresh session context over this compiled program: its
     * own zeroed arena and input staging, bound against the SAME
     * memory plan, const pool and ParamStore. Read-only w.r.t. the
     * executor, so concurrent makeContext() calls are safe; the
     * returned context must then be driven by one thread at a time.
     */
    std::unique_ptr<ExecContext> makeContext() const;

    /** bindInputById against @p ctx. */
    void bindInputById(ExecContext &ctx, int id, const Tensor &t) const;

    /** Execute one step on @p ctx. Touches only @p ctx's mutable
     *  state; distinct contexts may run concurrently. */
    void run(ExecContext &ctx) const;

    /** Copy a value out of @p ctx's arena (by node id). */
    Tensor fetch(const ExecContext &ctx, int node_id) const;

    // ---- KV-cache session state (generative serving) -----------------

    /** Extent of the per-context persistent cache region; 0 for every
     *  non-generative program. */
    int64_t cacheBytes() const { return plan_.cacheBytes; }

    /**
     * Rows [@p row0, @p row0 + @p n) along dim 0 of value @p id in
     * @p ctx, as one contiguous fp32 run the caller reads or writes in
     * place: the serving runtime's one row entry point for packing
     * feeds into staging and moving KV rows between a stream and its
     * slot. The value must be an Input's staging buffer or a cache
     * value; one row of a [B, maxSeq, D] cache is one [maxSeq, D]
     * slot. A zero-row view is valid (row0 may then equal dim 0).
     * Throws std::runtime_error for an out-of-range id, rows outside
     * [0, dim 0], or any other storage: params and consts are shared
     * by every context, and run() rewrites arena values.
     */
    float *rowsOf(ExecContext &ctx, int id, int64_t row0,
                  int64_t n) const;

    // ---- execution tracing (src/obs/) --------------------------------

    /**
     * Arm @p ctx with a fresh fixed-capacity span ring: every later
     * run(ctx) records per-step (and, when @p shardSpans, per-shard)
     * TraceSpans into it. Re-arming replaces the ring. The one
     * allocation happens here; the record path allocates nothing.
     */
    void armTrace(ExecContext &ctx, size_t capacity = 1 << 14,
                  bool shardSpans = true) const;

    /** Drop @p ctx's ring; run(ctx) returns to the untraced path. */
    void disarmTrace(ExecContext &ctx) const;

    /** armTrace on the classic API's default context. */
    void armTrace(size_t capacity = 1 << 14, bool shardSpans = true);

    /** The default context's ring; null while disarmed. */
    const TraceBuffer *trace() const
    {
        return defaultCtx_ ? defaultCtx_->trace() : nullptr;
    }

    // ---- program introspection --------------------------------------

    const MemoryPlan &memoryPlan() const { return plan_; }
    const Graph &graph() const { return g_; }
    const std::vector<int> &order() const { return order_; }

    /** Number of kernel invocations per step. */
    int numSteps() const { return numSteps_; }

    /** Steps whose launch plan has more than one shard. */
    int shardedSteps() const { return countShardedSteps(shardsPerStep_); }

    /** Effective thread count of this executor's launch plan. */
    int numThreads() const { return numThreads_; }

    /** Kernel lookups that silently fell back to the default variant. */
    int fallbackCount() const { return static_cast<int>(fallbacks_.size()); }
    /** "op/variant" labels of those fallbacks (one per bound step). */
    const std::vector<std::string> &fallbackKernels() const
    {
        return fallbacks_;
    }

    /** The SIMD tier this program bound against: hostSimdTier() at
     *  construction (a loaded artifact's tier variants retarget to
     *  it). */
    SimdTier simdTier() const { return tier_; }
    /** Steps bound to a SIMD-tier kernel variant. */
    int simdSteps() const { return simdSteps_; }
    /** Per-step tier name ("scalar"/"avx2"/"neon"), in step order. */
    const std::vector<std::string> &stepTiers() const
    {
        return stepTiers_;
    }
    /** "op/variant" of each step bound to a variant with no form at
     *  the bound tier while another variant of its op has one. */
    const std::vector<std::string> &tierMisses() const
    {
        return tierMisses_;
    }

  private:
    float *resolve(ExecContext &ctx, int id) const;

    /** Ctor tail: count kernel steps, registry fallbacks and tier
     *  misses. */
    void countStepsAndFallbacks();

    /**
     * Re-point every step's variant at the kernel tier this program
     * binds (resolveTierVariant): scalar variants upgrade to this
     * host's "@avx2"/"@neon" equivalent, and tier variants this
     * registry lacks — a plan saved on another host — drop to their
     * scalar base. Tier variants register with their base's
     * partition and workspace, so every swap fits the plan; bindInto's
     * workspace and shard checks remain the safety net.
     */
    void retargetTiers();

    /** Ctor validation: artifact sizes/ids consistent with g_. */
    void validateArtifact() const;

    /** Build @p ctx's arena, staging and bound steps. Mutates only
     *  @p ctx: program-level stats (step/shard counts, fallback
     *  labels) come from the compile-time launch summary in the
     *  constructor, so contexts are interchangeable and bind is
     *  re-entrant. */
    void bindInto(ExecContext &ctx) const;

    /** The classic API's session, minted on first use so executors
     *  driven purely through makeContext() sessions (serving buckets)
     *  never allocate an arena they do not run on. */
    ExecContext &defaultCtx() const;

    const Graph &g_;
    std::vector<int> order_;
    ParamStore &store_;
    MemoryPlan plan_;
    std::vector<Tensor> constBufs_; ///< by node id; Const nodes only,
                                    ///< read-only, shared by contexts
    std::vector<std::string> variants_;
    std::vector<std::string> fallbacks_;
    SimdTier tier_ = SimdTier::Scalar;
    int simdSteps_ = 0;
    std::vector<std::string> stepTiers_; ///< tier name per step
    std::vector<std::string> tierMisses_;
    int numThreads_ = 1;
    int numSteps_ = 0;
    /** Compile-time shard count per kernel step; bindInto verifies
     *  every context's bound plan against it (see planLaunches). */
    std::vector<int> shardsPerStep_;
    ThreadPool *pool_ = nullptr; ///< owned by HostDevice; null if serial
    /** Lazy classic-API state; mutable so const reads (fetch) can
     *  mint it. The classic API is single-session by contract, so
     *  this involves no cross-thread sharing. */
    mutable std::unique_ptr<ExecContext> defaultCtx_;
};

} // namespace pe
