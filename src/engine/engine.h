/**
 * @file
 * The PockEngine facade: compile a forward graph + loss + sparse
 * update scheme into an executable training program (paper Fig. 4).
 *
 * Pipeline: apply scheme -> compile-time autodiff -> emit in-place
 * optimizer -> simplify -> attention fusion -> constant fold ->
 * operator fusion -> DCE (prunes the frozen layers' backward
 * subgraphs) -> quantization -> backend/kernel switching -> schedule
 * (memory-aware reordering) -> launch + memory planning -> bind.
 * Everything up to the memory plan happens once, in one lowering
 * function shared by training and inference compiles; binding only
 * resolves pointers into that plan.
 */

#pragma once

#include <array>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "autodiff/autodiff.h"
#include "engine/scheme.h"
#include "obs/profile.h"
#include "optim/optim.h"
#include "passes/passes.h"
#include "runtime/executor.h"

namespace pe {

/** Compilation switches (all graph optimizations are ablatable). */
struct CompileOptions {
    bool fuse = true;     ///< operator and attention fusion; off
                          ///< builds the unfused reference the
                          ///< parity tests/benches compare to
    bool reorder = true;  ///< memory-aware scheduling + in-place
    bool winograd = true; ///< bind frozen 3x3 convs to Winograd
    bool blocked = true;  ///< blocked GEMM variant
    bool foldConstants = true;
    OptimConfig optim = OptimConfig::sgd(0.01);
    /**
     * Gradient accumulation (paper Section 5 fine-tunes LLaMA with
     * 16-step accumulation). When > 1, the compiled step accumulates
     * scaled gradients into persistent buffers and a second, tiny
     * compiled program applies the optimizer every N-th trainStep().
     */
    int gradAccumSteps = 1;
    /**
     * Threads the bound executor may split partitionable kernels
     * across (1 = serial and bit-identical to the single-threaded
     * runtime; <= 0 = all hardware threads). The per-node launch plan
     * is fixed by the plan step, so this is a compile-time choice
     * like everything else.
     */
    int numThreads = 1;
    /**
     * Storage precision of the compiled forward graph. Int8 rewrites
     * calibrated forward ops (see pe::calibrate) to int8 storage with
     * int32 accumulation, keeping the sparse-BP backward graph in
     * fp32; F16 stores forward activations as halves with fp32
     * compute. The optimizer and parameter masters stay fp32 in every
     * mode, so fine-tuning on a quantized forward keeps working.
     */
    Precision precision = Precision::F32;
};

/** What the compiler did — consumed by benches and EXPERIMENTS.md. */
struct CompileReport {
    int forwardNodes = 0;     ///< nodes before autodiff
    int backwardNodes = 0;    ///< nodes emitted by autodiff
    int trainableTensors = 0;
    int prunedNodes = 0;      ///< removed by DCE (frozen subgraphs)
    int fusions = 0;
    /** Attention chains (QK^T -> Scale [-> Add] -> Softmax -> .V)
     *  that fuseAttention saw but left unfused: a chain outside the
     *  one FusedAttention form (say, a mask of another shape, or a
     *  training graph whose backward reads the softmax) silently
     *  keeps its ops and per-head copies. */
    int attentionUnfused = 0;
    int folded = 0;
    PassStats backend;
    int kernelSteps = 0;      ///< runtime kernel invocations per step
    double flopsPerStep = 0;
    /** Planned arena extent: activations/gradients AND kernel
     *  workspaces (Arena v2 — scratch no longer hides off-plan). */
    int64_t arenaBytes = 0;
    int64_t arenaBytesNoReorder = 0; ///< ablation: natural order
    /** Peak kernel-workspace bytes inside the arena (the per-shard
     *  instances of the heaviest step). Reported separately so
     *  footprint columns remain comparable with pre-workspace-aware
     *  numbers. */
    int64_t workspaceBytes = 0;
    int64_t paramBytes = 0;
    int64_t totalBytes = 0;          ///< Table 4 metric
    /** Live arena bytes at each execution position — the per-step
     *  memory timeline behind Table 4's peak. */
    std::vector<int64_t> memoryTimeline;
    int64_t peakLiveBytes = 0;       ///< max over memoryTimeline
    /** Steps whose bound launch plan has more than one shard. */
    int shardedSteps = 0;
    /**
     * Kernel lookups that silently degraded to the default variant
     * because the requested one is not registered — nonzero means the
     * backend-switching pass selected something the kernel library
     * cannot honor (a real bug on a real backend, and previously
     * invisible).
     */
    int kernelFallbacks = 0;
    std::vector<std::string> fallbackKernels; ///< "op/variant" labels
    /** SIMD tier the executor bound against ("scalar"/"avx2"/"neon"):
     *  the host's at bind, so a loaded plan's tier variants retarget
     *  to it. Scalar bits come from a -DPE_SIMD=OFF build. */
    std::string simdTier = "scalar";
    /** Steps bound to a SIMD-tier kernel variant. */
    int simdSteps = 0;
    /** Chosen tier per kernel step, in execution order. */
    std::vector<std::string> stepTiers;
    /**
     * Steps bound to a variant with no form at the bound SIMD tier
     * while another variant of the same op has one: the op reaches
     * the tier, this step silently does not (a one-row GEMM with a
     * transposed B keeps the naive loop; a spatial conv gradient keeps
     * the direct loop). Always zero on a scalar binding.
     */
    int tierMisses = 0;
    std::vector<std::string> tierMissKernels; ///< "op/variant" labels
    /** Storage precision this program was compiled at. */
    Precision precision = Precision::F32;
    /** What the QuantizePass did (zeros when precision == F32). */
    QuantizeStats quant;
    int64_t constBytes = 0; ///< compile-time constants (pre-quantized
                            ///< i8 weights land here when deployed)
    /** Planned arena value bytes by storage dtype (index = DType) —
     *  the per-precision activation footprint of Table 4's quantized
     *  rows. Workspaces are excluded (see workspaceBytes). */
    std::array<int64_t, 3> arenaBytesByDtype{};
    /** Const bytes by storage dtype (i8 = deployed quantized weights). */
    std::array<int64_t, 3> constBytesByDtype{};

    /**
     * The Table-4 "activation + weight" footprint: every planned
     * arena value (all dtypes, workspaces excluded) plus weights
     * (params + consts). The single definition the precision bench,
     * examples and acceptance tests all quote.
     */
    int64_t
    actWeightBytes() const
    {
        int64_t act = 0;
        for (int64_t b : arenaBytesByDtype)
            act += b;
        return act + paramBytes + constBytes;
    }

    /**
     * Per-op aggregation of the fallback labels — "op/variant x count"
     * in first-appearance order — so a model that hits the same
     * missing kernel on every layer (e.g. QuantDwConv2d's absent int8
     * tier) reads as one line, not N duplicates. Empty when every
     * selected variant is registered.
     */
    std::string
    fallbackBreakdown() const
    {
        return kernelFallbacks == 0 ? "" : countLabels(fallbackKernels);
    }

    /**
     * Per-tier aggregation of stepTiers — "tier x count" in
     * first-appearance order (e.g. "avx2 x12, scalar x3") — the
     * one-line answer to "did the SIMD tier actually bind?".
     */
    std::string tierBreakdown() const { return countLabels(stepTiers); }

    /** Per-op aggregation of tierMissKernels, like fallbackBreakdown;
     *  empty when every step that could bind the tier does. */
    std::string
    tierMissBreakdown() const
    {
        return countLabels(tierMissKernels);
    }

    /**
     * Write the plan fields (kernel steps, arena/workspace/param/const
     * bytes, memory timeline, shard stats) from @p art. The compile
     * pipeline's plan step and the plan loader are its only callers,
     * so a loaded program reports exactly the plan it was saved with.
     */
    void recordPlan(const ProgramArtifact &art);

    /** Copy the bind-time facts of @p ex: the SIMD tier and per-step
     *  tiers it bound, the steps that missed it, and the kernel
     *  lookups that fell back. */
    void recordBinding(const Executor &ex);
};

/**
 * One compile product: the compiled graph plus its plan (schedule,
 * kernel variants, launch geometry, memory plan). Plain movable data
 * with no parameters materialized and no const pool packed, so
 * analysis-only compiles of models too large to run cost no weight
 * memory. Binding it (TrainingProgram, InferenceProgram, a serving
 * bucket) hands the artifact to an Executor, which plans nothing.
 */
struct CompiledGraph {
    Graph graph;
    int lossId = -1;
    ProgramArtifact artifact;
    CompileReport report;
};

/** A compiled training step. */
class TrainingProgram
{
  public:
    /** Bind @p step (and, under gradient accumulation, the optimizer
     *  program @p apply) against @p store. Plans nothing. */
    TrainingProgram(CompiledGraph step, std::shared_ptr<ParamStore> store,
                    CompiledGraph apply = {},
                    int grad_accum_steps = 1,
                    std::vector<std::string> accum_buffers = {});

    // The executor holds a reference into graph_, so relocating a
    // program would dangle it. compile*() returns work via C++17
    // guaranteed elision; heap placement goes through CompiledGraph +
    // Executor directly (see the serving runtime's Bucket).
    TrainingProgram(TrainingProgram &&) = delete;
    TrainingProgram &operator=(TrainingProgram &&) = delete;

    /**
     * Bind inputs, run one compiled step, return the loss. Under
     * gradient accumulation the optimizer fires on every N-th call.
     */
    float trainStep(
        const std::unordered_map<std::string, Tensor> &feeds);

    const CompileReport &report() const { return report_; }
    ParamStore &params() { return *store_; }
    const Graph &graph() const { return graph_; }
    Executor &executor() { return *executor_; }

  private:
    Graph graph_;
    int lossId_;
    std::shared_ptr<ParamStore> store_;
    std::unique_ptr<Executor> executor_;
    Graph applyGraph_;                        ///< accumulation only
    std::unique_ptr<Executor> applyExecutor_; ///< accumulation only
    int gradAccumSteps_ = 1;
    int64_t microStep_ = 0;
    std::vector<std::string> accumBuffers_;
    CompileReport report_;
};

/** A compiled forward-only program (evaluation / deployment). */
class InferenceProgram
{
  public:
    /**
     * Bind a compiled product — fresh from compileInferenceGraph() or
     * deserialized by loadPlan() — with zero planner, scheduler or
     * QuantizePass work: the executor takes @p c's artifact verbatim.
     */
    InferenceProgram(CompiledGraph c, std::shared_ptr<ParamStore> store);

    // Non-relocatable for the same reason as TrainingProgram: the
    // bound executor references graph_ by address.
    InferenceProgram(InferenceProgram &&) = delete;
    InferenceProgram &operator=(InferenceProgram &&) = delete;

    /** Bind inputs, run, return the graph outputs in order. */
    std::vector<Tensor> run(
        const std::unordered_map<std::string, Tensor> &feeds);

    /**
     * Run a batch of independent feed sets through the program,
     * returning one output vector per feed set. Input names are
     * resolved to node ids once for the whole batch, so the per-item
     * cost is a memcpy plus the compiled step — the serving-style
     * fast path (run() re-resolves names on every call).
     */
    std::vector<std::vector<Tensor>> runBatch(
        const std::vector<std::unordered_map<std::string, Tensor>>
            &feeds);

    const Graph &graph() const { return graph_; }
    Executor &executor() { return *executor_; }
    const Executor &executor() const { return *executor_; }
    /** Memory/backend summary of the bound program (Table 4 rows for
     *  deployment-shaped compiles come from here). */
    const CompileReport &report() const { return report_; }

    /**
     * Serialize this compiled program — graph, order, variants,
     * memory plan, launch geometry, packed const pool, frozen params
     * — into the versioned binary plan format (src/plan/) at @p path.
     * loadPlan(path) reconstructs a bit-identical program without
     * invoking any compile pipeline stage. @p tag is a free-form
     * provenance string (plan_tool records the model recipe there so
     * `plan_tool run --verify` can rebuild and bit-compare). Defined
     * in src/plan/plan.cc.
     */
    void savePlan(const std::string &path,
                  const std::string &tag = "") const;

  private:
    Graph graph_;
    std::shared_ptr<ParamStore> store_;
    std::unique_ptr<Executor> executor_;
    CompileReport report_;
};

/**
 * Compile a training program.
 *
 * @param forward  forward graph; must contain a scalar loss node
 * @param loss_id  id of the loss node inside @p forward
 * @param scheme   sparse update scheme (which tensors train)
 * @param options  optimizer + graph-optimization switches
 * @param store    parameter storage (shared with inference programs);
 *                 created if null
 */
TrainingProgram compileTraining(const Graph &forward, int loss_id,
                                const SparseUpdateScheme &scheme,
                                const CompileOptions &options,
                                std::shared_ptr<ParamStore> store);

/**
 * Compile an inference program over @p output_ids of @p forward.
 * All parameters are treated as frozen (enables Winograd everywhere
 * eligible).
 */
InferenceProgram compileInference(const Graph &forward,
                                  const std::vector<int> &output_ids,
                                  const CompileOptions &options,
                                  std::shared_ptr<ParamStore> store);

/**
 * Run the full compile pipeline without materializing parameters or
 * binding an executor. This is how full-size (7B-parameter) models
 * are analyzed for memory (Table 4) and projected latency (Fig. 9 /
 * Table 5) on hardware this host could never execute.
 *
 * @param store  optional weight values: quantized compiles use them
 *               for per-channel weight scales (placeholder scales are
 *               planned when absent, which is fine for memory-only
 *               analysis).
 */
CompiledGraph compileGraphOnly(const Graph &forward, int loss_id,
                               const SparseUpdateScheme &scheme,
                               const CompileOptions &options,
                               const ParamStore *store = nullptr);

/**
 * The inference compile pipeline (freeze params, pick outputs, then
 * the same lowering as training: simplify/fold/fuse/DCE, deployment
 * quantization, backend switch, schedule and plan) WITHOUT binding an
 * executor. The returned CompiledGraph is plain movable data, which
 * is what lets the serving runtime place one compiled plan per shape
 * bucket at a stable address and then bind many concurrent session
 * contexts against it. compileInference() is a thin wrapper that
 * binds this product into an InferenceProgram.
 */
CompiledGraph compileInferenceGraph(const Graph &forward,
                                    const std::vector<int> &output_ids,
                                    const CompileOptions &options,
                                    std::shared_ptr<ParamStore> store);

/**
 * The plan step of the compile pipeline, and the only caller of
 * planLaunches, planMemory and reorderForMemory: schedule @p g
 * (with @p reorder, reorderForMemory's order unless creation order
 * needs a strictly smaller arena; creation order otherwise), derive
 * each step's launch geometry for @p numThreads (<= 0 = all hardware
 * threads) and place every value and kernel workspace in one arena.
 * @p variants are the kernel
 * choices by node id ("" = default; short vectors are padded). When
 * @p report is given, its plan fields and the natural-order arena
 * (arenaBytesNoReorder) are written. Graphs that skip the passes —
 * calibration runs, reference evaluation in tests and benches — get
 * their artifact here too.
 */
ProgramArtifact planProgram(const Graph &g,
                            std::vector<std::string> variants = {},
                            bool reorder = false, int numThreads = 1,
                            CompileReport *report = nullptr);

} // namespace pe
