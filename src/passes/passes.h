/**
 * @file
 * Training-graph optimization passes (paper Section 3.2).
 *
 * All passes run at compile time on the unified IR, after autodiff:
 *  - dce():            dead-code elimination; with a sparse update
 *                      scheme this is what physically removes frozen
 *                      layers' gradient subgraphs and activation
 *                      buffers (Section 2.6 / 3.1).
 *  - simplify():       algebraic identities (x*1, x+0, Identity
 *                      chains) — cleans up autodiff seeds.
 *  - fuseOperators():  Conv/DwConv/MatMul + bias + activation fusion.
 *  - reorderForMemory(): memory-aware list scheduling; applies each
 *                      parameter update as soon as its gradient is
 *                      ready so gradient buffers are recycled
 *                      ("Operator Reordering and In-place Update").
 *  - switchBackends(): per-node kernel-variant selection, including
 *                      binding frozen 3x3 convolutions to Winograd,
 *                      pointwise convolutions to im2col GEMMs and
 *                      depthwise convolutions to the packed
 *                      channel-lane kernels.
 *  - constantFold():   evaluate Const-only subgraphs at compile time.
 */

#pragma once

#include <string>
#include <vector>

#include "ir/graph.h"
#include "quant/quant.h"

namespace pe {

class ParamStore;

/** Per-pass bookkeeping, aggregated by the engine for reporting. */
struct PassStats {
    int nodesRemoved = 0;
    int nodesFused = 0;
    int nodesFolded = 0;
    int winogradBound = 0;
    int blockedBound = 0;
    int int8Bound = 0;   ///< quant compute ops bound to "int8" variants
    int im2colBound = 0; ///< convs bound to the "im2col" GEMM lowering
};

/** Nodes reachable from the graph outputs (plus in-place effects). */
std::vector<bool> liveSet(const Graph &g);

/** Remove unreachable nodes. @return number removed. */
int dce(Graph &g);

/** Algebraic simplifications; run before fusion. @return rewrites. */
int simplify(Graph &g);

/**
 * Fuse (Conv2d|DwConv2d|MatMul) + bias-Add [+ activation] into the
 * fused ops. Only fires when the intermediate values have no other
 * consumers — in a training graph that is exactly the frozen layers
 * plus every layer whose pre-activation is not needed by backward
 * (ReLU layers qualify; see autodiff.cc).
 * @return number of fusions performed.
 */
int fuseOperators(Graph &g);

/**
 * Collapse the scaled-dot-product attention chain
 * NetBuilder::attention emits
 *
 *   BatchMatMul(split(Q), split(K), transB=1) -> Scale
 *     [-> Add(mask)] -> Softmax -> BatchMatMul(., split(V)) -> merge
 *
 * into one FusedAttention node over Q [L*S,H*Dh], K/V [L,M,H*Dh] and
 * the mask (attrs "scale" from the Scale's alpha and "heads").
 * split is reshape{L,T,H,Dh} -> permute{0,2,1,3} -> reshape{L*H,T,Dh}
 * and merge is its inverse back to [L*S,H*Dh]. The mask takes one of
 * three forms: a shared [S,M] node the Add broadcasts itself, a
 * per-row [L*S,M] source behind reshape{L,1,S,M} ->
 * BroadcastTo{L,H,S,M} -> reshape{L*H,S,M}, or none (Scale feeds the
 * Softmax; the fused op then has three inputs). Every intermediate
 * must be single-use. The merge's last reshape is rewritten in place,
 * so its id, name, output status and calibration range survive; the
 * dead chain is left for dce().
 * @param unfused if set, receives the count of chains that match the
 *        core (Batch)MatMul -> Scale [-> Add] -> Softmax ->
 *        (Batch)MatMul but were left unfused.
 * @return number of attention chains fused.
 */
int fuseAttention(Graph &g, int *unfused = nullptr);

/** Evaluate nodes whose inputs are all data-carrying Consts. */
int constantFold(Graph &g);

/**
 * Memory-aware list scheduling. Greedy: among ready nodes, prefer
 * in-place parameter updates, then the node with the best
 * (bytes freed - bytes allocated) balance.
 */
std::vector<int> reorderForMemory(const Graph &g);

/** The unoptimized baseline order (creation order). */
std::vector<int> naturalOrder(const Graph &g);

/** Backend-switching options. */
struct BackendOptions {
    bool enableWinograd = true; ///< frozen 3x3 s1 convs -> Winograd
    bool enableBlocked = true;  ///< GEMMs -> blocked, convs and
                                ///< pointwise conv grads -> im2col,
                                ///< depthwise -> packed
};

/**
 * Choose a kernel variant per node. Frozen-weight 3x3 stride-1
 * convolutions get "winograd" (filters transformed on every call).
 * Under enableBlocked, every other Conv2d / ConvBiasAct gets "im2col"
 * at any size, fused or not: a pointwise conv (1x1, stride 1, pad 0 —
 * isPointwiseConv) is a GEMM over the input image read in place, with
 * no column workspace, and any other conv unfolds one kGemmBlock-wide
 * column panel at a time into a k x min(ho*wo, kGemmBlock) workspace.
 * The Conv2dBwdInput / Conv2dBwdWeight of a pointwise conv get
 * "im2col" too (the GEMMs W^T dY and dY X^T); spatial ones keep the
 * direct loops. Every MatMul, MatMulBiasAct and BatchMatMul gets
 * "blocked" at any size: the body reads a row-major B in place (no
 * workspace), so it beats the naive loop down to decode's M = 4, and
 * it is the form the SIMD tier upgrades. Only a one-row GEMM with a
 * transposed B keeps the default: the naive loop reads both operands
 * contiguously, and blocked would pack all of B for a single row.
 * DwConv2d, DwConvBiasAct and DwConv2dBwdInput get "packed": per
 * (image, 8-channel block) the planes are packed channel-lane-major
 * into the shard's workspace and every output pixel runs 8 channel
 * lanes over its in-bounds taps, bit-identical to the direct loops on
 * every tier (the input gradient drops the direct loop's dY == 0 skip,
 * which matters only for non-finite weights). The depthwise weight
 * gradient keeps the direct loop. Every fused-op variant is its unfused op's kernel plus the shared
 * bias + activation epilogue, so it reaches the same SIMD tier forms.
 * Quant compute ops get "int8" (ops whose int8 kernel is not
 * registered fall back to the dequant->fp32->requant reference
 * kernel, surfaced via CompileReport's fallback counters); everything
 * else keeps the default.
 */
std::vector<std::string> switchBackends(const Graph &g,
                                        const BackendOptions &opts,
                                        PassStats *stats = nullptr);

// ---- QuantizePass (src/passes/quantize.cc) ---------------------------

/** Configuration of the graph quantization rewrite. */
struct QuantizeOptions {
    Precision precision = Precision::Int8;
    /**
     * Forward-region root: only ancestors of this node are rewritten,
     * which is what keeps the sparse-BP backward graph (descendants
     * of the loss) in fp32. -1 = ancestors of all graph outputs
     * (inference graphs).
     */
    int root = -1;
    /**
     * Quantize frozen Param weights at compile time into i8 Const
     * nodes (deployment shape: the fp32 masters drop out of the
     * graph, and out of the reported parameter footprint, after DCE).
     * Requires @p store for the weight values; trainable weights are
     * always re-quantized at run time from their fp32 masters so
     * sparse-BP fine-tuning keeps working on a quantized forward.
     */
    bool prequantizeFrozen = false;
    /** Weight values for scale computation / prequantization. Null is
     *  allowed (analysis-only compiles): scales become placeholders. */
    const ParamStore *store = nullptr;
};

/** What the QuantizePass did — folded into the compile report. */
struct QuantizeStats {
    int quantizedOps = 0;        ///< compute nodes rewritten to int8
                                 ///< (or wrapped in f16 storage)
    int quantizeNodes = 0;       ///< Quantize nodes inserted
    int dequantizeNodes = 0;     ///< Dequantize nodes inserted
    int requantFolded = 0;       ///< Dequantize->Quantize chains folded
    int prequantizedWeights = 0; ///< weights folded to i8 Consts
};

/**
 * Rewrite the forward region of @p g to quantized storage.
 *
 * Int8: eligible ops (Conv2d/DwConv2d/MatMul, their fused BiasAct
 * forms, same-shape Add, Relu) whose values carry calibration attrs
 * (see calibrate()) are rewritten to the Quant* op set — int8
 * storage, int32 accumulation, per-output-channel weight scales.
 * Boundary Quantize/Dequantize nodes are inserted where quantized
 * values meet fp32 consumers (the backward graph, losses, pooling);
 * Dequantize->Quantize chains fold to Requantize (or nothing).
 *
 * F16: the same eligible ops keep fp32 compute but their outputs are
 * stored as f16 (Quantize/Dequantize casts) — a pure activation-
 * footprint mode.
 *
 * @return number of compute ops converted
 */
int quantizePass(Graph &g, const QuantizeOptions &opts,
                 QuantizeStats *stats = nullptr);

} // namespace pe
