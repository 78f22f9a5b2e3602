/**
 * @file
 * The primitive operator catalogue of the PockEngine IR.
 *
 * Forward and backward graphs are built from this single op set
 * (Section 2.5 of the paper: "the same set of primitive operations as
 * inference"), which is what lets inference-style backends execute
 * training graphs. Gradient-specific ops (e.g. Conv2dBwdWeight) are
 * ordinary catalogue members with ordinary kernels.
 */

#pragma once

#include <string>

namespace pe {

/** Every operator the IR can express. */
enum class OpKind {
    // --- graph sources -------------------------------------------------
    Input,      ///< runtime-fed tensor (data, labels)
    Param,      ///< persistent tensor (weights, optimizer state)
    Const,      ///< compile-time constant

    // --- elementwise binary (numpy broadcast) ---------------------------
    Add, Sub, Mul, Div,

    // --- elementwise unary ----------------------------------------------
    Neg, Relu, Gelu, Silu, Sigmoid, Tanh, Exp, Log, Sqrt,
    Scale,      ///< y = alpha * x        (attr "alpha")
    AddScalar,  ///< y = x + alpha        (attr "alpha")

    // --- activation backward helpers ------------------------------------
    ReluGrad,    ///< dx = dy * (x > 0)           inputs: x, dy
    GeluGrad,    ///< dx = dy * gelu'(x)          inputs: x, dy
    SiluGrad,    ///< dx = dy * silu'(x)          inputs: x, dy
    SigmoidGrad, ///< dx = dy * s(x)(1-s(x))      inputs: x, dy
    TanhGrad,    ///< dx = dy * (1 - tanh(x)^2)   inputs: x, dy

    // --- linear algebra ---------------------------------------------------
    MatMul,      ///< 2-D GEMM, attrs "transA"/"transB"
    BatchMatMul, ///< 3-D batched GEMM [B,M,K]x[B,K,N], same trans attrs

    // --- shape ------------------------------------------------------------
    Reshape,     ///< attr "shape" (one -1 allowed)
    Permute,     ///< attr "perm", rank <= 4
    Slice,       ///< attr "axis","begin","end"
    Pad,         ///< zero-pad one axis, attr "axis","before","after"
    BroadcastTo, ///< attr "shape"

    // --- reductions ---------------------------------------------------------
    ReduceSum,   ///< attr "axes", "keepdims"
    ReduceMean,  ///< attr "axes", "keepdims"

    // --- convolution (NCHW) ---------------------------------------------
    Conv2d,           ///< attrs "stride","pad"; W:[Co,Ci,Kh,Kw]
    Conv2dBwdInput,   ///< inputs: W, dy  -> dx
    Conv2dBwdWeight,  ///< inputs: x, dy  -> dW; attr "limitCo" for
                      ///< sub-layer (channel-sparse) backprop
    DwConv2d,         ///< depthwise, W:[C,1,Kh,Kw]
    DwConv2dBwdInput,
    DwConv2dBwdWeight, ///< attr "limitCo"

    // --- pooling -------------------------------------------------------------
    AvgPool2d,     ///< attrs "kernel","stride"
    AvgPool2dGrad,
    GlobalAvgPool,     ///< [N,C,H,W] -> [N,C]
    GlobalAvgPoolGrad, ///< inputs: dy, x(for shape) -> dx

    // --- softmax / normalization ------------------------------------------
    Softmax,        ///< over last axis
    SoftmaxGrad,    ///< inputs: y, dy
    LayerNorm,      ///< inputs: x, gamma, beta; attr "eps"
    LayerNormGradX,     ///< inputs: x, gamma, dy
    LayerNormGradGamma, ///< inputs: x, dy
    RMSNorm,        ///< inputs: x, gamma; attr "eps"
    RMSNormGradX,       ///< inputs: x, gamma, dy
    RMSNormGradGamma,   ///< inputs: x, dy

    // --- embedding ----------------------------------------------------------
    Embedding,     ///< inputs: table [V,D], ids [B,S] -> [B,S,D]
    EmbeddingGrad, ///< inputs: ids, dy -> dTable [V,D]

    // --- losses ---------------------------------------------------------------
    CrossEntropy,     ///< inputs: logits [N,C], labels [N] -> [1]
    CrossEntropyGrad, ///< -> dLogits (softmax - onehot) / N
    Mse,              ///< inputs: pred, target -> [1]
    MseGrad,

    // --- optimizer application (in-place on first input) --------------------
    ApplySgd,      ///< inputs: param, grad; attrs lr, wd, "offset","count"
    ApplyMomentum, ///< inputs: param, grad, vel; attrs lr, momentum
    ApplyAdam,     ///< inputs: param, grad, m, v; attrs lr, b1, b2, eps
    ApplyLion,     ///< inputs: param, grad, m; attrs lr, b1, b2, wd
    AccumGrad,     ///< inputs: buf, grad; buf += grad (in-place)

    // --- fused ops created by the fusion pass --------------------------------
    ConvBiasAct,   ///< Conv2d + bias + activation; attr "act"
    DwConvBiasAct,
    MatMulBiasAct, ///< MatMul + bias + activation; attr "act"

    // --- quantization (src/quant/, QuantizePass) -----------------------------
    // Storage-dtype boundary ops. "dtype" attr names the non-f32 side
    // ("i8" or "f16"); int8 carries per-tensor affine params
    // ("yScale"/"yZp" on Quantize, "xScale"/"xZp" on Dequantize) or,
    // for weights, per-channel scales as a Const f32 input plus a
    // "qaxis" attr (symmetric, zero-point 0).
    Quantize,   ///< f32 -> i8|f16; inputs: x [, scales]
    Dequantize, ///< i8|f16 -> f32; inputs: qx [, scales]
    Requantize, ///< i8 -> i8 rescale; attrs xScale/xZp/yScale/yZp

    // Int8 compute with int32 accumulation. Inputs: qx, qw
    // [, bias f32] [, wscales f32]; attrs "hasBias", "perChannel",
    // "act" plus the originating op's attrs (stride/pad or
    // transA/transB) and quant params xScale/xZp, wScale (per-tensor
    // symmetric weights), yScale/yZp. The fused bias+act forms are the
    // same op with hasBias=1 / act != kActNone.
    QuantMatMul,
    QuantConv2d,
    QuantDwConv2d,
    QuantAdd,  ///< inputs qa, qb; attrs xScale/xZp, bScale/bZp, yScale/yZp
    QuantRelu, ///< relu in the dequantized domain, requantized output

    // --- generative serving (KV cache) ---------------------------------
    // Writes rows of x into a persistent cache value at a runtime
    // position. The output is planned as Storage::Cache: it lives in
    // the per-context cache region, which survives across runs of one
    // session (every other planned value dies within a run). Only the
    // written rows change; everything else keeps its prior contents.
    //
    //   x [B,S,D], pos [1] or [B,1]  -> cache [B, maxSeq, D]
    //   per slot b, rows [pos_b, pos_b+S) receive x[b] (a prefill is
    //   B = 1 with the S prompt rows, a decode step S = 1).
    //
    // attr "maxSeq" fixes the cache extent at compile time.
    CacheWrite,

    // Scaled-dot-product attention collapsed into one op by the
    // fuseAttention pass (five ops / four arena intermediates -> one
    // op whose QK row, softmax, and V-accumulate all live in per-shard
    // workspace). Inputs: Q, K, V and an optional mask; attrs "scale"
    // (1/sqrt(Dh)) and "heads" (H >= 1).
    //
    //   Q [L*S, H*Dh], K/V [L, M, H*Dh] [, mask [R, M]]
    //     -> [L*S, H*Dh]: per head h, softmax(Q_h K_h^T * scale +
    //        mask) V_h, with row r of Q attending to the K/V slab of
    //        lead r/S through mask row r mod R. Q, K, V and the
    //        output stay in the packed head layout (head h is columns
    //        [h*Dh, (h+1)*Dh)).
    //
    // The mask has three forms: shared, R = S (one [S, M] mask for
    // every lead); per row, R = L*S; or absent (three inputs, every
    // column visible).
    //
    // Always fp32: the QuantizePass never rewrites it (like the
    // BatchMatMul/Softmax subgraph it replaces), so int8 graphs reach
    // it through the auto-inserted Dequantize boundaries unchanged.
    FusedAttention,

    Identity,
};

/** The additive mask entry of a hidden attention column: a score
 *  plus it exps to exactly 0.0f, and FusedAttention stops each row
 *  before its trailing run of entries at or below it. */
inline constexpr float kMaskedScore = -1e30f;

/** Activation codes for the fused ops' "act" attribute. */
enum ActKind : int64_t { kActNone = 0, kActRelu = 1, kActGelu = 2,
                         kActSilu = 3 };

/** Printable mnemonic, e.g. "MatMul". */
const char *opName(OpKind op);

/** Parse a mnemonic back to an OpKind (for deserialization). */
OpKind opFromName(const std::string &name);

/** True for Input/Param/Const. */
bool isSourceOp(OpKind op);

/** True for the in-place optimizer ops (output aliases input 0). */
bool isInPlaceOp(OpKind op);

/** True for the int8-compute ops the QuantizePass emits (the ops the
 *  backend switcher binds to the "int8" kernel variants). */
bool isQuantComputeOp(OpKind op);

/** Approximate FLOP count heuristics live with the op table. */
} // namespace pe
