/**
 * @file
 * Helpers shared between the scalar kernel TUs and their SIMD tier
 * counterparts (simd_avx2.cc / simd_neon.cc): GEMM operand views,
 * the int8 requantization context, activation math, the im2col
 * unfold and the fp32 im2col conv body. A SIMD variant must agree
 * with its scalar base on all of this — packing layout, padding
 * values, requantization rounding —
 * for the tier contract (int8 bit-exact, fp32 within tolerance) to
 * hold, so the definitions live in one place.
 */

#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>

#include "core/shape.h"
#include "ir/graph.h"
#include "ir/infer.h"
#include "kernels/kernel.h"
#include "quant/quant.h"

namespace pe {
namespace kutil {

/** Blocked-GEMM panel edge; blockedWorkspace sizes the packed panel
 *  from this, and the AVX2 microkernel tiles inside it. */
constexpr int64_t kGemmBlock = 48;

inline float
attrF(const KernelCtx &c, const char *key, double dflt = 0.0)
{
    return static_cast<float>(c.node->attrs.getFloat(key, dflt));
}

inline int32_t
attrI(const KernelCtx &c, const char *key, int64_t dflt = 0)
{
    return static_cast<int32_t>(c.node->attrs.getInt(key, dflt));
}

inline float
actOf(int64_t act, float v)
{
    switch (act) {
      case kActRelu:
        return v > 0 ? v : 0.0f;
      case kActGelu: {
        constexpr float kC = 0.7978845608028654f;
        return 0.5f * v *
               (1.0f + std::tanh(kC * (v + 0.044715f * v * v * v)));
      }
      case kActSilu:
        return v / (1.0f + std::exp(-v));
      default:
        return v;
    }
}

/** Logical (post-transpose) view of a GEMM operand. */
struct GemmView {
    const float *data;
    int64_t rows, cols; ///< logical (post-transpose) extents
    bool trans;         ///< storage is [cols, rows]

    float
    at(int64_t r, int64_t c) const
    {
        return trans ? data[c * rows + r] : data[r * cols + c];
    }
};

inline GemmView
gemmViewOf(const float *data, const Shape &s, bool trans)
{
    if (trans)
        return {data, s[1], s[0], true};
    return {data, s[0], s[1], false};
}

/** Flattened-index stride/extent of the per-channel axis. */
struct AxisView {
    int64_t inner = 1, channels = 1;

    int64_t
    channelOf(int64_t flat) const
    {
        return (flat / inner) % channels;
    }
};

inline AxisView
axisView(const Shape &s, int64_t axis)
{
    AxisView v;
    v.channels = s[axis];
    for (size_t i = axis + 1; i < s.size(); ++i)
        v.inner *= s[i];
    return v;
}

/** Requantization context shared by the int8 GEMM/conv kernels. */
struct Requant {
    float xScale, wScale, yScale;
    int32_t xZp, yZp;
    const float *wScales = nullptr; ///< per-channel, else null
    const float *bias = nullptr;    ///< fp32, else null
    int64_t act = kActNone;

    int8_t
    emit(int32_t acc, int64_t channel) const
    {
        float sw = wScales ? wScales[channel] : wScale;
        float r = static_cast<float>(acc) * xScale * sw;
        if (bias)
            r += bias[channel];
        r = actOf(act, r);
        return quantizeValue(r, yScale, yZp);
    }
};

inline Requant
requantOf(const KernelCtx &c)
{
    Requant r;
    r.xScale = attrF(c, "xScale", 1.0);
    r.wScale = attrF(c, "wScale", 1.0);
    r.yScale = attrF(c, "yScale", 1.0);
    r.xZp = attrI(c, "xZp", 0);
    r.yZp = attrI(c, "yZp", 0);
    r.act = c.node->attrs.getInt("act", kActNone);
    bool has_bias = c.node->attrs.getInt("hasBias", 0) != 0;
    bool per_channel = c.node->attrs.getInt("perChannel", 0) != 0;
    if (has_bias)
        r.bias = c.in[2];
    if (per_channel && c.in.size() > static_cast<size_t>(2 + has_bias))
        r.wScales = c.in[2 + (has_bias ? 1 : 0)];
    return r;
}

/**
 * Unfold one NCHW image into its [ci*kh*kw, ho*wo] column matrix.
 * Out-of-bounds taps read @p padval (0.0f for fp32; the input
 * zero-point for int8, so (col - zp) vanishes exactly where fp32
 * would pad zeros). Row order is (ci, kh, kw) ascending — the
 * accumulation order every consumer relies on for bit-exactness
 * against the direct kernels.
 */
template <typename T>
inline void
im2colUnfold(const T *xn, T *col, int64_t ci, int64_t h, int64_t w,
             int64_t kh, int64_t kw, int64_t ho, int64_t wo,
             int64_t stride, int64_t pad, T padval)
{
    int64_t cols = ho * wo;
    int64_t r = 0;
    for (int64_t cc = 0; cc < ci; ++cc) {
        for (int64_t a = 0; a < kh; ++a) {
            for (int64_t b = 0; b < kw; ++b, ++r) {
                T *dst = col + r * cols;
                for (int64_t i = 0; i < ho; ++i) {
                    int64_t ih = i * stride - pad + a;
                    for (int64_t j = 0; j < wo; ++j) {
                        int64_t iw = j * stride - pad + b;
                        bool ok = ih >= 0 && ih < h && iw >= 0 &&
                                  iw < w;
                        dst[i * wo + j] =
                            ok ? xn[(cc * h + ih) * w + iw] : padval;
                    }
                }
            }
        }
    }
}

/**
 * The [ci*kh*kw, ho*wo] GEMM operand of image @p n of a conv's input:
 * the image itself for a pointwise conv (im2colConvWorkspace declares
 * no column buffer for it), else its unfold into @p col.
 */
inline const float *
im2colOperand(const KernelCtx &c, int64_t n, float *col)
{
    const Shape &xs = *c.inShapes[0];
    const Shape &ws = *c.inShapes[1];
    const float *xn = c.in[0] + n * xs[1] * xs[2] * xs[3];
    if (isPointwiseConv(ws, c.node->attrs))
        return xn;
    im2colUnfold(xn, col, xs[1], xs[2], xs[3], ws[2], ws[3],
                 (*c.outShape)[2], (*c.outShape)[3],
                 c.node->attrs.getInt("stride", 1),
                 c.node->attrs.getInt("pad", 0), 0.0f);
    return col;
}

/**
 * Shared body of the fp32 "im2col" Conv2d / ConvBiasAct kernels and
 * their SIMD tier variants, over the images of this shard: out[co,
 * cols] = w[co, k] x operand[k, cols], accumulated in ascending k.
 * @p bias (may be null) and @p act are applied to the finished sum,
 * one pass each, so the fused kernel is bit-identical to Conv2d ->
 * Add -> act run on the same variant. @p axpy(dst, src, a, n) does
 * dst[j] += a * src[j] for j < n — the one loop a tier vectorizes.
 */
template <typename Axpy>
inline void
im2colConv(const KernelCtx &c, const float *bias, int64_t act,
           Axpy axpy)
{
    const Shape &ws = *c.inShapes[1];
    int64_t co = ws[0], k = ws[1] * ws[2] * ws[3];
    int64_t cols = (*c.outShape)[2] * (*c.outShape)[3];
    const float *w = c.in[1];
    for (int64_t n = c.begin; n < partitionEnd(c, (*c.outShape)[0]);
         ++n) {
        const float *src = im2colOperand(c, n, c.workspace);
        float *out = c.out + n * co * cols;
        for (int64_t o = 0; o < co; ++o) {
            float *dst = out + o * cols;
            std::memset(dst, 0, sizeof(float) * cols);
            const float *wrow = w + o * k;
            for (int64_t kk = 0; kk < k; ++kk)
                axpy(dst, src + kk * cols, wrow[kk], cols);
            if (bias) {
                for (int64_t j = 0; j < cols; ++j)
                    dst[j] += bias[o];
            }
            if (act != kActNone) {
                for (int64_t j = 0; j < cols; ++j)
                    dst[j] = actOf(act, dst[j]);
            }
        }
    }
}

// ---- shared workspace declarations -----------------------------------
//
// A SIMD tier variant must declare EXACTLY the workspace of its scalar
// base: the memory planner sizes the arena from the variant selected
// at compile time, and the bind-time tier switch (either direction)
// reuses that placement. Sharing the WorkspaceFn bodies makes the
// equality structural.

/** One packed B panel per shard (blocked / AVX2 / NEON GEMM). */
inline WorkspaceSpec
blockedGemmWorkspace(const Graph &, const Node &)
{
    WorkspaceSpec spec;
    spec.bytesPerShard = kGemmBlock * kGemmBlock * 4;
    return spec;
}

/** One image's fp32 column matrix: ci*kh*kw rows by ho*wo columns;
 *  none for a pointwise conv, which reads its input in place. */
inline WorkspaceSpec
im2colConvWorkspace(const Graph &g, const Node &n)
{
    const Shape &w = g.node(n.inputs[1]).shape;
    int64_t ho = n.shape[2], wo = n.shape[3];
    WorkspaceSpec spec;
    if (!isPointwiseConv(w, n.attrs))
        spec.bytesPerShard = w[1] * w[2] * w[3] * ho * wo * 4;
    return spec;
}

/** Packed i8 weight panel of the int8 GEMM ([N, K] rows). */
inline WorkspaceSpec
qgemmWorkspace(const Graph &g, const Node &n)
{
    const Shape &b = g.node(n.inputs[1]).shape;
    WorkspaceSpec spec;
    spec.bytesPerShard = numel(b);
    return spec;
}

/** One fp32 attention-score row ([M] = K's row count) per shard: the
 *  QK product, mask add, and softmax all happen in this buffer, so the
 *  five-op subgraph's four arena intermediates become zero. */
inline WorkspaceSpec
fusedAttentionWorkspace(const Graph &g, const Node &n)
{
    const Shape &k = g.node(n.inputs[1]).shape;
    WorkspaceSpec spec;
    spec.bytesPerShard = k[k.size() - 2] * 4;
    return spec;
}

/** Per-image i8 im2col column buffer of the int8 conv. */
inline WorkspaceSpec
qconvColWorkspace(const Graph &g, const Node &n)
{
    const Shape &x = g.node(n.inputs[0]).shape;
    const Shape &w = g.node(n.inputs[1]).shape;
    int64_t ho = convOutDim(x[2], w[2], n.attrs.getInt("stride", 1),
                            n.attrs.getInt("pad", 0));
    int64_t wo = convOutDim(x[3], w[3], n.attrs.getInt("stride", 1),
                            n.attrs.getInt("pad", 0));
    WorkspaceSpec spec;
    spec.bytesPerShard = x[1] * w[2] * w[3] * ho * wo;
    return spec;
}

} // namespace kutil
} // namespace pe
