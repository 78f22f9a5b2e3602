/**
 * @file
 * Helpers shared by the scalar kernel TUs and the tier kernel bodies
 * (kernel_bodies.h): GEMM operand views, the int8 requantization
 * context, activation math, the fp32 bias + activation epilogue and
 * the im2col unfold (whole, or one column panel). A tier variant must
 * agree with its scalar base on all of this — packing layout, padding
 * values, requantization rounding — for the tier contract (int8
 * bit-exact, fp32 within tolerance) to hold, so the definitions live
 * in one place.
 *
 * Everything defined here has internal linkage (unnamed namespace),
 * and the attribute reads are out of line in a baseline TU. The AVX2
 * TU is compiled with -mavx2 -mfma; an inline function with external
 * linkage that it failed to inline would be emitted there as a weak
 * AVX2 copy the linker may pick for every caller, including the scalar
 * kernels on a host without AVX2. The isa_isolation ctest checks that
 * the AVX2 object defines no symbol another object also defines.
 */

#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "core/shape.h"
#include "ir/graph.h"
#include "kernels/kernel.h"
#include "quant/quant.h"

namespace pe {
namespace kutil {

/** Float / integer node attribute of a kernel's node, @p dflt when
 *  absent. Out of line (registry.cc) so no ISA-flagged TU compiles
 *  the std::string and std::variant code behind Attrs. */
float attrF(const KernelCtx &c, const char *key, double dflt);
int64_t attrI(const KernelCtx &c, const char *key, int64_t dflt);

namespace {

/** Blocked-GEMM panel edge; the packed panel workspace is sized from
 *  this, and the tier register tiles work inside it. */
constexpr int64_t kGemmBlock = 48;

/** Channels per depthwise shard: the channel-lane group of the packed
 *  depthwise bodies, the same 8 on every tier, so the partition and
 *  workspace of a tier variant are its scalar base's own. */
constexpr int64_t kDwBlock = 8;

/** The one definition of each activation: the Relu / Gelu / Silu
 *  kernels, the fused epilogue and int8 requantization all call it. */
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
        return v * (1.0f / (1.0f + std::exp(-v)));
      default:
        return v;
    }
}

/**
 * The bias + activation epilogue of every fp32 linear kernel (conv,
 * depthwise, GEMM; each variant), run on finished sums: the bias add,
 * then the activation, one pass each. A fused op therefore computes
 * exactly its unfused chain (linear -> Add -> act) on the same
 * variant. An unfused op's epilogue is empty.
 */
struct Epilogue {
    const float *bias; ///< the fused op's third input, else null
    int64_t act;       ///< ActKind; kActNone unless fused

    /** A run of @p n outputs of channel @p o (a conv plane). */
    void
    channel(float *dst, int64_t n, int64_t o) const
    {
        if (bias) {
            for (int64_t j = 0; j < n; ++j)
                dst[j] += bias[o];
        }
        activate(dst, n);
    }

    /** One GEMM output row: column j takes bias[j]. */
    void
    row(float *dst, int64_t n) const
    {
        if (bias) {
            for (int64_t j = 0; j < n; ++j)
                dst[j] += bias[j];
        }
        activate(dst, n);
    }

  private:
    /** The act is dispatched once per run, not per element: each
     *  case runs actRun with a compile-time act, where actOf's switch
     *  folds away (ReLU becomes a branch-free select the compiler can
     *  vectorize). */
    void
    activate(float *dst, int64_t n) const
    {
        switch (act) {
          case kActRelu:
            return actRun<kActRelu>(dst, n);
          case kActGelu:
            return actRun<kActGelu>(dst, n);
          case kActSilu:
            return actRun<kActSilu>(dst, n);
          default:
            return;
        }
    }

    template <int64_t Act>
    static void
    actRun(float *dst, int64_t n)
    {
        for (int64_t j = 0; j < n; ++j)
            dst[j] = actOf(Act, dst[j]);
    }
};

/** The epilogue of @p c's node: a fused op (Conv/DwConv/MatMul +
 *  bias + act) has its bias as third input and an "act" attr; the
 *  two-input unfused op has neither. */
inline Epilogue
epilogueOf(const KernelCtx &c)
{
    if (c.in.size() < 3)
        return {nullptr, kActNone};
    return {c.in[2], attrI(c, "act", kActNone)};
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

/** View of a matrix stored [d0, d1], transposed when @p trans. */
inline GemmView
gemmViewOf(const float *data, int64_t d0, int64_t d1, bool trans)
{
    if (trans)
        return {data, d1, d0, true};
    return {data, d0, d1, false};
}

/** Requantization context shared by the int8 GEMM/conv kernels. */
struct Requant {
    float xScale, wScale, yScale;
    int32_t xZp, yZp;
    const float *wScales = nullptr; ///< per-channel, else null
    const float *bias = nullptr;    ///< fp32, else null
    int64_t act = kActNone;

    /** Requantize with weight scale @p sw and bias @p b (null: none). */
    int8_t
    emitWith(int32_t acc, float sw, const float *b) const
    {
        float r = static_cast<float>(acc) * xScale * sw;
        if (b)
            r += *b;
        r = actOf(act, r);
        return quantizeValue(r, yScale, yZp);
    }

    int8_t
    emit(int32_t acc, int64_t channel) const
    {
        return emitWith(acc, wScales ? wScales[channel] : wScale,
                        bias ? bias + channel : nullptr);
    }
};

inline Requant
requantOf(const KernelCtx &c)
{
    Requant r;
    r.xScale = attrF(c, "xScale", 1.0);
    r.wScale = attrF(c, "wScale", 1.0);
    r.yScale = attrF(c, "yScale", 1.0);
    r.xZp = static_cast<int32_t>(attrI(c, "xZp", 0));
    r.yZp = static_cast<int32_t>(attrI(c, "yZp", 0));
    r.act = attrI(c, "act", kActNone);
    bool has_bias = attrI(c, "hasBias", 0) != 0;
    bool per_channel = attrI(c, "perChannel", 0) != 0;
    if (has_bias)
        r.bias = c.in[2];
    if (per_channel && c.in.size() > static_cast<size_t>(2 + has_bias))
        r.wScales = c.in[2 + (has_bias ? 1 : 0)];
    return r;
}

/**
 * Unfold columns [q0, q1) of one NCHW image's [ci*kh*kw, ho*wo]
 * column matrix into @p col, whose rows are q1 - q0 elements apart
 * (q0 = 0, q1 = ho*wo is the whole matrix). Out-of-bounds taps read
 * @p padval (0.0f for fp32; the input zero-point for int8, so
 * (col - zp) vanishes exactly where fp32 would pad zeros). Row order
 * is (ci, kh, kw) ascending — the accumulation order every consumer
 * relies on for bit-exactness against the direct kernels.
 */
template <typename T>
inline void
im2colUnfold(const T *xn, T *col, int64_t ci, int64_t h, int64_t w,
             int64_t kh, int64_t kw, int64_t wo, int64_t stride,
             int64_t pad, T padval, int64_t q0, int64_t q1)
{
    int64_t width = q1 - q0;
    int64_t i0 = q0 / wo;
    // Pad the whole panel in one pass, then copy each output row's
    // in-bounds run over it.
    std::fill_n(col, ci * kh * kw * width, padval);
    int64_t r = 0;
    for (int64_t cc = 0; cc < ci; ++cc) {
        const T *xc = xn + cc * h * w;
        for (int64_t a = 0; a < kh; ++a) {
            for (int64_t b = 0; b < kw; ++b, ++r) {
                // Output columns j in [jlo, jhi) read x column
                // j * stride - pad + b inside [0, w).
                int64_t jlo = pad > b ? (pad - b + stride - 1) / stride
                                      : 0;
                int64_t jhi = w + pad - b > 0
                                  ? (w - 1 + pad - b) / stride + 1
                                  : 0;
                // One output row's segment at a time: col[base + j]
                // holds column i * wo + j of the full matrix.
                int64_t base = r * width - (q0 - i0 * wo);
                for (int64_t i = i0; i * wo < q1; ++i, base += wo) {
                    int64_t j0 = std::max(q0 - i * wo, int64_t{0});
                    int64_t j1 = std::min(wo, q1 - i * wo);
                    int64_t ih = i * stride - pad + a;
                    if (ih < 0 || ih >= h)
                        continue;
                    int64_t lo = std::max(jlo, j0);
                    int64_t hi = std::min(jhi, j1);
                    int64_t xoff = ih * w - pad + b;
                    for (int64_t j = lo; j < hi; ++j)
                        col[base + j] = xc[xoff + j * stride];
                }
            }
        }
    }
}

} // namespace
} // namespace kutil
} // namespace pe
