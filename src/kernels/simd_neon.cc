/**
 * @file
 * NEON kernel tier: the same quartet as simd_avx2.cc — fp32 panel
 * GEMM, im2col conv inner loop, int8 GEMM, int8 depthwise — as
 * "<base>@neon" variants with the scalar bases' partition domains and
 * workspace declarations (kernel_util.h).
 *
 * NEON is a compile-time baseline on ARM (__ARM_NEON), so this TU
 * needs no special flags; it compiles empty elsewhere. The numerics
 * contract matches the AVX2 tier: int8 accumulation is bit-exact to
 * the scalar "int8" kernels (integer math), and the vectorized
 * requantization path is only taken on AArch64 where vdivq_f32 /
 * vcvtnq_s32_f32 give IEEE division and round-nearest-even exactly —
 * ARMv7 (and gelu/silu activations anywhere) requantize through the
 * scalar Requant::emit. fp32 results are within 1e-5 relative of the
 * scalar tier (multiply-accumulate fusion changes rounding).
 */

#include "kernels/kernel.h"

#if !defined(PE_NO_SIMD) && defined(__ARM_NEON)

#include <arm_neon.h>
#include <cmath>
#include <cstring>
#include <limits>

#include "kernels/kernel_util.h"

namespace pe {
namespace {

using kutil::GemmView;
using kutil::Requant;
using kutil::requantOf;

constexpr int64_t kBlock = kutil::kGemmBlock;

// ---- fp32 panel GEMM --------------------------------------------------

/** 4-row x 4-column multiply-accumulate register tile over the packed
 *  B panel (same layout and workspace as the scalar "blocked" tier). */
void
gemmNeon(const GemmView &a, const GemmView &b, float *out, int64_t r0,
         int64_t r1, float *ws)
{
    int64_t n = b.cols, kk = a.cols;
    std::memset(out + r0 * n, 0, sizeof(float) * (r1 - r0) * n);
    for (int64_t k0 = 0; k0 < kk; k0 += kBlock) {
        int64_t k1 = std::min(k0 + kBlock, kk);
        for (int64_t j0 = 0; j0 < n; j0 += kBlock) {
            int64_t j1 = std::min(j0 + kBlock, n);
            int64_t jw = j1 - j0;
            for (int64_t k = k0; k < k1; ++k) {
                float *dst = ws + (k - k0) * jw;
                for (int64_t j = j0; j < j1; ++j)
                    dst[j - j0] = b.at(k, j);
            }
            for (int64_t i0 = r0; i0 < r1; i0 += 4) {
                int64_t rows = std::min<int64_t>(4, r1 - i0);
                int64_t j = 0;
                for (; j + 4 <= jw; j += 4) {
                    float32x4_t acc[4];
                    for (int64_t r = 0; r < rows; ++r)
                        acc[r] = vdupq_n_f32(0.0f);
                    for (int64_t k = k0; k < k1; ++k) {
                        float32x4_t bv =
                            vld1q_f32(ws + (k - k0) * jw + j);
                        for (int64_t r = 0; r < rows; ++r)
                            acc[r] = vmlaq_n_f32(acc[r], bv,
                                                 a.at(i0 + r, k));
                    }
                    for (int64_t r = 0; r < rows; ++r) {
                        float *orow = out + (i0 + r) * n + j0 + j;
                        vst1q_f32(orow,
                                  vaddq_f32(vld1q_f32(orow), acc[r]));
                    }
                }
                for (; j < jw; ++j) {
                    for (int64_t r = 0; r < rows; ++r) {
                        float s = 0.0f;
                        for (int64_t k = k0; k < k1; ++k)
                            s += a.at(i0 + r, k) *
                                 ws[(k - k0) * jw + j];
                        out[(i0 + r) * n + j0 + j] += s;
                    }
                }
            }
        }
    }
}

void
matmulNeonK(const KernelCtx &c)
{
    bool ta = c.node->attrs.getInt("transA", 0) != 0;
    bool tb = c.node->attrs.getInt("transB", 0) != 0;
    GemmView a = kutil::gemmViewOf(c.in[0], *c.inShapes[0], ta);
    GemmView b = kutil::gemmViewOf(c.in[1], *c.inShapes[1], tb);
    gemmNeon(a, b, c.out, c.begin, partitionEnd(c, a.rows),
             c.workspace);
}

void
batchMatmulNeonK(const KernelCtx &c)
{
    bool ta = c.node->attrs.getInt("transA", 0) != 0;
    bool tb = c.node->attrs.getInt("transB", 0) != 0;
    const Shape &as = *c.inShapes[0];
    const Shape &bs = *c.inShapes[1];
    int64_t batch = as[0];
    int64_t a_stride = as[1] * as[2];
    int64_t b_stride = bs[1] * bs[2];
    int64_t o_stride = (*c.outShape)[1] * (*c.outShape)[2];
    for (int64_t nn = c.begin; nn < partitionEnd(c, batch); ++nn) {
        GemmView a = kutil::gemmViewOf(c.in[0] + nn * a_stride,
                                       {as[1], as[2]}, ta);
        GemmView b = kutil::gemmViewOf(c.in[1] + nn * b_stride,
                                       {bs[1], bs[2]}, tb);
        gemmNeon(a, b, c.out + nn * o_stride, 0, a.rows, c.workspace);
    }
}

// ---- fp32 im2col conv -------------------------------------------------

/** dst[j] += a * src[j], 4 lanes at a time. */
void
axpyNeon(float *dst, const float *src, float a, int64_t n)
{
    int64_t j = 0;
    for (; j + 4 <= n; j += 4)
        vst1q_f32(dst + j,
                  vmlaq_n_f32(vld1q_f32(dst + j), vld1q_f32(src + j), a));
    for (; j < n; ++j)
        dst[j] += a * src[j];
}

/** The scalar "im2col" Conv2d body (kutil::im2colConv) with the GEMM
 *  row update vectorized. ConvBiasAct has no NEON variant: the tier
 *  resolution keeps it on the scalar "im2col" kernel. */
void
conv2dIm2colNeonK(const KernelCtx &c)
{
    kutil::im2colConv(c, nullptr, kActNone, axpyNeon);
}

// ---- fused attention --------------------------------------------------

float
hsumF32(float32x4_t v)
{
#if defined(__aarch64__)
    return vaddvq_f32(v);
#else
    float32x2_t s = vadd_f32(vget_low_f32(v), vget_high_f32(v));
    s = vpadd_f32(s, s);
    return vget_lane_f32(s, 0);
#endif
}

/** Same per-row structure (and workspace) as the scalar FusedAttention
 *  kernel; QK dot and V product vectorized, softmax reduction scalar
 *  (fp32 tier contract: within 1e-5 of the scalar base). */
void
fusedAttentionNeonK(const KernelCtx &c)
{
    const Shape &qs = *c.inShapes[0];
    const Shape &ks = *c.inShapes[1];
    size_t rank = qs.size();
    int64_t dh = qs[rank - 1];
    int64_t s = qs[rank - 2];
    int64_t m = ks[rank - 2];
    float scale = kutil::attrF(c, "scale", 1.0);
    // heads > 0: head-split form — K/V rows are head-strided slices
    // of the [L,M,H*Dh] cache slab, mask rows lead-indexed.
    int64_t heads = kutil::attrI(c, "heads", 0);
    int64_t kstr = heads > 0 ? heads * dh : dh;

    const float *q = c.in[0];
    const float *k = c.in[1];
    const float *v = c.in[2];
    const float *mask = c.in[3];
    float *scores = c.workspace;

    int64_t rows = numel(*c.outShape) / dh;
    for (int64_t r = c.begin; r < partitionEnd(c, rows); ++r) {
        const float *qrow = q + r * dh;
        const float *mrow, *kb, *vb;
        if (heads > 0) {
            int64_t lead = r / heads, hd = r % heads;
            mrow = mask + lead * m;
            kb = k + lead * m * kstr + hd * dh;
            vb = v + lead * m * kstr + hd * dh;
        } else {
            mrow = mask + r * m;
            kb = k + (r / s) * m * dh;
            vb = v + (r / s) * m * dh;
        }

        float mx = -std::numeric_limits<float>::infinity();
        for (int64_t i = 0; i < m; ++i) {
            const float *krow = kb + i * kstr;
            float32x4_t acc4 = vdupq_n_f32(0.0f);
            int64_t kk = 0;
            for (; kk + 4 <= dh; kk += 4)
                acc4 = vmlaq_f32(acc4, vld1q_f32(qrow + kk),
                                 vld1q_f32(krow + kk));
            float acc = hsumF32(acc4);
            for (; kk < dh; ++kk)
                acc += qrow[kk] * krow[kk];
            scores[i] = acc * scale + mrow[i];
            if (scores[i] > mx)
                mx = scores[i];
        }
        float sum = 0.0f;
        for (int64_t i = 0; i < m; ++i) {
            scores[i] = std::exp(scores[i] - mx);
            sum += scores[i];
        }
        float inv = 1.0f / sum;
        for (int64_t i = 0; i < m; ++i)
            scores[i] *= inv;

        float *orow = c.out + r * dh;
        int64_t j = 0;
        for (; j + 4 <= dh; j += 4) {
            float32x4_t acc = vdupq_n_f32(0.0f);
            for (int64_t i = 0; i < m; ++i)
                acc = vmlaq_n_f32(acc, vld1q_f32(vb + i * kstr + j),
                                  scores[i]);
            vst1q_f32(orow + j, acc);
        }
        for (; j < dh; ++j) {
            float acc = 0;
            for (int64_t i = 0; i < m; ++i)
                acc += scores[i] * vb[i * kstr + j];
            orow[j] = acc;
        }
    }
}

// ---- int8 helpers -----------------------------------------------------

int32_t
hsumS32(int32x4_t v)
{
#if defined(__aarch64__)
    return vaddvq_s32(v);
#else
    int32x2_t s = vadd_s32(vget_low_s32(v), vget_high_s32(v));
    s = vpadd_s32(s, s);
    return vget_lane_s32(s, 0);
#endif
}

/** sum_k (a[k] - azp) * w[k] in int32 — bit-exact to the scalar loop. */
int32_t
dotI8(const int8_t *a, const int8_t *w, int64_t k, int32_t azp)
{
    int32x4_t acc = vdupq_n_s32(0);
    int16x8_t zp16 = vdupq_n_s16(static_cast<int16_t>(azp));
    int64_t kk = 0;
    for (; kk + 8 <= k; kk += 8) {
        int16x8_t a16 = vsubq_s16(vmovl_s8(vld1_s8(a + kk)), zp16);
        int16x8_t w16 = vmovl_s8(vld1_s8(w + kk));
        acc = vmlal_s16(acc, vget_low_s16(a16), vget_low_s16(w16));
        acc = vmlal_s16(acc, vget_high_s16(a16), vget_high_s16(w16));
    }
    int32_t s = hsumS32(acc);
    for (; kk < k; ++kk)
        s += (static_cast<int32_t>(a[kk]) - azp) *
             static_cast<int32_t>(w[kk]);
    return s;
}

/** Widen 4 consecutive int8 values to an int32x4 lane vector without
 *  reading past element 3 (exactly 4 bytes are loaded). */
int32x4_t
loadS8x4(const int8_t *p)
{
    int32_t bits;
    std::memcpy(&bits, p, 4);
    int8x8_t v = vreinterpret_s8_s32(vdup_n_s32(bits));
    return vmovl_s16(vget_low_s16(vmovl_s8(v)));
}

/** True when emit4 reproduces Requant::emit bit-exactly: AArch64 has
 *  IEEE vector divide and round-nearest-even converts; relu is a
 *  maxnum. Elsewhere (and for gelu/silu) the scalar emit runs. */
bool
vectorEmitOk(const Requant &rq)
{
#if defined(__aarch64__)
    return rq.act == kActNone || rq.act == kActRelu;
#else
    (void)rq;
    return false;
#endif
}

#if defined(__aarch64__)
/** Requantize 4 int32 accumulators with the exact float op sequence
 *  of Requant::emit / quantizeValue. */
void
emit4(const int32_t *acc, float32x4_t sw, float32x4_t bias,
      bool hasBias, const Requant &rq, int8_t *dst)
{
    float32x4_t r = vmulq_n_f32(vcvtq_f32_s32(vld1q_s32(acc)),
                                rq.xScale);
    r = vmulq_f32(r, sw);
    if (hasBias)
        r = vaddq_f32(r, bias);
    if (rq.act == kActRelu)
        r = vmaxnmq_f32(r, vdupq_n_f32(0.0f));
    float32x4_t q = vaddq_f32(
        vdivq_f32(r, vdupq_n_f32(rq.yScale)),
        vdupq_n_f32(static_cast<float>(rq.yZp)));
    q = vmaxnmq_f32(q, vdupq_n_f32(-128.0f));
    q = vminnmq_f32(q, vdupq_n_f32(127.0f));
    int32x4_t qi = vcvtnq_s32_f32(q);
    int32_t lanes[4];
    vst1q_s32(lanes, qi);
    for (int i = 0; i < 4; ++i)
        dst[i] = static_cast<int8_t>(lanes[i]);
}
#else
void
emit4(const int32_t *, float32x4_t, float32x4_t, bool,
      const Requant &, int8_t *)
{
}
#endif

// ---- int8 GEMM --------------------------------------------------------

void
qmatmulNeonK(const KernelCtx &c)
{
    const Shape &as = *c.inShapes[0];
    bool tb = c.node->attrs.getInt("transB", 0) != 0;
    int64_t m_hi = partitionEnd(c, (*c.outShape)[0]);
    int64_t k = as[1];
    int64_t n = (*c.outShape)[1];
    const int8_t *a = reinterpret_cast<const int8_t *>(c.in[0]);
    const int8_t *b = reinterpret_cast<const int8_t *>(c.in[1]);
    int8_t *out = reinterpret_cast<int8_t *>(c.out);
    Requant rq = requantOf(c);

    int8_t *wp = reinterpret_cast<int8_t *>(c.workspace);
    for (int64_t j = 0; j < n; ++j) {
        for (int64_t kk = 0; kk < k; ++kk)
            wp[j * k + kk] = tb ? b[j * k + kk] : b[kk * n + j];
    }

    bool vec_emit = vectorEmitOk(rq);
    for (int64_t i = c.begin; i < m_hi; ++i) {
        const int8_t *arow = a + i * k;
        int8_t *orow = out + i * n;
        int64_t j = 0;
        for (; j + 4 <= n && vec_emit; j += 4) {
            int32_t accs[4];
            for (int64_t jj = 0; jj < 4; ++jj)
                accs[jj] = dotI8(arow, wp + (j + jj) * k, k, rq.xZp);
            float32x4_t sw = rq.wScales
                                 ? vld1q_f32(rq.wScales + j)
                                 : vdupq_n_f32(rq.wScale);
            float32x4_t bias = rq.bias ? vld1q_f32(rq.bias + j)
                                       : vdupq_n_f32(0.0f);
            emit4(accs, sw, bias, rq.bias != nullptr, rq, orow + j);
        }
        for (; j < n; ++j)
            orow[j] = rq.emit(dotI8(arow, wp + j * k, k, rq.xZp), j);
    }
}

// ---- int8 conv (im2col) ----------------------------------------------

void
qconvNeonK(const KernelCtx &c)
{
    const Shape &xs = *c.inShapes[0];
    const Shape &ws = *c.inShapes[1];
    int64_t stride = c.node->attrs.getInt("stride", 1);
    int64_t pad = c.node->attrs.getInt("pad", 0);
    int64_t nI = xs[0], ci = xs[1], h = xs[2], w = xs[3];
    int64_t co = ws[0], kh = ws[2], kw = ws[3];
    int64_t ho = (*c.outShape)[2], wo = (*c.outShape)[3];
    const int8_t *x = reinterpret_cast<const int8_t *>(c.in[0]);
    const int8_t *wt = reinterpret_cast<const int8_t *>(c.in[1]);
    int8_t *out = reinterpret_cast<int8_t *>(c.out);
    Requant rq = requantOf(c);

    int64_t k = ci * kh * kw;
    int64_t cols = ho * wo;
    int8_t *col = reinterpret_cast<int8_t *>(c.workspace);
    int8_t zp8 = static_cast<int8_t>(
        std::min<int32_t>(127, std::max<int32_t>(-128, rq.xZp)));
    int32x4_t zp32 = vdupq_n_s32(rq.xZp);
    bool vec_emit = vectorEmitOk(rq);

    for (int64_t ni = c.begin; ni < partitionEnd(c, nI); ++ni) {
        kutil::im2colUnfold(x + ni * ci * h * w, col, ci, h, w, kh, kw,
                            ho, wo, stride, pad, zp8);
        int8_t *on = out + ni * co * cols;
        for (int64_t o = 0; o < co; ++o) {
            const int8_t *wrow = wt + o * k;
            int8_t *dst = on + o * cols;
            float32x4_t sw = vdupq_n_f32(
                rq.wScales ? rq.wScales[o] : rq.wScale);
            float32x4_t bias =
                vdupq_n_f32(rq.bias ? rq.bias[o] : 0.0f);
            int64_t j = 0;
            for (; j + 4 <= cols && vec_emit; j += 4) {
                int32x4_t acc = vdupq_n_s32(0);
                for (int64_t kk = 0; kk < k; ++kk) {
                    int32x4_t cv = loadS8x4(col + kk * cols + j);
                    acc = vmlaq_n_s32(
                        acc, vsubq_s32(cv, zp32),
                        static_cast<int32_t>(wrow[kk]));
                }
                int32_t accs[4];
                vst1q_s32(accs, acc);
                emit4(accs, sw, bias, rq.bias != nullptr, rq, dst + j);
            }
            for (; j < cols; ++j) {
                int32_t acc = 0;
                for (int64_t kk = 0; kk < k; ++kk)
                    acc += (static_cast<int32_t>(col[kk * cols + j]) -
                            rq.xZp) *
                           static_cast<int32_t>(wrow[kk]);
                dst[j] = rq.emit(acc, o);
            }
        }
    }
}

// ---- int8 depthwise conv ----------------------------------------------

int8_t
qdwPixel(const int8_t *xp, const int8_t *wp, int64_t i, int64_t j,
         int64_t h, int64_t w, int64_t kh, int64_t kw, int64_t stride,
         int64_t pad, int64_t channel, const Requant &rq)
{
    int32_t acc = 0;
    for (int64_t a = 0; a < kh; ++a) {
        int64_t ih = i * stride - pad + a;
        if (ih < 0 || ih >= h)
            continue;
        for (int64_t b = 0; b < kw; ++b) {
            int64_t iw = j * stride - pad + b;
            if (iw < 0 || iw >= w)
                continue;
            acc += (static_cast<int32_t>(xp[ih * w + iw]) - rq.xZp) *
                   static_cast<int32_t>(wp[a * kw + b]);
        }
    }
    return rq.emit(acc, channel);
}

void
qdwConvNeonK(const KernelCtx &c)
{
    const Shape &xs = *c.inShapes[0];
    const Shape &ws = *c.inShapes[1];
    int64_t stride = c.node->attrs.getInt("stride", 1);
    int64_t pad = c.node->attrs.getInt("pad", 0);
    int64_t ch = xs[1], h = xs[2], w = xs[3];
    int64_t kh = ws[2], kw = ws[3];
    int64_t ho = (*c.outShape)[2], wo = (*c.outShape)[3];
    const int8_t *x = reinterpret_cast<const int8_t *>(c.in[0]);
    const int8_t *wt = reinterpret_cast<const int8_t *>(c.in[1]);
    int8_t *out = reinterpret_cast<int8_t *>(c.out);
    Requant rq = requantOf(c);
    int32x4_t zp32 = vdupq_n_s32(rq.xZp);
    bool vec_emit = vectorEmitOk(rq);

    int64_t hi = partitionEnd(c, xs[0] * ch);
    for (int64_t idx = c.begin; idx < hi; ++idx) {
        int64_t ni = idx / ch, ci = idx % ch;
        const int8_t *xp = x + (ni * ch + ci) * h * w;
        const int8_t *wp = wt + ci * kh * kw;
        int8_t *op = out + (ni * ch + ci) * ho * wo;
        float32x4_t sw = vdupq_n_f32(
            rq.wScales ? rq.wScales[ci] : rq.wScale);
        float32x4_t bias = vdupq_n_f32(rq.bias ? rq.bias[ci] : 0.0f);
        for (int64_t i = 0; i < ho; ++i) {
            int64_t j = 0;
            if (stride == 1 && vec_emit) {
                int64_t jlo = pad;
                int64_t jhi = std::min(wo, w - kw + pad + 1);
                for (; j < std::min(jlo, wo); ++j)
                    op[i * wo + j] = qdwPixel(xp, wp, i, j, h, w, kh,
                                              kw, stride, pad, ci, rq);
                for (; j + 4 <= jhi; j += 4) {
                    int32x4_t acc = vdupq_n_s32(0);
                    for (int64_t a = 0; a < kh; ++a) {
                        int64_t ih = i - pad + a;
                        if (ih < 0 || ih >= h)
                            continue;
                        const int8_t *xrow = xp + ih * w + j - pad;
                        for (int64_t b = 0; b < kw; ++b) {
                            int32x4_t xv = loadS8x4(xrow + b);
                            acc = vmlaq_n_s32(
                                acc, vsubq_s32(xv, zp32),
                                static_cast<int32_t>(wp[a * kw + b]));
                        }
                    }
                    int32_t accs[4];
                    vst1q_s32(accs, acc);
                    emit4(accs, sw, bias, rq.bias != nullptr, rq,
                          op + i * wo + j);
                }
            }
            for (; j < wo; ++j)
                op[i * wo + j] = qdwPixel(xp, wp, i, j, h, w, kh, kw,
                                          stride, pad, ci, rq);
        }
    }
}

int64_t
matmulRows(const KernelCtx &c)
{
    return (*c.outShape)[0];
}

} // namespace

namespace detail {

void
registerSimdNeonKernels()
{
    PartitionSpec rows{matmulRows, 8};
    PartitionSpec batch{part::outDim0, 1};
    PartitionSpec images{part::outDim0, 1};
    PartitionSpec imageChannels{part::outDim01, 1};
    registerKernel(OpKind::MatMul, "blocked@neon", matmulNeonK, rows,
                   kutil::blockedGemmWorkspace);
    registerKernel(OpKind::BatchMatMul, "blocked@neon",
                   batchMatmulNeonK, batch,
                   kutil::blockedGemmWorkspace);
    registerKernel(OpKind::Conv2d, "im2col@neon", conv2dIm2colNeonK,
                   images, kutil::im2colConvWorkspace);
    registerKernel(OpKind::FusedAttention, "neon", fusedAttentionNeonK,
                   PartitionSpec{part::outRows, 1},
                   kutil::fusedAttentionWorkspace);
    registerKernel(OpKind::QuantMatMul, "int8@neon", qmatmulNeonK,
                   rows, kutil::qgemmWorkspace);
    registerKernel(OpKind::QuantConv2d, "int8@neon", qconvNeonK,
                   images, kutil::qconvColWorkspace);
    registerKernel(OpKind::QuantDwConv2d, "int8@neon", qdwConvNeonK,
                   imageChannels);
}

} // namespace detail
} // namespace pe

#else // PE_NO_SIMD or no NEON: nothing to register.

namespace pe {
namespace detail {

void
registerSimdNeonKernels()
{
}

} // namespace detail
} // namespace pe

#endif
