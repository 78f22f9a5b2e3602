/**
 * @file
 * One body per tiered kernel. Blocked MatMul / MatMulBiasAct /
 * BatchMatMul, the im2col Conv2d / ConvBiasAct, the pointwise
 * Conv2dBwdInput / Conv2dBwdWeight GEMMs, FusedAttention,
 * QuantMatMul, QuantConv2d and QuantDwConv2d are each written once
 * here, as a template over a tier's lane primitives. A fused op runs
 * its unfused op's body plus the shared Epilogue (kernel_util.h), so
 * it reaches every tier its base does. The scalar bases instantiate
 * them with ScalarLanes; a SIMD tier TU (simd_avx2.cc, simd_neon.cc)
 * defines its own primitive struct and makes one registerTier call.
 *
 * A body owns partitioning, operand addressing, panel packing, the
 * unfold, depthwise borders, the scalar requantize fallback and every
 * scalar tail. A tier supplies only the loops it vectorizes:
 *
 *   axpy(dst, src, a, n)        dst[j] += a * src[j], j < n
 *   dot(a, b, n)                sum of a[k] * b[k], k < n
 *   kTileRows, kTileCols,       the GEMM register tile: out[i0+r, j] +=
 *   gemmTile(a, i0, rows, k0,   a[i0+r, k0:k1] . panel[:, j] for r < rows
 *            k1, panel, jw,     and j < cols, a multiple of kTileCols;
 *            cols, out, n)      panel rows are jw floats apart (the body
 *                               finishes the panel's columns)
 *   dotI8(a, w, k, zp)          sum of (a[k] - zp) * w[k], int32
 *   kLanes, I32, zeroI32(),     kLanes int32 accumulators;
 *   loadI32(p), macI8(acc, x,   macI8 adds (x[l] - zp) * w to lane l
 *   zp, w)
 *   vectorEmitOk(rq)            emitLanes matches Requant::emit for rq
 *   emitLanes(acc, sw, bias,    requantize kLanes outputs with weight
 *             rq, dst)          scales sw[l] and bias[l] (bias may be
 *                               null)
 *
 * The primitives are static inline members of a struct in an unnamed
 * namespace, so every instantiation is local to its TU and compiled
 * with that TU's ISA flags: no function pointers, no virtuals.
 */

#pragma once

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "kernels/kernel_util.h"

namespace pe {
namespace kutil {
namespace {

/** The scalar tier: one lane, plain loops. Every host runs it, and
 *  the SIMD tiers are tested against it. */
struct ScalarLanes {
    static void
    axpy(float *dst, const float *src, float a, int64_t n)
    {
        for (int64_t j = 0; j < n; ++j)
            dst[j] += a * src[j];
    }

    static float
    dot(const float *a, const float *b, int64_t n)
    {
        float s = 0.0f;
        for (int64_t k = 0; k < n; ++k)
            s += a[k] * b[k];
        return s;
    }

    /** Row by row, k ascending, accumulating straight into out. */
    static constexpr int64_t kTileRows = kGemmBlock, kTileCols = 1;

    static void
    gemmTile(const GemmView &a, int64_t i0, int64_t rows, int64_t k0,
             int64_t k1, const float *panel, int64_t jw, int64_t cols,
             float *out, int64_t n)
    {
        for (int64_t r = 0; r < rows; ++r) {
            for (int64_t k = k0; k < k1; ++k)
                axpy(out + (i0 + r) * n, panel + (k - k0) * jw,
                     a.at(i0 + r, k), cols);
        }
    }

    static int32_t
    dotI8(const int8_t *a, const int8_t *w, int64_t k, int32_t zp)
    {
        int32_t s = 0;
        for (int64_t kk = 0; kk < k; ++kk)
            s += (static_cast<int32_t>(a[kk]) - zp) *
                 static_cast<int32_t>(w[kk]);
        return s;
    }

    static constexpr int64_t kLanes = 1;
    using I32 = int32_t;

    static I32 zeroI32() { return 0; }
    static I32 loadI32(const int32_t *p) { return *p; }

    static I32
    macI8(I32 acc, const int8_t *x, int32_t zp, int32_t w)
    {
        return acc + (static_cast<int32_t>(*x) - zp) * w;
    }

    static bool vectorEmitOk(const Requant &) { return true; }

    static void
    emitLanes(I32 acc, const float *sw, const float *bias,
              const Requant &rq, int8_t *dst)
    {
        *dst = rq.emitWith(acc, *sw, bias);
    }
};

// ---- fp32 GEMM --------------------------------------------------------

/**
 * out[i, j] += a[i, k0:k1] . panel[:, j] for rows i in [r0, r1) and
 * columns j < jw, panel rows @p ld apart and out rows @p n apart. The
 * tier's register tile covers the columns up to its multiple; the
 * rest take a per-panel scalar dot. On the scalar tier every entry
 * accumulates straight into out, k ascending.
 */
template <class P>
void
gemmPanel(const GemmView &a, int64_t r0, int64_t r1, int64_t k0,
          int64_t k1, const float *panel, int64_t ld, int64_t jw,
          float *out, int64_t n)
{
    int64_t cols = jw - jw % P::kTileCols;
    for (int64_t i0 = r0; i0 < r1; i0 += P::kTileRows) {
        int64_t rows = std::min(P::kTileRows, r1 - i0);
        P::gemmTile(a, i0, rows, k0, k1, panel, ld, cols, out, n);
        for (int64_t j = cols; j < jw; ++j) {
            for (int64_t r = 0; r < rows; ++r) {
                float s = 0.0f;
                for (int64_t k = k0; k < k1; ++k)
                    s += a.at(i0 + r, k) * panel[(k - k0) * ld + j];
                out[(i0 + r) * n + j] += s;
            }
        }
    }
}

/**
 * Rows [r0, r1) of a x b added into out, one kGemmBlock-square panel
 * of b at a time. A transposed b is strided, so each panel is packed
 * into @p ws (a value copy, so the accumulation order is untouched);
 * a row-major b is read in place, panel rows n apart.
 */
template <class P>
void
gemmAccumulate(const GemmView &a, const GemmView &b, float *out,
               int64_t r0, int64_t r1, float *ws)
{
    int64_t n = b.cols, kk = a.cols;
    for (int64_t k0 = 0; k0 < kk; k0 += kGemmBlock) {
        int64_t k1 = std::min(k0 + kGemmBlock, kk);
        for (int64_t j0 = 0; j0 < n; j0 += kGemmBlock) {
            int64_t jw = std::min(j0 + kGemmBlock, n) - j0;
            const float *panel = b.data + k0 * n + j0;
            int64_t ld = n;
            if (b.trans) {
                for (int64_t k = k0; k < k1; ++k) {
                    for (int64_t j = 0; j < jw; ++j)
                        ws[(k - k0) * jw + j] = b.at(k, j0 + j);
                }
                panel = ws;
                ld = jw;
            }
            gemmPanel<P>(a, r0, r1, k0, k1, panel, ld, jw, out + j0, n);
        }
    }
}

/** Rows [r0, r1) of a x b into out (gemmAccumulate from zero). */
template <class P>
void
gemmBlocked(const GemmView &a, const GemmView &b, float *out, int64_t r0,
            int64_t r1, float *ws)
{
    std::memset(out + r0 * b.cols, 0, sizeof(float) * (r1 - r0) * b.cols);
    gemmAccumulate<P>(a, b, out, r0, r1, ws);
}

/** GEMM signature shared by gemmBlocked<P> and matmul.cc's naive
 *  reference; @p ws is the shard's workspace. */
using GemmFn = void (*)(const GemmView &, const GemmView &, float *,
                        int64_t, int64_t, float *);

/** MatMul / MatMulBiasAct over the output rows of this shard. */
template <GemmFn Gemm>
void
matmulK(const KernelCtx &c)
{
    const Shape &as = *c.inShapes[0], &bs = *c.inShapes[1];
    GemmView a = gemmViewOf(c.in[0], as[0], as[1],
                            attrI(c, "transA", 0) != 0);
    GemmView b = gemmViewOf(c.in[1], bs[0], bs[1],
                            attrI(c, "transB", 0) != 0);
    int64_t hi = partitionEnd(c, a.rows);
    Gemm(a, b, c.out, c.begin, hi, c.workspace);
    Epilogue ep = epilogueOf(c);
    for (int64_t i = c.begin; i < hi; ++i)
        ep.row(c.out + i * b.cols, b.cols);
}

/** BatchMatMul over the batch items of this shard. */
template <GemmFn Gemm>
void
batchMatmulK(const KernelCtx &c)
{
    bool ta = attrI(c, "transA", 0) != 0;
    bool tb = attrI(c, "transB", 0) != 0;
    const Shape &as = *c.inShapes[0], &bs = *c.inShapes[1];
    int64_t o_stride = (*c.outShape)[1] * (*c.outShape)[2];
    for (int64_t n = c.begin; n < partitionEnd(c, as[0]); ++n) {
        GemmView a =
            gemmViewOf(c.in[0] + n * as[1] * as[2], as[1], as[2], ta);
        GemmView b =
            gemmViewOf(c.in[1] + n * bs[1] * bs[2], bs[1], bs[2], tb);
        Gemm(a, b, c.out + n * o_stride, 0, a.rows, c.workspace);
    }
}

// ---- fp32 im2col conv -------------------------------------------------

/**
 * Conv2d / ConvBiasAct as a GEMM over the images of this shard:
 * out[co, cols] = w[co, k] x operand[k, cols], accumulated in
 * ascending k, then the node's epilogue. The operand is the image
 * itself for a pointwise conv (its workspace declares no column
 * buffer). Any other conv unfolds one column panel of at most
 * kGemmBlock output pixels at a time into the shard's workspace, so
 * the buffer is k x min(cols, kGemmBlock) whatever the image size.
 */
template <class P>
void
im2colConvK(const KernelCtx &c)
{
    const Shape &xs = *c.inShapes[0], &ws = *c.inShapes[1];
    int64_t co = ws[0], k = ws[1] * ws[2] * ws[3];
    int64_t wo = (*c.outShape)[3];
    int64_t cols = (*c.outShape)[2] * wo;
    bool pointwise = isPointwiseConv(ws, c.node->attrs);
    int64_t panel = pointwise ? cols : std::min(cols, kGemmBlock);
    int64_t stride = attrI(c, "stride", 1), pad = attrI(c, "pad", 0);
    GemmView wv{c.in[1], co, k, false};
    Epilogue ep = epilogueOf(c);
    for (int64_t n = c.begin; n < partitionEnd(c, (*c.outShape)[0]);
         ++n) {
        const float *xn = c.in[0] + n * xs[1] * xs[2] * xs[3];
        float *out = c.out + n * co * cols;
        for (int64_t q0 = 0; q0 < cols; q0 += panel) {
            int64_t pw = std::min(panel, cols - q0);
            const float *src = xn + q0;
            int64_t ld = cols;
            if (!pointwise) {
                im2colUnfold(xn, c.workspace, xs[1], xs[2], xs[3], ws[2],
                             ws[3], wo, stride, pad, 0.0f, q0, q0 + pw);
                src = c.workspace;
                ld = pw;
            }
            for (int64_t o = 0; o < co; ++o)
                std::memset(out + o * cols + q0, 0, sizeof(float) * pw);
            gemmPanel<P>(wv, 0, co, 0, k, src, ld, pw, out + q0, cols);
        }
        for (int64_t o = 0; o < co; ++o)
            ep.channel(out + o * cols, cols, o);
    }
}

/**
 * Pointwise Conv2dBwdInput over the images of this shard: dX[n] =
 * W^T x dY[n], i.e. dX[n, ci, :] += W[co, ci] * dY[n, co, :] with co
 * ascending, dY[n] read in place. Only bound to pointwise convs.
 */
template <class P>
void
pointwiseBwdInputK(const KernelCtx &c)
{
    const Shape &ws = *c.inShapes[0], &xs = *c.outShape;
    int64_t co = ws[0], ci = ws[1], hw = xs[2] * xs[3];
    GemmView wt = gemmViewOf(c.in[0], co, ci, true);
    for (int64_t n = c.begin; n < partitionEnd(c, xs[0]); ++n) {
        GemmView dy{c.in[1] + n * co * hw, co, hw, false};
        gemmBlocked<P>(wt, dy, c.out + n * ci * hw, 0, ci, nullptr);
    }
}

/**
 * Pointwise Conv2dBwdWeight over the output channels of this shard
 * (the first "limitCo" channels at most, the output's first dim):
 * dW[co, :] += dY[n, co, p] * X^T[p, :], n then p ascending. X^T is a
 * transposed view of each image, packed panel by panel into the
 * shard's workspace. Only bound to pointwise convs.
 */
template <class P>
void
pointwiseBwdWeightK(const KernelCtx &c)
{
    const Shape &xs = *c.inShapes[0], &dys = *c.inShapes[1];
    int64_t ci = xs[1], hw = xs[2] * xs[3], co = dys[1];
    int64_t lo = c.begin, hi = partitionEnd(c, (*c.outShape)[0]);
    std::memset(c.out + lo * ci, 0, sizeof(float) * (hi - lo) * ci);
    for (int64_t n = 0; n < xs[0]; ++n) {
        GemmView dy{c.in[1] + n * co * hw, co, hw, false};
        GemmView xt = gemmViewOf(c.in[0] + n * ci * hw, ci, hw, true);
        gemmAccumulate<P>(dy, xt, c.out, lo, hi, c.workspace);
    }
}

// ---- fused attention --------------------------------------------------

/**
 * softmax(Q K^T * scale + mask) V over the output rows of this shard,
 * with the score row held in the shard's workspace. Rank-2 rows are
 * S, rank-3 rows B*S: row r reads Q row r, mask row r and the K/V slab
 * of batch r/S. With the "heads" attr (head-split form) row r is
 * (lead r/H, head r%H): K/V rows come from the [L,M,H*Dh] cache slab
 * at column offset (r%H)*Dh with stride H*Dh, and the mask row is
 * lead-indexed.
 *
 * On the scalar tier this is bit-identical to the unfused chain
 * (BatchMatMul -> Scale -> Add -> Softmax -> BatchMatMul): dot() sums
 * k ascending like gemmNaive, the softmax is softmax.cc's exact max /
 * exp(x-mx) / sum / multiply-by-reciprocal sequence, and the V
 * product adds rows ascending per output column. Masked positions
 * arrive as -1e30f adds, so exp underflows to exactly 0.0f. The
 * softmax stays scalar on every tier.
 */
template <class P>
void
fusedAttentionK(const KernelCtx &c)
{
    const Shape &qs = *c.inShapes[0];
    const Shape &ks = *c.inShapes[1];
    size_t rank = qs.size();
    int64_t dh = qs[rank - 1];
    int64_t s = qs[rank - 2];
    int64_t m = ks[rank - 2];
    float scale = attrF(c, "scale", 1.0);
    int64_t heads = attrI(c, "heads", 0);
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
            scores[i] = P::dot(qrow, kb + i * kstr, dh) * scale + mrow[i];
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
        std::memset(orow, 0, sizeof(float) * dh);
        for (int64_t i = 0; i < m; ++i)
            P::axpy(orow, vb + i * kstr, scores[i], dh);
    }
}

// ---- int8 kernels -----------------------------------------------------
//
// int32 accumulation is exact, so every tier is bit-exact to the
// scalar one as long as its emitLanes rounds like Requant::emit; where
// it cannot (vectorEmitOk false), and for the outputs past the last
// full lane run, the body requantizes through Requant::emit.

/** Weight scale and bias of output channel @p ch, one copy per lane:
 *  the emitLanes operands of a lane run inside one channel. */
template <int64_t L>
struct ChannelLanes {
    float sw[L], b[L];
    bool hasBias;

    ChannelLanes(const Requant &rq, int64_t ch)
        : hasBias(rq.bias != nullptr)
    {
        std::fill_n(sw, L, rq.wScales ? rq.wScales[ch] : rq.wScale);
        std::fill_n(b, L, hasBias ? rq.bias[ch] : 0.0f);
    }

    const float *bias() const { return hasBias ? b : nullptr; }
};

/**
 * out[M,N] i8 = requant(sum_k (a[m,k] - xZp) * w[k,n]). The weight is
 * packed K-contiguous per output column into the shard's workspace
 * ([N, K] rows), so each output is one dotI8 of two contiguous rows;
 * lane runs span kLanes output columns.
 */
template <class P>
void
qmatmulK(const KernelCtx &c)
{
    constexpr int64_t L = P::kLanes;
    int64_t k = (*c.inShapes[0])[1];
    int64_t n = (*c.outShape)[1];
    bool tb = attrI(c, "transB", 0) != 0;
    const int8_t *a = reinterpret_cast<const int8_t *>(c.in[0]);
    const int8_t *b = reinterpret_cast<const int8_t *>(c.in[1]);
    int8_t *out = reinterpret_cast<int8_t *>(c.out);
    Requant rq = requantOf(c);

    int8_t *wp = reinterpret_cast<int8_t *>(c.workspace);
    for (int64_t j = 0; j < n; ++j) {
        for (int64_t kk = 0; kk < k; ++kk)
            wp[j * k + kk] = tb ? b[j * k + kk] : b[kk * n + j];
    }

    float flat_sw[L];
    std::fill_n(flat_sw, L, rq.wScale);
    bool vec = P::vectorEmitOk(rq);
    int64_t m_hi = partitionEnd(c, (*c.outShape)[0]);
    for (int64_t i = c.begin; i < m_hi; ++i) {
        const int8_t *arow = a + i * k;
        int8_t *orow = out + i * n;
        int64_t j = 0;
        for (; vec && j + L <= n; j += L) {
            int32_t accs[L];
            for (int64_t l = 0; l < L; ++l)
                accs[l] = P::dotI8(arow, wp + (j + l) * k, k, rq.xZp);
            P::emitLanes(P::loadI32(accs),
                         rq.wScales ? rq.wScales + j : flat_sw,
                         rq.bias ? rq.bias + j : nullptr, rq, orow + j);
        }
        for (; j < n; ++j)
            orow[j] = rq.emit(P::dotI8(arow, wp + j * k, k, rq.xZp), j);
    }
}

/**
 * int8 conv over the images of this shard: unfold into the shard's
 * i8 column buffer, whose padding cells hold the input zero-point so
 * (col - zp) is exactly zero where fp32 pads zeros, then out[co, cols]
 * = (col - zp) . w[co, k]. Lane runs span kLanes output pixels.
 */
template <class P>
void
qconvK(const KernelCtx &c)
{
    constexpr int64_t L = P::kLanes;
    const Shape &xs = *c.inShapes[0], &ws = *c.inShapes[1];
    int64_t ci = xs[1], h = xs[2], w = xs[3];
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
    int64_t stride = attrI(c, "stride", 1), pad = attrI(c, "pad", 0);
    bool vec = P::vectorEmitOk(rq);

    for (int64_t ni = c.begin; ni < partitionEnd(c, xs[0]); ++ni) {
        im2colUnfold(x + ni * ci * h * w, col, ci, h, w, kh, kw, wo,
                     stride, pad, zp8, int64_t{0}, cols);
        int8_t *on = out + ni * co * cols;
        for (int64_t o = 0; o < co; ++o) {
            const int8_t *wrow = wt + o * k;
            int8_t *dst = on + o * cols;
            ChannelLanes<L> lanes(rq, o);
            int64_t j = 0;
            for (; vec && j + L <= cols; j += L) {
                auto acc = P::zeroI32();
                for (int64_t kk = 0; kk < k; ++kk)
                    acc = P::macI8(acc, col + kk * cols + j, rq.xZp,
                                   wrow[kk]);
                P::emitLanes(acc, lanes.sw, lanes.bias(), rq, dst + j);
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

/** One depthwise output pixel's accumulator, out-of-bounds taps
 *  skipped: (x - zp) * w summed in ascending tap order. */
inline int32_t
qdwPixel(const int8_t *xp, const int8_t *wp, int64_t i, int64_t j,
         int64_t h, int64_t w, int64_t kh, int64_t kw, int64_t stride,
         int64_t pad, int32_t zp)
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
            acc += (static_cast<int32_t>(xp[ih * w + iw]) - zp) *
                   static_cast<int32_t>(wp[a * kw + b]);
        }
    }
    return acc;
}

/**
 * int8 depthwise conv over the (image, channel) pairs of this shard,
 * direct (no workspace). At stride 1 the columns whose every kw tap is
 * in bounds run in lane runs of kLanes pixels (the window rows are
 * contiguous loads there); border columns and other strides run
 * qdwPixel.
 */
template <class P>
void
qdwConvK(const KernelCtx &c)
{
    constexpr int64_t L = P::kLanes;
    const Shape &xs = *c.inShapes[0], &ws = *c.inShapes[1];
    int64_t ch = xs[1], h = xs[2], w = xs[3];
    int64_t kh = ws[2], kw = ws[3];
    int64_t ho = (*c.outShape)[2], wo = (*c.outShape)[3];
    const int8_t *x = reinterpret_cast<const int8_t *>(c.in[0]);
    const int8_t *wt = reinterpret_cast<const int8_t *>(c.in[1]);
    int8_t *out = reinterpret_cast<int8_t *>(c.out);
    Requant rq = requantOf(c);
    int64_t stride = attrI(c, "stride", 1), pad = attrI(c, "pad", 0);
    bool vec = stride == 1 && P::vectorEmitOk(rq);
    int64_t jlo = std::min(pad, wo);
    int64_t jhi = std::min(wo, w - kw + pad + 1);

    int64_t hi = partitionEnd(c, xs[0] * ch);
    for (int64_t idx = c.begin; idx < hi; ++idx) {
        int64_t ci = idx % ch;
        const int8_t *xp = x + idx * h * w;
        const int8_t *wp = wt + ci * kh * kw;
        int8_t *op = out + idx * ho * wo;
        ChannelLanes<L> lanes(rq, ci);
        for (int64_t i = 0; i < ho; ++i) {
            int8_t *orow = op + i * wo;
            int64_t j = 0;
            if (vec) {
                for (; j < jlo; ++j)
                    orow[j] = rq.emit(qdwPixel(xp, wp, i, j, h, w, kh, kw,
                                               stride, pad, rq.xZp),
                                      ci);
                for (; j + L <= jhi; j += L) {
                    auto acc = P::zeroI32();
                    for (int64_t a = 0; a < kh; ++a) {
                        int64_t ih = i - pad + a;
                        if (ih < 0 || ih >= h)
                            continue;
                        const int8_t *xrow = xp + ih * w + j - pad;
                        for (int64_t b = 0; b < kw; ++b)
                            acc = P::macI8(acc, xrow + b, rq.xZp,
                                           wp[a * kw + b]);
                    }
                    P::emitLanes(acc, lanes.sw, lanes.bias(), rq,
                                 orow + j);
                }
            }
            for (; j < wo; ++j)
                orow[j] = rq.emit(qdwPixel(xp, wp, i, j, h, w, kh, kw,
                                           stride, pad, rq.xZp),
                                  ci);
        }
    }
}

// ---- tier registration ------------------------------------------------

/**
 * Register the @p tier variant of every body above — "blocked@avx2"
 * (MatMul, MatMulBiasAct, BatchMatMul), "im2col@avx2" (Conv2d,
 * ConvBiasAct, and the pointwise Conv2dBwdInput / Conv2dBwdWeight),
 * FusedAttention "avx2", "int8@avx2", ... — with its
 * scalar base's own PartitionSpec and WorkspaceFn, so the executor can
 * switch tiers at bind time against one memory plan.
 */
template <class P>
void
registerTier(SimdTier tier)
{
    for (OpKind op : {OpKind::MatMul, OpKind::MatMulBiasAct})
        registerTierVariant(op, "blocked", tier, matmulK<gemmBlocked<P>>);
    registerTierVariant(OpKind::BatchMatMul, "blocked", tier,
                        batchMatmulK<gemmBlocked<P>>);
    for (OpKind op : {OpKind::Conv2d, OpKind::ConvBiasAct})
        registerTierVariant(op, "im2col", tier, im2colConvK<P>);
    registerTierVariant(OpKind::Conv2dBwdInput, "im2col", tier,
                        pointwiseBwdInputK<P>);
    registerTierVariant(OpKind::Conv2dBwdWeight, "im2col", tier,
                        pointwiseBwdWeightK<P>);
    registerTierVariant(OpKind::FusedAttention, "", tier,
                        fusedAttentionK<P>);
    registerTierVariant(OpKind::QuantMatMul, "int8", tier, qmatmulK<P>);
    registerTierVariant(OpKind::QuantConv2d, "int8", tier, qconvK<P>);
    registerTierVariant(OpKind::QuantDwConv2d, "int8", tier,
                        qdwConvK<P>);
}

} // namespace
} // namespace kutil
} // namespace pe
