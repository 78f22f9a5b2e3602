/**
 * @file
 * One body per tiered kernel. Blocked MatMul / MatMulBiasAct /
 * BatchMatMul, the im2col Conv2d / ConvBiasAct, the pointwise
 * Conv2dBwdInput / Conv2dBwdWeight GEMMs, the packed DwConv2d /
 * DwConvBiasAct / DwConv2dBwdInput, FusedAttention, QuantMatMul,
 * QuantConv2d and QuantDwConv2d are each written once here, as a
 * template over a tier's lane primitives. A fused op runs its unfused
 * op's body plus the shared Epilogue (kernel_util.h), so it reaches
 * every tier its base does. The scalar bases instantiate them with
 * ScalarLanes; a SIMD tier TU (simd_avx2.cc, simd_neon.cc) defines its
 * own primitive struct and makes one registerTier call.
 *
 * A body owns partitioning, operand addressing, panel and channel-lane
 * packing, the unfold, depthwise tap windows, the scalar requantize
 * fallback and every scalar tail. A tier supplies only the loops it
 * vectorizes:
 *
 *   axpy(dst, src, a, n)        dst[j] += a * src[j], j < n
 *   dot(a, b, n)                sum of a[k] * b[k], k < n
 *   kTileRows, kTileCols,       the GEMM register tile: out[i0+r, j] +=
 *   gemmTile(a, i0, rows, k0,   a[i0+r, k0:k1] . panel[:, j] for r < rows
 *            k1, panel, jw,     and j < cols, a multiple of kTileCols;
 *            cols, out, n)      panel rows are jw floats apart (the body
 *                               finishes the panel's columns)
 *   F8, zeroF8(), loadF8(p),    kDwBlock fp32 channel lanes;
 *   storeF8(p, v),              mulAddF8 is acc[l] + a[l] * b[l], a
 *   mulAddF8(acc, a, b)         rounded multiply then a rounded add
 *                               (never FMA), so every tier matches the
 *                               direct depthwise loops bit for bit
 *   i8Tile(a, aps, rows, kp,    the int8 register tile: acc[r * cols + j]
 *          w, cols, acc)        = sum over pairs p < kp of
 *                               a[p * aps + 2r + t] * w[(p * cols + j)
 *                               * 2 + t], t < 2, for r < rows <=
 *                               kQTileRows and j < cols, a multiple of
 *                               kQChannels; int16 operand, int8
 *                               weights, int32 sums
 *   kLanes, I32, zeroI32(),     kLanes int32 accumulators;
 *   loadI32(p), macI8(acc, x,   macI8 adds (x[l] - zp) * w[l] to lane l
 *   zp, w)                      (the int8 depthwise)
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
#include <type_traits>

#include "kernels/kernel_util.h"

namespace pe {
namespace kutil {
namespace {

/** The scalar tier: plain loops, one fp32 lane for the GEMM
 *  primitives and a plain-array lane run for the channel-lane and int8
 *  ones. Every host runs it, and the SIMD tiers are tested against
 *  it. */
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

    /** The depthwise channel lanes as a plain array: each lane's
     *  multiply and add round separately, like the direct loops. */
    struct F8 {
        float v[kDwBlock];
    };

    static F8 zeroF8() { return F8{}; }

    static F8
    loadF8(const float *p)
    {
        F8 r;
        std::memcpy(r.v, p, sizeof r.v);
        return r;
    }

    static void storeF8(float *p, const F8 &a)
    {
        std::memcpy(p, a.v, sizeof a.v);
    }

    static F8
    mulAddF8(F8 acc, const F8 &a, const F8 &b)
    {
        for (int64_t l = 0; l < kDwBlock; ++l)
            acc.v[l] += a.v[l] * b.v[l];
        return acc;
    }

    /** Channels in chunks of 64: each pair's weights widen into two
     *  int16 rows once and serve every operand row. An operand entry
     *  x - zp lies in [-255, 255] (a zero-point is an int8 code), so
     *  each product fits 16 bits and the compiler forms them 8 to a
     *  16-bit vector multiply. */
    static void
    i8Tile(const int16_t *a, int64_t aps, int64_t rows, int64_t kp,
           const int8_t *w, int64_t cols, int32_t *acc)
    {
        constexpr int64_t kChunk = 64;
        std::fill_n(acc, rows * cols, 0);
        for (int64_t j0 = 0; j0 < cols; j0 += kChunk) {
            int64_t jn = std::min(kChunk, cols - j0);
            for (int64_t p = 0; p < kp; ++p) {
                int16_t w0[kChunk], w1[kChunk];
                const int8_t *wr = w + (p * cols + j0) * 2;
                for (int64_t j = 0; j < jn; ++j) {
                    w0[j] = wr[2 * j];
                    w1[j] = wr[2 * j + 1];
                }
                for (int64_t r = 0; r < rows; ++r) {
                    int16_t a0 = a[p * aps + 2 * r];
                    int16_t a1 = a[p * aps + 2 * r + 1];
                    int32_t *sr = acc + r * cols + j0;
                    for (int64_t j = 0; j < jn; ++j)
                        sr[j] += static_cast<int16_t>(a0 * w0[j]) +
                                 static_cast<int16_t>(a1 * w1[j]);
                }
            }
        }
    }

    /** int32 lanes as a plain array as wide as the depthwise channel
     *  block (one accumulator per block, as in one AVX2 register). */
    static constexpr int64_t kLanes = kDwBlock;
    struct I32 {
        int32_t v[kLanes];
    };

    static I32 zeroI32() { return I32{}; }

    static I32
    loadI32(const int32_t *p)
    {
        I32 r;
        std::memcpy(r.v, p, sizeof r.v);
        return r;
    }

    /** A zero-point is an int8 code (chooseQuantParams; qconvK pads
     *  with it as one), so every (x - zp) * w lies in [-32640, 32640]:
     *  the products are exact in 16 bits, and the compiler forms them
     *  8 to a 16-bit vector multiply. */
    static I32
    macI8(I32 acc, const int8_t *x, int32_t zp, const int8_t *w)
    {
        int16_t z = static_cast<int16_t>(zp);
        for (int64_t l = 0; l < kLanes; ++l)
            acc.v[l] += static_cast<int16_t>((x[l] - z) * w[l]);
        return acc;
    }

    static bool vectorEmitOk(const Requant &) { return true; }

    /** Requant::emitWith per lane, each step a loop over the lanes:
     *  the scale, the Epilogue's bias and activation, the quantize. */
    static void
    emitLanes(const I32 &acc, const float *sw, const float *bias,
              const Requant &rq, int8_t *dst)
    {
        float r[kLanes];
        for (int64_t l = 0; l < kLanes; ++l)
            r[l] = static_cast<float>(acc.v[l]) * rq.xScale * sw[l];
        Epilogue{bias, rq.act}.row(r, kLanes);
        for (int64_t l = 0; l < kLanes; ++l)
            dst[l] = quantizeValue(r[l], rq.yScale, rq.yZp);
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

// ---- packed depthwise conv --------------------------------------------
//
// Depthwise planes are small (2x2 to 8x8 in the MCUNet proxy), so the
// lanes run across channels, not along a row (the channel-tiled layout
// of Zhang, Lo & Lu, AAAI 2020). A shard is one (image, kDwBlock-
// channel block). It packs the block's x plane [pixel][lane] into its
// workspace, one band of at most kDwBandPixels pixels at a time (a
// whole MCUNet plane is one band), and the taps [tap][lane]; every
// output pixel runs kDwBlock lanes over its in-bounds taps in the
// direct loop's order. Padding lanes of a short last block are zero
// and never stored.

/** Input pixels one packed band holds, whole rows of them: the bound
 *  on a depthwise shard's workspace whatever the plane size. */
constexpr int64_t kDwBandPixels = 1024;

/** One depthwise conv's geometry: x [n, ch, h, w] to y [n, ch, ho, wo]
 *  through a kh x kw window, ch split into blocks of kDwBlock, x
 *  packed band rows at a time. */
struct DwGeom {
    int64_t ch, blocks, h, w, kh, kw, ho, wo, stride, pad, band;
};

/** x rows per packed band: the whole plane if it fits kDwBandPixels,
 *  else as many rows as fit but at least one window's kh. */
inline int64_t
dwBandRows(int64_t h, int64_t w, int64_t kh)
{
    return std::min(h, std::max(kh, kDwBandPixels / w));
}

inline DwGeom
dwGeomOf(const KernelCtx &c, const Shape &x, const Shape &wt,
         const Shape &y)
{
    return {x[1],  (x[1] + kDwBlock - 1) / kDwBlock,
            x[2],  x[3],
            wt[2], wt[3],
            y[2],  y[3],
            attrI(c, "stride", 1), attrI(c, "pad", 0),
            dwBandRows(x[2], x[3], wt[2])};
}

/** Elements of a packed depthwise workspace: one band of x rows and
 *  the taps, kDwBlock lanes each. The fp32 forms count floats, the
 *  int8 form bytes. */
inline int64_t
dwPackedElems(const Graph &g, const Node &n)
{
    bool bwd = n.op == OpKind::DwConv2dBwdInput;
    const Shape &x = bwd ? n.shape : g.node(n.inputs[0]).shape;
    const Shape &w = g.node(n.inputs[bwd ? 0 : 1]).shape;
    return (dwBandRows(x[2], x[3], w[2]) * x[3] + w[2] * w[3]) * kDwBlock;
}

/** dst[p * kDwBlock + l] = src[l * stride + p] for p < n: @p lanes
 *  planes @p stride apart into lane-packed form, the lanes past them
 *  zeroed. */
template <typename T>
inline void
packLanes(const T *src, int64_t stride, int64_t n, int64_t lanes, T *dst)
{
    if (lanes < kDwBlock)
        std::fill_n(dst, n * kDwBlock, T(0));
    for (int64_t l = 0; l < lanes; ++l) {
        for (int64_t p = 0; p < n; ++p)
            dst[p * kDwBlock + l] = src[l * stride + p];
    }
}

/** The inverse of packLanes for the first @p lanes lanes. */
template <typename T>
inline void
unpackLanes(const T *src, int64_t stride, int64_t n, int64_t lanes,
            T *dst)
{
    for (int64_t l = 0; l < lanes; ++l) {
        for (int64_t p = 0; p < n; ++p)
            dst[l * stride + p] = src[p * kDwBlock + l];
    }
}

/**
 * f(pix, xo, wo, rows, cols) for every output pixel of rows [i0, i1)
 * in row-major order, with x rows [h0, h1) packed in the band. The
 * pixel's window, clamped to the band and the plane once per pixel so
 * the tap loops have no branch, is rows x cols taps (rows <= 0 when it
 * is empty); xo and wo are the packed offsets of its first tap in the
 * band and in the tap-major weights.
 */
template <class F>
inline void
forEachDwPixel(const DwGeom &d, int64_t i0, int64_t i1, int64_t h0,
               int64_t h1, F &&f)
{
    for (int64_t i = i0; i < i1; ++i) {
        int64_t ib = i * d.stride - d.pad;
        int64_t a0 = std::max(h0 - ib, int64_t{0});
        int64_t a1 = std::min(d.kh, h1 - ib);
        for (int64_t j = 0; j < d.wo; ++j) {
            int64_t jb = j * d.stride - d.pad;
            int64_t b0 = std::max(-jb, int64_t{0});
            int64_t b1 = std::min(d.kw, d.w - jb);
            f(i * d.wo + j, ((ib + a0 - h0) * d.w + jb + b0) * kDwBlock,
              (a0 * d.kw + b0) * kDwBlock, b1 > b0 ? a1 - a0 : 0, b1 - b0);
        }
    }
}

/**
 * The forward bands of one block: output rows [i0, i1) read x rows
 * [h0, h1), at most d.band of them. f(i0, i1, h0, h1) per band.
 */
template <class F>
inline void
forEachDwOutBand(const DwGeom &d, F &&f)
{
    int64_t rows = d.band == d.h ? d.ho : (d.band - d.kh) / d.stride + 1;
    for (int64_t i0 = 0; i0 < d.ho; i0 += rows) {
        int64_t i1 = std::min(d.ho, i0 + rows);
        f(i0, i1, std::max(i0 * d.stride - d.pad, int64_t{0}),
          std::min(d.h, (i1 - 1) * d.stride - d.pad + d.kh));
    }
}

/**
 * DwConv2d / DwConvBiasAct over the (image, channel-block) shards of
 * this op: y[c] = sum over in-bounds taps of x[c] * w[c], accumulated
 * from zero in the direct loop's (kh, kw) order, then the epilogue per
 * channel. Bit-identical to the direct loop on every tier.
 */
template <class P>
void
dwConvK(const KernelCtx &c)
{
    DwGeom d = dwGeomOf(c, *c.inShapes[0], *c.inShapes[1], *c.outShape);
    int64_t taps = d.kh * d.kw, hw = d.h * d.w, howo = d.ho * d.wo;
    float *xp = c.workspace, *wp = xp + d.band * d.w * kDwBlock;
    Epilogue ep = epilogueOf(c);
    int64_t hi = partitionEnd(c, (*c.outShape)[0] * d.blocks);
    for (int64_t idx = c.begin; idx < hi; ++idx) {
        int64_t n = idx / d.blocks, c0 = idx % d.blocks * kDwBlock;
        int64_t lanes = std::min(kDwBlock, d.ch - c0);
        const float *x = c.in[0] + (n * d.ch + c0) * hw;
        float *out = c.out + (n * d.ch + c0) * howo;
        packLanes(c.in[1] + c0 * taps, taps, taps, lanes, wp);
        forEachDwOutBand(d, [&](int64_t i0, int64_t i1, int64_t h0,
                                int64_t h1) {
            packLanes(x + h0 * d.w, hw, (h1 - h0) * d.w, lanes, xp);
            forEachDwPixel(d, i0, i1, h0, h1, [&](int64_t pix, int64_t xo,
                                                  int64_t wo, int64_t rows,
                                                  int64_t cols) {
                auto acc = P::zeroF8();
                for (int64_t a = 0; a < rows; ++a) {
                    const float *xr = xp + xo + a * d.w * kDwBlock;
                    const float *wr = wp + wo + a * d.kw * kDwBlock;
                    for (int64_t b = 0; b < cols; ++b)
                        acc = P::mulAddF8(acc,
                                          P::loadF8(xr + b * kDwBlock),
                                          P::loadF8(wr + b * kDwBlock));
                }
                float y[kDwBlock];
                P::storeF8(y, acc);
                unpackLanes(y, howo, 1, lanes, out + pix);
            });
        });
        for (int64_t l = 0; l < lanes; ++l)
            ep.channel(out + l * howo, howo, c0 + l);
    }
}

/**
 * DwConv2dBwdInput over the (image, channel-block) shards of this op:
 * dx[c] += dy[c] * w[c] scattered over each output pixel's in-bounds
 * taps, pixels in row-major order, so every dx element sums in the
 * direct loop's order. dx is accumulated one band of rows at a time,
 * from the output rows whose windows reach it. Unlike the direct loop
 * it does not skip dy == 0, so bits differ only where a weight is not
 * finite (0 * inf).
 */
template <class P>
void
dwConvBwdInputK(const KernelCtx &c)
{
    DwGeom d = dwGeomOf(c, *c.outShape, *c.inShapes[0], *c.inShapes[1]);
    int64_t taps = d.kh * d.kw, hw = d.h * d.w, howo = d.ho * d.wo;
    float *xp = c.workspace, *wp = xp + d.band * d.w * kDwBlock;
    int64_t hi = partitionEnd(c, (*c.outShape)[0] * d.blocks);
    for (int64_t idx = c.begin; idx < hi; ++idx) {
        int64_t n = idx / d.blocks, c0 = idx % d.blocks * kDwBlock;
        int64_t lanes = std::min(kDwBlock, d.ch - c0);
        const float *dy = c.in[1] + (n * d.ch + c0) * howo;
        float *dx = c.out + (n * d.ch + c0) * hw;
        packLanes(c.in[0] + c0 * taps, taps, taps, lanes, wp);
        for (int64_t h0 = 0; h0 < d.h; h0 += d.band) {
            int64_t h1 = std::min(d.h, h0 + d.band);
            // Output rows whose window meets x rows [h0, h1).
            int64_t reach = h0 + d.pad - d.kh + 1;
            int64_t i0 = reach > 0 ? (reach + d.stride - 1) / d.stride : 0;
            int64_t i1 = std::min(d.ho, (h1 - 1 + d.pad) / d.stride + 1);
            std::fill_n(xp, (h1 - h0) * d.w * kDwBlock, 0.0f);
            forEachDwPixel(d, i0, i1, h0, h1, [&](int64_t pix, int64_t xo,
                                                  int64_t wo, int64_t rows,
                                                  int64_t cols) {
                float gl[kDwBlock];
                packLanes(dy + pix, howo, 1, lanes, gl);
                auto g = P::loadF8(gl);
                for (int64_t a = 0; a < rows; ++a) {
                    float *xr = xp + xo + a * d.w * kDwBlock;
                    const float *wr = wp + wo + a * d.kw * kDwBlock;
                    for (int64_t b = 0; b < cols; ++b) {
                        float *dst = xr + b * kDwBlock;
                        P::storeF8(dst, P::mulAddF8(
                                            P::loadF8(dst), g,
                                            P::loadF8(wr + b * kDwBlock)));
                    }
                }
            });
            unpackLanes(xp, hw, (h1 - h0) * d.w, lanes, dx + h0 * d.w);
        }
    }
}

// ---- fused attention --------------------------------------------------

/**
 * softmax(Q K^T * scale + mask) V over this shard's (row, head) units,
 * with the score row held in the shard's workspace. Q is [L*S, H*Dh]
 * and K/V [L, M, H*Dh]; unit u is (row r = u/H, head h = u%H). It
 * reads Q row r and writes output row r at column h*Dh, and reads K/V
 * rows of lead r/S at column h*Dh with stride H*Dh: the head split and
 * merge happen in the indexing, not in copies. The optional mask has R
 * rows, R = S (one mask shared by every lead) or R = L*S (one per
 * row), and row r reads mask row r mod R. With no mask every row reads
 * a zero row kept after the scores in the workspace: every column is
 * visible, and a score plus 0.0f changes no softmax bit.
 *
 * On the scalar tier this is bit-identical to the unfused chain
 * (BatchMatMul -> Scale [-> Add] -> Softmax -> BatchMatMul): dot()
 * sums k ascending like gemmNaive, the softmax is softmax.cc's exact
 * max / exp(x-mx) / sum / multiply-by-reciprocal sequence, and the V
 * product adds rows ascending per output column. Masked positions
 * arrive as kMaskedScore adds, so exp underflows to exactly 0.0f. The
 * softmax stays scalar on every tier.
 *
 * Each row stops at its last visible column: trailing mask entries
 * <= kMaskedScore are trimmed, and the score, exp, sum, scale and V
 * loops run only up to that bound, so a decode step at generation g
 * costs g + 1 columns, not M. A trimmed column would have weighed
 * exactly 0.0f, so the bits equal the full-width loop whenever the K/V
 * rows past the bound are finite (a NaN or inf K row turns a masked
 * score into NaN in the unfused chain; this body never reads it). A
 * fully masked row keeps the full width, so its result does not
 * change.
 */
template <class P>
void
fusedAttentionK(const KernelCtx &c)
{
    const Shape &qs = *c.inShapes[0];
    const Shape &ks = *c.inShapes[1];
    int64_t heads = attrI(c, "heads", 1);
    int64_t d = qs[1];
    int64_t dh = d / heads;
    int64_t s = qs[0] / ks[0];
    int64_t m = ks[1];
    float scale = attrF(c, "scale", 1.0);

    const float *q = c.in[0];
    const float *k = c.in[1];
    const float *v = c.in[2];
    float *scores = c.workspace;
    // With no mask every row reads the zero row after the scores.
    const bool masked = c.in.size() > 3;
    const float *mask = masked ? c.in[3] : scores + m;
    const int64_t mrows = masked ? (*c.inShapes[3])[0] : 1;
    std::fill_n(scores + m, masked ? 0 : m, 0.0f);

    int64_t boundRow = -1, end = m; // the heads of a row share its bound
    for (int64_t u = c.begin; u < partitionEnd(c, qs[0] * heads); ++u) {
        int64_t r = u / heads;
        int64_t col = (u % heads) * dh;
        const float *qrow = q + r * d + col;
        const float *mrow = mask + (r % mrows) * m;
        const float *kb = k + (r / s) * m * d + col;
        const float *vb = v + (r / s) * m * d + col;

        if (r != boundRow) {
            boundRow = r;
            end = m;
            while (end > 0 && mrow[end - 1] <= kMaskedScore)
                --end;
            if (end == 0)
                end = m;
        }

        float mx = -std::numeric_limits<float>::infinity();
        for (int64_t i = 0; i < end; ++i) {
            scores[i] = P::dot(qrow, kb + i * d, dh) * scale + mrow[i];
            if (scores[i] > mx)
                mx = scores[i];
        }
        float sum = 0.0f;
        for (int64_t i = 0; i < end; ++i) {
            scores[i] = std::exp(scores[i] - mx);
            sum += scores[i];
        }
        float inv = 1.0f / sum;
        for (int64_t i = 0; i < end; ++i)
            scores[i] *= inv;

        float *orow = c.out + r * d + col;
        std::memset(orow, 0, sizeof(float) * dh);
        for (int64_t i = 0; i < end; ++i)
            P::axpy(orow, vb + i * d, scores[i], dh);
    }
}

// ---- int8 kernels -----------------------------------------------------
//
// int32 accumulation is exact, so every tier is bit-exact to the
// scalar one as long as its emitLanes rounds like Requant::emit; where
// it cannot (vectorEmitOk false) the body requantizes each output
// through Requant::emit.
//
// QuantMatMul and QuantConv2d share one register tile with its lanes
// across output channels (qtileRows). The weights are packed once per
// call as int8 pairs [k/2][channels][2], channels rounded up to
// kQChannels; the activations become an int16 operand [k/2][rows][2]
// holding x - zp (an odd k's pad pair is zero), so a pair of
// activation rows k, k + 1 interleaves into one operand row with
// sequential reads and writes. A tile step broadcasts one row's pair
// against each channel group's packed pair (a 16-bit multiply-add of
// two products into 32 bits). Every sum is exact in any order, so
// neither the tile shape nor the tier moves a bit.

/** Output channels the int8 tile pads to: one AVX2 int32 register. */
constexpr int64_t kQChannels = 8;
/** Operand rows per i8Tile call, on every tier: it sizes the int32
 *  sums in the shared workspace, so a tier's tile takes any rows <=
 *  kQTileRows. */
constexpr int64_t kQTileRows = 4;
/** Output pixels per conv operand panel: the bound on the operand and
 *  the unfold whatever the plane size. */
constexpr int64_t kQPanelRows = 32;

/**
 * One call's int8 tile workspace, carved from the shard's in this
 * order: the int32 sums of one row block [kQTileRows][cop], the weight
 * scales and biases per channel padded to cop (pad lanes repeat the
 * last channel; their outputs are never stored), the packed weights
 * [kp][cop][2], the operand [kp][rows][2] and, for a spatial conv, the
 * i8 unfold.
 */
struct QTile {
    int64_t k, kp, co, cop;
    int32_t *acc;
    float *sw, *bias;
    int8_t *w;
    int16_t *op;
    int8_t *col;
};

/** Byte offsets of the QTile regions after the sums (which start at
 *  0), in carve order, for @p k deep, @p co channel weights and an
 *  operand of @p rows rows; col is where the operand ends. */
struct QTileLayout {
    int64_t kp, cop, sw, bias, w, op, col;
};

inline QTileLayout
qtileLayout(int64_t k, int64_t co, int64_t rows)
{
    QTileLayout l;
    l.kp = (k + 1) / 2;
    l.cop = (co + kQChannels - 1) / kQChannels * kQChannels;
    l.sw = 4 * kQTileRows * l.cop;
    l.bias = l.sw + 4 * l.cop;
    l.w = l.bias + 4 * l.cop;
    l.op = l.w + 2 * l.kp * l.cop;
    l.col = l.op + 4 * rows * l.kp;
    return l;
}

/** Bytes of a QTile workspace: the qtileLayout regions and @p colBytes
 *  of unfold. */
inline int64_t
qtileBytes(int64_t k, int64_t co, int64_t rows, int64_t colBytes)
{
    return qtileLayout(k, co, rows).col + colBytes;
}

/** Carve @p ws (sized by qtileBytes with the same @p rows) and fill
 *  the padded per-channel scales and biases. */
inline QTile
qtileOf(void *ws, int64_t k, int64_t co, int64_t rows, const Requant &rq)
{
    QTileLayout l = qtileLayout(k, co, rows);
    char *b = static_cast<char *>(ws);
    QTile t;
    t.k = k;
    t.kp = l.kp;
    t.co = co;
    t.cop = l.cop;
    t.acc = static_cast<int32_t *>(ws);
    t.sw = reinterpret_cast<float *>(b + l.sw);
    t.bias = reinterpret_cast<float *>(b + l.bias);
    t.w = reinterpret_cast<int8_t *>(b + l.w);
    t.op = reinterpret_cast<int16_t *>(b + l.op);
    t.col = reinterpret_cast<int8_t *>(b + l.col);
    for (int64_t j = 0; j < t.cop; ++j) {
        int64_t ch = std::min(j, co - 1);
        t.sw[j] = rq.wScales ? rq.wScales[ch] : rq.wScale;
        t.bias[j] = rq.bias ? rq.bias[ch] : 0.0f;
    }
    return t;
}

/** Pack weight (kk, ch) = src[kk * ks + ch * cs] for kk < k, ch < co
 *  into t.w's [kp][cop][2] pairs, the pad pair and pad channels
 *  zero. */
inline void
packQWeights(const QTile &t, const int8_t *src, int64_t ks, int64_t cs)
{
    std::fill_n(t.w, t.kp * t.cop * 2, int8_t{0});
    for (int64_t kk = 0; kk < t.k; ++kk) {
        int8_t *d = t.w + (kk / 2) * t.cop * 2 + kk % 2;
        for (int64_t ch = 0; ch < t.co; ++ch)
            d[ch * 2] = src[kk * ks + ch * cs];
    }
}

/** t.op's pairs for @p rows operand rows: element (kk, r) is
 *  src[kk * ks + r * rs] - zp for kk < k, the pad pair's second half
 *  zero. Contiguous rows (a conv's pixels) take their own
 *  instantiation, so the compiler vectorizes the interleave. */
inline void
packQOperand(const QTile &t, const int8_t *src, int64_t ks, int64_t rs,
             int64_t rows, int32_t zp)
{
    auto pack = [&](auto rstride) {
        for (int64_t p = 0; p < t.kp; ++p) {
            const int8_t *r0 = src + 2 * p * ks, *r1 = r0 + ks;
            int16_t *d = t.op + p * rows * 2;
            bool last = 2 * p + 1 == t.k;
            for (int64_t r = 0; r < rows; ++r) {
                d[2 * r] = static_cast<int16_t>(r0[r * rstride] - zp);
                d[2 * r + 1] = last ? int16_t{0}
                                   : static_cast<int16_t>(
                                         r1[r * rstride] - zp);
            }
        }
    };
    if (rs == 1)
        pack(std::integral_constant<int64_t, 1>{});
    else
        pack(rs);
}

/**
 * Rows [0, rows) of t.op (packed for exactly @p rows rows) through the
 * tier's tile, kQTileRows rows a call, each row's co outputs
 * requantized into out[r * rs + ch * cs]:
 * kLanes channels at a time through emitLanes (a run that is short or
 * not contiguous goes through a scratch array), or, where emitLanes
 * cannot match Requant::emit, output by output through it.
 */
template <class P>
void
qtileRows(const QTile &t, int64_t rows, const Requant &rq, int8_t *out,
          int64_t rs, int64_t cs)
{
    constexpr int64_t L = P::kLanes;
    bool vec = P::vectorEmitOk(rq);
    for (int64_t i0 = 0; i0 < rows; i0 += kQTileRows) {
        int64_t rn = std::min(kQTileRows, rows - i0);
        P::i8Tile(t.op + i0 * 2, rows * 2, rn, t.kp, t.w, t.cop, t.acc);
        for (int64_t r = 0; r < rn; ++r) {
            const int32_t *s = t.acc + r * t.cop;
            int8_t *dst = out + (i0 + r) * rs;
            for (int64_t j = 0; j < t.co; j += L) {
                int64_t lanes = std::min(L, t.co - j);
                if (!vec) {
                    for (int64_t l = 0; l < lanes; ++l)
                        dst[(j + l) * cs] = rq.emit(s[j + l], j + l);
                    continue;
                }
                int8_t y[L];
                bool direct = cs == 1 && lanes == L;
                P::emitLanes(P::loadI32(s + j), t.sw + j,
                             rq.bias ? t.bias + j : nullptr, rq,
                             direct ? dst + j : y);
                if (!direct) {
                    for (int64_t l = 0; l < lanes; ++l)
                        dst[(j + l) * cs] = y[l];
                }
            }
        }
    }
}

/**
 * out[M,N] i8 = requant(sum_k (a[m,k] - xZp) * w[k,n]) over this
 * shard's rows, either operand stored transposed: the int8 tile with
 * the N output columns as its channels, A's rows converted to the
 * operand kQTileRows at a time, the output contiguous.
 */
template <class P>
void
qmatmulK(const KernelCtx &c)
{
    bool ta = attrI(c, "transA", 0) != 0;
    bool tb = attrI(c, "transB", 0) != 0;
    int64_t m = (*c.outShape)[0], n = (*c.outShape)[1];
    int64_t k = (*c.inShapes[0])[ta ? 0 : 1];
    const int8_t *a = reinterpret_cast<const int8_t *>(c.in[0]);
    int8_t *out = reinterpret_cast<int8_t *>(c.out);
    Requant rq = requantOf(c);
    QTile t = qtileOf(c.workspace, k, n, kQTileRows, rq);
    packQWeights(t, reinterpret_cast<const int8_t *>(c.in[1]),
                 tb ? 1 : n, tb ? k : 1);

    int64_t m_hi = partitionEnd(c, m);
    for (int64_t i0 = c.begin; i0 < m_hi; i0 += kQTileRows) {
        int64_t rn = std::min(kQTileRows, m_hi - i0);
        if (ta)
            packQOperand(t, a + i0, m, 1, rn, rq.xZp);
        else
            packQOperand(t, a + i0 * k, 1, k, rn, rq.xZp);
        qtileRows<P>(t, rn, rq, out + i0 * n, n, 1);
    }
}

/**
 * int8 conv over the images of this shard: the int8 tile with the
 * output channels as its channels and the output pixels as its rows,
 * each channel's plane written cols apart, one panel of at most
 * kQPanelRows pixels at a time. A pointwise conv builds the panel's
 * operand straight from x; any other conv unfolds the panel into the
 * shard's i8 column buffer, whose padding cells hold the input
 * zero-point so (col - zp) is exactly zero where fp32 pads zeros, and
 * builds it from that. Either source is read two k rows at a time, in
 * order.
 */
template <class P>
void
qconvK(const KernelCtx &c)
{
    const Shape &xs = *c.inShapes[0], &ws = *c.inShapes[1];
    int64_t ci = xs[1], h = xs[2], w = xs[3];
    int64_t co = ws[0], kh = ws[2], kw = ws[3];
    int64_t wo = (*c.outShape)[3];
    int64_t k = ci * kh * kw;
    int64_t cols = (*c.outShape)[2] * wo;
    int64_t panel = std::min(cols, kQPanelRows);
    const int8_t *x = reinterpret_cast<const int8_t *>(c.in[0]);
    int8_t *out = reinterpret_cast<int8_t *>(c.out);
    Requant rq = requantOf(c);
    QTile t = qtileOf(c.workspace, k, co, panel, rq);
    packQWeights(t, reinterpret_cast<const int8_t *>(c.in[1]), 1, k);
    bool pointwise = isPointwiseConv(ws, c.node->attrs);
    int64_t stride = attrI(c, "stride", 1), pad = attrI(c, "pad", 0);

    for (int64_t ni = c.begin; ni < partitionEnd(c, xs[0]); ++ni) {
        const int8_t *xn = x + ni * ci * h * w;
        int8_t *on = out + ni * co * cols;
        for (int64_t q0 = 0; q0 < cols; q0 += panel) {
            int64_t pw = std::min(panel, cols - q0);
            const int8_t *src = xn + q0;
            int64_t ld = cols;
            if (!pointwise) {
                im2colUnfold(xn, t.col, ci, h, w, kh, kw, wo, stride, pad,
                             static_cast<int8_t>(rq.xZp), q0, q0 + pw);
                src = t.col;
                ld = pw;
            }
            packQOperand(t, src, ld, 1, pw, rq.xZp);
            qtileRows<P>(t, pw, rq, on + q0, 1, cols);
        }
    }
}

/**
 * int8 depthwise conv: the packed depthwise body with int32 lanes over
 * the (image, channel-block) shards of this op, x bands and taps
 * packed as i8 in the shard's workspace. Each pixel's kDwBlock
 * channels run as kDwBlock / kLanes accumulators of kLanes lanes,
 * (x - zp) * w with one weight per lane, and requantize through
 * emitLanes with the block's per-channel scales and biases. Where
 * emitLanes cannot match Requant::emit (gelu, silu) the whole op runs
 * the scalar lanes, whose emitLanes is Requant::emit's sequence.
 */
template <class P>
void
qdwConvK(const KernelCtx &c)
{
    constexpr int64_t kGroups = kDwBlock / P::kLanes;
    Requant rq = requantOf(c);
    if (!P::vectorEmitOk(rq))
        return qdwConvK<ScalarLanes>(c);
    DwGeom d = dwGeomOf(c, *c.inShapes[0], *c.inShapes[1], *c.outShape);
    int64_t taps = d.kh * d.kw, hw = d.h * d.w, howo = d.ho * d.wo;
    int8_t *xp = reinterpret_cast<int8_t *>(c.workspace);
    int8_t *wp = xp + d.band * d.w * kDwBlock;
    int64_t hi = partitionEnd(c, (*c.outShape)[0] * d.blocks);
    for (int64_t idx = c.begin; idx < hi; ++idx) {
        int64_t n = idx / d.blocks, c0 = idx % d.blocks * kDwBlock;
        int64_t lanes = std::min(kDwBlock, d.ch - c0);
        const int8_t *x = reinterpret_cast<const int8_t *>(c.in[0]) +
                          (n * d.ch + c0) * hw;
        int8_t *out = reinterpret_cast<int8_t *>(c.out) +
                      (n * d.ch + c0) * howo;
        packLanes(reinterpret_cast<const int8_t *>(c.in[1]) + c0 * taps,
                  taps, taps, lanes, wp);
        float sw[kDwBlock], bias[kDwBlock];
        for (int64_t l = 0; l < kDwBlock; ++l) {
            int64_t ch = c0 + std::min(l, lanes - 1);
            sw[l] = rq.wScales ? rq.wScales[ch] : rq.wScale;
            bias[l] = rq.bias ? rq.bias[ch] : 0.0f;
        }
        forEachDwOutBand(d, [&](int64_t i0, int64_t i1, int64_t h0,
                                int64_t h1) {
            packLanes(x + h0 * d.w, hw, (h1 - h0) * d.w, lanes, xp);
            forEachDwPixel(d, i0, i1, h0, h1, [&](int64_t pix, int64_t xo,
                                                  int64_t wo, int64_t rows,
                                                  int64_t cols) {
                typename P::I32 acc[kGroups];
                for (int64_t g = 0; g < kGroups; ++g)
                    acc[g] = P::zeroI32();
                for (int64_t a = 0; a < rows; ++a) {
                    const int8_t *xr = xp + xo + a * d.w * kDwBlock;
                    const int8_t *wr = wp + wo + a * d.kw * kDwBlock;
                    for (int64_t b = 0; b < cols * kDwBlock; b += kDwBlock) {
                        for (int64_t g = 0; g < kGroups; ++g)
                            acc[g] = P::macI8(
                                acc[g], xr + b + g * P::kLanes, rq.xZp,
                                wr + b + g * P::kLanes);
                    }
                }
                int8_t y[kDwBlock];
                for (int64_t g = 0; g < kGroups; ++g) {
                    int64_t l0 = g * P::kLanes;
                    P::emitLanes(acc[g], sw + l0,
                                 rq.bias ? bias + l0 : nullptr, rq, y + l0);
                }
                unpackLanes(y, howo, 1, lanes, out + pix);
            });
        });
    }
}

// ---- tier registration ------------------------------------------------

/**
 * Register the @p tier variant of every body above — "blocked@avx2"
 * (MatMul, MatMulBiasAct, BatchMatMul), "im2col@avx2" (Conv2d,
 * ConvBiasAct, and the pointwise Conv2dBwdInput / Conv2dBwdWeight),
 * "packed@avx2" (DwConv2d, DwConvBiasAct, DwConv2dBwdInput),
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
    for (OpKind op : {OpKind::DwConv2d, OpKind::DwConvBiasAct})
        registerTierVariant(op, "packed", tier, dwConvK<P>);
    registerTierVariant(OpKind::DwConv2dBwdInput, "packed", tier,
                        dwConvBwdInputK<P>);
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
