/**
 * @file
 * AVX2/FMA kernel tier: the hot quartet — fp32 panel GEMM, im2col
 * conv inner loop (Conv2d and ConvBiasAct), int8 GEMM with
 * vectorized requantization, and the int8 depthwise conv. Registered
 * as "<base>@avx2" variants of the scalar kernels, with IDENTICAL
 * partition domains and workspace declarations (kernel_util.h), so
 * the executor can switch tiers at bind time against one memory
 * plan.
 *
 * Numerics contract (README "Kernel tiers"):
 *  - int8 kernels are BIT-EXACT to the scalar "int8" tier: int32
 *    accumulation is fully associative, and the vectorized
 *    requantization performs the same IEEE mul/div/clamp sequence
 *    with _mm256_cvtps_epi32 matching lrintf's round-nearest-even.
 *    Activations beyond relu (gelu/silu) requantize through the
 *    scalar emit path, so exactness never depends on vector
 *    transcendental approximations.
 *  - fp32 kernels use FMA (one rounding per multiply-add) and
 *    per-panel partial sums, so results differ from scalar in the
 *    last bits: within 1e-5 relative (asserted by test_simd).
 *    Thread-count invariance still holds — every output element's
 *    accumulation order is independent of the shard bounds.
 *
 * This TU is compiled with -mavx2 -mfma -ffp-contract=off (the
 * contract flag keeps the compiler from contracting the SCALAR tail
 * code paths, which must round like plain mul+add), and its
 * registration only runs when cpu_features reports the host executes
 * AVX2 — so this object file is safe to link into binaries deployed
 * on SSE-only machines.
 */

#include "kernels/kernel.h"

#if !defined(PE_NO_SIMD) && (defined(__x86_64__) || defined(__i386__))

#include <cmath>
#include <cstring>
#include <immintrin.h>
#include <limits>

#include "kernels/kernel_util.h"

namespace pe {
namespace {

using kutil::GemmView;
using kutil::Requant;
using kutil::requantOf;

constexpr int64_t kBlock = kutil::kGemmBlock;

// ---- fp32 panel GEMM --------------------------------------------------

/**
 * Blocked GEMM with an 8-row x 8-column FMA register tile over the
 * same packed-B panel layout (and workspace) as the scalar "blocked"
 * kernel. Accumulators live in ymm registers across the panel's
 * k-loop; each panel's partial sum is added to the output once.
 */
void
gemmAvx2(const GemmView &a, const GemmView &b, float *out, int64_t r0,
         int64_t r1, float *ws)
{
    int64_t n = b.cols, kk = a.cols;
    std::memset(out + r0 * n, 0, sizeof(float) * (r1 - r0) * n);
    for (int64_t k0 = 0; k0 < kk; k0 += kBlock) {
        int64_t k1 = std::min(k0 + kBlock, kk);
        for (int64_t j0 = 0; j0 < n; j0 += kBlock) {
            int64_t j1 = std::min(j0 + kBlock, n);
            int64_t jw = j1 - j0;
            // Pack B[k0:k1, j0:j1] exactly like the scalar kernel.
            for (int64_t k = k0; k < k1; ++k) {
                float *dst = ws + (k - k0) * jw;
                for (int64_t j = j0; j < j1; ++j)
                    dst[j - j0] = b.at(k, j);
            }
            for (int64_t i0 = r0; i0 < r1; i0 += 8) {
                int64_t rows = std::min<int64_t>(8, r1 - i0);
                int64_t j = 0;
                for (; j + 8 <= jw; j += 8) {
                    __m256 acc[8];
                    for (int64_t r = 0; r < rows; ++r)
                        acc[r] = _mm256_setzero_ps();
                    for (int64_t k = k0; k < k1; ++k) {
                        __m256 bv =
                            _mm256_loadu_ps(ws + (k - k0) * jw + j);
                        for (int64_t r = 0; r < rows; ++r) {
                            __m256 av =
                                _mm256_set1_ps(a.at(i0 + r, k));
                            acc[r] = _mm256_fmadd_ps(av, bv, acc[r]);
                        }
                    }
                    for (int64_t r = 0; r < rows; ++r) {
                        float *orow = out + (i0 + r) * n + j0 + j;
                        _mm256_storeu_ps(
                            orow,
                            _mm256_add_ps(_mm256_loadu_ps(orow),
                                          acc[r]));
                    }
                }
                // Column tail: plain scalar mul+add (contract off).
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

GemmView
viewOf(const float *data, const Shape &s, bool trans)
{
    return kutil::gemmViewOf(data, s, trans);
}

void
matmulAvx2K(const KernelCtx &c)
{
    bool ta = c.node->attrs.getInt("transA", 0) != 0;
    bool tb = c.node->attrs.getInt("transB", 0) != 0;
    GemmView a = viewOf(c.in[0], *c.inShapes[0], ta);
    GemmView b = viewOf(c.in[1], *c.inShapes[1], tb);
    gemmAvx2(a, b, c.out, c.begin, partitionEnd(c, a.rows),
             c.workspace);
}

void
batchMatmulAvx2K(const KernelCtx &c)
{
    bool ta = c.node->attrs.getInt("transA", 0) != 0;
    bool tb = c.node->attrs.getInt("transB", 0) != 0;
    const Shape &as = *c.inShapes[0];
    const Shape &bs = *c.inShapes[1];
    int64_t batch = as[0];
    int64_t a_stride = as[1] * as[2];
    int64_t b_stride = bs[1] * bs[2];
    int64_t o_stride = (*c.outShape)[1] * (*c.outShape)[2];
    for (int64_t n = c.begin; n < partitionEnd(c, batch); ++n) {
        GemmView a = viewOf(c.in[0] + n * a_stride, {as[1], as[2]}, ta);
        GemmView b = viewOf(c.in[1] + n * b_stride, {bs[1], bs[2]}, tb);
        gemmAvx2(a, b, c.out + n * o_stride, 0, a.rows, c.workspace);
    }
}

// ---- fp32 im2col conv -------------------------------------------------

/** dst[j] += a * src[j], FMA-vectorized; the tail is plain mul+add. */
void
axpyAvx2(float *dst, const float *src, float a, int64_t n)
{
    __m256 av = _mm256_set1_ps(a);
    int64_t j = 0;
    for (; j + 8 <= n; j += 8)
        _mm256_storeu_ps(dst + j,
                         _mm256_fmadd_ps(av, _mm256_loadu_ps(src + j),
                                         _mm256_loadu_ps(dst + j)));
    for (; j < n; ++j)
        dst[j] += a * src[j];
}

/** The scalar "im2col" body (kutil::im2colConv) with the GEMM row
 *  update FMA-vectorized; serves Conv2d and ConvBiasAct. */
void
conv2dIm2colAvx2K(const KernelCtx &c)
{
    kutil::im2colConv(c, nullptr, kActNone, axpyAvx2);
}

void
convBiasActIm2colAvx2K(const KernelCtx &c)
{
    kutil::im2colConv(c, c.in[2], c.node->attrs.getInt("act", kActNone),
                      axpyAvx2);
}

// ---- fused attention --------------------------------------------------

float
hsumPs(__m256 v)
{
    __m128 s = _mm_add_ps(_mm256_castps256_ps128(v),
                          _mm256_extractf128_ps(v, 1));
    s = _mm_add_ps(s, _mm_movehl_ps(s, s));
    s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
    return _mm_cvtss_f32(s);
}

/**
 * Same per-row structure (and workspace) as the scalar FusedAttention
 * kernel: score row in shard scratch, softmax, V-accumulate. The QK
 * dot and the V product are FMA-vectorized (lane sums differ from the
 * scalar order in the last bits — fp32 tier contract, 1e-5); the
 * softmax reduction itself stays scalar, so masked -1e30f scores still
 * underflow to exactly 0.0f.
 */
void
fusedAttentionAvx2K(const KernelCtx &c)
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
            __m256 acc8 = _mm256_setzero_ps();
            int64_t kk = 0;
            for (; kk + 8 <= dh; kk += 8)
                acc8 = _mm256_fmadd_ps(_mm256_loadu_ps(qrow + kk),
                                       _mm256_loadu_ps(krow + kk),
                                       acc8);
            float acc = hsumPs(acc8);
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
        for (; j + 8 <= dh; j += 8) {
            __m256 acc = _mm256_setzero_ps();
            for (int64_t i = 0; i < m; ++i)
                acc = _mm256_fmadd_ps(
                    _mm256_set1_ps(scores[i]),
                    _mm256_loadu_ps(vb + i * kstr + j), acc);
            _mm256_storeu_ps(orow + j, acc);
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
hsumEpi32(__m256i v)
{
    __m128i s = _mm_add_epi32(_mm256_castsi256_si128(v),
                              _mm256_extracti128_si256(v, 1));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
    return _mm_cvtsi128_si32(s);
}

/** sum_k (a[k] - azp) * w[k] in int32 — bit-exact to the scalar loop
 *  (integer addition is associative, so the lane order is free). */
int32_t
dotI8(const int8_t *a, const int8_t *w, int64_t k, int32_t azp)
{
    __m256i acc = _mm256_setzero_si256();
    __m256i zp16 = _mm256_set1_epi16(static_cast<short>(azp));
    int64_t kk = 0;
    for (; kk + 16 <= k; kk += 16) {
        __m256i a16 = _mm256_cvtepi8_epi16(_mm_loadu_si128(
            reinterpret_cast<const __m128i *>(a + kk)));
        __m256i w16 = _mm256_cvtepi8_epi16(_mm_loadu_si128(
            reinterpret_cast<const __m128i *>(w + kk)));
        // (a - zp) fits i16 ([-255, 255]); each i16*i16 product fits
        // i16-pair madd's i32 lanes with no overflow.
        acc = _mm256_add_epi32(
            acc, _mm256_madd_epi16(_mm256_sub_epi16(a16, zp16), w16));
    }
    int32_t s = hsumEpi32(acc);
    for (; kk < k; ++kk)
        s += (static_cast<int32_t>(a[kk]) - azp) *
             static_cast<int32_t>(w[kk]);
    return s;
}

/** True when the vectorized requant path reproduces Requant::emit
 *  exactly (relu is a max; gelu/silu go through the scalar path). */
bool
vectorEmitOk(const Requant &rq)
{
    return rq.act == kActNone || rq.act == kActRelu;
}

/**
 * Requantize 8 int32 accumulators: the same float operation sequence
 * as Requant::emit / quantizeValue, elementwise — (i32->f32 convert,
 * mul, mul, optional bias add, relu max, IEEE div, add, clamp,
 * round-nearest-even) — so the result is bit-exact to 8 scalar emits.
 */
void
emit8(const int32_t *acc, __m256 sw, __m256 bias, bool hasBias,
      const Requant &rq, int8_t *dst)
{
    __m256 r = _mm256_mul_ps(
        _mm256_cvtepi32_ps(_mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(acc))),
        _mm256_set1_ps(rq.xScale));
    r = _mm256_mul_ps(r, sw);
    if (hasBias)
        r = _mm256_add_ps(r, bias);
    if (rq.act == kActRelu)
        r = _mm256_max_ps(r, _mm256_setzero_ps());
    __m256 q = _mm256_add_ps(
        _mm256_div_ps(r, _mm256_set1_ps(rq.yScale)),
        _mm256_set1_ps(static_cast<float>(rq.yZp)));
    q = _mm256_max_ps(q, _mm256_set1_ps(-128.0f));
    q = _mm256_min_ps(q, _mm256_set1_ps(127.0f));
    alignas(32) int32_t lanes[8];
    _mm256_store_si256(reinterpret_cast<__m256i *>(lanes),
                       _mm256_cvtps_epi32(q));
    for (int i = 0; i < 8; ++i)
        dst[i] = static_cast<int8_t>(lanes[i]);
}

// ---- int8 GEMM --------------------------------------------------------

void
qmatmulAvx2K(const KernelCtx &c)
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

    // Pack W into [N, K] rows — identical layout to the scalar tier.
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
        for (; j + 8 <= n && vec_emit; j += 8) {
            alignas(32) int32_t accs[8];
            for (int64_t jj = 0; jj < 8; ++jj)
                accs[jj] = dotI8(arow, wp + (j + jj) * k, k, rq.xZp);
            __m256 sw = rq.wScales
                            ? _mm256_loadu_ps(rq.wScales + j)
                            : _mm256_set1_ps(rq.wScale);
            __m256 bias = rq.bias ? _mm256_loadu_ps(rq.bias + j)
                                  : _mm256_setzero_ps();
            emit8(accs, sw, bias, rq.bias != nullptr, rq, orow + j);
        }
        for (; j < n; ++j)
            orow[j] = rq.emit(dotI8(arow, wp + j * k, k, rq.xZp), j);
    }
}

// ---- int8 conv (im2col) ----------------------------------------------

void
qconvAvx2K(const KernelCtx &c)
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
    __m256i zp32 = _mm256_set1_epi32(rq.xZp);
    bool vec_emit = vectorEmitOk(rq);

    for (int64_t ni = c.begin; ni < partitionEnd(c, nI); ++ni) {
        kutil::im2colUnfold(x + ni * ci * h * w, col, ci, h, w, kh, kw,
                            ho, wo, stride, pad, zp8);
        int8_t *on = out + ni * co * cols;
        for (int64_t o = 0; o < co; ++o) {
            const int8_t *wrow = wt + o * k;
            int8_t *dst = on + o * cols;
            __m256 sw = _mm256_set1_ps(
                rq.wScales ? rq.wScales[o] : rq.wScale);
            __m256 bias =
                _mm256_set1_ps(rq.bias ? rq.bias[o] : 0.0f);
            int64_t j = 0;
            // 8 output pixels per iteration: each lane accumulates
            // (col - zp) * w over k with a broadcast weight.
            for (; j + 8 <= cols && vec_emit; j += 8) {
                __m256i acc = _mm256_setzero_si256();
                for (int64_t kk = 0; kk < k; ++kk) {
                    __m256i cv = _mm256_cvtepi8_epi32(_mm_loadl_epi64(
                        reinterpret_cast<const __m128i *>(
                            col + kk * cols + j)));
                    acc = _mm256_add_epi32(
                        acc,
                        _mm256_mullo_epi32(
                            _mm256_sub_epi32(cv, zp32),
                            _mm256_set1_epi32(
                                static_cast<int32_t>(wrow[kk]))));
                }
                alignas(32) int32_t accs[8];
                _mm256_store_si256(
                    reinterpret_cast<__m256i *>(accs), acc);
                emit8(accs, sw, bias, rq.bias != nullptr, rq, dst + j);
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

/**
 * Stride-1 interiors vectorize 8 output pixels per iteration (the
 * window rows are contiguous loads there); borders and other strides
 * run the scalar pixel. Both paths are the same integer accumulation,
 * so the kernel is bit-exact to the scalar "int8" depthwise tier.
 */
void
qdwConvAvx2K(const KernelCtx &c)
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
    __m256i zp32 = _mm256_set1_epi32(rq.xZp);
    bool vec_emit = vectorEmitOk(rq);

    int64_t hi = partitionEnd(c, xs[0] * ch);
    for (int64_t idx = c.begin; idx < hi; ++idx) {
        int64_t ni = idx / ch, ci = idx % ch;
        const int8_t *xp = x + (ni * ch + ci) * h * w;
        const int8_t *wp = wt + ci * kh * kw;
        int8_t *op = out + (ni * ch + ci) * ho * wo;
        __m256 sw = _mm256_set1_ps(
            rq.wScales ? rq.wScales[ci] : rq.wScale);
        __m256 bias = _mm256_set1_ps(rq.bias ? rq.bias[ci] : 0.0f);
        for (int64_t i = 0; i < ho; ++i) {
            int64_t j = 0;
            if (stride == 1 && vec_emit) {
                // Columns where every kw tap is in-bounds.
                int64_t jlo = pad;
                int64_t jhi = std::min(wo, w - kw + pad + 1);
                for (; j < std::min(jlo, wo); ++j)
                    op[i * wo + j] = qdwPixel(xp, wp, i, j, h, w, kh,
                                              kw, stride, pad, ci, rq);
                for (; j + 8 <= jhi; j += 8) {
                    __m256i acc = _mm256_setzero_si256();
                    for (int64_t a = 0; a < kh; ++a) {
                        int64_t ih = i - pad + a;
                        if (ih < 0 || ih >= h)
                            continue;
                        const int8_t *xrow = xp + ih * w + j - pad;
                        for (int64_t b = 0; b < kw; ++b) {
                            __m256i xv = _mm256_cvtepi8_epi32(
                                _mm_loadl_epi64(
                                    reinterpret_cast<const __m128i *>(
                                        xrow + b)));
                            acc = _mm256_add_epi32(
                                acc,
                                _mm256_mullo_epi32(
                                    _mm256_sub_epi32(xv, zp32),
                                    _mm256_set1_epi32(
                                        static_cast<int32_t>(
                                            wp[a * kw + b]))));
                        }
                    }
                    alignas(32) int32_t accs[8];
                    _mm256_store_si256(
                        reinterpret_cast<__m256i *>(accs), acc);
                    emit8(accs, sw, bias, rq.bias != nullptr, rq,
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
registerSimdAvx2Kernels()
{
    // Same partition domains and workspace declarations as the scalar
    // bases — the tier-switch contract the executor relies on.
    PartitionSpec rows{matmulRows, 8};
    PartitionSpec batch{part::outDim0, 1};
    PartitionSpec images{part::outDim0, 1};
    PartitionSpec imageChannels{part::outDim01, 1};
    registerKernel(OpKind::MatMul, "blocked@avx2", matmulAvx2K, rows,
                   kutil::blockedGemmWorkspace);
    registerKernel(OpKind::BatchMatMul, "blocked@avx2",
                   batchMatmulAvx2K, batch,
                   kutil::blockedGemmWorkspace);
    registerKernel(OpKind::Conv2d, "im2col@avx2", conv2dIm2colAvx2K,
                   images, kutil::im2colConvWorkspace);
    registerKernel(OpKind::ConvBiasAct, "im2col@avx2",
                   convBiasActIm2colAvx2K, images,
                   kutil::im2colConvWorkspace);
    registerKernel(OpKind::FusedAttention, "avx2", fusedAttentionAvx2K,
                   PartitionSpec{part::outRows, 1},
                   kutil::fusedAttentionWorkspace);
    registerKernel(OpKind::QuantMatMul, "int8@avx2", qmatmulAvx2K,
                   rows, kutil::qgemmWorkspace);
    registerKernel(OpKind::QuantConv2d, "int8@avx2", qconvAvx2K,
                   images, kutil::qconvColWorkspace);
    registerKernel(OpKind::QuantDwConv2d, "int8@avx2", qdwConvAvx2K,
                   imageChannels);
}

} // namespace detail
} // namespace pe

#else // PE_NO_SIMD or non-x86: nothing to register.

namespace pe {
namespace detail {

void
registerSimdAvx2Kernels()
{
}

} // namespace detail
} // namespace pe

#endif
