/**
 * @file
 * AVX2/FMA kernel tier: the lane primitives of kernel_bodies.h in
 * 8-wide AVX2 registers, registered with one registerTier call as the
 * "<base>@avx2" variants of the blocked GEMMs (fused MatMulBiasAct
 * included), the im2col convs (fused or not) and pointwise conv
 * gradients, the packed depthwise forward (fused or not) and input
 * gradient, FusedAttention and the int8 GEMM, conv and depthwise
 * kernels. The bodies, partition domains and workspaces are the scalar
 * bases' own.
 *
 * Numerics contract (README "Kernel tiers"):
 *  - int8 kernels are BIT-EXACT to the scalar "int8" tier: int32
 *    accumulation is fully associative, and emitLanes performs the
 *    same IEEE mul/div/clamp sequence as Requant::emit, with
 *    _mm256_cvtps_epi32 matching std::rint's round-nearest-even.
 *    Activations beyond relu (gelu/silu) requantize through the
 *    scalar emit, so exactness never depends on vector
 *    transcendental approximations.
 *  - fp32 GEMM-shaped kernels use FMA (one rounding per
 *    multiply-add) and per-panel partial sums, so results differ from
 *    scalar in the last bits: within 1e-5 relative (asserted by
 *    test_simd), and a pointwise weight gradient summing k > 64
 *    products over images and pixels within k * 2^-24 * sum|products|
 *    of the exact sum. The packed depthwise kernels use a separate
 *    multiply and add in the direct loop's order (mulAddF8), so they
 *    are BIT-EXACT to the scalar tier and to the direct loops.
 *    Thread-count invariance still holds — every output element's
 *    accumulation order is independent of the shard bounds.
 *
 * This TU is compiled with -mavx2 -mfma -ffp-contract=off (the
 * contract flag keeps the compiler from contracting the bodies'
 * scalar tails, which must round like plain mul+add), and its
 * registration only runs when cpu_features reports the host executes
 * AVX2. Everything it defines besides the registration hook has
 * internal linkage, so no AVX2 copy of a shared inline function can
 * be linked into the baseline paths (the isa_isolation ctest); the
 * object is safe to link into binaries deployed on SSE-only machines.
 */

#include "kernels/kernel.h"

#if !defined(PE_NO_SIMD) && (defined(__x86_64__) || defined(__i386__))

#include <immintrin.h>

#include "kernels/kernel_bodies.h"

namespace pe {
namespace {

using kutil::GemmView;
using kutil::Requant;

float
hsumPs(__m256 v)
{
    __m128 s = _mm_add_ps(_mm256_castps256_ps128(v),
                          _mm256_extractf128_ps(v, 1));
    s = _mm_add_ps(s, _mm_movehl_ps(s, s));
    s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
    return _mm_cvtss_f32(s);
}

int32_t
hsumEpi32(__m256i v)
{
    __m128i s = _mm_add_epi32(_mm256_castsi256_si128(v),
                              _mm256_extracti128_si256(v, 1));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
    return _mm_cvtsi128_si32(s);
}

struct Avx2Lanes {
    /** dst[j] += a * src[j], FMA-vectorized; the tail is mul+add. */
    static void
    axpy(float *dst, const float *src, float a, int64_t n)
    {
        __m256 av = _mm256_set1_ps(a);
        int64_t j = 0;
        for (; j + 8 <= n; j += 8)
            _mm256_storeu_ps(
                dst + j, _mm256_fmadd_ps(av, _mm256_loadu_ps(src + j),
                                         _mm256_loadu_ps(dst + j)));
        for (; j < n; ++j)
            dst[j] += a * src[j];
    }

    static float
    dot(const float *a, const float *b, int64_t n)
    {
        __m256 acc = _mm256_setzero_ps();
        int64_t k = 0;
        for (; k + 8 <= n; k += 8)
            acc = _mm256_fmadd_ps(_mm256_loadu_ps(a + k),
                                  _mm256_loadu_ps(b + k), acc);
        float s = hsumPs(acc);
        for (; k < n; ++k)
            s += a[k] * b[k];
        return s;
    }

    /** 8-row FMA tile over 8-column ymm chunks, with one 4-column
     *  xmm chunk for a remainder of 4 (so 2x2 and 4x4 conv planes stay
     *  in registers): accumulators live across the panel's k-loop, and
     *  each panel's partial sum is added to the output once. */
    static constexpr int64_t kTileRows = 8, kTileCols = 4;

    static void
    gemmTile(const GemmView &a, int64_t i0, int64_t rows, int64_t k0,
             int64_t k1, const float *panel, int64_t jw, int64_t cols,
             float *out, int64_t n)
    {
        int64_t j = 0;
        for (; j + 8 <= cols; j += 8) {
            __m256 acc[8];
            for (int64_t r = 0; r < rows; ++r)
                acc[r] = _mm256_setzero_ps();
            for (int64_t k = k0; k < k1; ++k) {
                __m256 bv = _mm256_loadu_ps(panel + (k - k0) * jw + j);
                for (int64_t r = 0; r < rows; ++r)
                    acc[r] = _mm256_fmadd_ps(
                        _mm256_set1_ps(a.at(i0 + r, k)), bv, acc[r]);
            }
            for (int64_t r = 0; r < rows; ++r) {
                float *orow = out + (i0 + r) * n + j;
                _mm256_storeu_ps(
                    orow, _mm256_add_ps(_mm256_loadu_ps(orow), acc[r]));
            }
        }
        if (j < cols) {
            __m128 acc[8];
            for (int64_t r = 0; r < rows; ++r)
                acc[r] = _mm_setzero_ps();
            for (int64_t k = k0; k < k1; ++k) {
                __m128 bv = _mm_loadu_ps(panel + (k - k0) * jw + j);
                for (int64_t r = 0; r < rows; ++r)
                    acc[r] = _mm_fmadd_ps(_mm_set1_ps(a.at(i0 + r, k)),
                                          bv, acc[r]);
            }
            for (int64_t r = 0; r < rows; ++r) {
                float *orow = out + (i0 + r) * n + j;
                _mm_storeu_ps(orow,
                              _mm_add_ps(_mm_loadu_ps(orow), acc[r]));
            }
        }
    }

    /** The depthwise channel lanes in one ymm: mul, then add. */
    using F8 = __m256;

    static F8 zeroF8() { return _mm256_setzero_ps(); }
    static F8 loadF8(const float *p) { return _mm256_loadu_ps(p); }
    static void storeF8(float *p, F8 a) { _mm256_storeu_ps(p, a); }

    static F8
    mulAddF8(F8 acc, F8 a, F8 b)
    {
        return _mm256_add_ps(acc, _mm256_mul_ps(a, b));
    }

    static int32_t
    dotI8(const int8_t *a, const int8_t *w, int64_t k, int32_t zp)
    {
        __m256i acc = _mm256_setzero_si256();
        __m256i zp16 = _mm256_set1_epi16(static_cast<short>(zp));
        int64_t kk = 0;
        for (; kk + 16 <= k; kk += 16) {
            __m256i a16 = _mm256_cvtepi8_epi16(_mm_loadu_si128(
                reinterpret_cast<const __m128i *>(a + kk)));
            __m256i w16 = _mm256_cvtepi8_epi16(_mm_loadu_si128(
                reinterpret_cast<const __m128i *>(w + kk)));
            // (a - zp) fits i16 ([-255, 255]); each i16*i16 product
            // fits madd's i32 lanes with no overflow.
            acc = _mm256_add_epi32(
                acc, _mm256_madd_epi16(_mm256_sub_epi16(a16, zp16), w16));
        }
        int32_t s = hsumEpi32(acc);
        for (; kk < k; ++kk)
            s += (static_cast<int32_t>(a[kk]) - zp) *
                 static_cast<int32_t>(w[kk]);
        return s;
    }

    static constexpr int64_t kLanes = 8;
    using I32 = __m256i;

    static I32 zeroI32() { return _mm256_setzero_si256(); }

    static I32
    loadI32(const int32_t *p)
    {
        return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
    }

    static I32
    macI8(I32 acc, const int8_t *x, int32_t zp, int32_t w)
    {
        __m256i xv = _mm256_cvtepi8_epi32(
            _mm_loadl_epi64(reinterpret_cast<const __m128i *>(x)));
        return _mm256_add_epi32(
            acc, _mm256_mullo_epi32(
                     _mm256_sub_epi32(xv, _mm256_set1_epi32(zp)),
                     _mm256_set1_epi32(w)));
    }

    static I32
    macI8(I32 acc, const int8_t *x, int32_t zp, const int8_t *w)
    {
        __m256i xv = _mm256_cvtepi8_epi32(
            _mm_loadl_epi64(reinterpret_cast<const __m128i *>(x)));
        __m256i wv = _mm256_cvtepi8_epi32(
            _mm_loadl_epi64(reinterpret_cast<const __m128i *>(w)));
        return _mm256_add_epi32(
            acc, _mm256_mullo_epi32(
                     _mm256_sub_epi32(xv, _mm256_set1_epi32(zp)), wv));
    }

    /** relu is a max; gelu/silu go through the scalar emit. */
    static bool
    vectorEmitOk(const Requant &rq)
    {
        return rq.act == kActNone || rq.act == kActRelu;
    }

    /** Requant::emit's float sequence, elementwise: i32->f32, mul,
     *  mul, optional bias add, relu max, IEEE div, add, clamp,
     *  round-nearest-even. */
    static void
    emitLanes(I32 acc, const float *sw, const float *bias,
              const Requant &rq, int8_t *dst)
    {
        __m256 r = _mm256_mul_ps(_mm256_cvtepi32_ps(acc),
                                 _mm256_set1_ps(rq.xScale));
        r = _mm256_mul_ps(r, _mm256_loadu_ps(sw));
        if (bias)
            r = _mm256_add_ps(r, _mm256_loadu_ps(bias));
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
};

} // namespace

namespace detail {

void
registerSimdAvx2Kernels()
{
    kutil::registerTier<Avx2Lanes>(SimdTier::Avx2);
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
