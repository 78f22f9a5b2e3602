/**
 * @file
 * AVX2/FMA kernel tier: the lane primitives of kernel_bodies.h in
 * 8-wide AVX2 registers, registered with one registerTier call as the
 * "<base>@avx2" variants of the blocked GEMMs (fused MatMulBiasAct
 * included), the im2col convs (fused or not) and pointwise conv
 * gradients, the packed depthwise forward (fused or not) and input
 * gradient, FusedAttention and the int8 GEMM, conv and depthwise
 * kernels. The bodies, partition domains and workspaces are the scalar
 * bases' own. The int8 GEMM and conv share one register tile
 * (i8Tile): up to 4 operand rows by 24 output channels of int32
 * accumulators, each step one madd_epi16 of a broadcast int16 pair
 * against 8 channels' packed weight pairs.
 *
 * Numerics contract (README "Kernel tiers"):
 *  - int8 kernels are BIT-EXACT to the scalar "int8" tier: int32
 *    accumulation is fully associative, and emitLanes performs the
 *    same IEEE mul/div/clamp sequence as Requant::emit, with
 *    _mm256_cvtps_epi32 matching std::rint's round-nearest-even.
 *    Activations beyond relu (gelu/silu) requantize through the
 *    scalar emit, so exactness never depends on vector
 *    transcendental approximations.
 *  - fp32 GEMM-shaped kernels run one register tile (gemmTile: 4 x 24
 *    micro-tiles on panels 16+ columns wide, 8 rows on narrower ones)
 *    whose every output is an FMA chain from zero over k ascending
 *    within its k panel, added into out once; the tile shape never
 *    changes the bits (asserted bit for bit against an fmaf reference
 *    by test_simd). Results differ from scalar in the last bits:
 *    within 1e-5 relative, and a pointwise weight gradient summing
 *    k > 64 products over images and pixels within
 *    k * 2^-24 * sum|products| of the exact sum. The packed
 *    depthwise kernels use a separate multiply and add in the direct
 *    loop's order (mulAddF8), so they are BIT-EXACT to the scalar tier
 *    and to the direct loops.
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

    /** One 8-float ymm column of a register tile. */
    struct Ymm {
        using V = __m256;
        static constexpr int64_t kWidth = 8;
        static V zero() { return _mm256_setzero_ps(); }
        static V load(const float *p) { return _mm256_loadu_ps(p); }
        static V splat(float a) { return _mm256_set1_ps(a); }
        static V fma(V a, V b, V c) { return _mm256_fmadd_ps(a, b, c); }
        static V add(V a, V b) { return _mm256_add_ps(a, b); }
        static void store(float *p, V a) { _mm256_storeu_ps(p, a); }
    };

    /** One 4-float xmm column, for a 4-wide column remainder (so 2x2
     *  and 4x4 conv planes stay in registers). */
    struct Xmm {
        using V = __m128;
        static constexpr int64_t kWidth = 4;
        static V zero() { return _mm_setzero_ps(); }
        static V load(const float *p) { return _mm_loadu_ps(p); }
        static V splat(float a) { return _mm_set1_ps(a); }
        static V fma(V a, V b, V c) { return _mm_fmadd_ps(a, b, c); }
        static V add(V a, V b) { return _mm_add_ps(a, b); }
        static void store(float *p, V a) { _mm_storeu_ps(p, a); }
    };

    /**
     * The R x (C lanes x L::kWidth) micro-tile at @p a / @p b / @p out:
     * R * C accumulators live across the kn-step k loop, each k loads
     * C panel columns once and reuses each across R broadcasts of A
     * (a[r * ars + k * aks]), and the panel's partial sums are added
     * to out once. Every output is an FMA chain from zero over k
     * ascending, whatever R and C are.
     */
    template <int R, int C, class L = Ymm>
    static void
    micro(const float *a, int64_t ars, int64_t aks, int64_t kn,
          const float *b, int64_t ldb, float *out, int64_t n)
    {
        typename L::V acc[R][C];
        for (int r = 0; r < R; ++r)
            for (int c = 0; c < C; ++c)
                acc[r][c] = L::zero();
        for (int64_t k = 0; k < kn; ++k, a += aks, b += ldb) {
            typename L::V bv[C];
            for (int c = 0; c < C; ++c)
                bv[c] = L::load(b + c * L::kWidth);
            for (int r = 0; r < R; ++r) {
                typename L::V av = L::splat(a[r * ars]);
                for (int c = 0; c < C; ++c)
                    acc[r][c] = L::fma(av, bv[c], acc[r][c]);
            }
        }
        for (int r = 0; r < R; ++r)
            for (int c = 0; c < C; ++c) {
                float *o = out + r * n + c * L::kWidth;
                L::store(o, L::add(L::load(o), acc[r][c]));
            }
    }

    /** R rows across cols columns (a multiple of 4): 24-wide steps
     *  (12 accumulators, the 16 ymm registers with 3 B loads and a
     *  broadcast) and a 16-wide remainder when R <= 4, then 8 and 4. */
    template <int R>
    static void
    sweep(const float *a, int64_t ars, int64_t aks, int64_t kn,
          const float *b, int64_t ldb, int64_t cols, float *out,
          int64_t n)
    {
        int64_t j = 0;
        if constexpr (R <= 4) {
            for (; j + 24 <= cols; j += 24)
                micro<R, 3>(a, ars, aks, kn, b + j, ldb, out + j, n);
            if (j + 16 <= cols) {
                micro<R, 2>(a, ars, aks, kn, b + j, ldb, out + j, n);
                j += 16;
            }
        }
        for (; j + 8 <= cols; j += 8)
            micro<R, 1>(a, ars, aks, kn, b + j, ldb, out + j, n);
        if (j < cols)
            micro<R, 1, Xmm>(a, ars, aks, kn, b + j, ldb, out + j, n);
    }

    /** Up to 8 rows: a panel at least 16 columns wide runs 4-row
     *  sweeps with a 1-3 row remainder; a narrower one (MCUNet's 2x2
     *  and 4x4 planes) keeps 8 rows in flight. A is addressed by a row
     *  and a k stride fixed here, so the k loops never test trans. */
    static constexpr int64_t kTileRows = 8, kTileCols = 4;

    static void
    gemmTile(const GemmView &a, int64_t i0, int64_t rows, int64_t k0,
             int64_t k1, const float *panel, int64_t jw, int64_t cols,
             float *out, int64_t n)
    {
        int64_t ars = a.trans ? 1 : a.cols, aks = a.trans ? a.rows : 1;
        const float *ap = a.data + i0 * ars + k0 * aks;
        float *o = out + i0 * n;
        int64_t kn = k1 - k0;
        if (cols < 16 && rows == 8) {
            sweep<8>(ap, ars, aks, kn, panel, jw, cols, o, n);
            return;
        }
        int64_t r = 0;
        for (; r + 4 <= rows; r += 4)
            sweep<4>(ap + r * ars, ars, aks, kn, panel, jw, cols,
                     o + r * n, n);
        switch (rows - r) {
        case 3:
            sweep<3>(ap + r * ars, ars, aks, kn, panel, jw, cols,
                     o + r * n, n);
            break;
        case 2:
            sweep<2>(ap + r * ars, ars, aks, kn, panel, jw, cols,
                     o + r * n, n);
            break;
        case 1:
            sweep<1>(ap + r * ars, ars, aks, kn, panel, jw, cols,
                     o + r * n, n);
            break;
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

    /**
     * The R x (C ymm of 8 channels) int8 micro-tile: R * C int32
     * accumulators live across the kp-step pair loop; each pair loads
     * and widens C groups of 8 channels' weight pairs once and reuses
     * each across R broadcasts of a row's (a[2p], a[2p + 1]), one madd
     * (two exact 16-bit products summed into 32 bits) and one add per
     * accumulator.
     */
    template <int R, int C>
    static void
    i8Micro(const int16_t *a, int64_t aps, int64_t kp, const int8_t *w,
            int64_t ldw, int32_t *acc, int64_t ldc)
    {
        __m256i s[R][C];
        for (int r = 0; r < R; ++r)
            for (int c = 0; c < C; ++c)
                s[r][c] = _mm256_setzero_si256();
        for (int64_t p = 0; p < kp; ++p, a += aps, w += ldw) {
            __m256i wv[C];
            for (int c = 0; c < C; ++c)
                wv[c] = _mm256_cvtepi8_epi16(_mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(w + c * 16)));
            for (int r = 0; r < R; ++r) {
                int32_t pair;
                std::memcpy(&pair, a + 2 * r, sizeof pair);
                __m256i av = _mm256_set1_epi32(pair);
                for (int c = 0; c < C; ++c)
                    s[r][c] = _mm256_add_epi32(
                        s[r][c], _mm256_madd_epi16(av, wv[c]));
            }
        }
        for (int r = 0; r < R; ++r)
            for (int c = 0; c < C; ++c)
                _mm256_storeu_si256(
                    reinterpret_cast<__m256i *>(acc + r * ldc + c * 8),
                    s[r][c]);
    }

    /** R rows across cols channels (a multiple of 8): 24-channel steps
     *  (12 accumulators, 3 weight loads and a broadcast: the 16 ymm
     *  registers at R = 4), then a 16 or 8 channel remainder. */
    template <int R>
    static void
    i8Sweep(const int16_t *a, int64_t aps, int64_t kp, const int8_t *w,
            int64_t cols, int32_t *acc)
    {
        int64_t j = 0;
        for (; j + 24 <= cols; j += 24)
            i8Micro<R, 3>(a, aps, kp, w + 2 * j, 2 * cols, acc + j, cols);
        if (j + 16 <= cols)
            i8Micro<R, 2>(a, aps, kp, w + 2 * j, 2 * cols, acc + j, cols);
        else if (j < cols)
            i8Micro<R, 1>(a, aps, kp, w + 2 * j, 2 * cols, acc + j, cols);
    }

    static void
    i8Tile(const int16_t *a, int64_t aps, int64_t rows, int64_t kp,
           const int8_t *w, int64_t cols, int32_t *acc)
    {
        static_assert(kutil::kQTileRows == 4, "one case per row count");
        switch (rows) {
        case 4:
            return i8Sweep<4>(a, aps, kp, w, cols, acc);
        case 3:
            return i8Sweep<3>(a, aps, kp, w, cols, acc);
        case 2:
            return i8Sweep<2>(a, aps, kp, w, cols, acc);
        default:
            return i8Sweep<1>(a, aps, kp, w, cols, acc);
        }
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
     *  round-nearest-even; the 8 codes are stored in one write. */
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
        // The codes are in [-128, 127], so the saturating packs only
        // narrow them.
        __m256i v = _mm256_cvtps_epi32(q);
        __m128i v16 = _mm_packs_epi32(_mm256_castsi256_si128(v),
                                      _mm256_extracti128_si256(v, 1));
        _mm_storel_epi64(reinterpret_cast<__m128i *>(dst),
                         _mm_packs_epi16(v16, v16));
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
