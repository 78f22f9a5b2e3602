/**
 * @file
 * NEON kernel tier: the lane primitives of kernel_bodies.h in 4-wide
 * NEON registers, registered with one registerTier call as the
 * "<base>@neon" variants of the same kernels as the AVX2 tier (blocked
 * MatMul, MatMulBiasAct and BatchMatMul, im2col Conv2d, ConvBiasAct,
 * Conv2dBwdInput and Conv2dBwdWeight, packed DwConv2d, DwConvBiasAct
 * and DwConv2dBwdInput, FusedAttention, int8 GEMM, conv and
 * depthwise), with the scalar bases' bodies, partition domains and
 * workspaces. The int8 GEMM and conv tile (i8Tile) is the scalar
 * tier's own loop; the NEON lanes requantize its sums.
 *
 * NEON is a compile-time baseline on ARM (__ARM_NEON), so this TU
 * needs no special flags; it compiles empty elsewhere. The numerics
 * contract matches the AVX2 tier: int8 accumulation is bit-exact to
 * the scalar "int8" kernels (integer math), and the vectorized
 * requantization is only taken on AArch64, where vdivq_f32 /
 * vcvtnq_s32_f32 give IEEE division and round-nearest-even exactly —
 * ARMv7 (and gelu/silu activations anywhere) requantize through the
 * scalar Requant::emit. fp32 GEMM-shaped results are within 1e-5
 * relative of the scalar tier (multiply-accumulate fusion changes
 * rounding); the packed depthwise kernels multiply, then add, in the
 * direct loop's order, bit-exact to the scalar tier.
 */

#include "kernels/kernel.h"

#if !defined(PE_NO_SIMD) && defined(__ARM_NEON)

#include <arm_neon.h>

#include "kernels/kernel_bodies.h"

namespace pe {
namespace {

using kutil::GemmView;
using kutil::Requant;

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

struct NeonLanes {
    /** dst[j] += a * src[j], 4 lanes at a time. */
    static void
    axpy(float *dst, const float *src, float a, int64_t n)
    {
        int64_t j = 0;
        for (; j + 4 <= n; j += 4)
            vst1q_f32(dst + j, vmlaq_n_f32(vld1q_f32(dst + j),
                                           vld1q_f32(src + j), a));
        for (; j < n; ++j)
            dst[j] += a * src[j];
    }

    static float
    dot(const float *a, const float *b, int64_t n)
    {
        float32x4_t acc = vdupq_n_f32(0.0f);
        int64_t k = 0;
        for (; k + 4 <= n; k += 4)
            acc = vmlaq_f32(acc, vld1q_f32(a + k), vld1q_f32(b + k));
        float s = hsumF32(acc);
        for (; k < n; ++k)
            s += a[k] * b[k];
        return s;
    }

    /** 4-row x 4-column multiply-accumulate register tile. */
    static constexpr int64_t kTileRows = 4, kTileCols = 4;

    static void
    gemmTile(const GemmView &a, int64_t i0, int64_t rows, int64_t k0,
             int64_t k1, const float *panel, int64_t jw, int64_t cols,
             float *out, int64_t n)
    {
        for (int64_t j = 0; j < cols; j += 4) {
            float32x4_t acc[4];
            for (int64_t r = 0; r < rows; ++r)
                acc[r] = vdupq_n_f32(0.0f);
            for (int64_t k = k0; k < k1; ++k) {
                float32x4_t bv = vld1q_f32(panel + (k - k0) * jw + j);
                for (int64_t r = 0; r < rows; ++r)
                    acc[r] = vmlaq_n_f32(acc[r], bv, a.at(i0 + r, k));
            }
            for (int64_t r = 0; r < rows; ++r) {
                float *orow = out + (i0 + r) * n + j;
                vst1q_f32(orow, vaddq_f32(vld1q_f32(orow), acc[r]));
            }
        }
    }

    /** The depthwise channel lanes in two q registers: mul, then
     *  add. */
    struct F8 {
        float32x4_t lo, hi;
    };

    static F8 zeroF8() { return {vdupq_n_f32(0.0f), vdupq_n_f32(0.0f)}; }

    static F8
    loadF8(const float *p)
    {
        return {vld1q_f32(p), vld1q_f32(p + 4)};
    }

    static void
    storeF8(float *p, F8 a)
    {
        vst1q_f32(p, a.lo);
        vst1q_f32(p + 4, a.hi);
    }

    static F8
    mulAddF8(F8 acc, F8 a, F8 b)
    {
        return {vaddq_f32(acc.lo, vmulq_f32(a.lo, b.lo)),
                vaddq_f32(acc.hi, vmulq_f32(a.hi, b.hi))};
    }

    /** The scalar tier's int8 tile: a vmlal_s16 form waits for an ARM
     *  host to measure it on. emitLanes requantizes its sums 4
     *  channels at a time. */
    static void
    i8Tile(const int16_t *a, int64_t aps, int64_t rows, int64_t kp,
           const int8_t *w, int64_t cols, int32_t *acc)
    {
        kutil::ScalarLanes::i8Tile(a, aps, rows, kp, w, cols, acc);
    }

    static constexpr int64_t kLanes = 4;
    using I32 = int32x4_t;

    static I32 zeroI32() { return vdupq_n_s32(0); }
    static I32 loadI32(const int32_t *p) { return vld1q_s32(p); }

    /** Per-lane weights: widens exactly 4 int8 values of each. */
    static I32
    macI8(I32 acc, const int8_t *x, int32_t zp, const int8_t *w)
    {
        int32_t xb, wb;
        std::memcpy(&xb, x, 4);
        std::memcpy(&wb, w, 4);
        int32x4_t xv = vmovl_s16(
            vget_low_s16(vmovl_s8(vreinterpret_s8_s32(vdup_n_s32(xb)))));
        int32x4_t wv = vmovl_s16(
            vget_low_s16(vmovl_s8(vreinterpret_s8_s32(vdup_n_s32(wb)))));
        return vmlaq_s32(acc, vsubq_s32(xv, vdupq_n_s32(zp)), wv);
    }

    /** AArch64 has IEEE vector divide and round-nearest-even
     *  converts, and relu is a maxnum; elsewhere (and for gelu/silu)
     *  the scalar emit runs. */
    static bool
    vectorEmitOk(const Requant &rq)
    {
#if defined(__aarch64__)
        return rq.act == kActNone || rq.act == kActRelu;
#else
        (void)rq;
        return false;
#endif
    }

    /** Requant::emit's float sequence on 4 lanes (AArch64 only). */
    static void
    emitLanes(I32 acc, const float *sw, const float *bias,
              const Requant &rq, int8_t *dst)
    {
#if defined(__aarch64__)
        float32x4_t r = vmulq_n_f32(vcvtq_f32_s32(acc), rq.xScale);
        r = vmulq_f32(r, vld1q_f32(sw));
        if (bias)
            r = vaddq_f32(r, vld1q_f32(bias));
        if (rq.act == kActRelu)
            r = vmaxnmq_f32(r, vdupq_n_f32(0.0f));
        float32x4_t q =
            vaddq_f32(vdivq_f32(r, vdupq_n_f32(rq.yScale)),
                      vdupq_n_f32(static_cast<float>(rq.yZp)));
        q = vmaxnmq_f32(q, vdupq_n_f32(-128.0f));
        q = vminnmq_f32(q, vdupq_n_f32(127.0f));
        int32_t lanes[4];
        vst1q_s32(lanes, vcvtnq_s32_f32(q));
        for (int i = 0; i < 4; ++i)
            dst[i] = static_cast<int8_t>(lanes[i]);
#else
        (void)acc, (void)sw, (void)bias, (void)rq, (void)dst;
#endif
    }
};

} // namespace

namespace detail {

void
registerSimdNeonKernels()
{
    kutil::registerTier<NeonLanes>(SimdTier::Neon);
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
