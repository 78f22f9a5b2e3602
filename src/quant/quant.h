/**
 * @file
 * Quantized-execution subsystem: precision modes, int8 affine
 * quantization math, fp16 storage conversion, and post-training
 * calibration.
 *
 * The paper's edge targets run int8 graphs natively; this subsystem
 * turns the PR-2 scaffolding (per-placement DType tags, dtype-sized
 * planning) into a real second and third storage precision:
 *
 *  - int8: per-tensor asymmetric activations + per-output-channel
 *    symmetric weights, int32 accumulation, float requantization —
 *    the TFLite/TinyEngine deployment convention.
 *  - fp16: half-precision storage for activations (compute stays
 *    fp32); a pure memory-footprint mode.
 *
 * Workflow: run `calibrate()` over a few representative batches to
 * stamp observed ranges onto the forward graph, then compile with
 * `CompileOptions::precision = Precision::Int8`. The QuantizePass
 * (src/passes/quantize.cc) consumes the stamped ranges; the int8
 * kernels live in src/kernels/quantized.cc.
 */

#pragma once

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/dtype.h"
#include "core/tensor.h"
#include "ir/graph.h"

namespace pe {

class ParamStore;

/** Storage precision of a compiled program's forward graph. */
enum class Precision : uint8_t {
    F32,  ///< everything fp32 (the pre-quantization behavior)
    F16,  ///< fp16 activation storage, fp32 compute
    Int8, ///< int8 storage + int8/int32 compute on the forward graph
};

constexpr const char *
precisionName(Precision p)
{
    return p == Precision::F32 ? "fp32"
           : p == Precision::F16 ? "fp16"
                                 : "int8";
}

// ---- int8 affine quantization math -----------------------------------

/** Per-tensor affine quantization parameters: real = (q - zp) * scale. */
struct QuantParams {
    float scale = 1.0f;
    int32_t zeroPoint = 0;
};

/** Names of the calibration attrs `calibrate()` stamps on every node. */
inline constexpr const char *kCalibMinAttr = "calib_min";
inline constexpr const char *kCalibMaxAttr = "calib_max";

/**
 * Choose per-tensor asymmetric int8 params covering [mn, mx]. The
 * range is widened to include zero (so zero-padding and ReLU cutoffs
 * are exactly representable) and the zero-point is the exact integer
 * image of 0.0, per the TFLite quantization spec.
 */
inline QuantParams
chooseQuantParams(float mn, float mx)
{
    mn = std::min(mn, 0.0f);
    mx = std::max(mx, 0.0f);
    QuantParams p;
    float range = mx - mn;
    if (range < 1e-12f) {
        p.scale = 1.0f;
        p.zeroPoint = 0;
        return p;
    }
    p.scale = range / 255.0f;
    float zp = -128.0f - mn / p.scale;
    p.zeroPoint = static_cast<int32_t>(std::lrintf(
        std::min(127.0f, std::max(-128.0f, zp))));
    return p;
}

/** Symmetric weight scale for |w| <= mx (zero-point 0, full [-127,127]). */
inline float
chooseWeightScale(float max_abs)
{
    return max_abs < 1e-12f ? 1.0f : max_abs / 127.0f;
}

/** Internal linkage: the ISA-flagged SIMD tier TUs call this, and an
 *  unoptimized build must not export their copy (kernel_util.h). */
static inline int8_t
quantizeValue(float v, float scale, int32_t zp)
{
    float q = v / scale + static_cast<float>(zp);
    q = std::min(127.0f, std::max(-128.0f, q));
    // Floats in [2^23, 2^24) are exactly the integers, so adding
    // 1.5 * 2^23 rounds q like lrintf (the current mode, nearest-even
    // by default) and the subtraction is exact. Unlike lrintf this
    // compiles inline and branch-free, so quantize loops vectorize.
    // It needs float arithmetic evaluated in float.
    static_assert(FLT_EVAL_METHOD == 0, "quantizeValue rounds in float");
    constexpr float kRound = 12582912.0f;
    return static_cast<int8_t>(static_cast<int32_t>((q + kRound) - kRound));
}

inline float
dequantizeValue(int8_t q, float scale, int32_t zp)
{
    return (static_cast<int32_t>(q) - zp) * scale;
}

// ---- fp16 storage conversion -----------------------------------------

/** f32 -> IEEE binary16 bits, round-to-nearest-even (no _Float16
 *  dependency; the arena stores raw uint16 halves). */
inline uint16_t
floatToHalf(float f)
{
    uint32_t x;
    std::memcpy(&x, &f, 4);
    uint32_t sign = (x >> 16) & 0x8000u;
    uint32_t mant = x & 0x007fffffu;
    int32_t exp = static_cast<int32_t>((x >> 23) & 0xffu) - 127 + 15;
    if (((x >> 23) & 0xffu) == 0xffu) // inf/nan
        return static_cast<uint16_t>(sign | 0x7c00u | (mant ? 0x200u : 0));
    if (exp >= 0x1f) // overflow -> inf
        return static_cast<uint16_t>(sign | 0x7c00u);
    if (exp <= 0) { // subnormal or zero
        if (exp < -10)
            return static_cast<uint16_t>(sign);
        mant |= 0x00800000u;
        uint32_t shift = static_cast<uint32_t>(14 - exp);
        uint32_t half = mant >> shift;
        uint32_t rem = mant & ((1u << shift) - 1);
        uint32_t halfway = 1u << (shift - 1);
        if (rem > halfway || (rem == halfway && (half & 1)))
            ++half;
        return static_cast<uint16_t>(sign | half);
    }
    uint32_t half = static_cast<uint32_t>(exp << 10) | (mant >> 13);
    uint32_t rem = mant & 0x1fffu;
    if (rem > 0x1000u || (rem == 0x1000u && (half & 1)))
        ++half; // may carry into the exponent; that is correct rounding
    return static_cast<uint16_t>(sign | half);
}

/** IEEE binary16 bits -> f32 (exact). */
inline float
halfToFloat(uint16_t h)
{
    uint32_t sign = static_cast<uint32_t>(h & 0x8000u) << 16;
    uint32_t exp = (h >> 10) & 0x1fu;
    uint32_t mant = h & 0x3ffu;
    uint32_t x;
    if (exp == 0) {
        if (mant == 0) {
            x = sign;
        } else { // subnormal: normalize
            int shift = 0;
            while (!(mant & 0x400u)) {
                mant <<= 1;
                ++shift;
            }
            mant &= 0x3ffu;
            x = sign | ((127 - 15 - shift + 1) << 23) | (mant << 13);
        }
    } else if (exp == 0x1f) {
        x = sign | 0x7f800000u | (mant << 13);
    } else {
        x = sign | ((exp - 15 + 127) << 23) | (mant << 13);
    }
    float f;
    std::memcpy(&f, &x, 4);
    return f;
}

// ---- post-training calibration ---------------------------------------

/** How observed ranges aggregate across calibration batches. */
enum class ObserverKind {
    MinMax,        ///< running min/max over all batches
    MovingAverage, ///< EMA of per-batch min/max (robust to outliers)
};

struct CalibrationOptions {
    ObserverKind observer = ObserverKind::MinMax;
    /** EMA weight of the PREVIOUS estimate (MovingAverage only). */
    double momentum = 0.9;
};

/** Observed range of one graph value. */
struct CalibRange {
    float mn = 0.0f;
    float mx = 0.0f;
};

/**
 * Run the forward graph over @p batches with the existing executor
 * and stamp every node with "calib_min"/"calib_max" attrs — the quant
 * params the QuantizePass later turns into scales/zero-points. The
 * graph is executed unoptimized (natural order, default kernels) so
 * node ids observed are exactly the ids stamped.
 *
 * @param g       forward graph (stamped in place)
 * @param store   parameter values (materialized if missing)
 * @param batches one Feeds map per calibration batch
 * @return number of values observed
 */
int calibrate(Graph &g, ParamStore &store,
              const std::vector<std::unordered_map<std::string, Tensor>>
                  &batches,
              const CalibrationOptions &opts = {});

/** Observed ranges without stamping (exposed for tests/tools). */
std::vector<CalibRange> observeRanges(
    const Graph &g, ParamStore &store,
    const std::vector<std::unordered_map<std::string, Tensor>> &batches,
    const CalibrationOptions &opts = {});

} // namespace pe
