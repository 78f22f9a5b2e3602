/**
 * @file
 * SIMD kernel tier tests.
 *
 *  1. Tier API: variant naming, capability resolution, the unknown-
 *     variant passthrough the fallback counters depend on.
 *  2. Parity properties, swept over random shapes (non-multiple-of-
 *     vector-width tails, 1-element edges): int8 SIMD kernels are
 *     BIT-EXACT to the scalar "int8" tier; fp32 SIMD kernels match
 *     scalar within 1e-5 relative (FMA rounding contract).
 *  3. Compile integration: an MCUNet-style int8 compile reports zero
 *     QuantDwConv2d fallbacks and binds SIMD steps on a SIMD host;
 *     a program built under TierOverride(Scalar) is scalar throughout.
 *  4. Deployment: a plan saved with SIMD variants loads on a host
 *     whose tier is forced to scalar (TierOverride), binds
 *     the scalar bases, and reproduces the scalar compile bit for
 *     bit; a plan naming the other SIMD family's variants binds this
 *     host's tier; a workspace placement cut below its kernel's
 *     declaration is rejected at bind.
 *
 * All tier-dependent cases skip on hosts with no SIMD tier (the
 * PE_SIMD=OFF CI leg runs only the API and scalar-path cases, which
 * is itself the downgrade coverage).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "engine/engine.h"
#include "frontend/builder.h"
#include "frontend/models.h"
#include "hw/cpu_features.h"
#include "kernels/kernel.h"
#include "kernels/kernel_util.h"
#include "plan/plan.h"
#include "quant/quant.h"
#include "testutil.h"

namespace pe {
namespace {

using test::Feeds;
using test::TierOverride;

/** "" on a scalar-only host, else this host's variant suffix. */
std::string
hostSuffix()
{
    detail::ensureKernelsRegistered();
    SimdTier t = hostSimdTier();
    if (t == SimdTier::Scalar)
        return "";
    return std::string("@") + simdTierName(t);
}

#define SKIP_WITHOUT_SIMD()                                             \
    do {                                                                \
        if (hostSuffix().empty())                                       \
            GTEST_SKIP() << "no SIMD tier on this host";                \
    } while (0)

/** Evaluate a single node with an explicit kernel variant. */
Tensor
runKernel(const Graph &g, int node, const std::vector<Tensor> &inputs,
          const std::string &variant)
{
    const Node &n = g.node(node);
    Tensor out(n.shape);
    KernelCtx ctx;
    ctx.node = &n;
    for (size_t i = 0; i < inputs.size(); ++i) {
        ctx.in.push_back(inputs[i].data());
        ctx.inShapes.push_back(&g.node(n.inputs[i]).shape);
    }
    ctx.out = out.data();
    ctx.outShape = &n.shape;
    DirectWorkspace ws;
    ws.attach(ctx, g, n, variant);
    lookupKernel(n.op, variant)(ctx);
    return out;
}

/** Byte buffer usable as a KernelCtx float* while holding i8 codes. */
struct I8Buf {
    std::vector<float> storage;
    explicit I8Buf(int64_t n)
        : storage(static_cast<size_t>((n + 3) / 4 + 1), 0.0f)
    {
    }
    int8_t *data() { return reinterpret_cast<int8_t *>(storage.data()); }
    const float *asF32() const { return storage.data(); }
    float *asF32Mut() { return storage.data(); }
};

void
quantizeInto(const Tensor &t, float scale, int32_t zp, I8Buf &out)
{
    for (int64_t i = 0; i < t.size(); ++i)
        out.data()[i] = quantizeValue(t[i], scale, zp);
}

std::vector<float>
quantizeWeight(const Tensor &w, int64_t axis, I8Buf &out)
{
    const Shape &s = w.shape();
    int64_t inner = 1;
    for (size_t i = axis + 1; i < s.size(); ++i)
        inner *= s[i];
    std::vector<float> maxabs(static_cast<size_t>(s[axis]), 0.0f);
    for (int64_t i = 0; i < w.size(); ++i) {
        int64_t c = (i / inner) % s[axis];
        maxabs[c] = std::max(maxabs[c], std::fabs(w[i]));
    }
    std::vector<float> scales(maxabs.size());
    for (size_t c = 0; c < scales.size(); ++c)
        scales[c] = chooseWeightScale(maxabs[c]);
    for (int64_t i = 0; i < w.size(); ++i) {
        int64_t c = (i / inner) % s[axis];
        out.data()[i] = quantizeValue(w[i], scales[c], 0);
    }
    return scales;
}

int
maxCodeDiff(const I8Buf &a, const I8Buf &b, int64_t n)
{
    int worst = 0;
    const int8_t *pa = reinterpret_cast<const int8_t *>(a.asF32());
    const int8_t *pb = reinterpret_cast<const int8_t *>(b.asF32());
    for (int64_t i = 0; i < n; ++i)
        worst = std::max(worst, std::abs(static_cast<int>(pa[i]) -
                                         static_cast<int>(pb[i])));
    return worst;
}

float
maxRelDiff(const Tensor &a, const Tensor &b)
{
    float worst = 0.0f;
    for (int64_t i = 0; i < a.size(); ++i) {
        float denom =
            std::max({std::fabs(a[i]), std::fabs(b[i]), 1.0f});
        worst = std::max(worst, std::fabs(a[i] - b[i]) / denom);
    }
    return worst;
}

bool
bitEqual(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(), sizeof(float) * a.size()) ==
               0;
}

// ---- 1. tier API -----------------------------------------------------

TEST(TierApi, VariantNamingAndClassification)
{
    detail::ensureKernelsRegistered();
    EXPECT_STREQ(simdTierName(SimdTier::Scalar), "scalar");
    EXPECT_STREQ(simdTierName(SimdTier::Avx2), "avx2");
    EXPECT_STREQ(simdTierName(SimdTier::Neon), "neon");

    EXPECT_EQ(variantTier(""), SimdTier::Scalar);
    EXPECT_EQ(variantTier("blocked"), SimdTier::Scalar);
    EXPECT_EQ(variantTier("avx2"), SimdTier::Avx2);
    EXPECT_EQ(variantTier("blocked@avx2"), SimdTier::Avx2);
    EXPECT_EQ(variantTier("int8@neon"), SimdTier::Neon);
    // Unknown variants are NOT tiers: they classify scalar and pass
    // through resolution unchanged, so the fallback counters still
    // see them (test_parallel asserts on exactly that).
    EXPECT_EQ(variantTier("no-such-backend"), SimdTier::Scalar);

    EXPECT_EQ(scalarVariantOf("blocked@avx2"), "blocked");
    EXPECT_EQ(scalarVariantOf("int8@neon"), "int8");
    EXPECT_EQ(scalarVariantOf("avx2"), "");
    EXPECT_EQ(scalarVariantOf("blocked"), "blocked");
    EXPECT_EQ(scalarVariantOf(""), "");
}

TEST(TierApi, ResolutionUpgradesOnlyRegisteredVariants)
{
    detail::ensureKernelsRegistered();
    // Scalar tier always lands on the scalar base, whatever was asked.
    EXPECT_EQ(resolveTierVariant(OpKind::MatMul, "blocked@avx2",
                                 SimdTier::Scalar),
              "blocked");
    EXPECT_EQ(
        resolveTierVariant(OpKind::MatMul, "blocked", SimdTier::Scalar),
        "blocked");
    // Unknown variants resolve to themselves under the scalar tier's
    // base rule only when they look like tier names; a plain unknown
    // string survives untouched.
    EXPECT_EQ(resolveTierVariant(OpKind::MatMul, "no-such-backend",
                                 SimdTier::Scalar),
              "no-such-backend");

    SimdTier host = hostSimdTier();
    if (host == SimdTier::Scalar)
        return;
    std::string want = "blocked" + hostSuffix();
    ASSERT_TRUE(hasKernelVariant(OpKind::MatMul, want));
    EXPECT_EQ(resolveTierVariant(OpKind::MatMul, "blocked", host), want);
    // Ops with no tier kernel stay on their scalar variant — there is
    // no "winograd@avx2", and the bare default has no tier either.
    EXPECT_EQ(resolveTierVariant(OpKind::Conv2d, "winograd", host),
              "winograd");
    EXPECT_EQ(resolveTierVariant(OpKind::Relu, "", host), "");
}

TEST(TierApi, CapabilityGatedRegistration)
{
    detail::ensureKernelsRegistered();
    // A tier variant is registered ONLY when this host can execute
    // it, so hasKernelVariant doubles as the capability probe: at
    // most one of the avx2/neon families may exist, and it must match
    // the probed features.
    const CpuFeatures &f = cpuFeatures();
    bool has_avx2 = hasKernelVariant(OpKind::MatMul, "blocked@avx2");
    bool has_neon = hasKernelVariant(OpKind::MatMul, "blocked@neon");
    EXPECT_FALSE(has_avx2 && has_neon);
    // hostSimdTier() folds in the PE_SIMD=OFF build switch (PE_NO_SIMD
    // is a library-private define, invisible to this TU), so it is the
    // oracle: registration must track it exactly...
    SimdTier host = hostSimdTier();
    EXPECT_EQ(has_avx2, host == SimdTier::Avx2);
    EXPECT_EQ(has_neon, host == SimdTier::Neon);
    // ...and when a tier IS live, it must match the raw probe.
    if (host != SimdTier::Scalar) {
        EXPECT_EQ(has_avx2, f.avx2);
        EXPECT_EQ(has_neon, f.neon);
    }
    if (has_avx2 || has_neon) {
        std::string sfx = hostSuffix();
        for (OpKind op : {OpKind::QuantMatMul, OpKind::QuantConv2d,
                          OpKind::QuantDwConv2d})
            EXPECT_TRUE(hasKernelVariant(op, "int8" + sfx));
        EXPECT_TRUE(hasKernelVariant(OpKind::Conv2d, "im2col" + sfx));
        EXPECT_TRUE(
            hasKernelVariant(OpKind::ConvBiasAct, "im2col" + sfx));
        EXPECT_TRUE(
            hasKernelVariant(OpKind::BatchMatMul, "blocked" + sfx));
        EXPECT_TRUE(
            hasKernelVariant(OpKind::MatMulBiasAct, "blocked" + sfx));
        EXPECT_TRUE(
            hasKernelVariant(OpKind::FusedAttention, simdTierName(host)));

        // registerTier copies each base's PartitionSpec and
        // WorkspaceFn, so the bind-time tier switch always fits the
        // compiled plan.
        struct V {
            OpKind op;
            std::string base, tier;
        };
        std::vector<V> variants = {
            {OpKind::MatMul, "blocked", "blocked" + sfx},
            {OpKind::MatMulBiasAct, "blocked", "blocked" + sfx},
            {OpKind::BatchMatMul, "blocked", "blocked" + sfx},
            {OpKind::Conv2d, "im2col", "im2col" + sfx},
            {OpKind::ConvBiasAct, "im2col", "im2col" + sfx},
            {OpKind::Conv2dBwdInput, "im2col", "im2col" + sfx},
            {OpKind::Conv2dBwdWeight, "im2col", "im2col" + sfx},
            {OpKind::FusedAttention, "", simdTierName(host)},
            {OpKind::QuantMatMul, "int8", "int8" + sfx},
            {OpKind::QuantConv2d, "int8", "int8" + sfx},
            {OpKind::QuantDwConv2d, "int8", "int8" + sfx},
            {OpKind::DwConv2d, "packed", "packed" + sfx},
            {OpKind::DwConvBiasAct, "packed", "packed" + sfx},
            {OpKind::DwConv2dBwdInput, "packed", "packed" + sfx}};
        for (const V &v : variants) {
            SCOPED_TRACE(std::string(opName(v.op)) + " " + v.tier);
            KernelInfo base = lookupKernelInfo(v.op, v.base);
            KernelInfo tier = lookupKernelInfo(v.op, v.tier);
            EXPECT_FALSE(tier.fellBack);
            EXPECT_NE(tier.fn, base.fn);
            EXPECT_EQ(tier.part.extent, base.part.extent);
            EXPECT_EQ(tier.part.minGrain, base.part.minGrain);
            EXPECT_EQ(tier.workspace, base.workspace);
        }
    }
}

// ---- 2. parity properties --------------------------------------------

TEST(SimdParity, Fp32GemmWithin1e5Relative)
{
    SKIP_WITHOUT_SIMD();
    std::string sfx = hostSuffix();
    Rng rng(101);
    // Shapes chosen to hit register-tile and vector-width tails: the
    // AVX2 4-row x 24-col tile with its 16-, 8- and 4-col and 1-3 row
    // remainders, the 8-row tile of panels under 16 columns,
    // 1-element edges, sizes straddling the 48-wide panel, decode's
    // 4x128x96, and 47 and 48 rows (one short of and exactly one
    // 48-row scalar tile).
    struct S {
        int64_t m, k, n;
    };
    std::vector<S> shapes = {{1, 1, 1},    {8, 8, 8},    {7, 13, 9},
                             {16, 48, 48},  {17, 49, 50}, {3, 100, 1},
                             {1, 5, 31},   {23, 7, 65},  {4, 128, 96},
                             {47, 49, 50}, {48, 49, 50}, {6, 20, 44},
                             {13, 33, 28},  {5, 9, 12},   {2, 50, 40}};
    for (auto [m, k, n] : shapes) {
        SCOPED_TRACE("gemm " + std::to_string(m) + "x" +
                     std::to_string(k) + "x" + std::to_string(n));
        for (bool ta : {false, true}) {
            for (bool tb : {false, true}) {
                Graph g;
                int ia = g.input(ta ? Shape{k, m} : Shape{m, k}, "a");
                int ib = g.input(tb ? Shape{n, k} : Shape{k, n}, "b");
                Attrs at;
                at.set("transA", static_cast<int64_t>(ta));
                at.set("transB", static_cast<int64_t>(tb));
                int mm = g.add(OpKind::MatMul, {ia, ib}, std::move(at));
                Tensor a = Tensor::randn(g.node(ia).shape, rng);
                Tensor b = Tensor::randn(g.node(ib).shape, rng);
                Tensor scalar = runKernel(g, mm, {a, b}, "blocked");
                Tensor simd = runKernel(g, mm, {a, b}, "blocked" + sfx);
                EXPECT_LT(maxRelDiff(scalar, simd), 1e-5f);

                // The fused form: the same GEMM plus the epilogue.
                int ibias = g.input({n}, "bias");
                Tensor bias = Tensor::randn({n}, rng);
                for (int64_t act :
                     {kActNone, kActRelu, kActGelu, kActSilu}) {
                    Attrs ft;
                    ft.set("transA", static_cast<int64_t>(ta));
                    ft.set("transB", static_cast<int64_t>(tb));
                    ft.set("act", act);
                    int fmm = g.add(OpKind::MatMulBiasAct, {ia, ib, ibias},
                                    std::move(ft));
                    Tensor fs = runKernel(g, fmm, {a, b, bias}, "blocked");
                    Tensor fv =
                        runKernel(g, fmm, {a, b, bias}, "blocked" + sfx);
                    EXPECT_LT(maxRelDiff(fs, fv), 1e-5f)
                        << "MatMulBiasAct act " << act;
                }

                // A 3-item BatchMatMul of the same geometry.
                Graph bg;
                int ba = bg.input(ta ? Shape{3, k, m} : Shape{3, m, k},
                                  "a");
                int bb = bg.input(tb ? Shape{3, n, k} : Shape{3, k, n},
                                  "b");
                Attrs bat;
                bat.set("transA", static_cast<int64_t>(ta));
                bat.set("transB", static_cast<int64_t>(tb));
                int bmm =
                    bg.add(OpKind::BatchMatMul, {ba, bb}, std::move(bat));
                Tensor a3 = Tensor::randn(bg.node(ba).shape, rng);
                Tensor b3 = Tensor::randn(bg.node(bb).shape, rng);
                Tensor bscalar = runKernel(bg, bmm, {a3, b3}, "blocked");
                Tensor bsimd =
                    runKernel(bg, bmm, {a3, b3}, "blocked" + sfx);
                EXPECT_LT(maxRelDiff(bscalar, bsimd), 1e-5f)
                    << "BatchMatMul";
            }
        }
    }
}

TEST(SimdParity, Fp32Im2colConvWithin1e5Relative)
{
    SKIP_WITHOUT_SIMD();
    std::string sfx = hostSuffix();
    Rng rng(102);
    struct S {
        int64_t ci, co, hw, k, stride, pad;
    };
    // Spatial shapes span one to five column panels, the last one
    // partial (16x16 s2 is the MCUNet stem's 64 outputs).
    std::vector<S> shapes = {{1, 1, 1, 1, 1, 0},  {3, 8, 9, 3, 1, 1},
                             {4, 5, 7, 3, 2, 1},  {2, 16, 13, 5, 1, 2},
                             {8, 3, 8, 1, 1, 0},  {3, 8, 16, 3, 2, 1},
                             {3, 10, 15, 3, 1, 1}};
    for (auto [ci, co, hw, k, stride, pad] : shapes) {
        SCOPED_TRACE("conv ci" + std::to_string(ci) + " co" +
                     std::to_string(co) + " hw" + std::to_string(hw));
        Graph g;
        int x = g.input({2, ci, hw, hw}, "x");
        int w = g.param({co, ci, k, k}, "w", false);
        Attrs a;
        a.set("stride", stride);
        a.set("pad", pad);
        int conv = g.add(OpKind::Conv2d, {x, w}, a);
        Tensor tx = Tensor::randn({2, ci, hw, hw}, rng);
        Tensor tw = Tensor::randn({co, ci, k, k}, rng, 0.3f);
        Tensor scalar = runKernel(g, conv, {tx, tw}, "im2col");
        Tensor simd = runKernel(g, conv, {tx, tw}, "im2col" + sfx);
        EXPECT_LT(maxRelDiff(scalar, simd), 1e-5f);

        // The fused form on the host's tier variant.
        int b = g.param({co, 1, 1}, "b", false);
        Tensor tb = Tensor::randn({co, 1, 1}, rng);
        std::string fused_variant = "im2col" + sfx;
        for (int64_t act : {kActNone, kActRelu, kActGelu, kActSilu}) {
            SCOPED_TRACE("ConvBiasAct act " + std::to_string(act));
            Attrs fa = a;
            fa.set("act", act);
            int fused = g.add(OpKind::ConvBiasAct, {x, w, b}, std::move(fa));
            Tensor fs = runKernel(g, fused, {tx, tw, tb}, "im2col");
            Tensor fv = runKernel(g, fused, {tx, tw, tb}, fused_variant);
            EXPECT_LT(maxRelDiff(fs, fv), 1e-5f);
        }
    }
}

/**
 * Every entry of @p got within the recursive-summation error bound of
 * the exact sum: |got - sum| <= k * 2^-24 * sum|terms|, where @p exact
 * and @p magnitude hold the double-precision sum and sum of |terms|
 * of each entry and @p k its term count.
 */
void
expectWithinSumBound(const Tensor &got, const std::vector<double> &exact,
                     const std::vector<double> &magnitude, int64_t k)
{
    ASSERT_EQ(static_cast<size_t>(got.size()), exact.size());
    double u = std::ldexp(1.0, -24);
    for (int64_t i = 0; i < got.size(); ++i)
        ASSERT_LE(std::fabs(got[i] - exact[i]), k * u * magnitude[i])
            << "entry " << i;
}

TEST(SimdParity, PointwiseConvGradsWithinSumBound)
{
    // The tier forms of the pointwise input / weight gradient GEMMs
    // sum in FMA register tiles, the scalar forms (bit-identical to
    // the direct loops) in plain order. Both stay within the textbook
    // float summation bound of the exact sums — k * 2^-24 * sum|terms|,
    // k = co terms per dX entry and n*h*w per dW entry — and within
    // 1e-5 relative of each other where k <= 64, under "limitCo" too.
    SKIP_WITHOUT_SIMD();
    std::string sfx = hostSuffix();
    Rng rng(103);
    struct S {
        int64_t n, ci, co, hw, limit;
    };
    for (auto [n, ci, co, hw, limit] :
         {S{2, 5, 7, 4, 0}, S{8, 16, 24, 2, 0}, S{8, 24, 16, 4, 10},
          S{3, 60, 50, 8, 0}, S{1, 9, 13, 1, 5}, S{2, 8, 8, 7, 0}}) {
        SCOPED_TRACE("n" + std::to_string(n) + " ci" + std::to_string(ci) +
                     " co" + std::to_string(co) + " hw" +
                     std::to_string(hw) + " limit" + std::to_string(limit));
        int64_t p = hw * hw, rows = limit > 0 ? limit : co;
        Graph g;
        int x = g.input({n, ci, hw, hw}, "x");
        int dy = g.input({n, co, hw, hw}, "dy");
        int w = g.input({co, ci, 1, 1}, "w");
        Attrs ai;
        ai.set("xshape", Shape{n, ci, hw, hw});
        Attrs aw;
        aw.set("wshape", Shape{co, ci, 1, 1});
        if (limit > 0)
            aw.set("limitCo", limit);
        int dx = g.add(OpKind::Conv2dBwdInput, {w, dy}, std::move(ai));
        int dw = g.add(OpKind::Conv2dBwdWeight, {x, dy}, std::move(aw));
        Tensor tx = Tensor::randn({n, ci, hw, hw}, rng);
        Tensor tdy = Tensor::randn({n, co, hw, hw}, rng);
        Tensor tw = Tensor::randn({co, ci, 1, 1}, rng, 0.3f);

        std::vector<double> dx_sum(n * ci * p), dx_mag(n * ci * p);
        for (int64_t b = 0; b < n; ++b)
            for (int64_t c = 0; c < ci; ++c)
                for (int64_t q = 0; q < p; ++q)
                    for (int64_t o = 0; o < co; ++o) {
                        double t = double(tw[o * ci + c]) *
                                   tdy[(b * co + o) * p + q];
                        dx_sum[(b * ci + c) * p + q] += t;
                        dx_mag[(b * ci + c) * p + q] += std::fabs(t);
                    }
        std::vector<double> dw_sum(rows * ci), dw_mag(rows * ci);
        for (int64_t o = 0; o < rows; ++o)
            for (int64_t c = 0; c < ci; ++c)
                for (int64_t b = 0; b < n; ++b)
                    for (int64_t q = 0; q < p; ++q) {
                        double t = double(tdy[(b * co + o) * p + q]) *
                                   tx[(b * ci + c) * p + q];
                        dw_sum[o * ci + c] += t;
                        dw_mag[o * ci + c] += std::fabs(t);
                    }

        Tensor dx_s = runKernel(g, dx, {tw, tdy}, "im2col");
        Tensor dx_v = runKernel(g, dx, {tw, tdy}, "im2col" + sfx);
        Tensor dw_s = runKernel(g, dw, {tx, tdy}, "im2col");
        Tensor dw_v = runKernel(g, dw, {tx, tdy}, "im2col" + sfx);
        for (const Tensor *t : {&dx_s, &dx_v})
            expectWithinSumBound(*t, dx_sum, dx_mag, co);
        for (const Tensor *t : {&dw_s, &dw_v})
            expectWithinSumBound(*t, dw_sum, dw_mag, n * p);
        EXPECT_LT(maxRelDiff(dx_s, dx_v), 1e-5f);
        if (n * p <= 64)
            EXPECT_LT(maxRelDiff(dw_s, dw_v), 1e-5f);
    }
}

/**
 * The AVX2 GEMM tile's summation contract, computed in plain code:
 * out[i, j] += a(i, k0:k1) . b(k0:k1, j) for every kBlock-deep k panel
 * and jBlock-wide column panel, each partial sum an fmaf chain from 0
 * over k ascending, except the jw % 4 tail columns of a panel, whose
 * dot is a plain multiply and add. This TU is baseline x86-64 (no
 * FMA instructions), so the compiler cannot fuse that tail.
 */
template <class A, class B>
void
panelFmaReference(int64_t m, int64_t n, int64_t kk, int64_t kBlock,
                  int64_t jBlock, A a, B b, float *out)
{
    for (int64_t k0 = 0; k0 < kk; k0 += kBlock) {
        int64_t k1 = std::min(k0 + kBlock, kk);
        for (int64_t j0 = 0; j0 < n; j0 += jBlock) {
            int64_t jw = std::min(jBlock, n - j0), tile = jw - jw % 4;
            for (int64_t i = 0; i < m; ++i)
                for (int64_t j = j0; j < j0 + jw; ++j) {
                    float s = 0.0f;
                    for (int64_t k = k0; k < k1; ++k)
                        s = j - j0 < tile ? std::fmaf(a(i, k), b(k, j), s)
                                          : s + a(i, k) * b(k, j);
                    out[i * n + j] += s;
                }
        }
    }
}

TEST(SimdParity, Avx2GemmTileMatchesPanelFmaReference)
{
    // Every tile shape and remainder the AVX2 GEMM tile dispatches
    // (4 x 24/16/8/4 columns with 1-3 row remainders, 8 rows under 16
    // columns), transposed operands, and the convs and pointwise
    // gradients that run it: each output equals the per-panel FMA
    // chain bit for bit, so a retiling that reorders any sum fails.
    if (hostSuffix() != "@avx2")
        GTEST_SKIP() << "no AVX2 tier on this host";
    Rng rng(107);
    const int64_t kb = kutil::kGemmBlock;
    int64_t shape_index = 0;
    for (int64_t m : {1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13})
        for (int64_t n :
             {1, 4, 8, 12, 16, 20, 24, 28, 40, 47, 48, 49, 50})
            for (int64_t k : {1, 47, 48, 49, 97})
                for (bool ta : {false, true})
                    for (bool tb : {false, true}) {
                        SCOPED_TRACE("gemm " + std::to_string(m) + "x" +
                                     std::to_string(k) + "x" +
                                     std::to_string(n) + " ta" +
                                     std::to_string(ta) + " tb" +
                                     std::to_string(tb));
                        Graph g;
                        int ia = g.input(ta ? Shape{2, k, m}
                                            : Shape{2, m, k}, "a");
                        int ib = g.input(tb ? Shape{2, n, k}
                                            : Shape{2, k, n}, "b");
                        Tensor a3 = Tensor::randn(g.node(ia).shape, rng);
                        Tensor b3 = Tensor::randn(g.node(ib).shape, rng);
                        auto at = [&](int64_t item) {
                            const float *p = a3.data() + item * m * k;
                            return [=](int64_t i, int64_t kk) {
                                return ta ? p[kk * m + i] : p[i * k + kk];
                            };
                        };
                        auto bt = [&](int64_t item) {
                            const float *p = b3.data() + item * k * n;
                            return [=](int64_t kk, int64_t j) {
                                return tb ? p[j * k + kk] : p[kk * n + j];
                            };
                        };
                        Tensor want({2, m, n});
                        for (int64_t item = 0; item < 2; ++item)
                            panelFmaReference(m, n, k, kb, kb, at(item),
                                              bt(item),
                                              want.data() + item * m * n);
                        Attrs bat;
                        bat.set("transA", static_cast<int64_t>(ta));
                        bat.set("transB", static_cast<int64_t>(tb));
                        int bmm = g.add(OpKind::BatchMatMul, {ia, ib},
                                        std::move(bat));
                        EXPECT_TRUE(bitEqual(
                            runKernel(g, bmm, {a3, b3}, "blocked@avx2"),
                            want))
                            << "BatchMatMul";

                        // Item 0 as a MatMul and, with one of the
                        // activations in turn, a MatMulBiasAct.
                        Tensor a(ta ? Shape{k, m} : Shape{m, k});
                        Tensor b(tb ? Shape{n, k} : Shape{k, n});
                        std::memcpy(a.data(), a3.data(),
                                    sizeof(float) * m * k);
                        std::memcpy(b.data(), b3.data(),
                                    sizeof(float) * k * n);
                        int ia2 = g.input(a.shape(), "a2");
                        int ib2 = g.input(b.shape(), "b2");
                        int ibias = g.input({n}, "bias");
                        Tensor bias = Tensor::randn({n}, rng);
                        int64_t act = std::vector<int64_t>{
                            kActNone, kActRelu, kActGelu,
                            kActSilu}[shape_index++ % 4];
                        Attrs mt, ft;
                        for (Attrs *x : {&mt, &ft}) {
                            x->set("transA", static_cast<int64_t>(ta));
                            x->set("transB", static_cast<int64_t>(tb));
                        }
                        ft.set("act", act);
                        int mm = g.add(OpKind::MatMul, {ia2, ib2},
                                       std::move(mt));
                        int fmm = g.add(OpKind::MatMulBiasAct,
                                        {ia2, ib2, ibias}, std::move(ft));
                        Tensor want2({m, n});
                        std::memcpy(want2.data(), want.data(),
                                    sizeof(float) * m * n);
                        EXPECT_TRUE(bitEqual(
                            runKernel(g, mm, {a, b}, "blocked@avx2"),
                            want2))
                            << "MatMul";
                        for (int64_t i = 0; i < m; ++i)
                            kutil::Epilogue{bias.data(), act}.row(
                                want2.data() + i * n, n);
                        EXPECT_TRUE(bitEqual(runKernel(g, fmm,
                                                       {a, b, bias},
                                                       "blocked@avx2"),
                                             want2))
                            << "MatMulBiasAct act " << act;
                    }

    // The convs and pointwise gradients at the MCUNet proxy's shapes
    // (co x ci x pixels), two images each. A conv forward sums its
    // whole k in one panel: a pointwise conv over all its pixels as
    // one column panel, a spatial one over kGemmBlock-pixel panels.
    struct C {
        int64_t co, ci, hw, kh, stride, pad;
    };
    for (auto [co, ci, hw, kh, stride, pad] :
         {C{8, 8, 8, 1, 1, 0}, C{24, 8, 8, 1, 1, 0}, C{36, 12, 4, 1, 1, 0},
          C{60, 20, 2, 1, 1, 0}, C{8, 3, 16, 3, 2, 1},
          C{16, 3, 16, 3, 2, 1}}) {
        SCOPED_TRACE("conv co" + std::to_string(co) + " ci" +
                     std::to_string(ci) + " hw" + std::to_string(hw) +
                     " k" + std::to_string(kh));
        const int64_t nb = 2, ho = (hw + 2 * pad - kh) / stride + 1;
        const int64_t p = hw * hw, q = ho * ho, kk = ci * kh * kh;
        Graph g;
        int x = g.input({nb, ci, hw, hw}, "x");
        int w = g.input({co, ci, kh, kh}, "w");
        Attrs ca;
        ca.set("stride", stride);
        ca.set("pad", pad);
        int conv = g.add(OpKind::Conv2d, {x, w}, std::move(ca));
        Tensor tx = Tensor::randn({nb, ci, hw, hw}, rng);
        Tensor tw = Tensor::randn({co, ci, kh, kh}, rng, 0.3f);
        Tensor want({nb, co, ho, ho});
        for (int64_t b = 0; b < nb; ++b) {
            const float *xb = tx.data() + b * ci * p;
            auto col = [&](int64_t r, int64_t c) {
                int64_t iy = c / ho * stride - pad + r / kh % kh;
                int64_t ix = c % ho * stride - pad + r % kh;
                if (iy < 0 || iy >= hw || ix < 0 || ix >= hw)
                    return 0.0f;
                return xb[(r / (kh * kh) * hw + iy) * hw + ix];
            };
            panelFmaReference(
                co, q, kk, kk, kh == 1 ? q : kb,
                [&](int64_t i, int64_t r) { return tw[i * kk + r]; }, col,
                want.data() + b * co * q);
        }
        EXPECT_TRUE(
            bitEqual(runKernel(g, conv, {tx, tw}, "im2col@avx2"), want))
            << "Conv2d";
        if (kh != 1)
            continue;

        int dy = g.input({nb, co, hw, hw}, "dy");
        Attrs ai;
        ai.set("xshape", Shape{nb, ci, hw, hw});
        Attrs aw;
        aw.set("wshape", Shape{co, ci, 1, 1});
        int dx = g.add(OpKind::Conv2dBwdInput, {w, dy}, std::move(ai));
        int dw = g.add(OpKind::Conv2dBwdWeight, {x, dy}, std::move(aw));
        Tensor tdy = Tensor::randn({nb, co, hw, hw}, rng);
        Tensor want_dx({nb, ci, hw, hw}), want_dw({co, ci, 1, 1});
        for (int64_t b = 0; b < nb; ++b) {
            const float *dyb = tdy.data() + b * co * p;
            const float *xb = tx.data() + b * ci * p;
            panelFmaReference(
                ci, p, co, kb, kb,
                [&](int64_t i, int64_t o) { return tw[o * ci + i]; },
                [&](int64_t o, int64_t j) { return dyb[o * p + j]; },
                want_dx.data() + b * ci * p);
            panelFmaReference(
                co, ci, p, kb, kb,
                [&](int64_t o, int64_t j) { return dyb[o * p + j]; },
                [&](int64_t j, int64_t c) { return xb[c * p + j]; },
                want_dw.data());
        }
        EXPECT_TRUE(bitEqual(
            runKernel(g, dx, {tw, tdy}, "im2col@avx2"), want_dx))
            << "Conv2dBwdInput";
        EXPECT_TRUE(bitEqual(
            runKernel(g, dw, {tx, tdy}, "im2col@avx2"), want_dw))
            << "Conv2dBwdWeight";
    }
}

/** The three FusedAttention mask forms. */
enum class MaskForm { PerRow, Shared, None };

/**
 * One attention problem built twice over the same inputs: the unfused
 * chain NetBuilder::attention emits (head splits, the mask add —
 * broadcast per head for a per-row [L*S, M] mask, by the Add itself
 * for a shared [S, M] one, absent for none — head merge) and one
 * FusedAttention node.
 */
struct AttnGraph {
    Graph g;
    int q = -1, k = -1, v = -1, mask = -1, out = -1, fused = -1;

    AttnGraph(int64_t l, int64_t s, int64_t h, int64_t dh, int64_t m,
              MaskForm form = MaskForm::PerRow)
    {
        const int64_t d = h * dh;
        q = g.input({l * s, d}, "q");
        k = g.input({l, m, d}, "k");
        v = g.input({l, m, d}, "v");
        if (form != MaskForm::None)
            mask = g.input({form == MaskForm::Shared ? s : l * s, m},
                           "mask");
        auto shaped = [&](OpKind op, int x, const char *key,
                          std::vector<int64_t> val) {
            Attrs a;
            a.set(key, std::move(val));
            return g.add(op, {x}, std::move(a));
        };
        auto split = [&](int x, int64_t t) {
            int r = shaped(OpKind::Reshape, x, "shape", {l, t, h, dh});
            r = shaped(OpKind::Permute, r, "perm", {0, 2, 1, 3});
            return shaped(OpKind::Reshape, r, "shape", {l * h, t, dh});
        };
        Attrs tb;
        tb.set("transB", static_cast<int64_t>(1));
        int sc = g.add(OpKind::BatchMatMul, {split(q, s), split(k, m)},
                       std::move(tb));
        Attrs al;
        al.set("alpha", 0.37);
        sc = g.add(OpKind::Scale, {sc}, std::move(al));
        int m3 = mask;
        if (form == MaskForm::PerRow) {
            m3 = shaped(OpKind::Reshape, mask, "shape", {l, 1, s, m});
            m3 = shaped(OpKind::BroadcastTo, m3, "shape", {l, h, s, m});
            m3 = shaped(OpKind::Reshape, m3, "shape", {l * h, s, m});
        }
        if (m3 >= 0)
            sc = g.add(OpKind::Add, {sc, m3});
        int pv = g.add(OpKind::BatchMatMul,
                       {g.add(OpKind::Softmax, {sc}), split(v, m)});
        out = shaped(OpKind::Reshape, pv, "shape", {l, h, s, dh});
        out = shaped(OpKind::Permute, out, "perm", {0, 2, 1, 3});
        out = shaped(OpKind::Reshape, out, "shape", {l * s, d});
        Attrs fa;
        fa.set("scale", 0.37);
        fa.set("heads", h);
        std::vector<int> ins = {q, k, v};
        if (mask >= 0)
            ins.push_back(mask);
        fused = g.add(OpKind::FusedAttention, ins, std::move(fa));
    }

    /** The unfused chain over @p in = {q, k, v[, mask]}, every kernel
     *  "". */
    Tensor
    unfused(const std::vector<Tensor> &in) const
    {
        std::vector<Tensor> val(g.numNodes());
        for (size_t i = 0; i < in.size(); ++i)
            val[q + i] = in[i];
        for (int id = q + static_cast<int>(in.size()); id <= out; ++id) {
            std::vector<Tensor> args;
            for (int i : g.node(id).inputs)
                args.push_back(val[i]);
            val[id] = runKernel(g, id, args, "");
        }
        return val[out];
    }

    /** The FusedAttention node's @p variant over the same inputs. */
    Tensor
    run(const std::vector<Tensor> &in, const std::string &variant) const
    {
        return runKernel(g, fused, in, variant);
    }
};

bool
allFinite(const Tensor &t)
{
    for (int64_t i = 0; i < t.size(); ++i)
        if (!std::isfinite(t[i]))
            return false;
    return true;
}

TEST(SimdParity, FusedAttentionWithin1e5Relative)
{
    // The one form over an (L, S, H, Dh, M) grid: prefill (L = 1) and
    // decode (S = 1) shapes, L > 1 with S > 1, one head, Dh and M off
    // the 8- and 4-lane widths and at 1. The scalar kernel must equal
    // the unfused chain bit for bit, and the host tier must stay
    // within 1e-5 of it, in each mask form: per row, shared by every
    // lead, and none. A masked column in every mask row (M > 1)
    // exercises the kMaskedScore underflow.
    std::string tier = simdTierName(hostSimdTier());
    Rng rng(106);
    struct S {
        int64_t l, s, h, dh, m;
    };
    std::vector<S> shapes = {{1, 5, 1, 13, 7},  {3, 2, 2, 5, 9},
                             {2, 3, 3, 33, 6},  {4, 1, 3, 11, 11},
                             {2, 1, 2, 1, 5},   {1, 1, 1, 1, 1},
                             {2, 1, 4, 32, 32}, {1, 8, 4, 5, 16}};
    for (MaskForm form :
         {MaskForm::PerRow, MaskForm::Shared, MaskForm::None}) {
        for (auto [l, s, h, dh, m] : shapes) {
            SCOPED_TRACE("attn L" + std::to_string(l) + " S" +
                         std::to_string(s) + " H" + std::to_string(h) +
                         " Dh" + std::to_string(dh) + " M" +
                         std::to_string(m) + " mask form " +
                         std::to_string(static_cast<int>(form)));
            const int64_t d = h * dh;
            AttnGraph ag(l, s, h, dh, m, form);
            std::vector<Tensor> in = {Tensor::randn({l * s, d}, rng),
                                      Tensor::randn({l, m, d}, rng),
                                      Tensor::randn({l, m, d}, rng)};
            if (form != MaskForm::None) {
                const int64_t rows = form == MaskForm::Shared ? s : l * s;
                in.push_back(Tensor::uniform({rows, m}, rng, -0.5f, 0.5f));
                for (int64_t r = 0; m > 1 && r < rows; ++r)
                    in[3][r * m + (r * 3 + 1) % m] = kMaskedScore;
            }
            Tensor scalar = ag.run(in, "");
            EXPECT_TRUE(bitEqual(scalar, ag.unfused(in)))
                << "scalar fused differs from the unfused chain";
            if (hasKernelVariant(OpKind::FusedAttention, tier))
                EXPECT_LT(maxRelDiff(scalar, ag.run(in, tier)), 1e-5f);
        }
    }
}

TEST(SimdParity, FusedAttentionStopsAtEachRowsLastVisibleColumn)
{
    // One call, rows of different visible lengths: a row that sees
    // only column 0, a fully masked row (kept at full width), a row
    // with a masked column inside its visible prefix, an unmasked
    // row, and causal prefixes. The per-row bound must keep the
    // scalar bits of the unfused chain, and the tier within 1e-5.
    std::string tier = simdTierName(hostSimdTier());
    Rng rng(107);
    const int64_t m = 13;
    struct S {
        int64_t l, s, h, dh;
    };
    for (auto [l, s, h, dh] :
         std::vector<S>{{6, 1, 2, 9}, {2, 3, 4, 8}, {1, 6, 1, 17}}) {
        SCOPED_TRACE("attn L" + std::to_string(l) + " S" +
                     std::to_string(s) + " H" + std::to_string(h));
        const int64_t d = h * dh;
        AttnGraph ag(l, s, h, dh, m);
        std::vector<Tensor> in = {
            Tensor::randn({l * s, d}, rng), Tensor::randn({l, m, d}, rng),
            Tensor::randn({l, m, d}, rng), Tensor({l * s, m})};
        // Visible lengths per row (0 = fully masked).
        const int64_t visible[] = {1, 0, 7, m, 4, m - 1};
        for (int64_t r = 0; r < l * s; ++r)
            for (int64_t j = 0; j < m; ++j)
                in[3][r * m + j] = j < visible[r % 6] ? 0.0f : kMaskedScore;
        in[3][2 * m + 3] = kMaskedScore; // masked column inside row 2
        Tensor scalar = ag.run(in, "");
        EXPECT_TRUE(bitEqual(scalar, ag.unfused(in)))
            << "bounded scalar kernel differs from the unfused chain";
        if (hasKernelVariant(OpKind::FusedAttention, tier))
            EXPECT_LT(maxRelDiff(scalar, ag.run(in, tier)), 1e-5f);
    }
}

TEST(SimdParity, FusedAttentionNeverReadsPastTheLastVisibleColumn)
{
    // K/V rows past every row's bound are NaN. The fused kernel on
    // every tier returns finite values, bit-equal to the same call
    // with a zero tail. The unfused chain still reads the tail
    // (0 x NaN is NaN), which is why serving keeps slot rows >= gen
    // at zero.
    std::string tier = simdTierName(hostSimdTier());
    Rng rng(108);
    const int64_t l = 3, s = 2, h = 2, dh = 6, m = 11, d = h * dh;
    const int64_t bound[] = {2, 5, 4}; // visible columns per lead
    AttnGraph ag(l, s, h, dh, m);
    std::vector<Tensor> zero = {
        Tensor::randn({l * s, d}, rng), Tensor::randn({l, m, d}, rng),
        Tensor::randn({l, m, d}, rng), Tensor({l * s, m})};
    for (int64_t r = 0; r < l * s; ++r)
        for (int64_t j = 0; j < m; ++j) {
            // Causal within the lead: row i of lead b sees
            // bound[b] - (s - 1 - i) columns.
            int64_t see = bound[r / s] - (s - 1 - r % s);
            zero[3][r * m + j] = j < see ? 0.0f : kMaskedScore;
        }
    std::vector<Tensor> nan = zero;
    nan[1] = zero[1].clone();
    nan[2] = zero[2].clone();
    for (int64_t b = 0; b < l; ++b)
        for (int64_t j = 0; j < m; ++j)
            for (int64_t c = 0; c < d; ++c) {
                const int64_t i = (b * m + j) * d + c;
                const bool tail = j >= bound[b];
                zero[1][i] = tail ? 0.0f : zero[1][i];
                zero[2][i] = tail ? 0.0f : zero[2][i];
                nan[1][i] = tail ? NAN : zero[1][i];
                nan[2][i] = tail ? NAN : zero[2][i];
            }
    std::vector<std::string> variants = {""};
    if (hasKernelVariant(OpKind::FusedAttention, tier))
        variants.push_back(tier);
    for (const std::string &variant : variants) {
        SCOPED_TRACE("variant '" + variant + "'");
        Tensor got = ag.run(nan, variant);
        EXPECT_TRUE(allFinite(got)) << "fused kernel read a NaN tail row";
        EXPECT_TRUE(bitEqual(got, ag.run(zero, variant)))
            << "NaN tail changed the fused bits";
    }
    EXPECT_TRUE(bitEqual(ag.run(zero, ""), ag.unfused(zero)));
    EXPECT_FALSE(allFinite(ag.unfused(nan)))
        << "the unfused chain no longer reads masked columns";
}

/** Build + run one QuantMatMul with the given geometry twice (scalar
 *  int8 vs SIMD int8) and require bit-exact codes. */
void
checkQGemmBitExact(int64_t m, int64_t k, int64_t n, bool with_bias,
                   int64_t act, Rng &rng)
{
    std::string sfx = hostSuffix();
    Tensor a = Tensor::uniform({m, k}, rng, -1.0f, 1.0f);
    Tensor w = Tensor::uniform({k, n}, rng, -0.8f, 0.8f);
    Tensor bias = Tensor::uniform({n}, rng, -0.5f, 0.5f);
    QuantParams ap = chooseQuantParams(-1.0f, 1.0f);
    QuantParams yp = chooseQuantParams(-6.0f, 6.0f);
    I8Buf qa(m * k), qw(k * n);
    quantizeInto(a, ap.scale, ap.zeroPoint, qa);
    std::vector<float> wscales = quantizeWeight(w, 1, qw);

    Graph g;
    int ia = g.input({m, k}, "a");
    int iw = g.input({k, n}, "w");
    int ib = g.input({n}, "b");
    int is = g.input({n}, "s");
    Attrs at;
    at.set("xScale", static_cast<double>(ap.scale));
    at.set("xZp", static_cast<int64_t>(ap.zeroPoint));
    at.set("yScale", static_cast<double>(yp.scale));
    at.set("yZp", static_cast<int64_t>(yp.zeroPoint));
    at.set("perChannel", static_cast<int64_t>(1));
    at.set("hasBias", static_cast<int64_t>(with_bias ? 1 : 0));
    at.set("act", act);
    std::vector<int> inputs = {ia, iw};
    if (with_bias)
        inputs.push_back(ib);
    inputs.push_back(is);
    int node = g.add(OpKind::QuantMatMul, inputs, std::move(at));

    const Node &nd = g.node(node);
    auto run = [&](const std::string &variant, I8Buf &dst) {
        KernelCtx c;
        c.node = &nd;
        c.in = {qa.asF32(), qw.asF32()};
        c.inShapes = {&g.node(nd.inputs[0]).shape,
                      &g.node(nd.inputs[1]).shape};
        if (with_bias) {
            c.in.push_back(bias.data());
            c.inShapes.push_back(&g.node(nd.inputs[2]).shape);
        }
        c.in.push_back(wscales.data());
        c.inShapes.push_back(
            &g.node(nd.inputs[nd.inputs.size() - 1]).shape);
        c.out = dst.asF32Mut();
        c.outShape = &nd.shape;
        DirectWorkspace ws;
        ws.attach(c, g, nd, variant);
        lookupKernel(OpKind::QuantMatMul, variant)(c);
    };
    I8Buf scalar(m * n), simd(m * n);
    run("int8", scalar);
    run("int8" + sfx, simd);
    EXPECT_EQ(maxCodeDiff(scalar, simd, m * n), 0)
        << m << "x" << k << "x" << n << " bias=" << with_bias
        << " act=" << act;
}

TEST(SimdParity, Int8GemmBitExact)
{
    SKIP_WITHOUT_SIMD();
    Rng rng(103);
    struct S {
        int64_t m, k, n;
    };
    // Tails everywhere: k not a multiple of 16/8 (dot-product tail),
    // n not a multiple of 8/4 (requant tail), single elements.
    std::vector<S> shapes = {{1, 1, 1},  {4, 16, 8},  {5, 17, 9},
                             {12, 24, 10}, {3, 7, 1},  {1, 33, 13},
                             {9, 64, 40}};
    for (auto [m, k, n] : shapes) {
        for (bool with_bias : {false, true}) {
            for (int64_t act : {kActNone, kActRelu, kActGelu})
                checkQGemmBitExact(m, k, n, with_bias, act, rng);
        }
    }
}

/** Build + run one QuantConv2d / QuantDwConv2d twice (scalar int8 vs
 *  SIMD int8) and require bit-exact codes. */
void
checkQConvBitExact(OpKind op, int64_t ch, int64_t hw, int64_t k,
                   int64_t stride, int64_t pad, bool with_bias,
                   bool per_channel, int64_t act, Rng &rng)
{
    std::string sfx = hostSuffix();
    bool dw = op == OpKind::QuantDwConv2d;
    int64_t N = 2, Co = dw ? ch : 4 * ch + 1;
    Tensor x = Tensor::uniform({N, ch, hw, hw}, rng, -1.0f, 1.0f);
    Shape wshape = dw ? Shape{ch, 1, k, k} : Shape{Co, ch, k, k};
    Tensor w = Tensor::uniform(wshape, rng, -0.6f, 0.6f);
    Tensor bias = Tensor::uniform({Co, 1, 1}, rng, -0.3f, 0.3f);
    QuantParams xp = chooseQuantParams(-1.0f, 1.0f);
    QuantParams yp = chooseQuantParams(-4.0f, 4.0f);
    I8Buf qx(x.size()), qw(w.size());
    quantizeInto(x, xp.scale, xp.zeroPoint, qx);
    std::vector<float> wscales = quantizeWeight(w, 0, qw);

    Graph g;
    int ix = g.input({N, ch, hw, hw}, "x");
    int iw = g.input(wshape, "w");
    int ib = g.input({Co, 1, 1}, "b");
    int is = g.input({Co}, "s");
    Attrs at;
    at.set("stride", stride);
    at.set("pad", pad);
    at.set("act", act);
    at.set("hasBias", static_cast<int64_t>(with_bias));
    at.set("perChannel", static_cast<int64_t>(per_channel));
    at.set("xScale", static_cast<double>(xp.scale));
    at.set("xZp", static_cast<int64_t>(xp.zeroPoint));
    // Per-tensor runs broadcast one weight scale to every lane.
    at.set("wScale", static_cast<double>(wscales[0]));
    at.set("yScale", static_cast<double>(yp.scale));
    at.set("yZp", static_cast<int64_t>(yp.zeroPoint));
    std::vector<int> inputs = {ix, iw};
    std::vector<const float *> data = {qx.asF32(), qw.asF32()};
    if (with_bias) {
        inputs.push_back(ib);
        data.push_back(bias.data());
    }
    if (per_channel) {
        inputs.push_back(is);
        data.push_back(wscales.data());
    }
    int node = g.add(op, inputs, std::move(at));
    const Node &nd = g.node(node);
    int64_t out_n = numel(nd.shape);

    auto run = [&](const std::string &variant, I8Buf &dst) {
        KernelCtx c;
        c.node = &nd;
        c.in = data;
        for (int in : inputs)
            c.inShapes.push_back(&g.node(in).shape);
        c.out = dst.asF32Mut();
        c.outShape = &nd.shape;
        DirectWorkspace ws;
        ws.attach(c, g, nd, variant);
        lookupKernel(op, variant)(c);
    };
    I8Buf scalar(out_n), simd(out_n);
    run("int8", scalar);
    run("int8" + sfx, simd);
    EXPECT_EQ(maxCodeDiff(scalar, simd, out_n), 0)
        << (dw ? "depthwise" : "conv") << " bias=" << with_bias
        << " perChannel=" << per_channel << " act=" << act;
}

TEST(SimdParity, Int8ConvAndDepthwiseBitExact)
{
    SKIP_WITHOUT_SIMD();
    Rng rng(104);
    struct S {
        int64_t ch, hw, k, stride, pad;
    };
    std::vector<S> shapes = {{1, 1, 1, 1, 0}, {3, 8, 3, 1, 1},
                             {4, 9, 3, 2, 1}, {8, 12, 5, 1, 2},
                             {5, 7, 3, 1, 0}, {2, 16, 3, 1, 1}};
    // gelu takes the scalar-emit fallback inside the tier kernels;
    // none/relu the vector requantization.
    for (auto [ch, hw, k, stride, pad] : shapes) {
        SCOPED_TRACE("q ch" + std::to_string(ch) + " hw" +
                     std::to_string(hw) + " k" + std::to_string(k) +
                     " s" + std::to_string(stride) + " p" +
                     std::to_string(pad));
        for (OpKind op : {OpKind::QuantConv2d, OpKind::QuantDwConv2d})
            for (int64_t act : {kActNone, kActRelu, kActGelu})
                for (bool with_bias : {false, true})
                    for (bool per_channel : {false, true})
                        checkQConvBitExact(op, ch, hw, k, stride, pad,
                                           with_bias, per_channel, act,
                                           rng);
    }
}

/** The fixed quantization of the int32-loop reference tests: the node
 *  attrs and the kutil::Requant they describe. */
struct Int8RefQuant {
    int64_t act;
    bool withBias, perChannel;

    Attrs
    attrs() const
    {
        Attrs at;
        at.set("act", act);
        at.set("hasBias", static_cast<int64_t>(withBias));
        at.set("perChannel", static_cast<int64_t>(perChannel));
        at.set("xScale", 0.02);
        at.set("xZp", static_cast<int64_t>(-7));
        at.set("wScale", 0.003);
        at.set("yScale", 0.05);
        at.set("yZp", static_cast<int64_t>(4));
        return at;
    }

    kutil::Requant
    requant(const float *bias, const float *scales) const
    {
        kutil::Requant rq;
        rq.xScale = 0.02f;
        rq.wScale = 0.003f;
        rq.yScale = 0.05f;
        rq.xZp = -7;
        rq.yZp = 4;
        rq.act = act;
        rq.bias = withBias ? bias : nullptr;
        rq.wScales = perChannel ? scales : nullptr;
        return rq;
    }
};

/** Node @p node of @p g run on "int8" and, on a SIMD host, on this
 *  host's int8 tier over @p data must write @p want code for code. */
void
expectInt8Codes(const Graph &g, int node,
                const std::vector<const float *> &data,
                const std::vector<int8_t> &want)
{
    std::vector<std::string> variants = {"int8"};
    if (!hostSuffix().empty())
        variants.push_back("int8" + hostSuffix());
    const Node &nd = g.node(node);
    for (const std::string &v : variants) {
        I8Buf got(numel(nd.shape));
        KernelCtx c;
        c.node = &nd;
        c.in = data;
        for (int in : nd.inputs)
            c.inShapes.push_back(&g.node(in).shape);
        c.out = got.asF32Mut();
        c.outShape = &nd.shape;
        DirectWorkspace ws;
        ws.attach(c, g, nd, v);
        lookupKernel(nd.op, v)(c);
        EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size()), 0)
            << v;
    }
}

TEST(SimdParity, Int8DepthwiseMatchesInt32LoopExactly)
{
    // The packed int8 depthwise, scalar and on this host's tier, equals
    // a plain int32 loop over each output's in-bounds taps requantized
    // by Requant::emit, code for code: channels around the 8-lane
    // block, planes 1x1 to 9x9 and a 37x37 one packed in two bands,
    // k 3/5/7, stride 1/2, pad 0 and k/2, with and without bias and
    // per-channel scales, none/relu/gelu.
    Rng rng(107);
    int cases = 0;
    for (int64_t ch : {1, 7, 8, 9, 60})
    for (int64_t hw : {1, 2, 4, 5, 8, 9, 37})
    for (int64_t k : {3, 5, 7})
    for (int64_t stride : {1, 2})
    for (int64_t pad : {int64_t{0}, k / 2}) {
        if (hw + 2 * pad < k)
            continue;
        Int8RefQuant q{cases % 3 == 0   ? kActNone
                       : cases % 3 == 1 ? kActRelu
                                        : kActGelu,
                       cases % 2 == 0, cases % 4 < 2};
        ++cases;
        SCOPED_TRACE("ch " + std::to_string(ch) + " hw " +
                     std::to_string(hw) + " k " + std::to_string(k) +
                     " s " + std::to_string(stride) + " p " +
                     std::to_string(pad) + " act " + std::to_string(q.act));
        int64_t N = 2;
        I8Buf qx(N * ch * hw * hw), qw(ch * k * k);
        for (int64_t i = 0; i < N * ch * hw * hw; ++i)
            qx.data()[i] = static_cast<int8_t>(rng.randint(256) - 128);
        for (int64_t i = 0; i < ch * k * k; ++i)
            qw.data()[i] = static_cast<int8_t>(rng.randint(256) - 128);
        std::vector<float> bias(ch), scales(ch);
        for (int64_t c = 0; c < ch; ++c) {
            bias[c] = rng.uniform(-0.5f, 0.5f);
            scales[c] = rng.uniform(0.001f, 0.004f);
        }
        Graph g;
        std::vector<int> inputs = {g.input({N, ch, hw, hw}, "x"),
                                   g.input({ch, 1, k, k}, "w")};
        std::vector<const float *> data = {qx.asF32(), qw.asF32()};
        if (q.withBias) {
            inputs.push_back(g.input({ch, 1, 1}, "b"));
            data.push_back(bias.data());
        }
        if (q.perChannel) {
            inputs.push_back(g.input({ch}, "s"));
            data.push_back(scales.data());
        }
        Attrs at = q.attrs();
        at.set("stride", stride);
        at.set("pad", pad);
        int node = g.add(OpKind::QuantDwConv2d, inputs, std::move(at));
        int64_t ho = g.node(node).shape[2], wo = g.node(node).shape[3];

        kutil::Requant rq = q.requant(bias.data(), scales.data());
        std::vector<int8_t> want(static_cast<size_t>(N * ch * ho * wo));
        const int8_t *x = qx.data(), *w = qw.data();
        for (int64_t n = 0; n < N; ++n)
        for (int64_t c = 0; c < ch; ++c)
        for (int64_t i = 0; i < ho; ++i)
        for (int64_t j = 0; j < wo; ++j) {
            int32_t acc = 0;
            for (int64_t a = 0; a < k; ++a) {
                for (int64_t b = 0; b < k; ++b) {
                    int64_t ih = i * stride - pad + a;
                    int64_t iw2 = j * stride - pad + b;
                    if (ih < 0 || ih >= hw || iw2 < 0 || iw2 >= hw)
                        continue;
                    acc += (x[((n * ch + c) * hw + ih) * hw + iw2] -
                            rq.xZp) *
                           w[(c * k + a) * k + b];
                }
            }
            want[((n * ch + c) * ho + i) * wo + j] = rq.emit(acc, c);
        }
        expectInt8Codes(g, node, data, want);
    }
    EXPECT_GT(cases, 200);
}

TEST(SimdParity, Int8ConvMatchesInt32LoopExactly)
{
    // The int8 conv tile, scalar and on this host's tier, equals a
    // plain int32 loop over each output's in-bounds taps requantized by
    // Requant::emit, code for code: output channels around each 8-lane
    // group and past the 24-channel step, planes 1x1 to 9x9 (pixel
    // counts that are not multiples of the 4-row block), pointwise
    // convs with even and odd k (an odd k leaves a zero pad pair), a
    // 3x3 pad-1 conv and the 3x3 stride-2 pad-1 stem, with and without
    // bias and per-channel scales, none/relu/gelu.
    struct S {
        int64_t ci, k, stride, pad;
    };
    Rng rng(108);
    int cases = 0;
    for (int64_t co : {1, 7, 8, 9, 12, 17, 20, 36, 60})
    for (S s : {S{8, 1, 1, 0}, S{7, 1, 1, 0}, S{3, 3, 2, 1}, S{2, 3, 1, 1}})
    for (int64_t hw : {1, 2, 3, 4, 5, 7, 9}) {
        Int8RefQuant q{cases % 3 == 0   ? kActNone
                       : cases % 3 == 1 ? kActRelu
                                        : kActGelu,
                       cases % 2 == 0, cases % 4 < 2};
        ++cases;
        SCOPED_TRACE("co " + std::to_string(co) + " ci " +
                     std::to_string(s.ci) + " k " + std::to_string(s.k) +
                     " s " + std::to_string(s.stride) + " hw " +
                     std::to_string(hw) + " act " + std::to_string(q.act));
        int64_t N = 2, ci = s.ci, k = s.k;
        I8Buf qx(N * ci * hw * hw), qw(co * ci * k * k);
        for (int64_t i = 0; i < N * ci * hw * hw; ++i)
            qx.data()[i] = static_cast<int8_t>(rng.randint(256) - 128);
        for (int64_t i = 0; i < co * ci * k * k; ++i)
            qw.data()[i] = static_cast<int8_t>(rng.randint(256) - 128);
        std::vector<float> bias(co), scales(co);
        for (int64_t c = 0; c < co; ++c) {
            bias[c] = rng.uniform(-0.5f, 0.5f);
            scales[c] = rng.uniform(0.001f, 0.004f);
        }
        Graph g;
        std::vector<int> inputs = {g.input({N, ci, hw, hw}, "x"),
                                   g.input({co, ci, k, k}, "w")};
        std::vector<const float *> data = {qx.asF32(), qw.asF32()};
        if (q.withBias) {
            inputs.push_back(g.input({co, 1, 1}, "b"));
            data.push_back(bias.data());
        }
        if (q.perChannel) {
            inputs.push_back(g.input({co}, "s"));
            data.push_back(scales.data());
        }
        Attrs at = q.attrs();
        at.set("stride", s.stride);
        at.set("pad", s.pad);
        int node = g.add(OpKind::QuantConv2d, inputs, std::move(at));
        int64_t ho = g.node(node).shape[2], wo = g.node(node).shape[3];

        kutil::Requant rq = q.requant(bias.data(), scales.data());
        std::vector<int8_t> want(static_cast<size_t>(N * co * ho * wo));
        const int8_t *x = qx.data(), *w = qw.data();
        for (int64_t n = 0; n < N; ++n)
        for (int64_t o = 0; o < co; ++o)
        for (int64_t i = 0; i < ho; ++i)
        for (int64_t j = 0; j < wo; ++j) {
            int32_t acc = 0;
            for (int64_t c = 0; c < ci; ++c)
            for (int64_t a = 0; a < k; ++a)
            for (int64_t b = 0; b < k; ++b) {
                int64_t ih = i * s.stride - s.pad + a;
                int64_t iw = j * s.stride - s.pad + b;
                if (ih < 0 || ih >= hw || iw < 0 || iw >= hw)
                    continue;
                acc += (x[((n * ci + c) * hw + ih) * hw + iw] - rq.xZp) *
                       w[((o * ci + c) * k + a) * k + b];
            }
            want[((n * co + o) * ho + i) * wo + j] = rq.emit(acc, o);
        }
        expectInt8Codes(g, node, data, want);
    }
    EXPECT_GT(cases, 200);
}

TEST(SimdParity, Int8GemmMatchesInt32LoopExactly)
{
    // The int8 GEMM tile, scalar and on this host's tier, equals a
    // plain int32 loop requantized by Requant::emit, code for code:
    // output columns around each 8-lane group and past the 24-column
    // step, row counts around the 4-row block, even and odd k, every
    // transA / transB layout, with and without bias and per-channel
    // scales, none/relu/gelu.
    Rng rng(109);
    int cases = 0;
    for (int64_t n : {1, 7, 8, 9, 12, 17, 20, 36, 60})
    for (int64_t m : {1, 4, 5, 11})
    for (int64_t k : {1, 6, 17, 40})
    for (bool ta : {false, true})
    for (bool tb : {false, true}) {
        Int8RefQuant q{cases % 3 == 0   ? kActNone
                       : cases % 3 == 1 ? kActRelu
                                        : kActGelu,
                       cases % 2 == 0, cases % 4 < 2};
        ++cases;
        SCOPED_TRACE(std::to_string(m) + "x" + std::to_string(k) + "x" +
                     std::to_string(n) + " transA " + std::to_string(ta) +
                     " transB " + std::to_string(tb) + " act " +
                     std::to_string(q.act));
        I8Buf qa(m * k), qb(k * n);
        for (int64_t i = 0; i < m * k; ++i)
            qa.data()[i] = static_cast<int8_t>(rng.randint(256) - 128);
        for (int64_t i = 0; i < k * n; ++i)
            qb.data()[i] = static_cast<int8_t>(rng.randint(256) - 128);
        std::vector<float> bias(n), scales(n);
        for (int64_t j = 0; j < n; ++j) {
            bias[j] = rng.uniform(-0.5f, 0.5f);
            scales[j] = rng.uniform(0.001f, 0.004f);
        }
        Graph g;
        std::vector<int> inputs = {
            g.input(ta ? Shape{k, m} : Shape{m, k}, "a"),
            g.input(tb ? Shape{n, k} : Shape{k, n}, "b")};
        std::vector<const float *> data = {qa.asF32(), qb.asF32()};
        if (q.withBias) {
            inputs.push_back(g.input({n}, "bias"));
            data.push_back(bias.data());
        }
        if (q.perChannel) {
            inputs.push_back(g.input({n}, "s"));
            data.push_back(scales.data());
        }
        Attrs at = q.attrs();
        at.set("transA", static_cast<int64_t>(ta));
        at.set("transB", static_cast<int64_t>(tb));
        int node = g.add(OpKind::QuantMatMul, inputs, std::move(at));

        kutil::Requant rq = q.requant(bias.data(), scales.data());
        std::vector<int8_t> want(static_cast<size_t>(m * n));
        const int8_t *a = qa.data(), *b = qb.data();
        for (int64_t i = 0; i < m; ++i)
        for (int64_t j = 0; j < n; ++j) {
            int32_t acc = 0;
            for (int64_t kk = 0; kk < k; ++kk)
                acc += ((ta ? a[kk * m + i] : a[i * k + kk]) - rq.xZp) *
                       (tb ? b[j * k + kk] : b[kk * n + j]);
            want[i * n + j] = rq.emit(acc, j);
        }
        expectInt8Codes(g, node, data, want);
    }
    EXPECT_GT(cases, 200);
}

TEST(SimdParity, Int8DepthwiseMatchesReferenceWithinOneCode)
{
    // The native int8 depthwise kernel vs the dequant->fp32->requant
    // reference it replaced: same math, different rounding path.
    Rng rng(105);
    int64_t N = 2, Ch = 6, HW = 10, K = 3;
    Tensor x = Tensor::uniform({N, Ch, HW, HW}, rng, -1.0f, 1.0f);
    Tensor w = Tensor::uniform({Ch, 1, K, K}, rng, -0.6f, 0.6f);
    Tensor bias = Tensor::uniform({Ch, 1, 1}, rng, -0.3f, 0.3f);
    QuantParams xp = chooseQuantParams(-1.0f, 1.0f);
    QuantParams yp = chooseQuantParams(-3.0f, 3.0f);
    I8Buf qx(x.size()), qw(w.size());
    quantizeInto(x, xp.scale, xp.zeroPoint, qx);
    std::vector<float> wscales = quantizeWeight(w, 0, qw);

    Graph g;
    int ix = g.input({N, Ch, HW, HW}, "x");
    int iw = g.input({Ch, 1, K, K}, "w");
    int ib = g.input({Ch, 1, 1}, "b");
    int is = g.input({Ch}, "s");
    Attrs at;
    at.set("stride", static_cast<int64_t>(1));
    at.set("pad", static_cast<int64_t>(1));
    at.set("act", static_cast<int64_t>(kActRelu));
    at.set("hasBias", static_cast<int64_t>(1));
    at.set("perChannel", static_cast<int64_t>(1));
    at.set("xScale", static_cast<double>(xp.scale));
    at.set("xZp", static_cast<int64_t>(xp.zeroPoint));
    at.set("yScale", static_cast<double>(yp.scale));
    at.set("yZp", static_cast<int64_t>(yp.zeroPoint));
    int node =
        g.add(OpKind::QuantDwConv2d, {ix, iw, ib, is}, std::move(at));
    const Node &nd = g.node(node);
    int64_t out_n = numel(nd.shape);

    auto run = [&](const std::string &variant, I8Buf &dst) {
        KernelCtx c;
        c.node = &nd;
        c.in = {qx.asF32(), qw.asF32(), bias.data(), wscales.data()};
        c.inShapes = {&g.node(ix).shape, &g.node(iw).shape,
                      &g.node(ib).shape, &g.node(is).shape};
        c.out = dst.asF32Mut();
        c.outShape = &nd.shape;
        DirectWorkspace ws;
        ws.attach(c, g, nd, variant);
        lookupKernel(OpKind::QuantDwConv2d, variant)(c);
    };
    I8Buf native(out_n), reference(out_n);
    run("int8", native);
    run("", reference);
    EXPECT_LE(maxCodeDiff(native, reference, out_n), 1);
}

// ---- 3. compile integration ------------------------------------------

struct CompiledMcuNet {
    std::shared_ptr<ParamStore> store = std::make_shared<ParamStore>();
    ModelSpec m;
    Shape inShape{2, 3, 12, 12};

    CompiledMcuNet()
    {
        VisionConfig cfg;
        cfg.batch = 2;
        cfg.resolution = 12;
        cfg.width = 0.5;
        cfg.blocks = 2;
        Rng rng(31);
        m = buildMcuNet(cfg, rng, store.get());
        std::vector<Feeds> calib;
        Rng crng(32);
        for (int i = 0; i < 2; ++i)
            calib.push_back({{"x", Tensor::randn(inShape, crng)}});
        calibrate(m.graph, *store, calib);
    }
};

TEST(TierCompile, McuNetInt8BindsSimdStepsAndReportsTiers)
{
    CompiledMcuNet f;
    CompileOptions opt;
    opt.precision = Precision::Int8;
    InferenceProgram prog =
        compileInference(f.m.graph, {f.m.logits}, opt, f.store);
    const CompileReport &r = prog.report();
    // The tentpole acceptance: zero quantized-depthwise fallbacks.
    EXPECT_EQ(r.kernelFallbacks, 0);
    EXPECT_TRUE(r.fallbackBreakdown().empty());
    EXPECT_EQ(static_cast<int>(r.stepTiers.size()), r.kernelSteps);
    EXPECT_EQ(r.simdTier, simdTierName(hostSimdTier()));
    if (hostSimdTier() != SimdTier::Scalar) {
        // On a SIMD host the int8 conv/depthwise/matmul steps all
        // bind the tier.
        EXPECT_GT(r.simdSteps, 0);
        EXPECT_NE(r.tierBreakdown().find(r.simdTier),
                  std::string::npos);
    } else {
        EXPECT_EQ(r.simdSteps, 0);
    }
}

TEST(TierCompile, McuNetStepsMissNoTier)
{
    // Every step of the MCUNet train and int8 compiles whose op has a
    // tier form binds it: the depthwise forward and input gradient
    // ("packed"), the convs and pointwise gradients ("im2col"), the
    // GEMMs ("blocked") and the int8 kernels.
    SKIP_WITHOUT_SIMD();
    VisionConfig cfg;
    cfg.batch = 8;
    cfg.resolution = 16;
    cfg.width = 0.5;
    cfg.blocks = 5;
    auto store = std::make_shared<ParamStore>();
    Rng rng(1);
    ModelSpec m = buildMcuNet(cfg, rng, store.get());
    CompileOptions topt;
    topt.optim = OptimConfig::sgd(1e-3);
    topt.numThreads = 1;
    TrainingProgram train = compileTraining(
        m.graph, m.loss, cnnSparseScheme(m, 3, 2), topt, store);
    EXPECT_EQ(train.report().tierMisses, 0)
        << train.report().tierMissBreakdown();
    EXPECT_GT(train.report().simdSteps, 0);

    CompiledMcuNet f;
    CompileOptions qopt;
    qopt.precision = Precision::Int8;
    InferenceProgram q =
        compileInference(f.m.graph, {f.m.logits}, qopt, f.store);
    EXPECT_EQ(q.report().tierMisses, 0) << q.report().tierMissBreakdown();
    EXPECT_TRUE(q.report().tierMissBreakdown().empty());
}

TEST(TierCompile, TierMissNamesTheOneRowTransposedGemm)
{
    // A one-row GEMM against a transposed B keeps the naive loop,
    // which has no tier form while "blocked" has one: the report
    // counts and names it. Forcing the scalar tier misses nothing.
    SKIP_WITHOUT_SIMD();
    auto store = std::make_shared<ParamStore>();
    Graph g;
    Rng rng(38);
    NetBuilder nb(g, rng, store.get());
    Attrs tb;
    tb.set("transB", static_cast<int64_t>(1));
    int y = g.add(OpKind::MatMul,
                  {nb.input({1, 32}, "x"), nb.param({16, 32}, "w", 0.1f)},
                  std::move(tb));
    InferenceProgram prog =
        compileInference(g, {y}, CompileOptions{}, store);
    EXPECT_EQ(prog.report().tierMisses, 1);
    EXPECT_EQ(prog.report().tierMissBreakdown(), "MatMul/ x1");
    TierOverride pin(SimdTier::Scalar);
    InferenceProgram scalar =
        compileInference(g, {y}, CompileOptions{}, store);
    EXPECT_EQ(scalar.report().tierMisses, 0);
}

TEST(TierCompile, ScalarOverridePinsEverything)
{
    CompiledMcuNet f;
    CompileOptions opt;
    opt.precision = Precision::Int8;
    TierOverride pin(SimdTier::Scalar);
    InferenceProgram prog =
        compileInference(f.m.graph, {f.m.logits}, opt, f.store);
    EXPECT_EQ(prog.report().simdTier, "scalar");
    EXPECT_EQ(prog.report().simdSteps, 0);
    for (const std::string &t : prog.report().stepTiers)
        EXPECT_EQ(t, "scalar");
}

TEST(TierCompile, Int8ForwardAgreesAcrossTiers)
{
    // int8 compute is bit-exact across tiers; the only cross-tier
    // rounding differences come from the fp32 steps around it
    // (quantize/dequantize boundaries are scalar in both programs),
    // so logits agree tightly.
    CompiledMcuNet f;
    CompileOptions opt;
    opt.precision = Precision::Int8;
    InferenceProgram simd =
        compileInference(f.m.graph, {f.m.logits}, opt, f.store);
    InferenceProgram scalar = [&] {
        TierOverride pin(SimdTier::Scalar);
        return compileInference(f.m.graph, {f.m.logits}, opt, f.store);
    }();
    Tensor x;
    {
        Rng rng(33);
        x = Tensor::randn(f.inShape, rng);
    }
    Tensor a = simd.run({{"x", x}})[0];
    Tensor b = scalar.run({{"x", x}})[0];
    EXPECT_LT(maxRelDiff(a, b), 1e-4f);
}

// ---- 4. deployment ---------------------------------------------------

TEST(TierDeploy, PlanWithSimdVariantsDowngradesOnScalarHost)
{
    SKIP_WITHOUT_SIMD();
    CompiledMcuNet f;
    CompileOptions opt;
    opt.precision = Precision::Int8;
    InferenceProgram prog =
        compileInference(f.m.graph, {f.m.logits}, opt, f.store);
    ASSERT_GT(prog.report().simdSteps, 0);
    std::string blob =
        serializePlan(prog.graph(), prog.executor().exportArtifact(),
                      prog.report(), *f.store);

    Tensor x;
    {
        Rng rng(34);
        x = Tensor::randn(f.inShape, rng);
    }

    // Load the SIMD-variant plan as a scalar-only host would see it.
    Tensor downgraded;
    {
        TierOverride scalar_host(SimdTier::Scalar);
        auto loaded = loadPlanFromBytes(blob);
        EXPECT_EQ(loaded->report().simdTier, "scalar");
        EXPECT_EQ(loaded->report().simdSteps, 0);
        for (const std::string &t : loaded->report().stepTiers)
            EXPECT_EQ(t, "scalar");
        downgraded = loaded->run({{"x", x}})[0];
    }

    // The downgraded program must be bit-identical to compiling the
    // same model with the scalar tier forced: the artifact's plan was
    // built against the scalar-identical partition/workspace specs,
    // so only the kernel bodies differ — and those are now the same
    // scalar bodies.
    InferenceProgram scalar = [&] {
        TierOverride pin(SimdTier::Scalar);
        return compileInference(f.m.graph, {f.m.logits}, opt, f.store);
    }();
    Tensor want = scalar.run({{"x", x}})[0];
    ASSERT_EQ(downgraded.shape(), want.shape());
    EXPECT_EQ(std::memcmp(downgraded.data(), want.data(),
                          sizeof(float) *
                              static_cast<size_t>(want.size())),
              0);

    // And loading on THIS host re-binds the SIMD tier: upgrade at
    // load is allowed because the swap provably fits the plan.
    auto native = loadPlanFromBytes(blob);
    EXPECT_EQ(native->report().simdTier,
              simdTierName(hostSimdTier()));
    EXPECT_GT(native->report().simdSteps, 0);
    Tensor same = native->run({{"x", x}})[0];
    EXPECT_LT(maxRelDiff(same, downgraded), 1e-4f);
}

TEST(TierDeploy, PlanFromAnotherHostBindsThisHostsTier)
{
    // A plan saved on the other SIMD family names tier variants this
    // registry lacks ("@neon" on x86, "@avx2" on ARM). Loading it must
    // bind this host's tier: the int8 tiers are bit-exact, so the
    // outputs match the native plan's bit for bit.
    CompiledMcuNet f;
    CompileOptions opt;
    opt.precision = Precision::Int8;
    InferenceProgram prog =
        compileInference(f.m.graph, {f.m.logits}, opt, f.store);
    const ProgramArtifact native = prog.executor().exportArtifact();
    const SimdTier host = hostSimdTier();
    const std::string foreign = host == SimdTier::Neon ? "avx2" : "neon";
    ProgramArtifact art = native;
    int renamed = 0;
    for (int id : art.order) {
        const Node &n = prog.graph().node(id);
        std::string &v = art.variants[id];
        // A scalar-only host (PE_SIMD=OFF) binds no tier variant to
        // rename, so tag its int8 kernels with the foreign tier.
        bool tiered = variantTier(v) != SimdTier::Scalar ||
                      (host == SimdTier::Scalar && v == "int8");
        if (isSourceOp(n.op) || !tiered)
            continue;
        std::string base = scalarVariantOf(v);
        v = base.empty() ? foreign : base + "@" + foreign;
        ASSERT_FALSE(hasKernelVariant(n.op, v)) << v;
        ++renamed;
    }
    ASSERT_GT(renamed, 0);

    auto mine = loadPlanFromBytes(
        serializePlan(prog.graph(), native, prog.report(), *f.store));
    auto other = loadPlanFromBytes(
        serializePlan(prog.graph(), art, prog.report(), *f.store));
    EXPECT_EQ(other->report().simdTier, simdTierName(host));
    EXPECT_EQ(other->report().stepTiers, mine->report().stepTiers);
    EXPECT_EQ(other->report().simdSteps, mine->report().simdSteps);
    if (host != SimdTier::Scalar)
        EXPECT_GT(other->report().simdSteps, 0);
    EXPECT_EQ(other->report().kernelFallbacks, 0);
    EXPECT_EQ(other->executor().exportArtifact().variants,
              mine->executor().exportArtifact().variants);

    Rng rng(36);
    Tensor x = Tensor::randn(f.inShape, rng);
    Tensor want = mine->run({{"x", x}})[0];
    Tensor got = other->run({{"x", x}})[0];
    ASSERT_EQ(got.shape(), want.shape());
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          sizeof(float) *
                              static_cast<size_t>(want.size())),
              0);
}

TEST(TierDeploy, ShrunkenWorkspaceIsRejectedBeforeAnyKernelRuns)
{
    // Binding checks every workspace placement against the WorkspaceSpec
    // of the kernel this host binds. Cut a Winograd or blocked-GEMM
    // placement below it: the plan must throw from that check — at
    // load or at the first run's context bind, before any kernel runs
    // — natively and when the variant drops to its scalar base.
    auto store = std::make_shared<ParamStore>();
    Graph g;
    Rng rng(35);
    NetBuilder nb(g, rng, store.get());
    int img = nb.conv2d(nb.input({2, 4, 8, 8}, "img"), 8, 3, 1, 1, "c");
    // x . W^T: a transposed B is the GEMM that packs into a workspace.
    Attrs tb;
    tb.set("transB", static_cast<int64_t>(1));
    int fc = g.add(OpKind::MatMul,
                   {nb.input({64, 32}, "x"), nb.param({64, 32}, "fc", 0.1f)},
                   std::move(tb));
    InferenceProgram prog =
        compileInference(g, {img, fc}, CompileOptions{}, store);
    const ProgramArtifact art = prog.executor().exportArtifact();
    Rng frng(37);
    Feeds feeds{{"img", Tensor::randn({2, 4, 8, 8}, frng)},
                {"x", Tensor::randn({64, 32}, frng)}};
    EXPECT_NO_THROW(loadPlanFromBytes(serializePlan(
                        prog.graph(), art, prog.report(), *store))
                        ->run(feeds));

    std::vector<std::string> cut_kinds;
    for (size_t i = 0; i < art.plan.workspaces.size(); ++i) {
        const std::string base =
            scalarVariantOf(art.variants[art.plan.workspaces[i].node]);
        if (base != "winograd" && base != "blocked")
            continue;
        cut_kinds.push_back(base);
        ProgramArtifact cut = art;
        WorkspacePlacement &w = cut.plan.workspaces[i];
        w.bytesPerShard -= 4;
        std::string blob =
            serializePlan(prog.graph(), cut, prog.report(), *store);
        for (bool scalar_host : {false, true}) {
            SCOPED_TRACE(base + (scalar_host ? " on a scalar host"
                                             : " natively"));
            std::unique_ptr<TierOverride> scalar;
            if (scalar_host)
                scalar = std::make_unique<TierOverride>(SimdTier::Scalar);
            try {
                loadPlanFromBytes(blob)->run(feeds);
                ADD_FAILURE() << "a shrunken workspace placement ran";
            } catch (const std::exception &e) {
                EXPECT_NE(std::string(e.what()).find(
                              "needs more workspace than planned"),
                          std::string::npos)
                    << e.what();
            }
        }
    }
    std::sort(cut_kinds.begin(), cut_kinds.end());
    EXPECT_EQ(cut_kinds,
              (std::vector<std::string>{"blocked", "winograd"}));
}

TEST(TierDeploy, ScalarPlanUpgradesOnSimdHost)
{
    SKIP_WITHOUT_SIMD();
    CompiledMcuNet f;
    CompileOptions opt;
    opt.precision = Precision::Int8;
    InferenceProgram prog = [&] {
        TierOverride pin(SimdTier::Scalar);
        return compileInference(f.m.graph, {f.m.logits}, opt, f.store);
    }();
    ASSERT_EQ(prog.report().simdSteps, 0);
    std::string blob =
        serializePlan(prog.graph(), prog.executor().exportArtifact(),
                      prog.report(), *f.store);
    auto loaded = loadPlanFromBytes(blob);
    // The scalar plan's workspace/launch geometry is identical to the
    // tier's (registration contract), so load-time upgrade kicks in.
    EXPECT_EQ(loaded->report().simdTier, simdTierName(hostSimdTier()));
    EXPECT_GT(loaded->report().simdSteps, 0);
}

} // namespace
} // namespace pe
