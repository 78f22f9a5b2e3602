/**
 * @file
 * Kernel-level tests: every optimized variant must agree with the
 * naive reference (blocked GEMM, im2col conv, Winograd), fused ops
 * must match their unfused compositions, and numerically delicate
 * kernels (softmax, cross-entropy) must be stable.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "core/tensor.h"
#include "frontend/builder.h"
#include "kernels/kernel.h"
#include "kernels/kernel_util.h"
#include "testutil.h"

namespace pe {
namespace {

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

/**
 * Evaluate a single node split into @p shards equal ranges of its
 * kernel's partition domain, each with its own workspace — the
 * executor's launch for that thread count.
 */
Tensor
runKernelShards(const Graph &g, int node,
                const std::vector<Tensor> &inputs,
                const std::string &variant, int64_t shards)
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
    KernelInfo info = lookupKernelInfo(n.op, variant);
    EXPECT_FALSE(info.fellBack) << variant;
    int64_t extent = info.part.extent(ctx);
    for (int64_t s = 0; s < shards; ++s) {
        KernelCtx shard = ctx;
        shard.begin = extent * s / shards;
        shard.end = extent * (s + 1) / shards;
        if (shard.end == shard.begin)
            continue;
        DirectWorkspace ws;
        ws.attach(shard, g, n, variant);
        info.fn(shard);
    }
    return out;
}

/** Bit equality, NaN payloads and signed zeros included. */
void
expectSameRawBits(const Tensor &got, const Tensor &want)
{
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          sizeof(float) * want.size()),
              0);
}

using test::variantAndTier;

struct ConvParam {
    int64_t ci, co, hw, stride, pad;
};

class ConvVariants : public ::testing::TestWithParam<ConvParam>
{
};

TEST_P(ConvVariants, Im2colMatchesNaive)
{
    auto [ci, co, hw, stride, pad] = GetParam();
    Rng rng(3);
    Graph g;
    int x = g.input({2, ci, hw, hw}, "x");
    int w = g.param({co, ci, 3, 3}, "w", false);
    Attrs a;
    a.set("stride", stride);
    a.set("pad", pad);
    int conv = g.add(OpKind::Conv2d, {x, w}, std::move(a));
    Tensor tx = Tensor::randn({2, ci, hw, hw}, rng);
    Tensor tw = Tensor::randn({co, ci, 3, 3}, rng, 0.3f);
    Tensor naive = runKernel(g, conv, {tx, tw}, "");
    Tensor im2col = runKernel(g, conv, {tx, tw}, "im2col");
    EXPECT_LT(maxAbsDiff(naive, im2col), 1e-4f);
}

TEST_P(ConvVariants, WinogradMatchesNaiveWhenStride1)
{
    auto [ci, co, hw, stride, pad] = GetParam();
    if (stride != 1)
        GTEST_SKIP() << "Winograd variant requires stride 1";
    Rng rng(3);
    Graph g;
    int x = g.input({2, ci, hw, hw}, "x");
    int w = g.param({co, ci, 3, 3}, "w", false);
    Attrs a;
    a.set("stride", stride);
    a.set("pad", pad);
    int conv = g.add(OpKind::Conv2d, {x, w}, std::move(a));
    Tensor tx = Tensor::randn({2, ci, hw, hw}, rng);
    Tensor tw = Tensor::randn({co, ci, 3, 3}, rng, 0.3f);
    Tensor naive = runKernel(g, conv, {tx, tw}, "");
    Tensor wino = runKernel(g, conv, {tx, tw}, "winograd");
    EXPECT_LT(maxAbsDiff(naive, wino), 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvVariants,
    ::testing::Values(ConvParam{3, 8, 8, 1, 1}, ConvParam{4, 4, 9, 1, 1},
                      ConvParam{1, 2, 7, 1, 0}, ConvParam{3, 8, 8, 2, 1},
                      ConvParam{8, 16, 12, 1, 1}));

/** Bit equality of two tensors of one shape. */
void
expectSameBits(const Tensor &got, const Tensor &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (int64_t i = 0; i < want.size(); ++i)
        ASSERT_EQ(got[i], want[i]) << "at " << i;
}

TEST(MatMulVariants, BlockedMatchesNaive)
{
    // Scalar "blocked" keeps gemmNaive's per-output accumulation order
    // whether it packs B (transposed) or reads it in place (row-major),
    // so the two agree bit for bit on both branches.
    for (int64_t n : {5, 17, 48, 100}) {
        Rng rng(1);
        Graph g;
        int a = g.input({n, n + 3}, "a");
        int b = g.input({n + 3, n - 1}, "b");
        int mm = g.add(OpKind::MatMul, {a, b});
        Tensor ta = Tensor::randn({n, n + 3}, rng);
        Tensor tb = Tensor::randn({n + 3, n - 1}, rng);
        SCOPED_TRACE("n=" + std::to_string(n));
        expectSameBits(runKernel(g, mm, {ta, tb}, "blocked"),
                       runKernel(g, mm, {ta, tb}, ""));
    }
    constexpr int64_t k = 50;
    for (int64_t m : {1, 4, 47, 48, 61}) {
        for (int64_t n : {96, 130}) {
            for (bool tra : {false, true}) {
                for (bool trb : {false, true}) {
                    SCOPED_TRACE(std::to_string(m) + "x" +
                                 std::to_string(n) + " transA " +
                                 std::to_string(tra) + " transB " +
                                 std::to_string(trb));
                    Rng rng(2);
                    Graph g;
                    int a = g.input(tra ? Shape{k, m} : Shape{m, k}, "a");
                    int b = g.input(trb ? Shape{n, k} : Shape{k, n}, "b");
                    Attrs at;
                    at.set("transA", static_cast<int64_t>(tra));
                    at.set("transB", static_cast<int64_t>(trb));
                    int mm = g.add(OpKind::MatMul, {a, b}, std::move(at));
                    Tensor ta = Tensor::randn(g.node(a).shape, rng);
                    Tensor tb = Tensor::randn(g.node(b).shape, rng);
                    expectSameBits(runKernel(g, mm, {ta, tb}, "blocked"),
                                   runKernel(g, mm, {ta, tb}, ""));
                }
            }
        }
    }
}

TEST(MatMulVariants, BlockedWorkspaceOnlyWhenPacking)
{
    // A row-major B is read in place at any row count: no workspace.
    // A transposed B packs one panel of min(K, 48) x min(N, 48).
    struct S {
        Shape a, b;
        bool transB;
        int64_t bytes;
    };
    for (const S &s : {S{{4, 128}, {128, 256}, false, 0},
                       S{{47, 30}, {30, 20}, false, 0},
                       S{{48, 30}, {30, 20}, false, 0},
                       S{{256, 1024}, {1024, 1024}, false, 0},
                       S{{4, 128}, {96, 128}, true, 48 * 48 * 4},
                       S{{4, 10}, {20, 10}, true, 10 * 20 * 4},
                       S{{2, 4, 8}, {2, 8, 5}, false, 0},
                       S{{2, 4, 8}, {2, 5, 8}, true, 8 * 5 * 4},
                       S{{2, 64, 8}, {2, 8, 5}, false, 0},
                       S{{2, 64, 8}, {2, 5, 8}, true, 8 * 5 * 4}}) {
        bool batched = s.a.size() == 3;
        SCOPED_TRACE(std::string(batched ? "BatchMatMul" : "MatMul") +
                     " rows " + std::to_string(s.a[s.a.size() - 2]) +
                     " transB " + std::to_string(s.transB));
        Graph g;
        int a = g.input(s.a, "a");
        int b = g.input(s.b, "b");
        Attrs at;
        at.set("transB", static_cast<int64_t>(s.transB));
        int mm = g.add(batched ? OpKind::BatchMatMul : OpKind::MatMul,
                       {a, b}, std::move(at));
        WorkspaceSpec ws = kernelWorkspace(g, g.node(mm), "blocked");
        EXPECT_EQ(ws.bytesPerShard, s.bytes);
    }
}

TEST(MatMulVariants, BlockedMatchesNaiveWithTranspose)
{
    Rng rng(1);
    Graph g;
    int a = g.input({20, 30}, "a");
    int b = g.input({40, 30}, "b");
    Attrs attrs;
    attrs.set("transB", static_cast<int64_t>(1));
    int mm = g.add(OpKind::MatMul, {a, b}, std::move(attrs));
    Tensor ta = Tensor::randn({20, 30}, rng);
    Tensor tb = Tensor::randn({40, 30}, rng);
    EXPECT_LT(maxAbsDiff(runKernel(g, mm, {ta, tb}, ""),
                         runKernel(g, mm, {ta, tb}, "blocked")),
              1e-3f);
}

/** The standalone activation op of a fused "act" code, Identity for
 *  none (the chain then ends at the bias Add). */
OpKind
actOpOf(int64_t act)
{
    switch (act) {
      case kActRelu:
        return OpKind::Relu;
      case kActGelu:
        return OpKind::Gelu;
      case kActSilu:
        return OpKind::Silu;
      default:
        return OpKind::Identity;
    }
}

TEST(FusedKernels, FusedOpsMatchUnfusedChainBitForBit)
{
    // Every fused op is its unfused op's kernel plus the shared bias +
    // activation epilogue, so on each variant it equals linear -> Add
    // -> act run on that same variant, bit for bit, for every act.
    struct Case {
        const char *name;
        OpKind fused, linear;
        Shape x, w, b;
        int64_t stride, pad;
        std::vector<std::string> variants;
    };
    std::vector<Case> cases = {
        {"conv3x3", OpKind::ConvBiasAct, OpKind::Conv2d, {2, 3, 8, 8},
         {6, 3, 3, 3}, {6, 1, 1}, 1, 1, {"", "im2col", "winograd"}},
        {"conv3x3odd", OpKind::ConvBiasAct, OpKind::Conv2d, {1, 2, 7, 7},
         {3, 2, 3, 3}, {3, 1, 1}, 1, 1, {"", "winograd"}},
        {"conv3x3s2", OpKind::ConvBiasAct, OpKind::Conv2d, {2, 3, 9, 9},
         {5, 3, 3, 3}, {5, 1, 1}, 2, 1, {"", "im2col"}},
        {"conv1x1", OpKind::ConvBiasAct, OpKind::Conv2d, {2, 3, 8, 8},
         {6, 3, 1, 1}, {6, 1, 1}, 1, 0, {"", "im2col"}},
        {"dwconv3x3", OpKind::DwConvBiasAct, OpKind::DwConv2d,
         {2, 4, 8, 8}, {4, 1, 3, 3}, {4, 1, 1}, 1, 1, {"", "packed"}},
        {"dwconv3x3s2", OpKind::DwConvBiasAct, OpKind::DwConv2d,
         {2, 4, 9, 9}, {4, 1, 3, 3}, {4, 1, 1}, 2, 1, {"", "packed"}},
        {"dwconv5x5c11", OpKind::DwConvBiasAct, OpKind::DwConv2d,
         {2, 11, 6, 6}, {11, 1, 5, 5}, {11, 1, 1}, 1, 2, {"", "packed"}},
        {"matmul", OpKind::MatMulBiasAct, OpKind::MatMul, {13, 50},
         {50, 70}, {70}, 0, 0, {"", "blocked"}},
    };
    for (const Case &cs : cases) {
        for (int64_t act : {kActNone, kActRelu, kActGelu, kActSilu}) {
            Rng rng(5);
            Graph g;
            int x = g.input(cs.x, "x");
            int w = g.param(cs.w, "w", false);
            int b = g.param(cs.b, "b", false);
            Attrs la;
            if (cs.linear != OpKind::MatMul) {
                la.set("stride", cs.stride);
                la.set("pad", cs.pad);
            }
            Attrs fa = la;
            fa.set("act", act);
            int fused = g.add(cs.fused, {x, w, b}, std::move(fa));
            int lin = g.add(cs.linear, {x, w}, std::move(la));
            int add = g.add(OpKind::Add, {lin, b});
            int act_node = g.add(actOpOf(act), {add});
            Tensor tx = Tensor::randn(cs.x, rng);
            Tensor tw = Tensor::randn(cs.w, rng, 0.3f);
            Tensor tb = Tensor::randn(cs.b, rng);
            for (const std::string &v : cs.variants) {
                SCOPED_TRACE(std::string(cs.name) + " act " +
                             std::to_string(act) + " variant \"" + v +
                             "\"");
                Tensor got = runKernel(g, fused, {tx, tw, tb}, v);
                Tensor chain = runKernel(
                    g, act_node,
                    {runKernel(g, add,
                               {runKernel(g, lin, {tx, tw}, v), tb},
                               "")},
                    "");
                expectSameBits(got, chain);
            }
        }
    }
}

TEST(ConvVariants, BoundedIm2colMatchesDirectBitForBit)
{
    // A spatial "im2col" conv unfolds one column panel of at most
    // kGemmBlock output pixels at a time; on the scalar tier every
    // output still sums its taps in the direct loop's (ci, kh, kw)
    // order, so the two agree bit for bit, fused or not, with panels
    // that do not divide ho*wo.
    struct S {
        int64_t ci, co, hw, k, stride, pad;
    };
    for (auto [ci, co, hw, k, stride, pad] :
         {S{3, 8, 16, 3, 2, 1}, S{3, 5, 9, 3, 1, 0}, S{2, 4, 13, 3, 1, 1},
          S{4, 3, 11, 5, 1, 2}, S{2, 6, 12, 3, 2, 2}, S{1, 2, 7, 2, 2, 0},
          S{3, 4, 20, 3, 1, 1}}) {
        Rng rng(11);
        Graph g;
        int x = g.input({2, ci, hw, hw}, "x");
        int w = g.param({co, ci, k, k}, "w", true);
        int b = g.param({co, 1, 1}, "b", true);
        Attrs a;
        a.set("stride", stride);
        a.set("pad", pad);
        Attrs fa = a;
        fa.set("act", static_cast<int64_t>(kActRelu));
        int conv = g.add(OpKind::Conv2d, {x, w}, std::move(a));
        int fused = g.add(OpKind::ConvBiasAct, {x, w, b}, std::move(fa));
        const Shape &os = g.node(conv).shape;
        int64_t cols = os[2] * os[3];
        SCOPED_TRACE("ci " + std::to_string(ci) + " hw " +
                     std::to_string(hw) + " k " + std::to_string(k) +
                     " stride " + std::to_string(stride) + " pad " +
                     std::to_string(pad) + " cols " +
                     std::to_string(cols));
        Tensor tx = Tensor::randn({2, ci, hw, hw}, rng);
        Tensor tw = Tensor::randn({co, ci, k, k}, rng, 0.3f);
        Tensor tb = Tensor::randn({co, 1, 1}, rng);
        expectSameRawBits(runKernel(g, conv, {tx, tw}, "im2col"),
                          runKernel(g, conv, {tx, tw}, ""));
        expectSameRawBits(runKernel(g, fused, {tx, tw, tb}, "im2col"),
                          runKernel(g, fused, {tx, tw, tb}, ""));
        // Two shards of images, each with its own panel buffer.
        expectSameRawBits(
            runKernelShards(g, conv, {tx, tw}, "im2col", 2),
            runKernel(g, conv, {tx, tw}, ""));
        for (int id : {conv, fused}) {
            EXPECT_EQ(
                kernelWorkspace(g, g.node(id), "im2col").bytesPerShard,
                ci * k * k * std::min(cols, kutil::kGemmBlock) * 4);
        }
    }
}

TEST(ConvBwdVariants, PointwiseIm2colMatchesDirectBitForBit)
{
    // The pointwise input and weight gradients as GEMMs ("im2col")
    // keep the direct loops' per-entry order — dX over co ascending,
    // dW over images then pixels ascending — so on the scalar tier
    // they agree bit for bit, under "limitCo" and at 1 and 4 shards.
    struct S {
        int64_t n, ci, co, hw, limit;
    };
    for (auto [n, ci, co, hw, limit] :
         {S{3, 5, 7, 4, 0}, S{3, 5, 7, 4, 3}, S{2, 9, 4, 1, 0},
          S{1, 3, 50, 8, 49}, S{5, 60, 6, 7, 2}, S{2, 16, 24, 2, 0}}) {
        SCOPED_TRACE("n " + std::to_string(n) + " ci " +
                     std::to_string(ci) + " co " + std::to_string(co) +
                     " hw " + std::to_string(hw) + " limit " +
                     std::to_string(limit));
        Rng rng(13);
        Graph g;
        int x = g.input({n, ci, hw, hw}, "x");
        int dy = g.input({n, co, hw, hw}, "dy");
        int w = g.input({co, ci, 1, 1}, "w");
        Attrs a;
        a.set("stride", static_cast<int64_t>(1));
        a.set("pad", static_cast<int64_t>(0));
        Attrs ai = a;
        ai.set("xshape", Shape{n, ci, hw, hw});
        Attrs aw = a;
        aw.set("wshape", Shape{co, ci, 1, 1});
        if (limit > 0)
            aw.set("limitCo", limit);
        int dx = g.add(OpKind::Conv2dBwdInput, {w, dy}, std::move(ai));
        int dw = g.add(OpKind::Conv2dBwdWeight, {x, dy}, std::move(aw));
        Tensor tx = Tensor::randn({n, ci, hw, hw}, rng);
        Tensor tdy = Tensor::randn({n, co, hw, hw}, rng);
        Tensor tw = Tensor::randn({co, ci, 1, 1}, rng, 0.3f);
        // Exact zeros in dY, which the direct loops skip.
        for (int64_t i = 0; i < tdy.size(); i += 3)
            tdy[i] = 0.0f;
        Tensor ref_dx = runKernel(g, dx, {tw, tdy}, "");
        Tensor ref_dw = runKernel(g, dw, {tx, tdy}, "");
        for (int64_t shards : {1, 4}) {
            SCOPED_TRACE("shards " + std::to_string(shards));
            expectSameRawBits(
                runKernelShards(g, dx, {tw, tdy}, "im2col", shards),
                ref_dx);
            expectSameRawBits(
                runKernelShards(g, dw, {tx, tdy}, "im2col", shards),
                ref_dw);
        }
    }
}

/** Inputs that stress an activation's edge cases: NaN, infinities,
 *  signed zeros, denormals of both signs and ordinary values. */
Tensor
specialValues(const Shape &s)
{
    const float vals[] = {std::numeric_limits<float>::quiet_NaN(),
                          -0.0f,
                          0.0f,
                          1e-40f,
                          -1e-40f,
                          3e-39f,
                          -3e-39f,
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity(),
                          1.5f,
                          -2.5f};
    constexpr int64_t kVals = sizeof(vals) / sizeof(vals[0]);
    Tensor t(s);
    for (int64_t i = 0; i < t.size(); ++i)
        t[i] = vals[(i * 7) % kVals];
    return t;
}

TEST(ReluKernels, EpilogueMatchesReluKernelBitForBit)
{
    // The fused epilogue's ReLU is actOf's, like the Relu kernel's:
    // NaN and -0 give +0, denormals pass unchanged.
    detail::ensureKernelsRegistered();
    Graph g;
    int x = g.input({97}, "x");
    int relu = g.add(OpKind::Relu, {x});
    Tensor tx = specialValues({97});
    Tensor want = runKernel(g, relu, {tx}, "");
    Tensor got = tx.clone();
    kutil::Epilogue{nullptr, kActRelu}.channel(got.data(), got.size(), 0);
    expectSameRawBits(got, want);
    for (int64_t i = 0; i < tx.size(); ++i) {
        bool pos = tx[i] > 0;
        uint32_t bits;
        std::memcpy(&bits, &want[i], 4);
        if (!pos)
            EXPECT_EQ(bits, 0u) << "relu(" << tx[i] << ") is not +0";
    }

    // Every fused op on every variant and tier form: the fused output
    // equals Relu(linear + bias) on the same variant, bit for bit, for
    // operands full of special values. A -0 bias keeps each sum's
    // bits through the add.
    struct Case {
        const char *name;
        OpKind fused, linear;
        Shape x, w, b;
        int64_t stride, pad;
        std::vector<std::string> variants;
    };
    std::vector<Case> cases = {
        {"conv1x1", OpKind::ConvBiasAct, OpKind::Conv2d, {2, 3, 5, 5},
         {9, 3, 1, 1}, {9, 1, 1}, 1, 0, {"", "im2col"}},
        {"conv3x3s2", OpKind::ConvBiasAct, OpKind::Conv2d, {2, 2, 9, 9},
         {5, 2, 3, 3}, {5, 1, 1}, 2, 1, {"", "im2col"}},
        {"dwconv3x3", OpKind::DwConvBiasAct, OpKind::DwConv2d,
         {2, 4, 7, 7}, {4, 1, 3, 3}, {4, 1, 1}, 1, 1, {"", "packed"}},
        {"dwconv3x3c9", OpKind::DwConvBiasAct, OpKind::DwConv2d,
         {2, 9, 5, 5}, {9, 1, 3, 3}, {9, 1, 1}, 2, 1, {"", "packed"}},
        {"matmul", OpKind::MatMulBiasAct, OpKind::MatMul, {11, 3},
         {3, 21}, {21}, 0, 0, {"", "blocked"}},
    };
    for (const Case &cs : cases) {
        Graph cg;
        int cx = cg.input(cs.x, "x");
        int cw = cg.param(cs.w, "w", false);
        int cb = cg.param(cs.b, "b", false);
        Attrs la;
        if (cs.linear != OpKind::MatMul) {
            la.set("stride", cs.stride);
            la.set("pad", cs.pad);
        }
        Attrs fa = la;
        fa.set("act", static_cast<int64_t>(kActRelu));
        int fused = cg.add(cs.fused, {cx, cw, cb}, std::move(fa));
        int lin = cg.add(cs.linear, {cx, cw}, std::move(la));
        int add = cg.add(OpKind::Add, {lin, cb});
        int act = cg.add(OpKind::Relu, {add});
        Tensor ox = specialValues(cs.x);
        Tensor ow = Tensor::ones(cs.w);
        for (int64_t i = 1; i < ow.size(); i += 2)
            ow[i] = -1.0f;
        Tensor ob = Tensor::zeros(cs.b);
        for (int64_t i = 0; i < ob.size(); ++i)
            ob[i] = -0.0f;
        for (const std::string &base : cs.variants) {
            for (const std::string &v : variantAndTier(cs.fused, base)) {
                SCOPED_TRACE(std::string(cs.name) + " variant \"" + v +
                             "\"");
                Tensor pre = runKernel(
                    cg, add, {runKernel(cg, lin, {ox, ow}, v), ob}, "");
                expectSameRawBits(runKernel(cg, fused, {ox, ow, ob}, v),
                                  runKernel(cg, act, {pre}, ""));
            }
        }
    }
}

TEST(ReluKernels, ReluGradSelectsBitForBit)
{
    // dx = x > 0 ? g : +0 — NaN and -0 inputs give +0, the gradient's
    // own bits (a -0 or a denormal) pass where x > 0.
    Graph g;
    int x = g.input({121}, "x");
    int gr = g.input({121}, "g");
    int rg = g.add(OpKind::ReluGrad, {x, gr});
    Tensor tx = specialValues({121});
    Tensor tg({121});
    for (int64_t i = 0; i < tg.size(); ++i)
        tg[i] = specialValues({13})[i % 13];
    for (int shards : {1, 4}) {
        Tensor got = runKernelShards(g, rg, {tx, tg}, "", shards);
        for (int64_t i = 0; i < tx.size(); ++i) {
            float want = tx[i] > 0 ? tg[i] : 0.0f;
            EXPECT_EQ(std::memcmp(&got[i], &want, 4), 0)
                << "x " << tx[i] << " g " << tg[i];
        }
    }
}

TEST(ReduceKernels, SlotBlocksKeepAscendingOrderBitForBit)
{
    // ReduceSum walks blocks of output slots together, but each slot
    // still adds its inputs in ascending order: the same bits as a
    // scatter over the input in memory order, at 1 and 4 shards, with
    // short last blocks.
    struct C {
        Shape x;
        std::vector<int64_t> axes;
    };
    for (const C &cs : {C{{8, 13, 4, 4}, {0, 2, 3}}, C{{3, 21, 2, 2}, {0, 2, 3}},
                        C{{7, 33}, {0}}, C{{5, 9, 6}, {0, 2}},
                        C{{4, 6, 5}, {1}}, C{{2, 3, 4}, {2}}}) {
        Rng rng(17);
        Graph g;
        int x = g.input(cs.x, "x");
        Attrs a;
        a.set("axes", cs.axes);
        int r = g.add(OpKind::ReduceSum, {x}, std::move(a));
        const Shape &os = g.node(r).shape;
        Tensor tx = Tensor::randn(cs.x, rng);
        Tensor want = Tensor::zeros(os);
        auto xstr = rowMajorStrides(cs.x);
        for (int64_t i = 0; i < tx.size(); ++i) {
            int64_t slot = 0;
            for (size_t d = 0; d < cs.x.size(); ++d) {
                bool reduced = std::find(cs.axes.begin(), cs.axes.end(),
                                         static_cast<int64_t>(d)) !=
                               cs.axes.end();
                if (!reduced)
                    slot = slot * cs.x[d] + (i / xstr[d]) % cs.x[d];
            }
            want[slot] += tx[i];
        }
        for (int64_t shards : {1, 4})
            expectSameRawBits(runKernelShards(g, r, {tx}, "", shards), want);
    }
}

TEST(FusedKernels, WinogradConvBiasActMatchesFusedDirect)
{
    // Every activation, not only relu: the Winograd kernel shares the
    // direct kernel's bias + activation epilogue.
    for (int64_t act : {kActNone, kActRelu, kActGelu, kActSilu}) {
        SCOPED_TRACE("act " + std::to_string(act));
        Rng rng(5);
        Graph g;
        int x = g.input({1, 4, 10, 10}, "x");
        int w = g.param({4, 4, 3, 3}, "w", false);
        int b = g.param({4, 1, 1}, "b", false);
        Attrs a;
        a.set("stride", static_cast<int64_t>(1));
        a.set("pad", static_cast<int64_t>(1));
        a.set("act", act);
        int fused = g.add(OpKind::ConvBiasAct, {x, w, b}, a);
        Tensor tx = Tensor::randn({1, 4, 10, 10}, rng);
        Tensor tw = Tensor::randn({4, 4, 3, 3}, rng, 0.3f);
        Tensor tb = Tensor::randn({4, 1, 1}, rng);
        Tensor direct = runKernel(g, fused, {tx, tw, tb}, "");
        Tensor wino = runKernel(g, fused, {tx, tw, tb}, "winograd");
        EXPECT_LT(maxAbsDiff(direct, wino), 1e-3f);
    }
}

TEST(SoftmaxKernel, StableUnderLargeLogits)
{
    Graph g;
    int x = g.input({1, 4}, "x");
    int sm = g.add(OpKind::Softmax, {x});
    Tensor tx = Tensor::fromVector({1, 4}, {1000, 1001, 999, 1000});
    Tensor out = runKernel(g, sm, {tx}, "");
    double sum = out.sum();
    EXPECT_NEAR(sum, 1.0, 1e-5);
    for (int64_t i = 0; i < 4; ++i)
        EXPECT_TRUE(std::isfinite(out[i]));
    EXPECT_GT(out[1], out[0]);
}

TEST(CrossEntropyKernel, MatchesManualComputation)
{
    Graph g;
    int x = g.input({2, 3}, "x");
    int y = g.input({2}, "y");
    int ce = g.add(OpKind::CrossEntropy, {x, y});
    Tensor logits = Tensor::fromVector({2, 3}, {1, 2, 3, 0, 0, 0});
    Tensor labels = Tensor::fromVector({2}, {2, 0});
    const Node &n = g.node(ce);
    Tensor out({1});
    KernelCtx ctx;
    ctx.node = &n;
    ctx.in = {logits.data(), labels.data()};
    ctx.inShapes = {&g.node(x).shape, &g.node(y).shape};
    ctx.out = out.data();
    ctx.outShape = &n.shape;
    lookupKernel(OpKind::CrossEntropy, "")(ctx);
    // Row 0: lse(1,2,3) - 3; row 1: lse(0,0,0) - 0 = log 3.
    double lse0 = std::log(std::exp(1.0) + std::exp(2.0) + std::exp(3.0));
    double expected = ((lse0 - 3.0) + std::log(3.0)) / 2.0;
    EXPECT_NEAR(out[0], expected, 1e-5);
}

TEST(DepthwiseKernel, PackedMatchesDirectBitForBit)
{
    // The packed body sums each output's in-bounds taps from zero in
    // the direct loop's order, multiply then add, on every tier; the
    // input gradient scatters in the direct loop's pixel order. So the
    // forward (plain and fused) and the input gradient of "packed" and
    // its tier form equal the direct "" loops bit for bit: channels
    // around the 8-lane block, planes 1x1 to 9x9, k 3/5/7, stride 1/2,
    // pad 0 and k/2, and dY with exact zeros (the direct loop skips
    // them, which only matters for non-finite weights).
    int cases = 0;
    for (int64_t ch : {1, 7, 8, 9, 60}) {
        for (int64_t hw = 1; hw <= 9; ++hw) {
            for (int64_t k : {3, 5, 7}) {
                for (int64_t stride : {1, 2}) {
                    for (int64_t pad : {int64_t{0}, k / 2}) {
                        if (hw + 2 * pad < k)
                            continue;
                        ++cases;
                        SCOPED_TRACE("ch " + std::to_string(ch) + " hw " +
                                     std::to_string(hw) + " k " +
                                     std::to_string(k) + " stride " +
                                     std::to_string(stride) + " pad " +
                                     std::to_string(pad));
                        Rng rng(static_cast<uint64_t>(cases));
                        Graph g;
                        int x = g.input({2, ch, hw, hw}, "x");
                        int w = g.input({ch, 1, k, k}, "w");
                        int b = g.input({ch, 1, 1}, "b");
                        Attrs a;
                        a.set("stride", stride);
                        a.set("pad", pad);
                        int dw = g.add(OpKind::DwConv2d, {x, w}, a);
                        std::vector<int> fused;
                        for (int64_t act : {kActRelu, kActGelu}) {
                            Attrs fa = a;
                            fa.set("act", act);
                            fused.push_back(g.add(OpKind::DwConvBiasAct,
                                                  {x, w, b}, std::move(fa)));
                        }
                        const Shape ys = g.node(dw).shape;
                        int dy = g.input(ys, "dy");
                        Attrs ba = a;
                        ba.set("xshape", Shape{2, ch, hw, hw});
                        int dx = g.add(OpKind::DwConv2dBwdInput, {w, dy},
                                       std::move(ba));
                        Tensor tx = Tensor::randn({2, ch, hw, hw}, rng);
                        Tensor tw = Tensor::randn({ch, 1, k, k}, rng, 0.5f);
                        Tensor tb = Tensor::randn({ch, 1, 1}, rng);
                        Tensor tdy = Tensor::randn(ys, rng);
                        for (int64_t i = 0; i < tdy.size(); i += 3)
                            tdy[i] = 0.0f;
                        Tensor want = runKernel(g, dw, {tx, tw}, "");
                        Tensor want_dx = runKernel(g, dx, {tw, tdy}, "");
                        for (const std::string &v :
                             variantAndTier(OpKind::DwConv2d, "packed")) {
                            SCOPED_TRACE(v);
                            expectSameRawBits(runKernel(g, dw, {tx, tw}, v),
                                              want);
                            for (int f : fused)
                                expectSameRawBits(
                                    runKernel(g, f, {tx, tw, tb}, v),
                                    runKernel(g, f, {tx, tw, tb}, ""));
                            expectSameRawBits(
                                runKernel(g, dx, {tw, tdy}, v), want_dx);
                        }
                        // A plane this small is one band: the x plane
                        // and the taps, 8 fp32 lanes each.
                        int64_t elems = (hw * hw + k * k) * kutil::kDwBlock;
                        EXPECT_EQ(kernelWorkspace(g, g.node(dw), "packed")
                                      .bytesPerShard,
                                  elems * 4);
                        EXPECT_EQ(kernelWorkspace(g, g.node(dx), "packed")
                                      .bytesPerShard,
                                  elems * 4);
                    }
                }
            }
        }
    }
    EXPECT_GT(cases, 300);
}

TEST(DepthwiseKernel, PackedBandsMatchDirectBitForBit)
{
    // A plane past kDwBandPixels packs x one band of rows at a time:
    // several bands, bands of exactly one window (rows wider than the
    // budget), and windows that straddle band edges all keep the
    // direct loops' bits, forward and input gradient.
    struct S {
        int64_t h, w, k, stride, pad;
    };
    for (auto [h, w, k, stride, pad] :
         {S{40, 40, 3, 1, 1}, S{41, 37, 5, 2, 2}, S{33, 64, 7, 1, 3},
          S{13, 100, 3, 2, 0}, S{7, 1030, 3, 1, 1}, S{6, 1500, 5, 2, 2}}) {
        SCOPED_TRACE(std::to_string(h) + "x" + std::to_string(w) + " k " +
                     std::to_string(k) + " stride " +
                     std::to_string(stride) + " pad " +
                     std::to_string(pad));
        Rng rng(19);
        int64_t ch = 9;
        Graph g;
        int x = g.input({1, ch, h, w}, "x");
        int wt = g.input({ch, 1, k, k}, "w");
        int b = g.input({ch, 1, 1}, "b");
        Attrs a;
        a.set("stride", stride);
        a.set("pad", pad);
        Attrs fa = a;
        fa.set("act", static_cast<int64_t>(kActRelu));
        int fused = g.add(OpKind::DwConvBiasAct, {x, wt, b}, std::move(fa));
        const Shape ys = g.node(fused).shape;
        int dy = g.input(ys, "dy");
        a.set("xshape", Shape{1, ch, h, w});
        int dx = g.add(OpKind::DwConv2dBwdInput, {wt, dy}, std::move(a));
        Tensor tx = Tensor::randn({1, ch, h, w}, rng);
        Tensor tw = Tensor::randn({ch, 1, k, k}, rng, 0.5f);
        Tensor tb = Tensor::randn({ch, 1, 1}, rng);
        Tensor tdy = Tensor::randn(ys, rng);
        for (const std::string &v :
             variantAndTier(OpKind::DwConvBiasAct, "packed")) {
            SCOPED_TRACE(v);
            expectSameRawBits(runKernel(g, fused, {tx, tw, tb}, v),
                              runKernel(g, fused, {tx, tw, tb}, ""));
            expectSameRawBits(runKernel(g, dx, {tw, tdy}, v),
                              runKernel(g, dx, {tw, tdy}, ""));
        }
        // One band of whole rows, at least one window tall, and the
        // taps: 8 fp32 lanes each.
        int64_t band = std::min(h, std::max(k, 1024 / w));
        EXPECT_EQ(kernelWorkspace(g, g.node(fused), "packed").bytesPerShard,
                  (band * w + k * k) * kutil::kDwBlock * 4);
        EXPECT_EQ(kernelWorkspace(g, g.node(dx), "packed").bytesPerShard,
                  (band * w + k * k) * kutil::kDwBlock * 4);
    }
}

TEST(DepthwiseKernel, PackedIsShardInvariant)
{
    // Shards are (image, 8-channel block) pairs with their own
    // workspace: 1 and 4 shards give the same bits, a short last
    // block included.
    Rng rng(17);
    Graph g;
    int x = g.input({3, 21, 6, 6}, "x");
    int w = g.input({21, 1, 3, 3}, "w");
    int b = g.input({21, 1, 1}, "b");
    Attrs a;
    a.set("stride", static_cast<int64_t>(2));
    a.set("pad", static_cast<int64_t>(1));
    Attrs fa = a;
    fa.set("act", static_cast<int64_t>(kActRelu));
    int fused = g.add(OpKind::DwConvBiasAct, {x, w, b}, std::move(fa));
    int dy = g.input(g.node(fused).shape, "dy");
    a.set("xshape", Shape{3, 21, 6, 6});
    int dx = g.add(OpKind::DwConv2dBwdInput, {w, dy}, std::move(a));
    Tensor tx = Tensor::randn({3, 21, 6, 6}, rng);
    Tensor tw = Tensor::randn({21, 1, 3, 3}, rng);
    Tensor tb = Tensor::randn({21, 1, 1}, rng);
    Tensor tdy = Tensor::randn(g.node(fused).shape, rng);
    for (const std::string &v :
         variantAndTier(OpKind::DwConvBiasAct, "packed")) {
        SCOPED_TRACE(v);
        expectSameRawBits(runKernelShards(g, fused, {tx, tw, tb}, v, 4),
                          runKernelShards(g, fused, {tx, tw, tb}, v, 1));
        expectSameRawBits(runKernelShards(g, dx, {tw, tdy}, v, 4),
                          runKernelShards(g, dx, {tw, tdy}, v, 1));
    }
}

TEST(DepthwiseKernel, PackedInputGradientKeepsZeroTimesInf)
{
    // The one intended bit change: the direct input gradient skips
    // dY == 0, the packed one multiplies it, so a zero gradient through
    // an infinite weight gives NaN instead of 0.
    Graph g;
    int w = g.input({1, 1, 3, 3}, "w");
    int dy = g.input({1, 1, 3, 3}, "dy");
    Attrs a;
    a.set("stride", static_cast<int64_t>(1));
    a.set("pad", static_cast<int64_t>(1));
    a.set("xshape", Shape{1, 1, 3, 3});
    int dx = g.add(OpKind::DwConv2dBwdInput, {w, dy}, std::move(a));
    Tensor tw = Tensor::ones({1, 1, 3, 3});
    tw[4] = std::numeric_limits<float>::infinity();
    Tensor tdy = Tensor::zeros({1, 1, 3, 3});
    Tensor direct = runKernel(g, dx, {tw, tdy}, "");
    for (int64_t i = 0; i < direct.size(); ++i)
        EXPECT_EQ(direct[i], 0.0f) << i;
    for (const std::string &v :
         variantAndTier(OpKind::DwConv2dBwdInput, "packed")) {
        Tensor packed = runKernel(g, dx, {tw, tdy}, v);
        // The centre tap reaches every dX entry of a 3x3 plane once.
        for (int64_t i = 0; i < packed.size(); ++i)
            EXPECT_TRUE(std::isnan(packed[i])) << v << " " << i;
    }
}

TEST(DepthwiseKernel, MatchesPerChannelConv)
{
    // Depthwise conv == per-channel 1-in/1-out standard conv.
    Rng rng(7);
    Graph g;
    int x = g.input({1, 3, 6, 6}, "x");
    int w = g.param({3, 1, 3, 3}, "w", false);
    Attrs a;
    a.set("stride", static_cast<int64_t>(1));
    a.set("pad", static_cast<int64_t>(1));
    int dw = g.add(OpKind::DwConv2d, {x, w}, std::move(a));
    Tensor tx = Tensor::randn({1, 3, 6, 6}, rng);
    Tensor tw = Tensor::randn({3, 1, 3, 3}, rng);
    Tensor got = runKernel(g, dw, {tx, tw}, "");

    for (int64_t c = 0; c < 3; ++c) {
        Graph g1;
        int x1 = g1.input({1, 1, 6, 6}, "x");
        int w1 = g1.param({1, 1, 3, 3}, "w", false);
        Attrs a1;
        a1.set("stride", static_cast<int64_t>(1));
        a1.set("pad", static_cast<int64_t>(1));
        int conv = g1.add(OpKind::Conv2d, {x1, w1}, std::move(a1));
        Tensor cx({1, 1, 6, 6}), cw({1, 1, 3, 3});
        for (int64_t i = 0; i < 36; ++i)
            cx[i] = tx[c * 36 + i];
        for (int64_t i = 0; i < 9; ++i)
            cw[i] = tw[c * 9 + i];
        Tensor ref = runKernel(g1, conv, {cx, cw}, "");
        for (int64_t i = 0; i < 36; ++i)
            EXPECT_NEAR(got[c * 36 + i], ref[i], 1e-4f) << "c=" << c;
    }
}

TEST(KernelRegistry, UnknownVariantFallsBackToDefault)
{
    detail::ensureKernelsRegistered();
    EXPECT_EQ(lookupKernel(OpKind::Add, "no-such-variant"),
              lookupKernel(OpKind::Add, ""));
    EXPECT_TRUE(hasKernelVariant(OpKind::Conv2d, "winograd"));
    EXPECT_FALSE(hasKernelVariant(OpKind::Add, "winograd"));
}

TEST(OptimApplyKernels, SgdSubRangeOffset)
{
    // Channel-sparse updates write only [offset, offset + grad.numel).
    Graph g;
    int p = g.param({8}, "p", true);
    int gr = g.input({4}, "g");
    Attrs a;
    a.set("lr", 1.0);
    a.set("offset", static_cast<int64_t>(0));
    int apply = g.add(OpKind::ApplySgd, {p, gr}, std::move(a));
    Tensor tp = Tensor::ones({8});
    Tensor tg = Tensor::ones({4});
    KernelCtx ctx;
    ctx.node = &g.node(apply);
    ctx.in = {tp.data(), tg.data()};
    ctx.inShapes = {&g.node(p).shape, &g.node(gr).shape};
    ctx.out = tp.data();
    ctx.outShape = &g.node(apply).shape;
    lookupKernel(OpKind::ApplySgd, "")(ctx);
    for (int i = 0; i < 4; ++i)
        EXPECT_FLOAT_EQ(tp[i], 0.0f);
    for (int i = 4; i < 8; ++i)
        EXPECT_FLOAT_EQ(tp[i], 1.0f);
}

} // namespace
} // namespace pe
