/**
 * @file
 * Pass-level tests: DCE, simplify, constant folding, fusion pattern
 * safety, memory-aware reordering invariants, backend switching.
 */

#include <gtest/gtest.h>

#include "frontend/builder.h"
#include "kernels/kernel.h"
#include "passes/passes.h"
#include "runtime/planner.h"
#include "testutil.h"

namespace pe {
namespace {

TEST(Dce, RemovesUnreachableNodes)
{
    Graph g;
    Rng rng(1);
    ParamStore store;
    NetBuilder b(g, rng, &store);
    int x = b.input({2, 4}, "x");
    int used = b.relu(x);
    b.gelu(x); // dead
    b.silu(used); // dead
    g.markOutput(used);
    EXPECT_EQ(dce(g), 2);
    EXPECT_EQ(g.numNodes(), 2);
}

TEST(Dce, KeepsEverythingReachable)
{
    Graph g;
    int x = g.input({4}, "x");
    int y = g.add(OpKind::Relu, {x});
    g.markOutput(y);
    EXPECT_EQ(dce(g), 0);
}

TEST(Simplify, MulByOneBecomesIdentityAndIsBypassed)
{
    Graph g;
    int x = g.input({3}, "x");
    int one = g.constantOf(Tensor::ones({3}));
    int m = g.add(OpKind::Mul, {x, one});
    int out = g.add(OpKind::Relu, {m});
    g.markOutput(out);
    EXPECT_GT(simplify(g), 0);
    EXPECT_EQ(g.node(out).inputs[0], x) << "Relu should consume x directly";
}

TEST(Simplify, AddZeroBecomesIdentity)
{
    Graph g;
    int x = g.input({3}, "x");
    int zero = g.constantOf(Tensor::zeros({3}));
    int a = g.add(OpKind::Add, {x, zero});
    g.markOutput(a);
    simplify(g);
    EXPECT_EQ(g.node(a).op, OpKind::Identity);
}

TEST(ConstantFold, FoldsConstSubgraph)
{
    Graph g;
    int a = g.constantOf(Tensor::full({4}, 2.0f));
    int b = g.constantOf(Tensor::full({4}, 3.0f));
    int sum = g.add(OpKind::Add, {a, b});
    int relu = g.add(OpKind::Relu, {sum});
    g.markOutput(relu);
    EXPECT_EQ(constantFold(g), 2);
    EXPECT_EQ(g.node(relu).op, OpKind::Const);
    EXPECT_FLOAT_EQ(g.constData(relu)[0], 5.0f);
}

TEST(Fusion, ConvBiasReluFuses)
{
    Graph g;
    Rng rng(1);
    ParamStore store;
    NetBuilder b(g, rng, &store);
    int x = b.input({1, 3, 8, 8}, "x");
    int h = b.relu(b.conv2d(x, 4, 3, 1, 1, "c"));
    g.markOutput(h);
    EXPECT_EQ(fuseOperators(g), 1);
    dce(g);
    int fused = 0;
    for (const Node &n : g.nodes())
        fused += n.op == OpKind::ConvBiasAct;
    EXPECT_EQ(fused, 1);
    EXPECT_EQ(g.node(g.outputs()[0]).attrs.getInt("act", 0), kActRelu);
}

TEST(Fusion, MatMulBiasGeluFuses)
{
    Graph g;
    Rng rng(1);
    ParamStore store;
    NetBuilder b(g, rng, &store);
    int x = b.input({4, 8}, "x");
    int h = b.gelu(b.linear(x, 16, "fc"));
    g.markOutput(h);
    EXPECT_EQ(fuseOperators(g), 1);
    dce(g);
    bool found = false;
    for (const Node &n : g.nodes()) {
        if (n.op == OpKind::MatMulBiasAct) {
            found = true;
            EXPECT_EQ(n.attrs.getInt("act", 0), kActGelu);
        }
    }
    EXPECT_TRUE(found);
}

TEST(Fusion, ActNotFusedWhenPreActivationHasOtherConsumers)
{
    // The pre-activation is consumed by two nodes (as in a backward
    // graph that needs it): the activation must NOT be folded into
    // the linear op. Fusing MatMul + bias-Add alone (act = none) is
    // still legal and expected — the fused value keeps both
    // consumers.
    Graph g;
    Rng rng(1);
    ParamStore store;
    NetBuilder b(g, rng, &store);
    int x = b.input({4, 8}, "x");
    int lin = b.linear(x, 16, "fc"); // MatMul + Add
    int act = b.relu(lin);
    int extra = b.gelu(lin); // second consumer of the bias-add
    g.markOutput(act);
    g.markOutput(extra);
    EXPECT_EQ(fuseOperators(g), 1);
    EXPECT_EQ(g.node(lin).op, OpKind::MatMulBiasAct);
    EXPECT_EQ(g.node(lin).attrs.getInt("act", 0), kActNone);
    EXPECT_EQ(g.node(act).op, OpKind::Relu);
    EXPECT_EQ(g.node(extra).op, OpKind::Gelu);
}

TEST(Fusion, RefusesResidualAdd)
{
    // Add of two non-bias activations must never be fused as a bias.
    Graph g;
    Rng rng(1);
    ParamStore store;
    NetBuilder b(g, rng, &store);
    int x = b.input({1, 4, 8, 8}, "x");
    int c1 = b.conv2d(x, 4, 3, 1, 1, "c1", /*bias=*/false);
    int c2 = b.conv2d(x, 4, 3, 1, 1, "c2", /*bias=*/false);
    int res = b.add(c1, c2);
    g.markOutput(res);
    EXPECT_EQ(fuseOperators(g), 0);
}

TEST(Fusion, PairsBiasAddWithFollowingActivation)
{
    // Conv -> Add -> Relu must become ONE ConvBiasAct(relu), not a
    // ConvBiasAct(none) followed by Relu.
    Graph g;
    Rng rng(1);
    ParamStore store;
    NetBuilder b(g, rng, &store);
    int x = b.input({1, 3, 8, 8}, "x");
    int h = b.relu(b.conv2d(x, 4, 3, 1, 1, "c"));
    g.markOutput(h);
    fuseOperators(g);
    dce(g);
    for (const Node &n : g.nodes()) {
        if (n.op == OpKind::ConvBiasAct)
            EXPECT_EQ(n.attrs.getInt("act", 0), kActRelu);
        EXPECT_NE(n.op, OpKind::Relu);
    }
}

TEST(Reorder, ProducesValidTopologicalOrder)
{
    Graph g;
    Rng rng(1);
    ParamStore store;
    NetBuilder b(g, rng, &store);
    int x = b.input({4, 8}, "x");
    int h = b.relu(b.linear(x, 8, "a"));
    h = b.add(h, b.relu(b.linear(x, 8, "c")));
    g.markOutput(h);
    auto order = reorderForMemory(g);
    ASSERT_EQ(order.size(), static_cast<size_t>(g.numNodes()));
    std::vector<int> pos(g.numNodes());
    for (size_t i = 0; i < order.size(); ++i)
        pos[order[i]] = static_cast<int>(i);
    for (const Node &n : g.nodes()) {
        for (int in : n.inputs)
            EXPECT_LT(pos[in], pos[n.id]);
    }
}

TEST(Reorder, InPlaceUpdateRunsAfterAllParamReaders)
{
    // ApplySgd(w) mutates w; every forward/backward reader of w must
    // be scheduled first or gradients would be computed against
    // already-updated weights.
    Graph g;
    Rng rng(1);
    ParamStore store;
    NetBuilder b(g, rng, &store);
    int x = b.input({4, 8}, "x");
    int w = g.findParam("nonexistent"); // silence unused warning
    (void)w;
    int h = b.linear(x, 8, "l1");
    h = b.relu(h);
    h = b.linear(h, 4, "l2");
    int y = b.input({4}, "y");
    int loss = b.crossEntropy(h, y);
    BackwardResult bwd = buildBackward(g, loss);
    g.markOutput(loss);
    Attrs a;
    a.set("lr", 0.1);
    int w1 = g.findParam("l1.weight");
    int apply = g.add(OpKind::ApplySgd, {w1, bwd.paramGrads.at(w1)},
                      std::move(a));
    g.markOutput(apply);
    auto order = reorderForMemory(g);
    std::vector<int> pos(g.numNodes());
    for (size_t i = 0; i < order.size(); ++i)
        pos[order[i]] = static_cast<int>(i);
    auto users = g.consumers();
    for (int u : users[w1]) {
        if (u != apply)
            EXPECT_LT(pos[u], pos[apply]);
    }
}

TEST(BackendSwitch, EveryGemmBindsBlocked)
{
    // Every GEMM binds "blocked" at any size, 1x1x1 included, and
    // every conv binds "im2col" at any size, spatial ones included.
    Graph g;
    int a = g.input({128, 128}, "a");
    int b = g.input({128, 128}, "b");
    int big = g.add(OpKind::MatMul, {a, b});
    int c = g.input({4, 4}, "c");
    int d = g.input({4, 4}, "d");
    int small = g.add(OpKind::MatMul, {c, d});
    int e = g.input({1, 1}, "e");
    int unit = g.add(OpKind::MatMul, {e, e});
    int q = g.input({2, 4, 8}, "q");
    int k = g.input({2, 8, 4}, "k");
    int bmm = g.add(OpKind::BatchMatMul, {q, k});
    int x = g.input({1, 4, 8, 8}, "x");
    int w = g.param({4, 4, 3, 3}, "w", true);
    Attrs ca;
    ca.set("stride", static_cast<int64_t>(1));
    ca.set("pad", static_cast<int64_t>(1));
    int conv = g.add(OpKind::Conv2d, {x, w}, std::move(ca));
    for (int id : {big, small, unit, bmm, conv})
        g.markOutput(id);
    PassStats stats;
    auto variants = switchBackends(g, BackendOptions{}, &stats);
    for (int id : {big, small, unit, bmm})
        EXPECT_EQ(variants[id], "blocked") << "node " << id;
    EXPECT_EQ(stats.blockedBound, 4);
    // 64 outputs per image: the small spatial conv unfolds in bounded
    // panels, so it binds "im2col" too.
    EXPECT_EQ(variants[conv], "im2col");

    BackendOptions off;
    off.enableBlocked = false;
    auto none = switchBackends(g, off);
    for (int id : {big, small, unit, bmm, conv})
        EXPECT_EQ(none[id], "");
}

TEST(BackendSwitch, OneRowTransposedBKeepsNaive)
{
    // One output row against a transposed B (a GEMV such as decode's
    // unfused q . K^T) keeps the naive kernel: blocked would pack all of
    // B for that row. Two rows, or a transposed A, bind "blocked".
    Attrs tb;
    tb.set("transB", static_cast<int64_t>(1));
    Attrs ta;
    ta.set("transA", static_cast<int64_t>(1));
    Graph g;
    int x1 = g.input({1, 32}, "x1");
    int x2 = g.input({2, 32}, "x2");
    int xt = g.input({32, 1}, "xt");
    int w = g.input({64, 32}, "w");
    int wr = g.input({32, 64}, "wr");
    int gemv = g.add(OpKind::MatMul, {x1, w}, tb);
    int two = g.add(OpKind::MatMul, {x2, w}, tb);
    int trans_a = g.add(OpKind::MatMul, {xt, wr}, std::move(ta));
    int q = g.input({8, 1, 16}, "q");
    int k = g.input({8, 32, 16}, "k");
    int scores = g.add(OpKind::BatchMatMul, {q, k}, tb);
    for (int id : {gemv, two, trans_a, scores})
        g.markOutput(id);
    PassStats stats;
    auto variants = switchBackends(g, BackendOptions{}, &stats);
    EXPECT_EQ(variants[gemv], "");
    EXPECT_EQ(variants[scores], "");
    EXPECT_EQ(variants[two], "blocked");
    EXPECT_EQ(variants[trans_a], "blocked");
    EXPECT_EQ(stats.blockedBound, 2);
}

TEST(BackendSwitch, MatMulBiasActBindsLikeMatMul)
{
    // One rule: a fused GEMM binds like a MatMul of the same shape —
    // "blocked" at every size with blocking on, except one row against
    // a transposed B, and "" with it off.
    struct S {
        int64_t m, k, n;
    };
    for (auto [m, k, n] : {S{128, 32, 128}, S{64, 8, 64}, S{63, 64, 64},
                           S{4, 4, 4}, S{4096, 2, 1}, S{1, 2, 4095},
                           S{1, 1, 1}}) {
        for (bool trb : {false, true}) {
            SCOPED_TRACE(std::to_string(m) + "x" + std::to_string(n) +
                         " transB " + std::to_string(trb));
            Graph g;
            int a = g.input({m, k}, "a");
            int b = g.input(trb ? Shape{n, k} : Shape{k, n}, "b");
            int bias = g.param({n}, "bias", true);
            Attrs ma;
            ma.set("transB", static_cast<int64_t>(trb));
            Attrs fa = ma;
            fa.set("act", static_cast<int64_t>(kActGelu));
            int mm = g.add(OpKind::MatMul, {a, b}, std::move(ma));
            int fused =
                g.add(OpKind::MatMulBiasAct, {a, b, bias}, std::move(fa));
            g.markOutput(mm);
            g.markOutput(fused);
            for (bool blocked : {true, false}) {
                BackendOptions opts;
                opts.enableBlocked = blocked;
                auto variants = switchBackends(g, opts);
                EXPECT_EQ(variants[fused], variants[mm]);
                bool gemv = trb && m == 1;
                EXPECT_EQ(variants[mm],
                          blocked && !gemv ? "blocked" : "");
            }
        }
    }
}

TEST(BackendSwitch, WinogradRequiresFrozen3x3Stride1)
{
    Graph g;
    int x = g.input({1, 4, 8, 8}, "x");
    int w_frozen = g.param({4, 4, 3, 3}, "wf", false);
    int w_train = g.param({4, 4, 3, 3}, "wt", true);
    int w_5x5 = g.param({4, 4, 5, 5}, "w5", false);
    Attrs a1;
    a1.set("stride", static_cast<int64_t>(1));
    a1.set("pad", static_cast<int64_t>(1));
    int c_ok = g.add(OpKind::Conv2d, {x, w_frozen}, a1);
    int c_train = g.add(OpKind::Conv2d, {x, w_train}, a1);
    Attrs a2;
    a2.set("stride", static_cast<int64_t>(1));
    a2.set("pad", static_cast<int64_t>(2));
    int c_5x5 = g.add(OpKind::Conv2d, {x, w_5x5}, std::move(a2));
    Attrs a3;
    a3.set("stride", static_cast<int64_t>(2));
    a3.set("pad", static_cast<int64_t>(1));
    int c_s2 = g.add(OpKind::Conv2d, {x, w_frozen}, std::move(a3));
    g.markOutput(c_ok);
    g.markOutput(c_train);
    g.markOutput(c_5x5);
    g.markOutput(c_s2);
    PassStats stats;
    auto variants = switchBackends(g, BackendOptions{}, &stats);
    EXPECT_EQ(variants[c_ok], "winograd");
    // The rest lower to the bounded im2col GEMM instead.
    EXPECT_EQ(variants[c_train], "im2col");
    EXPECT_EQ(variants[c_5x5], "im2col");
    EXPECT_EQ(variants[c_s2], "im2col");
    EXPECT_EQ(stats.winogradBound, 1);
    EXPECT_EQ(stats.im2colBound, 3);
}

TEST(BackendSwitch, EveryConvBindsIm2colAtAnySize)
{
    // Pointwise or spatial, fused or not, at 16 outputs per image:
    // every non-Winograd conv binds "im2col". A pointwise conv reads
    // its input in place; a spatial one unfolds one bounded column
    // panel at a time.
    Graph g;
    int x = g.input({1, 4, 4, 4}, "x");
    int w_pw = g.param({4, 4, 1, 1}, "wp", true);
    int w_3x3 = g.param({4, 4, 3, 3}, "w3", true);
    int bias = g.param({4, 1, 1}, "b", true);
    Attrs pw;
    pw.set("stride", static_cast<int64_t>(1));
    pw.set("pad", static_cast<int64_t>(0));
    int c_pw = g.add(OpKind::Conv2d, {x, w_pw}, pw);
    Attrs fa = pw;
    fa.set("act", static_cast<int64_t>(kActRelu));
    int f_pw = g.add(OpKind::ConvBiasAct, {x, w_pw, bias}, std::move(fa));
    Attrs a3;
    a3.set("stride", static_cast<int64_t>(1));
    a3.set("pad", static_cast<int64_t>(1));
    int c_3x3 = g.add(OpKind::Conv2d, {x, w_3x3}, a3);
    Attrs f3 = a3;
    f3.set("act", static_cast<int64_t>(kActRelu));
    int f_3x3 =
        g.add(OpKind::ConvBiasAct, {x, w_3x3, bias}, std::move(f3));
    for (int id : {c_pw, f_pw, c_3x3, f_3x3})
        g.markOutput(id);
    PassStats stats;
    auto variants = switchBackends(g, BackendOptions{}, &stats);
    for (int id : {c_pw, f_pw, c_3x3, f_3x3})
        EXPECT_EQ(variants[id], "im2col") << "node " << id;
    EXPECT_EQ(stats.im2colBound, 4);
    // Read in place: no column buffer.
    EXPECT_EQ(kernelWorkspace(g, g.node(c_pw), "im2col").bytesPerShard, 0);
    EXPECT_EQ(kernelWorkspace(g, g.node(f_pw), "im2col").bytesPerShard, 0);
    // K = 4*3*3 rows by min(16 outputs, panel) columns.
    EXPECT_EQ(kernelWorkspace(g, g.node(c_3x3), "im2col").bytesPerShard,
              4 * 3 * 3 * 16 * 4);

    BackendOptions off;
    off.enableBlocked = false;
    auto none = switchBackends(g, off);
    for (int id : {c_pw, f_pw, c_3x3, f_3x3})
        EXPECT_EQ(none[id], "");
}

TEST(BackendSwitch, PointwiseConvGradsBindIm2col)
{
    // The input and weight gradients of a pointwise conv are GEMMs and
    // bind "im2col"; a spatial conv's keep the direct loops.
    Graph g;
    int x = g.input({2, 4, 5, 5}, "x");
    int dy = g.input({2, 6, 5, 5}, "dy");
    int w_pw = g.param({6, 4, 1, 1}, "wp", true);
    int w_3x3 = g.param({6, 4, 3, 3}, "w3", true);
    auto attrs = [](int64_t pad, Shape wshape, int64_t limit) {
        Attrs a;
        a.set("stride", static_cast<int64_t>(1));
        a.set("pad", pad);
        a.set("xshape", Shape{2, 4, 5, 5});
        a.set("wshape", std::move(wshape));
        if (limit > 0)
            a.set("limitCo", limit);
        return a;
    };
    int dx_pw = g.add(OpKind::Conv2dBwdInput, {w_pw, dy},
                      attrs(0, {6, 4, 1, 1}, 0));
    int dw_pw = g.add(OpKind::Conv2dBwdWeight, {x, dy},
                      attrs(0, {6, 4, 1, 1}, 3));
    int dx_3x3 = g.add(OpKind::Conv2dBwdInput, {w_3x3, dy},
                       attrs(1, {6, 4, 3, 3}, 0));
    int dw_3x3 = g.add(OpKind::Conv2dBwdWeight, {x, dy},
                       attrs(1, {6, 4, 3, 3}, 0));
    for (int id : {dx_pw, dw_pw, dx_3x3, dw_3x3})
        g.markOutput(id);
    PassStats stats;
    auto variants = switchBackends(g, BackendOptions{}, &stats);
    EXPECT_EQ(variants[dx_pw], "im2col");
    EXPECT_EQ(variants[dw_pw], "im2col");
    EXPECT_EQ(variants[dx_3x3], "");
    EXPECT_EQ(variants[dw_3x3], "");
    EXPECT_EQ(stats.im2colBound, 2);
    // The weight gradient packs X^T panels: min(25, 48) x min(4, 48).
    EXPECT_EQ(kernelWorkspace(g, g.node(dw_pw), "im2col").bytesPerShard,
              25 * 4 * 4);
    EXPECT_EQ(kernelWorkspace(g, g.node(dx_pw), "im2col").bytesPerShard, 0);

    BackendOptions off;
    off.enableBlocked = false;
    auto none = switchBackends(g, off);
    EXPECT_EQ(none[dx_pw], "");
    EXPECT_EQ(none[dw_pw], "");
}

TEST(LiveSet, TracksThroughChains)
{
    Graph g;
    int x = g.input({4}, "x");
    int a = g.add(OpKind::Relu, {x});
    int b = g.add(OpKind::Gelu, {a});
    int dead = g.add(OpKind::Silu, {x});
    (void)dead;
    g.markOutput(b);
    auto live = liveSet(g);
    EXPECT_TRUE(live[x]);
    EXPECT_TRUE(live[a]);
    EXPECT_TRUE(live[b]);
    EXPECT_FALSE(live[dead]);
}

} // namespace
} // namespace pe
