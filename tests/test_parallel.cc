/**
 * @file
 * Parallel-runtime tests.
 *
 * Three layers of guarantees:
 *  1. ThreadPool primitives: full index coverage, barrier semantics.
 *  2. Kernel partition contract: for every splittable kernel, running
 *     the shards of a split [0,n) — sequentially or on the pool —
 *     produces bit-identical output to the unsharded call (shards
 *     write disjoint ranges and per-element accumulation order is
 *     preserved by construction).
 *  3. End-to-end: compiled training (MLP and a ConvNet) produces the
 *     same loss trajectory at numThreads=4 as at numThreads=1 within
 *     1e-5, and numThreads=1 is the same executor behavior as the
 *     default options.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <vector>

#include "data/synthetic.h"
#include "engine/engine.h"
#include "frontend/builder.h"
#include "frontend/models.h"
#include "hw/threadpool.h"
#include "kernels/kernel.h"
#include "testutil.h"

namespace pe {
namespace {

// ---- ThreadPool ------------------------------------------------------

TEST(ThreadPool, ParallelForCoversEveryIndexOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.numThreads(), 4);
    std::vector<std::atomic<int>> hits(1000);
    for (auto &h : hits)
        h = 0;
    pool.parallelFor(1000, 1, [&](int64_t b, int64_t e) {
        for (int64_t i = b; i < e; ++i)
            hits[i]++;
    });
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, DispatchIsABarrier)
{
    ThreadPool pool(4);
    for (int rep = 0; rep < 50; ++rep) {
        std::atomic<int> done{0};
        pool.dispatch(8, [&](int) { done++; });
        // dispatch() returning means all tasks finished.
        EXPECT_EQ(done.load(), 8);
    }
}

TEST(ThreadPool, GrainLimitsShardCount)
{
    ThreadPool pool(4);
    std::atomic<int> calls{0};
    pool.parallelFor(10, 8, [&](int64_t b, int64_t e) {
        calls++;
        EXPECT_EQ(b, 0);
        EXPECT_EQ(e, 10);
    });
    EXPECT_EQ(calls.load(), 1) << "10 elems at grain 8 must not split";
}

TEST(ThreadPool, SerialPoolRunsInline)
{
    ThreadPool pool(1);
    int64_t sum = 0; // no atomics needed: everything runs on this thread
    pool.parallelFor(100, 1, [&](int64_t b, int64_t e) {
        for (int64_t i = b; i < e; ++i)
            sum += i;
    });
    EXPECT_EQ(sum, 99 * 100 / 2);
}

// ---- Kernel partition contract ---------------------------------------

/** A node plus materialized input tensors, ready to invoke. */
struct KernelCase {
    Graph g;
    int node = -1;
    std::vector<Tensor> inputs;

    KernelCase(OpKind op, const std::vector<Shape> &in_shapes, Attrs a,
               uint64_t seed = 42, const std::vector<int> &int_inputs = {})
    {
        Rng rng(seed);
        std::vector<int> ids;
        for (size_t i = 0; i < in_shapes.size(); ++i)
            ids.push_back(g.input(in_shapes[i], "in" + std::to_string(i)));
        node = g.add(op, ids, std::move(a));
        for (size_t i = 0; i < in_shapes.size(); ++i) {
            bool is_int =
                std::find(int_inputs.begin(), int_inputs.end(),
                          static_cast<int>(i)) != int_inputs.end();
            Tensor t = Tensor::randn(in_shapes[i], rng);
            if (is_int) {
                for (int64_t j = 0; j < t.size(); ++j)
                    t[j] = static_cast<float>(
                        static_cast<int64_t>(std::fabs(t[j]) * 100) %
                        in_shapes[i].back());
            }
            inputs.push_back(std::move(t));
        }
    }

    KernelCtx
    ctxFor(std::vector<Tensor> &ins, Tensor &out) const
    {
        KernelCtx c;
        const Node &n = g.node(node);
        c.node = &n;
        for (size_t i = 0; i < ins.size(); ++i) {
            c.in.push_back(ins[i].data());
            c.inShapes.push_back(&g.node(n.inputs[i]).shape);
        }
        c.out = out.data();
        c.outShape = &n.shape;
        c.step = 3; // matters for Adam bias correction
        return c;
    }
};

/**
 * Contract check: unsharded == sequential shards == pooled shards,
 * bit for bit. In-place kernels mutate their inputs, so each variant
 * runs on a fresh clone of every buffer. Workspaces follow the
 * executor's Arena v2 contract: every shard gets its own private
 * instance.
 */
void
expectShardInvariant(const KernelCase &kc, const std::string &variant = "")
{
    const Node &node = kc.g.node(kc.node);
    KernelInfo info = lookupKernelInfo(node.op, variant);
    ASSERT_FALSE(info.fellBack);
    ASSERT_TRUE(info.part.splittable());
    size_t wsFloats = static_cast<size_t>(
        (kernelWorkspace(kc.g, node, variant).bytesPerShard + 3) / 4);

    auto clone_inputs = [&] {
        std::vector<Tensor> c;
        for (const Tensor &t : kc.inputs)
            c.push_back(t.clone());
        return c;
    };
    const Shape &os = kc.g.node(kc.node).shape;

    // Reference: one unsharded invocation.
    std::vector<Tensor> in_ref = clone_inputs();
    Tensor out_ref = Tensor::zeros(os);
    KernelCtx ref = kc.ctxFor(in_ref, out_ref);
    std::vector<float> ref_ws(wsFloats);
    if (!ref_ws.empty())
        ref.workspace = ref_ws.data();
    info.fn(ref);

    int64_t extent = info.part.extent(ref);
    ASSERT_GE(extent, 3) << "case too small to split three ways";

    // Sequential shards: deterministic disjointness check.
    {
        std::vector<Tensor> ins = clone_inputs();
        Tensor out = Tensor::zeros(os);
        KernelCtx base = kc.ctxFor(ins, out);
        int64_t cuts[4] = {0, extent / 3, 2 * extent / 3, extent};
        for (int s = 0; s < 3; ++s) {
            KernelCtx shard = base;
            shard.begin = cuts[s];
            shard.end = cuts[s + 1];
            std::vector<float> ws(wsFloats);
            if (!ws.empty())
                shard.workspace = ws.data();
            info.fn(shard);
        }
        EXPECT_EQ(std::memcmp(out.data(), out_ref.data(),
                              sizeof(float) * out.size()),
                  0)
            << "sequential shards differ from unsharded";
        for (size_t i = 0; i < ins.size(); ++i) {
            EXPECT_EQ(std::memcmp(ins[i].data(), in_ref[i].data(),
                                  sizeof(float) * ins[i].size()),
                      0)
                << "in-place input " << i << " differs";
        }
    }

    // Pooled shards, repeated: races would show up as flaky diffs.
    ThreadPool pool(4);
    for (int rep = 0; rep < 10; ++rep) {
        std::vector<Tensor> ins = clone_inputs();
        Tensor out = Tensor::zeros(os);
        KernelCtx base = kc.ctxFor(ins, out);
        pool.parallelFor(extent, 1, [&](int64_t b, int64_t e) {
            KernelCtx shard = base;
            shard.begin = b;
            shard.end = e;
            std::vector<float> ws(wsFloats);
            if (!ws.empty())
                shard.workspace = ws.data();
            info.fn(shard);
        });
        ASSERT_EQ(std::memcmp(out.data(), out_ref.data(),
                              sizeof(float) * out.size()),
                  0)
            << "pooled shards differ from unsharded (rep " << rep << ")";
    }
}

Attrs
convAttrs(int64_t stride, int64_t pad)
{
    Attrs a;
    a.set("stride", stride);
    a.set("pad", pad);
    return a;
}

TEST(KernelPartition, Elementwise)
{
    expectShardInvariant({OpKind::Add, {{6, 33}, {6, 33}}, {}});
    expectShardInvariant({OpKind::Add, {{6, 33}, {33}}, {}}); // bias bcast
    expectShardInvariant({OpKind::Mul, {{4, 1, 5}, {4, 7, 5}}, {}});
    expectShardInvariant({OpKind::Relu, {{201}}, {}});
    expectShardInvariant({OpKind::Gelu, {{201}}, {}});
    expectShardInvariant({OpKind::ReluGrad, {{201}, {201}}, {}});
    expectShardInvariant({OpKind::Identity, {{201}}, {}});
}

TEST(KernelPartition, MatMul)
{
    expectShardInvariant({OpKind::MatMul, {{13, 7}, {7, 9}}, {}});
    expectShardInvariant({OpKind::MatMul, {{13, 7}, {7, 9}}, {}},
                         "blocked");
    Attrs t;
    t.set("transB", static_cast<int64_t>(1));
    expectShardInvariant(
        {OpKind::MatMul, {{13, 7}, {9, 7}}, std::move(t)});
    expectShardInvariant(
        {OpKind::BatchMatMul, {{5, 4, 6}, {5, 6, 3}}, {}});
}

TEST(KernelPartition, Conv)
{
    expectShardInvariant(
        {OpKind::Conv2d, {{2, 3, 8, 8}, {4, 3, 3, 3}}, convAttrs(1, 1)});
    expectShardInvariant(
        {OpKind::DwConv2d, {{2, 4, 8, 8}, {4, 1, 3, 3}}, convAttrs(1, 1)});

    Attrs bi = convAttrs(1, 1);
    bi.set("xshape", std::vector<int64_t>{3, 3, 8, 8});
    expectShardInvariant({OpKind::Conv2dBwdInput,
                          {{4, 3, 3, 3}, {3, 4, 8, 8}},
                          std::move(bi)});

    Attrs bw = convAttrs(1, 1);
    bw.set("wshape", std::vector<int64_t>{4, 3, 3, 3});
    expectShardInvariant({OpKind::Conv2dBwdWeight,
                          {{2, 3, 8, 8}, {2, 4, 8, 8}},
                          std::move(bw)});

    // The bounded-panel im2col conv, and the pointwise gradients'
    // GEMM forms (the weight one under "limitCo").
    expectShardInvariant(
        {OpKind::Conv2d, {{3, 3, 9, 9}, {4, 3, 3, 3}}, convAttrs(2, 1)},
        "im2col");
    // The packed depthwise forms: (image, 8-channel block) shards,
    // a short last block, each shard packing into its own workspace;
    // and the int8 depthwise on the same body (int8 codes are any
    // bytes, so random floats serve as its operands).
    for (const std::string &v : test::variantAndTier(OpKind::DwConv2d, "packed")) {
        expectShardInvariant({OpKind::DwConv2d,
                              {{2, 20, 7, 7}, {20, 1, 3, 3}},
                              convAttrs(2, 1)},
                             v);
        Attrs db = convAttrs(1, 2);
        db.set("xshape", std::vector<int64_t>{2, 20, 6, 6});
        expectShardInvariant({OpKind::DwConv2dBwdInput,
                              {{20, 1, 5, 5}, {2, 20, 6, 6}},
                              std::move(db)},
                             v);
    }
    for (const std::string &v :
         test::variantAndTier(OpKind::QuantDwConv2d, "int8")) {
        Attrs q = convAttrs(1, 1);
        q.set("act", kActRelu);
        q.set("hasBias", static_cast<int64_t>(1));
        q.set("perChannel", static_cast<int64_t>(1));
        q.set("xScale", 0.02);
        q.set("xZp", static_cast<int64_t>(5));
        q.set("yScale", 0.05);
        expectShardInvariant({OpKind::QuantDwConv2d,
                              {{2, 20, 6, 6}, {20, 1, 3, 3}, {20, 1, 1},
                               {20}},
                              std::move(q)},
                             v);
    }
    // Winograd: each shard transforms the filters into its own
    // workspace.
    expectShardInvariant(
        {OpKind::Conv2d, {{2, 3, 8, 8}, {4, 3, 3, 3}}, convAttrs(1, 1)},
        "winograd");
    Attrs pi = convAttrs(1, 0);
    pi.set("xshape", std::vector<int64_t>{3, 5, 4, 4});
    expectShardInvariant({OpKind::Conv2dBwdInput,
                          {{6, 5, 1, 1}, {3, 6, 4, 4}},
                          std::move(pi)},
                         "im2col");
    Attrs pw = convAttrs(1, 0);
    pw.set("wshape", std::vector<int64_t>{6, 5, 1, 1});
    pw.set("limitCo", static_cast<int64_t>(4));
    expectShardInvariant({OpKind::Conv2dBwdWeight,
                          {{3, 5, 4, 4}, {3, 6, 4, 4}},
                          std::move(pw)},
                         "im2col");
}

TEST(KernelPartition, RowKernels)
{
    expectShardInvariant({OpKind::Softmax, {{9, 17}}, {}});
    expectShardInvariant({OpKind::SoftmaxGrad, {{9, 17}, {9, 17}}, {}});
    expectShardInvariant(
        {OpKind::LayerNorm, {{9, 33}, {33}, {33}}, {}});
    expectShardInvariant(
        {OpKind::LayerNormGradX, {{9, 33}, {33}, {9, 33}}, {}});
    expectShardInvariant({OpKind::RMSNorm, {{9, 33}, {33}}, {}});
    // Grad-gamma accumulates over rows and is registered serial.
    EXPECT_FALSE(lookupKernelInfo(OpKind::LayerNormGradGamma, "")
                     .part.splittable());
}

TEST(KernelPartition, Reduce)
{
    Attrs a0;
    a0.set("axes", std::vector<int64_t>{0});
    expectShardInvariant({OpKind::ReduceSum, {{7, 15}}, std::move(a0)});
    Attrs a1;
    a1.set("axes", std::vector<int64_t>{1});
    expectShardInvariant({OpKind::ReduceMean, {{15, 7}}, std::move(a1)});
    Attrs a2;
    a2.set("axes", std::vector<int64_t>{0, 2});
    expectShardInvariant({OpKind::ReduceSum, {{4, 9, 5}}, std::move(a2)});
    // A conv bias gradient: 13 slots, one full block of 8 and a
    // short one.
    Attrs a3;
    a3.set("axes", std::vector<int64_t>{0, 2, 3});
    expectShardInvariant(
        {OpKind::ReduceSum, {{3, 13, 3, 2}}, std::move(a3)});
}

TEST(KernelPartition, LossGradAndOptim)
{
    expectShardInvariant(
        {OpKind::CrossEntropyGrad, {{12, 5}, {12}}, {}, 42, {1}});
    expectShardInvariant({OpKind::MseGrad, {{101}, {101}}, {}});

    Attrs sgd;
    sgd.set("lr", 0.05);
    expectShardInvariant({OpKind::ApplySgd, {{77}, {77}}, std::move(sgd)});
    Attrs adam;
    adam.set("lr", 0.01);
    expectShardInvariant(
        {OpKind::ApplyAdam, {{77}, {77}, {77}, {77}}, std::move(adam)});
    expectShardInvariant({OpKind::AccumGrad, {{77}, {77}}, {}});
}

TEST(KernelPartition, FusedKernels)
{
    Attrs mb;
    mb.set("act", kActRelu);
    expectShardInvariant({OpKind::MatMulBiasAct, {{13, 7}, {7, 9}, {9}}, mb});
    // "blocked" with a row-major B: read in place, rows past the
    // 48-row tile and 48-wide panel, with no workspace.
    expectShardInvariant(
        {OpKind::MatMulBiasAct, {{61, 50}, {50, 53}, {53}}, mb},
        "blocked");
    // A short one (decode's M = 4) across several K and N panels.
    expectShardInvariant(
        {OpKind::MatMulBiasAct, {{4, 130}, {130, 100}, {100}}, mb},
        "blocked");
    // A transposed B: one packed B panel per shard.
    Attrs mbt = std::move(mb);
    mbt.set("transB", static_cast<int64_t>(1));
    expectShardInvariant(
        {OpKind::MatMulBiasAct, {{61, 50}, {53, 50}, {53}}, std::move(mbt)},
        "blocked");
    Attrs dw = convAttrs(2, 1);
    dw.set("act", kActGelu);
    for (const std::string &v :
         test::variantAndTier(OpKind::DwConvBiasAct, "packed")) {
        expectShardInvariant({OpKind::DwConvBiasAct,
                              {{2, 17, 9, 9}, {17, 1, 3, 3}, {17, 1, 1}},
                              dw},
                             v);
    }
    expectShardInvariant({OpKind::DwConvBiasAct,
                          {{2, 5, 9, 9}, {5, 1, 3, 3}, {5, 1, 1}},
                          std::move(dw)});
    Attrs cb = convAttrs(1, 1);
    cb.set("act", kActRelu);
    expectShardInvariant({OpKind::ConvBiasAct,
                          {{2, 3, 8, 8}, {4, 3, 3, 3}, {4, 1, 1}},
                          std::move(cb)});
    // Pointwise "im2col": shards over images, no column workspace.
    Attrs pw = convAttrs(1, 0);
    pw.set("act", kActRelu);
    expectShardInvariant({OpKind::ConvBiasAct,
                          {{3, 4, 5, 5}, {6, 4, 1, 1}, {6, 1, 1}},
                          std::move(pw)},
                         "im2col");
}

TEST(KernelPartition, FusedAttention)
{
    // (row, head) units: a prefill (L = 1, S = 5, H = 2), a decode
    // step (L = 4, S = 1, H = 4) and L > 1 with S > 1 (L = 3, S = 2,
    // H = 3), each unit scoring into its shard's own workspace row.
    // Each runs with a per-row [L*S, M] mask, a shared [S, M] mask and
    // none; in every other mask row the last two columns are hidden,
    // so the per-row bound moves across shard cuts.
    struct S {
        int64_t l, s, h, dh, m;
    };
    for (auto [l, s, h, dh, m] : {S{1, 5, 2, 7, 9}, S{4, 1, 4, 8, 13},
                                  S{3, 2, 3, 5, 6}}) {
        Attrs a;
        a.set("scale", 0.25);
        a.set("heads", h);
        for (int64_t maskRows : {l * s, s, int64_t{0}}) {
            std::vector<Shape> shapes = {
                {l * s, h * dh}, {l, m, h * dh}, {l, m, h * dh}};
            if (maskRows > 0)
                shapes.push_back({maskRows, m});
            KernelCase kc(OpKind::FusedAttention, shapes, a);
            for (int64_t r = 1; r < maskRows; r += 2)
                kc.inputs[3][r * m + m - 1] = kc.inputs[3][r * m + m - 2] =
                    kMaskedScore;
            SCOPED_TRACE("L" + std::to_string(l) + " S" +
                         std::to_string(s) + " mask rows " +
                         std::to_string(maskRows));
            for (const std::string &v :
                 test::variantAndTier(OpKind::FusedAttention, ""))
                expectShardInvariant(kc, v);
        }
    }
}

// ---- Fallback visibility ---------------------------------------------

TEST(KernelRegistry, UnknownVariantFallsBackVisibly)
{
    KernelInfo info = lookupKernelInfo(OpKind::MatMul, "no-such-backend");
    EXPECT_TRUE(info.fellBack);
    EXPECT_EQ(info.fn, lookupKernelInfo(OpKind::MatMul, "").fn);
    EXPECT_FALSE(lookupKernelInfo(OpKind::MatMul, "blocked").fellBack);
}

TEST(KernelRegistry, ExecutorCountsFallbacks)
{
    Graph g;
    Rng rng(1);
    ParamStore store;
    NetBuilder b(g, rng, &store);
    int x = b.input({4, 8}, "x");
    int h = b.linear(x, 8, "l1", /*bias=*/false);
    g.markOutput(h);

    std::vector<std::string> variants(g.numNodes());
    for (int id = 0; id < g.numNodes(); ++id) {
        if (g.node(id).op == OpKind::MatMul)
            variants[id] = "no-such-backend";
    }
    Executor ex(g, planProgram(g, variants), store);
    EXPECT_EQ(ex.fallbackCount(), 1);
    ASSERT_EQ(ex.fallbackKernels().size(), 1u);
    EXPECT_EQ(ex.fallbackKernels()[0], "MatMul/no-such-backend");
    // The breakdown format every report quotes: first-appearance
    // order, "label xN", comma-joined.
    EXPECT_EQ(countLabels(ex.fallbackKernels()),
              "MatMul/no-such-backend x1");
    EXPECT_EQ(countLabels({"b", "a", "b", "b"}), "b x3, a x1");
    EXPECT_EQ(countLabels({}), "");
}

// ---- End-to-end: thread count does not change training ---------------

struct MlpFixture {
    Graph g;
    Rng rng{7};
    std::shared_ptr<ParamStore> store = std::make_shared<ParamStore>();
    int loss = -1;

    MlpFixture()
    {
        NetBuilder b(g, rng, store.get());
        int x = b.input({16, 8}, "x");
        int h = b.relu(b.linear(x, 32, "l1"));
        h = b.gelu(b.linear(h, 32, "l2"));
        int logits = b.linear(h, 4, "head");
        int y = b.input({16}, "y");
        loss = b.crossEntropy(logits, y);
    }

    static Batch
    batch(Rng &r)
    {
        Batch out;
        out.x = Tensor({16, 8});
        out.y = Tensor({16});
        for (int i = 0; i < 16; ++i) {
            int cls = static_cast<int>(r.uniform(0, 3.999f));
            for (int j = 0; j < 8; ++j)
                out.x[i * 8 + j] = r.uniform(-1, 1) + (j % 4 == cls);
            out.y[i] = static_cast<float>(cls);
        }
        return out;
    }
};

std::vector<float>
mlpTrajectory(int num_threads, int steps)
{
    MlpFixture f;
    CompileOptions opt;
    opt.optim = OptimConfig::adam(0.01);
    opt.numThreads = num_threads;
    auto prog = compileTraining(f.g, f.loss, SparseUpdateScheme::full(),
                                opt, f.store);
    Rng r(11);
    std::vector<float> losses;
    for (int s = 0; s < steps; ++s) {
        Batch b = MlpFixture::batch(r);
        losses.push_back(prog.trainStep({{"x", b.x}, {"y", b.y}}));
    }
    return losses;
}

std::vector<float>
convTrajectory(int num_threads, int steps)
{
    Rng rng(3);
    auto store = std::make_shared<ParamStore>();
    VisionConfig vc;
    vc.batch = 4;
    vc.resolution = 16;
    ModelSpec m = buildMcuNet(vc, rng, store.get());
    CompileOptions opt;
    opt.optim = OptimConfig::sgd(0.05);
    opt.numThreads = num_threads;
    auto prog = compileTraining(m.graph, m.loss,
                                SparseUpdateScheme::full(), opt, store);
    SyntheticVision task = SyntheticVision::pretrain(3, 16);
    Rng r(5);
    std::vector<float> losses;
    for (int s = 0; s < steps; ++s) {
        Batch b = task.sample(4, r);
        losses.push_back(prog.trainStep({{"x", b.x}, {"y", b.y}}));
    }
    return losses;
}

TEST(ParallelEndToEnd, MlpLossTrajectoryMatches)
{
    std::vector<float> serial = mlpTrajectory(1, 30);
    std::vector<float> parallel = mlpTrajectory(4, 30);
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i)
        EXPECT_NEAR(serial[i], parallel[i], 1e-5f) << "step " << i;
    // And training must actually be learning, or the parity is vacuous.
    EXPECT_LT(serial.back(), serial.front());
}

TEST(ParallelEndToEnd, ConvNetLossTrajectoryMatches)
{
    std::vector<float> serial = convTrajectory(1, 10);
    std::vector<float> parallel = convTrajectory(4, 10);
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i)
        EXPECT_NEAR(serial[i], parallel[i], 1e-5f) << "step " << i;
}

TEST(ParallelEndToEnd, FourThreadPlanActuallyShards)
{
    MlpFixture f;
    CompileOptions opt;
    opt.numThreads = 4;
    auto prog = compileTraining(f.g, f.loss, SparseUpdateScheme::full(),
                                opt, f.store);
    EXPECT_GT(prog.executor().shardedSteps(), 0)
        << "4-thread launch plan degenerated to fully serial";

    MlpFixture f1;
    CompileOptions opt1; // numThreads defaults to 1
    auto prog1 = compileTraining(f1.g, f1.loss,
                                 SparseUpdateScheme::full(), opt1,
                                 f1.store);
    EXPECT_EQ(prog1.executor().shardedSteps(), 0)
        << "serial executor must not shard";
}

// ---- Batched inference -----------------------------------------------

TEST(ParallelEndToEnd, RunBatchMatchesRun)
{
    MlpFixture f;
    std::vector<int> outputs = {f.g.node(f.loss).inputs[0]}; // logits
    CompileOptions opt;
    opt.numThreads = 2;
    auto infer = compileInference(f.g, outputs, opt, f.store);

    Rng r(13);
    std::vector<std::unordered_map<std::string, Tensor>> feeds;
    for (int i = 0; i < 4; ++i)
        feeds.push_back({{"x", MlpFixture::batch(r).x}});

    auto batched = infer.runBatch(feeds);
    ASSERT_EQ(batched.size(), feeds.size());
    for (size_t i = 0; i < feeds.size(); ++i) {
        std::vector<Tensor> one = infer.run(feeds[i]);
        ASSERT_EQ(batched[i].size(), one.size());
        for (size_t j = 0; j < one.size(); ++j) {
            EXPECT_EQ(std::memcmp(batched[i][j].data(), one[j].data(),
                                  sizeof(float) * one[j].size()),
                      0)
                << "feed " << i << " output " << j;
        }
    }
}

} // namespace
} // namespace pe
