/**
 * @file
 * End-to-end tests of the compile pipeline: real training to
 * convergence, parity between compiled and eager execution, sparse
 * schemes, and the compile report's invariants.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <optional>

#include "baseline/eager.h"
#include "data/synthetic.h"
#include "engine/engine.h"
#include "frontend/builder.h"
#include "frontend/models.h"
#include "ir/serialize.h"
#include "kernels/kernel.h"
#include "testutil.h"

namespace pe {
namespace {

/** Small MLP classifier on separable 2-D data. */
struct MlpSetup {
    Graph g;
    Rng rng{7};
    std::shared_ptr<ParamStore> store = std::make_shared<ParamStore>();
    int x, y, logits, loss;

    MlpSetup()
    {
        NetBuilder b(g, rng, store.get());
        x = b.input({16, 2}, "x");
        int h = b.linear(x, 16, "l1");
        h = b.relu(h);
        h = b.linear(h, 16, "l2");
        h = b.relu(h);
        logits = b.linear(h, 2, "head");
        y = b.input({16}, "y");
        loss = b.crossEntropy(logits, y);
    }

    /** XOR-ish quadrant task: label = sign(x0 * x1). */
    Batch
    batch(Rng &r)
    {
        Batch out;
        out.x = Tensor({16, 2});
        out.y = Tensor({16});
        for (int i = 0; i < 16; ++i) {
            float a = r.uniform(-1, 1), c = r.uniform(-1, 1);
            out.x[i * 2] = a;
            out.x[i * 2 + 1] = c;
            out.y[i] = a * c > 0 ? 1.0f : 0.0f;
        }
        return out;
    }
};

TEST(Engine, MlpTrainsToLowLoss)
{
    MlpSetup s;
    CompileOptions opt;
    opt.optim = OptimConfig::adam(0.01);
    auto prog = compileTraining(s.g, s.loss, SparseUpdateScheme::full(),
                                opt, s.store);
    Rng r(11);
    float first = 0, last = 0;
    for (int step = 0; step < 300; ++step) {
        Batch b = s.batch(r);
        float l = prog.trainStep({{"x", b.x}, {"y", b.y}});
        if (step == 0)
            first = l;
        last = l;
    }
    EXPECT_GT(first, 0.5f);
    EXPECT_LT(last, 0.25f) << "training failed to converge";
}

TEST(Engine, CompiledMatchesEagerLossTrajectory)
{
    // Same init, same data: the compiled engine and the eager
    // baseline must produce the same losses step by step (both run
    // plain SGD full-BP).
    MlpSetup s1, s2; // identical seeds -> identical init
    CompileOptions opt;
    opt.optim = OptimConfig::sgd(0.05);
    auto prog = compileTraining(s1.g, s1.loss,
                                SparseUpdateScheme::full(), opt,
                                s1.store);
    EagerEngine eager(s2.g, s2.loss, s2.store, OptimConfig::sgd(0.05));

    Rng r1(3), r2(3);
    for (int step = 0; step < 20; ++step) {
        Batch b1 = s1.batch(r1);
        Batch b2 = s2.batch(r2);
        float lc = prog.trainStep({{"x", b1.x}, {"y", b1.y}});
        float le = eager.trainStep({{"x", b2.x}, {"y", b2.y}});
        EXPECT_NEAR(lc, le, 2e-3f) << "diverged at step " << step;
    }
}

TEST(Engine, BiasOnlyUpdatesOnlyBiases)
{
    MlpSetup s;
    Tensor w_before = s.store->get("l1.weight").clone();
    Tensor b_before = s.store->get("l1.bias").clone();

    CompileOptions opt;
    opt.optim = OptimConfig::sgd(0.1);
    SparseUpdateScheme scheme = SparseUpdateScheme::biasOnly();
    auto prog = compileTraining(s.g, s.loss, scheme, opt, s.store);
    Rng r(5);
    for (int step = 0; step < 5; ++step) {
        Batch b = s.batch(r);
        prog.trainStep({{"x", b.x}, {"y", b.y}});
    }
    EXPECT_TRUE(allClose(s.store->get("l1.weight"), w_before))
        << "frozen weight moved";
    EXPECT_GT(maxAbsDiff(s.store->get("l1.bias"), b_before), 0.0f)
        << "trainable bias did not move";
}

TEST(Engine, SparsePruningShrinksGraphAndMemory)
{
    Rng rng(1);
    VisionConfig cfg;
    cfg.batch = 2;
    cfg.resolution = 16;
    cfg.blocks = 6;
    ModelSpec full_model = buildMcuNet(cfg, rng, nullptr);

    CompileOptions opt;
    CompiledGraph full = compileGraphOnly(
        full_model.graph, full_model.loss, SparseUpdateScheme::full(),
        opt);
    CompiledGraph sparse = compileGraphOnly(
        full_model.graph, full_model.loss,
        cnnSparseScheme(full_model, 2, 2), opt);

    EXPECT_LT(sparse.report.backwardNodes, full.report.backwardNodes);
    EXPECT_LT(sparse.report.arenaBytes, full.report.arenaBytes);
    EXPECT_LT(sparse.report.flopsPerStep, full.report.flopsPerStep);
    EXPECT_LT(sparse.report.totalBytes, full.report.totalBytes);
}

TEST(Engine, ReorderingReducesArenaMemory)
{
    Rng rng(1);
    VisionConfig cfg;
    cfg.batch = 4;
    cfg.resolution = 16;
    cfg.blocks = 5;
    ModelSpec m = buildMcuNet(cfg, rng, nullptr);
    CompileOptions opt;
    CompiledGraph c = compileGraphOnly(m.graph, m.loss,
                                       SparseUpdateScheme::full(), opt);
    EXPECT_LT(c.report.arenaBytes, c.report.arenaBytesNoReorder)
        << "memory-aware reordering should beat creation order";
}

TEST(Engine, FusionPreservesTrainingSemantics)
{
    // Loss trajectories with and without fusion must match exactly:
    // fusion is functional-preserving.
    MlpSetup s1, s2;
    CompileOptions fused, plain;
    fused.optim = plain.optim = OptimConfig::sgd(0.05);
    plain.fuse = false;
    auto p1 = compileTraining(s1.g, s1.loss, SparseUpdateScheme::full(),
                              fused, s1.store);
    auto p2 = compileTraining(s2.g, s2.loss, SparseUpdateScheme::full(),
                              plain, s2.store);
    EXPECT_GT(p1.report().fusions, 0);
    Rng r1(3), r2(3);
    for (int step = 0; step < 10; ++step) {
        Batch b1 = s1.batch(r1);
        Batch b2 = s2.batch(r2);
        float l1 = p1.trainStep({{"x", b1.x}, {"y", b1.y}});
        float l2 = p2.trainStep({{"x", b2.x}, {"y", b2.y}});
        EXPECT_NEAR(l1, l2, 1e-4f);
    }
}

TEST(Engine, ReorderingPreservesTrainingSemantics)
{
    MlpSetup s1, s2;
    CompileOptions a, b;
    a.optim = b.optim = OptimConfig::momentumSgd(0.03);
    b.reorder = false;
    auto p1 = compileTraining(s1.g, s1.loss, SparseUpdateScheme::full(),
                              a, s1.store);
    auto p2 = compileTraining(s2.g, s2.loss, SparseUpdateScheme::full(),
                              b, s2.store);
    Rng r1(3), r2(3);
    for (int step = 0; step < 10; ++step) {
        Batch b1 = s1.batch(r1);
        Batch b2 = s2.batch(r2);
        float l1 = p1.trainStep({{"x", b1.x}, {"y", b1.y}});
        float l2 = p2.trainStep({{"x", b2.x}, {"y", b2.y}});
        EXPECT_NEAR(l1, l2, 1e-4f);
    }
}

TEST(Engine, InferenceSharesTrainedWeights)
{
    MlpSetup s;
    CompileOptions opt;
    opt.optim = OptimConfig::adam(0.01);
    auto prog = compileTraining(s.g, s.loss, SparseUpdateScheme::full(),
                                opt, s.store);
    Rng r(11);
    for (int step = 0; step < 200; ++step) {
        Batch b = s.batch(r);
        prog.trainStep({{"x", b.x}, {"y", b.y}});
    }
    auto infer = compileInference(s.g, {s.logits}, opt, s.store);
    Batch b = s.batch(r);
    Tensor logits = infer.run({{"x", b.x}})[0];
    int correct = 0;
    for (int i = 0; i < 16; ++i) {
        int pred = logits[i * 2 + 1] > logits[i * 2] ? 1 : 0;
        if (pred == static_cast<int>(b.y[i]))
            ++correct;
    }
    EXPECT_GE(correct, 12) << "trained classifier should beat chance";
}

TEST(Engine, InferenceHonoursTheReorderOption)
{
    // Inference compiles share training's schedule rule: reorder =
    // false keeps creation order, and the natural-order arena is
    // always reported as the ablation number.
    Rng rng(1);
    VisionConfig cfg;
    cfg.batch = 2;
    cfg.resolution = 16;
    cfg.blocks = 3;
    auto store = std::make_shared<ParamStore>();
    ModelSpec m = buildMcuNet(cfg, rng, store.get());
    CompileOptions natural;
    natural.reorder = false;
    InferenceProgram plain =
        compileInference(m.graph, {m.logits}, natural, store);
    EXPECT_EQ(plain.executor().order(), naturalOrder(plain.graph()));
    EXPECT_EQ(plain.report().arenaBytesNoReorder,
              plain.report().arenaBytes);

    InferenceProgram dflt =
        compileInference(m.graph, {m.logits}, CompileOptions{}, store);
    EXPECT_GT(dflt.report().arenaBytesNoReorder, 0);
    EXPECT_LE(dflt.report().arenaBytes,
              dflt.report().arenaBytesNoReorder);

    Rng xr(2);
    Tensor x = Tensor::randn({2, 3, 16, 16}, xr);
    Tensor a = plain.run({{"x", x}})[0];
    Tensor b = dflt.run({{"x", x}})[0];
    ASSERT_EQ(a.shape(), b.shape());
    EXPECT_EQ(std::memcmp(a.data(), b.data(),
                          sizeof(float) * static_cast<size_t>(a.size())),
              0);
}

TEST(Engine, ChannelSparseTrainsAndRestUnchanged)
{
    Rng rng(2);
    auto store = std::make_shared<ParamStore>();
    VisionConfig cfg;
    cfg.batch = 4;
    cfg.resolution = 8;
    cfg.blocks = 2;
    ModelSpec m = buildMcuNet(cfg, rng, store.get());

    SparseUpdateScheme scheme = SparseUpdateScheme::frozen();
    scheme.set("b1.conv1.weight", TensorRule{true, 0.5});
    scheme.updatePrefix("head.");
    scheme.updateBiasPrefix("head.");

    CompileOptions opt;
    opt.optim = OptimConfig::sgd(0.1);
    Tensor before = store->get("b1.conv1.weight").clone();
    auto prog = compileTraining(m.graph, m.loss, scheme, opt, store);

    SyntheticVision task = SyntheticVision::pretrain(3, 8);
    Rng r(9);
    for (int i = 0; i < 3; ++i) {
        Batch b = task.sample(4, r);
        prog.trainStep({{"x", b.x}, {"y", b.y}});
    }
    const Tensor &after = store->get("b1.conv1.weight");
    const Shape &ws = after.shape();
    int64_t half = ws[0] / 2 + (ws[0] % 2);
    int64_t per_ch = ws[1] * ws[2] * ws[3];
    float updated = 0, frozen = 0;
    for (int64_t i = 0; i < after.size(); ++i) {
        float d = std::fabs(after[i] - before[i]);
        if (i < half * per_ch)
            updated += d;
        else
            frozen += d;
    }
    EXPECT_GT(updated, 0.0f) << "first-half channels should update";
    EXPECT_EQ(frozen, 0.0f) << "second-half channels must stay frozen";
}

TEST(Engine, LionAndAdamConverge)
{
    for (auto kind : {OptimKind::Adam, OptimKind::Lion}) {
        MlpSetup s;
        CompileOptions opt;
        opt.optim = kind == OptimKind::Adam ? OptimConfig::adam(0.01)
                                            : OptimConfig::lion(0.003);
        auto prog = compileTraining(s.g, s.loss,
                                    SparseUpdateScheme::full(), opt,
                                    s.store);
        Rng r(11);
        float last = 0;
        for (int step = 0; step < 250; ++step) {
            Batch b = s.batch(r);
            last = prog.trainStep({{"x", b.x}, {"y", b.y}});
        }
        EXPECT_LT(last, 0.35f) << "optimizer "
                               << static_cast<int>(kind);
    }
}

TEST(Engine, WinogradBindsOnlyFrozenConvs)
{
    Rng rng(1);
    VisionConfig cfg;
    cfg.batch = 1;
    cfg.resolution = 16;
    cfg.blocks = 4;
    ModelSpec m = buildResNet(cfg, rng, nullptr);
    CompileOptions opt;
    CompiledGraph sparse = compileGraphOnly(
        m.graph, m.loss, cnnSparseScheme(m, 2, 2), opt);
    EXPECT_GT(sparse.report.backend.winogradBound, 0)
        << "frozen 3x3 convs should bind to Winograd";
    CompiledGraph full = compileGraphOnly(m.graph, m.loss,
                                          SparseUpdateScheme::full(),
                                          opt);
    EXPECT_EQ(full.report.backend.winogradBound, 0)
        << "trainable convs must not use cached Winograd transforms";
}

TEST(Engine, BertFusedGemmsReachTheBlockedKernel)
{
    // The default BERT proxy under full BP fuses its projection and
    // FFN layers into MatMulBiasAct. Each one binds "blocked" like a
    // MatMul, whatever its size; none is left on the naive "" kernel.
    Rng rng(1);
    ModelSpec m = buildBert(NlpConfig{}, rng, nullptr);
    CompiledGraph cg = compileGraphOnly(
        m.graph, m.loss, SparseUpdateScheme::full(), CompileOptions{});
    int fused = 0, naive = 0;
    for (const Node &n : cg.graph.nodes()) {
        if (n.op != OpKind::MatMulBiasAct)
            continue;
        ++fused;
        naive += cg.artifact.variants[n.id].empty();
    }
    EXPECT_GT(fused, 0);
    EXPECT_EQ(naive, 0);
}

TEST(Engine, SparseMcuNetConvsRunAsIm2colGemms)
{
    // The sparse-BP MCUNet proxy: every conv (the spatial stem
    // included) binds the im2col GEMM, as do the input and weight
    // gradients of its pointwise convs; the SIMD tier then upgrades
    // them all, and the losses still match the scalar tier and the
    // eager reference.
    VisionConfig cfg;
    cfg.batch = 2;
    cfg.resolution = 16;
    cfg.width = 0.5;
    cfg.blocks = 5;
    CompileOptions opt;
    opt.optim = OptimConfig::sgd(1e-3);
    opt.numThreads = 1;
    auto compile = [&](bool scalar) {
        auto store = std::make_shared<ParamStore>();
        Rng rng(1);
        ModelSpec m = buildMcuNet(cfg, rng, store.get());
        std::optional<test::TierOverride> pin;
        if (scalar)
            pin.emplace(SimdTier::Scalar);
        return compileTraining(m.graph, m.loss,
                               cnnSparseScheme(m, 3, 2), opt, store);
    };
    TrainingProgram prog = compile(false);
    TrainingProgram scalar = compile(true);

    const Graph &pg = prog.graph();
    int convs = 0, spatial = 0, grads = 0;
    for (const Node &n : pg.nodes()) {
        if (n.op == OpKind::Conv2d || n.op == OpKind::ConvBiasAct) {
            ++convs;
            spatial += !isPointwiseConv(pg.node(n.inputs[1]).shape,
                                        n.attrs);
        } else if (n.op == OpKind::Conv2dBwdInput) {
            grads += isPointwiseConv(pg.node(n.inputs[0]).shape, n.attrs);
        } else if (n.op == OpKind::Conv2dBwdWeight) {
            grads += isPointwiseConv(n.shape, n.attrs);
        }
    }
    EXPECT_GT(spatial, 0);
    EXPECT_GT(grads, 0);
    EXPECT_EQ(prog.report().backend.winogradBound, 0);
    EXPECT_EQ(prog.report().backend.im2colBound, convs + grads);
    // On a SIMD host (AVX2 or NEON) each of them runs the tier's
    // im2col variant.
    if (hostSimdTier() != SimdTier::Scalar)
        EXPECT_GE(prog.report().simdSteps, convs + grads);
    EXPECT_EQ(scalar.report().simdSteps, 0);

    auto store = std::make_shared<ParamStore>();
    Rng rng(1);
    ModelSpec m = buildMcuNet(cfg, rng, store.get());
    SparseUpdateScheme scheme = cnnSparseScheme(m, 3, 2);
    std::unordered_map<std::string, bool> mask;
    for (int id : m.graph.paramIds()) {
        const std::string &name = m.graph.node(id).name;
        mask[name] = scheme.ruleFor(name).update;
    }
    EagerEngine eager(m.graph, m.loss, store, opt.optim, &mask);

    Rng data(9);
    for (int step = 0; step < 3; ++step) {
        Tensor x = Tensor::randn({cfg.batch, cfg.channels,
                                  cfg.resolution, cfg.resolution},
                                 data);
        Tensor y({cfg.batch});
        for (int64_t i = 0; i < cfg.batch; ++i)
            y[i] = static_cast<float>(data.randint(cfg.numClasses));
        std::unordered_map<std::string, Tensor> f = {{"x", x},
                                                     {"y", y}};
        float lc = prog.trainStep(f);
        float ls = scalar.trainStep(f);
        float le = eager.trainStep(f);
        EXPECT_LE(std::fabs(lc - ls), 1e-5f * std::fabs(ls))
            << "tier diverged at step " << step;
        EXPECT_NEAR(lc, le, 2e-3f) << "diverged at step " << step;
    }
}

TEST(Engine, MaskedEagerSparseGetsNoComputeSavings)
{
    // The motivating claim: frameworks that mask gradients still pay
    // for all of them; PockEngine's pruned graph does not.
    MlpSetup s_full, s_mask;
    EagerEngine full(s_full.g, s_full.loss, s_full.store,
                     OptimConfig::sgd(0.05));
    std::unordered_map<std::string, bool> mask = {
        {"l1.weight", false}, {"l1.bias", false},
        {"l2.weight", false}, {"l2.bias", false},
        {"head.weight", true}, {"head.bias", true},
    };
    EagerEngine masked(s_mask.g, s_mask.loss, s_mask.store,
                       OptimConfig::sgd(0.05), &mask);
    Rng r(3);
    Batch b = s_full.batch(r);
    full.trainStep({{"x", b.x}, {"y", b.y}});
    masked.trainStep({{"x", b.x}, {"y", b.y}});
    EXPECT_EQ(full.stats().opsExecuted, masked.stats().opsExecuted)
        << "masking computes every gradient anyway";

    // PockEngine with the same scheme executes strictly fewer ops.
    SparseUpdateScheme scheme = SparseUpdateScheme::frozen();
    scheme.updatePrefix("head.");
    scheme.updateBiasPrefix("head.");
    CompileOptions opt;
    opt.optim = OptimConfig::sgd(0.05);
    auto prog = compileTraining(s_full.g, s_full.loss, scheme, opt,
                                std::make_shared<ParamStore>());
    auto full_prog = compileTraining(s_full.g, s_full.loss,
                                     SparseUpdateScheme::full(), opt,
                                     std::make_shared<ParamStore>());
    EXPECT_LT(prog.report().kernelSteps,
              full_prog.report().kernelSteps);
}

TEST(Engine, GradientAccumulationMatchesSingleLargeStep)
{
    // N accumulation micro-steps on the SAME batch must equal one
    // plain SGD step on that batch (grads are scaled by 1/N and
    // summed N times).
    MlpSetup s_acc, s_ref;
    CompileOptions acc_opt, ref_opt;
    acc_opt.optim = ref_opt.optim = OptimConfig::sgd(0.05);
    acc_opt.gradAccumSteps = 4;
    auto acc = compileTraining(s_acc.g, s_acc.loss,
                               SparseUpdateScheme::full(), acc_opt,
                               s_acc.store);
    auto ref = compileTraining(s_ref.g, s_ref.loss,
                               SparseUpdateScheme::full(), ref_opt,
                               s_ref.store);
    Rng r(3);
    Batch b = s_acc.batch(r);
    for (int micro = 0; micro < 4; ++micro)
        acc.trainStep({{"x", b.x}, {"y", b.y}});
    ref.trainStep({{"x", b.x}, {"y", b.y}});
    EXPECT_LT(maxAbsDiff(s_acc.store->get("l1.weight"),
                         s_ref.store->get("l1.weight")),
              1e-5f);
    EXPECT_LT(maxAbsDiff(s_acc.store->get("head.bias"),
                         s_ref.store->get("head.bias")),
              1e-5f);
}

TEST(Engine, GradientAccumulationOnlyAppliesEveryNth)
{
    MlpSetup s;
    CompileOptions opt;
    opt.optim = OptimConfig::sgd(0.1);
    opt.gradAccumSteps = 3;
    Tensor before = s.store->get("l1.weight").clone();
    auto prog = compileTraining(s.g, s.loss, SparseUpdateScheme::full(),
                                opt, s.store);
    Rng r(3);
    Batch b = s.batch(r);
    prog.trainStep({{"x", b.x}, {"y", b.y}});
    prog.trainStep({{"x", b.x}, {"y", b.y}});
    EXPECT_TRUE(allClose(s.store->get("l1.weight"), before))
        << "no update before the N-th micro-step";
    prog.trainStep({{"x", b.x}, {"y", b.y}});
    EXPECT_GT(maxAbsDiff(s.store->get("l1.weight"), before), 0.0f);
    // Accumulation buffers must be zeroed after the apply.
    EXPECT_DOUBLE_EQ(s.store->get("l1.weight.gacc").meanAbs(), 0.0);
}

TEST(Engine, GraphRoundTripsThroughJsonAndStillCompiles)
{
    MlpSetup s;
    std::string json = graphToJson(s.g);
    Graph loaded = graphFromJson(json);
    ASSERT_EQ(loaded.numNodes(), s.g.numNodes());
    CompileOptions opt;
    opt.optim = OptimConfig::sgd(0.05);
    auto prog = compileTraining(loaded, s.loss,
                                SparseUpdateScheme::full(), opt,
                                s.store);
    Rng r(3);
    Batch b = s.batch(r);
    float loss = prog.trainStep({{"x", b.x}, {"y", b.y}});
    EXPECT_GT(loss, 0.0f);
    EXPECT_TRUE(std::isfinite(loss));
}

} // namespace
} // namespace pe
