/**
 * @file
 * Property-style tests over randomized graphs: for arbitrary small
 * MLP/CNN topologies the compile pipeline must (1) produce gradients
 * matching finite differences, (2) plan non-overlapping memory under
 * any valid schedule, (3) keep fusion/reordering functional-
 * preserving, (4) round-trip through the serializer, and (5) train
 * random CNNs like the eager reference whichever kernels the backend
 * switch binds (the differential harness).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "baseline/eager.h"
#include "engine/engine.h"
#include "frontend/builder.h"
#include "ir/serialize.h"
#include "passes/passes.h"
#include "quant/quant.h"
#include "testutil.h"

namespace pe {
namespace {

/** Build a random smooth MLP (tanh/gelu/silu) with random widths. */
struct RandomNet {
    Graph g;
    ParamStore store;
    test::Feeds feeds;
    int loss = -1;
};

RandomNet
randomMlp(uint64_t seed)
{
    RandomNet net;
    Rng rng(seed);
    NetBuilder b(net.g, rng, &net.store);
    int64_t batch = 2 + rng.randint(3);
    int64_t width = 3 + rng.randint(5);
    int x = b.input({batch, width}, "x");
    net.feeds["x"] = Tensor::randn({batch, width}, rng, 0.5f);
    int h = x;
    int depth = 1 + static_cast<int>(rng.randint(3));
    for (int i = 0; i < depth; ++i) {
        int64_t next = 3 + rng.randint(5);
        h = b.linear(h, next, "l" + std::to_string(i));
        switch (rng.randint(3)) {
          case 0:
            h = net.g.add(OpKind::Tanh, {h});
            break;
          case 1:
            h = b.gelu(h);
            break;
          default:
            h = b.silu(h);
            break;
        }
        // Occasional residual when widths match.
        width = next;
    }
    Shape hs = net.g.node(h).shape;
    int t = b.input(hs, "t");
    net.feeds["t"] = Tensor::randn(hs, rng);
    net.loss = b.mse(h, t);
    return net;
}

class RandomGraphGrad : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(RandomGraphGrad, AutodiffMatchesFiniteDifference)
{
    RandomNet net = randomMlp(GetParam());
    EXPECT_LT(test::gradCheck(net.g, net.loss, net.store, net.feeds),
              4e-2f);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphGrad,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77,
                                           88));

class RandomGraphPlan : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(RandomGraphPlan, PlannerNeverOverlapsLiveValues)
{
    RandomNet net = randomMlp(GetParam());
    Graph g = net.g;
    BackwardResult bwd = buildBackward(g, net.loss);
    g.markOutput(net.loss);
    for (auto &[p, gid] : bwd.paramGrads)
        g.markOutput(gid);
    for (auto order : {naturalOrder(g), reorderForMemory(g)}) {
        MemoryPlan plan = planMemory(g, order);
        for (int i = 0; i < g.numNodes(); ++i) {
            for (int j = i + 1; j < g.numNodes(); ++j) {
                const ValuePlacement &a = plan.values[i];
                const ValuePlacement &c = plan.values[j];
                if (a.storage != Storage::Arena ||
                    c.storage != Storage::Arena) {
                    continue;
                }
                bool lives = a.defPos <= c.lastUsePos &&
                             c.defPos <= a.lastUsePos;
                bool bytes = a.offset < c.offset + c.bytes &&
                             c.offset < a.offset + a.bytes;
                if (lives)
                    ASSERT_FALSE(bytes) << i << " vs " << j;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphPlan,
                         ::testing::Values(101, 202, 303, 404, 505));

class RandomGraphSemantics : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(RandomGraphSemantics, AllOptimizationsPreserveLoss)
{
    // Compiling with every optimization on vs all off must produce
    // identical losses and identical updated weights after a step.
    uint64_t seed = GetParam();
    RandomNet a = randomMlp(seed);
    RandomNet b = randomMlp(seed);
    CompileOptions on, off;
    on.optim = off.optim = OptimConfig::sgd(0.05);
    off.fuse = off.reorder = off.winograd = off.blocked =
        off.foldConstants = false;
    auto store_a = std::make_shared<ParamStore>(a.store);
    auto store_b = std::make_shared<ParamStore>(b.store);
    auto pa = compileTraining(a.g, a.loss, SparseUpdateScheme::full(),
                              on, store_a);
    auto pb = compileTraining(b.g, b.loss, SparseUpdateScheme::full(),
                              off, store_b);
    for (int step = 0; step < 3; ++step) {
        float la = pa.trainStep(a.feeds);
        float lb = pb.trainStep(b.feeds);
        ASSERT_NEAR(la, lb, 1e-4f) << "seed " << seed;
    }
    for (const auto &[name, t] : store_a->all()) {
        ASSERT_TRUE(allClose(t, store_b->get(name), 1e-4f, 1e-5f))
            << name;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphSemantics,
                         ::testing::Values(7, 14, 21, 28));

class RandomGraphSerialize : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(RandomGraphSerialize, RoundTripAndEquivalentExecution)
{
    RandomNet net = randomMlp(GetParam());
    net.g.markOutput(net.loss);
    Graph loaded = graphFromJson(graphToJson(net.g));
    Tensor a = test::evalNode(net.g, net.loss, net.store, net.feeds);
    Tensor b = test::evalNode(loaded, net.loss, net.store, net.feeds);
    EXPECT_TRUE(allClose(a, b));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphSerialize,
                         ::testing::Values(1, 2, 3, 4));

/**
 * A random small CNN classifier: a few conv layers (pointwise, 3x3 or
 * 5x5 at stride 1 or 2 with random padding, 2 to 12 wide, or a 3x3,
 * 5x5 or 7x7 depthwise at stride 1 or 2), each with a ReLU that fusion
 * folds into ConvBiasAct / DwConvBiasAct, then a global pool and a
 * linear head. Some layers are frozen, so the sparse backward graph,
 * Winograd-bound frozen convs and input-gradient-only convs all occur,
 * and depthwise widths straddle the 8-channel block.
 */
struct RandomCnn {
    std::shared_ptr<ParamStore> store = std::make_shared<ParamStore>();
    Graph g;
    test::Feeds feeds;
    SparseUpdateScheme scheme = SparseUpdateScheme::frozen();
    int logits = -1;
    int loss = -1;
};

RandomCnn
randomCnn(uint64_t seed)
{
    RandomCnn net;
    Rng rng(seed);
    NetBuilder b(net.g, rng, net.store.get());
    int64_t batch = 1 + rng.randint(3);
    int64_t ch = 1 + rng.randint(4);
    int64_t hw = 5 + rng.randint(6);
    int x = b.input({batch, ch, hw, hw}, "x");
    int h = x;
    int depth = 2 + static_cast<int>(rng.randint(3));
    for (int i = 0; i < depth; ++i) {
        std::string name = "c" + std::to_string(i);
        int64_t kind = rng.randint(4);
        int64_t cur = net.g.node(h).shape[2];
        if (kind == 3 && i > 0) {
            // Past the plane, only a same-size pad keeps an output.
            int64_t k = 3 + 2 * rng.randint(3);
            int64_t stride = cur > 4 ? 1 + rng.randint(2) : 1;
            int64_t pad = k > cur ? k / 2 : rng.randint(k / 2 + 1);
            h = b.dwConv2d(h, k, stride, pad, name);
        } else {
            int64_t k = kind == 0 ? 1 : kind == 1 ? 3 : 5;
            if (k > cur)
                k = 1;
            int64_t stride = k > 1 && cur > 4 ? 1 + rng.randint(2) : 1;
            int64_t pad = k > 1 ? rng.randint(k / 2 + 1) : 0;
            h = b.conv2d(h, 2 + rng.randint(11), k, stride, pad, name);
        }
        h = b.relu(h);
        // Train the later layers; freeze an earlier one at random.
        if (i + 1 == depth || rng.randint(3) != 0) {
            net.scheme.updatePrefix(name + ".");
            net.scheme.updateBiasPrefix(name + ".");
        }
    }
    net.logits = b.linear(b.globalAvgPool(h), 3, "head");
    net.scheme.updatePrefix("head.");
    net.scheme.updateBiasPrefix("head.");
    int y = b.input({batch}, "y");
    net.loss = b.crossEntropy(net.logits, y);
    net.feeds["x"] = Tensor::randn({batch, ch, hw, hw}, rng);
    Tensor ty({batch});
    for (int64_t i = 0; i < batch; ++i)
        ty[i] = static_cast<float>(rng.randint(3));
    net.feeds["y"] = ty;
    return net;
}

class RandomCnnDifferential : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(RandomCnnDifferential, BlockedKernelsTrainLikeEager)
{
    // Compiled with the tuned kernels (im2col, blocked, Winograd and
    // their SIMD tier forms) and without them, a sparse training step
    // matches the masked eager reference within 2e-3 in loss — the
    // perfbench reference tolerance — step after step.
    uint64_t seed = GetParam();
    constexpr float kTol = 2e-3f;
    for (bool blocked : {true, false}) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " blocked " +
                     std::to_string(blocked));
        RandomCnn net = randomCnn(seed);
        RandomCnn ref = randomCnn(seed);
        CompileOptions opt;
        opt.optim = OptimConfig::sgd(0.05);
        opt.blocked = blocked;
        TrainingProgram prog = compileTraining(net.g, net.loss, net.scheme,
                                               opt, net.store);
        if (blocked)
            EXPECT_GT(prog.report().backend.im2colBound, 0);
        else
            EXPECT_EQ(prog.report().backend.im2colBound, 0);
        std::unordered_map<std::string, bool> mask;
        for (int id : ref.g.paramIds()) {
            const std::string &name = ref.g.node(id).name;
            mask[name] = ref.scheme.ruleFor(name).update;
        }
        EagerEngine eager(ref.g, ref.loss, ref.store, opt.optim, &mask);
        for (int step = 0; step < 3; ++step) {
            float lc = prog.trainStep(net.feeds);
            float le = eager.trainStep(ref.feeds);
            ASSERT_TRUE(std::isfinite(lc));
            EXPECT_NEAR(lc, le, kTol) << "step " << step;
        }
    }
}

/** Raw bytes of @p a and @p b agree (NaN payloads and -0 too). */
bool
sameBits(const Tensor &a, const Tensor &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(),
                       sizeof(float) * static_cast<size_t>(a.size())) == 0;
}

TEST_P(RandomCnnDifferential, ScalarTierIsBitEqualBlockedOrNot)
{
    // On the scalar tier every tuned kernel keeps its direct loop's
    // per-output order (im2col, blocked, the packed depthwise forward
    // and input gradient), so sparse training steps compiled with and
    // without them give the same loss and weight bits.
    uint64_t seed = GetParam();
    std::vector<float> losses[2];
    std::shared_ptr<ParamStore> stores[2];
    for (bool blocked : {true, false}) {
        RandomCnn net = randomCnn(seed);
        CompileOptions opt;
        opt.optim = OptimConfig::sgd(0.05);
        opt.blocked = blocked;
        TrainingProgram prog = [&] {
            test::TierOverride pin(SimdTier::Scalar);
            return compileTraining(net.g, net.loss, net.scheme, opt,
                                   net.store);
        }();
        const Graph &pg = prog.graph();
        const ProgramArtifact art = prog.executor().exportArtifact();
        for (int id : art.order) {
            OpKind op = pg.node(id).op;
            if (op == OpKind::DwConv2d || op == OpKind::DwConvBiasAct ||
                op == OpKind::DwConv2dBwdInput)
                EXPECT_EQ(art.variants[id], blocked ? "packed" : "");
        }
        for (int step = 0; step < 3; ++step)
            losses[blocked].push_back(prog.trainStep(net.feeds));
        stores[blocked] = net.store;
    }
    ASSERT_EQ(std::memcmp(losses[0].data(), losses[1].data(),
                          sizeof(float) * losses[0].size()),
              0)
        << "seed " << seed;
    for (const auto &[name, t] : stores[1]->all())
        EXPECT_TRUE(sameBits(t, stores[0]->get(name))) << name;
}

TEST_P(RandomCnnDifferential, Int8TierMatchesScalarBitForBit)
{
    // The random CNN calibrated and compiled to int8: its quantized
    // convs, depthwise convs and head are integer kernels, bit-exact
    // across tiers, so the tier and scalar compiles give the same
    // logits bits.
    uint64_t seed = GetParam();
    RandomCnn net = randomCnn(seed);
    calibrate(net.g, *net.store, {net.feeds});
    CompileOptions opt;
    opt.precision = Precision::Int8;
    InferenceProgram tier =
        compileInference(net.g, {net.logits}, opt, net.store);
    InferenceProgram scalar = [&] {
        test::TierOverride pin(SimdTier::Scalar);
        return compileInference(net.g, {net.logits}, opt, net.store);
    }();
    EXPECT_GT(tier.report().quant.quantizedOps, 0);
    test::Feeds x{{"x", net.feeds.at("x")}};
    EXPECT_TRUE(sameBits(tier.run(x)[0], scalar.run(x)[0]))
        << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCnnDifferential,
                         ::testing::Values(3, 17, 29, 41, 53, 67, 79, 97));

TEST(SparseMonotonicity, MoreFrozenBlocksNeverCostMore)
{
    // Property: freezing strictly more of the model can only shrink
    // (or keep) backward size, flops and arena memory.
    Graph g;
    Rng rng(9);
    ParamStore store;
    NetBuilder b(g, rng, &store);
    int x = b.input({4, 16}, "x");
    int h = x;
    for (int i = 0; i < 6; ++i)
        h = b.gelu(b.linear(h, 16, "l" + std::to_string(i)));
    int logits = b.linear(h, 3, "head");
    int y = b.input({4}, "y");
    int loss = b.crossEntropy(logits, y);
    (void)logits;

    CompileOptions opt;
    double prev_flops = 1e300;
    int64_t prev_arena = 1LL << 60;
    int prev_bwd = INT32_MAX;
    for (int first_trainable = 0; first_trainable <= 6;
         ++first_trainable) {
        SparseUpdateScheme s = SparseUpdateScheme::frozen();
        for (int i = first_trainable; i < 6; ++i) {
            s.updatePrefix("l" + std::to_string(i) + ".");
            s.updateBiasPrefix("l" + std::to_string(i) + ".");
        }
        s.updatePrefix("head.");
        s.updateBiasPrefix("head.");
        CompiledGraph c = compileGraphOnly(g, loss, s, opt);
        EXPECT_LE(c.report.flopsPerStep, prev_flops);
        EXPECT_LE(c.report.backwardNodes, prev_bwd);
        EXPECT_LE(c.report.arenaBytes, prev_arena + 4096)
            << "arena should shrink (within alignment slack)";
        prev_flops = c.report.flopsPerStep;
        prev_bwd = c.report.backwardNodes;
        prev_arena = c.report.arenaBytes;
    }
}

} // namespace
} // namespace pe
