/**
 * @file
 * Runtime tests: memory-planner invariants (no live-range overlap,
 * arena never exceeds sum of sizes), executor correctness, param
 * store behaviour.
 */

#include <gtest/gtest.h>

#include "frontend/builder.h"
#include "passes/passes.h"
#include "runtime/executor.h"
#include "runtime/planner.h"
#include "testutil.h"

namespace pe {
namespace {

Graph
chainGraph(int depth)
{
    Graph g;
    int x = g.input({64}, "x");
    int h = x;
    for (int i = 0; i < depth; ++i)
        h = g.add(OpKind::Relu, {h});
    g.markOutput(h);
    return g;
}

TEST(Planner, ChainReusesOneExtraBuffer)
{
    // A relu chain needs at most two live buffers at any time.
    Graph g = chainGraph(20);
    MemoryPlan plan = planMemory(g, naturalOrder(g));
    EXPECT_LE(plan.arenaBytes, 2 * 64 * 4 + 128 /*alignment slack*/);
}

TEST(Planner, NoOverlappingLiveRanges)
{
    // Property: any two arena values whose live ranges intersect must
    // occupy disjoint byte ranges.
    Graph g;
    Rng rng(1);
    ParamStore store;
    NetBuilder b(g, rng, &store);
    int x = b.input({8, 16}, "x");
    int h1 = b.relu(b.linear(x, 32, "a"));
    int h2 = b.gelu(b.linear(x, 32, "b"));
    int h = b.add(h1, h2);
    h = b.linear(h, 4, "c");
    g.markOutput(h);
    auto order = reorderForMemory(g);
    MemoryPlan plan = planMemory(g, order);

    for (int i = 0; i < g.numNodes(); ++i) {
        for (int j = i + 1; j < g.numNodes(); ++j) {
            const ValuePlacement &a = plan.values[i];
            const ValuePlacement &c = plan.values[j];
            if (a.storage != Storage::Arena ||
                c.storage != Storage::Arena) {
                continue;
            }
            bool lives_overlap = a.defPos <= c.lastUsePos &&
                                 c.defPos <= a.lastUsePos;
            bool bytes_overlap = a.offset < c.offset + c.bytes &&
                                 c.offset < a.offset + a.bytes;
            if (lives_overlap)
                EXPECT_FALSE(bytes_overlap)
                    << "values " << i << " and " << j;
        }
    }
}

TEST(Planner, ArenaNeverExceedsSumOfArenaValues)
{
    Graph g;
    Rng rng(1);
    ParamStore store;
    NetBuilder b(g, rng, &store);
    int x = b.input({4, 8}, "x");
    int h = b.relu(b.linear(x, 16, "a"));
    h = b.relu(b.linear(h, 16, "b"));
    g.markOutput(h);
    MemoryPlan plan = planMemory(g, naturalOrder(g));
    int64_t total = 0;
    for (const auto &v : plan.values) {
        if (v.storage == Storage::Arena)
            total += (v.bytes + 63) / 64 * 64;
    }
    EXPECT_LE(plan.arenaBytes, total);
    EXPECT_GT(plan.arenaBytes, 0);
}

TEST(Planner, ParamsAndStateAreNotArena)
{
    Graph g;
    Rng rng(1);
    ParamStore store;
    NetBuilder b(g, rng, &store);
    int x = b.input({4, 8}, "x");
    int h = b.linear(x, 4, "l");
    g.markOutput(h);
    MemoryPlan plan = planMemory(g, naturalOrder(g));
    EXPECT_EQ(plan.values[g.findParam("l.weight")].storage,
              Storage::Param);
    EXPECT_EQ(plan.values[x].storage, Storage::External);
    EXPECT_GT(plan.paramBytes, 0);
}

TEST(Executor, FetchesCorrectForwardValues)
{
    Graph g;
    int x = g.input({3}, "x");
    int two = g.constantOf(Tensor::full({3}, 2.0f));
    int prod = g.add(OpKind::Mul, {x, two});
    int out = g.add(OpKind::AddScalar, {prod},
                    Attrs{{"alpha", AttrValue(1.0)}});
    g.markOutput(out);
    ParamStore store;
    Executor ex(g, planProgram(g), store);
    ex.bindInput("x", Tensor::fromVector({3}, {1, 2, 3}));
    ex.run();
    Tensor result = ex.fetch(out);
    EXPECT_FLOAT_EQ(result[0], 3.0f);
    EXPECT_FLOAT_EQ(result[1], 5.0f);
    EXPECT_FLOAT_EQ(result[2], 7.0f);
}

TEST(Executor, BindInputValidatesShape)
{
    Graph g;
    g.input({2, 2}, "x");
    g.markOutput(0);
    ParamStore store;
    Executor ex(g, planProgram(g), store);
    EXPECT_THROW(ex.bindInput("x", Tensor::zeros({3})),
                 std::runtime_error);
    EXPECT_THROW(ex.bindInput("nope", Tensor::zeros({2, 2})),
                 std::runtime_error);
    ex.bindInput("x", Tensor::zeros({2, 2})); // ok
}

TEST(Executor, InPlaceApplyMutatesStoreTensor)
{
    Graph g;
    int w = g.param({4}, "w", true);
    int grad = g.input({4}, "g");
    Attrs a;
    a.set("lr", 0.5);
    int apply = g.add(OpKind::ApplySgd, {w, grad}, std::move(a));
    g.markOutput(apply);
    ParamStore store;
    store.set("w", Tensor::ones({4}));
    Executor ex(g, planProgram(g), store);
    ex.bindInput("g", Tensor::full({4}, 2.0f));
    ex.run();
    for (int i = 0; i < 4; ++i)
        EXPECT_FLOAT_EQ(store.get("w")[i], 0.0f); // 1 - 0.5*2
    ex.run();
    for (int i = 0; i < 4; ++i)
        EXPECT_FLOAT_EQ(store.get("w")[i], -1.0f);
}

TEST(Executor, RerunIsDeterministic)
{
    Graph g;
    Rng rng(1);
    ParamStore store;
    NetBuilder b(g, rng, &store);
    int x = b.input({4, 8}, "x");
    int h = b.softmax(b.linear(x, 8, "l"));
    g.markOutput(h);
    Executor ex(g, planProgram(g), store);
    Tensor tx = Tensor::randn({4, 8}, rng);
    ex.bindInput("x", tx);
    ex.run();
    Tensor first = ex.fetch(h);
    ex.run();
    EXPECT_TRUE(allClose(first, ex.fetch(h)));
}

TEST(ParamStore, MaterializeCreatesMissingAndChecksShape)
{
    Graph g;
    g.param({3, 3}, "w", true);
    ParamStore store;
    EXPECT_FALSE(store.has("w"));
    int64_t bytes = store.materialize(g);
    EXPECT_TRUE(store.has("w"));
    EXPECT_EQ(bytes, 9 * 4);
    ParamStore bad;
    bad.set("w", Tensor::zeros({2, 2}));
    EXPECT_THROW(bad.materialize(g), std::runtime_error);
}

TEST(Planner, OutputsStayLiveToTheEnd)
{
    Graph g = chainGraph(5);
    int out = g.outputs()[0];
    MemoryPlan plan = planMemory(g, naturalOrder(g));
    EXPECT_EQ(plan.values[out].lastUsePos,
              static_cast<int>(g.numNodes()));
}

} // namespace
} // namespace pe
