/**
 * @file
 * Arena v2 tests: workspace-aware memory planning and per-shard
 * kernel workspaces.
 *
 *  1. Planner properties: no two simultaneously-live placements —
 *     values OR workspaces — overlap in the arena; in-place aliases
 *     consume no arena; plans are deterministic across repeated
 *     compiles; the live-bytes timeline is consistent.
 *  2. Executor integration: scratch-bearing kernels (Winograd conv,
 *     blocked GEMM, im2col conv) produce multi-shard launch plans at
 *     numThreads=4 whose outputs match the 1-thread run bit for bit,
 *     and a Winograd conv reads its current weight on every run.
 *  3. Report: CompileReport::workspaceBytes is nonzero whenever a
 *     scratch-bearing variant is bound, and the footprint includes
 *     it.
 */

#include <cstring>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "frontend/builder.h"
#include "frontend/models.h"
#include "passes/passes.h"
#include "runtime/executor.h"
#include "runtime/planner.h"
#include "testutil.h"

namespace pe {
namespace {

/** [offset, offset+bytes) intervals overlap? */
bool
bytesOverlap(int64_t ao, int64_t ab, int64_t bo, int64_t bb)
{
    return ao < bo + bb && bo < ao + ab;
}

/**
 * Every pair of simultaneously-live arena placements must occupy
 * disjoint byte ranges. Checks value-vs-value, value-vs-workspace,
 * and workspace-vs-workspace (including the per-shard instances).
 */
void
expectNoLiveOverlap(const Graph &g, const std::vector<int> &order,
                    const MemoryPlan &plan)
{
    struct Interval {
        int64_t off, bytes;
        int from, to; ///< inclusive live range in order positions
        const char *what;
    };
    std::vector<Interval> iv;
    for (int id = 0; id < g.numNodes(); ++id) {
        const ValuePlacement &v = plan.values[id];
        if (v.storage != Storage::Arena || v.defPos < 0)
            continue;
        iv.push_back({v.offset, v.bytes, v.defPos, v.lastUsePos,
                      "value"});
    }
    for (const WorkspacePlacement &w : plan.workspaces) {
        for (int s = 0; s < w.shards; ++s) {
            if (w.bytesPerShard > 0)
                iv.push_back({w.shardOffset(s), w.bytesPerShard,
                              w.stepPos, w.stepPos, "workspace"});
        }
    }
    for (size_t i = 0; i < iv.size(); ++i) {
        for (size_t j = i + 1; j < iv.size(); ++j) {
            bool lives = iv[i].from <= iv[j].to &&
                         iv[j].from <= iv[i].to;
            if (!lives)
                continue;
            ASSERT_FALSE(bytesOverlap(iv[i].off, iv[i].bytes,
                                      iv[j].off, iv[j].bytes))
                << iv[i].what << " [" << iv[i].off << ", +"
                << iv[i].bytes << ") overlaps " << iv[j].what << " ["
                << iv[j].off << ", +" << iv[j].bytes << ")";
        }
    }
}

using test::WinoNet;
using test::winoNet;

/** Backbone frozen, head training: convs bind Winograd. */
SparseUpdateScheme
headOnlyScheme()
{
    SparseUpdateScheme s = SparseUpdateScheme::frozen();
    s.updatePrefix("head.");
    s.updateBiasPrefix("head.");
    return s;
}

TEST(ArenaPlan, WorkspacesNeverOverlapLiveValues)
{
    WinoNet n = winoNet(4);
    CompileOptions opt;
    opt.numThreads = 4;
    CompiledGraph c =
        compileGraphOnly(n.g, n.loss, headOnlyScheme(), opt);
    const MemoryPlan &plan = c.artifact.plan;
    ASSERT_FALSE(plan.workspaces.empty())
        << "frozen 3x3 convs should bind the Winograd variant";
    expectNoLiveOverlap(c.graph, c.artifact.order, plan);
}

TEST(ArenaPlan, SparseSchemeWinogradWorkspacesDontOverlap)
{
    WinoNet n = winoNet(2);
    CompileOptions opt;
    opt.numThreads = 4;
    CompiledGraph c =
        compileGraphOnly(n.g, n.loss, headOnlyScheme(), opt);
    const MemoryPlan &plan = c.artifact.plan;
    expectNoLiveOverlap(c.graph, c.artifact.order, plan);
    // Every frozen conv binds Winograd, whose shards each hold their
    // own filter transforms and transformed-input tile.
    int wino = 0;
    for (const WorkspacePlacement &w : plan.workspaces) {
        if (c.artifact.variants[w.node] != "winograd")
            continue;
        ++wino;
        const Graph &g = c.graph;
        const Shape &ws = g.node(g.node(w.node).inputs[1]).shape;
        EXPECT_EQ(w.bytesPerShard, (1 + ws[0]) * ws[1] * 16 * 4);
        EXPECT_GT(w.shards, 1) << "a Winograd step should shard";
        EXPECT_GE(w.shardStride, w.bytesPerShard);
    }
    EXPECT_EQ(wino, c.report.backend.winogradBound);
    EXPECT_GT(wino, 0) << "frozen 3x3 convs should bind Winograd";
}

TEST(ArenaPlan, InPlaceAliasesConsumeNoArena)
{
    Graph g;
    int w = g.param({64}, "w", true);
    int grad = g.input({64}, "g");
    Attrs a;
    a.set("lr", 0.1);
    int apply = g.add(OpKind::ApplySgd, {w, grad}, std::move(a));
    g.markOutput(apply);
    MemoryPlan plan = planMemory(g, naturalOrder(g));
    EXPECT_EQ(plan.values[apply].storage, Storage::Alias);
    EXPECT_EQ(plan.arenaBytes, 0);
}

TEST(ArenaPlan, ValueSpaceIsReusedAcrossSteps)
{
    // A long relu chain: buffers die one step after definition, so
    // the arena must stay at ~2 live buffers regardless of depth.
    Graph g;
    int x = g.input({64}, "x");
    int h = x;
    for (int i = 0; i < 30; ++i)
        h = g.add(OpKind::Relu, {h});
    g.markOutput(h);
    MemoryPlan plan = planMemory(g, naturalOrder(g));
    EXPECT_LE(plan.arenaBytes, 2 * 64 * 4 + 128);
    // Timeline: one position per scheduled node, peak consistent.
    EXPECT_EQ(plan.liveBytesAtStep.size(), naturalOrder(g).size());
    EXPECT_LE(plan.peakLiveBytes, plan.arenaBytes);
}

TEST(ArenaPlan, WorkspaceSpaceIsReusedAcrossSteps)
{
    // Two identical conv steps with workspaces, far apart in the
    // chain: best-fit must reuse the first workspace's bytes for the
    // second (their lifetimes are disjoint), so the arena grows by
    // at most one workspace block.
    Graph g;
    int x = g.input({1, 4, 8, 8}, "x");
    int w1 = g.param({4, 4, 3, 3}, "w1", false);
    int w2 = g.param({4, 4, 3, 3}, "w2", false);
    Attrs a1, a2;
    a1.set("stride", static_cast<int64_t>(1));
    a1.set("pad", static_cast<int64_t>(1));
    a2 = a1;
    int c1 = g.add(OpKind::Conv2d, {x, w1}, std::move(a1));
    int c2 = g.add(OpKind::Conv2d, {c1, w2}, std::move(a2));
    g.markOutput(c2);
    std::vector<int> order = naturalOrder(g);
    std::vector<std::string> variants(g.numNodes());
    variants[c1] = "im2col";
    variants[c2] = "im2col";
    LaunchSummary launches = planLaunches(g, order, variants, 1);
    ASSERT_EQ(launches.workspaces.size(), 2u);
    MemoryPlan plan = planMemory(g, order, launches.workspaces);
    expectNoLiveOverlap(g, order, plan);
    ASSERT_EQ(plan.workspaces.size(), 2u);
    // Same declared size, disjoint lifetimes -> same arena bytes as
    // a single instance (best-fit reuse), and identical offsets.
    EXPECT_EQ(plan.workspaces[0].offset, plan.workspaces[1].offset)
        << "disjoint-lifetime workspaces should recycle the same "
           "arena block";
    EXPECT_EQ(plan.workspaceBytes,
              (plan.workspaces[0].bytesPerShard + 63) & ~63LL);
}

TEST(ArenaPlan, PlanIsDeterministicAcrossCompiles)
{
    for (int round = 0; round < 2; ++round) {
        WinoNet n1 = winoNet(2);
        WinoNet n2 = winoNet(2);
        CompileOptions opt;
        opt.numThreads = 4;
        CompiledGraph a =
            compileGraphOnly(n1.g, n1.loss, headOnlyScheme(), opt);
        CompiledGraph b =
            compileGraphOnly(n2.g, n2.loss, headOnlyScheme(), opt);
        ASSERT_EQ(a.artifact.order, b.artifact.order);
        ASSERT_EQ(a.artifact.variants, b.artifact.variants);
        EXPECT_EQ(a.report.arenaBytes, b.report.arenaBytes);
        EXPECT_EQ(a.report.workspaceBytes, b.report.workspaceBytes);
        EXPECT_EQ(a.report.memoryTimeline, b.report.memoryTimeline);
        const MemoryPlan &pa = a.artifact.plan;
        const MemoryPlan &pb = b.artifact.plan;
        ASSERT_EQ(pa.values.size(), pb.values.size());
        for (size_t i = 0; i < pa.values.size(); ++i) {
            EXPECT_EQ(pa.values[i].offset, pb.values[i].offset);
            EXPECT_EQ(pa.values[i].bytes, pb.values[i].bytes);
        }
        ASSERT_EQ(pa.workspaces.size(), pb.workspaces.size());
        for (size_t i = 0; i < pa.workspaces.size(); ++i) {
            EXPECT_EQ(pa.workspaces[i].offset, pb.workspaces[i].offset);
            EXPECT_EQ(pa.workspaces[i].shardStride,
                      pb.workspaces[i].shardStride);
        }
    }
}

TEST(ArenaPlan, DtypeTagsSizePlacements)
{
    Graph g;
    int x = g.input({8, 8}, "x");
    int h = g.add(OpKind::Relu, {x});
    g.markOutput(h);
    MemoryPlan plan = planMemory(g, naturalOrder(g));
    EXPECT_EQ(plan.values[h].dtype, DType::F32);
    EXPECT_EQ(plan.values[h].bytes,
              numel(g.node(h).shape) * dtypeSize(DType::F32));
}

// ---- Executor integration -------------------------------------------

TEST(ArenaExec, WinogradShardsAndMatchesSerialBitForBit)
{
    // compileInference freezes every param -> all 3x3 stride-1 convs
    // bind the Winograd variant.
    std::unordered_map<std::string, Tensor> feeds;
    {
        Rng r(5);
        feeds["x"] = Tensor::randn({4, 4, 12, 12}, r);
    }
    auto run = [&](int nt) {
        WinoNet fresh = winoNet(4); // same seed -> same weights
        CompileOptions opt;
        opt.numThreads = nt;
        auto prog = compileInference(fresh.g, {fresh.logits}, opt,
                                     fresh.store);
        Tensor out = prog.run(feeds)[0];
        return std::make_pair(std::move(out),
                              prog.executor().shardedSteps());
    };
    auto [serial, sharded1] = run(1);
    auto [parallel, shardedN] = run(4);
    EXPECT_EQ(sharded1, 0);
    EXPECT_GT(shardedN, 0);
    ASSERT_EQ(serial.size(), parallel.size());
    EXPECT_EQ(std::memcmp(serial.data(), parallel.data(),
                          sizeof(float) * serial.size()),
              0)
        << "multi-thread launch plan diverged from serial execution";
}

TEST(ArenaExec, WinogradStepActuallySharded)
{
    WinoNet n = winoNet(4);
    CompileOptions opt;
    opt.numThreads = 4;
    auto prog = compileInference(n.g, {n.logits}, opt, n.store);
    Executor &ex = prog.executor();
    // Some bound step must be a sharded Winograd conv with a planned
    // workspace: find it via the memory plan.
    const MemoryPlan &plan = ex.memoryPlan();
    bool sharded_scratch_step = false;
    for (const WorkspacePlacement &w : plan.workspaces)
        sharded_scratch_step |= w.shards > 1;
    EXPECT_TRUE(sharded_scratch_step)
        << "no scratch-bearing kernel produced a multi-shard launch "
           "plan at numThreads=4";
}

TEST(ArenaExec, BlockedGemmShardsWithWorkspaceAndMatchesSerial)
{
    // "blocked" GEMMs run through compiled training; the backward
    // dX = dY . W^T reads a transposed B, which packs panels into a
    // workspace, so the workspace-bearing kernel executes inside the
    // arena at both thread counts.
    auto traj = [&](int nt) {
        Graph g;
        Rng rng(7);
        auto store = std::make_shared<ParamStore>();
        NetBuilder b(g, rng, store.get());
        int x = b.input({64, 64}, "x");
        int h = b.relu(b.linear(x, 128, "fc1"));
        int logits = b.linear(h, 64, "head");
        int y = b.input({64}, "y");
        int loss = b.crossEntropy(logits, y);
        CompileOptions opt;
        opt.optim = OptimConfig::sgd(0.05);
        opt.numThreads = nt;
        auto prog = compileTraining(g, loss, SparseUpdateScheme::full(),
                                    opt, store);
        EXPECT_GT(prog.report().workspaceBytes, 0)
            << "blocked GEMM should declare a packing workspace";
        if (nt > 1)
            EXPECT_GT(prog.report().shardedSteps, 0);
        Rng r(11);
        std::vector<float> losses;
        for (int s = 0; s < 5; ++s) {
            Tensor tx = Tensor::randn({64, 64}, r);
            Tensor ty({64});
            for (int i = 0; i < 64; ++i)
                ty[i] = static_cast<float>(i % 64);
            losses.push_back(prog.trainStep({{"x", tx}, {"y", ty}}));
        }
        return losses;
    };
    std::vector<float> serial = traj(1);
    std::vector<float> parallel = traj(4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(std::memcmp(&serial[i], &parallel[i], sizeof(float)),
                  0)
            << "loss diverged at step " << i;
    }
}

TEST(ArenaExec, Im2colVariantShardsPerImage)
{
    Graph g;
    int x = g.input({4, 3, 10, 10}, "x");
    int w = g.param({8, 3, 3, 3}, "w", false);
    Attrs a;
    a.set("stride", static_cast<int64_t>(1));
    a.set("pad", static_cast<int64_t>(1));
    int conv = g.add(OpKind::Conv2d, {x, w}, std::move(a));
    g.markOutput(conv);

    Rng rng(9);
    Tensor tx = Tensor::randn({4, 3, 10, 10}, rng);

    auto run = [&](int nt, const std::string &variant) {
        ParamStore store;
        Rng wr(4);
        store.set("w", Tensor::randn({8, 3, 3, 3}, wr, 0.3f));
        store.materialize(g);
        std::vector<std::string> variants(g.numNodes());
        variants[conv] = variant;
        Executor ex(g, planProgram(g, variants, false, nt), store);
        ex.bindInput("x", tx);
        ex.run();
        return std::make_pair(ex.fetch(conv), ex.shardedSteps());
    };
    auto [naive, s0] = run(1, "");
    auto [serial, s1] = run(1, "im2col");
    auto [parallel, s2] = run(4, "im2col");
    EXPECT_EQ(s1, 0);
    EXPECT_GT(s2, 0) << "im2col should shard over images now";
    EXPECT_EQ(std::memcmp(serial.data(), parallel.data(),
                          sizeof(float) * serial.size()),
              0);
    EXPECT_LT(maxAbsDiff(naive, serial), 1e-4f);
}

TEST(ArenaExec, ReportIncludesWorkspaceInFootprint)
{
    WinoNet n = winoNet(2);
    CompileOptions opt;
    opt.numThreads = 4;
    CompiledGraph c =
        compileGraphOnly(n.g, n.loss, headOnlyScheme(), opt);
    EXPECT_GT(c.report.workspaceBytes, 0);
    EXPECT_GT(c.report.shardedSteps, 0);
    EXPECT_GE(c.report.totalBytes,
              c.report.arenaBytes + c.report.paramBytes);
    EXPECT_EQ(c.report.memoryTimeline.size(), c.artifact.order.size());
    int64_t peak = 0;
    for (int64_t b : c.report.memoryTimeline)
        peak = std::max(peak, b);
    EXPECT_EQ(peak, c.report.peakLiveBytes);
    EXPECT_LE(c.report.peakLiveBytes, c.report.arenaBytes);
}

TEST(ArenaExec, WinogradReadsCurrentWeightEveryRun)
{
    // A Winograd conv transforms its filters on every call, so a
    // frozen weight changed in the ParamStore after the first run
    // must give the same bits as a fresh compile with that weight.
    Rng r(5);
    Tensor tx = Tensor::randn({1, 4, 12, 12}, r);
    WinoNet n = winoNet(1);
    auto prog = compileInference(n.g, {n.logits}, {}, n.store);
    const Graph &g = prog.graph();
    const std::vector<std::string> variants =
        prog.executor().exportArtifact().variants;
    std::string frozen;
    for (int id = 0; id < g.numNodes() && frozen.empty(); ++id) {
        if (variants[id] == "winograd")
            frozen = g.node(g.node(id).inputs[1]).name;
    }
    ASSERT_FALSE(frozen.empty()) << "no Winograd-bound conv found";
    auto perturb = [&](ParamStore &store) {
        Tensor &w = store.get(frozen);
        for (int64_t i = 0; i < w.size(); ++i)
            w[i] = -0.5f * w[i] + 0.01f * static_cast<float>(i % 7);
    };

    Tensor before = prog.run({{"x", tx}})[0];
    perturb(*n.store);
    Tensor after = prog.run({{"x", tx}})[0];

    WinoNet f = winoNet(1);
    perturb(*f.store);
    auto fresh = compileInference(f.g, {f.logits}, {}, f.store);
    Tensor want = fresh.run({{"x", tx}})[0];

    ASSERT_EQ(after.size(), want.size());
    EXPECT_NE(std::memcmp(before.data(), after.data(),
                          sizeof(float) * after.size()),
              0)
        << "the weight change should move the output";
    EXPECT_EQ(std::memcmp(after.data(), want.data(),
                          sizeof(float) * after.size()),
              0)
        << "a weight changed after the first run must be honored";
}

// ---- DirectWorkspace (the un-planned-caller path) --------------------

TEST(DirectWorkspace_, ReusesStorageAcrossSameSpecAttaches)
{
    DirectWorkspace ws;
    WorkspaceSpec spec;
    spec.bytesPerShard = 256;
    KernelCtx c;
    ws.attach(c, spec);
    ASSERT_NE(c.workspace, nullptr);
    float *first = c.workspace;
    c.workspace[0] = 42.0f;
    // Re-attach with the same spec: same storage, contents intact
    // (this is what lets repeated direct calls skip reallocation).
    KernelCtx c2;
    ws.attach(c2, spec);
    EXPECT_EQ(c2.workspace, first);
    EXPECT_EQ(c2.workspace[0], 42.0f);
    // A different size reallocates and zero-fills.
    WorkspaceSpec bigger;
    bigger.bytesPerShard = 1024;
    KernelCtx c3;
    ws.attach(c3, bigger);
    EXPECT_EQ(c3.workspace[0], 0.0f);
}

TEST(DirectWorkspace_, BuffersAreFloatAlignedAndByteSized)
{
    // Odd byte counts round up to whole floats; pointers carry float
    // alignment (the strictest any current kernel — including the i8
    // quantized ones reading reinterpret_cast'd bytes — requires).
    DirectWorkspace ws;
    WorkspaceSpec spec;
    spec.bytesPerShard = 13;
    KernelCtx c;
    ws.attach(c, spec);
    ASSERT_NE(c.workspace, nullptr);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(c.workspace) %
                  alignof(float),
              0u);
    // 13 bytes -> 4 floats: writing the final byte must be in
    // bounds (exercised hard under ASan).
    reinterpret_cast<int8_t *>(c.workspace)[12] = 1;
}

} // namespace
} // namespace pe
