/**
 * @file
 * IR tests: graph construction, shape inference (the IR type
 * checker), compaction, JSON serialization round-trips, FLOP/byte
 * cost model sanity.
 */

#include <gtest/gtest.h>

#include "frontend/builder.h"
#include "frontend/models.h"
#include "ir/serialize.h"

namespace pe {
namespace {

TEST(Infer, MatMulShapes)
{
    Graph g;
    int a = g.input({3, 5}, "a");
    int b = g.input({5, 7}, "b");
    int mm = g.add(OpKind::MatMul, {a, b});
    EXPECT_EQ(g.node(mm).shape, (Shape{3, 7}));

    Attrs t;
    t.set("transB", static_cast<int64_t>(1));
    int c = g.input({7, 5}, "c");
    int mm2 = g.add(OpKind::MatMul, {a, c}, std::move(t));
    EXPECT_EQ(g.node(mm2).shape, (Shape{3, 7}));
}

TEST(Infer, MatMulMismatchThrows)
{
    Graph g;
    int a = g.input({3, 5}, "a");
    int b = g.input({4, 7}, "b");
    EXPECT_THROW(g.add(OpKind::MatMul, {a, b}), std::runtime_error);
}

TEST(Infer, ConvShapes)
{
    Graph g;
    int x = g.input({2, 3, 32, 32}, "x");
    int w = g.param({8, 3, 3, 3}, "w", false);
    Attrs a;
    a.set("stride", static_cast<int64_t>(2));
    a.set("pad", static_cast<int64_t>(1));
    int conv = g.add(OpKind::Conv2d, {x, w}, std::move(a));
    EXPECT_EQ(g.node(conv).shape, (Shape{2, 8, 16, 16}));
}

TEST(Infer, ConvChannelMismatchThrows)
{
    Graph g;
    int x = g.input({2, 3, 8, 8}, "x");
    int w = g.param({8, 4, 3, 3}, "w", false);
    EXPECT_THROW(g.add(OpKind::Conv2d, {x, w}), std::runtime_error);
}

TEST(Infer, ReshapeWithInferredDim)
{
    Graph g;
    int x = g.input({2, 3, 4}, "x");
    Attrs a;
    a.set("shape", Shape{6, -1});
    int r = g.add(OpKind::Reshape, {x}, std::move(a));
    EXPECT_EQ(g.node(r).shape, (Shape{6, 4}));
    Attrs bad;
    bad.set("shape", Shape{5, -1});
    EXPECT_THROW(g.add(OpKind::Reshape, {x}, std::move(bad)),
                 std::runtime_error);
}

TEST(Infer, SliceValidation)
{
    Graph g;
    int x = g.input({4, 6}, "x");
    Attrs ok;
    ok.set("axis", static_cast<int64_t>(1));
    ok.set("begin", static_cast<int64_t>(1));
    ok.set("end", static_cast<int64_t>(4));
    int s = g.add(OpKind::Slice, {x}, std::move(ok));
    EXPECT_EQ(g.node(s).shape, (Shape{4, 3}));
    Attrs bad;
    bad.set("axis", static_cast<int64_t>(1));
    bad.set("begin", static_cast<int64_t>(4));
    bad.set("end", static_cast<int64_t>(3));
    EXPECT_THROW(g.add(OpKind::Slice, {x}, std::move(bad)),
                 std::runtime_error);
}

TEST(Infer, ReduceAndEmbedding)
{
    Graph g;
    int x = g.input({2, 3, 4}, "x");
    Attrs a;
    a.set("axes", std::vector<int64_t>{0, 2});
    a.set("keepdims", static_cast<int64_t>(0));
    int r = g.add(OpKind::ReduceSum, {x}, std::move(a));
    EXPECT_EQ(g.node(r).shape, (Shape{3}));

    int table = g.param({10, 8}, "emb", true);
    int ids = g.input({2, 5}, "ids");
    int e = g.add(OpKind::Embedding, {table, ids});
    EXPECT_EQ(g.node(e).shape, (Shape{2, 5, 8}));
}

TEST(Graph, DuplicateParamNameThrows)
{
    Graph g;
    g.param({2}, "w", true);
    EXPECT_THROW(g.param({3}, "w", true), std::runtime_error);
    EXPECT_THROW(g.param({3}, "", true), std::runtime_error);
}

TEST(Graph, ConsumersAndCompact)
{
    Graph g;
    int x = g.input({4}, "x");
    int a = g.add(OpKind::Relu, {x});
    int dead = g.add(OpKind::Gelu, {x});
    int b = g.add(OpKind::Silu, {a});
    g.markOutput(b);
    auto users = g.consumers();
    EXPECT_EQ(users[x].size(), 2u);
    EXPECT_EQ(users[a], std::vector<int>{b});

    std::vector<bool> live(g.numNodes(), true);
    live[dead] = false;
    auto remap = g.compact(live);
    EXPECT_EQ(remap[dead], -1);
    EXPECT_EQ(g.numNodes(), 3);
    EXPECT_EQ(g.outputs()[0], remap[b]);
    // Inputs rewired to new ids.
    EXPECT_EQ(g.node(remap[b]).inputs[0], remap[a]);
}

TEST(Graph, ConstDataSurvivesCompact)
{
    Graph g;
    int dead = g.input({1}, "dead");
    (void)dead;
    int c = g.constantOf(Tensor::full({2}, 7.0f), "c");
    int out = g.add(OpKind::Relu, {c});
    g.markOutput(out);
    std::vector<bool> live = {false, true, true};
    auto remap = g.compact(live);
    EXPECT_TRUE(g.hasConstData(remap[c]));
    EXPECT_FLOAT_EQ(g.constData(remap[c])[0], 7.0f);
}

TEST(Serialize, RoundTripPreservesStructure)
{
    Graph g;
    Rng rng(1);
    ParamStore store;
    NetBuilder b(g, rng, &store);
    int x = b.input({2, 3, 8, 8}, "x");
    int h = b.relu(b.conv2d(x, 4, 3, 2, 1, "c1"));
    h = b.globalAvgPool(h);
    h = b.linear(h, 5, "head");
    g.markOutput(h);

    Graph loaded = graphFromJson(graphToJson(g));
    ASSERT_EQ(loaded.numNodes(), g.numNodes());
    for (int i = 0; i < g.numNodes(); ++i) {
        EXPECT_EQ(loaded.node(i).op, g.node(i).op) << i;
        EXPECT_EQ(loaded.node(i).inputs, g.node(i).inputs) << i;
        EXPECT_EQ(loaded.node(i).shape, g.node(i).shape) << i;
        EXPECT_EQ(loaded.node(i).name, g.node(i).name) << i;
        EXPECT_EQ(loaded.node(i).trainable, g.node(i).trainable) << i;
    }
    EXPECT_EQ(loaded.outputs(), g.outputs());
}

TEST(Serialize, EscapesAndAttrTypes)
{
    Graph g;
    Attrs a;
    a.set("shape", Shape{2});
    a.set("note", std::string("quote\"back\\slash"));
    a.set("alpha", 2.5);
    int x = g.add(OpKind::Input, {}, std::move(a), "in\"name");
    g.markOutput(x);
    Graph loaded = graphFromJson(graphToJson(g));
    EXPECT_EQ(loaded.node(0).name, "in\"name");
    EXPECT_EQ(loaded.node(0).attrs.getString("note"),
              "quote\"back\\slash");
    EXPECT_DOUBLE_EQ(loaded.node(0).attrs.getFloat("alpha", 0), 2.5);
}

TEST(Serialize, RejectsMalformedJson)
{
    EXPECT_THROW(graphFromJson("{\"nodes\":["), std::runtime_error);
    EXPECT_THROW(graphFromJson("not json"), std::runtime_error);
}

TEST(CostModel, FlopsScaleWithShapes)
{
    Graph g;
    int a = g.input({8, 8}, "a");
    int b = g.input({8, 8}, "b");
    int mm = g.add(OpKind::MatMul, {a, b});
    EXPECT_DOUBLE_EQ(nodeFlops(g, g.node(mm)), 2.0 * 8 * 8 * 8);

    int a2 = g.input({16, 16}, "a2");
    int b2 = g.input({16, 16}, "b2");
    int mm2 = g.add(OpKind::MatMul, {a2, b2});
    EXPECT_DOUBLE_EQ(nodeFlops(g, g.node(mm2)),
                     8.0 * nodeFlops(g, g.node(mm)));
    EXPECT_EQ(nodeFlops(g, g.node(a)), 0.0);
}

TEST(CostModel, Int8OpsCountTheirFp32MacsAndOneBytePerElement)
{
    // An int8 conv, depthwise conv and GEMM do their fp32 forms' MACs
    // over one-byte elements: the same flops, a quarter of the bytes.
    Graph g;
    Attrs conv;
    conv.set("stride", static_cast<int64_t>(1));
    conv.set("pad", static_cast<int64_t>(1));
    int x = g.input({2, 4, 8, 8}, "x");
    int w = g.param({6, 4, 3, 3}, "w", false);
    int dw = g.param({4, 1, 3, 3}, "dw", false);
    int a = g.input({16, 32}, "a");
    int b = g.param({32, 24}, "b", false);
    int qx = g.add(OpKind::Quantize, {x});
    int qw = g.add(OpKind::Quantize, {w});
    int qdw = g.add(OpKind::Quantize, {dw});
    int qa = g.add(OpKind::Quantize, {a});
    int qb = g.add(OpKind::Quantize, {b});
    struct Pair {
        int fp32, int8;
    };
    std::vector<Pair> pairs = {
        {g.add(OpKind::Conv2d, {x, w}, conv),
         g.add(OpKind::QuantConv2d, {qx, qw}, conv)},
        {g.add(OpKind::DwConv2d, {x, dw}, conv),
         g.add(OpKind::QuantDwConv2d, {qx, qdw}, conv)},
        {g.add(OpKind::MatMul, {a, b}), g.add(OpKind::QuantMatMul, {qa, qb})}};
    for (auto [f, q] : pairs) {
        SCOPED_TRACE(opName(g.node(q).op));
        EXPECT_EQ(g.node(q).dtype, DType::I8);
        EXPECT_GT(nodeFlops(g, g.node(f)), static_cast<double>(
                                               numel(g.node(f).shape)));
        EXPECT_DOUBLE_EQ(nodeFlops(g, g.node(q)), nodeFlops(g, g.node(f)));
        EXPECT_DOUBLE_EQ(nodeBytes(g, g.node(q)),
                         nodeBytes(g, g.node(f)) / 4.0);
    }
}

TEST(ModelZoo, AllFamiliesBuildAndInfer)
{
    Rng rng(1);
    VisionConfig vc;
    vc.batch = 1;
    vc.resolution = 16;
    vc.blocks = 3;
    for (auto build : {buildMcuNet, buildMobileNetV2, buildResNet}) {
        ModelSpec m = build(vc, rng, nullptr);
        EXPECT_GT(m.numBlocks, 0);
        EXPECT_EQ(numel(m.graph.node(m.loss).shape), 1);
        EXPECT_EQ(m.graph.node(m.logits).shape,
                  (Shape{1, vc.numClasses}));
        EXPECT_GT(m.paramCount, 0);
    }
    NlpConfig nc;
    nc.batch = 2;
    nc.layers = 2;
    ModelSpec bert = buildBert(nc, rng, nullptr);
    EXPECT_EQ(bert.graph.node(bert.logits).shape,
              (Shape{2, nc.numClasses}));
    LlamaConfig lc;
    ModelSpec llama = buildLlama(lc, rng, nullptr);
    EXPECT_EQ(llama.graph.node(llama.logits).shape,
              (Shape{lc.batch * lc.seqLen, lc.vocab}));
}

TEST(ModelZoo, PaperScaleParamCountsAreRight)
{
    // Sanity-check the full-size configurations against the paper's
    // reported parameter counts (Table 4).
    Rng rng(1);
    ModelSpec mbv2 = buildMobileNetV2(paperMobileNetV2Config(1), rng,
                                      nullptr);
    EXPECT_NEAR(static_cast<double>(mbv2.paramCount), 3.4e6, 1.8e6);
    ModelSpec rn = buildResNet(paperResNet50Config(1), rng, nullptr);
    EXPECT_NEAR(static_cast<double>(rn.paramCount), 25.5e6, 3e6);
    ModelSpec llama = buildLlama(paperLlama7bConfig(128), rng, nullptr);
    EXPECT_NEAR(static_cast<double>(llama.paramCount), 6.7e9, 0.5e9);
}

TEST(ModelZoo, LoraAddsOnlyAdapters)
{
    Rng rng(1);
    LlamaConfig lc;
    ModelSpec base = buildLlama(lc, rng, nullptr, 0);
    ModelSpec lora = buildLlama(lc, rng, nullptr, 4);
    EXPECT_GT(lora.paramCount, base.paramCount);
    int adapters = 0;
    for (int id : lora.graph.paramIds()) {
        if (lora.graph.node(id).name.find(".lora.") != std::string::npos)
            ++adapters;
    }
    EXPECT_EQ(adapters, 2 * 2 * lc.layers); // A and B for q and v
}

} // namespace
} // namespace pe
