/**
 * @file
 * Kernel-variant microbenchmarks (google-benchmark): the Section 4.3
 * claims that backend switching pays — blocked vs naive GEMM,
 * im2col / Winograd vs direct convolution, fused vs unfused
 * conv+bias+relu, direct vs in-place im2col pointwise conv+bias+relu,
 * naive vs blocked GEMM at the decode shape, the sparse train step's
 * direct vs bounded-im2col stem, direct vs GEMM pointwise conv
 * gradients and thin pointwise conv with and without its ReLU
 * epilogue, the train step's depthwise layers (direct vs packed,
 * forward and input gradient), and the SIMD kernel tier (scalar vs
 * "@avx2"/"@neon" rows for GEMM, im2col conv, fused pointwise conv,
 * the train-step rows, packed depthwise, int8 GEMM, int8 pointwise
 * conv and int8 depthwise).
 *
 * Tier rows register ONLY when this host's registry has the variant,
 * so a scalar-only machine emits a scalar-only JSON; the snapshot's
 * custom context records pe_simd_tier and pe_build_type so
 * scripts/bench_check.py can tell "tier unavailable" from "row
 * silently vanished" and refuse debug-build numbers outright.
 */

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "core/tensor.h"
#include "engine/engine.h"
#include "frontend/builder.h"
#include "hw/threadpool.h"
#include "ir/graph.h"
#include "ir/infer.h"
#include "kernels/kernel.h"
#include "passes/passes.h"
#include "runtime/executor.h"

namespace pe {
namespace {

struct ConvFixture {
    Graph g;
    int node;
    Tensor x, w, bias, out;
    DirectWorkspace ws;

    /** A same-size, stride-1 k x k conv over ch channels (pad k/2). */
    ConvFixture(OpKind op, int64_t ch, int64_t hw, int64_t k,
                int64_t act = 0)
    {
        Rng rng(1);
        int xi = g.input({1, ch, hw, hw}, "x");
        int wi = g.param({ch, ch, k, k}, "w", false);
        Attrs a;
        a.set("stride", static_cast<int64_t>(1));
        a.set("pad", k / 2);
        if (op == OpKind::ConvBiasAct) {
            a.set("act", act);
            int bi = g.param({ch, 1, 1}, "b", false);
            node = g.add(op, {xi, wi, bi}, std::move(a));
        } else {
            node = g.add(op, {xi, wi}, std::move(a));
        }
        x = Tensor::randn({1, ch, hw, hw}, rng);
        w = Tensor::randn({ch, ch, k, k}, rng, 0.2f);
        bias = Tensor::randn({ch, 1, 1}, rng);
        out = Tensor::zeros(g.node(node).shape);
    }

    void
    run(const std::string &variant)
    {
        KernelCtx ctx;
        const Node &n = g.node(node);
        ctx.node = &n;
        ctx.in = {x.data(), w.data()};
        ctx.inShapes = {&g.node(n.inputs[0]).shape,
                        &g.node(n.inputs[1]).shape};
        if (n.op == OpKind::ConvBiasAct) {
            ctx.in.push_back(bias.data());
            ctx.inShapes.push_back(&g.node(n.inputs[2]).shape);
        }
        ctx.out = out.data();
        ctx.outShape = &n.shape;
        ws.attach(ctx, g, n, variant);
        lookupKernel(n.op, variant)(ctx);
    }
};

/** An [m,k]x[k,n] MatMul, or MatMulBiasAct(relu) with an [n] bias. */
void
gemmBench(benchmark::State &state, OpKind op, const std::string &variant,
          int64_t m, int64_t k, int64_t n)
{
    Rng rng(1);
    Graph g;
    std::vector<int> inputs = {g.input({m, k}, "a"), g.input({k, n}, "b")};
    Tensor ta = Tensor::randn({m, k}, rng);
    Tensor tb = Tensor::randn({k, n}, rng);
    Tensor tbias = Tensor::randn({n}, rng);
    KernelCtx ctx;
    ctx.in = {ta.data(), tb.data()};
    Attrs attrs;
    if (op == OpKind::MatMulBiasAct) {
        attrs.set("act", static_cast<int64_t>(kActRelu));
        inputs.push_back(g.input({n}, "bias"));
        ctx.in.push_back(tbias.data());
    }
    int node = g.add(op, inputs, std::move(attrs));
    Tensor out({m, n});
    ctx.node = &g.node(node);
    for (int i : inputs)
        ctx.inShapes.push_back(&g.node(i).shape);
    ctx.out = out.data();
    ctx.outShape = &g.node(node).shape;
    DirectWorkspace ws;
    ws.attach(ctx, g, g.node(node), variant);
    KernelFn fn = lookupKernel(op, variant);
    for (auto _ : state) {
        fn(ctx);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
}

void
BM_MatMul(benchmark::State &state, const std::string &variant)
{
    int64_t n = state.range(0);
    gemmBench(state, OpKind::MatMul, variant, n, n, n);
}

/**
 * One LLaMA-proxy decode projection: 4 stream rows x 128 x 256
 * (info rows, no committed baseline). Every GEMM binds "blocked", so
 * these rows show what naive -> blocked -> tier buys at M = 4, where
 * the body reads B in place instead of packing it.
 */
void
BM_DecodeMatMul(benchmark::State &state, const std::string &variant)
{
    gemmBench(state, OpKind::MatMul, variant, 4, 128, 256);
}

/** The fused GEMM on the same variants: the unfused GEMM body plus
 *  the bias + relu epilogue (info rows, no committed baseline). */
void
BM_FusedMatMulBiasRelu(benchmark::State &state,
                       const std::string &variant)
{
    int64_t n = state.range(0);
    gemmBench(state, OpKind::MatMulBiasAct, variant, n, n, n);
}

/**
 * Thread-scaling GEMM: shard one GEMM variant over output rows via
 * the pool, exactly as the partitioned executor does. Reports
 * GFLOP/s; compare thread counts for the parallel-runtime speedup.
 * The scalar "blocked" rows register in every build, the tier rows
 * ("blocked@avx2") with the other tier rows.
 */
void
BM_MatMulThreads(benchmark::State &state, const std::string &variant)
{
    int64_t n = state.range(0);
    int threads = static_cast<int>(state.range(1));
    Rng rng(1);
    Graph g;
    int a = g.input({n, n}, "a");
    int b = g.input({n, n}, "b");
    int node = g.add(OpKind::MatMul, {a, b});
    Tensor ta = Tensor::randn({n, n}, rng);
    Tensor tb = Tensor::randn({n, n}, rng);
    Tensor out({n, n});
    KernelCtx ctx;
    ctx.node = &g.node(node);
    ctx.in = {ta.data(), tb.data()};
    ctx.inShapes = {&g.node(a).shape, &g.node(b).shape};
    ctx.out = out.data();
    ctx.outShape = &g.node(node).shape;
    KernelInfo info = lookupKernelInfo(OpKind::MatMul, variant);
    WorkspaceSpec spec = kernelWorkspace(g, g.node(node), variant);
    ThreadPool *pool = HostDevice::instance().pool(threads);
    // Split by the REQUESTED thread count, not the pool's size — the
    // process-wide pool only grows, so a larger one may already exist.
    std::vector<int64_t> bounds =
        splitRange(info.part.extent(ctx), info.part.minGrain, threads);
    int shards = static_cast<int>(bounds.size()) - 1;
    // One workspace instance per shard, as the executor binds them.
    std::vector<std::vector<float>> shard_ws(
        std::max(1, shards),
        std::vector<float>((spec.bytesPerShard + 3) / 4, 0.0f));
    ctx.workspace = shard_ws[0].data();
    for (auto _ : state) {
        if (pool && shards > 1) {
            pool->dispatch(shards, [&](int i) {
                KernelCtx shard = ctx;
                shard.begin = bounds[i];
                shard.end = bounds[i + 1];
                shard.workspace = shard_ws[i].data();
                info.fn(shard);
            });
        } else {
            info.fn(ctx);
        }
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
    state.counters["GFLOP/s"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * 2e-9 *
            static_cast<double>(n) * static_cast<double>(n) *
            static_cast<double>(n),
        benchmark::Counter::kIsRate);
}

void
BM_ConvVariant(benchmark::State &state, const std::string &variant)
{
    int64_t ch = state.range(0);
    ConvFixture f(OpKind::Conv2d, ch, 16, 3);
    for (auto _ : state) {
        f.run(variant);
        benchmark::DoNotOptimize(f.out.data());
    }
}

void
BM_FusedConvBiasRelu(benchmark::State &state)
{
    int64_t ch = state.range(0);
    ConvFixture f(OpKind::ConvBiasAct, ch, 16, 3, kActRelu);
    for (auto _ : state) {
        f.run("");
        benchmark::DoNotOptimize(f.out.data());
    }
}

void
BM_UnfusedConvBiasRelu(benchmark::State &state)
{
    // Conv, then separate broadcast-add, then separate relu: three
    // dispatches and two extra buffer sweeps.
    int64_t ch = state.range(0);
    ConvFixture f(OpKind::Conv2d, ch, 16, 3);
    Graph g2;
    int ci = g2.input(f.g.node(f.node).shape, "c");
    int bi = g2.param({ch, 1, 1}, "b", false);
    int addn = g2.add(OpKind::Add, {ci, bi});
    int relun = g2.add(OpKind::Relu, {addn});
    Tensor mid(f.g.node(f.node).shape);
    Tensor out(f.g.node(f.node).shape);
    for (auto _ : state) {
        f.run("");
        KernelCtx a;
        a.node = &g2.node(addn);
        a.in = {f.out.data(), f.bias.data()};
        a.inShapes = {&g2.node(ci).shape, &g2.node(bi).shape};
        a.out = mid.data();
        a.outShape = &g2.node(addn).shape;
        lookupKernel(OpKind::Add, "")(a);
        KernelCtx r;
        r.node = &g2.node(relun);
        r.in = {mid.data()};
        r.inShapes = {&g2.node(addn).shape};
        r.out = out.data();
        r.outShape = &g2.node(relun).shape;
        lookupKernel(OpKind::Relu, "")(r);
        benchmark::DoNotOptimize(out.data());
    }
}

/**
 * Fused pointwise (1x1) conv + bias + relu, the MCUNet expand/project
 * layer: the direct loop vs the in-place "im2col" GEMM that
 * switchBackends binds (no unfold, no workspace).
 */
void
BM_PointwiseConvBiasRelu(benchmark::State &state,
                         const std::string &variant)
{
    int64_t ch = state.range(0);
    ConvFixture f(OpKind::ConvBiasAct, ch, 16, 1, kActRelu);
    for (auto _ : state) {
        f.run(variant);
        benchmark::DoNotOptimize(f.out.data());
        benchmark::ClobberMemory();
    }
}

/** Time one node's kernel @p variant over fixed random inputs;
 *  @p flops per call feeds items_per_second. */
void
nodeBench(benchmark::State &state, const Graph &g, int node,
          const std::string &variant, double flops)
{
    Rng rng(1);
    const Node &n = g.node(node);
    std::vector<Tensor> ins;
    KernelCtx ctx;
    ctx.node = &n;
    for (int i : n.inputs)
        ins.push_back(Tensor::randn(g.node(i).shape, rng, 0.5f));
    for (size_t i = 0; i < ins.size(); ++i) {
        ctx.in.push_back(ins[i].data());
        ctx.inShapes.push_back(&g.node(n.inputs[i]).shape);
    }
    Tensor out(n.shape);
    ctx.out = out.data();
    ctx.outShape = &n.shape;
    DirectWorkspace ws;
    ws.attach(ctx, g, n, variant);
    KernelFn fn = lookupKernel(n.op, variant);
    for (auto _ : state) {
        fn(ctx);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * flops));
}

Attrs
convAttrs(int64_t stride, int64_t pad)
{
    Attrs a;
    a.set("stride", stride);
    a.set("pad", pad);
    return a;
}

/**
 * The MCUNet stem at the sparse train step's shape: 8 images of 3 x
 * 16 x 16, a 3x3 stride-2 conv to 8 channels, fused bias + relu. The
 * direct loop vs the bounded-panel "im2col" GEMM (64 output pixels:
 * one 48-column panel and a 16-column one).
 */
void
BM_StemConvBiasRelu(benchmark::State &state, const std::string &variant)
{
    Graph g;
    int x = g.input({8, 3, 16, 16}, "x");
    int w = g.param({8, 3, 3, 3}, "w", false);
    int b = g.param({8, 1, 1}, "b", false);
    Attrs a = convAttrs(2, 1);
    a.set("act", static_cast<int64_t>(kActRelu));
    int node = g.add(OpKind::ConvBiasAct, {x, w, b}, std::move(a));
    nodeBench(state, g, node, variant, 2.0 * 8 * 8 * 64 * 27);
}

/**
 * The pointwise conv gradients of a train step's late block: 8 images,
 * 48 input and 16 output channels, an h x h plane (the arg). The
 * direct scatter loops ("") vs the "im2col" GEMMs: dX = W^T dY and
 * dW = sum over images of dY X^T.
 */
void
BM_PointwiseConvBwdInput(benchmark::State &state,
                         const std::string &variant)
{
    int64_t hw = state.range(0);
    Graph g;
    int w = g.input({16, 48, 1, 1}, "w");
    int dy = g.input({8, 16, hw, hw}, "dy");
    Attrs a = convAttrs(1, 0);
    a.set("xshape", Shape{8, 48, hw, hw});
    int node = g.add(OpKind::Conv2dBwdInput, {w, dy}, std::move(a));
    nodeBench(state, g, node, variant, 2.0 * 8 * 48 * 16 * hw * hw);
}

void
BM_PointwiseConvBwdWeight(benchmark::State &state,
                          const std::string &variant)
{
    int64_t hw = state.range(0);
    Graph g;
    int x = g.input({8, 48, hw, hw}, "x");
    int dy = g.input({8, 16, hw, hw}, "dy");
    Attrs a = convAttrs(1, 0);
    a.set("wshape", Shape{16, 48, 1, 1});
    int node = g.add(OpKind::Conv2dBwdWeight, {x, dy}, std::move(a));
    nodeBench(state, g, node, variant, 2.0 * 8 * 48 * 16 * hw * hw);
}

/**
 * A thin pointwise ConvBiasAct (8 images, 8 -> 48 channels, 8 x 8):
 * with K = 8 the GEMM is cheap, so the bias + activation epilogue
 * shows. Arg 0 runs no activation, arg 1 ReLU: the gap between the
 * rows is the ReLU pass, one branch-free select per element (random
 * signs made a per-element branch cost several times the GEMM).
 */
void
BM_ThinPointwiseConvBiasAct(benchmark::State &state,
                            const std::string &variant)
{
    Graph g;
    int x = g.input({8, 8, 8, 8}, "x");
    int w = g.param({48, 8, 1, 1}, "w", false);
    int b = g.param({48, 1, 1}, "b", false);
    Attrs a = convAttrs(1, 0);
    a.set("act", state.range(0) != 0 ? static_cast<int64_t>(kActRelu)
                                     : static_cast<int64_t>(kActNone));
    int node = g.add(OpKind::ConvBiasAct, {x, w, b}, std::move(a));
    nodeBench(state, g, node, variant, 2.0 * 8 * 48 * 8 * 64);
}

BENCHMARK_CAPTURE(BM_MatMul, naive, std::string(""))
    ->Arg(64)
    ->Arg(128);
BENCHMARK_CAPTURE(BM_MatMul, blocked, std::string("blocked"))
    ->Arg(64)
    ->Arg(128);
BENCHMARK_CAPTURE(BM_DecodeMatMul, naive, std::string(""));
BENCHMARK_CAPTURE(BM_DecodeMatMul, blocked, std::string("blocked"));
BENCHMARK_CAPTURE(BM_FusedMatMulBiasRelu, naive, std::string(""))
    ->Arg(128);
BENCHMARK_CAPTURE(BM_FusedMatMulBiasRelu, blocked, std::string("blocked"))
    ->Arg(128);
BENCHMARK_CAPTURE(BM_ConvVariant, direct, std::string(""))
    ->Arg(16)
    ->Arg(32);
BENCHMARK_CAPTURE(BM_ConvVariant, im2col, std::string("im2col"))
    ->Arg(16)
    ->Arg(32);
BENCHMARK_CAPTURE(BM_ConvVariant, winograd, std::string("winograd"))
    ->Arg(16)
    ->Arg(32);
/**
 * Int8 GEMM vs fp32: same logical [n,n]x[n,n] product, i8 operands
 * with int32 accumulation and per-column requant. Items processed
 * counts multiply-accumulates, so GOP/s is directly comparable with
 * the fp32 GFLOP/s counters above.
 */
void
BM_QuantMatMul(benchmark::State &state, const std::string &variant)
{
    int64_t n = state.range(0);
    Rng rng(1);
    Graph g;
    int a = g.input({n, n}, "a");
    int b = g.input({n, n}, "b");
    int s = g.input({n}, "s");
    Attrs at;
    at.set("xScale", 0.01);
    at.set("xZp", static_cast<int64_t>(3));
    at.set("yScale", 0.05);
    at.set("yZp", static_cast<int64_t>(0));
    at.set("perChannel", static_cast<int64_t>(1));
    at.set("hasBias", static_cast<int64_t>(0));
    int node = g.add(OpKind::QuantMatMul, {a, b, s}, std::move(at));
    std::vector<float> qa((n * n + 3) / 4), qb((n * n + 3) / 4);
    Rng vr(2);
    for (int64_t i = 0; i < n * n; ++i) {
        reinterpret_cast<int8_t *>(qa.data())[i] =
            static_cast<int8_t>(vr.randint(255) - 127);
        reinterpret_cast<int8_t *>(qb.data())[i] =
            static_cast<int8_t>(vr.randint(255) - 127);
    }
    std::vector<float> scales(static_cast<size_t>(n), 0.02f);
    std::vector<float> out((n * n + 3) / 4);
    KernelCtx ctx;
    ctx.node = &g.node(node);
    ctx.in = {qa.data(), qb.data(), scales.data()};
    ctx.inShapes = {&g.node(a).shape, &g.node(b).shape,
                    &g.node(s).shape};
    ctx.out = out.data();
    ctx.outShape = &g.node(node).shape;
    DirectWorkspace ws;
    ws.attach(ctx, g, g.node(node), variant);
    KernelFn fn = lookupKernel(OpKind::QuantMatMul, variant);
    for (auto _ : state) {
        fn(ctx);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
    state.counters["GOP/s"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * 2e-9 *
            static_cast<double>(n) * static_cast<double>(n) *
            static_cast<double>(n),
        benchmark::Counter::kIsRate);
}

/** The five depthwise layers of the MCUNet proxy's sparse train step
 *  (batch 8, 16 x 16 input, width 0.5, 5 blocks): x channels and
 *  plane, kernel, stride, pad. */
struct DwShape {
    int64_t ch, hw, k, stride, pad;
};
constexpr DwShape kMcuNetDw[] = {{8, 8, 3, 1, 1},
                                 {24, 8, 5, 2, 2},
                                 {36, 4, 3, 1, 1},
                                 {36, 4, 7, 2, 3},
                                 {60, 2, 3, 1, 1}};
constexpr int64_t kDwImages = 8;

/** One kernel call per depthwise shape, inputs fixed and random. */
struct DwSuite {
    Graph g;
    std::vector<int> nodes;
    std::vector<std::vector<Tensor>> ins;
    std::vector<Tensor> outs;
    std::vector<KernelCtx> ctxs;
    std::vector<DirectWorkspace> ws;
    double macs = 0;

    /** @p backward: DwConv2dBwdInput of each layer, else its fused
     *  DwConvBiasAct with ReLU. */
    DwSuite(bool backward, const std::string &variant)
        : ws(std::size(kMcuNetDw))
    {
        Rng rng(1);
        for (const DwShape &s : kMcuNetDw) {
            Shape xs{kDwImages, s.ch, s.hw, s.hw}, w{s.ch, 1, s.k, s.k};
            Attrs a = convAttrs(s.stride, s.pad);
            int64_t o = convOutDim(s.hw, s.k, s.stride, s.pad);
            Shape ys{kDwImages, s.ch, o, o};
            std::vector<int> in;
            if (backward) {
                a.set("xshape", xs);
                in = {g.input(w, "w"), g.input(ys, "dy")};
                nodes.push_back(
                    g.add(OpKind::DwConv2dBwdInput, in, std::move(a)));
            } else {
                a.set("act", static_cast<int64_t>(kActRelu));
                in = {g.input(xs, "x"), g.input(w, "w"),
                      g.input({s.ch, 1, 1}, "b")};
                nodes.push_back(
                    g.add(OpKind::DwConvBiasAct, in, std::move(a)));
            }
            ins.emplace_back();
            for (int i : in)
                ins.back().push_back(
                    Tensor::randn(g.node(i).shape, rng, 0.5f));
            macs += static_cast<double>(numel(ys)) * s.k * s.k;
        }
        for (size_t i = 0; i < nodes.size(); ++i) {
            const Node &n = g.node(nodes[i]);
            outs.emplace_back(n.shape);
            KernelCtx c;
            c.node = &n;
            for (size_t j = 0; j < ins[i].size(); ++j) {
                c.in.push_back(ins[i][j].data());
                c.inShapes.push_back(&g.node(n.inputs[j]).shape);
            }
            c.out = outs.back().data();
            c.outShape = &n.shape;
            ws[i].attach(c, g, n, variant);
            ctxs.push_back(c);
        }
    }
};

/** Run every layer of a DwSuite per iteration; items count MACs. */
void
dwSuiteBench(benchmark::State &state, bool backward,
             const std::string &variant)
{
    DwSuite f(backward, variant);
    KernelFn fn = lookupKernel(f.g.node(f.nodes[0]).op, variant);
    for (auto _ : state) {
        for (const KernelCtx &c : f.ctxs)
            fn(c);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * 2 * f.macs));
}

/**
 * The sparse train step's depthwise layers, forward (fused bias +
 * ReLU) and input gradient: the direct NCHW loops ("") vs the
 * channel-lane "packed" body, whose tier forms are bit-identical to
 * it. bench_check.py holds each tier row to 2x its direct row
 * (DwSuiteRegistrar).
 */
void
BM_DwConvBiasRelu(benchmark::State &state, const std::string &variant)
{
    dwSuiteBench(state, false, variant);
}

void
BM_DwConvBwdInput(benchmark::State &state, const std::string &variant)
{
    dwSuiteBench(state, true, variant);
}

/**
 * One int8 depthwise layer over random i8 codes: per-channel scales,
 * bias and ReLU, the kernel bound with its workspace. Items count
 * multiply-accumulates.
 */
struct QuantDwLayer {
    Graph g;
    std::vector<float> x, w, bias, scales, out;
    KernelCtx ctx;
    DirectWorkspace ws;
    double macs = 0;

    QuantDwLayer(const DwShape &s, int64_t images,
                 const std::string &variant)
    {
        int64_t nx = images * s.ch * s.hw * s.hw, nw = s.ch * s.k * s.k;
        int xi = g.input({images, s.ch, s.hw, s.hw}, "x");
        int wi = g.input({s.ch, 1, s.k, s.k}, "w");
        int bi = g.input({s.ch, 1, 1}, "b");
        int si = g.input({s.ch}, "s");
        Attrs a = convAttrs(s.stride, s.pad);
        a.set("act", static_cast<int64_t>(kActRelu));
        a.set("hasBias", static_cast<int64_t>(1));
        a.set("perChannel", static_cast<int64_t>(1));
        a.set("xScale", 0.01);
        a.set("xZp", static_cast<int64_t>(3));
        a.set("yScale", 0.02);
        a.set("yZp", static_cast<int64_t>(0));
        int node =
            g.add(OpKind::QuantDwConv2d, {xi, wi, bi, si}, std::move(a));
        x.resize((nx + 3) / 4);
        w.resize((nw + 3) / 4);
        Rng vr(2);
        for (int64_t i = 0; i < nx; ++i)
            reinterpret_cast<int8_t *>(x.data())[i] =
                static_cast<int8_t>(vr.randint(255) - 127);
        for (int64_t i = 0; i < nw; ++i)
            reinterpret_cast<int8_t *>(w.data())[i] =
                static_cast<int8_t>(vr.randint(255) - 127);
        bias.assign(static_cast<size_t>(s.ch), 0.1f);
        scales.assign(static_cast<size_t>(s.ch), 0.02f);
        const Node &n = g.node(node);
        int64_t out_n = numel(n.shape);
        out.resize((out_n + 3) / 4);
        ctx.node = &n;
        ctx.in = {x.data(), w.data(), bias.data(), scales.data()};
        for (int in : n.inputs)
            ctx.inShapes.push_back(&g.node(in).shape);
        ctx.out = out.data();
        ctx.outShape = &n.shape;
        ws.attach(ctx, g, n, variant);
        macs = static_cast<double>(out_n) * s.k * s.k;
    }
};

/**
 * Int8 depthwise conv: the MCUNet/MobileNetV2 hot loop, one 16 x 16
 * image of range(0) channels. "" is the dequant->fp32->requant
 * reference tier the native kernel replaced; "int8" is the scalar
 * native kernel; the SIMD row registers when the host has the tier.
 */
void
BM_QuantDwConv(benchmark::State &state, const std::string &variant)
{
    QuantDwLayer l({state.range(0), 16, 3, 1, 1}, 1, variant);
    KernelFn fn = lookupKernel(OpKind::QuantDwConv2d, variant);
    for (auto _ : state) {
        fn(l.ctx);
        benchmark::DoNotOptimize(l.out.data());
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * 2 * l.macs));
}

/**
 * The int8 depthwise over the same five layers (the int8 burst's
 * shapes at batch 8), registered as "BM_QuantDwConv/<variant>/mcunet"
 * (DwSuiteRegistrar).
 */
void
BM_QuantDwConvSuite(benchmark::State &state, const std::string &variant)
{
    std::vector<std::unique_ptr<QuantDwLayer>> layers;
    double macs = 0;
    for (const DwShape &s : kMcuNetDw) {
        layers.push_back(
            std::make_unique<QuantDwLayer>(s, kDwImages, variant));
        macs += layers.back()->macs;
    }
    KernelFn fn = lookupKernel(OpKind::QuantDwConv2d, variant);
    for (auto _ : state) {
        for (const auto &l : layers)
            fn(l->ctx);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * 2 * macs));
}

/** An int8 conv layer: ci -> co channels, k x k at stride / pad over
 *  hw x hw planes of @p images images. */
struct QConvShape {
    const char *name;
    int64_t ci, co, hw, k, stride, pad, images;
};

/** The MCUNet int8 burst's conv shapes at batch 8: the 3x3 stride-2
 *  stem, the 8 -> 24 expand at 8 x 8, and the projects at 4 x 4 and
 *  2 x 2 (36 -> 12, 60 -> 20). */
constexpr QConvShape kMcuNetQConv[] = {
    {"mcunet_stem", 3, 8, 16, 3, 2, 1, 8},
    {"mcunet_8x24", 8, 24, 8, 1, 1, 0, 8},
    {"mcunet_36x12", 36, 12, 4, 1, 1, 0, 8},
    {"mcunet_60x20", 60, 20, 2, 1, 1, 0, 8}};

/**
 * One int8 conv layer (relu, bias, per-channel scales) on random
 * codes. "" is the dequant->fp32->requant reference, "int8" the
 * scalar native kernel, "int8@<tier>" the host's tier. Items processed
 * counts multiply-accumulates.
 */
void
runQuantConv(benchmark::State &state, const QConvShape &s,
             const std::string &variant)
{
    Graph g;
    int xi = g.input({s.images, s.ci, s.hw, s.hw}, "x");
    int wi = g.input({s.co, s.ci, s.k, s.k}, "w");
    int bi = g.input({s.co, 1, 1}, "b");
    int si = g.input({s.co}, "s");
    Attrs a = convAttrs(s.stride, s.pad);
    a.set("act", static_cast<int64_t>(1)); // relu
    a.set("hasBias", static_cast<int64_t>(1));
    a.set("perChannel", static_cast<int64_t>(1));
    a.set("xScale", 0.01);
    a.set("xZp", static_cast<int64_t>(3));
    a.set("yScale", 0.02);
    a.set("yZp", static_cast<int64_t>(0));
    int node = g.add(OpKind::QuantConv2d, {xi, wi, bi, si}, std::move(a));
    int64_t nx = s.images * s.ci * s.hw * s.hw;
    int64_t nw = s.co * s.ci * s.k * s.k;
    std::vector<float> qx((nx + 3) / 4), qw((nw + 3) / 4);
    Rng vr(2);
    for (int64_t i = 0; i < nx; ++i)
        reinterpret_cast<int8_t *>(qx.data())[i] =
            static_cast<int8_t>(vr.randint(255) - 127);
    for (int64_t i = 0; i < nw; ++i)
        reinterpret_cast<int8_t *>(qw.data())[i] =
            static_cast<int8_t>(vr.randint(255) - 127);
    std::vector<float> bias(static_cast<size_t>(s.co), 0.1f);
    std::vector<float> scales(static_cast<size_t>(s.co), 0.002f);
    int64_t out_n = numel(g.node(node).shape);
    std::vector<float> out((out_n + 3) / 4);
    KernelCtx ctx;
    ctx.node = &g.node(node);
    ctx.in = {qx.data(), qw.data(), bias.data(), scales.data()};
    ctx.inShapes = {&g.node(xi).shape, &g.node(wi).shape,
                    &g.node(bi).shape, &g.node(si).shape};
    ctx.out = out.data();
    ctx.outShape = &g.node(node).shape;
    DirectWorkspace ws;
    ws.attach(ctx, g, g.node(node), variant);
    KernelFn fn = lookupKernel(OpKind::QuantConv2d, variant);
    for (auto _ : state) {
        fn(ctx);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * 2 * out_n * s.ci * s.k *
                            s.k);
}

/**
 * Int8 pointwise conv: MCUNet's other int8 hot op (the 1x1 expand and
 * project layers of every inverted-residual block), ch -> ch channels
 * over one 16x16 image.
 */
void
BM_QuantConv(benchmark::State &state, const std::string &variant)
{
    int64_t ch = state.range(0);
    runQuantConv(state, {"", ch, ch, 16, 1, 1, 0, 1}, variant);
}

/**
 * Fused decode attention vs the unfused five-op chain
 * (BatchMatMul^T -> Scale -> Add(mask) -> Softmax -> BatchMatMul) at
 * the decode hot-loop shape: B rows of q against a cached [B,M,Dh]
 * K/V slab, M = 32, Dh = 32. B = 16 is the LLaMA-proxy decode bucket
 * (4 streams x 4 heads, dim 128); B = 4 one stream. Both ops in one
 * graph over the same buffers: the fused op reads them in its one
 * form (q [B,Dh], mask [B,M], heads 1), the chain as q [B,1,Dh] and
 * mask [B,1,M]. Kernels are invoked directly, so the delta is kernel
 * work plus the chain's intermediate-buffer sweeps. The chain's
 * BatchMatMuls use the naive "" reference variant; a compiled decode
 * plan never runs the chain, because it fuses it.
 */
struct AttnFixture {
    Graph g;
    int fused, qk, sc, ad, sm, pv;
    Tensor q, k, v, mask;
    Tensor scores, scaled, masked, probs, out;

    AttnFixture(int64_t B, int64_t M, int64_t Dh)
    {
        Rng rng(1);
        int qi = g.input({B, 1, Dh}, "q");
        int ki = g.input({B, M, Dh}, "k");
        int vi = g.input({B, M, Dh}, "v");
        int mi = g.input({B, 1, M}, "mask");
        const double scale = 1.0 / std::sqrt(static_cast<double>(Dh));
        Attrs fa;
        fa.set("scale", scale);
        fa.set("heads", static_cast<int64_t>(1));
        fused = g.add(OpKind::FusedAttention,
                      {g.input({B, Dh}, "q2"), ki, vi,
                       g.input({B, M}, "mask2")},
                      std::move(fa));
        Attrs tb;
        tb.set("transB", static_cast<int64_t>(1));
        qk = g.add(OpKind::BatchMatMul, {qi, ki}, std::move(tb));
        Attrs al;
        al.set("alpha", scale);
        sc = g.add(OpKind::Scale, {qk}, std::move(al));
        ad = g.add(OpKind::Add, {sc, mi});
        sm = g.add(OpKind::Softmax, {ad});
        pv = g.add(OpKind::BatchMatMul, {sm, vi});
        q = Tensor::randn({B, 1, Dh}, rng);
        k = Tensor::randn({B, M, Dh}, rng);
        v = Tensor::randn({B, M, Dh}, rng);
        mask = Tensor::zeros({B, 1, M});
        scores = Tensor::zeros(g.node(qk).shape);
        scaled = Tensor::zeros(g.node(sc).shape);
        masked = Tensor::zeros(g.node(ad).shape);
        probs = Tensor::zeros(g.node(sm).shape);
        out = Tensor::zeros(g.node(fused).shape);
    }

    KernelCtx
    make(int node, std::vector<const float *> ins, Tensor &o)
    {
        KernelCtx c;
        const Node &n = g.node(node);
        c.node = &n;
        c.in = std::move(ins);
        for (int in : n.inputs)
            c.inShapes.push_back(&g.node(in).shape);
        c.out = o.data();
        c.outShape = &n.shape;
        return c;
    }
};

void
BM_FusedAttention(benchmark::State &state, const std::string &variant)
{
    int64_t B = state.range(0);
    AttnFixture f(B, 32, 32);
    KernelCtx c = f.make(
        f.fused, {f.q.data(), f.k.data(), f.v.data(), f.mask.data()},
        f.out);
    DirectWorkspace ws;
    ws.attach(c, f.g, f.g.node(f.fused), variant);
    KernelFn fn = lookupKernel(OpKind::FusedAttention, variant);
    for (auto _ : state) {
        fn(c);
        benchmark::DoNotOptimize(f.out.data());
    }
    state.SetItemsProcessed(state.iterations() * B);
}

void
BM_UnfusedAttention(benchmark::State &state)
{
    int64_t B = state.range(0);
    AttnFixture f(B, 32, 32);
    KernelCtx cqk =
        f.make(f.qk, {f.q.data(), f.k.data()}, f.scores);
    KernelCtx csc = f.make(f.sc, {f.scores.data()}, f.scaled);
    KernelCtx cad =
        f.make(f.ad, {f.scaled.data(), f.mask.data()}, f.masked);
    KernelCtx csm = f.make(f.sm, {f.masked.data()}, f.probs);
    KernelCtx cpv =
        f.make(f.pv, {f.probs.data(), f.v.data()}, f.out);
    DirectWorkspace w1, w2, w3, w4, w5;
    w1.attach(cqk, f.g, f.g.node(f.qk), "");
    w2.attach(csc, f.g, f.g.node(f.sc), "");
    w3.attach(cad, f.g, f.g.node(f.ad), "");
    w4.attach(csm, f.g, f.g.node(f.sm), "");
    w5.attach(cpv, f.g, f.g.node(f.pv), "");
    KernelFn fqk = lookupKernel(OpKind::BatchMatMul, "");
    KernelFn fsc = lookupKernel(OpKind::Scale, "");
    KernelFn fad = lookupKernel(OpKind::Add, "");
    KernelFn fsm = lookupKernel(OpKind::Softmax, "");
    KernelFn fpv = lookupKernel(OpKind::BatchMatMul, "");
    for (auto _ : state) {
        fqk(cqk);
        fsc(csc);
        fad(cad);
        fsm(csm);
        fpv(cpv);
        benchmark::DoNotOptimize(f.out.data());
    }
    state.SetItemsProcessed(state.iterations() * B);
}

BENCHMARK(BM_FusedConvBiasRelu)->Arg(16)->Arg(32);
BENCHMARK(BM_UnfusedConvBiasRelu)->Arg(16)->Arg(32);
BENCHMARK_CAPTURE(BM_PointwiseConvBiasRelu, direct, std::string(""))
    ->Arg(32)
    ->Arg(64);
BENCHMARK_CAPTURE(BM_PointwiseConvBiasRelu, im2col,
                  std::string("im2col"))
    ->Arg(32)
    ->Arg(64);
BENCHMARK_CAPTURE(BM_StemConvBiasRelu, direct, std::string(""));
BENCHMARK_CAPTURE(BM_StemConvBiasRelu, im2col, std::string("im2col"));
BENCHMARK_CAPTURE(BM_PointwiseConvBwdInput, direct, std::string(""))
    ->Arg(2)
    ->Arg(8);
BENCHMARK_CAPTURE(BM_PointwiseConvBwdInput, im2col, std::string("im2col"))
    ->Arg(2)
    ->Arg(8);
BENCHMARK_CAPTURE(BM_PointwiseConvBwdWeight, direct, std::string(""))
    ->Arg(2)
    ->Arg(8);
BENCHMARK_CAPTURE(BM_PointwiseConvBwdWeight, im2col,
                  std::string("im2col"))
    ->Arg(2)
    ->Arg(8);
BENCHMARK_CAPTURE(BM_ThinPointwiseConvBiasAct, im2col,
                  std::string("im2col"))
    ->Arg(0)
    ->Arg(1);
BENCHMARK_CAPTURE(BM_FusedAttention, base, std::string(""))
    ->Arg(4)
    ->Arg(16);
BENCHMARK(BM_UnfusedAttention)->Arg(4)->Arg(16);
BENCHMARK_CAPTURE(BM_QuantMatMul, int8, std::string("int8"))
    ->Arg(64)
    ->Arg(128);
BENCHMARK_CAPTURE(BM_QuantDwConv, ref, std::string(""))
    ->Arg(32)
    ->Arg(96);
BENCHMARK_CAPTURE(BM_QuantDwConv, int8, std::string("int8"))
    ->Arg(32)
    ->Arg(96);
/**
 * The three depthwise suites, each reference row ("direct" / "ref")
 * registered right before its scalar and tier rows, so the rows
 * bench_check.py pairs in one snapshot run seconds apart.
 */
struct DwSuiteRegistrar {
    DwSuiteRegistrar()
    {
        detail::ensureKernelsRegistered();
        SimdTier t = hostSimdTier();
        std::string sfx =
            t == SimdTier::Scalar ? "" : std::string("@") + simdTierName(t);
        struct Suite {
            const char *family, *ref, *base, *tail;
            OpKind op;
            void (*fn)(benchmark::State &, const std::string &);
        };
        for (const Suite &s :
             {Suite{"BM_DwConvBiasRelu", "direct", "packed", "",
                    OpKind::DwConvBiasAct, BM_DwConvBiasRelu},
              Suite{"BM_DwConvBwdInput", "direct", "packed", "",
                    OpKind::DwConv2dBwdInput, BM_DwConvBwdInput},
              Suite{"BM_QuantDwConv", "ref", "int8", "/mcunet",
                    OpKind::QuantDwConv2d, BM_QuantDwConvSuite}}) {
            std::string family = std::string(s.family) + "/";
            std::vector<std::pair<std::string, std::string>> rows = {
                {s.ref, ""}, {s.base, s.base}};
            if (!sfx.empty() && hasKernelVariant(s.op, s.base + sfx))
                rows.push_back({s.base + sfx, s.base + sfx});
            for (const auto &[name, variant] : rows)
                benchmark::RegisterBenchmark(
                    (family + name + s.tail).c_str(), s.fn, variant);
        }
    }
};
DwSuiteRegistrar g_dwSuiteRegistrar;

BENCHMARK_CAPTURE(BM_QuantConv, ref, std::string(""))
    ->Arg(32)
    ->Arg(96);
BENCHMARK_CAPTURE(BM_QuantConv, int8, std::string("int8"))
    ->Arg(32)
    ->Arg(96);

/**
 * "BM_QuantConv/int8/<shape>" at each kMcuNetQConv shape, each scalar
 * row registered right before its "int8@<tier>" row, so the rows
 * bench_check.py pairs in one snapshot run seconds apart.
 */
struct QConvSuiteRegistrar {
    QConvSuiteRegistrar()
    {
        detail::ensureKernelsRegistered();
        SimdTier t = hostSimdTier();
        std::vector<std::string> variants = {"int8"};
        std::string tier = std::string("int8@") + simdTierName(t);
        if (t != SimdTier::Scalar &&
            hasKernelVariant(OpKind::QuantConv2d, tier))
            variants.push_back(tier);
        for (const QConvShape &s : kMcuNetQConv)
            for (const std::string &v : variants)
                benchmark::RegisterBenchmark(
                    ("BM_QuantConv/" + v + "/" + s.name).c_str(),
                    [s, v](benchmark::State &state) {
                        runQuantConv(state, s, v);
                    });
    }
};
QConvSuiteRegistrar g_qconvSuiteRegistrar;

/**
 * Tracing overhead on the executor hot loop (src/obs/): a small MLP
 * forward program run through Executor::run(). arm = 0 is the
 * DISARMED path — the contract is a null-ring test per step, so
 * this row must sit within noise of the pre-tracing baseline (it is
 * the row bench_check.py gates). arm = 1 runs with the span ring
 * armed (one clock pair + ring store per step) — informational, to
 * keep the armed cost honest too.
 */
void
BM_TraceOverhead(benchmark::State &state)
{
    const bool armed = state.range(0) != 0;
    Graph g;
    Rng rng(7);
    ParamStore store;
    NetBuilder nb(g, rng, &store);
    int x = nb.input({8, 16}, "x");
    int h = nb.relu(nb.linear(x, 64, "fc1"));
    h = nb.relu(nb.linear(h, 64, "fc2"));
    int logits = nb.linear(h, 4, "head");
    g.markOutput(logits);
    Executor ex(g, planProgram(g), store);
    Tensor in = Tensor::randn({8, 16}, rng);
    ex.bindInput("x", in);
    if (armed)
        ex.armTrace(1 << 16);
    for (auto _ : state) {
        ex.run();
        benchmark::DoNotOptimize(ex);
    }
    state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_TraceOverhead)->Arg(0)->Arg(1);

/** BM_MatMulThreads rows of one GEMM variant: 256^3 at 1, 2 and 4
 *  threads. */
void
registerMatMulThreads(const std::string &name, const std::string &variant)
{
    benchmark::RegisterBenchmark(name.c_str(), BM_MatMulThreads, variant)
        ->Args({256, 1})
        ->Args({256, 2})
        ->Args({256, 4})
        ->UseRealTime();
}

/**
 * SIMD-tier rows, registered at static init only when the host
 * registry actually has the tier variants (capability-gated
 * registration makes hasKernelVariant the probe). Row names embed the
 * variant ("BM_MatMul/blocked@avx2/128"), which is how the perf gate
 * recognizes tier-dependent rows.
 */
struct SimdBenchRegistrar {
    SimdBenchRegistrar()
    {
        detail::ensureKernelsRegistered();
        registerMatMulThreads("BM_MatMulThreads", "blocked");
        SimdTier t = hostSimdTier();
        if (t == SimdTier::Scalar)
            return;
        std::string sfx = std::string("@") + simdTierName(t);
        if (hasKernelVariant(OpKind::MatMul, "blocked" + sfx))
            benchmark::RegisterBenchmark(
                ("BM_MatMul/blocked" + sfx).c_str(), BM_MatMul,
                "blocked" + sfx)
                ->Arg(64)
                ->Arg(128);
        if (hasKernelVariant(OpKind::MatMul, "blocked" + sfx)) {
            benchmark::RegisterBenchmark(
                ("BM_DecodeMatMul/blocked" + sfx).c_str(),
                BM_DecodeMatMul, "blocked" + sfx);
            registerMatMulThreads("BM_MatMulThreads/blocked" + sfx,
                                  "blocked" + sfx);
        }
        if (hasKernelVariant(OpKind::MatMulBiasAct, "blocked" + sfx))
            benchmark::RegisterBenchmark(
                ("BM_FusedMatMulBiasRelu/blocked" + sfx).c_str(),
                BM_FusedMatMulBiasRelu, "blocked" + sfx)
                ->Arg(128);
        if (hasKernelVariant(OpKind::Conv2d, "im2col" + sfx))
            benchmark::RegisterBenchmark(
                ("BM_ConvVariant/im2col" + sfx).c_str(),
                [sfx](benchmark::State &state) {
                    BM_ConvVariant(state, "im2col" + sfx);
                })
                ->Arg(16)
                ->Arg(32);
        if (hasKernelVariant(OpKind::ConvBiasAct, "im2col" + sfx))
            benchmark::RegisterBenchmark(
                ("BM_PointwiseConvBiasRelu/im2col" + sfx).c_str(),
                BM_PointwiseConvBiasRelu, "im2col" + sfx)
                ->Arg(32)
                ->Arg(64);
        if (hasKernelVariant(OpKind::ConvBiasAct, "im2col" + sfx)) {
            benchmark::RegisterBenchmark(
                ("BM_StemConvBiasRelu/im2col" + sfx).c_str(),
                BM_StemConvBiasRelu, "im2col" + sfx);
            benchmark::RegisterBenchmark(
                ("BM_ThinPointwiseConvBiasAct/im2col" + sfx).c_str(),
                BM_ThinPointwiseConvBiasAct, "im2col" + sfx)
                ->Arg(0)
                ->Arg(1);
        }
        if (hasKernelVariant(OpKind::Conv2dBwdInput, "im2col" + sfx))
            benchmark::RegisterBenchmark(
                ("BM_PointwiseConvBwdInput/im2col" + sfx).c_str(),
                BM_PointwiseConvBwdInput, "im2col" + sfx)
                ->Arg(2)
                ->Arg(8);
        if (hasKernelVariant(OpKind::Conv2dBwdWeight, "im2col" + sfx))
            benchmark::RegisterBenchmark(
                ("BM_PointwiseConvBwdWeight/im2col" + sfx).c_str(),
                BM_PointwiseConvBwdWeight, "im2col" + sfx)
                ->Arg(2)
                ->Arg(8);
        if (hasKernelVariant(OpKind::QuantMatMul, "int8" + sfx))
            benchmark::RegisterBenchmark(
                ("BM_QuantMatMul/int8" + sfx).c_str(), BM_QuantMatMul,
                "int8" + sfx)
                ->Arg(64)
                ->Arg(128);
        if (hasKernelVariant(OpKind::QuantDwConv2d, "int8" + sfx))
            benchmark::RegisterBenchmark(
                ("BM_QuantDwConv/int8" + sfx).c_str(), BM_QuantDwConv,
                "int8" + sfx)
                ->Arg(32)
                ->Arg(96);
        if (hasKernelVariant(OpKind::QuantConv2d, "int8" + sfx))
            benchmark::RegisterBenchmark(
                ("BM_QuantConv/int8" + sfx).c_str(), BM_QuantConv,
                "int8" + sfx)
                ->Arg(32)
                ->Arg(96);
        // FusedAttention's tier candidate is the bare tier name (the
        // base variant is ""). The row still embeds "@avx2"/"@neon"
        // so the perf gate's tier detection recognizes it.
        if (hasKernelVariant(OpKind::FusedAttention, simdTierName(t)))
            benchmark::RegisterBenchmark(
                ("BM_FusedAttention/base" + sfx).c_str(),
                BM_FusedAttention, std::string(simdTierName(t)))
                ->Arg(4)
                ->Arg(16);
    }
};
SimdBenchRegistrar g_simdBenchRegistrar;

} // namespace
} // namespace pe

/**
 * Custom main instead of BENCHMARK_MAIN(): accepts `--json <path>`
 * (the repo-wide machine-readable bench flag, see
 * scripts/bench_json.sh) and translates it to google-benchmark's
 * JSON reporter flags.
 */
int
main(int argc, char **argv)
{
    std::vector<std::string> args;
    for (int i = 0; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            args.push_back("--benchmark_out=" + std::string(argv[i + 1]));
            args.push_back("--benchmark_out_format=json");
            ++i;
            continue;
        }
        args.push_back(argv[i]);
    }
    std::vector<char *> cargs;
    for (std::string &a : args)
        cargs.push_back(a.data());
    int cargc = static_cast<int>(cargs.size());
    benchmark::Initialize(&cargc, cargs.data());
    if (benchmark::ReportUnrecognizedArguments(cargc, cargs.data()))
        return 1;
    // Stamp the snapshot with what actually produced it, so
    // scripts/bench_check.py can reject debug-build numbers and tell
    // a missing SIMD row apart from an incapable host.
#ifdef NDEBUG
    benchmark::AddCustomContext("pe_build_type", "release");
#else
    benchmark::AddCustomContext("pe_build_type", "debug");
#endif
    benchmark::AddCustomContext("pe_simd_tier",
                                pe::simdTierName(pe::hostSimdTier()));
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
