/**
 * @file
 * Quantized-execution tests.
 *
 * Layers of guarantees, mirroring the subsystem's structure:
 *  1. Quant math: parameter choice, code round-trips, f16 casts.
 *  2. Kernels: the "int8" integer kernels match the dequant->fp32->
 *     requant reference tier within one output quantum; elementwise
 *     requant semantics are exact.
 *  3. Calibration: observers stamp sound ranges; moving-average
 *     differs from min/max under outliers.
 *  4. QuantizePass: forward region rewritten, backward stays fp32,
 *     Dequantize->Quantize chains fold, outputs dequantized.
 *  5. End-to-end McuNet: int8 forward top-1 agreement >= 99% vs
 *     fp32, sparse-BP fine-tuning on the quantized forward decreases
 *     loss, numThreads=4 is bit-identical to numThreads=1, and the
 *     deployed int8 footprint is <= 0.35x of fp32 (f16 in between).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "engine/engine.h"
#include "frontend/builder.h"
#include "frontend/models.h"
#include "ir/serialize.h"
#include "kernels/kernel.h"
#include "kernels/kernel_util.h"
#include "quant/quant.h"
#include "testutil.h"

namespace pe {
namespace {

using test::Feeds;

// ---- helpers ---------------------------------------------------------

/** Byte buffer usable as a KernelCtx float* while holding i8 codes. */
struct I8Buf {
    std::vector<float> storage;

    explicit I8Buf(int64_t n) : storage(static_cast<size_t>((n + 3) / 4 + 1), 0.0f) {}

    int8_t *data() { return reinterpret_cast<int8_t *>(storage.data()); }
    const float *asF32() const { return storage.data(); }
    float *asF32Mut() { return storage.data(); }
};

/** Quantize a float tensor into codes with the given params. */
void
quantizeInto(const Tensor &t, float scale, int32_t zp, I8Buf &out)
{
    for (int64_t i = 0; i < t.size(); ++i)
        out.data()[i] = quantizeValue(t[i], scale, zp);
}

/** Per-channel symmetric weight quantization along @p axis. */
std::vector<float>
quantizeWeight(const Tensor &w, int64_t axis, I8Buf &out)
{
    const Shape &s = w.shape();
    int64_t inner = 1;
    for (size_t i = axis + 1; i < s.size(); ++i)
        inner *= s[i];
    std::vector<float> maxabs(static_cast<size_t>(s[axis]), 0.0f);
    for (int64_t i = 0; i < w.size(); ++i) {
        int64_t c = (i / inner) % s[axis];
        maxabs[c] = std::max(maxabs[c], std::fabs(w[i]));
    }
    std::vector<float> scales(maxabs.size());
    for (size_t c = 0; c < scales.size(); ++c)
        scales[c] = chooseWeightScale(maxabs[c]);
    for (int64_t i = 0; i < w.size(); ++i) {
        int64_t c = (i / inner) % s[axis];
        out.data()[i] = quantizeValue(w[i], scales[c], 0);
    }
    return scales;
}

/** Max |a - b| over decoded i8 outputs, in CODES. */
int
maxCodeDiff(const I8Buf &a, const I8Buf &b, int64_t n)
{
    int worst = 0;
    const int8_t *pa = reinterpret_cast<const int8_t *>(a.asF32());
    const int8_t *pb = reinterpret_cast<const int8_t *>(b.asF32());
    for (int64_t i = 0; i < n; ++i)
        worst = std::max(worst, std::abs(static_cast<int>(pa[i]) -
                                         static_cast<int>(pb[i])));
    return worst;
}

// ---- 1. quant math ---------------------------------------------------

TEST(QuantMath, ChooseParamsCoversRangeAndZero)
{
    QuantParams p = chooseQuantParams(-1.5f, 3.0f);
    EXPECT_NEAR(p.scale, 4.5f / 255.0f, 1e-6f);
    // Zero must be exactly representable.
    float zero = dequantizeValue(
        quantizeValue(0.0f, p.scale, p.zeroPoint), p.scale, p.zeroPoint);
    EXPECT_EQ(zero, 0.0f);
    // All-positive ranges widen to include zero (ReLU outputs).
    QuantParams q = chooseQuantParams(0.5f, 2.0f);
    EXPECT_EQ(q.zeroPoint, -128);
}

TEST(QuantMath, RoundTripWithinHalfQuantum)
{
    QuantParams p = chooseQuantParams(-2.0f, 2.0f);
    Rng rng(3);
    Tensor t = Tensor::uniform({1000}, rng, -2.0f, 2.0f);
    for (int64_t i = 0; i < t.size(); ++i) {
        float r = dequantizeValue(quantizeValue(t[i], p.scale, p.zeroPoint),
                                  p.scale, p.zeroPoint);
        EXPECT_LE(std::fabs(r - t[i]), p.scale * 0.5f + 1e-7f);
    }
}

TEST(QuantMath, HalfRoundTrip)
{
    // Exactly-representable halves survive unchanged.
    for (float v : {0.0f, 1.0f, -2.5f, 0.09375f, 65504.0f})
        EXPECT_EQ(halfToFloat(floatToHalf(v)), v);
    // Arbitrary values round within half-precision epsilon.
    Rng rng(4);
    Tensor t = Tensor::uniform({1000}, rng, -100.0f, 100.0f);
    for (int64_t i = 0; i < t.size(); ++i) {
        float r = halfToFloat(floatToHalf(t[i]));
        EXPECT_LE(std::fabs(r - t[i]),
                  std::fabs(t[i]) * (1.0f / 1024.0f) + 1e-6f);
    }
    // Subnormal and overflow behavior.
    EXPECT_EQ(halfToFloat(floatToHalf(1e-8f)), 0.0f);
    EXPECT_TRUE(std::isinf(halfToFloat(floatToHalf(1e6f))));
}

// ---- 2. kernels ------------------------------------------------------

/** Build a QuantMatMul node and run a variant on given i8 operands. */
struct QMatmulFixture {
    Graph g;
    int node;
    int64_t m = 12, k = 24, n = 10;
    Tensor a, w, bias;
    I8Buf qa{m * k}, qw{k * n}, out{m * n};
    std::vector<float> wscales;
    QuantParams ap, yp;
    DirectWorkspace ws;

    QMatmulFixture(bool with_bias, int64_t act)
    {
        Rng rng(7);
        a = Tensor::uniform({m, k}, rng, -1.0f, 1.0f);
        w = Tensor::uniform({k, n}, rng, -0.8f, 0.8f);
        bias = Tensor::uniform({n}, rng, -0.5f, 0.5f);
        ap = chooseQuantParams(-1.0f, 1.0f);
        yp = chooseQuantParams(-6.0f, 6.0f);
        quantizeInto(a, ap.scale, ap.zeroPoint, qa);
        wscales = quantizeWeight(w, 1, qw);

        int ia = g.input({m, k}, "a");
        int iw = g.input({k, n}, "w");
        int ib = g.input({n}, "b");
        int is = g.input({n}, "s");
        Attrs at;
        at.set("xScale", static_cast<double>(ap.scale));
        at.set("xZp", static_cast<int64_t>(ap.zeroPoint));
        at.set("yScale", static_cast<double>(yp.scale));
        at.set("yZp", static_cast<int64_t>(yp.zeroPoint));
        at.set("perChannel", static_cast<int64_t>(1));
        at.set("hasBias", static_cast<int64_t>(with_bias ? 1 : 0));
        at.set("act", act);
        std::vector<int> inputs = {ia, iw};
        if (with_bias)
            inputs.push_back(ib);
        inputs.push_back(is);
        node = g.add(OpKind::QuantMatMul, inputs, std::move(at));
    }

    void
    run(const std::string &variant, I8Buf &dst)
    {
        const Node &nd = g.node(node);
        KernelCtx c;
        c.node = &nd;
        c.in = {qa.asF32(), qw.asF32()};
        c.inShapes = {&g.node(nd.inputs[0]).shape,
                      &g.node(nd.inputs[1]).shape};
        if (nd.attrs.getInt("hasBias", 0)) {
            c.in.push_back(bias.data());
            c.inShapes.push_back(&g.node(nd.inputs[2]).shape);
        }
        c.in.push_back(wscales.data());
        c.inShapes.push_back(
            &g.node(nd.inputs[nd.inputs.size() - 1]).shape);
        c.out = dst.asF32Mut();
        c.outShape = &nd.shape;
        ws.attach(c, g, nd, variant);
        lookupKernel(OpKind::QuantMatMul, variant)(c);
    }

    /** Float reference on the DEQUANTIZED operands. */
    float
    ref(int64_t i, int64_t j) const
    {
        float acc = 0;
        for (int64_t kk = 0; kk < k; ++kk) {
            acc += dequantizeValue(
                       reinterpret_cast<const int8_t *>(
                           qa.asF32())[i * k + kk],
                       ap.scale, ap.zeroPoint) *
                   dequantizeValue(
                       reinterpret_cast<const int8_t *>(
                           qw.asF32())[kk * n + j],
                       wscales[j], 0);
        }
        return acc;
    }
};

TEST(QuantKernels, Int8GemmMatchesDequantReference)
{
    for (bool with_bias : {false, true}) {
        QMatmulFixture f(with_bias, with_bias ? kActRelu : kActNone);
        I8Buf fast(f.m * f.n), slow(f.m * f.n);
        f.run("int8", fast);
        f.run("", slow); // reference tier: dequant -> fp32 -> requant
        // Same math, different rounding paths: within one code.
        EXPECT_LE(maxCodeDiff(fast, slow, f.m * f.n), 1);
        // And against an explicit float reference within one quantum.
        const int8_t *q = reinterpret_cast<const int8_t *>(fast.asF32());
        for (int64_t i = 0; i < f.m; ++i) {
            for (int64_t j = 0; j < f.n; ++j) {
                float r = f.ref(i, j);
                if (with_bias)
                    r += f.bias[j];
                if (f.g.node(f.node).attrs.getInt("act", 0) == kActRelu)
                    r = r > 0 ? r : 0;
                r = std::min(r, (127 - f.yp.zeroPoint) * f.yp.scale);
                r = std::max(r, (-128 - f.yp.zeroPoint) * f.yp.scale);
                float got = dequantizeValue(q[i * f.n + j], f.yp.scale,
                                            f.yp.zeroPoint);
                EXPECT_LE(std::fabs(got - r), f.yp.scale * 1.01f)
                    << "at (" << i << "," << j << ")";
            }
        }
    }
}

TEST(QuantKernels, Int8GemmShardsAreBitIdentical)
{
    QMatmulFixture f(true, kActRelu);
    I8Buf full(f.m * f.n), sharded(f.m * f.n);
    f.run("int8", full);
    // Replay the same kernel over explicit row shards.
    const Node &nd = f.g.node(f.node);
    KernelCtx c;
    c.node = &nd;
    c.in = {f.qa.asF32(), f.qw.asF32(), f.bias.data(), f.wscales.data()};
    c.inShapes = {&f.g.node(nd.inputs[0]).shape,
                  &f.g.node(nd.inputs[1]).shape,
                  &f.g.node(nd.inputs[2]).shape,
                  &f.g.node(nd.inputs[3]).shape};
    c.out = sharded.asF32Mut();
    c.outShape = &nd.shape;
    DirectWorkspace ws;
    for (int64_t b = 0; b < f.m; b += 5) {
        c.begin = b;
        c.end = std::min(b + 5, f.m);
        ws.attach(c, f.g, nd, "int8");
        lookupKernel(OpKind::QuantMatMul, "int8")(c);
    }
    EXPECT_EQ(maxCodeDiff(full, sharded, f.m * f.n), 0);
}

TEST(QuantKernels, Int8ConvMatchesDequantReference)
{
    Rng rng(11);
    int64_t N = 2, Ci = 3, H = 8, W = 8, Co = 4, K = 3;
    Tensor x = Tensor::uniform({N, Ci, H, W}, rng, -1.0f, 1.0f);
    Tensor w = Tensor::uniform({Co, Ci, K, K}, rng, -0.6f, 0.6f);
    Tensor bias = Tensor::uniform({Co, 1, 1}, rng, -0.3f, 0.3f);
    QuantParams xp = chooseQuantParams(-1.0f, 1.0f);
    QuantParams yp = chooseQuantParams(-4.0f, 4.0f);
    I8Buf qx(x.size()), qw(w.size());
    quantizeInto(x, xp.scale, xp.zeroPoint, qx);
    std::vector<float> wscales = quantizeWeight(w, 0, qw);

    Graph g;
    int ix = g.input({N, Ci, H, W}, "x");
    int iw = g.input({Co, Ci, K, K}, "w");
    int ib = g.input({Co, 1, 1}, "b");
    int is = g.input({Co}, "s");
    Attrs at;
    at.set("stride", static_cast<int64_t>(1));
    at.set("pad", static_cast<int64_t>(1));
    at.set("act", static_cast<int64_t>(kActRelu));
    at.set("hasBias", static_cast<int64_t>(1));
    at.set("perChannel", static_cast<int64_t>(1));
    at.set("xScale", static_cast<double>(xp.scale));
    at.set("xZp", static_cast<int64_t>(xp.zeroPoint));
    at.set("yScale", static_cast<double>(yp.scale));
    at.set("yZp", static_cast<int64_t>(yp.zeroPoint));
    int node = g.add(OpKind::QuantConv2d, {ix, iw, ib, is},
                     std::move(at));
    const Node &nd = g.node(node);

    auto run = [&](const std::string &variant, I8Buf &dst) {
        KernelCtx c;
        c.node = &nd;
        c.in = {qx.asF32(), qw.asF32(), bias.data(), wscales.data()};
        c.inShapes = {&g.node(ix).shape, &g.node(iw).shape,
                      &g.node(ib).shape, &g.node(is).shape};
        c.out = dst.asF32Mut();
        c.outShape = &nd.shape;
        DirectWorkspace ws;
        ws.attach(c, g, nd, variant);
        lookupKernel(OpKind::QuantConv2d, variant)(c);
    };
    int64_t out_n = numel(nd.shape);
    I8Buf fast(out_n), slow(out_n);
    run("int8", fast);
    run("", slow);
    EXPECT_LE(maxCodeDiff(fast, slow, out_n), 1);

    // Per-image shards replay bit-identically.
    I8Buf sharded(out_n);
    KernelCtx c;
    c.node = &nd;
    c.in = {qx.asF32(), qw.asF32(), bias.data(), wscales.data()};
    c.inShapes = {&g.node(ix).shape, &g.node(iw).shape,
                  &g.node(ib).shape, &g.node(is).shape};
    c.out = sharded.asF32Mut();
    c.outShape = &nd.shape;
    DirectWorkspace ws;
    for (int64_t img = 0; img < N; ++img) {
        c.begin = img;
        c.end = img + 1;
        ws.attach(c, g, nd, "int8");
        lookupKernel(OpKind::QuantConv2d, "int8")(c);
    }
    EXPECT_EQ(maxCodeDiff(fast, sharded, out_n), 0);
}

TEST(QuantKernels, ZeroPointOutsideInt8IsRejected)
{
    // A zero point is an int8 code: the int8 kernels pad with it and
    // the depthwise kernel's 16-bit products assume its range. Shape
    // inference refuses any other value, naming the node and the
    // attribute, so Graph::add and graphFromJson do too.
    auto build = [](OpKind op, const std::string &key, int64_t zp) {
        Graph g;
        int x = g.input({1, 2, 4, 4}, "x");
        int w = g.input({2, 2, 3, 3}, "w");
        Attrs at;
        at.set("pad", static_cast<int64_t>(1));
        at.set("xScale", 0.02);
        at.set("yScale", 0.05);
        at.set(key, zp);
        std::vector<int> inputs = {x};
        if (op == OpKind::QuantConv2d || op == OpKind::QuantAdd)
            inputs.push_back(op == OpKind::QuantAdd ? x : w);
        g.add(op, inputs, std::move(at), "bad");
        return g;
    };
    struct Case {
        OpKind op;
        const char *key;
        int64_t zp;
    };
    for (const Case &k : {Case{OpKind::QuantConv2d, "xZp", 200},
                          Case{OpKind::QuantConv2d, "yZp", -129},
                          Case{OpKind::QuantAdd, "bZp", 128},
                          Case{OpKind::Quantize, "yZp", 128},
                          Case{OpKind::Dequantize, "xZp", -200}}) {
        SCOPED_TRACE(std::string(opName(k.op)) + " " + k.key);
        try {
            build(k.op, k.key, k.zp);
            ADD_FAILURE() << "an out-of-range zero point was accepted";
        } catch (const std::invalid_argument &e) {
            std::string what = e.what();
            EXPECT_NE(what.find("'bad'"), std::string::npos) << what;
            EXPECT_NE(what.find(k.key), std::string::npos) << what;
        }
        EXPECT_NO_THROW(build(k.op, k.key, k.zp < 0 ? -128 : 127));
    }

    std::string json = graphToJson(build(OpKind::QuantConv2d, "xZp", 100));
    EXPECT_NO_THROW(graphFromJson(json));
    const std::string legal = "\"xZp\":{\"i\":100}";
    size_t at = json.find(legal);
    ASSERT_NE(at, std::string::npos);
    json.replace(at, legal.size(), "\"xZp\":{\"i\":200}");
    EXPECT_THROW(graphFromJson(json), std::invalid_argument);
}

TEST(QuantKernels, ExtremeZeroPointsMatchAnInt32LoopExactly)
{
    // At both ends of the input zero point's range, the int8 conv and
    // depthwise kernels (scalar and this host's tier) equal an int32
    // loop over each output's in-bounds taps requantized by
    // Requant::emit, code for code, and the dequant reference within
    // the one code its fp32 rounding allows. Pad 1 puts zero-point
    // taps on every border; 9 channels fill one 8-lane depthwise
    // block and start another.
    const int64_t N = 2, C = 9, HW = 6, K = 3;
    Rng rng(43);
    for (bool dw : {false, true})
    for (int64_t zp : {int64_t{-128}, int64_t{127}}) {
        const OpKind op = dw ? OpKind::QuantDwConv2d : OpKind::QuantConv2d;
        SCOPED_TRACE(std::string(opName(op)) + " xZp " + std::to_string(zp));
        const int64_t ci = dw ? 1 : C;
        I8Buf qx(N * C * HW * HW), qw(C * ci * K * K);
        for (int64_t i = 0; i < N * C * HW * HW; ++i)
            qx.data()[i] = static_cast<int8_t>(rng.randint(256) - 128);
        for (int64_t i = 0; i < C * ci * K * K; ++i)
            qw.data()[i] = static_cast<int8_t>(rng.randint(256) - 128);
        std::vector<float> bias(C), scales(C);
        for (int64_t c = 0; c < C; ++c) {
            bias[c] = rng.uniform(-0.5f, 0.5f);
            scales[c] = rng.uniform(0.0005f, 0.002f);
        }
        Graph g;
        int ix = g.input({N, C, HW, HW}, "x");
        int iw = g.input({C, ci, K, K}, "w");
        int ib = g.input({C, 1, 1}, "b");
        int is = g.input({C}, "s");
        Attrs at;
        at.set("stride", static_cast<int64_t>(1));
        at.set("pad", static_cast<int64_t>(1));
        at.set("hasBias", static_cast<int64_t>(1));
        at.set("perChannel", static_cast<int64_t>(1));
        at.set("xScale", 0.02);
        at.set("xZp", zp);
        at.set("yScale", 0.05);
        at.set("yZp", static_cast<int64_t>(3));
        const Node &nd = g.node(g.add(op, {ix, iw, ib, is}, std::move(at)));
        const int64_t out_n = numel(nd.shape);

        kutil::Requant rq;
        rq.xScale = 0.02f;
        rq.wScale = 1.0f;
        rq.yScale = 0.05f;
        rq.xZp = static_cast<int32_t>(zp);
        rq.yZp = 3;
        rq.bias = bias.data();
        rq.wScales = scales.data();
        I8Buf want(out_n);
        const int8_t *x = qx.data(), *w = qw.data();
        for (int64_t n = 0; n < N; ++n)
        for (int64_t o = 0; o < C; ++o)
        for (int64_t i = 0; i < HW; ++i)
        for (int64_t j = 0; j < HW; ++j) {
            int32_t acc = 0;
            for (int64_t c = 0; c < ci; ++c)
            for (int64_t a = 0; a < K; ++a)
            for (int64_t b = 0; b < K; ++b) {
                int64_t ih = i - 1 + a, iw2 = j - 1 + b;
                if (ih < 0 || ih >= HW || iw2 < 0 || iw2 >= HW)
                    continue;
                int64_t xc = dw ? o : c;
                acc += (x[((n * C + xc) * HW + ih) * HW + iw2] - rq.xZp) *
                       w[((o * ci + c) * K + a) * K + b];
            }
            want.data()[((n * C + o) * HW + i) * HW + j] = rq.emit(acc, o);
        }

        auto run = [&](const std::string &variant) {
            I8Buf got(out_n);
            KernelCtx c;
            c.node = &nd;
            c.in = {qx.asF32(), qw.asF32(), bias.data(), scales.data()};
            for (int in : nd.inputs)
                c.inShapes.push_back(&g.node(in).shape);
            c.out = got.asF32Mut();
            c.outShape = &nd.shape;
            DirectWorkspace ws;
            ws.attach(c, g, nd, variant);
            lookupKernel(op, variant)(c);
            return got;
        };
        for (const std::string &v : test::variantAndTier(op, "int8"))
            EXPECT_EQ(maxCodeDiff(run(v), want, out_n), 0) << v;
        EXPECT_LE(maxCodeDiff(run(""), want, out_n), 1);
    }
}

TEST(QuantKernels, AddAndReluRequantExactly)
{
    Graph g;
    int ia = g.input({32}, "a");
    int ib = g.input({32}, "b");
    QuantParams ap = chooseQuantParams(-1.0f, 1.0f);
    QuantParams bp = chooseQuantParams(-2.0f, 2.0f);
    QuantParams yp = chooseQuantParams(-3.0f, 3.0f);
    Attrs at;
    at.set("xScale", static_cast<double>(ap.scale));
    at.set("xZp", static_cast<int64_t>(ap.zeroPoint));
    at.set("bScale", static_cast<double>(bp.scale));
    at.set("bZp", static_cast<int64_t>(bp.zeroPoint));
    at.set("yScale", static_cast<double>(yp.scale));
    at.set("yZp", static_cast<int64_t>(yp.zeroPoint));
    int add = g.add(OpKind::QuantAdd, {ia, ib}, at);

    Rng rng(5);
    Tensor a = Tensor::uniform({32}, rng, -1.0f, 1.0f);
    Tensor b = Tensor::uniform({32}, rng, -2.0f, 2.0f);
    I8Buf qa(32), qb(32), out(32);
    quantizeInto(a, ap.scale, ap.zeroPoint, qa);
    quantizeInto(b, bp.scale, bp.zeroPoint, qb);

    KernelCtx c;
    const Node &nd = g.node(add);
    c.node = &nd;
    c.in = {qa.asF32(), qb.asF32()};
    c.inShapes = {&g.node(ia).shape, &g.node(ib).shape};
    c.out = out.asF32Mut();
    c.outShape = &nd.shape;
    lookupKernel(OpKind::QuantAdd, "int8")(c);
    const int8_t *q = reinterpret_cast<const int8_t *>(out.asF32());
    for (int64_t i = 0; i < 32; ++i) {
        float want = dequantizeValue(
            quantizeValue(
                dequantizeValue(
                    reinterpret_cast<const int8_t *>(qa.asF32())[i],
                    ap.scale, ap.zeroPoint) +
                    dequantizeValue(
                        reinterpret_cast<const int8_t *>(qb.asF32())[i],
                        bp.scale, bp.zeroPoint),
                yp.scale, yp.zeroPoint),
            yp.scale, yp.zeroPoint);
        float got =
            dequantizeValue(q[i], yp.scale, yp.zeroPoint);
        EXPECT_EQ(got, want);
    }

    // Relu: codes below the zero image clamp to it exactly.
    Attrs rt;
    rt.set("xScale", static_cast<double>(ap.scale));
    rt.set("xZp", static_cast<int64_t>(ap.zeroPoint));
    rt.set("yScale", static_cast<double>(ap.scale));
    rt.set("yZp", static_cast<int64_t>(ap.zeroPoint));
    int relu = g.add(OpKind::QuantRelu, {ia}, rt);
    const Node &rn = g.node(relu);
    I8Buf rout(32);
    KernelCtx rc;
    rc.node = &rn;
    rc.in = {qa.asF32()};
    rc.inShapes = {&g.node(ia).shape};
    rc.out = rout.asF32Mut();
    rc.outShape = &rn.shape;
    lookupKernel(OpKind::QuantRelu, "int8")(rc);
    const int8_t *r = reinterpret_cast<const int8_t *>(rout.asF32());
    for (int64_t i = 0; i < 32; ++i) {
        float v = dequantizeValue(
            reinterpret_cast<const int8_t *>(qa.asF32())[i], ap.scale,
            ap.zeroPoint);
        float want = v > 0 ? v : 0.0f;
        EXPECT_NEAR(dequantizeValue(r[i], ap.scale, ap.zeroPoint), want,
                    ap.scale * 0.51f);
    }
}

// ---- 3. calibration --------------------------------------------------

TEST(Calibration, StampsObservedRanges)
{
    Graph g;
    Rng rng(9);
    ParamStore store;
    NetBuilder b(g, rng, &store);
    int x = b.input({4, 8}, "x");
    int h = b.relu(b.linear(x, 16, "fc1"));
    int y = b.linear(h, 4, "fc2");
    g.markOutput(y);

    std::vector<Feeds> batches;
    Rng drng(10);
    for (int i = 0; i < 3; ++i)
        batches.push_back(
            {{"x", Tensor::uniform({4, 8}, drng, -1.0f, 1.0f)}});
    int stamped = calibrate(g, store, batches);
    EXPECT_EQ(stamped, g.numNodes());
    // The relu output's range must be non-negative and non-trivial.
    const Node &rn = g.node(h);
    EXPECT_TRUE(rn.attrs.has(kCalibMinAttr));
    EXPECT_GE(rn.attrs.getFloat(kCalibMinAttr, -1.0), 0.0);
    EXPECT_GT(rn.attrs.getFloat(kCalibMaxAttr, 0.0), 0.0);
    // Input range reflects the fed data.
    EXPECT_LE(g.node(x).attrs.getFloat(kCalibMinAttr, 0.0), -0.8);
    EXPECT_GE(g.node(x).attrs.getFloat(kCalibMaxAttr, 0.0), 0.8);
}

TEST(Calibration, MovingAverageDampensOutliers)
{
    Graph g;
    int x = g.input({4}, "x");
    g.markOutput(x);
    ParamStore store;
    std::vector<Feeds> batches;
    // One outlier batch among small ones.
    batches.push_back({{"x", Tensor::full({4}, 1.0f)}});
    batches.push_back({{"x", Tensor::full({4}, 100.0f)}});
    batches.push_back({{"x", Tensor::full({4}, 1.0f)}});
    CalibrationOptions mm;
    mm.observer = ObserverKind::MinMax;
    auto rmm = observeRanges(g, store, batches, mm);
    CalibrationOptions ma;
    ma.observer = ObserverKind::MovingAverage;
    ma.momentum = 0.7;
    auto rma = observeRanges(g, store, batches, ma);
    EXPECT_EQ(rmm[x].mx, 100.0f);
    EXPECT_LT(rma[x].mx, 50.0f); // outlier damped
    EXPECT_GT(rma[x].mx, 1.0f);  // but not ignored
}

// ---- 4. QuantizePass -------------------------------------------------

/** A small trained+calibrated McuNet shared by the e2e tests. */
struct McuNetFixture {
    std::shared_ptr<ParamStore> store = std::make_shared<ParamStore>();
    ModelSpec m;
    /** Low-noise 4-class task: margins must clear quantization noise
     *  for the top-1 agreement bound to be meaningful. */
    SyntheticVision task{123, 4, 3, 16, 0.12f};
    Rng rng{42};

    McuNetFixture()
    {
        VisionConfig cfg;
        cfg.batch = 8;
        cfg.resolution = 16;
        cfg.numClasses = 4;
        cfg.width = 0.5;
        cfg.blocks = 3;
        m = buildMcuNet(cfg, rng, store.get());

        // Train briefly in fp32 so logits separate, then calibrate.
        // (lr chosen for stability: full-BP SGD on this net diverges
        // above ~5e-3; the fixture asserts it stayed finite so no
        // downstream test can "pass" on NaN weights.)
        CompileOptions topt;
        topt.optim = OptimConfig::sgd(0.002);
        TrainingProgram prog = compileTraining(
            m.graph, m.loss, SparseUpdateScheme::full(), topt, store);
        float first = 0, last = 0;
        for (int i = 0; i < 120; ++i) {
            Batch b = task.sample(8, rng);
            last = prog.trainStep({{"x", b.x}, {"y", b.y}});
            if (i == 0)
                first = last;
        }
        EXPECT_TRUE(std::isfinite(last));
        EXPECT_LT(last, first);
        std::vector<Feeds> calib;
        for (int i = 0; i < 4; ++i)
            calib.push_back({{"x", task.sample(8, rng).x}});
        calibrate(m.graph, *store, calib);
    }
};

TEST(QuantizePass, RewritesForwardKeepsBackwardF32)
{
    McuNetFixture f;
    CompileOptions opt;
    opt.precision = Precision::Int8;
    CompiledGraph c =
        compileGraphOnly(f.m.graph, f.m.loss, cnnSparseScheme(f.m, 2, 1),
                         opt, f.store.get());
    EXPECT_GT(c.report.quant.quantizedOps, 0);
    EXPECT_GT(c.report.quant.dequantizeNodes, 0);
    EXPECT_EQ(c.report.precision, Precision::Int8);

    // Backward ops never consume i8 directly and are never quantized.
    for (const Node &n : c.graph.nodes()) {
        switch (n.op) {
          case OpKind::Conv2dBwdInput:
          case OpKind::Conv2dBwdWeight:
          case OpKind::DwConv2dBwdInput:
          case OpKind::DwConv2dBwdWeight:
          case OpKind::ReluGrad:
          case OpKind::CrossEntropyGrad:
            EXPECT_EQ(n.dtype, DType::F32);
            for (int in : n.inputs)
                EXPECT_NE(c.graph.node(in).dtype, DType::I8)
                    << "backward op reads raw i8";
            break;
          default:
            break;
        }
    }
    // The i8 activation footprint is real and planned.
    EXPECT_GT(c.report.arenaBytesByDtype[static_cast<int>(DType::I8)], 0);
    // Every quant compute op — including depthwise — now has a native
    // int8 kernel, so an MCUNet-style int8 compile must report zero
    // dequant->fp32->requant fallbacks.
    for (const std::string &s : c.report.fallbackKernels)
        EXPECT_EQ(s.find("QuantDwConv2d"), std::string::npos)
            << "native int8 depthwise regressed to fallback: " << s;
    EXPECT_EQ(c.report.kernelFallbacks, 0);
    EXPECT_TRUE(c.report.fallbackBreakdown().empty());
}

TEST(QuantizePass, FoldsDequantQuantChains)
{
    // Hand-build qx -> Dequantize -> MatMul(weight) with calibration
    // attrs; the pass must reuse/requantize the stored i8 value
    // instead of inserting Dequantize->Quantize.
    Graph g;
    Rng rng(13);
    ParamStore store;
    int x = g.input({4, 8}, "x");
    QuantParams xp = chooseQuantParams(-1.0f, 1.0f);
    Attrs qa;
    qa.set("dtype", std::string("i8"));
    qa.set("yScale", static_cast<double>(xp.scale));
    qa.set("yZp", static_cast<int64_t>(xp.zeroPoint));
    int q = g.add(OpKind::Quantize, {x}, std::move(qa));
    Attrs dqa;
    dqa.set("dtype", std::string("i8"));
    dqa.set("xScale", static_cast<double>(xp.scale));
    dqa.set("xZp", static_cast<int64_t>(xp.zeroPoint));
    int dq = g.add(OpKind::Dequantize, {q}, std::move(dqa));
    int w = g.param({8, 4}, "w");
    store.set("w", Tensor::randn({8, 4}, rng, 0.3f));
    int mm = g.add(OpKind::MatMul, {dq, w});
    g.markOutput(mm);
    // Stamp calibration so dq and mm are quantizable; dq's range maps
    // to exactly the params the stored value already has.
    g.node(dq).attrs.set(kCalibMinAttr, -128.0 * xp.scale -
                                            xp.zeroPoint * xp.scale);
    g.node(dq).attrs.set(kCalibMaxAttr,
                         (127.0 - xp.zeroPoint) * xp.scale);
    g.node(mm).attrs.set(kCalibMinAttr, -2.0);
    g.node(mm).attrs.set(kCalibMaxAttr, 2.0);

    QuantizeOptions qo;
    qo.store = &store;
    QuantizeStats stats;
    quantizePass(g, qo, &stats);
    EXPECT_EQ(stats.requantFolded, 1);
    // The rewritten matmul reads the ORIGINAL stored i8 value (the
    // params match, so not even a Requantize is needed) — the
    // Dequantize->Quantize chain never materializes.
    const Node &qmm = g.node(mm);
    ASSERT_EQ(qmm.op, OpKind::QuantMatMul);
    EXPECT_EQ(qmm.inputs[0], q);
    EXPECT_EQ(stats.quantizeNodes, 1); // only the weight quantize
}

// ---- 5. end-to-end ---------------------------------------------------

TEST(QuantEndToEnd, McuNetTop1AgreementAtLeast99Percent)
{
    McuNetFixture f;
    CompileOptions fopt;
    InferenceProgram fp32 =
        compileInference(f.m.graph, {f.m.logits}, fopt, f.store);
    CompileOptions qopt;
    qopt.precision = Precision::Int8;
    InferenceProgram int8 =
        compileInference(f.m.graph, {f.m.logits}, qopt, f.store);

    int agree = 0, total = 0;
    for (int batch = 0; batch < 16; ++batch) {
        Batch b = f.task.sample(8, f.rng);
        Tensor lf = fp32.run({{"x", b.x}})[0];
        Tensor lq = int8.run({{"x", b.x}})[0];
        int64_t classes = lf.dim(1);
        for (int64_t i = 0; i < lf.dim(0); ++i) {
            auto argmax = [&](const Tensor &t) {
                int64_t best = 0;
                for (int64_t c = 1; c < classes; ++c) {
                    if (t[i * classes + c] > t[i * classes + best])
                        best = c;
                }
                return best;
            };
            agree += argmax(lf) == argmax(lq) ? 1 : 0;
            ++total;
        }
    }
    EXPECT_GE(agree, static_cast<int>(std::ceil(0.99 * total)))
        << agree << "/" << total;
}

TEST(QuantEndToEnd, SparseBpFineTuningOnQuantizedForwardDecreasesLoss)
{
    McuNetFixture f;
    // Fine-tune on a SHIFTED downstream task, sparse scheme, int8
    // forward — the paper's deployment scenario.
    SyntheticVision downstream = SyntheticVision::task("cars", 3, 16);
    CompileOptions opt;
    opt.precision = Precision::Int8;
    opt.optim = OptimConfig::sgd(0.005);
    TrainingProgram prog =
        compileTraining(f.m.graph, f.m.loss, cnnSparseScheme(f.m, 2, 1),
                        opt, f.store);
    Rng drng(77);
    Batch b = downstream.sample(8, drng);
    std::vector<float> losses;
    for (int i = 0; i < 10; ++i)
        losses.push_back(prog.trainStep({{"x", b.x}, {"y", b.y}}));
    EXPECT_LT(losses.back(), losses.front())
        << "first " << losses.front() << " last " << losses.back();
}

TEST(QuantEndToEnd, FourThreadsBitIdenticalToOne)
{
    McuNetFixture f;
    CompileOptions o1;
    o1.precision = Precision::Int8;
    o1.numThreads = 1;
    CompileOptions o4 = o1;
    o4.numThreads = 4;
    InferenceProgram p1 =
        compileInference(f.m.graph, {f.m.logits}, o1, f.store);
    InferenceProgram p4 =
        compileInference(f.m.graph, {f.m.logits}, o4, f.store);
    EXPECT_GT(p4.executor().shardedSteps(), 0);
    for (int batch = 0; batch < 3; ++batch) {
        Batch b = f.task.sample(8, f.rng);
        Tensor l1 = p1.run({{"x", b.x}})[0];
        Tensor l4 = p4.run({{"x", b.x}})[0];
        EXPECT_EQ(maxAbsDiff(l1, l4), 0.0f); // bit-identical
    }
}

TEST(QuantEndToEnd, DeployedInt8FootprintAtMost35PercentOfF32)
{
    McuNetFixture f;
    CompileOptions fopt;
    InferenceProgram fp32 =
        compileInference(f.m.graph, {f.m.logits}, fopt, f.store);
    CompileOptions qopt;
    qopt.precision = Precision::Int8;
    InferenceProgram int8 =
        compileInference(f.m.graph, {f.m.logits}, qopt, f.store);

    const CompileReport &rf = fp32.report();
    const CompileReport &rq = int8.report();
    // Activation + weight footprint: planned arena VALUE bytes (by
    // dtype; kernel workspaces are scratch, reported separately as in
    // every Table-4 row since Arena v2) plus weights (params +
    // consts). The i8 compile pre-quantizes frozen weights into i8
    // consts, so its fp32 params drop to the untouched biases.
    int64_t f32_fp = rf.actWeightBytes();
    int64_t i8_fp = rq.actWeightBytes();
    EXPECT_GT(rq.quant.prequantizedWeights, 0);
    EXPECT_GT(rq.constBytesByDtype[static_cast<int>(DType::I8)], 0);
    // The fp32 masters really dropped out of the deployed program.
    EXPECT_LT(rq.paramBytes, rf.paramBytes / 4);
    EXPECT_LE(static_cast<double>(i8_fp),
              0.35 * static_cast<double>(f32_fp))
        << "int8 " << i8_fp << " fp32 " << f32_fp;
}

TEST(QuantEndToEnd, F16ModeIsCloseAndSmaller)
{
    McuNetFixture f;
    CompileOptions fopt;
    InferenceProgram fp32 =
        compileInference(f.m.graph, {f.m.logits}, fopt, f.store);
    CompileOptions hopt;
    hopt.precision = Precision::F16;
    InferenceProgram fp16 =
        compileInference(f.m.graph, {f.m.logits}, hopt, f.store);

    Batch b = f.task.sample(8, f.rng);
    Tensor lf = fp32.run({{"x", b.x}})[0];
    Tensor lh = fp16.run({{"x", b.x}})[0];
    EXPECT_LT(maxAbsDiff(lf, lh), 0.08f);
    const CompileReport &rh = fp16.report();
    EXPECT_GT(rh.arenaBytesByDtype[static_cast<int>(DType::F16)], 0);
}

} // namespace
} // namespace pe
