/**
 * @file
 * Quantized kernels (int8 storage, int32 accumulation, float
 * requantization) plus the f32<->f16 storage casts.
 *
 * Two tiers per quant compute op:
 *  - "int8": the real integer kernel. GEMM and conv share one int8
 *    register tile with its lanes across output channels: the weights
 *    are packed per call into int8 pairs in the shard's workspace,
 *    and the activations become an int16 operand holding x - zp —
 *    A's rows, a pointwise conv's pixels read straight from x, or the
 *    pixels of an i8 im2col unfold whose padding cells hold the input
 *    zero-point, so (x - zp) vanishes exactly where fp32 would pad
 *    zeros. Both accumulate in int32 and requantize per output
 *    channel.
 *  - "" (default): a dequant->fp32->requant reference kernel that
 *    stages fp32 copies of its operands in its workspace and calls
 *    the existing fp32 kernel. Any op with no "int8" registration
 *    silently runs this tier — which the registry's fallback flag,
 *    and therefore CompileReport::kernelFallbacks, surfaces.
 *
 * Every quant compute op — including depthwise conv, historically the
 * largest fallback — has a native "int8" kernel. The GEMM, conv and
 * depthwise bodies live in kernel_bodies.h and are registered here on
 * the scalar tier; the SIMD tiers register the same bodies as
 * "int8@avx2"/"int8@neon", bit-exact to these (integer accumulation
 * has no reassociation hazard; requantization rounds identically).
 * The depthwise body is the packed one of the fp32 depthwise kernels:
 * int32 lanes across a block of kDwBlock channels.
 *
 * Thread-count invariance: every shard computes its output elements
 * with per-element exact integer accumulation and one final rounding,
 * so numThreads=N is bit-identical to numThreads=1 (asserted by
 * test_quant).
 */

#include <cmath>
#include <cstring>

#include "kernels/kernel.h"
#include "kernels/kernel_bodies.h"
#include "quant/quant.h"

namespace pe {
namespace {

using kutil::attrF;
using kutil::attrI;
using kutil::Requant;
using kutil::requantOf;

/** Flattened-index stride/extent of the per-channel axis. */
struct AxisView {
    int64_t inner = 1, channels = 1;

    int64_t
    channelOf(int64_t flat) const
    {
        return (flat / inner) % channels;
    }
};

AxisView
axisView(const Shape &s, int64_t axis)
{
    AxisView v;
    v.channels = s[axis];
    for (size_t i = axis + 1; i < s.size(); ++i)
        v.inner *= s[i];
    return v;
}

// ---- storage casts ----------------------------------------------------

void
quantizeK(const KernelCtx &c)
{
    int64_t n = numel(*c.outShape);
    int64_t hi = partitionEnd(c, n);
    const float *x = c.in[0];
    if (c.node->attrs.getString("dtype", "i8") == "f16") {
        uint16_t *out = reinterpret_cast<uint16_t *>(c.out);
        for (int64_t i = c.begin; i < hi; ++i)
            out[i] = floatToHalf(x[i]);
        return;
    }
    int8_t *out = reinterpret_cast<int8_t *>(c.out);
    if (c.in.size() > 1 && c.node->attrs.has("qaxis")) {
        // Per-channel symmetric (weights): scales from input 1.
        AxisView av =
            axisView(*c.outShape, c.node->attrs.getInt("qaxis"));
        const float *scales = c.in[1];
        for (int64_t i = c.begin; i < hi; ++i)
            out[i] = quantizeValue(x[i], scales[av.channelOf(i)], 0);
        return;
    }
    float s = attrF(c, "yScale", 1.0);
    int32_t zp = attrI(c, "yZp", 0);
    for (int64_t i = c.begin; i < hi; ++i)
        out[i] = quantizeValue(x[i], s, zp);
}

void
dequantizeK(const KernelCtx &c)
{
    int64_t n = numel(*c.outShape);
    int64_t hi = partitionEnd(c, n);
    if (c.node->attrs.getString("dtype", "i8") == "f16") {
        const uint16_t *x = reinterpret_cast<const uint16_t *>(c.in[0]);
        for (int64_t i = c.begin; i < hi; ++i)
            c.out[i] = halfToFloat(x[i]);
        return;
    }
    const int8_t *x = reinterpret_cast<const int8_t *>(c.in[0]);
    if (c.in.size() > 1 && c.node->attrs.has("qaxis")) {
        AxisView av =
            axisView(*c.outShape, c.node->attrs.getInt("qaxis"));
        const float *scales = c.in[1];
        for (int64_t i = c.begin; i < hi; ++i)
            c.out[i] = dequantizeValue(x[i], scales[av.channelOf(i)], 0);
        return;
    }
    float s = attrF(c, "xScale", 1.0);
    int32_t zp = attrI(c, "xZp", 0);
    for (int64_t i = c.begin; i < hi; ++i)
        c.out[i] = dequantizeValue(x[i], s, zp);
}

void
requantizeK(const KernelCtx &c)
{
    int64_t n = numel(*c.outShape);
    int64_t hi = partitionEnd(c, n);
    const int8_t *x = reinterpret_cast<const int8_t *>(c.in[0]);
    int8_t *out = reinterpret_cast<int8_t *>(c.out);
    float xs = attrF(c, "xScale", 1.0), ys = attrF(c, "yScale", 1.0);
    int32_t xzp = attrI(c, "xZp", 0), yzp = attrI(c, "yZp", 0);
    for (int64_t i = c.begin; i < hi; ++i)
        out[i] = quantizeValue(dequantizeValue(x[i], xs, xzp), ys, yzp);
}

// ---- int8 elementwise -------------------------------------------------

void
qaddK(const KernelCtx &c)
{
    int64_t n = numel(*c.outShape);
    int64_t hi = partitionEnd(c, n);
    const int8_t *a = reinterpret_cast<const int8_t *>(c.in[0]);
    const int8_t *b = reinterpret_cast<const int8_t *>(c.in[1]);
    int8_t *out = reinterpret_cast<int8_t *>(c.out);
    float as = attrF(c, "xScale", 1.0), bs = attrF(c, "bScale", 1.0);
    float ys = attrF(c, "yScale", 1.0);
    int32_t azp = attrI(c, "xZp", 0), bzp = attrI(c, "bZp", 0);
    int32_t yzp = attrI(c, "yZp", 0);
    for (int64_t i = c.begin; i < hi; ++i) {
        float v = dequantizeValue(a[i], as, azp) +
                  dequantizeValue(b[i], bs, bzp);
        out[i] = quantizeValue(v, ys, yzp);
    }
}

void
qreluK(const KernelCtx &c)
{
    int64_t n = numel(*c.outShape);
    int64_t hi = partitionEnd(c, n);
    const int8_t *x = reinterpret_cast<const int8_t *>(c.in[0]);
    int8_t *out = reinterpret_cast<int8_t *>(c.out);
    float xs = attrF(c, "xScale", 1.0), ys = attrF(c, "yScale", 1.0);
    int32_t xzp = attrI(c, "xZp", 0), yzp = attrI(c, "yZp", 0);
    for (int64_t i = c.begin; i < hi; ++i) {
        float v = dequantizeValue(x[i], xs, xzp);
        out[i] = quantizeValue(v > 0 ? v : 0.0f, ys, yzp);
    }
}

// ---- native int8 workspaces ----------------------------------------
//
// The int8 bodies are kutil::qmatmulK / qconvK / qdwConvK
// (kernel_bodies.h), shared with the SIMD tiers; these are their
// scratch declarations, inherited by every tier variant.

/** The int8 tile workspace of the GEMM: K x N packed weights and
 *  one row block of operand (kutil::QTile). */
WorkspaceSpec
qmatmulWorkspace(const Graph &g, const Node &n)
{
    const Shape &a = g.node(n.inputs[0]).shape;
    int64_t k = a[n.attrs.getInt("transA", 0) != 0 ? 0 : 1];
    WorkspaceSpec spec;
    spec.bytesPerShard = kutil::qtileBytes(k, n.shape[1], kutil::kQTileRows, 0);
    return spec;
}

/** The int8 tile workspace of the conv: packed weights, one pixel
 *  panel's operand and, unless the conv is pointwise, its i8 unfold. */
WorkspaceSpec
qconvWorkspace(const Graph &g, const Node &n)
{
    const Shape &w = g.node(n.inputs[1]).shape;
    int64_t k = w[1] * w[2] * w[3];
    int64_t panel = std::min(n.shape[2] * n.shape[3], kutil::kQPanelRows);
    WorkspaceSpec spec;
    spec.bytesPerShard = kutil::qtileBytes(
        k, w[0], panel, isPointwiseConv(w, n.attrs) ? 0 : k * panel);
    return spec;
}

/** The packed int8 depthwise: one band of x rows and the taps,
 *  kDwBlock i8 lanes each, per shard. */
WorkspaceSpec
qdwWorkspace(const Graph &g, const Node &n)
{
    WorkspaceSpec spec;
    spec.bytesPerShard = kutil::dwPackedElems(g, n);
    return spec;
}

// ---- reference tier: dequant -> fp32 kernel -> requant ---------------

/**
 * Generic fallback for quant compute ops without an integer kernel.
 * Stages fp32 copies of the activation and weight in the workspace,
 * runs the corresponding fp32 kernel, and requantizes the fp32
 * result. Serial by construction (no PartitionSpec) — this is the
 * slow path the compile report's fallback counter exists to expose.
 */
template <OpKind PlainOp, OpKind BiasOp, int64_t WAxis>
void
refQuantK(const KernelCtx &c)
{
    int64_t nx = numel(*c.inShapes[0]);
    int64_t nw = numel(*c.inShapes[1]);
    int64_t ny = numel(*c.outShape);
    float *fx = c.workspace;
    float *fw = fx + nx;
    float *fy = fw + nw;
    Requant rq = requantOf(c);

    const int8_t *qx = reinterpret_cast<const int8_t *>(c.in[0]);
    for (int64_t i = 0; i < nx; ++i)
        fx[i] = dequantizeValue(qx[i], rq.xScale, rq.xZp);
    const int8_t *qw = reinterpret_cast<const int8_t *>(c.in[1]);
    AxisView av = axisView(*c.inShapes[1], WAxis);
    for (int64_t i = 0; i < nw; ++i) {
        float sw = rq.wScales ? rq.wScales[av.channelOf(i)] : rq.wScale;
        fw[i] = dequantizeValue(qw[i], sw, 0);
    }

    bool has_bias = rq.bias != nullptr;
    KernelCtx sub;
    Node proxy = *c.node; // attrs (stride/pad/trans/act) pass through
    proxy.op = has_bias ? BiasOp : PlainOp;
    sub.node = &proxy;
    sub.in = {fx, fw};
    sub.inShapes = {c.inShapes[0], c.inShapes[1]};
    if (has_bias) {
        sub.in.push_back(rq.bias);
        sub.inShapes.push_back(c.inShapes[2]);
    }
    sub.out = fy;
    sub.outShape = c.outShape;
    sub.step = c.step;
    lookupKernel(proxy.op, "")(sub);

    int8_t *out = reinterpret_cast<int8_t *>(c.out);
    for (int64_t i = 0; i < ny; ++i)
        out[i] = quantizeValue(fy[i], rq.yScale, rq.yZp);
}

/** Per-tensor matmul axis resolves transB at run time, so the ref
 *  matmul picks the weight axis dynamically. */
void
refQMatmulK(const KernelCtx &c)
{
    if (c.node->attrs.getInt("transB", 0) != 0)
        refQuantK<OpKind::MatMul, OpKind::MatMulBiasAct, 0>(c);
    else
        refQuantK<OpKind::MatMul, OpKind::MatMulBiasAct, 1>(c);
}

WorkspaceSpec
refQuantWorkspace(const Graph &g, const Node &n)
{
    WorkspaceSpec spec;
    spec.bytesPerShard = 4 * (numel(g.node(n.inputs[0]).shape) +
                              numel(g.node(n.inputs[1]).shape) +
                              numel(n.shape));
    return spec;
}

} // namespace

namespace detail {

void
registerQuantizedKernels()
{
    PartitionSpec elems{part::outElems, 1024};
    PartitionSpec rows{part::outDim0, 8};
    PartitionSpec images{part::outDim0, 1};
    PartitionSpec channelBlocks{part::outChannelBlocks, 1};

    registerKernel(OpKind::Quantize, "", quantizeK, elems);
    registerKernel(OpKind::Dequantize, "", dequantizeK, elems);
    registerKernel(OpKind::Requantize, "", requantizeK, elems);

    // Elementwise int8 is the same code at both tiers.
    registerKernel(OpKind::QuantAdd, "", qaddK, elems);
    registerKernel(OpKind::QuantAdd, "int8", qaddK, elems);
    registerKernel(OpKind::QuantRelu, "", qreluK, elems);
    registerKernel(OpKind::QuantRelu, "int8", qreluK, elems);

    registerKernel(OpKind::QuantMatMul, "", refQMatmulK, {},
                   refQuantWorkspace);
    registerKernel(OpKind::QuantMatMul, "int8",
                   kutil::qmatmulK<kutil::ScalarLanes>, rows,
                   qmatmulWorkspace);

    registerKernel(OpKind::QuantConv2d, "",
                   refQuantK<OpKind::Conv2d, OpKind::ConvBiasAct, 0>, {},
                   refQuantWorkspace);
    registerKernel(OpKind::QuantConv2d, "int8",
                   kutil::qconvK<kutil::ScalarLanes>, images,
                   qconvWorkspace);

    registerKernel(OpKind::QuantDwConv2d, "",
                   refQuantK<OpKind::DwConv2d, OpKind::DwConvBiasAct, 0>,
                   {}, refQuantWorkspace);
    // The native int8 depthwise tier: the former "largest fallback on
    // every MCUNet int8 compile" (ROADMAP) is now a real kernel, so
    // int8 compiles report zero QuantDwConv2d fallbacks.
    registerKernel(OpKind::QuantDwConv2d, "int8",
                   kutil::qdwConvK<kutil::ScalarLanes>, channelBlocks,
                   qdwWorkspace);
}

} // namespace detail
} // namespace pe
