/**
 * @file
 * NCHW convolution kernels: naive direct (default), im2col+GEMM
 * ("im2col"), their input/weight backward counterparts, and depthwise
 * variants: direct (default) and channel-lane packed ("packed"). Each
 * forward kernel serves its fused op too: ConvBiasAct and
 * DwConvBiasAct run the Conv2d / DwConv2d body of the same variant
 * followed by the shared bias + activation epilogue (kutil::Epilogue),
 * so a fused op is bit-identical to its unfused chain.
 * Conv2dBwdWeight honors the "limitCo" attribute so sub-layer
 * (channel-sparse) backpropagation computes gradients for only the
 * first k output channels (paper Section 2.6).
 *
 * Partitioning: forward kernels split over the flattened (image,
 * output-channel) pairs; the input backward over images (each image's
 * dx is scattered to independently); the weight backward over output
 * channels (each channel's dw rows accumulate over images
 * independently). "im2col" splits over images — every shard unfolds
 * into its own workspace column buffer (one kGemmBlock-column panel of
 * one image's column matrix at a time), so the kernel shards like any
 * other instead of being serialized by scratch. A pointwise conv reads
 * its input image in place and has no column buffer. For pointwise
 * convs the input and weight backward have "im2col" GEMM forms too,
 * bit-identical to the loops here on the scalar tier. The im2col
 * bodies are shared with the SIMD tiers (kernel_bodies.h).
 *
 * The depthwise forward and input gradient have a "packed" form that
 * shards over (image, 8-channel block) pairs: each shard packs its
 * block's input channel-lane-major into its workspace, a bounded band
 * of rows at a time, and runs 8 lanes over every output pixel's
 * in-bounds taps (kernel_bodies.h). It multiplies
 * then adds in the direct loops' order, so it is bit-identical to them
 * on every tier (the input gradient does not skip dY == 0, which
 * changes bits only for non-finite weights). The direct loops stay
 * the "" reference the eager baseline and the tests use.
 */

#include <algorithm>
#include <cstring>

#include "kernels/kernel.h"
#include "kernels/kernel_bodies.h"

namespace pe {
namespace {

struct ConvDims {
    int64_t n, ci, h, w;      // input
    int64_t co, kh, kw;       // weight
    int64_t ho, wo;           // output
    int64_t stride, pad;
};

ConvDims
dimsOf(const Shape &x, const Shape &w, const Shape &y, int64_t stride,
       int64_t pad)
{
    return {x[0], x[1], x[2], x[3], w[0], w[2], w[3], y[2], y[3],
            stride, pad};
}

/** Direct Conv2d / ConvBiasAct over (image, output-channel) planes. */
void
conv2dNaive(const KernelCtx &c)
{
    const Shape &xs = *c.inShapes[0];
    const Shape &ws = *c.inShapes[1];
    ConvDims d = dimsOf(xs, ws, *c.outShape,
                        c.node->attrs.getInt("stride", 1),
                        c.node->attrs.getInt("pad", 0));
    const float *x = c.in[0], *w = c.in[1];
    kutil::Epilogue ep = kutil::epilogueOf(c);
    int64_t hi = partitionEnd(c, d.n * d.co);
    for (int64_t idx = c.begin; idx < hi; ++idx) {
        int64_t n = idx / d.co, co = idx % d.co;
        for (int64_t ho = 0; ho < d.ho; ++ho) {
            for (int64_t wo = 0; wo < d.wo; ++wo) {
                float acc = 0;
                for (int64_t ci = 0; ci < d.ci; ++ci) {
                    for (int64_t kh = 0; kh < d.kh; ++kh) {
                        int64_t ih = ho * d.stride - d.pad + kh;
                        if (ih < 0 || ih >= d.h)
                            continue;
                        for (int64_t kw = 0; kw < d.kw; ++kw) {
                            int64_t iw = wo * d.stride - d.pad + kw;
                            if (iw < 0 || iw >= d.w)
                                continue;
                            acc += x[((n * d.ci + ci) * d.h + ih) *
                                         d.w + iw] *
                                   w[((co * d.ci + ci) * d.kh + kh) *
                                         d.kw + kw];
                        }
                    }
                }
                c.out[((n * d.co + co) * d.ho + ho) * d.wo + wo] = acc;
            }
        }
        ep.channel(c.out + idx * d.ho * d.wo, d.ho * d.wo, co);
    }
}

void
conv2dBwdInput(const KernelCtx &c)
{
    const Shape &ws = *c.inShapes[0];
    const Shape &dys = *c.inShapes[1];
    const Shape &xs = *c.outShape;
    ConvDims d = dimsOf(xs, ws, dys, c.node->attrs.getInt("stride", 1),
                        c.node->attrs.getInt("pad", 0));
    const float *w = c.in[0], *dy = c.in[1];
    int64_t lo = c.begin, hi = partitionEnd(c, d.n);
    int64_t image = d.ci * d.h * d.w;
    std::memset(c.out + lo * image, 0, sizeof(float) * (hi - lo) * image);
    for (int64_t n = lo; n < hi; ++n) {
        for (int64_t co = 0; co < d.co; ++co) {
            for (int64_t ho = 0; ho < d.ho; ++ho) {
                for (int64_t wo = 0; wo < d.wo; ++wo) {
                    float g = dy[((n * d.co + co) * d.ho + ho) * d.wo + wo];
                    if (g == 0.0f)
                        continue;
                    for (int64_t kh = 0; kh < d.kh; ++kh) {
                        int64_t ih = ho * d.stride - d.pad + kh;
                        if (ih < 0 || ih >= d.h)
                            continue;
                        for (int64_t kw = 0; kw < d.kw; ++kw) {
                            int64_t iw = wo * d.stride - d.pad + kw;
                            if (iw < 0 || iw >= d.w)
                                continue;
                            for (int64_t ci = 0; ci < d.ci; ++ci) {
                                c.out[((n * d.ci + ci) * d.h + ih) * d.w +
                                      iw] +=
                                    g * w[((co * d.ci + ci) * d.kh + kh) *
                                              d.kw + kw];
                            }
                        }
                    }
                }
            }
        }
    }
}

void
conv2dBwdWeight(const KernelCtx &c)
{
    const Shape &xs = *c.inShapes[0];
    const Shape &dys = *c.inShapes[1];
    Shape ws = c.node->attrs.getInts("wshape");
    ConvDims d = dimsOf(xs, ws, dys, c.node->attrs.getInt("stride", 1),
                        c.node->attrs.getInt("pad", 0));
    int64_t limit = (*c.outShape)[0]; // <= Co under "limitCo"
    const float *x = c.in[0], *dy = c.in[1];
    int64_t lo = c.begin, hi = partitionEnd(c, limit);
    int64_t wrow = d.ci * d.kh * d.kw;
    std::memset(c.out + lo * wrow, 0, sizeof(float) * (hi - lo) * wrow);
    // co outermost so shards own disjoint dw rows; per (co, ci, kh,
    // kw) entry the accumulation still runs in ascending-n order, so
    // results match the unpartitioned nest bit for bit.
    for (int64_t co = lo; co < hi; ++co) {
        for (int64_t n = 0; n < d.n; ++n) {
            for (int64_t ho = 0; ho < d.ho; ++ho) {
                for (int64_t wo = 0; wo < d.wo; ++wo) {
                    float g = dy[((n * d.co + co) * d.ho + ho) * d.wo + wo];
                    if (g == 0.0f)
                        continue;
                    for (int64_t ci = 0; ci < d.ci; ++ci) {
                        for (int64_t kh = 0; kh < d.kh; ++kh) {
                            int64_t ih = ho * d.stride - d.pad + kh;
                            if (ih < 0 || ih >= d.h)
                                continue;
                            for (int64_t kw = 0; kw < d.kw; ++kw) {
                                int64_t iw = wo * d.stride - d.pad + kw;
                                if (iw < 0 || iw >= d.w)
                                    continue;
                                c.out[((co * d.ci + ci) * d.kh + kh) *
                                          d.kw + kw] +=
                                    g * x[((n * d.ci + ci) * d.h + ih) *
                                              d.w + iw];
                            }
                        }
                    }
                }
            }
        }
    }
}

/** Direct DwConv2d / DwConvBiasAct over (image, channel) planes. */
void
dwConv2d(const KernelCtx &c)
{
    const Shape &xs = *c.inShapes[0];
    const Shape &ws = *c.inShapes[1];
    int64_t stride = c.node->attrs.getInt("stride", 1);
    int64_t pad = c.node->attrs.getInt("pad", 0);
    int64_t ch = xs[1], h = xs[2], w = xs[3];
    int64_t kh = ws[2], kw = ws[3];
    int64_t ho = (*c.outShape)[2], wo = (*c.outShape)[3];
    kutil::Epilogue ep = kutil::epilogueOf(c);
    int64_t hi = partitionEnd(c, xs[0] * ch);
    for (int64_t idx = c.begin; idx < hi; ++idx) {
        int64_t ci = idx % ch;
        const float *xp = c.in[0] + idx * h * w;
        const float *wp = c.in[1] + ci * kh * kw;
        float *op = c.out + idx * ho * wo;
        for (int64_t i = 0; i < ho; ++i) {
            for (int64_t j = 0; j < wo; ++j) {
                float acc = 0;
                for (int64_t a = 0; a < kh; ++a) {
                    int64_t ih = i * stride - pad + a;
                    if (ih < 0 || ih >= h)
                        continue;
                    for (int64_t b = 0; b < kw; ++b) {
                        int64_t iw = j * stride - pad + b;
                        if (iw < 0 || iw >= w)
                            continue;
                        acc += xp[ih * w + iw] * wp[a * kw + b];
                    }
                }
                op[i * wo + j] = acc;
            }
        }
        ep.channel(op, ho * wo, ci);
    }
}

void
dwConv2dBwdInput(const KernelCtx &c)
{
    const Shape &ws = *c.inShapes[0];
    const Shape &dys = *c.inShapes[1];
    const Shape &xs = *c.outShape;
    int64_t stride = c.node->attrs.getInt("stride", 1);
    int64_t pad = c.node->attrs.getInt("pad", 0);
    int64_t ch = xs[1], h = xs[2], w = xs[3];
    int64_t kh = ws[2], kw = ws[3];
    int64_t ho = dys[2], wo = dys[3];
    int64_t lo = c.begin, hi = partitionEnd(c, xs[0] * ch);
    std::memset(c.out + lo * h * w, 0, sizeof(float) * (hi - lo) * h * w);
    for (int64_t idx = lo; idx < hi; ++idx) {
        int64_t ni = idx / ch, ci = idx % ch;
        const float *wp = c.in[0] + ci * kh * kw;
        const float *gp = c.in[1] + (ni * ch + ci) * ho * wo;
        float *dp = c.out + (ni * ch + ci) * h * w;
        for (int64_t i = 0; i < ho; ++i) {
            for (int64_t j = 0; j < wo; ++j) {
                float g = gp[i * wo + j];
                if (g == 0.0f)
                    continue;
                for (int64_t a = 0; a < kh; ++a) {
                    int64_t ih = i * stride - pad + a;
                    if (ih < 0 || ih >= h)
                        continue;
                    for (int64_t b = 0; b < kw; ++b) {
                        int64_t iw = j * stride - pad + b;
                        if (iw < 0 || iw >= w)
                            continue;
                        dp[ih * w + iw] += g * wp[a * kw + b];
                    }
                }
            }
        }
    }
}

void
dwConv2dBwdWeight(const KernelCtx &c)
{
    const Shape &xs = *c.inShapes[0];
    const Shape &dys = *c.inShapes[1];
    int64_t stride = c.node->attrs.getInt("stride", 1);
    int64_t pad = c.node->attrs.getInt("pad", 0);
    int64_t n = xs[0], ch = xs[1], h = xs[2], w = xs[3];
    const Shape &os = *c.outShape;
    int64_t kh = os[2], kw = os[3];
    int64_t ho = dys[2], wo = dys[3];
    int64_t limit = os[0];
    int64_t lo = c.begin, hi = partitionEnd(c, limit);
    std::memset(c.out + lo * kh * kw, 0,
                sizeof(float) * (hi - lo) * kh * kw);
    // ci outermost so shards own disjoint dw slices; ascending-ni
    // accumulation per element is preserved.
    for (int64_t ci = lo; ci < hi; ++ci) {
        float *dw = c.out + ci * kh * kw;
        for (int64_t ni = 0; ni < n; ++ni) {
            const float *xp = c.in[0] + (ni * ch + ci) * h * w;
            const float *gp = c.in[1] + (ni * ch + ci) * ho * wo;
            for (int64_t i = 0; i < ho; ++i) {
                for (int64_t j = 0; j < wo; ++j) {
                    float g = gp[i * wo + j];
                    if (g == 0.0f)
                        continue;
                    for (int64_t a = 0; a < kh; ++a) {
                        int64_t ih = i * stride - pad + a;
                        if (ih < 0 || ih >= h)
                            continue;
                        for (int64_t b = 0; b < kw; ++b) {
                            int64_t iw = j * stride - pad + b;
                            if (iw < 0 || iw >= w)
                                continue;
                            dw[a * kw + b] += g * xp[ih * w + iw];
                        }
                    }
                }
            }
        }
    }
}

/** One column panel of the unfolded image — ci*kh*kw rows by
 *  min(ho*wo, kGemmBlock) columns — for every tier of "im2col"; none
 *  for a pointwise conv, which reads its input in place. */
WorkspaceSpec
im2colWorkspace(const Graph &g, const Node &n)
{
    const Shape &w = g.node(n.inputs[1]).shape;
    WorkspaceSpec spec;
    if (!isPointwiseConv(w, n.attrs))
        spec.bytesPerShard =
            w[1] * w[2] * w[3] *
            std::min(n.shape[2] * n.shape[3], kutil::kGemmBlock) * 4;
    return spec;
}

/** The packed depthwise forward and input gradient: one band of x
 *  rows and the taps, kDwBlock fp32 lanes each, per shard. */
WorkspaceSpec
dwPackedWorkspace(const Graph &g, const Node &n)
{
    WorkspaceSpec spec;
    spec.bytesPerShard = kutil::dwPackedElems(g, n) * 4;
    return spec;
}

/** The pointwise weight backward's packed X^T panel: min(h*w,
 *  kGemmBlock) x min(ci, kGemmBlock) floats per shard. */
WorkspaceSpec
bwdWeightWorkspace(const Graph &g, const Node &n)
{
    const Shape &x = g.node(n.inputs[0]).shape;
    WorkspaceSpec spec;
    spec.bytesPerShard = std::min(x[2] * x[3], kutil::kGemmBlock) *
                         std::min(x[1], kutil::kGemmBlock) * 4;
    return spec;
}

} // namespace

namespace detail {

void
registerConvKernels()
{
    PartitionSpec images{part::outDim01, 1};
    PartitionSpec dxImages{part::outDim0, 1};
    PartitionSpec dwChannels{part::outDim0, 1};
    PartitionSpec channelBlocks{part::outChannelBlocks, 1};
    for (OpKind op : {OpKind::Conv2d, OpKind::ConvBiasAct}) {
        registerKernel(op, "", conv2dNaive, images);
        registerKernel(op, "im2col",
                       kutil::im2colConvK<kutil::ScalarLanes>, dxImages,
                       im2colWorkspace);
    }
    for (OpKind op : {OpKind::DwConv2d, OpKind::DwConvBiasAct}) {
        registerKernel(op, "", dwConv2d, images);
        registerKernel(op, "packed", kutil::dwConvK<kutil::ScalarLanes>,
                       channelBlocks, dwPackedWorkspace);
    }
    registerKernel(OpKind::Conv2dBwdInput, "", conv2dBwdInput, dxImages);
    registerKernel(OpKind::Conv2dBwdWeight, "", conv2dBwdWeight,
                   dwChannels);
    registerKernel(OpKind::Conv2dBwdInput, "im2col",
                   kutil::pointwiseBwdInputK<kutil::ScalarLanes>,
                   dxImages);
    registerKernel(OpKind::Conv2dBwdWeight, "im2col",
                   kutil::pointwiseBwdWeightK<kutil::ScalarLanes>,
                   dwChannels, bwdWeightWorkspace);
    registerKernel(OpKind::DwConv2dBwdInput, "", dwConv2dBwdInput,
                   images);
    registerKernel(OpKind::DwConv2dBwdInput, "packed",
                   kutil::dwConvBwdInputK<kutil::ScalarLanes>,
                   channelBlocks, dwPackedWorkspace);
    registerKernel(OpKind::DwConv2dBwdWeight, "", dwConv2dBwdWeight,
                   dwChannels);
}

} // namespace detail
} // namespace pe
