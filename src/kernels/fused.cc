/**
 * @file
 * Fused kernels created by the operator-fusion pass: Conv+Bias+Act,
 * DwConv+Bias+Act and MatMul+Bias+Act. Fusion removes the
 * intermediate activation buffers and two kernel launches per linear
 * layer (paper Section 3.2, "Operator Fusion"). All three partition
 * the same way as their unfused counterparts: conv forms over the
 * flattened (image, output-channel) pairs, the GEMM form over output
 * rows.
 *
 * Scratch requirements are declared per kernel via WorkspaceSpec in
 * each kernel's own translation unit (the Winograd ConvBiasAct
 * variant registers its cached-transform workspace in winograd.cc,
 * the "im2col" one its column buffer in conv2d.cc); the direct fused
 * kernels here need none.
 */

#include "kernels/kernel.h"
#include "kernels/kernel_util.h"

namespace pe {
namespace {

using kutil::actOf;

void
convBiasActK(const KernelCtx &c)
{
    // Direct loops + bias + act.
    const Shape &xs = *c.inShapes[0];
    const Shape &ws = *c.inShapes[1];
    int64_t stride = c.node->attrs.getInt("stride", 1);
    int64_t pad = c.node->attrs.getInt("pad", 0);
    int64_t act = c.node->attrs.getInt("act", kActNone);
    int64_t n = xs[0], ci = xs[1], h = xs[2], w = xs[3];
    int64_t co = ws[0], kh = ws[2], kw = ws[3];
    int64_t ho = (*c.outShape)[2], wo = (*c.outShape)[3];
    const float *bias = c.in[2];
    int64_t hi = partitionEnd(c, n * co);
    for (int64_t idx = c.begin; idx < hi; ++idx) {
        int64_t ni = idx / co, o = idx % co;
        {
            float b = bias[o];
            for (int64_t i = 0; i < ho; ++i) {
                for (int64_t j = 0; j < wo; ++j) {
                    float acc = b;
                    for (int64_t cc = 0; cc < ci; ++cc) {
                        for (int64_t a = 0; a < kh; ++a) {
                            int64_t ih = i * stride - pad + a;
                            if (ih < 0 || ih >= h)
                                continue;
                            for (int64_t bb = 0; bb < kw; ++bb) {
                                int64_t iw = j * stride - pad + bb;
                                if (iw < 0 || iw >= w)
                                    continue;
                                acc += c.in[0][((ni * ci + cc) * h + ih) *
                                                   w + iw] *
                                       c.in[1][((o * ci + cc) * kh + a) *
                                                   kw + bb];
                            }
                        }
                    }
                    c.out[((ni * co + o) * ho + i) * wo + j] =
                        actOf(act, acc);
                }
            }
        }
    }
}

void
dwConvBiasActK(const KernelCtx &c)
{
    const Shape &xs = *c.inShapes[0];
    const Shape &ws = *c.inShapes[1];
    int64_t stride = c.node->attrs.getInt("stride", 1);
    int64_t pad = c.node->attrs.getInt("pad", 0);
    int64_t act = c.node->attrs.getInt("act", kActNone);
    int64_t n = xs[0], ch = xs[1], h = xs[2], w = xs[3];
    int64_t kh = ws[2], kw = ws[3];
    int64_t ho = (*c.outShape)[2], wo = (*c.outShape)[3];
    int64_t hi = partitionEnd(c, n * ch);
    for (int64_t idx = c.begin; idx < hi; ++idx) {
        int64_t ni = idx / ch, cc = idx % ch;
        {
            const float *xp = c.in[0] + (ni * ch + cc) * h * w;
            const float *wp = c.in[1] + cc * kh * kw;
            float b = c.in[2][cc];
            float *op = c.out + (ni * ch + cc) * ho * wo;
            for (int64_t i = 0; i < ho; ++i) {
                for (int64_t j = 0; j < wo; ++j) {
                    float acc = b;
                    for (int64_t a = 0; a < kh; ++a) {
                        int64_t ih = i * stride - pad + a;
                        if (ih < 0 || ih >= h)
                            continue;
                        for (int64_t bb = 0; bb < kw; ++bb) {
                            int64_t iw = j * stride - pad + bb;
                            if (iw < 0 || iw >= w)
                                continue;
                            acc += xp[ih * w + iw] * wp[a * kw + bb];
                        }
                    }
                    op[i * wo + j] = actOf(act, acc);
                }
            }
        }
    }
}

void
matmulBiasActK(const KernelCtx &c)
{
    bool ta = c.node->attrs.getInt("transA", 0) != 0;
    bool tb = c.node->attrs.getInt("transB", 0) != 0;
    int64_t act = c.node->attrs.getInt("act", kActNone);
    const Shape &as = *c.inShapes[0];
    const Shape &bs = *c.inShapes[1];
    int64_t m = ta ? as[1] : as[0];
    int64_t k = ta ? as[0] : as[1];
    int64_t n = tb ? bs[0] : bs[1];
    auto a_at = [&](int64_t i, int64_t kk) {
        return ta ? c.in[0][kk * m + i] : c.in[0][i * k + kk];
    };
    auto b_at = [&](int64_t kk, int64_t j) {
        return tb ? c.in[1][j * k + kk] : c.in[1][kk * n + j];
    };
    int64_t hi = partitionEnd(c, m);
    for (int64_t i = c.begin; i < hi; ++i) {
        for (int64_t j = 0; j < n; ++j) {
            float acc = c.in[2][j];
            for (int64_t kk = 0; kk < k; ++kk)
                acc += a_at(i, kk) * b_at(kk, j);
            c.out[i * n + j] = actOf(act, acc);
        }
    }
}

} // namespace

namespace detail {

void
registerFusedKernels()
{
    registerKernel(OpKind::ConvBiasAct, "", convBiasActK,
                   {part::outDim01, 1});
    registerKernel(OpKind::DwConvBiasAct, "", dwConvBiasActK,
                   {part::outDim01, 1});
    registerKernel(OpKind::MatMulBiasAct, "", matmulBiasActK,
                   {part::outDim0, 8});
}

} // namespace detail
} // namespace pe
