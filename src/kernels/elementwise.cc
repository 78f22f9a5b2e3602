/**
 * @file
 * Elementwise unary/binary kernels with numpy-style broadcasting.
 * Every kernel here is a pure function of the output index, so all
 * partition over the flattened output range [begin, end).
 */

#include <cmath>
#include <cstring>

#include "kernels/kernel.h"
#include "kernels/kernel_util.h"

namespace pe {
namespace {

constexpr float kSqrt2OverPi = 0.7978845608028654f;

/**
 * Apply a binary op with right-aligned broadcasting. The generic path
 * decomposes the output linear index; the common same-shape and
 * trailing-vector (bias) patterns take fast paths.
 */
template <typename F>
void
broadcastBinary(const KernelCtx &ctx, F f)
{
    const Shape &os = *ctx.outShape;
    const Shape &as = *ctx.inShapes[0];
    const Shape &bs = *ctx.inShapes[1];
    const float *a = ctx.in[0];
    const float *b = ctx.in[1];
    int64_t n = numel(os);
    int64_t lo = ctx.begin, hi = partitionEnd(ctx, n);

    if (as == os && bs == os) {
        for (int64_t i = lo; i < hi; ++i)
            ctx.out[i] = f(a[i], b[i]);
        return;
    }
    // Trailing-vector broadcast: [..., C] op [C].
    if (as == os && bs.size() == 1 && bs[0] == os.back()) {
        int64_t c = bs[0];
        for (int64_t i = lo; i < hi; ++i)
            ctx.out[i] = f(a[i], b[i % c]);
        return;
    }
    // Generic path: stride-0 on broadcast dims.
    size_t rank = os.size();
    std::vector<int64_t> sa(rank, 0), sb(rank, 0);
    auto strides_of = [&](const Shape &s, std::vector<int64_t> &out) {
        auto rs = rowMajorStrides(s);
        size_t off = rank - s.size();
        for (size_t i = 0; i < s.size(); ++i)
            out[off + i] = s[i] == 1 ? 0 : rs[i];
    };
    strides_of(as, sa);
    strides_of(bs, sb);
    auto so = rowMajorStrides(os);
    for (int64_t i = lo; i < hi; ++i) {
        int64_t ai = 0, bi = 0, rem = i;
        for (size_t d = 0; d < rank; ++d) {
            int64_t c = rem / so[d];
            rem -= c * so[d];
            ai += c * sa[d];
            bi += c * sb[d];
        }
        ctx.out[i] = f(a[ai], b[bi]);
    }
}

template <typename F>
void
unary(const KernelCtx &ctx, F f)
{
    int64_t hi = partitionEnd(ctx, numel(*ctx.outShape));
    for (int64_t i = ctx.begin; i < hi; ++i)
        ctx.out[i] = f(ctx.in[0][i]);
}

float
geluGradOf(float x)
{
    float t = std::tanh(kSqrt2OverPi * (x + 0.044715f * x * x * x));
    float dt = (1.0f - t * t) * kSqrt2OverPi *
               (1.0f + 3.0f * 0.044715f * x * x);
    return 0.5f * (1.0f + t) + 0.5f * x * dt;
}

float
sigmoidOf(float x)
{
    return 1.0f / (1.0f + std::exp(-x));
}

void
addK(const KernelCtx &c)
{
    broadcastBinary(c, [](float a, float b) { return a + b; });
}
void
subK(const KernelCtx &c)
{
    broadcastBinary(c, [](float a, float b) { return a - b; });
}
void
mulK(const KernelCtx &c)
{
    broadcastBinary(c, [](float a, float b) { return a * b; });
}
void
divK(const KernelCtx &c)
{
    broadcastBinary(c, [](float a, float b) { return a / b; });
}

void
negK(const KernelCtx &c)
{
    unary(c, [](float x) { return -x; });
}
// One activation definition, kutil::actOf, serves these kernels and the
// fused ops' epilogue, so a fused act matches its standalone op bit for bit.
void
reluK(const KernelCtx &c)
{
    unary(c, [](float x) { return kutil::actOf(kActRelu, x); });
}
void
geluK(const KernelCtx &c)
{
    unary(c, [](float x) { return kutil::actOf(kActGelu, x); });
}
void
siluK(const KernelCtx &c)
{
    unary(c, [](float x) { return kutil::actOf(kActSilu, x); });
}
void
sigmoidK(const KernelCtx &c)
{
    unary(c, sigmoidOf);
}
void
tanhK(const KernelCtx &c)
{
    unary(c, [](float x) { return std::tanh(x); });
}
void
expK(const KernelCtx &c)
{
    unary(c, [](float x) { return std::exp(x); });
}
void
logK(const KernelCtx &c)
{
    unary(c, [](float x) { return std::log(x); });
}
void
sqrtK(const KernelCtx &c)
{
    unary(c, [](float x) { return std::sqrt(x); });
}

void
scaleK(const KernelCtx &c)
{
    float alpha = static_cast<float>(c.node->attrs.getFloat("alpha", 1.0));
    unary(c, [alpha](float x) { return alpha * x; });
}

void
addScalarK(const KernelCtx &c)
{
    float alpha = static_cast<float>(c.node->attrs.getFloat("alpha", 0.0));
    unary(c, [alpha](float x) { return x + alpha; });
}

/** Both operands are loaded unconditionally, so the select needs no
 *  branch and vectorizes: x > 0 passes the gradient, anything else
 *  (NaN and -0 included) gives +0. */
void
reluGradK(const KernelCtx &c)
{
    const float *x = c.in[0], *g = c.in[1];
    int64_t hi = partitionEnd(c, numel(*c.outShape));
    for (int64_t i = c.begin; i < hi; ++i) {
        float gi = g[i];
        c.out[i] = x[i] > 0 ? gi : 0.0f;
    }
}

void
geluGradK(const KernelCtx &c)
{
    int64_t hi = partitionEnd(c, numel(*c.outShape));
    for (int64_t i = c.begin; i < hi; ++i)
        c.out[i] = c.in[1][i] * geluGradOf(c.in[0][i]);
}

void
siluGradK(const KernelCtx &c)
{
    int64_t hi = partitionEnd(c, numel(*c.outShape));
    for (int64_t i = c.begin; i < hi; ++i) {
        float s = sigmoidOf(c.in[0][i]);
        c.out[i] = c.in[1][i] * (s + c.in[0][i] * s * (1.0f - s));
    }
}

void
sigmoidGradK(const KernelCtx &c)
{
    int64_t hi = partitionEnd(c, numel(*c.outShape));
    for (int64_t i = c.begin; i < hi; ++i) {
        float s = sigmoidOf(c.in[0][i]);
        c.out[i] = c.in[1][i] * s * (1.0f - s);
    }
}

void
tanhGradK(const KernelCtx &c)
{
    int64_t hi = partitionEnd(c, numel(*c.outShape));
    for (int64_t i = c.begin; i < hi; ++i) {
        float t = std::tanh(c.in[0][i]);
        c.out[i] = c.in[1][i] * (1.0f - t * t);
    }
}

void
identityK(const KernelCtx &c)
{
    int64_t hi = partitionEnd(c, numel(*c.outShape));
    std::memcpy(c.out + c.begin, c.in[0] + c.begin,
                sizeof(float) * (hi - c.begin));
}

} // namespace

namespace detail {

void
registerElementwiseKernels()
{
    PartitionSpec elems{part::outElems, 1024};
    registerKernel(OpKind::Add, "", addK, elems);
    registerKernel(OpKind::Sub, "", subK, elems);
    registerKernel(OpKind::Mul, "", mulK, elems);
    registerKernel(OpKind::Div, "", divK, elems);
    registerKernel(OpKind::Neg, "", negK, elems);
    registerKernel(OpKind::Relu, "", reluK, elems);
    registerKernel(OpKind::Gelu, "", geluK, elems);
    registerKernel(OpKind::Silu, "", siluK, elems);
    registerKernel(OpKind::Sigmoid, "", sigmoidK, elems);
    registerKernel(OpKind::Tanh, "", tanhK, elems);
    registerKernel(OpKind::Exp, "", expK, elems);
    registerKernel(OpKind::Log, "", logK, elems);
    registerKernel(OpKind::Sqrt, "", sqrtK, elems);
    registerKernel(OpKind::Scale, "", scaleK, elems);
    registerKernel(OpKind::AddScalar, "", addScalarK, elems);
    registerKernel(OpKind::ReluGrad, "", reluGradK, elems);
    registerKernel(OpKind::GeluGrad, "", geluGradK, elems);
    registerKernel(OpKind::SiluGrad, "", siluGradK, elems);
    registerKernel(OpKind::SigmoidGrad, "", sigmoidGradK, elems);
    registerKernel(OpKind::TanhGrad, "", tanhGradK, elems);
    registerKernel(OpKind::Identity, "", identityK, elems);
}

} // namespace detail
} // namespace pe
