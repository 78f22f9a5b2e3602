#include "frontend/builder.h"

#include <cmath>
#include <stdexcept>

namespace pe {

int
NetBuilder::input(Shape shape, const std::string &name)
{
    return g_.input(std::move(shape), name);
}

int
NetBuilder::paramKaiming(Shape shape, const std::string &name,
                         int64_t fan_in)
{
    int id = g_.param(shape, name);
    if (store_ && !store_->has(name))
        store_->set(name, Tensor::kaiming(shape, rng_, fan_in));
    return id;
}

int
NetBuilder::paramFill(Shape shape, const std::string &name, float value)
{
    int id = g_.param(shape, name);
    if (store_ && !store_->has(name))
        store_->set(name, Tensor::full(shape, value));
    return id;
}

int
NetBuilder::param(Shape shape, const std::string &name, float init_std)
{
    int id = g_.param(shape, name);
    if (store_ && !store_->has(name))
        store_->set(name, Tensor::randn(shape, rng_, init_std));
    return id;
}

int
NetBuilder::linear(int x, int64_t out_features, const std::string &name,
                   bool bias)
{
    int64_t in_features = g_.node(x).shape.back();
    int w = paramKaiming({in_features, out_features}, name + ".weight",
                         in_features);
    int y = g_.add(OpKind::MatMul, {x, w});
    if (bias) {
        int b = paramFill({out_features}, name + ".bias", 0.0f);
        y = g_.add(OpKind::Add, {y, b});
    }
    return y;
}

int
NetBuilder::linearLora(int x, int64_t out_features,
                       const std::string &name, int64_t rank, bool bias)
{
    int64_t in_features = g_.node(x).shape.back();
    int base = linear(x, out_features, name, bias);
    int a = param({in_features, rank}, name + ".lora.a", 0.02f);
    int bmat = g_.param({rank, out_features}, name + ".lora.b");
    if (store_ && !store_->has(name + ".lora.b"))
        store_->set(name + ".lora.b", Tensor::zeros({rank, out_features}));
    int xa = g_.add(OpKind::MatMul, {x, a});
    int xab = g_.add(OpKind::MatMul, {xa, bmat});
    return g_.add(OpKind::Add, {base, xab});
}

int
NetBuilder::conv2d(int x, int64_t out_ch, int64_t kernel, int64_t stride,
                   int64_t pad, const std::string &name, bool bias)
{
    int64_t in_ch = g_.node(x).shape[1];
    int w = paramKaiming({out_ch, in_ch, kernel, kernel},
                         name + ".weight", in_ch * kernel * kernel);
    Attrs a;
    a.set("stride", stride);
    a.set("pad", pad);
    int y = g_.add(OpKind::Conv2d, {x, w}, std::move(a));
    if (bias) {
        int b = paramFill({out_ch, 1, 1}, name + ".bias", 0.0f);
        y = g_.add(OpKind::Add, {y, b});
    }
    return y;
}

int
NetBuilder::dwConv2d(int x, int64_t kernel, int64_t stride, int64_t pad,
                     const std::string &name, bool bias)
{
    int64_t ch = g_.node(x).shape[1];
    int w = paramKaiming({ch, 1, kernel, kernel}, name + ".weight",
                         kernel * kernel);
    Attrs a;
    a.set("stride", stride);
    a.set("pad", pad);
    int y = g_.add(OpKind::DwConv2d, {x, w}, std::move(a));
    if (bias) {
        int b = paramFill({ch, 1, 1}, name + ".bias", 0.0f);
        y = g_.add(OpKind::Add, {y, b});
    }
    return y;
}

int
NetBuilder::scale(int x, double alpha)
{
    Attrs a;
    a.set("alpha", alpha);
    return g_.add(OpKind::Scale, {x}, std::move(a));
}

int
NetBuilder::reshape(int x, Shape shape)
{
    Attrs a;
    a.set("shape", std::move(shape));
    return g_.add(OpKind::Reshape, {x}, std::move(a));
}

int
NetBuilder::permute(int x, std::vector<int64_t> perm)
{
    Attrs a;
    a.set("perm", std::move(perm));
    return g_.add(OpKind::Permute, {x}, std::move(a));
}

int
NetBuilder::slice(int x, int64_t axis, int64_t begin, int64_t end)
{
    Attrs a;
    a.set("axis", axis);
    a.set("begin", begin);
    a.set("end", end);
    return g_.add(OpKind::Slice, {x}, std::move(a));
}

int
NetBuilder::avgPool(int x, int64_t kernel, int64_t stride)
{
    Attrs a;
    a.set("kernel", kernel);
    a.set("stride", stride);
    return g_.add(OpKind::AvgPool2d, {x}, std::move(a));
}

int
NetBuilder::globalAvgPool(int x)
{
    return g_.add(OpKind::GlobalAvgPool, {x});
}

int
NetBuilder::layerNorm(int x, const std::string &name)
{
    int64_t d = g_.node(x).shape.back();
    int gamma = paramFill({d}, name + ".gamma", 1.0f);
    int beta = paramFill({d}, name + ".beta", 0.0f);
    Attrs a;
    a.set("eps", 1e-5);
    return g_.add(OpKind::LayerNorm, {x, gamma, beta}, std::move(a));
}

int
NetBuilder::rmsNorm(int x, const std::string &name)
{
    int64_t d = g_.node(x).shape.back();
    int gamma = paramFill({d}, name + ".gamma", 1.0f);
    Attrs a;
    a.set("eps", 1e-5);
    return g_.add(OpKind::RMSNorm, {x, gamma}, std::move(a));
}

int
NetBuilder::embedding(int ids, int64_t vocab, int64_t dim,
                      const std::string &name)
{
    int table = param({vocab, dim}, name + ".weight", 0.02f);
    return g_.add(OpKind::Embedding, {table, ids});
}

int
NetBuilder::crossEntropy(int logits, int labels)
{
    return g_.add(OpKind::CrossEntropy, {logits, labels});
}

int
NetBuilder::mse(int pred, int target)
{
    return g_.add(OpKind::Mse, {pred, target});
}

int
NetBuilder::attention(int q, int k, int v, int mask, int64_t heads)
{
    const Shape ks = g_.node(k).shape; // [L, M, D] (copy: adds reallocate)
    const int64_t L = ks[0], M = ks[1], D = ks[2];
    const int64_t S = g_.node(q).shape[0] / L;
    if (heads < 1 || D % heads != 0)
        throw std::invalid_argument(
            "NetBuilder::attention: heads must be >= 1 and divide dim "
            "(dim=" + std::to_string(D) +
            ", heads=" + std::to_string(heads) + ")");
    const int64_t dh = D / heads;
    // [L, T, D] (any layout with those elements) -> [L*H, T, Dh].
    auto split = [&](int x, int64_t t) {
        return reshape(permute(reshape(x, {L, t, heads, dh}),
                               {0, 2, 1, 3}),
                       {L * heads, t, dh});
    };

    if (mask >= 0 && g_.node(mask).shape[0] != S) {
        // Per row: each lead's [S, M] block repeats per head.
        Attrs per_head;
        per_head.set("shape", Shape{L, heads, S, M});
        mask = reshape(g_.add(OpKind::BroadcastTo,
                              {reshape(mask, {L, 1, S, M})},
                              std::move(per_head)),
                       {L * heads, S, M});
    }
    Attrs trans_b;
    trans_b.set("transB", static_cast<int64_t>(1));
    int scores = g_.add(OpKind::BatchMatMul, {split(q, S), split(k, M)},
                        std::move(trans_b)); // [L*H, S, M]
    scores = scale(scores, 1.0 / std::sqrt(static_cast<double>(dh)));
    if (mask >= 0)
        scores = add(scores, mask);
    int ctx = g_.add(OpKind::BatchMatMul,
                     {softmax(scores), split(v, M)}); // [L*H, S, Dh]
    return reshape(permute(reshape(ctx, {L, heads, S, dh}),
                           {0, 2, 1, 3}),
                   {L * S, D});
}

int
NetBuilder::selfAttention(int x, int64_t heads, const std::string &name,
                          bool causal, int64_t lora_rank)
{
    Shape xs = g_.node(x).shape; // [B, S, D] (copy: adds reallocate)
    int64_t batch = xs[0], seq = xs[1], dim = xs[2];

    int x2d = reshape(x, {batch * seq, dim});
    int q = lora_rank > 0 ? linearLora(x2d, dim, name + ".q", lora_rank)
                          : linear(x2d, dim, name + ".q");
    int k = reshape(linear(x2d, dim, name + ".k"), xs);
    int v = reshape(lora_rank > 0
                        ? linearLora(x2d, dim, name + ".v", lora_rank)
                        : linear(x2d, dim, name + ".v"),
                    xs);
    int mask = causal ? causalMask(seq, seq, name + ".mask") : -1;
    int out = linear(attention(q, k, v, mask, heads), dim, name + ".proj");
    return reshape(out, xs);
}

int
NetBuilder::causalMask(int64_t rows, int64_t cols, const std::string &name)
{
    Tensor m({rows, cols});
    for (int64_t i = 0; i < rows; ++i)
        for (int64_t j = i + 1; j < cols; ++j)
            m[i * cols + j] = kMaskedScore;
    return g_.constantOf(std::move(m), name);
}

} // namespace pe
