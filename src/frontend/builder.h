/**
 * @file
 * Model-construction frontend.
 *
 * NetBuilder is the C++ stand-in for the paper's PyTorch / TensorFlow
 * / Jax frontends: it emits plain IR nodes, names parameters with the
 * "<layer>.weight|bias|gamma|beta" convention the sparse-scheme layer
 * keys on, and (optionally) initializes parameter tensors into a
 * ParamStore. Graphs built here can round-trip through the JSON
 * serializer, the repository's ONNX stand-in.
 */

#pragma once

#include <string>

#include "core/rng.h"
#include "ir/graph.h"
#include "runtime/paramstore.h"

namespace pe {

class NetBuilder
{
  public:
    /**
     * @param g     graph being built
     * @param rng   initializer randomness
     * @param store where parameter tensors are materialized; pass
     *              nullptr for shape-only (analysis) graphs
     */
    NetBuilder(Graph &g, Rng &rng, ParamStore *store)
        : g_(g), rng_(rng), store_(store)
    {
    }

    Graph &graph() { return g_; }

    int input(Shape shape, const std::string &name);

    /** y = x W + b; x: [N, in], W: [in, out] (Kaiming init). */
    int linear(int x, int64_t out_features, const std::string &name,
               bool bias = true);

    /**
     * Linear with a LoRA adapter: y = x W + b + (x A) B, A/B named
     * "<name>.lora.a" / "<name>.lora.b" (B zero-init so the adapter
     * starts as the identity perturbation).
     */
    int linearLora(int x, int64_t out_features, const std::string &name,
                   int64_t rank, bool bias = true);

    /** NCHW convolution with [C,1,1]-shaped bias (broadcast add). */
    int conv2d(int x, int64_t out_ch, int64_t kernel, int64_t stride,
               int64_t pad, const std::string &name, bool bias = true);

    /** Depthwise convolution. */
    int dwConv2d(int x, int64_t kernel, int64_t stride, int64_t pad,
                 const std::string &name, bool bias = true);

    int relu(int x) { return g_.add(OpKind::Relu, {x}); }
    int gelu(int x) { return g_.add(OpKind::Gelu, {x}); }
    int silu(int x) { return g_.add(OpKind::Silu, {x}); }
    int add(int a, int b) { return g_.add(OpKind::Add, {a, b}); }
    int mul(int a, int b) { return g_.add(OpKind::Mul, {a, b}); }

    int scale(int x, double alpha);
    int reshape(int x, Shape shape);
    int permute(int x, std::vector<int64_t> perm);
    int slice(int x, int64_t axis, int64_t begin, int64_t end);
    int softmax(int x) { return g_.add(OpKind::Softmax, {x}); }
    int avgPool(int x, int64_t kernel, int64_t stride);
    int globalAvgPool(int x);

    int layerNorm(int x, const std::string &name);
    int rmsNorm(int x, const std::string &name);

    /** Token embedding lookup; table init N(0, 0.02). */
    int embedding(int ids, int64_t vocab, int64_t dim,
                  const std::string &name);

    int crossEntropy(int logits, int labels);
    int mse(int pred, int target);

    /**
     * Multi-head scaled-dot-product attention, the one chain the
     * fuseAttention pass collapses into FusedAttention: per head h,
     * softmax(Q_h K_h^T / sqrt(Dh) + mask) V_h, with row r of Q
     * attending to the K/V slab of lead r/S. Heads stay packed in the
     * columns (head h is [h*Dh, (h+1)*Dh)); the chain splits them by
     * reshape -> permute -> reshape and merges them back the same way.
     * @param q     [L*S, D], D = heads * Dh
     * @param k, v  [L, M, D]
     * @param mask  additive mask, kMaskedScore on hidden columns: a
     *              shared [S, M] mask for every lead (the Add
     *              broadcasts it), a per-row [L*S, M] mask with L > 1
     *              (broadcast per head), or -1 for none
     * @return [L*S, D]
     */
    int attention(int q, int k, int v, int mask, int64_t heads);

    /** Const causal mask [rows, cols]: row i sees columns j <= i (0)
     *  and none past them (kMaskedScore). */
    int causalMask(int64_t rows, int64_t cols, const std::string &name);

    /**
     * Multi-head self-attention over x: [B, S, D]: q/k/v projections,
     * attention() with K/V as [B, S, D] and no mask or a shared
     * [S, S] causal one, and the output projection.
     * @param causal     add a lower-triangular mask (decoder models)
     * @param lora_rank  if > 0, use LoRA-adapted q/v projections
     * @return [B, S, D]
     */
    int selfAttention(int x, int64_t heads, const std::string &name,
                      bool causal = false, int64_t lora_rank = 0);

    /** Raw parameter with custom init std (normal). */
    int param(Shape shape, const std::string &name, float init_std);

  private:
    int paramKaiming(Shape shape, const std::string &name,
                     int64_t fan_in);
    int paramFill(Shape shape, const std::string &name, float value);

    Graph &g_;
    Rng &rng_;
    ParamStore *store_;
};

} // namespace pe
