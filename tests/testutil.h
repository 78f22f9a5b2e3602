/**
 * @file
 * Shared helpers for the test suite: graph evaluation and numerical
 * gradient checking against the compile-time autodiff.
 */

#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "autodiff/autodiff.h"
#include "core/tensor.h"
#include "engine/engine.h"
#include "frontend/builder.h"
#include "ir/graph.h"
#include "kernels/kernel.h"
#include "passes/passes.h"

namespace pe::test {

using Feeds = std::unordered_map<std::string, Tensor>;

/** @p base and, where this host registers it, its SIMD tier form. */
inline std::vector<std::string>
variantAndTier(OpKind op, const std::string &base)
{
    detail::ensureKernelsRegistered();
    std::vector<std::string> out = {base};
    SimdTier t = hostSimdTier();
    std::string tiered = base.empty() ? std::string(simdTierName(t))
                                      : base + "@" + simdTierName(t);
    if (t != SimdTier::Scalar && hasKernelVariant(op, tiered))
        out.push_back(tiered);
    return out;
}

/**
 * Scoped hostSimdTier() override, the one way a test pins a tier. An
 * Executor binds hostSimdTier() at construction, so place the guard
 * around program or engine construction; what it bound keeps its tier
 * after the guard exits. Always restores on scope exit.
 */
struct TierOverride {
    explicit TierOverride(SimdTier t)
    {
        setSimdTierForTesting(static_cast<int>(t));
    }
    ~TierOverride() { setSimdTierForTesting(-1); }
    TierOverride(const TierOverride &) = delete;
    TierOverride &operator=(const TierOverride &) = delete;
};

/**
 * A small net with Winograd-eligible convs (3x3, stride 1) and a
 * linear head. Under a frozen-backbone scheme (or inference) the
 * convs bind the "winograd" variant. Deterministic: same call -> same
 * graph and weights; input "x" is [batch, 4, 12, 12].
 */
struct WinoNet {
    Graph g;
    int x = -1, logits = -1, loss = -1;
    std::shared_ptr<ParamStore> store;
};

inline WinoNet
winoNet(int64_t batch = 2)
{
    WinoNet n;
    n.store = std::make_shared<ParamStore>();
    Rng rng(13);
    NetBuilder b(n.g, rng, n.store.get());
    n.x = b.input({batch, 4, 12, 12}, "x");
    int h = b.relu(b.conv2d(n.x, 8, 3, 1, 1, "c1"));
    h = b.relu(b.conv2d(h, 8, 3, 1, 1, "c2"));
    h = b.globalAvgPool(h);
    h = b.reshape(h, {batch, 8});
    n.logits = b.linear(h, 4, "head");
    int y = b.input({batch}, "y");
    n.loss = b.crossEntropy(n.logits, y);
    return n;
}

/** Run a graph once and fetch one value. */
inline Tensor
evalNode(const Graph &g, int node_id, ParamStore &store,
         const Feeds &feeds)
{
    Graph copy = g;
    copy.markOutput(node_id);
    Executor ex(copy, planProgram(copy), store);
    for (const auto &[name, t] : feeds)
        ex.bindInput(name, t);
    ex.run();
    return ex.fetch(node_id);
}

/**
 * Check d(loss)/d(param) for every trainable param of @p g against
 * central finite differences. Returns the max relative error seen.
 *
 * The analytic gradients come through the full compile pipeline
 * (autodiff + simplify + DCE), so this exercises the passes too.
 */
inline float
gradCheck(Graph g, int loss_id, ParamStore &store, const Feeds &feeds,
          float fd_eps = 1e-2f)
{
    BackwardResult bwd = buildBackward(g, loss_id);
    g.outputs().clear();
    g.markOutput(loss_id);
    for (auto &[pid, gid] : bwd.paramGrads)
        g.markOutput(gid);
    simplify(g);

    // Map param names to grad nodes, resolving Identity chains left
    // behind by simplify() (the original id may have been bypassed
    // and its buffer recycled).
    std::vector<std::pair<std::string, int>> grads;
    for (auto &[pid, gid] : bwd.paramGrads) {
        int resolved = gid;
        while (g.node(resolved).op == OpKind::Identity)
            resolved = g.node(resolved).inputs[0];
        grads.emplace_back(g.node(pid).name, resolved);
    }

    Executor ex(g, planProgram(g), store);
    for (const auto &[name, t] : feeds)
        ex.bindInput(name, t);
    ex.run();

    // Snapshot all analytic gradients before any perturbation run
    // overwrites the arena.
    std::unordered_map<std::string, Tensor> analytic_grads;
    for (auto &[pname, gid] : grads)
        analytic_grads[pname] = ex.fetch(gid);

    float max_rel = 0.0f;
    for (auto &[pname, gid] : grads) {
        const Tensor &analytic = analytic_grads[pname];
        Tensor &p = store.get(pname);
        for (int64_t i = 0; i < p.size(); ++i) {
            float saved = p[i];
            p[i] = saved + fd_eps;
            ex.run();
            float up = ex.fetch(loss_id)[0];
            p[i] = saved - fd_eps;
            ex.run();
            float down = ex.fetch(loss_id)[0];
            p[i] = saved;
            float numeric = (up - down) / (2 * fd_eps);
            float denom = std::max({std::fabs(numeric),
                                    std::fabs(analytic[i]), 1e-2f});
            max_rel = std::max(max_rel,
                               std::fabs(numeric - analytic[i]) / denom);
        }
    }
    ex.run(); // restore any cached state
    return max_rel;
}

} // namespace pe::test
