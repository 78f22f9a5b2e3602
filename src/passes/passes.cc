#include "passes/passes.h"

#include <algorithm>
#include <stdexcept>

#include "kernels/kernel.h"
#include "runtime/planner.h"

namespace pe {

std::vector<bool>
liveSet(const Graph &g)
{
    std::vector<bool> live(g.numNodes(), false);
    std::vector<int> stack = g.outputs();
    while (!stack.empty()) {
        int id = stack.back();
        stack.pop_back();
        if (live[id])
            continue;
        live[id] = true;
        for (int in : g.node(id).inputs)
            stack.push_back(in);
    }
    return live;
}

int
dce(Graph &g)
{
    auto live = liveSet(g);
    int removed = 0;
    for (bool l : live) {
        if (!l)
            ++removed;
    }
    if (removed)
        g.compact(live);
    return removed;
}

namespace {

bool
isConstValue(const Graph &g, int id, float value)
{
    const Node &n = g.node(id);
    if (n.op != OpKind::Const || !g.hasConstData(id))
        return false;
    const Tensor &t = g.constData(id);
    for (int64_t i = 0; i < t.size(); ++i) {
        if (t[i] != value)
            return false;
    }
    return true;
}

void
toIdentity(Graph &g, int id, int src)
{
    Node &n = g.node(id);
    n.op = OpKind::Identity;
    n.inputs = {src};
    n.attrs = Attrs{};
}

} // namespace

int
simplify(Graph &g)
{
    int rewrites = 0;
    for (int id = 0; id < g.numNodes(); ++id) {
        Node &n = g.node(id);
        if (n.op == OpKind::Mul) {
            for (int side = 0; side < 2; ++side) {
                int c = n.inputs[side], x = n.inputs[1 - side];
                if (isConstValue(g, c, 1.0f) &&
                    g.node(x).shape == n.shape) {
                    toIdentity(g, id, x);
                    ++rewrites;
                    break;
                }
            }
        } else if (n.op == OpKind::Add) {
            for (int side = 0; side < 2; ++side) {
                int c = n.inputs[side], x = n.inputs[1 - side];
                if (isConstValue(g, c, 0.0f) &&
                    g.node(x).shape == n.shape) {
                    toIdentity(g, id, x);
                    ++rewrites;
                    break;
                }
            }
        } else if (n.op == OpKind::Scale &&
                   n.attrs.getFloat("alpha", 1.0) == 1.0) {
            toIdentity(g, id, n.inputs[0]);
            ++rewrites;
        }
    }
    // Bypass Identity chains.
    auto resolve = [&](int id) {
        while (g.node(id).op == OpKind::Identity)
            id = g.node(id).inputs[0];
        return id;
    };
    for (int id = 0; id < g.numNodes(); ++id) {
        for (int &in : g.node(id).inputs) {
            int r = resolve(in);
            if (r != in) {
                in = r;
                ++rewrites;
            }
        }
    }
    for (int &out : g.outputs())
        out = resolve(out);
    return rewrites;
}

int
constantFold(Graph &g)
{
    detail::ensureKernelsRegistered();
    int folded = 0;
    for (int id = 0; id < g.numNodes(); ++id) {
        Node &n = g.node(id);
        if (isSourceOp(n.op) || isInPlaceOp(n.op) || n.inputs.empty())
            continue;
        bool all_const = true;
        for (int in : n.inputs) {
            if (g.node(in).op != OpKind::Const || !g.hasConstData(in)) {
                all_const = false;
                break;
            }
        }
        if (!all_const)
            continue;
        KernelCtx ctx;
        ctx.node = &n;
        for (int in : n.inputs) {
            ctx.in.push_back(g.constData(in).data());
            ctx.inShapes.push_back(&g.node(in).shape);
        }
        Tensor out(n.shape);
        ctx.out = out.data();
        ctx.outShape = &n.shape;
        DirectWorkspace ws;
        ws.attach(ctx, g, n, "");
        lookupKernel(n.op, "")(ctx);
        Shape shape = n.shape;
        n.op = OpKind::Const;
        n.inputs.clear();
        Attrs a;
        a.set("shape", shape);
        n.attrs = std::move(a);
        g.setConstData(id, std::move(out));
        ++folded;
    }
    return folded;
}

namespace {

/** Map an activation op to its fused-op act code; kActNone if n/a. */
int64_t
actCodeOf(OpKind op)
{
    switch (op) {
      case OpKind::Relu:
        return kActRelu;
      case OpKind::Gelu:
        return kActGelu;
      case OpKind::Silu:
        return kActSilu;
      default:
        return kActNone;
    }
}

OpKind
fusedKindOf(OpKind linear)
{
    switch (linear) {
      case OpKind::Conv2d:
        return OpKind::ConvBiasAct;
      case OpKind::DwConv2d:
        return OpKind::DwConvBiasAct;
      case OpKind::MatMul:
        return OpKind::MatMulBiasAct;
      default:
        return OpKind::Identity;
    }
}

/** Output-channel count of a linear node, for bias validation. */
int64_t
channelsOf(const Graph &, const Node &linear)
{
    if (linear.op == OpKind::MatMul)
        return linear.shape.back();
    return linear.shape[1]; // NCHW
}

} // namespace

int
fuseOperators(Graph &g)
{
    int fused = 0;
    auto users = g.consumers();
    std::vector<bool> is_output(g.numNodes(), false);
    for (int o : g.outputs())
        is_output[o] = true;

    auto singleUse = [&](int id) {
        return users[id].size() == 1 && !is_output[id];
    };
    auto isBiasFor = [&](int bias, const Node &linear) {
        const Node &b = g.node(bias);
        if (b.op != OpKind::Param && b.op != OpKind::Const)
            return false;
        return numel(b.shape) == channelsOf(g, linear) &&
               broadcastableTo(b.shape, linear.shape);
    };

    // Pattern: Act(Add(linear, bias)) and bare Add(linear, bias).
    for (int id = 0; id < g.numNodes(); ++id) {
        Node &root = g.node(id);
        int64_t act = actCodeOf(root.op);
        int add_id = -1;
        if (act != kActNone) {
            int in0 = root.inputs[0];
            if (g.node(in0).op == OpKind::Add && singleUse(in0))
                add_id = in0;
        } else if (root.op == OpKind::Add) {
            // Leave bias-Adds that feed a single activation to the
            // activation root so the act gets fused in too.
            if (users[id].size() == 1 &&
                actCodeOf(g.node(users[id][0]).op) != kActNone) {
                continue;
            }
            add_id = id;
        }
        if (add_id < 0)
            continue;

        const Node &add = g.node(add_id);
        for (int side = 0; side < 2; ++side) {
            int lin_id = add.inputs[side];
            int bias_id = add.inputs[1 - side];
            const Node &lin = g.node(lin_id);
            OpKind fk = fusedKindOf(lin.op);
            if (fk == OpKind::Identity || !singleUse(lin_id) ||
                !isBiasFor(bias_id, lin)) {
                continue;
            }
            // Rewrite the root node into the fused op. The fused
            // value IS the root's value, so the root's calibration
            // range (stamped by quant calibration before fusion) must
            // override the linear node's pre-bias/pre-act range.
            Attrs attrs = lin.attrs;
            attrs.set("act", act);
            if (root.attrs.has(kCalibMinAttr) &&
                root.attrs.has(kCalibMaxAttr)) {
                attrs.set(kCalibMinAttr,
                          root.attrs.getFloat(kCalibMinAttr, 0.0));
                attrs.set(kCalibMaxAttr,
                          root.attrs.getFloat(kCalibMaxAttr, 0.0));
            }
            Shape shape = root.shape;
            root.op = fk;
            root.inputs = {lin.inputs[0], lin.inputs[1], bias_id};
            root.attrs = std::move(attrs);
            root.shape = shape;
            ++fused;
            break;
        }
    }
    return fused;
}

int
fuseAttention(Graph &g, int *unfused)
{
    int fused = 0, missed = 0;
    auto users = g.consumers();
    std::vector<bool> is_output(g.numNodes(), false);
    for (int o : g.outputs())
        is_output[o] = true;

    auto singleUse = [&](int id) {
        return users[id].size() == 1 && !is_output[id];
    };
    auto isMatmul = [](const Node &n) {
        return n.op == OpKind::MatMul || n.op == OpKind::BatchMatMul;
    };
    auto in0 = [&](int id) { return g.node(id).inputs[0]; };
    // A single-use @p op node, of shape @p shape unless that is empty.
    auto is = [&](int id, OpKind op, const Shape &shape = {}) {
        const Node &n = g.node(id);
        return n.op == op && singleUse(id) &&
               (shape.empty() || n.shape == shape);
    };
    auto isSwap12 = [&](int id) {
        return is(id, OpKind::Permute) &&
               g.node(id).attrs.getInts("perm") ==
                   std::vector<int64_t>{0, 2, 1, 3};
    };

    // Head split reshape{L*H,T,Dh}(permute{0,2,1,3}(reshape{L,T,H,Dh}(
    // src))): returns src and writes [L,T,H,Dh] to @p lthd, or -1.
    auto splitOf = [&](int id, Shape &lthd) -> int {
        if (!is(id, OpKind::Reshape) || !isSwap12(in0(id)))
            return -1;
        int rs = in0(in0(id));
        const Shape &s = g.node(rs).shape;
        if (!is(rs, OpKind::Reshape) || s.size() != 4 ||
            g.node(id).shape != Shape{s[0] * s[2], s[1], s[3]})
            return -1;
        lthd = s;
        return in0(rs);
    };
    // The mask the Add feeds the scores: a shared [S,M] node, which
    // the Add broadcasts itself, or the per-row reshape{L*H,S,M}(
    // BroadcastTo{L,H,S,M}(reshape{L,1,S,M}(src[L*S,M]))). Returns the
    // [S,M] or [L*S,M] source, or -1.
    auto maskOf = [&](int id, int64_t L, int64_t H, int64_t S,
                      int64_t M) -> int {
        if (g.node(id).shape == Shape{S, M})
            return id;
        if (!is(id, OpKind::Reshape, {L * H, S, M}))
            return -1;
        int bc = in0(id);
        if (!is(bc, OpKind::BroadcastTo, {L, H, S, M}) ||
            !is(in0(bc), OpKind::Reshape, {L, 1, S, M}))
            return -1;
        int src = in0(in0(bc));
        return g.node(src).shape == Shape{L * S, M} ? src : -1;
    };
    // Head merge reshape{L*S,H*Dh}(permute{0,2,1,3}(reshape{L,H,S,Dh}(
    // pv))), walked down from pv: returns the last reshape, or -1.
    auto mergeOf = [&](int pv, int64_t L, int64_t H, int64_t S,
                       int64_t Dh) -> int {
        if (!singleUse(pv))
            return -1;
        int rs = users[pv][0];
        if (!is(rs, OpKind::Reshape, {L, H, S, Dh}) ||
            !isSwap12(users[rs][0]))
            return -1;
        int out = users[users[rs][0]][0];
        const Node &n = g.node(out);
        return n.op == OpKind::Reshape && n.shape == Shape{L * S, H * Dh}
                   ? out
                   : -1;
    };

    for (int id = 0; id < g.numNodes(); ++id) {
        // The core chain, rooted at the P*V matmul: (Batch)MatMul(Q,K,
        // transB) -> Scale [-> Add(mask)] -> Softmax ->
        // (Batch)MatMul(., V).
        const Node &pv = g.node(id);
        if (!isMatmul(pv) || pv.attrs.getInt("transA", 0) ||
            pv.attrs.getInt("transB", 0))
            continue;
        int sm = in0(id);
        if (g.node(sm).op != OpKind::Softmax)
            continue;
        int sc = in0(sm), mask = -1;
        if (g.node(sc).op == OpKind::Add) {
            int side = g.node(in0(sc)).op == OpKind::Scale ? 0 : 1;
            mask = g.node(sc).inputs[1 - side];
            sc = g.node(sc).inputs[side];
        }
        if (g.node(sc).op != OpKind::Scale)
            continue;
        int qk = in0(sc);
        const Node &qkn = g.node(qk);
        if (!isMatmul(qkn) || qkn.attrs.getInt("transA", 0) ||
            !qkn.attrs.getInt("transB", 0))
            continue;

        // The one fused form: the Q/K/V head splits, the mask and
        // the head merge all sink into the op, which reads Q
        // [L*S,H*Dh], K/V [L,M,H*Dh] and the mask in place and writes
        // the merged [L*S,H*Dh] — no per-head copies. Any other chain
        // stays unfused and is counted.
        Shape qd, kd, vd;
        int q = splitOf(qkn.inputs[0], qd);
        int k = splitOf(qkn.inputs[1], kd);
        int v = splitOf(pv.inputs[1], vd);
        int m = -1, out = -1;
        if (q >= 0 && k >= 0 && v >= 0 && singleUse(sm) &&
            singleUse(in0(sm)) && singleUse(sc) && singleUse(qk)) {
            int64_t L = qd[0], S = qd[1], H = qd[2], Dh = qd[3];
            int64_t M = kd[1];
            const Shape kv{L, M, H * Dh};
            if (kd == Shape{L, M, H, Dh} && vd == kd &&
                g.node(q).shape == Shape{L * S, H * Dh} &&
                g.node(k).shape == kv && g.node(v).shape == kv) {
                m = mask < 0 ? mask : maskOf(mask, L, H, S, M);
                out = mergeOf(id, L, H, S, Dh);
            }
        }
        if ((mask >= 0 && m < 0) || out < 0) {
            ++missed;
            continue;
        }
        // Rewrite the merge in place: its id, name, output status and
        // calibration range survive; dce() collects the dead chain.
        Node &fa = g.node(out);
        Attrs attrs;
        attrs.set("scale", g.node(sc).attrs.getFloat("alpha", 1.0));
        attrs.set("heads", qd[2]);
        if (fa.attrs.has(kCalibMinAttr) && fa.attrs.has(kCalibMaxAttr)) {
            attrs.set(kCalibMinAttr, fa.attrs.getFloat(kCalibMinAttr, 0.0));
            attrs.set(kCalibMaxAttr, fa.attrs.getFloat(kCalibMaxAttr, 0.0));
        }
        fa.op = OpKind::FusedAttention;
        fa.inputs = m < 0 ? std::vector<int>{q, k, v}
                          : std::vector<int>{q, k, v, m};
        fa.attrs = std::move(attrs);
        ++fused;
    }
    if (unfused)
        *unfused = missed;
    return fused;
}

std::vector<int>
naturalOrder(const Graph &g)
{
    return g.topoOrder();
}

std::vector<int>
reorderForMemory(const Graph &g)
{
    detail::countReorderInvocation();
    int n = g.numNodes();
    auto users = g.consumers();
    std::vector<bool> is_output(n, false);
    for (int o : g.outputs())
        is_output[o] = true;

    auto isArena = [&](int id) {
        const Node &node = g.node(id);
        return !isSourceOp(node.op) && !isInPlaceOp(node.op);
    };

    std::vector<int> remaining_inputs(n, 0);
    std::vector<int> remaining_users(n, 0);
    for (int id = 0; id < n; ++id) {
        remaining_inputs[id] = static_cast<int>(g.node(id).inputs.size());
        remaining_users[id] = static_cast<int>(users[id].size());
    }

    std::vector<bool> scheduled(n, false);
    std::vector<int> ready;
    for (int id = 0; id < n; ++id) {
        if (remaining_inputs[id] == 0)
            ready.push_back(id);
    }

    // An in-place op mutates its parameter; it may only run after
    // every other reader of that parameter within the step.
    auto inPlaceReady = [&](int id) {
        const Node &node = g.node(id);
        if (!isInPlaceOp(node.op))
            return true;
        for (int u : users[node.inputs[0]]) {
            if (u != id && !scheduled[u])
                return false;
        }
        return true;
    };

    std::vector<int> order;
    order.reserve(n);
    while (!ready.empty()) {
        int best = -1;
        int64_t best_score = 0;
        bool best_inplace = false;
        size_t best_pos = 0;
        for (size_t i = 0; i < ready.size(); ++i) {
            int id = ready[i];
            if (!inPlaceReady(id))
                continue;
            const Node &node = g.node(id);
            bool inplace = isInPlaceOp(node.op);
            int64_t alloc =
                isArena(id) ? numel(node.shape) * dtypeSize(node.dtype)
                            : 0;
            int64_t freed = 0;
            for (int in : node.inputs) {
                if (remaining_users[in] == 1 && isArena(in) &&
                    !is_output[in]) {
                    freed += numel(g.node(in).shape) *
                             dtypeSize(g.node(in).dtype);
                }
            }
            int64_t score = freed - alloc;
            bool better;
            if (best < 0) {
                better = true;
            } else if (inplace != best_inplace) {
                better = inplace; // updates first: recycle grads now
            } else {
                better = score > best_score ||
                         (score == best_score && id < best);
            }
            if (better) {
                best = id;
                best_score = score;
                best_inplace = inplace;
                best_pos = i;
            }
        }
        if (best < 0)
            throw std::runtime_error("reorderForMemory: deadlock");
        ready.erase(ready.begin() + static_cast<long>(best_pos));
        scheduled[best] = true;
        order.push_back(best);
        for (int in : g.node(best).inputs)
            --remaining_users[in];
        for (int u : users[best]) {
            if (--remaining_inputs[u] == 0)
                ready.push_back(u);
        }
    }
    if (static_cast<int>(order.size()) != n)
        throw std::runtime_error("reorderForMemory: cycle detected");
    return order;
}

std::vector<std::string>
switchBackends(const Graph &g, const BackendOptions &opts,
               PassStats *stats)
{
    std::vector<std::string> variants(g.numNodes());
    for (int id = 0; id < g.numNodes(); ++id) {
        const Node &n = g.node(id);
        if (n.op == OpKind::Conv2d || n.op == OpKind::ConvBiasAct) {
            if (opts.enableWinograd) {
                const Node &w = g.node(n.inputs[1]);
                bool frozen = w.op == OpKind::Param && !w.trainable;
                bool shape_ok = w.shape[2] == 3 && w.shape[3] == 3 &&
                                n.attrs.getInt("stride", 1) == 1;
                if (frozen && shape_ok) {
                    variants[id] = "winograd";
                    if (stats)
                        ++stats->winogradBound;
                }
            }
            // Every other conv lowers to im2col — the variant the
            // SIMD tier upgrades ("im2col@avx2"/"@neon"); the direct
            // kernel's partition domain is incompatible, so a
            // direct-bound conv can never reach the tier. A pointwise
            // conv reads its input in place, and any other conv
            // unfolds one bounded column panel at a time, so neither
            // grows peak memory by an image's column matrix.
            if (variants[id].empty() && opts.enableBlocked) {
                variants[id] = "im2col";
                if (stats)
                    ++stats->im2colBound;
            }
        } else if (n.op == OpKind::Conv2dBwdInput ||
                   n.op == OpKind::Conv2dBwdWeight) {
            // A pointwise conv's input and weight gradients are GEMMs
            // (W^T dY and dY X^T): the "im2col" GEMM forms, which the
            // SIMD tier upgrades. Spatial ones keep the direct loops.
            const Shape &w = n.op == OpKind::Conv2dBwdInput
                                 ? g.node(n.inputs[0]).shape
                                 : n.shape;
            if (opts.enableBlocked && isPointwiseConv(w, n.attrs)) {
                variants[id] = "im2col";
                if (stats)
                    ++stats->im2colBound;
            }
        } else if (n.op == OpKind::DwConv2d ||
                   n.op == OpKind::DwConvBiasAct ||
                   n.op == OpKind::DwConv2dBwdInput) {
            // Depthwise forward and input gradient: the channel-lane
            // "packed" body, bit-identical to the direct loops, which
            // the SIMD tier upgrades.
            if (opts.enableBlocked)
                variants[id] = "packed";
        } else if (n.op == OpKind::MatMul ||
                   n.op == OpKind::MatMulBiasAct ||
                   n.op == OpKind::BatchMatMul) {
            // Every GEMM, at any size: "blocked" is the variant the
            // SIMD tier upgrades, and its body reads a row-major B in
            // place, so even decode's M = 4 projections gain. The
            // exception is one output row against a transposed B: the
            // naive loop is then a run of contiguous dot products,
            // while "blocked" would first pack all of B, as much work
            // as the product itself.
            bool gemv_bt = n.attrs.getInt("transB", 0) != 0 &&
                           n.shape[n.shape.size() - 2] == 1;
            if (opts.enableBlocked && !gemv_bt) {
                variants[id] = "blocked";
                if (stats)
                    ++stats->blockedBound;
            }
        } else if (isQuantComputeOp(n.op)) {
            // Quant compute ops want the real int8 kernels (every
            // quant compute op has one, depthwise included). Should a
            // future op ship without its int8 kernel, bind falls back
            // to the dequant->fp32->requant reference kernel and the
            // fallback counters surface exactly that.
            variants[id] = "int8";
            if (stats)
                ++stats->int8Bound;
        }
    }
    return variants;
}

} // namespace pe
