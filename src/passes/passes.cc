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
fuseAttention(Graph &g)
{
    int fused = 0;
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

    // Head-split sink. The canonical decode head split materializes
    // K/V as permuted [L*H,M,Dh] copies — and the fused op, consuming
    // both at once, would keep the two slabs live simultaneously where
    // the unfused chain frees K's copy (at the QK matmul) before V's
    // is built. Sinking the split into the kernel — which then reads
    // the [L,M,H*Dh] cache slab with head-strided rows — deletes both
    // copies from the arena, so the fused plan's peak-live drops below
    // the unfused plan's instead of above it. Value-for-value the
    // reads are identical, so bit parity with the copies is preserved.
    //
    // Matches exactly reshape{L*H,M,Dh}(permute{0,2,1,3}(
    // reshape{L,M,H,Dh}(src[L,M,H*Dh]))); returns src or -1.
    auto sinkSplit = [&](int id, int64_t &L, int64_t &H, int64_t &M,
                         int64_t &Dh) -> int {
        const Node &rs2 = g.node(id);
        if (rs2.op != OpKind::Reshape || !singleUse(id) ||
            rs2.shape.size() != 3)
            return -1;
        int p_id = rs2.inputs[0];
        const Node &p = g.node(p_id);
        if (p.op != OpKind::Permute || !singleUse(p_id) ||
            p.attrs.getInts("perm") != std::vector<int64_t>{0, 2, 1, 3})
            return -1;
        int rs1_id = p.inputs[0];
        const Node &rs1 = g.node(rs1_id);
        if (rs1.op != OpKind::Reshape || !singleUse(rs1_id) ||
            rs1.shape.size() != 4)
            return -1;
        int64_t l = rs1.shape[0], m = rs1.shape[1];
        int64_t h = rs1.shape[2], dh = rs1.shape[3];
        int src = rs1.inputs[0];
        if (rs2.shape != Shape{l * h, m, dh} ||
            g.node(src).shape != Shape{l, m, h * dh})
            return -1;
        L = l;
        H = h;
        M = m;
        Dh = dh;
        return src;
    };
    // The per-head mask broadcast: reshape{L*H,1,M}(BroadcastTo{L,H,M}(
    // reshape{L,1,M}(src[L,M]))); returns src or -1.
    auto sinkMask = [&](int id, int64_t L, int64_t H,
                        int64_t M) -> int {
        const Node &rs2 = g.node(id);
        if (rs2.op != OpKind::Reshape || !singleUse(id) ||
            rs2.shape != Shape{L * H, 1, M})
            return -1;
        int bc_id = rs2.inputs[0];
        const Node &bc = g.node(bc_id);
        if (bc.op != OpKind::BroadcastTo || !singleUse(bc_id) ||
            bc.shape != Shape{L, H, M})
            return -1;
        int rs1_id = bc.inputs[0];
        const Node &rs1 = g.node(rs1_id);
        if (rs1.op != OpKind::Reshape || !singleUse(rs1_id) ||
            rs1.shape != Shape{L, 1, M})
            return -1;
        int src = rs1.inputs[0];
        if (g.node(src).shape != Shape{L, M})
            return -1;
        return src;
    };

    // Root the match at the P*V matmul and walk the chain upward.
    for (int id = 0; id < g.numNodes(); ++id) {
        Node &root = g.node(id);
        if (!isMatmul(root) || root.attrs.getInt("transA", 0) ||
            root.attrs.getInt("transB", 0)) {
            continue;
        }
        int sm_id = root.inputs[0];
        const Node &sm = g.node(sm_id);
        if (sm.op != OpKind::Softmax || !singleUse(sm_id))
            continue;
        int add_id = sm.inputs[0];
        const Node &add = g.node(add_id);
        if (add.op != OpKind::Add || !singleUse(add_id))
            continue;
        // Scale on either side of the mask-Add.
        int sc_id = -1, mask_id = -1;
        for (int side = 0; side < 2; ++side) {
            if (g.node(add.inputs[side]).op == OpKind::Scale) {
                sc_id = add.inputs[side];
                mask_id = add.inputs[1 - side];
                break;
            }
        }
        if (sc_id < 0 || !singleUse(sc_id))
            continue;
        const Node &sc = g.node(sc_id);
        int qk_id = sc.inputs[0];
        const Node &qk = g.node(qk_id);
        if (!isMatmul(qk) || qk.op != root.op || !singleUse(qk_id) ||
            qk.attrs.getInt("transA", 0) ||
            !qk.attrs.getInt("transB", 0)) {
            continue;
        }

        int q_id = qk.inputs[0], k_id = qk.inputs[1];
        int v_id = root.inputs[1];
        const Shape &qsh = g.node(q_id).shape;
        const Shape &ksh = g.node(k_id).shape;
        const Shape &vsh = g.node(v_id).shape;
        const Shape &msh = g.node(mask_id).shape;
        // The fused kernel reads the mask row-for-row with the scores
        // (no broadcasting) and K/V as equal [.., M, Dh] slabs.
        if (ksh != vsh || msh != qk.shape)
            continue;
        size_t r = qsh.size();
        if ((r != 2 && r != 3) || ksh.size() != r)
            continue;

        Attrs attrs;
        attrs.set("scale", sc.attrs.getFloat("alpha", 1.0));
        if (root.attrs.has(kCalibMinAttr) &&
            root.attrs.has(kCalibMaxAttr)) {
            attrs.set(kCalibMinAttr,
                      root.attrs.getFloat(kCalibMinAttr, 0.0));
            attrs.set(kCalibMaxAttr,
                      root.attrs.getFloat(kCalibMaxAttr, 0.0));
        }
        Shape shape = root.shape;
        root.op = OpKind::FusedAttention;
        root.inputs = {q_id, k_id, v_id, mask_id};
        root.attrs = std::move(attrs);
        root.shape = shape;
        ++fused;

        // If K and V arrive through the canonical decode head split
        // and the mask through the matching per-head broadcast, feed
        // the kernel the pre-split sources directly (Q's reshape is a
        // free alias and stays). DCE collects the dead chains.
        int64_t kl, kh, km, kdh, vl, vh, vm, vdh;
        int k_src = sinkSplit(k_id, kl, kh, km, kdh);
        int v_src = sinkSplit(v_id, vl, vh, vm, vdh);
        if (k_src >= 0 && v_src >= 0 && kl == vl && kh == vh &&
            km == vm && kdh == vdh &&
            g.node(q_id).shape == Shape{kl * kh, 1, kdh}) {
            int m_src = sinkMask(mask_id, kl, kh, km);
            if (m_src >= 0) {
                root.inputs = {q_id, k_src, v_src, m_src};
                root.attrs.set("heads", kh);
            }
        }
    }
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
