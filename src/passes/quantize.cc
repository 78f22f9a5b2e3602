/**
 * @file
 * QuantizePass: rewrite the forward region of a (possibly training)
 * graph to int8 or fp16 storage.
 *
 * The pass runs AFTER autodiff and fusion, so the backward graph
 * already exists in fp32 and consumes forward activations by node id.
 * Quantizing a forward node in place (same id, now i8) therefore
 * automatically makes the backward read the straight-through
 * estimate: each fp32 consumer gets its own Dequantize of the stored
 * i8 activation — exactly the paper's deployment shape, where int8
 * activations saved for sparse-BP are a 4x memory win over fp32.
 *
 * Weight handling splits by trainability: trainable weights keep
 * their fp32 master in the ParamStore and are re-quantized every step
 * by a runtime Quantize node (per-output-channel symmetric scales
 * fixed at compile time from the calibrated masters), so the in-place
 * optimizer updates flow into the next step's quantized forward.
 * Frozen weights can instead be pre-quantized into i8 Const nodes
 * (QuantizeOptions::prequantizeFrozen); DCE then drops the fp32
 * master from the graph and the parameter footprint.
 */

#include "passes/passes.h"

#include <cmath>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "runtime/paramstore.h"
#include "runtime/planner.h"

namespace pe {

namespace {

bool
hasCalib(const Node &n)
{
    if (!n.attrs.has(kCalibMinAttr) || !n.attrs.has(kCalibMaxAttr))
        return false;
    // Sentinel guard: attention masks ride through the graph as
    // kMaskedScore adds (so exp underflows to exact zero). A calibrated
    // range that wide would put the int8 step at ~1e28 — every real
    // value collapses into one bucket — so such tensors stay fp32.
    // This also keeps the fused-attention rewrite int8-invariant: the
    // mask-Add it swallows was never quantizable to begin with.
    double mn = n.attrs.getFloat(kCalibMinAttr, 0.0);
    double mx = n.attrs.getFloat(kCalibMaxAttr, 0.0);
    return std::abs(mn) < 1e20 && std::abs(mx) < 1e20;
}

QuantParams
outputQuantParams(const Node &n)
{
    return chooseQuantParams(
        static_cast<float>(n.attrs.getFloat(kCalibMinAttr, 0.0)),
        static_cast<float>(n.attrs.getFloat(kCalibMaxAttr, 0.0)));
}

/** Nodes in the ancestor cone of @p roots (inclusive). */
std::vector<bool>
ancestorSet(const Graph &g, std::vector<int> roots)
{
    std::vector<bool> in(g.numNodes(), false);
    while (!roots.empty()) {
        int id = roots.back();
        roots.pop_back();
        if (id < 0 || in[id])
            continue;
        in[id] = true;
        for (int i : g.node(id).inputs)
            roots.push_back(i);
    }
    return in;
}

/** The fp32 ops the pass knows how to quantize. */
bool
isQuantizableKind(OpKind op)
{
    switch (op) {
      case OpKind::Conv2d:
      case OpKind::ConvBiasAct:
      case OpKind::DwConv2d:
      case OpKind::DwConvBiasAct:
      case OpKind::MatMul:
      case OpKind::MatMulBiasAct:
      case OpKind::Add:
      case OpKind::Relu:
        return true;
      default:
        return false;
    }
}

OpKind
quantKindOf(OpKind op)
{
    switch (op) {
      case OpKind::Conv2d:
      case OpKind::ConvBiasAct:
        return OpKind::QuantConv2d;
      case OpKind::DwConv2d:
      case OpKind::DwConvBiasAct:
        return OpKind::QuantDwConv2d;
      case OpKind::MatMul:
      case OpKind::MatMulBiasAct:
        return OpKind::QuantMatMul;
      case OpKind::Add:
        return OpKind::QuantAdd;
      case OpKind::Relu:
        return OpKind::QuantRelu;
      default:
        return OpKind::Identity;
    }
}

/** True for ops that legally consume an i8 input (only the pass
 *  creates these, so any other consumer needs a Dequantize). */
bool
consumesQuantized(OpKind op)
{
    return isQuantComputeOp(op) || op == OpKind::Dequantize ||
           op == OpKind::Requantize;
}

/** Weight values for scale computation: Const data or ParamStore. */
const Tensor *
weightValues(const Graph &g, int wid, const ParamStore *store)
{
    const Node &w = g.node(wid);
    if (w.op == OpKind::Const && g.hasConstData(wid))
        return &g.constData(wid);
    if (w.op == OpKind::Param && store && store->has(w.name))
        return &store->get(w.name);
    return nullptr;
}

/** Per-channel max-abs over axis @p axis of @p t (rank <= 4). */
std::vector<float>
channelScales(const Tensor *t, const Shape &shape, int64_t axis)
{
    int64_t channels = shape[axis];
    std::vector<float> maxabs(static_cast<size_t>(channels), 0.0f);
    if (t) {
        int64_t inner = 1;
        for (size_t i = axis + 1; i < shape.size(); ++i)
            inner *= shape[i];
        for (int64_t i = 0; i < t->size(); ++i) {
            int64_t c = (i / inner) % channels;
            float a = std::fabs((*t)[i]);
            if (a > maxabs[c])
                maxabs[c] = a;
        }
    }
    std::vector<float> scales(maxabs.size());
    for (size_t c = 0; c < maxabs.size(); ++c)
        scales[c] = t ? chooseWeightScale(maxabs[c]) : 1.0f;
    return scales;
}

struct Int8Rewriter {
    Graph &g;
    const QuantizeOptions &opts;
    QuantizeStats &stats;
    /** Candidate set, fixed before any rewrite. */
    std::vector<bool> candidate;
    /** Producer id -> cached Quantize node for fp32 sources. */
    std::unordered_map<int, int> quantCache;
    /** Weight id -> (quantized weight id, scales const id). */
    std::unordered_map<int, std::pair<int, int>> weightCache;
    /** Quantized producer id -> cached output-boundary Dequantize. */
    std::unordered_map<int, int> outputDequant;

    /**
     * Resolve an i8 view of fp32 value @p src, plus the affine params
     * the consumer must use. Prefers (in order): the source itself if
     * it is (or will be) a quantized producer; folding through a
     * Dequantize (the DQ->Q chain becomes a Requantize, or nothing
     * when the params match); a cached/new Quantize node.
     */
    int
    quantizedInput(int src, QuantParams &qp)
    {
        const Node &s = g.node(src);
        if (candidate[src]) { // will be rewritten in place to i8
            qp = outputQuantParams(s);
            return src;
        }
        if (s.op == OpKind::Dequantize && s.inputs.size() == 1 &&
            g.node(s.inputs[0]).dtype == DType::I8) {
            // Fold Dequantize->Quantize: reuse the underlying i8
            // value, requantizing only if this consumer's calibrated
            // params differ from the stored ones.
            QuantParams have;
            have.scale =
                static_cast<float>(s.attrs.getFloat("xScale", 1.0));
            have.zeroPoint =
                static_cast<int32_t>(s.attrs.getInt("xZp", 0));
            QuantParams want = hasCalib(s) ? outputQuantParams(s) : have;
            ++stats.requantFolded;
            if (want.scale == have.scale &&
                want.zeroPoint == have.zeroPoint) {
                qp = have;
                return s.inputs[0];
            }
            Attrs a;
            a.set("xScale", static_cast<double>(have.scale));
            a.set("xZp", static_cast<int64_t>(have.zeroPoint));
            a.set("yScale", static_cast<double>(want.scale));
            a.set("yZp", static_cast<int64_t>(want.zeroPoint));
            qp = want;
            return g.add(OpKind::Requantize, {s.inputs[0]}, std::move(a));
        }
        qp = outputQuantParams(s);
        auto it = quantCache.find(src);
        if (it != quantCache.end())
            return it->second;
        Attrs a;
        a.set("dtype", std::string("i8"));
        a.set("yScale", static_cast<double>(qp.scale));
        a.set("yZp", static_cast<int64_t>(qp.zeroPoint));
        int q = g.add(OpKind::Quantize, {src}, std::move(a));
        quantCache[src] = q;
        ++stats.quantizeNodes;
        return q;
    }

    /**
     * I8 view of weight @p wid with per-channel scales along @p axis.
     * @return (qweight id, scales const id)
     */
    std::pair<int, int>
    quantizedWeight(int wid, int64_t axis)
    {
        auto it = weightCache.find(wid);
        if (it != weightCache.end())
            return it->second;
        // Copy what we need up front: g.add below may reallocate the
        // node table and invalidate references into it.
        const Shape wshape = g.node(wid).shape;
        const std::string wname = g.node(wid).name;
        const OpKind wop = g.node(wid).op;
        const bool wtrainable = g.node(wid).trainable;
        const Tensor *values = weightValues(g, wid, opts.store);
        Tensor values_copy; // stays valid if the const table rehashes
        if (values) {
            values_copy = *values;
            values = &values_copy;
        }
        std::vector<float> scales = channelScales(values, wshape, axis);
        int scales_id = g.constantOf(
            Tensor::fromVector({static_cast<int64_t>(scales.size())},
                               scales),
            wname.empty() ? "" : wname + ".qscale");

        bool frozen = wop == OpKind::Const ||
                      (wop == OpKind::Param && !wtrainable);
        int qid;
        if (opts.prequantizeFrozen && frozen && values) {
            // Deployment shape: bake the i8 weight into the graph;
            // DCE will drop the fp32 master entirely.
            Attrs a;
            a.set("shape", wshape);
            a.set("dtype", std::string("i8"));
            a.set("qaxis", axis);
            qid = g.add(OpKind::Const, {}, std::move(a),
                        wname.empty() ? "" : wname + ".q8");
            Tensor q(wshape);
            int64_t inner = 1;
            for (size_t i = axis + 1; i < wshape.size(); ++i)
                inner *= wshape[i];
            for (int64_t i = 0; i < values->size(); ++i) {
                int64_t c = (i / inner) % wshape[axis];
                q[i] = static_cast<float>(
                    quantizeValue((*values)[i], scales[c], 0));
            }
            g.setConstData(qid, std::move(q));
            ++stats.prequantizedWeights;
        } else {
            Attrs a;
            a.set("dtype", std::string("i8"));
            a.set("qaxis", axis);
            qid = g.add(OpKind::Quantize, {wid, scales_id}, std::move(a));
            ++stats.quantizeNodes;
        }
        weightCache[wid] = {qid, scales_id};
        return {qid, scales_id};
    }

    void
    setQuantAttrs(Attrs &a, const char *scale_key, const char *zp_key,
                  const QuantParams &qp)
    {
        a.set(scale_key, static_cast<double>(qp.scale));
        a.set(zp_key, static_cast<int64_t>(qp.zeroPoint));
    }

    /** Rewrite candidate @p id in place to its Quant* form. */
    void
    rewrite(int id)
    {
        // Copy the node's pre-rewrite state: the helper calls below
        // add nodes and may reallocate the node table.
        const OpKind orig_op = g.node(id).op;
        const std::vector<int> orig_inputs = g.node(id).inputs;
        Attrs a = g.node(id).attrs; // stride/pad/trans/act + calib
        OpKind qk = quantKindOf(orig_op);
        QuantParams y = outputQuantParams(g.node(id));

        std::vector<int> inputs;
        switch (qk) {
          case OpKind::QuantAdd: {
            QuantParams qa, qb;
            int ia = quantizedInput(orig_inputs[0], qa);
            int ib = quantizedInput(orig_inputs[1], qb);
            inputs = {ia, ib};
            setQuantAttrs(a, "xScale", "xZp", qa);
            setQuantAttrs(a, "bScale", "bZp", qb);
            break;
          }
          case OpKind::QuantRelu: {
            QuantParams qa;
            inputs = {quantizedInput(orig_inputs[0], qa)};
            setQuantAttrs(a, "xScale", "xZp", qa);
            break;
          }
          default: { // conv / dwconv / matmul forms
            bool fused = orig_op == OpKind::ConvBiasAct ||
                         orig_op == OpKind::DwConvBiasAct ||
                         orig_op == OpKind::MatMulBiasAct;
            int wid = orig_inputs[1];
            int64_t axis = 0;
            if (qk == OpKind::QuantMatMul)
                axis = a.getInt("transB", 0) != 0 ? 0 : 1;
            QuantParams qa;
            int ia = quantizedInput(orig_inputs[0], qa);
            auto [qw, scales_id] = quantizedWeight(wid, axis);
            inputs = {ia, qw};
            if (fused)
                inputs.push_back(orig_inputs[2]); // fp32 bias
            inputs.push_back(scales_id);
            setQuantAttrs(a, "xScale", "xZp", qa);
            a.set("wScale", 1.0); // per-channel scales in use
            a.set("hasBias", static_cast<int64_t>(fused ? 1 : 0));
            a.set("perChannel", static_cast<int64_t>(1));
            if (!a.has("act"))
                a.set("act", static_cast<int64_t>(kActNone));
            break;
          }
        }
        setQuantAttrs(a, "yScale", "yZp", y);

        Node &node = g.node(id);
        node.op = qk;
        node.inputs = std::move(inputs);
        node.attrs = std::move(a);
        node.dtype = DType::I8;
        ++stats.quantizedOps;
    }

    /** Dequantize for fp32 consumers / graph outputs of @p id. */
    int
    makeDequant(int id)
    {
        const Node &n = g.node(id);
        QuantParams y;
        y.scale = static_cast<float>(n.attrs.getFloat("yScale", 1.0));
        y.zeroPoint = static_cast<int32_t>(n.attrs.getInt("yZp", 0));
        Attrs a;
        a.set("dtype", std::string("i8"));
        setQuantAttrs(a, "xScale", "xZp", y);
        ++stats.dequantizeNodes;
        return g.add(OpKind::Dequantize, {id}, std::move(a));
    }
};

int
quantizeInt8(Graph &g, const QuantizeOptions &opts, QuantizeStats &stats)
{
    std::vector<int> roots =
        opts.root >= 0 ? std::vector<int>{opts.root} : g.outputs();
    std::vector<bool> forward = ancestorSet(g, std::move(roots));

    Int8Rewriter rw{g, opts, stats, {}, {}, {}, {}};
    rw.candidate.assign(g.numNodes(), false);
    int preexisting = g.numNodes();
    for (int id = 0; id < preexisting; ++id) {
        const Node &n = g.node(id);
        if (!forward[id] || !isQuantizableKind(n.op) || !hasCalib(n) ||
            n.dtype != DType::F32) {
            continue;
        }
        bool ok = true;
        switch (quantKindOf(n.op)) {
          case OpKind::QuantAdd:
            ok = g.node(n.inputs[0]).shape == n.shape &&
                 g.node(n.inputs[1]).shape == n.shape &&
                 hasCalib(g.node(n.inputs[0])) &&
                 hasCalib(g.node(n.inputs[1]));
            break;
          case OpKind::QuantRelu:
            ok = hasCalib(g.node(n.inputs[0]));
            break;
          case OpKind::QuantMatMul: {
            const Node &w = g.node(n.inputs[1]);
            ok = n.attrs.getInt("transA", 0) == 0 &&
                 (w.op == OpKind::Param || w.op == OpKind::Const) &&
                 hasCalib(g.node(n.inputs[0]));
            break;
          }
          default: { // conv forms
            const Node &w = g.node(n.inputs[1]);
            ok = (w.op == OpKind::Param || w.op == OpKind::Const) &&
                 hasCalib(g.node(n.inputs[0]));
            break;
          }
        }
        rw.candidate[id] = ok;
    }

    // Rewrite every candidate in place (order is irrelevant: inputs
    // are resolved through calibration attrs, not rewritten nodes).
    for (int id = 0; id < preexisting; ++id) {
        if (rw.candidate[id])
            rw.rewrite(id);
    }

    // Wire fp32 consumers of quantized values through per-consumer
    // Dequantize nodes (per consumer, not per producer, so the fp32
    // copy lives only around its single use — the stored activation
    // the backward waits on stays i8).
    int wired = g.numNodes();
    for (int cid = 0; cid < wired; ++cid) {
        OpKind cop = g.node(cid).op;
        if (consumesQuantized(cop) || cop == OpKind::Quantize)
            continue;
        // Index-based: makeDequant adds nodes, which may invalidate
        // references/iterators into the node table.
        int dq = -1;
        size_t slots = g.node(cid).inputs.size();
        for (size_t s = 0; s < slots; ++s) {
            int in = g.node(cid).inputs[s];
            if (g.node(in).dtype != DType::I8)
                continue;
            if (dq < 0 || g.node(dq).inputs[0] != in)
                dq = rw.makeDequant(in);
            g.node(cid).inputs[s] = dq;
        }
    }
    for (int &out : g.outputs()) {
        if (g.node(out).dtype != DType::I8)
            continue;
        auto it = rw.outputDequant.find(out);
        if (it == rw.outputDequant.end())
            it = rw.outputDequant.emplace(out, rw.makeDequant(out)).first;
        out = it->second;
    }
    return stats.quantizedOps;
}

int
quantizeF16(Graph &g, const QuantizeOptions &opts, QuantizeStats &stats)
{
    std::vector<int> roots =
        opts.root >= 0 ? std::vector<int>{opts.root} : g.outputs();
    std::vector<bool> forward = ancestorSet(g, std::move(roots));

    int preexisting = g.numNodes();
    std::vector<bool> is_output(g.numNodes(), false);
    for (int o : g.outputs())
        is_output[o] = true;

    // For each eligible activation X: store X as f16 (one Quantize
    // cast), and give every consumer its own Dequantize so the fp32
    // copies live only around their uses. X itself dies immediately
    // after the cast — the value that persists (e.g. for backward) is
    // the half-precision one.
    std::unordered_map<int, int> castOf; // X -> f16 Quantize id
    for (int id = 0; id < preexisting; ++id) {
        const Node &n = g.node(id);
        if (!forward[id] || !isQuantizableKind(n.op) ||
            n.dtype != DType::F32 || is_output[id]) {
            continue;
        }
        Attrs a;
        a.set("dtype", std::string("f16"));
        castOf[id] = g.add(OpKind::Quantize, {id}, std::move(a));
        ++stats.quantizeNodes;
        ++stats.quantizedOps;
    }
    int wired = g.numNodes();
    for (int cid = 0; cid < wired; ++cid) {
        OpKind cop = g.node(cid).op;
        if (cop == OpKind::Quantize || cop == OpKind::Dequantize)
            continue;
        size_t slots = g.node(cid).inputs.size();
        for (size_t s = 0; s < slots; ++s) {
            auto it = castOf.find(g.node(cid).inputs[s]);
            if (it == castOf.end())
                continue;
            Attrs a;
            a.set("dtype", std::string("f16"));
            int dq =
                g.add(OpKind::Dequantize, {it->second}, std::move(a));
            ++stats.dequantizeNodes;
            g.node(cid).inputs[s] = dq;
        }
    }
    return stats.quantizedOps;
}

} // namespace

int
quantizePass(Graph &g, const QuantizeOptions &opts, QuantizeStats *stats)
{
    detail::countQuantizePassInvocation();
    QuantizeStats local;
    QuantizeStats &s = stats ? *stats : local;
    switch (opts.precision) {
      case Precision::F32:
        return 0;
      case Precision::F16:
        return quantizeF16(g, opts, s);
      case Precision::Int8:
        return quantizeInt8(g, opts, s);
    }
    throw std::runtime_error("quantizePass: bad precision");
}

} // namespace pe
