#include "ir/infer.h"

#include <stdexcept>
#include <string>

#include "ir/graph.h"

namespace pe {

namespace {

[[noreturn]] void
fail(OpKind op, const std::string &msg)
{
    throw std::runtime_error(std::string("inferShape(") + opName(op) +
                             "): " + msg);
}

void
expectInputs(OpKind op, const std::vector<int> &inputs, size_t n)
{
    if (inputs.size() != n) {
        fail(op, "expected " + std::to_string(n) + " inputs, got " +
                 std::to_string(inputs.size()));
    }
}

/// Shape of a 2-D matmul with transpose flags.
Shape
matmulShape(OpKind op, const Shape &a, const Shape &b, bool trans_a,
            bool trans_b)
{
    if (a.size() != 2 || b.size() != 2)
        fail(op, "expects rank-2 operands");
    int64_t m = trans_a ? a[1] : a[0];
    int64_t ka = trans_a ? a[0] : a[1];
    int64_t kb = trans_b ? b[1] : b[0];
    int64_t n = trans_b ? b[0] : b[1];
    if (ka != kb) {
        fail(op, "inner dims mismatch " + shapeToString(a) + " x " +
                 shapeToString(b));
    }
    return {m, n};
}

/// Zero points are int8 codes: the int8 kernels pad with them, and
/// the depthwise kernel's 16-bit products assume the range.
void
checkZeroPoints(OpKind op, const Attrs &attrs, const std::string &name)
{
    for (const char *key : {"xZp", "bZp", "yZp"}) {
        int64_t zp = attrs.getInt(key, 0);
        if (zp < -128 || zp > 127)
            throw std::invalid_argument(
                std::string("inferShape(") + opName(op) + "): node '" +
                name + "' has " + key + " " + std::to_string(zp) +
                ", not an int8 code in [-128, 127]");
    }
}

} // namespace

int64_t
convOutDim(int64_t in, int64_t kernel, int64_t stride, int64_t pad)
{
    return (in + 2 * pad - kernel) / stride + 1;
}

Shape
inferShape(const Graph &g, OpKind op, const std::vector<int> &inputs,
           const Attrs &attrs, const std::string &name)
{
    if (isQuantComputeOp(op) || op == OpKind::Quantize ||
        op == OpKind::Dequantize || op == OpKind::Requantize)
        checkZeroPoints(op, attrs, name);
    auto in = [&](size_t i) -> const Shape & {
        return g.node(inputs.at(i)).shape;
    };

    switch (op) {
      case OpKind::Input:
      case OpKind::Param:
      case OpKind::Const:
        return attrs.getInts("shape");

      case OpKind::Add:
      case OpKind::Sub:
      case OpKind::Mul:
      case OpKind::Div:
        expectInputs(op, inputs, 2);
        return broadcastShapes(in(0), in(1));

      case OpKind::Neg:
      case OpKind::Relu:
      case OpKind::Gelu:
      case OpKind::Silu:
      case OpKind::Sigmoid:
      case OpKind::Tanh:
      case OpKind::Exp:
      case OpKind::Log:
      case OpKind::Sqrt:
      case OpKind::Scale:
      case OpKind::AddScalar:
      case OpKind::Identity:
        expectInputs(op, inputs, 1);
        return in(0);

      case OpKind::ReluGrad:
      case OpKind::GeluGrad:
      case OpKind::SiluGrad:
      case OpKind::SigmoidGrad:
      case OpKind::TanhGrad:
      case OpKind::SoftmaxGrad:
        expectInputs(op, inputs, 2);
        if (in(0) != in(1))
            fail(op, "x/dy shape mismatch");
        return in(0);

      case OpKind::MatMul:
        expectInputs(op, inputs, 2);
        return matmulShape(op, in(0), in(1), attrs.getInt("transA", 0),
                           attrs.getInt("transB", 0));

      case OpKind::BatchMatMul: {
        expectInputs(op, inputs, 2);
        const Shape &a = in(0), &b = in(1);
        if (a.size() != 3 || b.size() != 3 || a[0] != b[0])
            fail(op, "expects [B,M,K]x[B,K,N]");
        Shape mm = matmulShape(op, {a[1], a[2]}, {b[1], b[2]},
                               attrs.getInt("transA", 0),
                               attrs.getInt("transB", 0));
        return {a[0], mm[0], mm[1]};
      }

      case OpKind::Reshape: {
        expectInputs(op, inputs, 1);
        Shape target = attrs.getInts("shape");
        int64_t total = numel(in(0));
        int64_t known = 1, infer_at = -1;
        for (size_t i = 0; i < target.size(); ++i) {
            if (target[i] == -1) {
                if (infer_at >= 0)
                    fail(op, "multiple -1 dims");
                infer_at = static_cast<int64_t>(i);
            } else {
                known *= target[i];
            }
        }
        if (infer_at >= 0)
            target[infer_at] = total / known;
        if (numel(target) != total)
            fail(op, "numel mismatch " + shapeToString(in(0)) + " -> " +
                     shapeToString(target));
        return target;
      }

      case OpKind::Permute: {
        expectInputs(op, inputs, 1);
        auto perm = attrs.getInts("perm");
        const Shape &x = in(0);
        if (perm.size() != x.size())
            fail(op, "perm rank mismatch");
        Shape out(x.size());
        for (size_t i = 0; i < perm.size(); ++i)
            out[i] = x[perm[i]];
        return out;
      }

      case OpKind::Slice: {
        expectInputs(op, inputs, 1);
        int64_t axis = attrs.getInt("axis");
        int64_t begin = attrs.getInt("begin");
        int64_t end = attrs.getInt("end");
        Shape out = in(0);
        if (axis < 0 || axis >= static_cast<int64_t>(out.size()))
            fail(op, "axis out of range");
        if (begin < 0 || end > out[axis] || begin >= end)
            fail(op, "bad slice range");
        out[axis] = end - begin;
        return out;
      }

      case OpKind::Pad: {
        expectInputs(op, inputs, 1);
        int64_t axis = attrs.getInt("axis");
        Shape out = in(0);
        if (axis < 0 || axis >= static_cast<int64_t>(out.size()))
            fail(op, "axis out of range");
        out[axis] += attrs.getInt("before", 0) + attrs.getInt("after", 0);
        return out;
      }

      case OpKind::BroadcastTo: {
        expectInputs(op, inputs, 1);
        Shape target = attrs.getInts("shape");
        if (!broadcastableTo(in(0), target))
            fail(op, "cannot broadcast " + shapeToString(in(0)) + " to " +
                     shapeToString(target));
        return target;
      }

      case OpKind::ReduceSum:
      case OpKind::ReduceMean: {
        expectInputs(op, inputs, 1);
        auto axes = attrs.getInts("axes");
        bool keep = attrs.getInt("keepdims", 0) != 0;
        const Shape &x = in(0);
        std::vector<bool> reduced(x.size(), false);
        for (int64_t a : axes) {
            if (a < 0 || a >= static_cast<int64_t>(x.size()))
                fail(op, "axis out of range");
            reduced[a] = true;
        }
        Shape out;
        for (size_t i = 0; i < x.size(); ++i) {
            if (reduced[i]) {
                if (keep)
                    out.push_back(1);
            } else {
                out.push_back(x[i]);
            }
        }
        if (out.empty())
            out.push_back(1);
        return out;
      }

      case OpKind::Conv2d:
      case OpKind::ConvBiasAct: {
        const Shape &x = in(0), &w = in(1);
        if (x.size() != 4 || w.size() != 4)
            fail(op, "expects NCHW x and [Co,Ci,Kh,Kw] w");
        if (x[1] != w[1])
            fail(op, "channel mismatch " + shapeToString(x) + " w " +
                     shapeToString(w));
        int64_t s = attrs.getInt("stride", 1), p = attrs.getInt("pad", 0);
        return {x[0], w[0], convOutDim(x[2], w[2], s, p),
                convOutDim(x[3], w[3], s, p)};
      }

      case OpKind::DwConv2d:
      case OpKind::DwConvBiasAct: {
        const Shape &x = in(0), &w = in(1);
        if (x.size() != 4 || w.size() != 4 || w[1] != 1)
            fail(op, "expects NCHW x and [C,1,Kh,Kw] w");
        if (x[1] != w[0])
            fail(op, "channel mismatch");
        int64_t s = attrs.getInt("stride", 1), p = attrs.getInt("pad", 0);
        return {x[0], x[1], convOutDim(x[2], w[2], s, p),
                convOutDim(x[3], w[3], s, p)};
      }

      case OpKind::Conv2dBwdInput:
      case OpKind::DwConv2dBwdInput:
        expectInputs(op, inputs, 2);
        return attrs.getInts("xshape");

      case OpKind::Conv2dBwdWeight:
      case OpKind::DwConv2dBwdWeight: {
        expectInputs(op, inputs, 2);
        Shape w = attrs.getInts("wshape");
        int64_t limit = attrs.getInt("limitCo", 0);
        if (limit > 0)
            w[0] = limit;
        return w;
      }

      case OpKind::AvgPool2d: {
        expectInputs(op, inputs, 1);
        const Shape &x = in(0);
        if (x.size() != 4)
            fail(op, "expects NCHW");
        int64_t k = attrs.getInt("kernel");
        int64_t s = attrs.getInt("stride", k);
        return {x[0], x[1], convOutDim(x[2], k, s, 0),
                convOutDim(x[3], k, s, 0)};
      }

      case OpKind::AvgPool2dGrad:
      case OpKind::GlobalAvgPoolGrad:
        expectInputs(op, inputs, 1);
        return attrs.getInts("xshape");

      case OpKind::GlobalAvgPool: {
        expectInputs(op, inputs, 1);
        const Shape &x = in(0);
        if (x.size() != 4)
            fail(op, "expects NCHW");
        return {x[0], x[1]};
      }

      case OpKind::Softmax:
        expectInputs(op, inputs, 1);
        return in(0);

      case OpKind::LayerNorm: {
        expectInputs(op, inputs, 3);
        const Shape &x = in(0);
        int64_t d = x.back();
        if (in(1) != Shape{d} || in(2) != Shape{d})
            fail(op, "gamma/beta must be [D]");
        return x;
      }

      case OpKind::RMSNorm: {
        expectInputs(op, inputs, 2);
        const Shape &x = in(0);
        if (in(1) != Shape{x.back()})
            fail(op, "gamma must be [D]");
        return x;
      }

      case OpKind::LayerNormGradX:
      case OpKind::RMSNormGradX:
        return in(0);

      case OpKind::LayerNormGradGamma:
      case OpKind::RMSNormGradGamma:
        expectInputs(op, inputs, 2);
        return {in(0).back()};

      case OpKind::Embedding: {
        expectInputs(op, inputs, 2);
        const Shape &table = in(0), &ids = in(1);
        if (table.size() != 2)
            fail(op, "table must be [V,D]");
        Shape out = ids;
        out.push_back(table[1]);
        return out;
      }

      case OpKind::EmbeddingGrad: {
        expectInputs(op, inputs, 2);
        const Shape &dy = in(1);
        return {attrs.getInt("vocab"), dy.back()};
      }

      case OpKind::CrossEntropy:
      case OpKind::Mse: {
        expectInputs(op, inputs, 2);
        return {1};
      }

      case OpKind::CrossEntropyGrad:
      case OpKind::MseGrad:
        expectInputs(op, inputs, 2);
        return in(0);

      case OpKind::ApplySgd:
      case OpKind::ApplyMomentum:
      case OpKind::ApplyAdam:
      case OpKind::ApplyLion:
      case OpKind::AccumGrad:
        // In-place: output aliases the parameter (input 0).
        return in(0);

      case OpKind::MatMulBiasAct: {
        expectInputs(op, inputs, 3);
        return matmulShape(op, in(0), in(1), attrs.getInt("transA", 0),
                           attrs.getInt("transB", 0));
      }

      // --- quantization -------------------------------------------------
      case OpKind::Quantize:
      case OpKind::Dequantize:
        // Optional second input: per-channel scales (f32 const).
        if (inputs.size() != 1 && inputs.size() != 2)
            fail(op, "expected 1 or 2 inputs");
        return in(0);

      case OpKind::Requantize:
      case OpKind::QuantRelu:
        expectInputs(op, inputs, 1);
        return in(0);

      case OpKind::QuantAdd:
        expectInputs(op, inputs, 2);
        if (in(0) != in(1))
            fail(op, "expects equal shapes");
        return in(0);

      case OpKind::QuantMatMul: {
        if (inputs.size() < 2 || inputs.size() > 4)
            fail(op, "expected 2-4 inputs");
        return matmulShape(op, in(0), in(1), attrs.getInt("transA", 0),
                           attrs.getInt("transB", 0));
      }

      case OpKind::QuantConv2d: {
        if (inputs.size() < 2 || inputs.size() > 4)
            fail(op, "expected 2-4 inputs");
        const Shape &x = in(0), &w = in(1);
        if (x.size() != 4 || w.size() != 4 || x[1] != w[1])
            fail(op, "expects NCHW x and [Co,Ci,Kh,Kw] w");
        int64_t s = attrs.getInt("stride", 1), p = attrs.getInt("pad", 0);
        return {x[0], w[0], convOutDim(x[2], w[2], s, p),
                convOutDim(x[3], w[3], s, p)};
      }

      case OpKind::QuantDwConv2d: {
        if (inputs.size() < 2 || inputs.size() > 4)
            fail(op, "expected 2-4 inputs");
        const Shape &x = in(0), &w = in(1);
        if (x.size() != 4 || w.size() != 4 || w[1] != 1 || x[1] != w[0])
            fail(op, "expects NCHW x and [C,1,Kh,Kw] w");
        int64_t s = attrs.getInt("stride", 1), p = attrs.getInt("pad", 0);
        return {x[0], x[1], convOutDim(x[2], w[2], s, p),
                convOutDim(x[3], w[3], s, p)};
      }

      case OpKind::CacheWrite: {
        expectInputs(op, inputs, 2);
        const Shape &x = in(0), &pos = in(1);
        int64_t max_seq = attrs.getInt("maxSeq");
        if (max_seq <= 0)
            fail(op, "maxSeq must be positive");
        if (x.size() != 3)
            fail(op, "x must be [B,S,D]");
        if (pos != Shape{1} && pos != Shape{x[0], 1})
            fail(op, "pos must be [1] or [B,1]");
        if (x[1] < 1 || x[1] > max_seq)
            fail(op, "need 0 < S <= maxSeq");
        return {x[0], max_seq, x[2]};
      }

      case OpKind::FusedAttention: {
        // Q [L*S, H*Dh], K/V [L, M, H*Dh] and a shared [S, M], per-row
        // [L*S, M] or absent mask: the kernel reads the heads out of
        // the packed rows in place.
        if (inputs.size() != 3)
            expectInputs(op, inputs, 4); // the mask is optional
        const Shape &q = in(0), &k = in(1), &v = in(2);
        int64_t heads = attrs.getInt("heads", 0);
        if (heads < 1)
            fail(op, "heads must be >= 1");
        if (q.size() != 2 || k.size() != 3)
            fail(op, "needs Q [L*S,H*Dh] and K/V [L,M,H*Dh]");
        if (k != v)
            fail(op, "K/V shapes mismatch " + shapeToString(k) + " / " +
                     shapeToString(v));
        if (q[1] != k[2] || q[1] % heads != 0 || k[0] < 1 ||
            q[0] % k[0] != 0)
            fail(op, "Q " + shapeToString(q) + " must be [L*S,H*Dh] "
                     "over K/V " + shapeToString(k) + " with heads " +
                     std::to_string(heads));
        const Shape m = inputs.size() == 4 ? in(3) : Shape{q[0], k[1]};
        if (m.size() != 2 || m[1] != k[1] ||
            (m[0] != q[0] && m[0] != q[0] / k[0]))
            fail(op, "mask must be [S,M] or [L*S,M], got " +
                         shapeToString(m));
        return q;
      }
    }
    fail(op, "unhandled op");
}

DType
inferDType(OpKind op, const Attrs &attrs)
{
    switch (op) {
      case OpKind::Quantize:
      case OpKind::Const: {
        // Quantize targets its "dtype" attr; Const may carry one when
        // the QuantizePass pre-quantized a frozen weight.
        std::string d = attrs.getString("dtype", "");
        if (d == "i8")
            return DType::I8;
        if (d == "f16")
            return DType::F16;
        return op == OpKind::Quantize ? DType::I8 : DType::F32;
      }
      case OpKind::Requantize:
      case OpKind::QuantMatMul:
      case OpKind::QuantConv2d:
      case OpKind::QuantDwConv2d:
      case OpKind::QuantAdd:
      case OpKind::QuantRelu:
        return DType::I8;
      default:
        return DType::F32;
    }
}

} // namespace pe
