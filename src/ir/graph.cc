#include "ir/graph.h"

#include <set>
#include <sstream>
#include <stdexcept>

#include "ir/infer.h"

namespace pe {

int
Graph::add(OpKind op, std::vector<int> inputs, Attrs attrs,
           std::string name)
{
    for (int i : inputs) {
        if (i < 0 || i >= numNodes())
            throw std::runtime_error("Graph::add: bad input id");
    }
    Node n;
    n.id = numNodes();
    n.op = op;
    n.inputs = std::move(inputs);
    n.attrs = std::move(attrs);
    n.name = std::move(name);
    n.shape = inferShape(*this, op, n.inputs, n.attrs, n.name);
    n.dtype = inferDType(op, n.attrs);
    nodes_.push_back(std::move(n));
    return nodes_.back().id;
}

int
Graph::addRaw(Node n)
{
    n.id = numNodes();
    nodes_.push_back(std::move(n));
    return nodes_.back().id;
}

int
Graph::input(Shape shape, std::string name)
{
    Attrs a;
    a.set("shape", shape);
    return add(OpKind::Input, {}, std::move(a), std::move(name));
}

int
Graph::param(Shape shape, std::string name, bool trainable)
{
    if (name.empty())
        throw std::runtime_error("Graph::param: params must be named");
    if (findParam(name) >= 0)
        throw std::runtime_error("Graph::param: duplicate name " + name);
    Attrs a;
    a.set("shape", shape);
    int id = add(OpKind::Param, {}, std::move(a), std::move(name));
    nodes_[id].trainable = trainable;
    return id;
}

int
Graph::constant(Shape shape, std::string name)
{
    Attrs a;
    a.set("shape", shape);
    return add(OpKind::Const, {}, std::move(a), std::move(name));
}

std::vector<int>
Graph::paramIds() const
{
    std::vector<int> ids;
    for (const Node &n : nodes_) {
        if (n.op == OpKind::Param)
            ids.push_back(n.id);
    }
    return ids;
}

std::vector<int>
Graph::inputIds() const
{
    std::vector<int> ids;
    for (const Node &n : nodes_) {
        if (n.op == OpKind::Input)
            ids.push_back(n.id);
    }
    return ids;
}

int
Graph::findParam(const std::string &name) const
{
    for (const Node &n : nodes_) {
        if (n.op == OpKind::Param && n.name == name)
            return n.id;
    }
    return -1;
}

std::vector<std::vector<int>>
Graph::consumers() const
{
    std::vector<std::vector<int>> users(nodes_.size());
    for (const Node &n : nodes_) {
        for (int i : n.inputs)
            users[i].push_back(n.id);
    }
    return users;
}

std::vector<int>
Graph::topoOrder() const
{
    int n = numNodes();
    // Fast path: creation order is topological (true until a rewrite
    // points a node at a later-created input).
    bool forward_only = true;
    for (const Node &node : nodes_) {
        for (int in : node.inputs) {
            if (in >= node.id) {
                forward_only = false;
                break;
            }
        }
        if (!forward_only)
            break;
    }
    std::vector<int> order;
    order.reserve(n);
    if (forward_only) {
        for (int i = 0; i < n; ++i)
            order.push_back(i);
        return order;
    }
    // Stable Kahn: among ready nodes always emit the smallest id, so
    // the result is exactly creation order whenever that is valid.
    std::vector<int> indegree(n, 0);
    auto users = consumers();
    for (const Node &node : nodes_)
        indegree[node.id] = static_cast<int>(node.inputs.size());
    std::set<int> ready;
    for (int i = 0; i < n; ++i) {
        if (indegree[i] == 0)
            ready.insert(i);
    }
    while (!ready.empty()) {
        int id = *ready.begin();
        ready.erase(ready.begin());
        order.push_back(id);
        for (int u : users[id]) {
            if (--indegree[u] == 0)
                ready.insert(u);
        }
    }
    if (static_cast<int>(order.size()) != n)
        throw std::runtime_error("Graph::topoOrder: cycle detected");
    return order;
}

std::vector<int>
Graph::compact(const std::vector<bool> &live)
{
    // Two sweeps: assign new ids first, then remap inputs — a live
    // node may reference a LATER-created input after rewiring passes
    // (QuantizePass), so the remap table must be complete before any
    // input is translated.
    std::vector<int> remap(nodes_.size(), -1);
    int next = 0;
    for (size_t i = 0; i < nodes_.size(); ++i) {
        if (live[i])
            remap[i] = next++;
    }
    std::vector<Node> kept;
    kept.reserve(static_cast<size_t>(next));
    for (size_t i = 0; i < nodes_.size(); ++i) {
        if (!live[i])
            continue;
        Node n = std::move(nodes_[i]);
        n.id = remap[i];
        for (int &in : n.inputs) {
            if (remap[in] < 0)
                throw std::runtime_error("compact: dead input kept alive");
            in = remap[in];
        }
        kept.push_back(std::move(n));
    }
    nodes_ = std::move(kept);
    std::vector<int> new_outputs;
    for (int o : outputs_) {
        if (remap[o] >= 0)
            new_outputs.push_back(remap[o]);
    }
    outputs_ = std::move(new_outputs);
    std::unordered_map<int, Tensor> new_const;
    for (auto &[id, t] : constData_) {
        if (remap[id] >= 0)
            new_const.emplace(remap[id], std::move(t));
    }
    constData_ = std::move(new_const);
    return remap;
}

void
Graph::setConstData(int id, Tensor t)
{
    if (node(id).op != OpKind::Const)
        throw std::runtime_error("setConstData: node is not a Const");
    if (t.shape() != node(id).shape)
        throw std::runtime_error("setConstData: shape mismatch");
    constData_[id] = std::move(t);
}

int
Graph::constantOf(Tensor t, std::string name)
{
    int id = constant(t.shape(), std::move(name));
    setConstData(id, std::move(t));
    return id;
}

double
Graph::totalFlops() const
{
    double total = 0;
    for (const Node &n : nodes_)
        total += nodeFlops(*this, n);
    return total;
}

std::string
Graph::toString() const
{
    std::ostringstream os;
    for (const Node &n : nodes_) {
        os << "%" << n.id << " = " << opName(n.op) << "(";
        for (size_t i = 0; i < n.inputs.size(); ++i) {
            if (i)
                os << ", ";
            os << "%" << n.inputs[i];
        }
        os << ") : " << shapeToString(n.shape);
        if (!n.name.empty())
            os << "  # " << n.name << (n.trainable ? " [trainable]" : "");
        os << "\n";
    }
    os << "outputs:";
    for (int o : outputs_)
        os << " %" << o;
    os << "\n";
    return os.str();
}

double
nodeFlops(const Graph &g, const Node &n)
{
    auto out = static_cast<double>(numel(n.shape));
    auto inShape = [&](size_t i) { return g.node(n.inputs[i]).shape; };

    switch (n.op) {
      case OpKind::MatMul:
      case OpKind::MatMulBiasAct:
      case OpKind::QuantMatMul: {
        Shape a = inShape(0);
        int64_t k = n.attrs.getInt("transA", 0) ? a[0] : a[1];
        return 2.0 * out * static_cast<double>(k);
      }
      case OpKind::BatchMatMul: {
        Shape a = inShape(0);
        int64_t k = n.attrs.getInt("transA", 0) ? a[1] : a[2];
        return 2.0 * out * static_cast<double>(k);
      }
      case OpKind::FusedAttention: {
        // QK^T and PV are each 2*out*M flops; scale/mask/softmax are
        // lower-order.
        return 4.0 * out * static_cast<double>(inShape(1)[1]);
      }
      case OpKind::Conv2d:
      case OpKind::ConvBiasAct:
      case OpKind::QuantConv2d: {
        Shape w = inShape(1);
        return 2.0 * out * static_cast<double>(w[1] * w[2] * w[3]);
      }
      case OpKind::Conv2dBwdInput: {
        Shape w = inShape(0);
        double dy = static_cast<double>(numel(inShape(1)));
        return 2.0 * dy * static_cast<double>(w[1] * w[2] * w[3]);
      }
      case OpKind::Conv2dBwdWeight: {
        double dy = static_cast<double>(numel(inShape(1)));
        Shape w = n.shape;
        Shape full_w = n.attrs.getInts("wshape");
        double frac = static_cast<double>(w[0]) /
                      static_cast<double>(full_w[0]);
        return 2.0 * dy * frac *
               static_cast<double>(full_w[1] * full_w[2] * full_w[3]);
      }
      case OpKind::DwConv2d:
      case OpKind::DwConvBiasAct:
      case OpKind::QuantDwConv2d: {
        Shape w = inShape(1);
        return 2.0 * out * static_cast<double>(w[2] * w[3]);
      }
      case OpKind::DwConv2dBwdInput:
      case OpKind::DwConv2dBwdWeight: {
        Shape w = n.op == OpKind::DwConv2dBwdInput
                      ? inShape(0)
                      : Shape(n.attrs.getInts("wshape"));
        double dy = static_cast<double>(numel(inShape(1)));
        return 2.0 * dy * static_cast<double>(w[2] * w[3]);
      }
      case OpKind::LayerNorm:
      case OpKind::LayerNormGradX:
      case OpKind::RMSNorm:
      case OpKind::RMSNormGradX:
        return 8.0 * out;
      case OpKind::Softmax:
      case OpKind::SoftmaxGrad:
      case OpKind::Gelu:
      case OpKind::GeluGrad:
      case OpKind::Silu:
      case OpKind::SiluGrad:
        return 5.0 * out;
      case OpKind::CrossEntropy:
      case OpKind::CrossEntropyGrad:
        return 5.0 * static_cast<double>(numel(inShape(0)));
      case OpKind::Input:
      case OpKind::Param:
      case OpKind::Const:
      case OpKind::Reshape:
      case OpKind::Identity:
        return 0.0;
      case OpKind::ApplyAdam:
      case OpKind::ApplyLion:
        return 8.0 * out;
      default:
        return out; // one flop per output element
    }
}

double
nodeBytes(const Graph &g, const Node &n)
{
    if (n.op == OpKind::Reshape || n.op == OpKind::Identity ||
        isSourceOp(n.op)) {
        return 0.0;
    }
    auto bytesOf = [](const Node &v) {
        return static_cast<double>(dtypeSize(v.dtype) * numel(v.shape));
    };
    double bytes = bytesOf(n);
    for (int i : n.inputs)
        bytes += bytesOf(g.node(i));
    return bytes;
}

} // namespace pe
