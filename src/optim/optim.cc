#include "optim/optim.h"

namespace pe {

OptimConfig
OptimConfig::sgd(double lr)
{
    OptimConfig c;
    c.kind = OptimKind::Sgd;
    c.lr = lr;
    return c;
}

OptimConfig
OptimConfig::momentumSgd(double lr, double m)
{
    OptimConfig c;
    c.kind = OptimKind::Momentum;
    c.lr = lr;
    c.momentum = m;
    return c;
}

OptimConfig
OptimConfig::adam(double lr)
{
    OptimConfig c;
    c.kind = OptimKind::Adam;
    c.lr = lr;
    return c;
}

OptimConfig
OptimConfig::lion(double lr)
{
    OptimConfig c;
    c.kind = OptimKind::Lion;
    c.lr = lr;
    c.b2 = 0.99;
    return c;
}

std::vector<int>
emitOptimizer(Graph &g, const OptimConfig &config,
              const std::unordered_map<int, int> &param_grads)
{
    std::vector<int> applies;
    // Deterministic emission order: by param id.
    std::vector<std::pair<int, int>> pairs(param_grads.begin(),
                                           param_grads.end());
    std::sort(pairs.begin(), pairs.end());

    for (auto [pid, gid] : pairs) {
        // Copies: adding state params reallocates the node table.
        const std::string pname = g.node(pid).name;
        const Shape pshape = g.node(pid).shape;
        Attrs a;
        a.set("lr", config.lr);
        int id = -1;
        switch (config.kind) {
          case OptimKind::Sgd: {
            a.set("wd", config.weightDecay);
            id = g.add(OpKind::ApplySgd, {pid, gid}, std::move(a),
                       pname + ".apply");
            break;
          }
          case OptimKind::Momentum: {
            a.set("momentum", config.momentum);
            int vel = g.param(pshape, pname + ".vel", false);
            id = g.add(OpKind::ApplyMomentum, {pid, gid, vel},
                       std::move(a), pname + ".apply");
            break;
          }
          case OptimKind::Adam: {
            a.set("b1", config.b1);
            a.set("b2", config.b2);
            a.set("eps", config.eps);
            int m = g.param(pshape, pname + ".m", false);
            int v = g.param(pshape, pname + ".v", false);
            id = g.add(OpKind::ApplyAdam, {pid, gid, m, v},
                       std::move(a), pname + ".apply");
            break;
          }
          case OptimKind::Lion: {
            a.set("b1", config.b1);
            a.set("b2", config.b2);
            a.set("wd", config.weightDecay);
            int m = g.param(pshape, pname + ".m", false);
            id = g.add(OpKind::ApplyLion, {pid, gid, m}, std::move(a),
                       pname + ".apply");
            break;
          }
        }
        g.markOutput(id);
        applies.push_back(id);
    }
    return applies;
}

} // namespace pe
