/**
 * @file
 * Post-training calibration: run the fp32 forward graph over a few
 * representative batches via the existing executor and record each
 * value's observed range, then stamp the ranges onto the graph as
 * "calib_min"/"calib_max" attrs for the QuantizePass to consume.
 *
 * The graph is executed as built — natural order, default kernels, no
 * passes — so node ids line up one-to-one with the graph being
 * stamped, and every intermediate stays fetchable (all nodes are
 * marked outputs for the calibration run, which keeps the arena from
 * recycling a value before the observer reads it).
 *
 * This TU lives in src/engine/ (not src/quant/) because it DRIVES the
 * runtime executor: the quant layer's header stays below passes in
 * the layer map (passes.h includes quant/quant.h for Precision), so
 * the executor-running implementation belongs at engine level, where
 * upward includes are legal.
 */

#include "quant/quant.h"

#include <stdexcept>

#include "engine/engine.h"

namespace pe {

std::vector<CalibRange>
observeRanges(const Graph &g, ParamStore &store,
              const std::vector<std::unordered_map<std::string, Tensor>>
                  &batches,
              const CalibrationOptions &opts)
{
    if (batches.empty())
        throw std::runtime_error("calibrate: no calibration batches");

    Graph copy = g;
    copy.outputs().clear();
    for (int id = 0; id < copy.numNodes(); ++id)
        copy.markOutput(id); // keep every value live for observation
    Executor ex(copy, planProgram(copy), store);

    std::vector<CalibRange> ranges(g.numNodes());
    std::vector<bool> seen(g.numNodes(), false);
    float momentum = static_cast<float>(opts.momentum);

    for (const auto &feeds : batches) {
        for (const auto &[name, t] : feeds)
            ex.bindInput(name, t);
        ex.run();
        for (int id = 0; id < g.numNodes(); ++id) {
            Tensor v = ex.fetch(id);
            if (v.size() == 0)
                continue;
            float mn = v[0], mx = v[0];
            for (int64_t i = 1; i < v.size(); ++i) {
                mn = std::min(mn, v[i]);
                mx = std::max(mx, v[i]);
            }
            CalibRange &r = ranges[id];
            if (!seen[id]) {
                r.mn = mn;
                r.mx = mx;
                seen[id] = true;
            } else if (opts.observer == ObserverKind::MinMax) {
                r.mn = std::min(r.mn, mn);
                r.mx = std::max(r.mx, mx);
            } else {
                r.mn = momentum * r.mn + (1.0f - momentum) * mn;
                r.mx = momentum * r.mx + (1.0f - momentum) * mx;
            }
        }
    }
    return ranges;
}

int
calibrate(Graph &g, ParamStore &store,
          const std::vector<std::unordered_map<std::string, Tensor>>
              &batches,
          const CalibrationOptions &opts)
{
    std::vector<CalibRange> ranges = observeRanges(g, store, batches, opts);
    int stamped = 0;
    for (int id = 0; id < g.numNodes(); ++id) {
        Node &n = g.node(id);
        n.attrs.set(kCalibMinAttr, static_cast<double>(ranges[id].mn));
        n.attrs.set(kCalibMaxAttr, static_cast<double>(ranges[id].mx));
        ++stamped;
    }
    return stamped;
}

} // namespace pe
