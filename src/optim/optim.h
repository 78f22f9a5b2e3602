/**
 * @file
 * Optimizers as compile-time graph fragments.
 *
 * Instead of a runtime loop over parameter gradients (the PyTorch /
 * TensorFlow design the paper identifies as a memory bottleneck), the
 * optimizer step is emitted into the training graph as in-place
 * Apply* nodes. The reordering pass can then schedule each update
 * right after its gradient, and the planner recycles gradient buffers
 * within the step.
 */

#pragma once

#include <unordered_map>

#include "ir/graph.h"

namespace pe {

enum class OptimKind { Sgd, Momentum, Adam, Lion };

/** Hyper-parameters for the emitted optimizer. */
struct OptimConfig {
    OptimKind kind = OptimKind::Sgd;
    double lr = 0.01;
    double momentum = 0.9; ///< Momentum only
    double b1 = 0.9;       ///< Adam / Lion
    double b2 = 0.999;     ///< Adam (0.99 typical for Lion)
    double eps = 1e-8;     ///< Adam
    double weightDecay = 0.0;

    static OptimConfig sgd(double lr);
    static OptimConfig momentumSgd(double lr, double m = 0.9);
    static OptimConfig adam(double lr);
    static OptimConfig lion(double lr);
};

/**
 * Append one in-place update node per (param, grad) pair, creating
 * optimizer-state Param nodes ("<name>.m", "<name>.v", ...) as
 * needed. Each Apply node is marked as a graph output so DCE keeps
 * the whole update path alive.
 *
 * @return ids of the emitted Apply nodes.
 */
std::vector<int> emitOptimizer(Graph &g, const OptimConfig &config,
                               const std::unordered_map<int, int>
                                   &param_grads);

} // namespace pe
