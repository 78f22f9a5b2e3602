/**
 * @file
 * FusedAttention: softmax(Q K^T * scale + mask) V with the score row
 * held in per-shard workspace. The five-op subgraph it replaces
 * (BatchMatMul -> Scale -> Add -> Softmax -> BatchMatMul)
 * materializes four arena intermediates per run; here the QK row, the
 * softmax, and the V-accumulate never leave one [M]-float scratch row,
 * so the planner sees a single output value.
 *
 * The body (kutil::fusedAttentionK, kernel_bodies.h) is shared with
 * the SIMD tiers; on the scalar tier registered here it is
 * bit-identical to the unfused scalar subgraph. Partitioning: over
 * logical output rows (rank-2: S; rank-3: B*S; head-split: L*H), each
 * shard writing a disjoint slab of the output.
 */

#include "kernels/kernel.h"
#include "kernels/kernel_bodies.h"

namespace pe {
namespace {

/** One fp32 attention-score row ([M] = K's row count) per shard: the
 *  QK product, mask add, and softmax all happen in this buffer, so the
 *  five-op subgraph's four arena intermediates become zero. */
WorkspaceSpec
fusedAttentionWorkspace(const Graph &g, const Node &n)
{
    const Shape &k = g.node(n.inputs[1]).shape;
    WorkspaceSpec spec;
    spec.bytesPerShard = k[k.size() - 2] * 4;
    return spec;
}

} // namespace

namespace detail {

void
registerAttentionKernels()
{
    PartitionSpec rows{part::outRows, 1};
    registerKernel(OpKind::FusedAttention, "",
                   kutil::fusedAttentionK<kutil::ScalarLanes>, rows,
                   fusedAttentionWorkspace);
}

} // namespace detail
} // namespace pe
