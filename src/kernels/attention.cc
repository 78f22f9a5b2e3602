/**
 * @file
 * FusedAttention: softmax(Q K^T * scale + mask) V with the score row
 * held in per-shard workspace. The subgraph it replaces (BatchMatMul
 * -> Scale [-> Add] -> Softmax -> BatchMatMul) materializes up to
 * four arena intermediates per run; here the QK row, the
 * softmax, and the V-accumulate never leave one [M]-float scratch row,
 * so the planner sees a single output value.
 *
 * The body (kutil::fusedAttentionK, kernel_bodies.h) is shared with
 * the SIMD tiers; on the scalar tier registered here it is
 * bit-identical to the unfused scalar subgraph. Partitioning: over the
 * L*S*H (row, head) units, each writing a disjoint Dh-wide slice of
 * the [L*S, H*Dh] output.
 */

#include "kernels/kernel.h"
#include "kernels/kernel_bodies.h"

namespace pe {
namespace {

/** One fp32 attention-score row ([M] = K's row count) per shard: the
 *  QK product, mask add, and softmax all happen in this buffer, so the
 *  subgraph's arena intermediates become zero. A mask-less op also
 *  keeps an [M] zero row there, which every row reads as its mask. */
WorkspaceSpec
fusedAttentionWorkspace(const Graph &g, const Node &n)
{
    WorkspaceSpec spec;
    spec.bytesPerShard = g.node(n.inputs[1]).shape[1] * 4 *
                         (n.inputs.size() > 3 ? 1 : 2);
    return spec;
}

/** (row, head) units: output rows times heads. */
int64_t
headRows(const KernelCtx &c)
{
    return part::outRows(c) * kutil::attrI(c, "heads", 1);
}

} // namespace

namespace detail {

void
registerAttentionKernels()
{
    PartitionSpec units{headRows, 1};
    registerKernel(OpKind::FusedAttention, "",
                   kutil::fusedAttentionK<kutil::ScalarLanes>, units,
                   fusedAttentionWorkspace);
}

} // namespace detail
} // namespace pe
