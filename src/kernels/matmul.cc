/**
 * @file
 * GEMM kernels: a naive triple loop (default) and a cache-blocked
 * variant ("blocked") the backend-switching pass selects on CPU-class
 * devices. Transpose flags are handled without materializing
 * transposed copies, which is how the backward graph reuses the
 * forward MatMul primitive (paper Fig. 3: dW = G * X^T). MatMulBiasAct
 * registers the same two kernels: each applies the shared bias +
 * activation epilogue (kutil::Epilogue) to its shard's rows, so the
 * fused op is bit-identical to MatMul -> Add -> act on either variant.
 *
 * Partitioning: MatMul splits over output rows, BatchMatMul over the
 * batch — each shard writes a disjoint slab of the output. The blocked
 * variant walks B in kGemmBlock-square panels. A transposed B is
 * packed panel by panel into a per-shard workspace, so its strided
 * tiles are read once and then streamed contiguously. A row-major B is
 * already contiguous per panel row and is read in place, with no
 * workspace. Packing copies values without reordering the
 * accumulation, so both branches stay bit-identical to the naive loop.
 * The blocked body is shared with the SIMD tiers (kernel_bodies.h);
 * "" stays an independent reference.
 */

#include "kernels/kernel.h"
#include "kernels/kernel_bodies.h"

namespace pe {
namespace {

using kutil::GemmView;

/** Rows [r0, r1) of a x b into out. @p ws unused (no workspace). */
void
gemmNaive(const GemmView &a, const GemmView &b, float *out, int64_t r0,
          int64_t r1, float *ws)
{
    (void)ws;
    for (int64_t i = r0; i < r1; ++i) {
        for (int64_t j = 0; j < b.cols; ++j) {
            float acc = 0;
            for (int64_t k = 0; k < a.cols; ++k)
                acc += a.at(i, k) * b.at(k, j);
            out[i * b.cols + j] = acc;
        }
    }
}

/** The blocked GEMM on the scalar tier (kernel_bodies.h). */
constexpr kutil::GemmFn gemmBlocked =
    kutil::gemmBlocked<kutil::ScalarLanes>;

/** One packed B panel per shard, min(K, kGemmBlock) x
 *  min(N, kGemmBlock), for every tier of "blocked" with a transposed
 *  B; none for a row-major B, which the body reads in place. */
WorkspaceSpec
blockedWorkspace(const Graph &g, const Node &n)
{
    WorkspaceSpec spec;
    if (n.attrs.getInt("transB", 0) == 0)
        return spec;
    size_t r = n.shape.size();
    int64_t k = g.node(n.inputs[1]).shape[r - 1], cols = n.shape[r - 1];
    spec.bytesPerShard = std::min(k, kutil::kGemmBlock) *
                         std::min(cols, kutil::kGemmBlock) * 4;
    return spec;
}

} // namespace

namespace detail {

void
registerMatmulKernels()
{
    using kutil::batchMatmulK;
    using kutil::matmulK;
    PartitionSpec rows{part::outDim0, 8};
    PartitionSpec batch{part::outDim0, 1};
    for (OpKind op : {OpKind::MatMul, OpKind::MatMulBiasAct}) {
        registerKernel(op, "", matmulK<gemmNaive>, rows);
        registerKernel(op, "blocked", matmulK<gemmBlocked>, rows,
                       blockedWorkspace);
    }
    registerKernel(OpKind::BatchMatMul, "", batchMatmulK<gemmNaive>,
                   batch);
    registerKernel(OpKind::BatchMatMul, "blocked",
                   batchMatmulK<gemmBlocked>, batch, blockedWorkspace);
}

} // namespace detail
} // namespace pe
