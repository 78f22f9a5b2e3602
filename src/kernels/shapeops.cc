/**
 * @file
 * Data-movement kernels: reshape (copy), permute, slice, pad,
 * broadcast.
 */

#include <cstring>

#include "kernels/kernel.h"

namespace pe {
namespace {

void
reshapeK(const KernelCtx &c)
{
    std::memcpy(c.out, c.in[0], sizeof(float) * numel(*c.outShape));
}

void
permuteK(const KernelCtx &c)
{
    const Shape &xs = *c.inShapes[0];
    auto perm = c.node->attrs.getInts("perm");
    auto xstrides = rowMajorStrides(xs);
    auto ostrides = rowMajorStrides(*c.outShape);
    size_t rank = xs.size();
    int64_t n = numel(xs);
    for (int64_t i = 0; i < n; ++i) {
        // Decompose output index, map to input coordinates.
        int64_t rem = i, xi = 0;
        for (size_t d = 0; d < rank; ++d) {
            int64_t coord = rem / ostrides[d];
            rem -= coord * ostrides[d];
            xi += coord * xstrides[perm[d]];
        }
        c.out[i] = c.in[0][xi];
    }
}

void
sliceK(const KernelCtx &c)
{
    const Shape &xs = *c.inShapes[0];
    int64_t axis = c.node->attrs.getInt("axis");
    int64_t begin = c.node->attrs.getInt("begin");
    int64_t len = c.node->attrs.getInt("end") - begin;
    int64_t outer = 1, inner = 1;
    for (int64_t d = 0; d < axis; ++d)
        outer *= xs[d];
    for (size_t d = axis + 1; d < xs.size(); ++d)
        inner *= xs[d];
    for (int64_t o = 0; o < outer; ++o) {
        const float *src = c.in[0] + (o * xs[axis] + begin) * inner;
        float *dst = c.out + o * len * inner;
        std::memcpy(dst, src, sizeof(float) * len * inner);
    }
}

void
padK(const KernelCtx &c)
{
    const Shape &xs = *c.inShapes[0];
    const Shape &os = *c.outShape;
    int64_t axis = c.node->attrs.getInt("axis");
    int64_t before = c.node->attrs.getInt("before", 0);
    int64_t outer = 1, inner = 1;
    for (int64_t d = 0; d < axis; ++d)
        outer *= xs[d];
    for (size_t d = axis + 1; d < xs.size(); ++d)
        inner *= xs[d];
    std::memset(c.out, 0, sizeof(float) * numel(os));
    for (int64_t o = 0; o < outer; ++o) {
        const float *src = c.in[0] + o * xs[axis] * inner;
        float *dst = c.out + (o * os[axis] + before) * inner;
        std::memcpy(dst, src, sizeof(float) * xs[axis] * inner);
    }
}

void
broadcastToK(const KernelCtx &c)
{
    const Shape &xs = *c.inShapes[0];
    const Shape &os = *c.outShape;
    size_t rank = os.size();
    std::vector<int64_t> sx(rank, 0);
    auto xr = rowMajorStrides(xs);
    size_t off = rank - xs.size();
    for (size_t i = 0; i < xs.size(); ++i)
        sx[off + i] = xs[i] == 1 ? 0 : xr[i];
    auto so = rowMajorStrides(os);
    int64_t n = numel(os);
    for (int64_t i = 0; i < n; ++i) {
        int64_t rem = i, xi = 0;
        for (size_t d = 0; d < rank; ++d) {
            int64_t coord = rem / so[d];
            rem -= coord * so[d];
            xi += coord * sx[d];
        }
        c.out[i] = c.in[0][xi];
    }
}

/**
 * KV-cache row write. The output is a Storage::Cache value: it
 * persists across runs of one session, so this kernel touches ONLY
 * the rows [pos, pos+S) it was asked to write — no memset of the
 * rest, that would destroy the earlier tokens' entries. Out-of-range
 * positions are clamped row-by-row instead of written, so a bogus
 * runtime pos can never escape the planned cache extent.
 */
void
cacheWriteK(const KernelCtx &c)
{
    const Shape &xs = *c.inShapes[0];
    const Shape &os = *c.outShape;
    const float *pos = c.in[1];
    const Shape &ps = *c.inShapes[1];
    int64_t b = xs[0], s = xs[1], d = xs[2], max_seq = os[1];
    bool per_slot = numel(ps) == b;
    for (int64_t bi = 0; bi < b; ++bi) {
        int64_t p = static_cast<int64_t>(pos[per_slot ? bi : 0]);
        for (int64_t i = 0; i < s; ++i) {
            int64_t row = p + i;
            if (row < 0 || row >= max_seq)
                continue;
            std::memcpy(c.out + (bi * max_seq + row) * d,
                        c.in[0] + (bi * s + i) * d, sizeof(float) * d);
        }
    }
}

} // namespace

namespace detail {

void
registerShapeOpKernels()
{
    registerKernel(OpKind::Reshape, "", reshapeK);
    registerKernel(OpKind::Permute, "", permuteK);
    registerKernel(OpKind::Slice, "", sliceK);
    registerKernel(OpKind::Pad, "", padK);
    registerKernel(OpKind::BroadcastTo, "", broadcastToK);
    // Unsplittable: the write set depends on a runtime input (pos),
    // which the bind-time partition planner cannot see.
    registerKernel(OpKind::CacheWrite, "", cacheWriteK);
}

} // namespace detail
} // namespace pe
