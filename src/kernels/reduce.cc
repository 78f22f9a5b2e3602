/**
 * @file
 * Reduction kernels (sum / mean over an axis set).
 *
 * Written in gather form: each output slot walks its reduced
 * subspace in lexicographic order — the same per-slot accumulation
 * order as the older scatter loop (input indices hit a slot in
 * ascending order either way), so results are bit-identical, and
 * slots are independent, which lets the kernel partition over the
 * flattened output.
 */

#include <algorithm>
#include <cstring>

#include "kernels/kernel.h"

namespace pe {
namespace {

void
reduce(const KernelCtx &c, bool mean)
{
    const Shape &xs = *c.inShapes[0];
    auto axes = c.node->attrs.getInts("axes");
    std::vector<bool> reduced(xs.size(), false);
    int64_t reduce_count = 1;
    for (int64_t a : axes) {
        reduced[a] = true;
        reduce_count *= xs[a];
    }
    auto xstrides = rowMajorStrides(xs);

    // Split dims into kept (they index the output, row-major) and
    // reduced (the per-slot accumulation walk), preserving dim order.
    std::vector<int64_t> kext, kstr, rext, rstr;
    for (size_t d = 0; d < xs.size(); ++d) {
        if (reduced[d]) {
            rext.push_back(xs[d]);
            rstr.push_back(xstrides[d]);
        } else {
            kext.push_back(xs[d]);
            kstr.push_back(xstrides[d]);
        }
    }
    std::vector<int64_t> ostr(kext.size(), 1);
    for (size_t d = kext.size(); d-- > 1;)
        ostr[d - 1] = ostr[d] * kext[d];

    // A block of kSlots output slots walks the reduced subspace
    // together, one independent accumulator per slot, so the adds
    // overlap instead of waiting on one chain; the innermost reduced
    // dim runs as a plain strided loop and the odometer steps only
    // the outer ones. A short last block repeats its first slot in
    // the spare lanes and discards them.
    constexpr int64_t kSlots = 8;
    int64_t inner = rext.empty() ? 1 : rext.back();
    int64_t istr = rext.empty() ? 0 : rstr.back();
    size_t outer = rext.empty() ? 0 : rext.size() - 1;
    int64_t lo = c.begin, hi = partitionEnd(c, numel(*c.outShape));
    float inv = 1.0f / static_cast<float>(reduce_count);
    std::vector<int64_t> coord(outer, 0);
    for (int64_t o0 = lo; o0 < hi; o0 += kSlots) {
        int64_t nb = std::min(kSlots, hi - o0);
        const float *src[kSlots];
        for (int64_t b = 0; b < kSlots; ++b) {
            int64_t rem = o0 + (b < nb ? b : 0), base = 0;
            for (size_t d = 0; d < kext.size(); ++d) {
                int64_t k = rem / ostr[d];
                rem -= k * ostr[d];
                base += k * kstr[d];
            }
            src[b] = c.in[0] + base;
        }
        float acc[kSlots] = {};
        std::fill(coord.begin(), coord.end(), 0);
        int64_t off = 0;
        for (;;) {
            for (int64_t t = 0; t < inner; ++t) {
                for (int64_t b = 0; b < kSlots; ++b)
                    acc[b] += src[b][off + t * istr];
            }
            // Odometer over the outer reduced dims, innermost fastest.
            size_t d = outer;
            while (d-- > 0) {
                off += rstr[d];
                if (++coord[d] < rext[d])
                    break;
                off -= coord[d] * rstr[d];
                coord[d] = 0;
            }
            if (d == static_cast<size_t>(-1))
                break;
        }
        for (int64_t b = 0; b < nb; ++b)
            c.out[o0 + b] = mean ? acc[b] * inv : acc[b];
    }
}

void
reduceSumK(const KernelCtx &c)
{
    reduce(c, false);
}

void
reduceMeanK(const KernelCtx &c)
{
    reduce(c, true);
}

} // namespace

namespace detail {

void
registerReduceKernels()
{
    PartitionSpec slots{part::outElems, 16};
    registerKernel(OpKind::ReduceSum, "", reduceSumK, slots);
    registerKernel(OpKind::ReduceMean, "", reduceMeanK, slots);
}

} // namespace detail
} // namespace pe
