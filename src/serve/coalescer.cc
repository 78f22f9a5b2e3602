#include "serve/coalescer.h"

#include <algorithm>

namespace pe {

Coalescer::Coalescer(std::vector<int64_t> bucketBatches,
                     int64_t windowUs)
    : batches_(std::move(bucketBatches)),
      windowUs_(windowUs > 0 ? windowUs : 0)
{
    batches_.erase(std::remove_if(batches_.begin(), batches_.end(),
                                  [](int64_t b) { return b < 1; }),
                   batches_.end());
    std::sort(batches_.begin(), batches_.end());
    batches_.erase(std::unique(batches_.begin(), batches_.end()),
                   batches_.end());
}

int
Coalescer::routeSingle(int64_t rows) const
{
    if (rows < 1)
        return -1;
    // batches_ is sorted, so the first fit is the smallest fit.
    for (size_t i = 0; i < batches_.size(); ++i) {
        if (batches_[i] >= rows)
            return static_cast<int>(i);
    }
    return -1;
}

int64_t
Coalescer::padRows(int64_t totalRows) const
{
    int i = routeSingle(totalRows);
    return i < 0 ? -1 : batches_[static_cast<size_t>(i)] - totalRows;
}

} // namespace pe
