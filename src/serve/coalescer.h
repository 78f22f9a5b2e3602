/**
 * @file
 * Continuous-batching policy: which queued requests share one bucket
 * run, and which bucket that run targets.
 *
 * The paper's premise is that compiling a static plan amortizes
 * planning cost across executions; the serving layer amortizes
 * COMPILATION across request shapes (one plan per shape bucket). The
 * coalescer closes the remaining gap: a burst of small requests
 * against a `{1, 4, 8}` bucket set used to execute one full bucket
 * run PER REQUEST — now up to `bucket.batch` rows of compatible
 * queued requests pack into one session's staging buffers and share a
 * single run, turning per-request cost into per-batch cost exactly
 * the way the paper turns per-step planning into per-compile
 * planning.
 *
 * The policy is deliberately separated from the engine so it is
 * testable without threads or compiled plans:
 *
 *  - routeSingle(rows): the smallest bucket whose batch fits @p rows.
 *    A request going out alone routes by its own rows; a group routes
 *    by its PACKED total, which minimizes the group's pad waste
 *    (bucket.batch - totalRows) where per-request routing pays each
 *    member's pad independently.
 *  - admits(groupRows, rows): whether a queued request may join a
 *    group — true while the combined rows still fit the LARGEST
 *    bucket. Row count is the whole rule: a 3-row request next to a
 *    1-row request shares one bucket-4 run (0 pad rows), and decode
 *    steps at different generations share a run because each row
 *    carries its own position, mask and cache slot.
 *  - full(groupRows): the drain's stop condition — the group exactly
 *    fills the largest bucket, so waiting for more traffic cannot
 *    reduce runs or pad any further.
 *
 * Which requests may group at all (the request domain, and the
 * prompts of a generative engine, which always run alone) is the
 * engine's decision, made once in ServingEngine::workerLoop.
 *
 * The deadline window (ServeOptions::coalesceWindowUs) bounds how
 * long a dequeued request waits for company: a lone request goes out
 * alone after at most windowUs. 0 disables coalescing entirely and
 * reproduces the per-request serving path bit for bit.
 */

#pragma once

#include <cstdint>
#include <vector>

namespace pe {

class Coalescer
{
  public:
    Coalescer() = default;

    /**
     * @param bucketBatches compiled bucket batch sizes; normalized
     *        (sorted, deduplicated, values < 1 dropped) so the engine
     *        and standalone tests can pass raw option lists.
     * @param windowUs deadline window; <= 0 disables coalescing.
     */
    Coalescer(std::vector<int64_t> bucketBatches, int64_t windowUs);

    /** True iff grouping is on (windowUs > 0). */
    bool enabled() const { return windowUs_ > 0; }

    int64_t windowUs() const { return windowUs_; }

    /** Largest compiled batch — the hard cap on a group's rows. */
    int64_t maxBatch() const
    {
        return batches_.empty() ? 0 : batches_.back();
    }

    /** The routing rule: index of the smallest bucket fitting @p rows
     *  (one request's, or a group's packed total); -1 when @p rows
     *  exceeds every bucket. */
    int routeSingle(int64_t rows) const;

    /** May a @p rows -row request join a group of @p groupRows? True
     *  when it has rows and the packed total fits the largest bucket
     *  (any mix of row counts coalesces, not just singles). */
    bool admits(int64_t groupRows, int64_t rows) const
    {
        return rows > 0 && groupRows + rows <= maxBatch();
    }

    /** Drain stop condition: the group exactly fills the largest
     *  bucket — no later arrival can join. */
    bool full(int64_t groupRows) const
    {
        return groupRows >= maxBatch();
    }

    /** Pad rows a packed group of @p totalRows executes under
     *  routeSingle(); -1 when no bucket fits. */
    int64_t padRows(int64_t totalRows) const;

    const std::vector<int64_t> &batches() const { return batches_; }

  private:
    std::vector<int64_t> batches_; ///< sorted, deduplicated, >= 1
    int64_t windowUs_ = 0;
};

} // namespace pe
