/**
 * @file
 * The benchmark's own arithmetic: percentiles with their sample
 * counts, span self time, and the exact per-op ratio guards. Kept
 * free of engine headers so selftest.cc can check it in isolation.
 */

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

/**
 * The @p q quantile (0..1) of the ascending @p sorted sample by linear
 * interpolation between order statistics: rank q * (n - 1), the
 * convention of numpy's default and of Python's
 * statistics.quantiles(method='inclusive'). 0 for an empty sample.
 */
inline double
percentileSorted(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0;
    const double rank = q * static_cast<double>(sorted.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/** percentileSorted() of an unsorted sample. */
inline double
percentile(std::vector<double> v, double q)
{
    std::sort(v.begin(), v.end());
    return percentileSorted(v, q);
}

/** A timing's median and 90th percentile, with the sample count. */
struct Summary {
    double p50 = 0;
    double p90 = 0;
    double sum = 0;
    size_t n = 0;
    /** Samples strictly above p90 — at least 10 for p90 to be worth
     *  reporting (the rule the benchmark's doc states). */
    size_t beyondP90 = 0;
};

inline Summary
summarize(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    Summary s;
    s.n = v.size();
    s.p50 = percentileSorted(v, 0.5);
    s.p90 = percentileSorted(v, 0.9);
    for (double x : v) {
        s.sum += x;
        if (x > s.p90)
            ++s.beyondP90;
    }
    return s;
}

/** One recorded span: a call into a layer, timed from the benchmark's
 *  own code. @c parent indexes the enclosing span (-1 = root). */
struct Span {
    const char *name = "";
    int parent = -1;
    int64_t startNs = 0;
    int64_t endNs = 0;
};

/**
 * Self time of every span: its duration minus the part of it that the
 * union of its children's intervals covers (children are clipped to
 * the parent, and overlapping children count once).
 */
inline std::vector<int64_t>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(
        spans.size());
    for (const Span &s : spans)
        if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size())
            kids[static_cast<size_t>(s.parent)].push_back(
                {s.startNs, s.endNs});
    std::vector<int64_t> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &p = spans[i];
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        int64_t covered = 0;
        int64_t cur = p.startNs; // covered up to here
        for (auto [a, b] : iv) {
            a = std::max(a, cur);
            b = std::min(b, p.endNs);
            if (b > a) {
                covered += b - a;
                cur = b;
            }
        }
        self[i] = (p.endNs - p.startNs) - covered;
    }
    return self;
}

/**
 * The samples of @p values taken under the lowest @p loads: every
 * sample whose load is at most the k-th lowest load, where k is
 * @p share of the samples but at least @p minCount (ties at the cut
 * are all kept, so equal loads keep every sample). Values and loads
 * are index-aligned.
 */
inline std::vector<double>
quietest(const std::vector<double> &values, const std::vector<double> &loads,
         double share, size_t minCount)
{
    if (values.empty())
        return {};
    std::vector<double> sorted = loads;
    std::sort(sorted.begin(), sorted.end());
    size_t k = static_cast<size_t>(share * static_cast<double>(sorted.size()));
    k = std::min(std::max(k, minCount), sorted.size());
    const double cut = sorted[k == 0 ? 0 : k - 1];
    std::vector<double> out;
    for (size_t i = 0; i < values.size(); ++i)
        if (loads[i] <= cut)
            out.push_back(values[i]);
    return out;
}

/**
 * Exact per-op ratio guard: a counter that moved by @p delta over
 * @p ops ops must have moved by exactly @p perOp per op. Determinism
 * counts (bucket runs, pad rows) are integers, so nothing but equality
 * is a pass.
 */
inline bool
ratioHolds(int64_t delta, int64_t ops, int64_t perOp)
{
    return ops > 0 && delta == ops * perOp;
}

} // namespace perfbench
