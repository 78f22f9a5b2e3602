/**
 * @file
 * Self-tests of the benchmark's own arithmetic (stats.h): percentiles
 * with their sample counts, span self time, quiet-sample selection and
 * the per-op ratio guards. They run at the start of every benchmark
 * invocation, which refuses to measure when any fails, so a wrong
 * percentile or self time can never reach a reported number.
 */

#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace perfbench {

namespace {

int failures = 0;

void
expect(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "perfbench self-test failed: %s\n", what);
        ++failures;
    }
}

bool
near(double a, double b)
{
    return std::fabs(a - b) <= 1e-12 * (1 + std::fabs(b));
}

} // namespace

int
runSelfTests()
{
    failures = 0;

    // Percentiles: linear interpolation at rank q * (n - 1), unsorted
    // input, sample counts carried along.
    expect(percentile({}, 0.5) == 0, "empty percentile is 0");
    expect(percentile({7}, 0.9) == 7, "single-sample percentile");
    expect(near(percentile({4, 1, 3, 2}, 0.5), 2.5), "even median");
    expect(near(percentile({5, 1, 4, 2, 3}, 0.5), 3), "odd median");
    expect(near(percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 0.9), 10),
           "p90 on an exact rank");
    expect(near(percentile({10, 20}, 0.9), 19), "p90 interpolates");
    std::vector<double> hundred;
    for (int i = 100; i >= 1; --i)
        hundred.push_back(i);
    const Summary s = summarize(hundred);
    expect(s.n == 100, "summary sample count");
    expect(near(s.p50, 50.5) && near(s.p90, 90.1), "summary percentiles");
    expect(s.beyondP90 == 10, "samples beyond p90");
    expect(near(s.sum, 5050), "summary sum");

    // Span self time: children clipped to the parent, overlaps counted
    // once, grandchildren charged to their own parent only.
    const std::vector<Span> spans = {
        {"op", -1, 0, 100},   // 0: children cover [10,50) + [60,100)
        {"a", 0, 10, 40},     // 1
        {"b", 0, 30, 50},     // 2: overlaps a
        {"c", 0, 60, 120},    // 3: runs past the parent
        {"c.x", 3, 70, 80},   // 4
        {"solo", -1, 200, 210},
    };
    const std::vector<int64_t> self = selfTimes(spans);
    expect(self[0] == 20, "parent self time excludes child union");
    expect(self[1] == 30 && self[2] == 20, "leaf self time is duration");
    expect(self[3] == 50, "grandchild charged to its own parent");
    expect(self[5] == 10, "childless root");

    // Quietest samples: the lowest-load share, at least minCount, ties
    // at the cut kept, equal loads keep everything.
    const std::vector<double> vals = {10, 11, 12, 13, 14, 15, 16, 17};
    const std::vector<double> loads = {5, 1, 7, 2, 8, 3, 6, 4};
    expect(quietest(vals, loads, 0.25, 1) == std::vector<double>{11, 13},
           "quietest quarter by load");
    expect(quietest(vals, loads, 0.25, 3) ==
               std::vector<double>{11, 13, 15},
           "quietest honours the minimum count");
    expect(quietest(vals, std::vector<double>(8, 0.0), 0.25, 1) == vals,
           "equal loads keep every sample");
    expect(quietest({1, 2}, {1, 2}, 0.25, 10).size() == 2,
           "minimum count is capped at the sample count");

    // Per-op ratio guards: exact integers only.
    expect(ratioHolds(56, 56, 1), "one run per op");
    expect(!ratioHolds(57, 56, 1), "an extra run fails");
    expect(ratioHolds(0, 56, 0), "zero pad rows");
    expect(!ratioHolds(1, 56, 0), "one pad row fails");
    expect(!ratioHolds(0, 0, 0), "no ops is never a pass");

    return failures;
}

} // namespace perfbench
