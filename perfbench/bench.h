/**
 * @file
 * Shared types: parsed arguments, the result a workload hands
 * back to main(), op timing with the placer's load readings, and the
 * span log the traced run records into.
 */

#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "placement.h"
#include "stats.h"

namespace perfbench {

struct Args {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
};

struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
};

/** What one workload run reports. The final JSON line is built from
 *  attempted/failed/errors/metrics; `detail` holds the facts printed
 *  on the line before it (sample counts, determinism counts). */
struct Result {
    int64_t attempted = 0;
    int64_t failed = 0;
    std::vector<std::string> errors; ///< failed output checks
    std::vector<Metric> metrics;
    /** (key, JSON value text) pairs. */
    std::vector<std::pair<std::string, std::string>> detail;
    std::string simdTier = "scalar"; ///< tier the measured plan bound
    int serveWorkers = 0;

    void
    metric(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
    void
    note(const std::string &key, double value)
    {
        detail.push_back({key, num(value)});
    }
    static std::string num(double v);
};

inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

inline double
msBetween(int64_t a, int64_t b)
{
    return static_cast<double>(b - a) / 1e6;
}

/** Spans recorded by the traced run, in memory until the run ends. */
class SpanLog
{
  public:
    SpanLog() { spans_.reserve(1 << 16); }

    int
    begin(const char *name, int parent = -1)
    {
        spans_.push_back({name, parent, nowNs(), 0});
        return static_cast<int>(spans_.size()) - 1;
    }
    void end(int id) { spans_[static_cast<size_t>(id)].endNs = nowNs(); }

    const std::vector<Span> &spans() const { return spans_; }

    /** Durations (ms) of every span named @p name. */
    std::vector<double> durationsMs(const char *name) const;

    /** Share of the summed root-span time that child spans cover —
     *  how much of the op wall time the per-layer spans explain. */
    double coverage() const;

  private:
    std::vector<Span> spans_;
};

/** Peak resident set (VmHWM) of this process, in MiB. */
double peakRssMb();

/** Median of @p v (0 when empty). */
inline double
median(const std::vector<double> &v)
{
    return percentile(v, 0.5);
}

/** One timed call: its duration and the load it ran under, the
 *  larger of the placer's readings before and after it. */
struct Timed {
    double ms = 0;
    double load = 0;
};

/** Time one call of @p f, with the placer's probes around it (outside
 *  the timed interval). */
template <typename F>
Timed
timeOp(Placer &pl, F &&f)
{
    const double before = pl.prepare();
    const int64_t t0 = nowNs();
    f();
    Timed out{msBetween(t0, nowNs()), 0};
    out.load = std::max(before, pl.probe());
    return out;
}

/** One timing's samples (ms), each with the load it ran under. */
class Timings
{
  public:
    /** Share of the samples, by lowest load, that metrics use. */
    static constexpr double kQuietShare = 0.10;

    void
    add(const Timed &t)
    {
        all_.push_back(t.ms);
        loads_.push_back(t.load);
    }

    /** The tenth of the samples run under the lowest loads (at least
     *  10); every sample when the loads are all equal. */
    std::vector<double>
    used() const
    {
        return quietest(all_, loads_, kQuietShare, 10);
    }
    const std::vector<double> &all() const { return all_; }
    size_t total() const { return all_.size(); }

  private:
    std::vector<double> all_, loads_;
};

/**
 * The end-to-end metrics every workload reports: op latency and
 * throughput (@p workPerOp units per op), time to first output,
 * set-up time, success share, and the peak RSS read before the
 * untimed reference checks allocate. All timings in ms.
 */
void endToEnd(Result &r, const Timings &opMs, double workPerOp,
              const Timings &ttftMs, const Timings &setupMs, double rssMb);

// Each workload times every op, set-up and prefill through timeOp(pl).
Result runTrain(const Args &a, Placer &pl);
Result runInt8Burst(const Args &a, Placer &pl);
Result runDecode(const Args &a, Placer &pl);

} // namespace perfbench
