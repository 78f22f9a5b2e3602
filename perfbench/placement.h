/**
 * @file
 * Keeps the benchmark off contended vCPUs and marks the ops another
 * tenant disturbed.
 *
 * On the shared hosts this benchmark runs on, each vCPU is a hardware
 * thread whose sibling other tenants use. While the sibling is busy,
 * load-bound code on that vCPU runs ~1.6x slower (a dependent ALU
 * chain does not slow at all); each vCPU flips between the two states
 * on its own, for 0.05-20 s at a time, and at almost any moment some
 * vCPU is quiet. Left alone, a run's median lands in either state.
 *
 * Around every timed op the placer times a ~20 us probe (an L1 and an
 * L2-resident load loop) on the vCPU the process is pinned to. Before
 * the op, a contended reading moves every thread of the process (the
 * client and any serving worker) to the quietest vCPU. The larger of
 * the readings before and after the op is the op's load; Timings
 * reports the ops run under the lowest loads. The engine code runs
 * unchanged; only where it runs is chosen, and which samples count.
 */

#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

class Placer
{
  public:
    /** Reads the vCPUs this process may use; a placer over fewer than
     *  two (or where affinity cannot be set) never moves anything and
     *  reads 0 for every op. */
    Placer();

    /** Call right before a timed op. Probes the vCPU the process is
     *  pinned to and, when it reads contended, moves every thread to
     *  the quietest vCPU. Returns the reading the op starts under (ns),
     *  or +inf for the first kSettleOps ops after a move, which run on
     *  cold caches. */
    double prepare();

    /** Call right after a timed op: the probe reading (ns). */
    double probe();

    /** Times the process was moved to another vCPU. */
    int64_t moves() const { return moves_; }
    /** Share of probes that read contended. */
    double
    contendedShare() const
    {
        return probes_ ? static_cast<double>(contended_) / probes_ : 0;
    }

  private:
    /** A reading this much above the chosen vCPU's reading at the last
     *  choice is contended. */
    static constexpr double kContendedRatio = 1.05;
    /** Ops after a move that still run on cold caches. */
    static constexpr int kSettleOps = 3;
    /** Re-probe every vCPU at most this often. */
    static constexpr int64_t kMinGapNs = 10'000'000;

    void choose();
    int64_t measure();

    std::vector<int> cpus_;
    int current_ = -1;
    bool active_ = false;
    int64_t refNs_ = 0; ///< the chosen vCPU's reading at the last choice
    int64_t lastChooseNs_ = 0;
    int sinceMove_ = 0; ///< prepare() calls since the last move
    int64_t moves_ = 0, probes_ = 0, contended_ = 0;
};

} // namespace perfbench
