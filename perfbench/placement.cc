#include "placement.h"

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <dirent.h>
#include <sched.h>
#include <unistd.h>

#include "bench.h"

namespace perfbench {

namespace {

float probeL1[4096];       // 16 KiB: inside L1
float probeL2[128 * 1024]; // 512 KiB: past L1, inside L2
volatile float probeSink;

/** A dependent add over L1-resident loads, then one pass over an
 *  L2-resident buffer: the two kinds of work a busy sibling hardware
 *  thread slows (it shares both caches). Best of @p reps, in ns. */
int64_t
probeNs(int reps)
{
    int64_t best = INT64_MAX;
    for (int rep = 0; rep < reps; ++rep) {
        const int64_t t0 = nowNs();
        float s = 0;
        for (int r = 0; r < 4; ++r)
            for (int i = 0; i < 4096; ++i)
                s += probeL1[i] * probeL1[(i + 7) & 4095];
        for (int i = 0; i < 128 * 1024; i += 16)
            s += probeL2[i];
        probeSink = s;
        const int64_t ns = nowNs() - t0;
        best = ns < best ? ns : best;
    }
    return best;
}

bool
pinThread(pid_t tid, const std::vector<int> &cpus)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c : cpus)
        CPU_SET(c, &set);
    return sched_setaffinity(tid, sizeof set, &set) == 0;
}

/** Apply @p cpus to every thread of the process. */
void
pinProcess(const std::vector<int> &cpus)
{
    DIR *d = opendir("/proc/self/task");
    if (!d) {
        pinThread(0, cpus);
        return;
    }
    while (dirent *e = readdir(d))
        if (e->d_name[0] != '.')
            pinThread(static_cast<pid_t>(std::atoi(e->d_name)), cpus);
    closedir(d);
}

} // namespace

Placer::Placer()
{
    for (int i = 0; i < 4096; ++i)
        probeL1[i] = 1.0f + static_cast<float>(i % 7) * 1e-3f;
    for (int i = 0; i < 128 * 1024; ++i)
        probeL2[i] = 1e-3f;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set))
            cpus_.push_back(c);
    active_ = cpus_.size() >= 2 && pinThread(0, cpus_);
    if (active_)
        choose();
}

int64_t
Placer::measure()
{
    const int64_t ns = probeNs(2);
    ++probes_;
    if (static_cast<double>(ns) > kContendedRatio * refNs_)
        ++contended_;
    return ns;
}

double
Placer::prepare()
{
    if (!active_)
        return 0;
    int64_t ns = measure();
    if (static_cast<double>(ns) > kContendedRatio * refNs_ &&
        nowNs() - lastChooseNs_ >= kMinGapNs) {
        choose();
        ns = probeNs(2);
    }
    if (++sinceMove_ <= kSettleOps)
        return std::numeric_limits<double>::infinity();
    return static_cast<double>(ns);
}

double
Placer::probe()
{
    return active_ ? static_cast<double>(measure()) : 0;
}

void
Placer::choose()
{
    int best = -1;
    int64_t bestNs = INT64_MAX;
    for (int c : cpus_) {
        if (!pinThread(0, {c}))
            continue;
        const int64_t ns = probeNs(3);
        if (ns < bestNs) {
            bestNs = ns;
            best = c;
        }
    }
    lastChooseNs_ = nowNs();
    if (best < 0) {
        active_ = false;
        pinProcess(cpus_);
        return;
    }
    refNs_ = bestNs;
    if (best != current_) {
        ++moves_;
        sinceMove_ = 0;
    }
    current_ = best;
    pinProcess({best});
}

} // namespace perfbench
