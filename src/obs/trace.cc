#include "obs/trace.h"

#include <chrono>
#include <ctime>

namespace pe {

int64_t
traceNowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

int64_t
traceThreadCpuNs()
{
#if defined(CLOCK_THREAD_CPUTIME_ID)
    timespec ts;
    if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0)
        return -1;
    return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
#else
    return -1;
#endif
}

} // namespace pe
