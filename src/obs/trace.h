/**
 * @file
 * Execution tracing primitives: the fixed-capacity Ring every armed
 * ExecContext records its spans into, and the span record itself.
 *
 * Design constraints (the ISSUE-8 contract):
 *  - zero steady-state allocation: the ring is sized once at arm time
 *    and recording is a fetch_add + struct copy, so a traced serving
 *    session allocates nothing per request;
 *  - the DISARMED path costs each step of the executor's one step
 *    loop a null-ring test (bench_kernels' BM_TraceOverhead/0 row);
 *  - concurrent recording is safe: shard spans are written from pool
 *    worker threads during one dispatch, each into its own reserved
 *    slot, and the dispatch barrier orders all of them before the
 *    step span and before any reader.
 *
 * Timestamps are ABSOLUTE steady_clock nanoseconds, not run-relative
 * offsets, so spans from different contexts (N serving sessions, the
 * engine's request-lifecycle records) land on one shared timeline and
 * a Chrome-trace export can interleave them without clock fusion.
 */

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace pe {

/** What a TraceSpan covers. */
enum class SpanKind : uint8_t {
    Step = 0, ///< one kernel step (all shards, wall time)
    Shard = 1 ///< one shard of a sharded step (worker-local)
};

/**
 * One recorded execution span. Plain data, copied whole into the
 * ring; the two string fields point at storage that outlives the
 * trace (op mnemonics are static, variant labels live in the
 * executor's variant table), so spans carry no ownership.
 */
struct TraceSpan {
    SpanKind kind = SpanKind::Step;
    /** Pool worker that ran it (0 = the dispatching thread). */
    uint16_t worker = 0;
    int32_t node = -1;      ///< graph node id
    int32_t stepIndex = -1; ///< kernel-step index within the program
    int32_t shard = -1;     ///< shard index; -1 on Step spans
    int32_t shards = 1;     ///< launch width of the step
    int64_t runId = 0;      ///< ExecContext step counter of the run
    int64_t startNs = 0;    ///< absolute steady_clock ns
    int64_t durNs = 0;      ///< wall duration
    /** Thread CPU time consumed (Shard spans; -1 = unsupported). */
    int64_t cpuNs = -1;
    int64_t begin = 0; ///< shard range over the partition domain
    int64_t end = 0;
    const char *op = "";      ///< op mnemonic (static storage)
    const char *variant = ""; ///< kernel variant incl. "@avx2"/"@neon"
};

/** Absolute steady_clock nanoseconds (the one trace timebase). */
int64_t traceNowNs();

/** Calling thread's CPU time in ns; -1 where the clock is missing. */
int64_t traceThreadCpuNs();

/**
 * Fixed-capacity ring, the one ring type of the runtime: executor
 * step spans (TraceBuffer), the serving latency reservoir and the
 * serving request-lifecycle records all live in one. All storage is
 * allocated at construction; record() reserves a slot with one
 * relaxed fetch_add and copies the value in, so concurrent recorders
 * never contend on a lock and never allocate. Once full, new records
 * overwrite the oldest — recorded() keeps counting so dropped() makes
 * the loss visible.
 *
 * Synchronization contract: concurrent record() calls are safe while
 * they land in distinct slots (writers that may lap each other must
 * serialize externally); readers (size/snapshot) must be ordered after
 * the writers by an external barrier — the executor's per-step
 * dispatch barrier and the serving engine's locks both provide it.
 */
template <typename T>
class Ring
{
  public:
    explicit Ring(size_t capacity) : slots_(capacity == 0 ? 1 : capacity)
    {
    }

    Ring(const Ring &) = delete;
    Ring &operator=(const Ring &) = delete;

    void
    record(const T &v)
    {
        int64_t i = next_.fetch_add(1, std::memory_order_relaxed);
        slots_[static_cast<size_t>(i) % slots_.size()] = v;
    }

    size_t capacity() const { return slots_.size(); }

    /** Records currently held: min(recorded, capacity). */
    size_t
    size() const
    {
        int64_t n = next_.load(std::memory_order_relaxed);
        return static_cast<size_t>(n) < slots_.size()
                   ? static_cast<size_t>(n)
                   : slots_.size();
    }

    /** Records ever made (keeps counting past capacity). */
    int64_t
    recorded() const
    {
        return next_.load(std::memory_order_relaxed);
    }

    /** Records lost to ring overwrite: recorded() - size(). */
    int64_t
    dropped() const
    {
        return recorded() - static_cast<int64_t>(size());
    }

    /** Forget everything; capacity is untouched. Not thread-safe. */
    void clear() { next_.store(0, std::memory_order_relaxed); }

    /**
     * The held records, OLDEST FIRST (the ring unrolled). Allocates
     * the result vector — analysis-time only, never on the record path.
     */
    std::vector<T>
    snapshot() const
    {
        size_t n = size();
        // Full ring: the oldest survivor sits at the next write slot.
        size_t at = n < slots_.size()
                        ? 0
                        : static_cast<size_t>(recorded()) % n;
        std::vector<T> out;
        out.reserve(n);
        for (size_t i = 0; i < n; ++i)
            out.push_back(slots_[(at + i) % n]);
        return out;
    }

  private:
    std::vector<T> slots_;
    std::atomic<int64_t> next_{0};
};

/** The span ring every armed ExecContext records into. */
using TraceBuffer = Ring<TraceSpan>;

} // namespace pe
