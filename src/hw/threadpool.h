/**
 * @file
 * Host-side worker pool and the parallelFor primitive.
 *
 * The compiled runtime is a straight loop of kernel calls with every
 * decision made at bind time; the pool is the one piece of machinery
 * that loop needs to use more than one core. Work arrives as an
 * index set [0, tasks): workers (plus the calling thread) grab
 * indices from a shared counter and the dispatching call returns only
 * when all indices have run — a barrier per dispatch, which is
 * exactly the per-step barrier the partitioned executor wants.
 *
 * The pool is owned by HostDevice, the runtime counterpart of the
 * analytical DeviceModel catalogue in hw/device.h: one process-wide
 * pool, grown on demand to the largest thread count any executor has
 * asked for, shared by all executors so concurrent programs do not
 * oversubscribe the machine.
 */

#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pe {

/**
 * Balanced contiguous split of [0, n): at most @p max_shards shards,
 * none smaller than @p grain (so small ranges stay whole). Returns
 * shard boundaries, size shards + 1, bounds[0] == 0, back() == n.
 * The ONE split formula in the codebase — the executor's bind-time
 * launch plans and parallelFor use it, so the ranges the parity tests
 * exercise are exactly the ranges production runs.
 */
std::vector<int64_t> splitRange(int64_t n, int64_t grain, int max_shards);

class ThreadPool
{
  public:
    /**
     * @param num_threads total concurrency including the caller;
     *        num_threads - 1 worker threads are spawned. Clamped to
     *        at least 1.
     */
    explicit ThreadPool(int num_threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total concurrency (workers + calling thread). */
    int numThreads() const { return static_cast<int>(workers_.size()) + 1; }

    /**
     * Worker index of the CALLING thread: 0 for any thread that is
     * not a pool worker (including every dispatching thread), 1..N-1
     * for the pool's spawned workers. A thread-local stamped at
     * worker birth — reading it is one TLS load, which is what lets
     * per-shard trace spans attribute work to a worker without
     * threading an id through the kernel ABI.
     */
    static int currentWorker();

    /**
     * Run fn(i) for every i in [0, tasks), distributing indices over
     * the workers and the calling thread. Returns after ALL indices
     * have completed (barrier). Concurrent dispatches from different
     * caller threads serialize; a task must NOT dispatch on its own
     * pool (that nests a barrier inside a barrier and deadlocks).
     */
    void dispatch(int tasks, const std::function<void(int)> &fn);

    /**
     * Split [0, n) into contiguous shards of at least @p grain
     * elements (at most numThreads() shards) and run
     * fn(begin, end) for each. Serial when one shard suffices.
     */
    void parallelFor(int64_t n, int64_t grain,
                     const std::function<void(int64_t, int64_t)> &fn);

  private:
    void workerLoop();
    /** Pull indices until the current dispatch runs dry. */
    void drain();

    std::vector<std::thread> workers_;
    std::mutex dispatchMu_; ///< serializes whole dispatches
    std::mutex mu_;
    std::condition_variable wake_;  ///< workers wait for a dispatch
    std::condition_variable done_;  ///< dispatcher waits for the barrier
    const std::function<void(int)> *fn_ = nullptr;
    int tasks_ = 0;
    int next_ = 0;       ///< next index to hand out
    int inFlight_ = 0;   ///< indices handed out but not finished
    uint64_t epoch_ = 0; ///< bumped per dispatch so workers re-sleep
    bool stop_ = false;
};

/**
 * The host execution device. Owns the process's worker pool; the
 * executor asks for a pool sized to ProgramArtifact::numThreads at bind
 * time and keeps the returned handle for the life of the program.
 */
class HostDevice
{
  public:
    static HostDevice &instance();

    /**
     * A pool providing at least @p num_threads concurrency, or
     * nullptr when num_threads <= 1 (the serial fast path — callers
     * skip the pool entirely, preserving bit-identical execution).
     * Pools are created lazily; when a larger pool is requested the
     * smaller ones stay alive so previously returned handles remain
     * valid for the life of the process.
     */
    ThreadPool *pool(int num_threads);

    /** Hardware concurrency of this host (>= 1). */
    static int hardwareThreads();

  private:
    HostDevice() = default;
    std::mutex mu_;
    std::vector<std::unique_ptr<ThreadPool>> pools_;
};

} // namespace pe
