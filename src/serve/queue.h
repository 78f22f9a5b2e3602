/**
 * @file
 * Bounded multi-producer/multi-consumer work queue — the admission
 * valve of the serving runtime. Producers (submit() callers) block or
 * bounce when the queue is full, so memory under overload is bounded
 * by capacity, not by traffic; consumers (the serving worker
 * threads) block while it is empty. close() lets shutdown
 * drain: queued items are still delivered, then every pop() returns
 * false and the workers exit their loops.
 *
 * Mutex + two condition variables, deliberately: the queue is crossed
 * twice per request (enqueue, dequeue), never inside a kernel — the
 * hot path owns a per-session arena and touches no shared mutable
 * state (see src/serve/serving.h).
 */

#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>

namespace pe {

template <typename T>
class BoundedQueue
{
  public:
    explicit BoundedQueue(size_t capacity)
        : cap_(capacity == 0 ? 1 : capacity)
    {
    }

    BoundedQueue(const BoundedQueue &) = delete;
    BoundedQueue &operator=(const BoundedQueue &) = delete;

    /** Enqueue, blocking while full. False iff the queue was closed
     *  (the item is NOT enqueued then). */
    bool
    push(T v)
    {
        std::unique_lock<std::mutex> lock(mu_);
        notFull_.wait(lock,
                      [this] { return closed_ || q_.size() < cap_; });
        if (closed_)
            return false;
        q_.push_back(std::move(v));
        lock.unlock();
        notEmpty_.notify_one();
        return true;
    }

    /** Non-blocking enqueue. False when full or closed — the caller's
     *  backpressure signal. */
    bool
    tryPush(T v)
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (closed_ || q_.size() >= cap_)
                return false;
            q_.push_back(std::move(v));
        }
        notEmpty_.notify_one();
        return true;
    }

    /** Dequeue, blocking while empty. False iff closed AND drained —
     *  items enqueued before close() are still delivered. */
    bool
    pop(T &out)
    {
        std::unique_lock<std::mutex> lock(mu_);
        notEmpty_.wait(lock, [this] { return closed_ || !q_.empty(); });
        if (q_.empty())
            return false;
        out = std::move(q_.front());
        q_.pop_front();
        lock.unlock();
        notFull_.notify_one();
        return true;
    }

    /**
     * Dequeue, blocking until @p deadline at the latest. False on
     * timeout or on closed-and-drained — either way the caller has
     * nothing to process. The coalescing drain's wait primitive: a
     * worker holding a partial group parks here until more traffic
     * arrives or the group's deadline window expires.
     */
    bool
    popUntil(T &out, std::chrono::steady_clock::time_point deadline)
    {
        std::unique_lock<std::mutex> lock(mu_);
        notEmpty_.wait_until(lock, deadline, [this] {
            return closed_ || !q_.empty();
        });
        if (q_.empty())
            return false;
        out = std::move(q_.front());
        q_.pop_front();
        lock.unlock();
        notFull_.notify_one();
        return true;
    }

    /** Reject new items; wake every blocked producer and consumer. */
    void
    close()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            closed_ = true;
        }
        notFull_.notify_all();
        notEmpty_.notify_all();
    }

    size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return q_.size();
    }

    size_t capacity() const { return cap_; }

    bool
    closed() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return closed_;
    }

  private:
    mutable std::mutex mu_;
    std::condition_variable notFull_;
    std::condition_variable notEmpty_;
    std::deque<T> q_;
    const size_t cap_;
    bool closed_ = false;
};

} // namespace pe
