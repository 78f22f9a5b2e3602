/**
 * @file
 * Serving-runtime tests (ctest label: serve — the TSan job's focused
 * pass, since concurrent sessions over one shared compiled plan are
 * exactly ThreadSanitizer's bug class).
 *
 * Guarantee layers:
 *  1. BoundedQueue admission semantics: bounded, blocking, bouncing,
 *     drain-on-close.
 *  2. Executor re-entrancy: session contexts from one compiled
 *     program are mutually independent and bit-equal to the classic
 *     single-session API.
 *  3. Engine behavior: shape-bucket routing, pad-to-bucket parity,
 *     session-pool reuse (no growth after warm-up), backpressure
 *     bounds, stats sanity.
 *  4. The acceptance bar: concurrent submission produces bit-identical
 *     outputs to serial runBatch, per request, including a
 *     4-thread x 32-request mixed-shape stress run.
 *  5. Continuous batching: Coalescer policy units, coalesced-run
 *     bit-parity vs independently padded serial runs (fp32 + int8),
 *     group-aware pad-waste reduction for mixed row counts,
 *     deadline-window expiry, coalesceWindowUs=0 reproducing the
 *     per-request path, a 4-worker x 64-request coalescing stress,
 *     and the bounded latency reservoir.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "frontend/builder.h"
#include "serve/coalescer.h"
#include "serve/queue.h"
#include "serve/serving.h"

namespace pe {
namespace {

// ---- BoundedQueue ----------------------------------------------------

TEST(BoundedQueue, TryPushBouncesWhenFull)
{
    BoundedQueue<int> q(2);
    EXPECT_TRUE(q.tryPush(1));
    EXPECT_TRUE(q.tryPush(2));
    EXPECT_FALSE(q.tryPush(3)) << "capacity 2 must bounce the third";
    int v = 0;
    ASSERT_TRUE(q.pop(v));
    EXPECT_EQ(v, 1);
    EXPECT_TRUE(q.tryPush(3)) << "pop must free a slot";
    EXPECT_EQ(q.size(), 2u);
}

TEST(BoundedQueue, PushBlocksUntilPopFreesASlot)
{
    BoundedQueue<int> q(1);
    ASSERT_TRUE(q.tryPush(1));
    std::atomic<bool> pushed{false};
    std::thread producer([&] {
        ASSERT_TRUE(q.push(2)); // blocks: queue is full
        pushed = true;
    });
    // The producer must be parked, not spinning past the bound.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(pushed.load());
    int v = 0;
    ASSERT_TRUE(q.pop(v));
    producer.join();
    EXPECT_TRUE(pushed.load());
    ASSERT_TRUE(q.pop(v));
    EXPECT_EQ(v, 2);
}

TEST(BoundedQueue, CloseDrainsQueuedItemsThenStops)
{
    BoundedQueue<int> q(4);
    ASSERT_TRUE(q.tryPush(7));
    ASSERT_TRUE(q.tryPush(8));
    q.close();
    EXPECT_FALSE(q.push(9)) << "closed queue must reject new items";
    int v = 0;
    ASSERT_TRUE(q.pop(v));
    EXPECT_EQ(v, 7);
    ASSERT_TRUE(q.pop(v));
    EXPECT_EQ(v, 8);
    EXPECT_FALSE(q.pop(v)) << "closed + drained must return false";
}

TEST(BoundedQueue, PopUnblocksOnClose)
{
    BoundedQueue<int> q(4);
    std::atomic<bool> returned{false};
    std::thread consumer([&] {
        int v = 0;
        EXPECT_FALSE(q.pop(v));
        returned = true;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(returned.load());
    q.close();
    consumer.join();
    EXPECT_TRUE(returned.load());
}

// ---- Fixtures --------------------------------------------------------

/** The served model family: a small MLP classifier whose parameter
 *  names are batch-independent, so every bucket binds one store. */
ServedModel
mlpModel(int64_t batch, ParamStore *store)
{
    Graph g;
    Rng rng(7);
    NetBuilder b(g, rng, store);
    int x = b.input({batch, 8}, "x");
    int h = b.relu(b.linear(x, 32, "l1"));
    h = b.gelu(b.linear(h, 32, "l2"));
    int logits = b.linear(h, 4, "head");
    return ServedModel{std::move(g), {logits}};
}

Tensor
randomRows(int64_t rows, Rng &rng)
{
    return Tensor::randn({rows, 8}, rng);
}

void
expectBitEqual(const Tensor &a, const Tensor &b, const std::string &what)
{
    ASSERT_EQ(a.shape(), b.shape()) << what;
    EXPECT_EQ(std::memcmp(a.data(), b.data(), sizeof(float) * a.size()),
              0)
        << what << ": values differ";
}

/** Zero-pad @p t's leading dim up to @p batch rows. */
Tensor
padRows(const Tensor &t, int64_t batch)
{
    Shape s = t.shape();
    int64_t rows = s[0];
    s[0] = batch;
    Tensor out = Tensor::zeros(s);
    std::memcpy(out.data(), t.data(),
                sizeof(float) * rows * (t.size() / rows));
    return out;
}

// ---- Executor re-entrancy (session contexts) -------------------------

TEST(ExecContext, SessionsAreIndependentAndMatchClassicApi)
{
    auto store = std::make_shared<ParamStore>();
    ServedModel m = mlpModel(4, store.get());
    CompileOptions opt;
    auto prog = compileInference(m.graph, m.outputs, opt, store);

    Rng r(21);
    Tensor xa = randomRows(4, r);
    Tensor xb = randomRows(4, r);

    // Classic API reference outputs.
    Tensor refA = prog.run({{"x", xa}})[0];
    Tensor refB = prog.run({{"x", xb}})[0];

    // Two session contexts over the same compiled program, driven
    // interleaved: each must see only its own feed.
    Executor &ex = prog.executor();
    auto ca = ex.makeContext();
    auto cb = ex.makeContext();
    int xid = ex.inputId("x");
    ASSERT_GE(xid, 0);
    int out = prog.graph().outputs()[0];

    ex.bindInputById(*ca, xid, xa);
    ex.bindInputById(*cb, xid, xb);
    ex.run(*ca);
    ex.run(*cb);
    expectBitEqual(ex.fetch(*ca, out), refA, "session A");
    expectBitEqual(ex.fetch(*cb, out), refB, "session B");

    // Re-running one session must not disturb the other's arena.
    ex.bindInputById(*ca, xid, xb);
    ex.run(*ca);
    expectBitEqual(ex.fetch(*ca, out), refB, "session A rebound");
    expectBitEqual(ex.fetch(*cb, out), refB, "session B untouched");
}

TEST(ExecContext, PackedBindZeroFillsThePad)
{
    auto store = std::make_shared<ParamStore>();
    ServedModel m = mlpModel(4, store.get());
    CompileOptions opt;
    auto prog = compileInference(m.graph, m.outputs, opt, store);
    Executor &ex = prog.executor();

    Rng r(31);
    Tensor x3 = randomRows(3, r);

    // A padded bind must reproduce an explicit zero-padded bind.
    Tensor ref = prog.run({{"x", padRows(x3, 4)}})[0];
    auto ctx = ex.makeContext();
    int xid = ex.inputId("x");
    // Dirty the staging buffer first: the zero-fill must erase it.
    ex.bindInputById(*ctx, xid, randomRows(4, r));
    std::copy_n(x3.data(), x3.size(), ex.rowsOf(*ctx, xid, 0, 3));
    std::fill_n(ex.rowsOf(*ctx, xid, 3, 1), 8, 0.0f);
    ex.run(*ctx);
    expectBitEqual(ex.fetch(*ctx, prog.graph().outputs()[0]), ref,
                   "padded bind");

    // Rows past the input's 4 are refused.
    EXPECT_THROW(ex.rowsOf(*ctx, xid, 0, 5), std::runtime_error);
    EXPECT_THROW(ex.rowsOf(*ctx, xid, 4, 1), std::runtime_error);
}

// ---- Shape-bucket routing --------------------------------------------

TEST(Serving, ShapeBucketRouting)
{
    auto store = std::make_shared<ParamStore>();
    ServeOptions so;
    so.buckets = {8, 1, 4, 4}; // unsorted + dup: engine normalizes
    so.workers = 2;
    ServingEngine engine(
        [&](int64_t b) { return mlpModel(b, store.get()); }, store, so);

    EXPECT_EQ(engine.bucketFor(1), 1);
    EXPECT_EQ(engine.bucketFor(2), 4);
    EXPECT_EQ(engine.bucketFor(4), 4);
    EXPECT_EQ(engine.bucketFor(5), 8);
    EXPECT_EQ(engine.bucketFor(8), 8);
    EXPECT_EQ(engine.bucketFor(9), -1);

    Rng r(5);
    auto id = engine.submit({{"x", randomRows(3, r)}});
    engine.wait(id);
    ServeStats s = engine.stats();
    ASSERT_EQ(s.buckets.size(), 3u);
    EXPECT_EQ(s.buckets[0].batch, 1);
    EXPECT_EQ(s.buckets[1].batch, 4);
    EXPECT_EQ(s.buckets[2].batch, 8);
    EXPECT_EQ(s.buckets[1].hits, 1) << "3 rows must route to bucket 4";
    EXPECT_EQ(s.buckets[1].paddedRows, 1);
    EXPECT_EQ(s.buckets[0].hits + s.buckets[2].hits, 0);

    // Oversize and malformed submissions are rejected at the door.
    EXPECT_THROW(engine.submit({{"x", randomRows(9, r)}}),
                 std::invalid_argument);
    EXPECT_THROW(engine.submit({{"nope", randomRows(1, r)}}),
                 std::invalid_argument);
    EXPECT_THROW(engine.submit({{"x", Tensor({1, 9})}}),
                 std::invalid_argument);
    EXPECT_THROW(engine.submit({}), std::invalid_argument);

    // Request-id lifecycle: unknown and consumed ids throw.
    EXPECT_THROW(engine.poll(9999), std::out_of_range);
    EXPECT_THROW(engine.wait(id), std::out_of_range)
        << "wait consumes the result";

    // Per-bucket compiled plans are introspectable.
    EXPECT_GT(engine.bucketReport(4).kernelSteps, 0);
    EXPECT_THROW(engine.bucketReport(3), std::invalid_argument);
}

TEST(Serving, ZeroRowRequestIsRejectedAsEmpty)
{
    auto store = std::make_shared<ParamStore>();
    ServeOptions so;
    so.buckets = {4};
    ServingEngine engine(
        [&](int64_t b) { return mlpModel(b, store.get()); }, store, so);
    try {
        engine.submit({{"x", Tensor({0, 8})}});
        FAIL() << "a zero-row request must be rejected";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("feed x has no rows"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_EQ(engine.stats().submitted, 0);
}

TEST(Serving, PartialFeedSetsAreRejected)
{
    // Sessions are reused across requests, so a request that leaves
    // an input unbound would silently read the previous request's
    // staging bytes — it must be rejected at submit instead.
    auto store = std::make_shared<ParamStore>();
    ServeOptions so;
    so.buckets = {2};
    ServingEngine engine(
        [&](int64_t batch) {
            Graph g;
            Rng rng(1);
            NetBuilder b(g, rng, store.get());
            int x = b.input({batch, 4}, "x");
            int y = b.input({batch, 4}, "y");
            int out = b.add(x, y);
            return ServedModel{std::move(g), {out}};
        },
        store, so);

    Rng r(2);
    Tensor x = Tensor::randn({2, 4}, r);
    Tensor y = Tensor::randn({2, 4}, r);
    EXPECT_THROW(engine.submit({{"x", x}}), std::invalid_argument);
    auto id = engine.submit({{"x", x}, {"y", y}});
    Tensor out = engine.wait(id)[0];
    for (int64_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], x[i] + y[i]);
}

// ---- Concurrent parity vs serial runBatch ----------------------------

TEST(Serving, ConcurrentSubmitMatchesSerialRunBatchBitExact)
{
    auto store = std::make_shared<ParamStore>();
    ServeOptions so;
    so.buckets = {16};
    so.workers = 4;
    ServingEngine engine(
        [&](int64_t b) { return mlpModel(b, store.get()); }, store, so);

    // Serial reference: the same model compiled the classic way over
    // the same frozen store.
    ServedModel ref = mlpModel(16, store.get());
    CompileOptions opt;
    auto prog = compileInference(ref.graph, ref.outputs, opt, store);

    Rng r(13);
    std::vector<std::unordered_map<std::string, Tensor>> feeds;
    for (int i = 0; i < 12; ++i)
        feeds.push_back({{"x", randomRows(16, r)}});
    auto serial = prog.runBatch(feeds);

    std::vector<ServingEngine::RequestId> ids;
    for (const auto &f : feeds)
        ids.push_back(engine.submit(f));
    for (size_t i = 0; i < ids.size(); ++i) {
        std::vector<Tensor> outs = engine.wait(ids[i]);
        ASSERT_EQ(outs.size(), serial[i].size());
        expectBitEqual(outs[0], serial[i][0],
                       "request " + std::to_string(i));
    }
    EXPECT_EQ(engine.stats().completed, 12);
}

TEST(Serving, PaddedRequestMatchesZeroPaddedSerialRun)
{
    auto store = std::make_shared<ParamStore>();
    ServeOptions so;
    so.buckets = {4};
    so.workers = 2;
    ServingEngine engine(
        [&](int64_t b) { return mlpModel(b, store.get()); }, store, so);

    ServedModel ref = mlpModel(4, store.get());
    CompileOptions opt;
    auto prog = compileInference(ref.graph, ref.outputs, opt, store);

    Rng r(17);
    for (int64_t rows = 1; rows <= 4; ++rows) {
        Tensor x = randomRows(rows, r);
        Tensor full = prog.run({{"x", padRows(x, 4)}})[0];
        Shape ss = full.shape();
        ss[0] = rows;
        Tensor expect(ss);
        std::memcpy(expect.data(), full.data(),
                    sizeof(float) * expect.size());

        auto id = engine.submit({{"x", x}});
        std::vector<Tensor> outs = engine.wait(id);
        expectBitEqual(outs[0], expect,
                       "rows=" + std::to_string(rows));
    }
}

TEST(Serving, Fp16BucketsMatchSerialFp16RunBatch)
{
    auto store = std::make_shared<ParamStore>();
    ServeOptions so;
    so.buckets = {8};
    so.workers = 2;
    so.compile.precision = Precision::F16;
    ServingEngine engine(
        [&](int64_t b) { return mlpModel(b, store.get()); }, store, so);

    ServedModel ref = mlpModel(8, store.get());
    CompileOptions opt;
    opt.precision = Precision::F16;
    auto prog = compileInference(ref.graph, ref.outputs, opt, store);
    EXPECT_EQ(engine.bucketReport(8).precision, Precision::F16);

    Rng r(23);
    std::vector<std::unordered_map<std::string, Tensor>> feeds;
    for (int i = 0; i < 6; ++i)
        feeds.push_back({{"x", randomRows(8, r)}});
    auto serial = prog.runBatch(feeds);

    std::vector<ServingEngine::RequestId> ids;
    for (const auto &f : feeds)
        ids.push_back(engine.submit(f));
    for (size_t i = 0; i < ids.size(); ++i)
        expectBitEqual(engine.wait(ids[i])[0], serial[i][0],
                       "fp16 request " + std::to_string(i));
}

// ---- Session-pool reuse ----------------------------------------------

TEST(Serving, SessionPoolStopsGrowingAfterWarmup)
{
    // One worker makes warm-up deterministic: after the first burst
    // has touched every bucket, that worker owns one session per
    // bucket and NOTHING may allocate another arena, ever.
    auto store = std::make_shared<ParamStore>();
    ServeOptions so;
    so.buckets = {1, 4};
    so.workers = 1;
    ServingEngine engine(
        [&](int64_t b) { return mlpModel(b, store.get()); }, store, so);

    Rng r(29);
    auto burst = [&] {
        std::vector<ServingEngine::RequestId> ids;
        for (int i = 0; i < 40; ++i)
            ids.push_back(
                engine.submit({{"x", randomRows(1 + i % 4, r)}}));
        for (auto id : ids)
            engine.wait(id);
    };
    burst();
    EXPECT_EQ(engine.stats().sessionsCreated, 2)
        << "one session per (worker, bucket) pair";
    burst();
    EXPECT_EQ(engine.stats().sessionsCreated, 2)
        << "no arena growth after warm-up";
}

TEST(Serving, SessionPoolIsBoundedByWorkersTimesBuckets)
{
    auto store = std::make_shared<ParamStore>();
    ServeOptions so;
    so.buckets = {1, 4};
    so.workers = 4;
    ServingEngine engine(
        [&](int64_t b) { return mlpModel(b, store.get()); }, store, so);

    Rng r(37);
    for (int burst = 0; burst < 3; ++burst) {
        std::vector<ServingEngine::RequestId> ids;
        for (int i = 0; i < 32; ++i)
            ids.push_back(
                engine.submit({{"x", randomRows(1 + i % 4, r)}}));
        for (auto id : ids)
            engine.wait(id);
        EXPECT_LE(engine.stats().sessionsCreated, 4 * 2)
            << "session pool exceeded workers x buckets";
    }
}

// ---- Backpressure ----------------------------------------------------

TEST(Serving, BoundedQueueBoundsDepthUnderConcurrentSubmit)
{
    auto store = std::make_shared<ParamStore>();
    ServeOptions so;
    so.buckets = {2};
    so.workers = 1;
    so.queueCapacity = 2;
    ServingEngine engine(
        [&](int64_t b) { return mlpModel(b, store.get()); }, store, so);

    constexpr int kThreads = 3, kPer = 10;
    std::vector<std::vector<ServingEngine::RequestId>> ids(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            Rng r(100 + t);
            for (int i = 0; i < kPer; ++i)
                ids[t].push_back(
                    engine.submit({{"x", randomRows(2, r)}}));
        });
    }
    for (auto &t : threads)
        t.join();
    for (auto &row : ids)
        for (auto id : row)
            EXPECT_EQ(engine.wait(id).size(), 1u);

    ServeStats s = engine.stats();
    EXPECT_EQ(s.completed, kThreads * kPer);
    EXPECT_LE(s.maxQueueDepth, 2)
        << "admission queue exceeded its bound";
    EXPECT_GT(s.throughputRps, 0.0);
    EXPECT_LE(s.p50LatencyUs, s.p99LatencyUs);
}

// ---- Stress: 4 submitter threads x 32 requests, mixed shapes ---------

TEST(Serving, StressFourThreadsThirtyTwoRequestsEachBitExact)
{
    auto store = std::make_shared<ParamStore>();
    ServeOptions so;
    so.buckets = {2, 5};
    so.workers = 4;
    so.queueCapacity = 16;
    ServingEngine engine(
        [&](int64_t b) { return mlpModel(b, store.get()); }, store, so);

    // Serial reference programs, one per bucket, over the same store.
    CompileOptions opt;
    ServedModel m2 = mlpModel(2, store.get());
    ServedModel m5 = mlpModel(5, store.get());
    auto prog2 = compileInference(m2.graph, m2.outputs, opt, store);
    auto prog5 = compileInference(m5.graph, m5.outputs, opt, store);

    constexpr int kThreads = 4, kPer = 32;
    struct Sent {
        Tensor x;
        ServingEngine::RequestId id;
    };
    std::vector<std::vector<Sent>> sent(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            Rng r(1000 + t);
            for (int i = 0; i < kPer; ++i) {
                int64_t rows =
                    1 + static_cast<int64_t>(r.randint(5)); // 1..5
                Tensor x = randomRows(rows, r);
                auto id = engine.submit({{"x", x.clone()}});
                sent[t].push_back({std::move(x), id});
            }
        });
    }
    for (auto &t : threads)
        t.join();

    for (int t = 0; t < kThreads; ++t) {
        for (size_t i = 0; i < sent[t].size(); ++i) {
            const Sent &req = sent[t][i];
            int64_t rows = req.x.shape()[0];
            int64_t bucket = rows <= 2 ? 2 : 5;
            InferenceProgram &prog = bucket == 2 ? prog2 : prog5;
            Tensor full =
                prog.run({{"x", padRows(req.x, bucket)}})[0];
            Shape ss = full.shape();
            ss[0] = rows;
            Tensor expect(ss);
            std::memcpy(expect.data(), full.data(),
                        sizeof(float) * expect.size());
            std::vector<Tensor> outs = engine.wait(req.id);
            expectBitEqual(outs[0], expect,
                           "thread " + std::to_string(t) +
                               " request " + std::to_string(i));
        }
    }
    ServeStats s = engine.stats();
    EXPECT_EQ(s.completed, kThreads * kPer);
    EXPECT_EQ(s.queueDepth, 0);
    int64_t hits = 0;
    for (const auto &b : s.buckets)
        hits += b.hits;
    EXPECT_EQ(hits, kThreads * kPer);
    EXPECT_FALSE(s.summary().empty());
}

// ---- Coalescer policy (no threads, no plans) -------------------------

TEST(Coalescer, NormalizesBucketsAndRoutesSmallestFit)
{
    Coalescer c({8, 1, 4, 4, 0, -2}, 100);
    ASSERT_EQ(c.batches(), (std::vector<int64_t>{1, 4, 8}));
    EXPECT_TRUE(c.enabled());
    EXPECT_EQ(c.maxBatch(), 8);

    EXPECT_EQ(c.routeSingle(1), 0);
    EXPECT_EQ(c.routeSingle(2), 1);
    EXPECT_EQ(c.routeSingle(4), 1);
    EXPECT_EQ(c.routeSingle(5), 2);
    EXPECT_EQ(c.routeSingle(8), 2);
    EXPECT_EQ(c.routeSingle(9), -1);
    EXPECT_EQ(c.routeSingle(0), -1);

    // A group routes by the same smallest-fit rule on its total.
    EXPECT_EQ(c.routeSingle(6), 2);
}

TEST(Coalescer, AdmitsWhileTheGroupFitsTheLargestBucket)
{
    Coalescer c({1, 4, 8}, 100);
    EXPECT_TRUE(c.admits(1, 1));
    EXPECT_TRUE(c.admits(3, 5)) << "3+5 exactly fills bucket 8";
    EXPECT_FALSE(c.admits(7, 2)) << "7+2 exceeds every bucket";
    EXPECT_FALSE(c.admits(3, 0)) << "zero-row requests never join";
    EXPECT_FALSE(c.full(7));
    EXPECT_TRUE(c.full(8));

    // Group pad waste: smallest bucket fitting the packed total.
    EXPECT_EQ(c.padRows(4), 0);
    EXPECT_EQ(c.padRows(5), 3);
    EXPECT_EQ(c.padRows(9), -1);
}

TEST(Coalescer, WindowZeroOrNegativeDisables)
{
    EXPECT_FALSE(Coalescer({1, 4}, 0).enabled());
    EXPECT_FALSE(Coalescer({1, 4}, -5).enabled());
    EXPECT_EQ(Coalescer({1, 4}, -5).windowUs(), 0);
    EXPECT_TRUE(Coalescer({1, 4}, 1).enabled());
}

TEST(BoundedQueue, PopUntilTimesOutAndDelivers)
{
    BoundedQueue<int> q(4);
    auto t0 = std::chrono::steady_clock::now();
    int v = 0;
    EXPECT_FALSE(q.popUntil(
        v, t0 + std::chrono::milliseconds(20)));
    EXPECT_GE(std::chrono::steady_clock::now() - t0,
              std::chrono::milliseconds(20));

    ASSERT_TRUE(q.tryPush(42));
    EXPECT_TRUE(q.popUntil(v, std::chrono::steady_clock::now() +
                                  std::chrono::milliseconds(20)));
    EXPECT_EQ(v, 42);

    q.close();
    EXPECT_FALSE(q.popUntil(v, std::chrono::steady_clock::now() +
                                   std::chrono::hours(1)))
        << "closed + drained must not wait out the deadline";
}

// ---- Continuous batching (coalesced runs) ----------------------------

/** A window long enough that requests submitted microseconds apart
 *  always land in one group, short enough that a hung test fails
 *  fast. */
constexpr int64_t kTestWindowUs = 400000; // 400 ms

TEST(Coalescing, BurstOfSinglesSharesRunsBitExactFp32)
{
    auto store = std::make_shared<ParamStore>();
    auto factory = [&](int64_t b) { return mlpModel(b, store.get()); };

    ServeOptions ref;
    ref.buckets = {1, 4, 8};
    ref.workers = 1; // coalesceWindowUs = 0: the per-request path
    ServingEngine solo(factory, store, ref);

    ServeOptions co = ref;
    co.coalesceWindowUs = kTestWindowUs;
    ServingEngine engine(factory, store, co);

    Rng r(41);
    std::vector<Tensor> xs;
    for (int i = 0; i < 8; ++i)
        xs.push_back(randomRows(1, r));

    // Reference outputs through the per-request engine (itself
    // bit-identical to serial padded runs — proven above).
    std::vector<Tensor> want;
    for (const Tensor &x : xs)
        want.push_back(solo.wait(solo.submit({{"x", x}}))[0]);

    std::vector<ServingEngine::RequestId> ids;
    for (const Tensor &x : xs)
        ids.push_back(engine.submit({{"x", x}}));
    for (size_t i = 0; i < ids.size(); ++i)
        expectBitEqual(engine.wait(ids[i])[0], want[i],
                       "coalesced single " + std::to_string(i));

    ServeStats s = engine.stats();
    EXPECT_EQ(s.completed, 8);
    EXPECT_LT(s.runs, s.completed)
        << "a burst of singles must share bucket runs";
    EXPECT_GE(s.coalescedRuns, 1);
    EXPECT_GT(s.coalescedRequests, s.coalescedRuns);
    EXPECT_GT(s.coalesceRate, 0.0);
    ServeStats solo_s = solo.stats();
    EXPECT_EQ(solo_s.runs, solo_s.completed)
        << "window 0 must run every request alone";
    EXPECT_EQ(solo_s.coalescedRuns, 0);
}

TEST(Coalescing, Int8GroupMatchesIndependentPaddedRuns)
{
    auto store = std::make_shared<ParamStore>();
    auto factory = [&](int64_t b) { return mlpModel(b, store.get()); };

    ServeOptions ref;
    ref.buckets = {4};
    ref.workers = 1;
    ref.compile.precision = Precision::Int8;
    {
        Rng crng(53);
        for (int i = 0; i < 2; ++i)
            ref.calibration.push_back({{"x", randomRows(4, crng)}});
    }
    ServingEngine solo(factory, store, ref);

    ServeOptions co = ref;
    co.coalesceWindowUs = kTestWindowUs;
    ServingEngine engine(factory, store, co);
    EXPECT_EQ(engine.bucketReport(4).precision, Precision::Int8);

    Rng r(59);
    std::vector<Tensor> xs;
    for (int i = 0; i < 4; ++i)
        xs.push_back(randomRows(1 + i % 2, r));

    std::vector<Tensor> want;
    for (const Tensor &x : xs)
        want.push_back(solo.wait(solo.submit({{"x", x}}))[0]);

    std::vector<ServingEngine::RequestId> ids;
    for (const Tensor &x : xs)
        ids.push_back(engine.submit({{"x", x}}));
    for (size_t i = 0; i < ids.size(); ++i)
        expectBitEqual(engine.wait(ids[i])[0], want[i],
                       "int8 coalesced " + std::to_string(i));

    ServeStats s = engine.stats();
    EXPECT_EQ(s.completed, 4);
    EXPECT_LT(s.runs, s.completed)
        << "int8 groups must share bucket runs too";
}

TEST(Coalescing, MixedRowGroupSharesOneBucketRunAndDropsPadWaste)
{
    // Satellite: a 3-row request next to a 1-row request must share
    // one bucket-4 run (0 pad rows) instead of a padded bucket-4 run
    // plus a bucket-1 run (1 pad row) — group-aware bucket selection
    // covers multi-row requests, not just singles.
    auto store = std::make_shared<ParamStore>();
    auto factory = [&](int64_t b) { return mlpModel(b, store.get()); };

    ServeOptions ref;
    ref.buckets = {1, 4};
    ref.workers = 1;
    ServingEngine solo(factory, store, ref);

    ServeOptions co = ref;
    co.coalesceWindowUs = kTestWindowUs;
    ServingEngine engine(factory, store, co);

    Rng r(61);
    Tensor x3 = randomRows(3, r);
    Tensor x1 = randomRows(1, r);

    Tensor want3 = solo.wait(solo.submit({{"x", x3}}))[0];
    Tensor want1 = solo.wait(solo.submit({{"x", x1}}))[0];
    ServeStats solo_s = solo.stats();
    EXPECT_EQ(solo_s.runs, 2);
    int64_t soloPad = 0;
    for (const auto &b : solo_s.buckets)
        soloPad += b.paddedRows;
    EXPECT_EQ(soloPad, 1) << "per-request routing pads 3 -> 4";

    auto id3 = engine.submit({{"x", x3}});
    auto id1 = engine.submit({{"x", x1}});
    expectBitEqual(engine.wait(id3)[0], want3, "3-row member");
    expectBitEqual(engine.wait(id1)[0], want1, "1-row member");

    ServeStats s = engine.stats();
    EXPECT_EQ(s.completed, 2);
    EXPECT_EQ(s.runs, 1) << "3+1 rows must share one bucket-4 run";
    EXPECT_EQ(s.coalescedRuns, 1);
    EXPECT_EQ(s.coalescedRequests, 2);
    int64_t pad = 0;
    for (const auto &b : s.buckets)
        pad += b.paddedRows;
    EXPECT_EQ(pad, 0) << "the packed group exactly fills bucket 4";
    EXPECT_LT(pad, soloPad)
        << "group-aware routing must beat per-request pad waste";
    ASSERT_EQ(s.buckets.size(), 2u);
    EXPECT_EQ(s.buckets[1].batch, 4);
    EXPECT_EQ(s.buckets[1].hits, 2)
        << "both members served by the bucket-4 plan";
    EXPECT_EQ(s.buckets[1].runs, 1);
}

TEST(Coalescing, DeadlineExpirySendsALoneRequestOutAlone)
{
    auto store = std::make_shared<ParamStore>();
    ServeOptions so;
    so.buckets = {1, 4};
    so.workers = 1;
    so.coalesceWindowUs = 5000; // 5 ms: expires fast, still real
    ServingEngine engine(
        [&](int64_t b) { return mlpModel(b, store.get()); }, store, so);

    Rng r(67);
    Tensor x = randomRows(1, r);
    auto t0 = std::chrono::steady_clock::now();
    Tensor out = engine.wait(engine.submit({{"x", x}}))[0];
    EXPECT_EQ(out.shape()[0], 1);
    EXPECT_LT(std::chrono::steady_clock::now() - t0,
              std::chrono::seconds(5))
        << "a lone request must not wait past the window";

    ServeStats s = engine.stats();
    EXPECT_EQ(s.completed, 1);
    EXPECT_EQ(s.runs, 1);
    EXPECT_EQ(s.coalescedRuns, 0);
    EXPECT_EQ(s.coalescedRequests, 0);
    ASSERT_EQ(s.buckets.size(), 2u);
    EXPECT_EQ(s.buckets[0].batch, 1);
    EXPECT_EQ(s.buckets[0].hits, 1)
        << "an expired window must fall back to per-request routing";
    EXPECT_EQ(s.buckets[0].paddedRows, 0);
}

TEST(Coalescing, NonBatchLeadingOutputRunsAloneAndComesBackWhole)
{
    // The second output's leading dim is a feature dim, not the
    // batch: it cannot be sliced per request, so the engine must keep
    // every request solo even with the window open and return that
    // output whole — byte-equal to an explicitly padded serial run.
    auto store = std::make_shared<ParamStore>();
    auto factory = [&](int64_t batch) {
        Graph g;
        Rng rng(3);
        NetBuilder b(g, rng, store.get());
        int x = b.input({batch, 8}, "x");
        int y = b.linear(x, 3, "proj");
        int yt = b.permute(y, {1, 0});
        return ServedModel{std::move(g), {y, yt}};
    };
    ServeOptions so;
    so.buckets = {4};
    so.coalesceWindowUs = 20000;
    ServingEngine engine(factory, store, so);

    ServedModel m4 = factory(4);
    CompileOptions opt;
    auto prog4 = compileInference(m4.graph, m4.outputs, opt, store);

    Rng r(73);
    std::vector<Tensor> xs;
    std::vector<ServingEngine::RequestId> ids;
    for (int i = 0; i < 4; ++i) {
        xs.push_back(randomRows(1, r));
        ids.push_back(engine.submit({{"x", xs.back()}}));
    }
    for (int i = 0; i < 4; ++i) {
        std::vector<Tensor> got = engine.wait(ids[i]);
        std::vector<Tensor> full = prog4.run({{"x", padRows(xs[i], 4)}});
        ASSERT_EQ(got.size(), 2u);
        EXPECT_EQ(got[0].shape(), (Shape{1, 3}));
        EXPECT_EQ(got[1].shape(), (Shape{3, 4}))
            << "a non-batch-leading output must come back whole";
        Tensor row0({1, 3});
        std::memcpy(row0.data(), full[0].data(), sizeof(float) * 3);
        expectBitEqual(got[0], row0, "sliced output " + std::to_string(i));
        expectBitEqual(got[1], full[1],
                       "whole output " + std::to_string(i));
    }

    ServeStats s = engine.stats();
    EXPECT_EQ(s.runs, 4) << "non-coalescable requests always run alone";
    EXPECT_EQ(s.coalescedRuns, 0);
}

TEST(Coalescing, WindowZeroReproducesPerRequestServingExactly)
{
    auto store = std::make_shared<ParamStore>();
    ServeOptions so;
    so.buckets = {2, 5};
    so.workers = 2;
    so.coalesceWindowUs = 0;
    ServingEngine engine(
        [&](int64_t b) { return mlpModel(b, store.get()); }, store, so);

    CompileOptions opt;
    ServedModel m2 = mlpModel(2, store.get());
    ServedModel m5 = mlpModel(5, store.get());
    auto prog2 = compileInference(m2.graph, m2.outputs, opt, store);
    auto prog5 = compileInference(m5.graph, m5.outputs, opt, store);

    Rng r(71);
    int64_t wantPad = 0;
    for (int i = 0; i < 12; ++i) {
        int64_t rows = 1 + i % 5;
        int64_t bucket = rows <= 2 ? 2 : 5;
        wantPad += bucket - rows;
        Tensor x = randomRows(rows, r);
        InferenceProgram &prog = bucket == 2 ? prog2 : prog5;
        Tensor full = prog.run({{"x", padRows(x, bucket)}})[0];
        Shape ss = full.shape();
        ss[0] = rows;
        Tensor expect(ss);
        std::memcpy(expect.data(), full.data(),
                    sizeof(float) * expect.size());
        expectBitEqual(engine.wait(engine.submit({{"x", x}}))[0],
                       expect, "window-0 request " + std::to_string(i));
    }

    ServeStats s = engine.stats();
    EXPECT_EQ(s.completed, 12);
    EXPECT_EQ(s.runs, 12) << "window 0: one run per request, always";
    EXPECT_EQ(s.coalescedRuns, 0);
    EXPECT_EQ(s.coalescedRequests, 0);
    EXPECT_EQ(s.coalesceRate, 0.0);
    int64_t pad = 0, hits = 0;
    for (const auto &b : s.buckets) {
        pad += b.paddedRows;
        hits += b.hits;
        EXPECT_EQ(b.hits, b.runs) << "per-request: hits == runs";
    }
    EXPECT_EQ(pad, wantPad) << "exact per-request pad accounting";
    EXPECT_EQ(hits, 12);
}

TEST(Coalescing, StressFourWorkersSixtyFourMixedRequestsBitExact)
{
    // The acceptance stress: 4 workers x 64 mixed-shape requests with
    // coalescing ON, bit-exact per request vs the per-request engine
    // (TSan vets this same test in CI's -L serve pass).
    auto store = std::make_shared<ParamStore>();
    auto factory = [&](int64_t b) { return mlpModel(b, store.get()); };

    ServeOptions ref;
    ref.buckets = {2, 5};
    ref.workers = 4;
    ref.queueCapacity = 64;
    ServingEngine solo(factory, store, ref);

    ServeOptions co = ref;
    co.coalesceWindowUs = 2000; // short: stress scheduling, not time
    ServingEngine engine(factory, store, co);

    constexpr int kThreads = 4, kPer = 16;
    struct Sent {
        Tensor x;
        ServingEngine::RequestId id;
    };
    std::vector<std::vector<Sent>> sent(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            Rng r(2000 + t);
            for (int i = 0; i < kPer; ++i) {
                int64_t rows =
                    1 + static_cast<int64_t>(r.randint(5)); // 1..5
                Tensor x = randomRows(rows, r);
                auto id = engine.submit({{"x", x.clone()}});
                sent[t].push_back({std::move(x), id});
            }
        });
    }
    for (auto &t : threads)
        t.join();

    for (int t = 0; t < kThreads; ++t) {
        for (size_t i = 0; i < sent[t].size(); ++i) {
            const Sent &req = sent[t][i];
            Tensor want =
                solo.wait(solo.submit({{"x", req.x}}))[0];
            expectBitEqual(engine.wait(req.id)[0], want,
                           "stress thread " + std::to_string(t) +
                               " request " + std::to_string(i));
        }
    }

    ServeStats s = engine.stats();
    EXPECT_EQ(s.completed, kThreads * kPer);
    EXPECT_EQ(s.failed, 0);
    EXPECT_LE(s.runs, s.completed)
        << "coalescing must never run MORE than per-request";
    int64_t hits = 0;
    for (const auto &b : s.buckets)
        hits += b.hits;
    EXPECT_EQ(hits, kThreads * kPer)
        << "every request is served by exactly one bucket plan";
    EXPECT_EQ(s.coalescedRequests >= 2 * s.coalescedRuns,
              s.coalescedRuns >= 0);
    EXPECT_FALSE(s.summary().empty());
}

// ---- Bounded latency reservoir ---------------------------------------

TEST(Serving, LatencyReservoirStaysBoundedUnderSustainedTraffic)
{
    // Satellite: the per-request latency window must be O(1) in
    // memory no matter how many requests the engine serves (the old
    // deque grew per request under sustained traffic).
    auto store = std::make_shared<ParamStore>();
    ServeOptions so;
    so.buckets = {4};
    so.workers = 2;
    so.queueCapacity = 256;
    so.coalesceWindowUs = 200; // keep the 10k burst fast
    ServingEngine engine(
        [&](int64_t batch) {
            Graph g;
            Rng rng(1);
            NetBuilder b(g, rng, store.get());
            int x = b.input({batch, 4}, "x");
            int out = b.linear(x, 2, "w");
            return ServedModel{std::move(g), {out}};
        },
        store, so);

    constexpr int kTotal = 10000, kChunk = 250;
    Rng r(73);
    Tensor x = Tensor::randn({1, 4}, r);
    for (int done = 0; done < kTotal; done += kChunk) {
        std::vector<ServingEngine::RequestId> ids;
        ids.reserve(kChunk);
        for (int i = 0; i < kChunk; ++i)
            ids.push_back(engine.submit({{"x", x}}));
        for (auto id : ids)
            engine.wait(id);
    }

    ServeStats s = engine.stats();
    EXPECT_EQ(s.completed, kTotal);
    EXPECT_LE(s.latencySamples,
              static_cast<int64_t>(
                  ServingEngine::kLatencyReservoirCap))
        << "latency memory must stay bounded after 10k requests";
    EXPECT_GT(s.latencySamples, 0);
    EXPECT_GT(s.p50LatencyUs, 0.0);
    EXPECT_GE(s.p99LatencyUs, s.p50LatencyUs)
        << "percentiles must stay stable over the sliding window";
}

} // namespace
} // namespace pe
