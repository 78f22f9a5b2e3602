#include "serve/serving.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <unordered_set>

#include "obs/chrome.h"
#include "obs/trace.h"
#include "plan/plan.h"
#include "runtime/planner.h"

namespace pe {

namespace {

/** One member's rows [@p off, @p off + @p rows) of a bucket output.
 *  An output whose leading dim is not the bucket batch (scalars,
 *  reductions) comes back whole — such models are non-coalescable, so
 *  the member ran alone — and a member filling the bucket takes the
 *  tensor without a copy; in both cases the caller's tensor is spent. */
Tensor
sliceRows(Tensor &full, int64_t batch, int64_t off, int64_t rows)
{
    if (full.shape().empty() || full.shape()[0] != batch ||
        rows == batch)
        return std::move(full);
    Shape s = full.shape();
    s[0] = rows;
    Tensor out(s);
    int64_t rowElems = full.size() / batch;
    std::memcpy(out.data(), full.data() + off * rowElems,
                sizeof(float) * out.size());
    return out;
}

/** Fit a calibration tensor to a bucket's batch: zero-pad the rows up
 *  (exactly what the serving bind does to real traffic, so calibration
 *  sees representative pad statistics) or truncate them down. */
Tensor
fitRows(const Tensor &t, int64_t batch)
{
    if (t.shape().empty() || t.shape()[0] <= 0)
        throw std::invalid_argument(
            "ServingEngine: calibration batch has no rows");
    if (t.shape()[0] == batch)
        return t;
    Shape s = t.shape();
    int64_t rows = std::min(s[0], batch);
    int64_t row_elems = numel(s) / s[0];
    s[0] = batch;
    Tensor out(s); // zero-initialized: pad rows stay zero
    std::memcpy(out.data(), t.data(),
                sizeof(float) * static_cast<size_t>(rows * row_elems));
    return out;
}

} // namespace

namespace {

/** Shared throw helper for the ServeOptions setters: the message
 *  always names the offending field (the builder-setter contract). */
[[noreturn]] void
badServeField(const char *field, const std::string &why)
{
    throw std::invalid_argument(std::string("ServeOptions::") + field +
                                ": " + why);
}

std::vector<int64_t>
checkedBuckets(const char *field, std::vector<int64_t> b)
{
    if (b.empty())
        badServeField(field, "bucket list is empty");
    for (int64_t v : b) {
        if (v < 1)
            badServeField(field, "bucket size " + std::to_string(v) +
                                     " is < 1");
    }
    return b;
}

/** The setters' checks over a whole options struct, so a field
 *  assigned directly fails exactly as its setter would. */
ServeOptions
validated(ServeOptions o)
{
    o.withBuckets(o.buckets)
        .withDecodeBuckets(o.decodeBuckets)
        .withWorkers(o.workers)
        .withCoalesceWindow(o.coalesceWindowUs)
        .withQueueCapacity(o.queueCapacity);
    return o;
}

} // namespace

ServeOptions &
ServeOptions::withBuckets(std::vector<int64_t> b)
{
    buckets = checkedBuckets("buckets", std::move(b));
    return *this;
}

ServeOptions &
ServeOptions::withDecodeBuckets(std::vector<int64_t> b)
{
    decodeBuckets = checkedBuckets("decodeBuckets", std::move(b));
    return *this;
}

ServeOptions &
ServeOptions::withWorkers(int n)
{
    if (n < 1)
        badServeField("workers", std::to_string(n) + " is < 1");
    workers = n;
    return *this;
}

ServeOptions &
ServeOptions::withCoalesceWindow(int64_t us)
{
    if (us < 0)
        badServeField("coalesceWindowUs",
                      std::to_string(us) + " is negative (0 disables)");
    coalesceWindowUs = us;
    return *this;
}

ServeOptions &
ServeOptions::withQueueCapacity(size_t n)
{
    if (n == 0)
        badServeField("queueCapacity", "0 (must hold >= 1 request)");
    queueCapacity = n;
    return *this;
}

std::string
ServeStats::summary() const
{
    char buf[512];
    std::string out;
    std::snprintf(buf, sizeof(buf),
                  "serving: %lld done / %lld submitted | "
                  "%lld failed | %.1f req/s\n",
                  static_cast<long long>(completed),
                  static_cast<long long>(submitted),
                  static_cast<long long>(failed), throughputRps);
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  "latency: p50 %.0fus p99 %.0fus (%lld samples) | "
                  "amortized run %.1fus/req\n",
                  p50LatencyUs, p99LatencyUs,
                  static_cast<long long>(latencySamples),
                  amortizedRunUs);
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  "runs: %lld (%lld shared, rate %.2f) | "
                  "queue depth %lld (max %lld) | sessions %lld\n",
                  static_cast<long long>(runs),
                  static_cast<long long>(coalescedRuns), coalesceRate,
                  static_cast<long long>(queueDepth),
                  static_cast<long long>(maxQueueDepth),
                  static_cast<long long>(sessionsCreated));
    out += buf;
    std::snprintf(buf, sizeof(buf), "%-8s %10s %10s %10s %10s  %s\n",
                  "bucket", "hits", "runs", "pad rows", "run ms",
                  "tier");
    out += buf;
    if (streamsOpened > 0) {
        std::snprintf(buf, sizeof(buf),
                      "streams: %lld opened | %lld prefills, "
                      "%lld decode steps | cache %lld bytes copied\n",
                      static_cast<long long>(streamsOpened),
                      static_cast<long long>(prefills),
                      static_cast<long long>(decodeSteps),
                      static_cast<long long>(cacheBytesCopied));
        out += buf;
    }
    for (const BucketStats &b : buckets) {
        std::string label =
            (b.decode ? "d" : "b") + std::to_string(b.batch);
        std::snprintf(buf, sizeof(buf),
                      "%-8s %10lld %10lld %10lld %10.2f  %s\n",
                      label.c_str(), static_cast<long long>(b.hits),
                      static_cast<long long>(b.runs),
                      static_cast<long long>(b.paddedRows),
                      b.runNs / 1e6, b.tier.c_str());
        out += buf;
    }
    return out;
}

std::string
ServeStats::json() const
{
    // Room for every field at its widest (%lld 20, %.17g 24 chars).
    char buf[1024];
    std::snprintf(
        buf, sizeof(buf),
        "{\"submitted\":%lld,\"completed\":%lld,\"failed\":%lld,"
        "\"queue_depth\":%lld,"
        "\"queue_depth_max\":%lld,\"sessions_created\":%lld,"
        "\"runs\":%lld,\"coalesced_runs\":%lld,"
        "\"coalesced_requests\":%lld,\"coalesce_rate\":%.17g,"
        "\"streams_opened\":%lld,\"prefills\":%lld,"
        "\"decode_steps\":%lld,\"cache_bytes_copied\":%lld,"
        "\"amortized_run_us\":%.17g,\"latency_samples\":%lld,"
        "\"p50_latency_us\":%.17g,\"p99_latency_us\":%.17g,"
        "\"throughput_rps\":%.17g,\"elapsed_seconds\":%.17g,"
        "\"buckets\":[",
        static_cast<long long>(submitted),
        static_cast<long long>(completed),
        static_cast<long long>(failed),
        static_cast<long long>(queueDepth),
        static_cast<long long>(maxQueueDepth),
        static_cast<long long>(sessionsCreated),
        static_cast<long long>(runs),
        static_cast<long long>(coalescedRuns),
        static_cast<long long>(coalescedRequests), coalesceRate,
        static_cast<long long>(streamsOpened),
        static_cast<long long>(prefills),
        static_cast<long long>(decodeSteps),
        static_cast<long long>(cacheBytesCopied), amortizedRunUs,
        static_cast<long long>(latencySamples), p50LatencyUs,
        p99LatencyUs, throughputRps, elapsedSeconds);
    std::string out = buf;
    for (size_t i = 0; i < buckets.size(); ++i) {
        const BucketStats &b = buckets[i];
        if (i)
            out += ",";
        std::snprintf(buf, sizeof(buf),
                      "{\"batch\":%lld,\"decode\":%d,"
                      "\"hits\":%lld,\"runs\":%lld,"
                      "\"padded_rows\":%lld,\"run_ns\":%lld,"
                      "\"tier\":\"%s\",\"latency_hist_us\":[",
                      static_cast<long long>(b.batch),
                      b.decode ? 1 : 0,
                      static_cast<long long>(b.hits),
                      static_cast<long long>(b.runs),
                      static_cast<long long>(b.paddedRows),
                      static_cast<long long>(b.runNs),
                      b.tier.c_str());
        out += buf;
        for (size_t j = 0; j < b.latencyHistUs.size(); ++j) {
            if (j)
                out += ",";
            out += std::to_string(b.latencyHistUs[j]);
        }
        out += "]}";
    }
    out += "]}";
    return out;
}

ServingEngine::ServingEngine(const ModelFactory &model,
                             std::shared_ptr<ParamStore> store,
                             ServeOptions options)
    : store_(store ? std::move(store) : std::make_shared<ParamStore>()),
      options_(validated(std::move(options))),
      queue_(options_.queueCapacity)
{
    // Sessions execute serially inside; concurrency comes from
    // running `workers` sessions at once (see file comment).
    options_.compile.numThreads = 1;

    coalescer_ = Coalescer(options_.buckets, options_.coalesceWindowUs);

    // One compiled plan per (precision, shape bucket). Every bucket
    // binds the same frozen ParamStore; the factory must name
    // parameters batch-independently (true of NetBuilder and the
    // model zoo). With ServeOptions::planDir set the plans come from
    // disk instead — the factory is never invoked and the snapshot
    // below proves no compile pipeline stage ran.
    const bool from_plans = !options_.planDir.empty();
    PipelineCounters before = pipelineCounters();
    for (int64_t batch : coalescer_.batches())
        buckets_.push_back(buildBucket(model, batch, false));
    prefillBuckets_ = buckets_.size();

    // Generative engines append the decode domain: one single-token
    // plan per stream-count bucket, built by the decode factory.
    generative_ = static_cast<bool>(options_.decodeFactory);
    if (generative_) {
        decodeCoalescer_ = Coalescer(options_.decodeBuckets,
                                     options_.coalesceWindowUs);
        for (int64_t batch : decodeCoalescer_.batches())
            buckets_.push_back(
                buildBucket(options_.decodeFactory, batch, true));
        resolveCacheTopology();
    }
    if (from_plans && pipelineCounters() != before)
        throw std::logic_error(
            "ServingEngine: a compile pipeline stage ran while "
            "serving from a plan directory — the zero-recompile "
            "contract is broken");

    // A shared run is sliceable per request only when every output
    // leads with the batch dim; a scalar/reduction output would mix
    // the group's rows. Checked once here so the worker hot path
    // carries a single bool.
    coalescable_ = true;
    for (const auto &b : buckets_) {
        for (int oid : b->cg.graph.outputs()) {
            const Shape &os = b->cg.graph.node(oid).shape;
            if (os.empty() || os[0] != b->batch)
                coalescable_ = false;
        }
    }

    sessions_.resize(static_cast<size_t>(options_.workers));
    for (auto &row : sessions_)
        row.resize(buckets_.size());
    if (options_.trace)
        lifecycle_ = std::make_unique<Ring<LifecycleRecord>>(
            options_.traceCapacity);

    start_ = std::chrono::steady_clock::now();

    // One plain thread per serving worker, each running workerLoop
    // until the queue closes and drains.
    try {
        for (int w = 0; w < options_.workers; ++w)
            threads_.emplace_back([this, w] { workerLoop(w); });
    } catch (...) {
        stopWorkers();
        throw;
    }
}

std::unique_ptr<ServingEngine::Bucket>
ServingEngine::buildBucket(const ModelFactory &model, int64_t batch,
                           bool decode)
{
    auto b = std::make_unique<Bucket>();
    b->batch = batch;
    b->decode = decode;
    if (!options_.planDir.empty()) {
        std::string path =
            options_.planDir + "/" +
            planFileName(options_.compile.precision, batch, decode);
        PlanData pd = deserializePlan(readPlanFile(path));
        if (pd.precision != options_.compile.precision)
            throw std::invalid_argument(
                "ServingEngine: plan '" + path +
                "' precision does not match ServeOptions");
        if (pd.artifact.numThreads != 1)
            throw std::invalid_argument(
                "ServingEngine: plan '" + path +
                "' was compiled at numThreads != 1; serving "
                "sessions are serial inside");
        std::vector<int> input_ids = pd.graph.inputIds();
        if (input_ids.empty() ||
            pd.graph.node(input_ids[0]).shape.empty() ||
            pd.graph.node(input_ids[0]).shape[0] != batch)
            throw std::invalid_argument(
                "ServingEngine: plan '" + path +
                "' batch does not match bucket " +
                std::to_string(batch));
        // All bucket plans freeze the same weights, so repeated
        // sets write identical values.
        for (auto &[name, t] : pd.params)
            store_->set(name, std::move(t));
        b->cg.graph = std::move(pd.graph);
        b->cg.lossId = pd.lossId;
        b->cg.artifact = std::move(pd.artifact);
        b->cg.report = std::move(pd.report);
    } else {
        ServedModel m = model(batch);
        if (m.outputs.empty())
            throw std::invalid_argument(
                "ServingEngine: model factory produced no outputs");
        // Quantized buckets: stamp observed ranges before the
        // QuantizePass consumes them. Feeds are fitted to this
        // bucket's batch (zero-pad up / truncate down), matching
        // the padding real traffic gets.
        if (options_.compile.precision != Precision::F32 &&
            !options_.calibration.empty()) {
            std::vector<std::unordered_map<std::string, Tensor>>
                fitted;
            fitted.reserve(options_.calibration.size());
            for (const auto &feeds : options_.calibration) {
                std::unordered_map<std::string, Tensor> fit;
                for (const auto &[name, t] : feeds) {
                    // One calibration map serves both generative
                    // domains: feeds naming Inputs this bucket's
                    // graph lacks (pos/mask on the prefill side)
                    // are dropped, not rejected.
                    bool known = false;
                    for (int id : m.graph.inputIds())
                        if (m.graph.node(id).name == name) {
                            known = true;
                            break;
                        }
                    if (known)
                        fit.emplace(name, fitRows(t, batch));
                }
                fitted.push_back(std::move(fit));
            }
            calibrate(m.graph, *store_, fitted);
        }
        b->cg = compileInferenceGraph(m.graph, m.outputs,
                                      options_.compile, store_);
    }
    // Both branches bind the same way; the executor takes the
    // artifact, so b->cg keeps the graph and report only.
    b->exec = std::make_unique<Executor>(b->cg.graph,
                                         std::move(b->cg.artifact), *store_);
    b->cg.report.recordBinding(*b->exec);
    return b;
}

void
ServingEngine::resolveCacheTopology()
{
    // Collect every bucket's CacheWrite values, sorted by name — the
    // name is the prefill <-> decode correspondence key, so it must
    // be present and unique within each graph.
    for (auto &b : buckets_) {
        const Graph &g = b->cg.graph;
        for (const Node &n : g.nodes()) {
            if (n.op != OpKind::CacheWrite)
                continue;
            if (n.name.empty())
                throw std::invalid_argument(
                    "ServingEngine: unnamed CacheWrite node in " +
                    std::string(b->decode ? "decode" : "prefill") +
                    " bucket " + std::to_string(b->batch) +
                    " — cache values correspond by name");
            CacheNodeRef ref;
            ref.name = n.name;
            ref.id = n.id;
            ref.maxSeq = n.attrs.getInt("maxSeq");
            ref.dim = n.shape.back();
            // One slot per stream row in a decode graph; a prefill
            // writes the one slot of its stream.
            if (n.shape[0] != (b->decode ? b->batch : 1))
                throw std::invalid_argument(
                    "ServingEngine: " +
                    std::string(b->decode ? "decode" : "prefill") +
                    " cache " + n.name + " must be [" +
                    (b->decode ? "streams" : "1") + ", maxSeq, D]");
            b->cacheNodes.push_back(std::move(ref));
        }
        std::sort(b->cacheNodes.begin(), b->cacheNodes.end(),
                  [](const CacheNodeRef &a, const CacheNodeRef &c) {
                      return a.name < c.name;
                  });
        for (size_t i = 1; i < b->cacheNodes.size(); ++i) {
            if (b->cacheNodes[i].name == b->cacheNodes[i - 1].name)
                throw std::invalid_argument(
                    "ServingEngine: duplicate cache name " +
                    b->cacheNodes[i].name);
        }
        // Decode buckets carry the engine-owned pos and mask inputs.
        if (b->decode) {
            b->posInput = b->exec->inputId("pos");
            b->maskInput = b->exec->inputId("mask");
            if (b->posInput < 0 || b->maskInput < 0)
                throw std::invalid_argument(
                    "ServingEngine: decode model must declare 'pos' "
                    "and 'mask' inputs");
        }
    }

    // The canonical geometry comes from the first decode bucket;
    // every other generative bucket must agree name-for-name.
    const Bucket &canon = *buckets_[prefillBuckets_];
    if (canon.cacheNodes.empty())
        throw std::invalid_argument(
            "ServingEngine: decode factory produced no CacheWrite "
            "values — nothing persists between steps");
    cacheSpec_ = canon.cacheNodes;
    for (CacheNodeRef &c : cacheSpec_)
        c.id = -1; // geometry only; ids are graph-local
    maxSeq_ = cacheSpec_[0].maxSeq;
    for (const CacheNodeRef &c : cacheSpec_)
        cacheRowBytes_ += c.dim * static_cast<int64_t>(sizeof(float));
    for (const auto &b : buckets_) {
        if (b->cacheNodes.size() != cacheSpec_.size())
            throw std::invalid_argument(
                "ServingEngine: " +
                std::string(b->decode ? "decode" : "prefill") +
                " bucket " + std::to_string(b->batch) + " has " +
                std::to_string(b->cacheNodes.size()) + " cache values"
                ", expected " + std::to_string(cacheSpec_.size()));
        for (size_t i = 0; i < cacheSpec_.size(); ++i) {
            const CacheNodeRef &got = b->cacheNodes[i];
            const CacheNodeRef &want = cacheSpec_[i];
            if (got.name != want.name || got.maxSeq != want.maxSeq ||
                got.dim != want.dim)
                throw std::invalid_argument(
                    "ServingEngine: cache value " + got.name +
                    " of bucket " + std::to_string(b->batch) +
                    " does not match the decode graph's geometry "
                    "(name/maxSeq/D must pair up across graphs)");
            if (got.maxSeq != maxSeq_)
                throw std::invalid_argument(
                    "ServingEngine: all cache values must share one "
                    "maxSeq (the engine-written mask's width)");
        }
        // A prompt longer than the cache could never be written.
        if (!b->decode && b->batch > maxSeq_)
            throw std::invalid_argument(
                "ServingEngine: prompt bucket " +
                std::to_string(b->batch) + " exceeds maxSeq " +
                std::to_string(maxSeq_));
        // The decode mask is one row per stream, maxSeq wide.
        if (b->decode) {
            const Shape &ms = b->cg.graph.node(b->maskInput).shape;
            if (ms.size() != 2 || ms[0] != b->batch ||
                ms[1] != maxSeq_)
                throw std::invalid_argument(
                    "ServingEngine: decode 'mask' input must be "
                    "[streams, maxSeq]");
            const Shape &ps = b->cg.graph.node(b->posInput).shape;
            if (ps.size() != 2 || ps[0] != b->batch || ps[1] != 1)
                throw std::invalid_argument(
                    "ServingEngine: decode 'pos' input must be "
                    "[streams, 1]");
        }
    }
}

ServingEngine::~ServingEngine()
{
    stopWorkers();
}

void
ServingEngine::stopWorkers()
{
    // close() rejects new submissions but still delivers everything
    // already queued, so the workers drain in-flight work and exit.
    queue_.close();
    for (std::thread &t : threads_)
        t.join();
}

std::string
ServingEngine::planFileName(Precision p, int64_t batch, bool decode)
{
    return std::string(precisionName(p)) + (decode ? "_d" : "_b") +
           std::to_string(batch) + ".peplan";
}

void
ServingEngine::savePlans(const std::string &dir) const
{
    std::filesystem::create_directories(dir);
    for (const auto &b : buckets_) {
        std::string path =
            dir + "/" +
            planFileName(options_.compile.precision, b->batch,
                         b->decode);
        writePlanFile(path, serializePlan(b->cg.graph,
                                          b->exec->exportArtifact(),
                                          b->cg.report, *store_, "",
                                          b->cg.lossId));
    }
}

int
ServingEngine::bucketIndexFor(int64_t rows) const
{
    // buckets_ was built from the same normalized batch list the
    // coalescer holds, so policy indices ARE bucket indices.
    return coalescer_.routeSingle(rows);
}

int64_t
ServingEngine::bucketFor(int64_t rows) const
{
    int i = bucketIndexFor(rows);
    return i < 0 ? -1 : buckets_[i]->batch;
}

const CompileReport &
ServingEngine::bucketReport(int64_t batch) const
{
    for (const auto &b : buckets_) {
        if (b->batch == batch)
            return b->cg.report;
    }
    throw std::invalid_argument("ServingEngine: no bucket of batch " +
                                std::to_string(batch));
}

std::shared_ptr<ServingEngine::RequestState>
ServingEngine::makeRequest(
    std::unordered_map<std::string, Tensor> &feeds, bool decodeDomain)
{
    if (feeds.empty())
        throw std::invalid_argument("ServingEngine: empty feed set");
    int64_t rows = -1;
    for (const auto &[name, t] : feeds) {
        if (t.shape().empty())
            throw std::invalid_argument(
                "ServingEngine: scalar feed " + name +
                " has no row dimension");
        if (t.shape()[0] < 1)
            throw std::invalid_argument("ServingEngine: feed " + name +
                                        " has no rows");
        if (rows < 0)
            rows = t.shape()[0];
        else if (t.shape()[0] != rows)
            throw std::invalid_argument(
                "ServingEngine: feeds disagree on rows (" + name +
                ")");
    }

    int bucket = -1;
    if (decodeDomain) {
        int i = decodeCoalescer_.routeSingle(rows);
        if (i >= 0)
            bucket = static_cast<int>(prefillBuckets_) + i;
    } else {
        bucket = bucketIndexFor(rows);
    }
    if (bucket < 0)
        throw std::invalid_argument(
            "ServingEngine: request rows " + std::to_string(rows) +
            " exceed the largest bucket (" +
            std::to_string(decodeDomain
                               ? buckets_.back()->batch
                               : buckets_[prefillBuckets_ - 1]->batch) +
            ")");

    Bucket &bk = *buckets_[bucket];
    auto st = std::make_shared<RequestState>();
    st->bucket = bucket;
    st->rows = rows;
    st->feeds.reserve(feeds.size());
    for (auto &[name, t] : feeds) {
        int id = bk.exec->inputId(name);
        if (id < 0)
            throw std::invalid_argument(
                "ServingEngine: no input named " + name);
        const Shape &want = bk.cg.graph.node(id).shape;
        if (t.shape().size() != want.size() ||
            !std::equal(t.shape().begin() + 1, t.shape().end(),
                        want.begin() + 1))
            throw std::invalid_argument(
                "ServingEngine: feed " + name + " shape " +
                shapeToString(t.shape()) +
                " does not match input shape " + shapeToString(want) +
                " (rows may differ)");
        st->feeds.emplace_back(id, std::move(t));
    }
    // Sessions are reused across requests, so an unfed input would
    // silently read the PREVIOUS request's staging bytes (or warm-up
    // zeros on a cold session) — require full coverage instead. Feed
    // names are unique map keys and unknown names threw above, so
    // count equality means every compiled Input is bound. A decode
    // bucket's pos and mask are engine-owned: runGroup writes them.
    size_t want = bk.cg.graph.inputIds().size() - (bk.decode ? 2 : 0);
    if (st->feeds.size() != want)
        throw std::invalid_argument(
            "ServingEngine: request binds " +
            std::to_string(st->feeds.size()) + " of " +
            std::to_string(want) + " model inputs");
    st->id = nextId_.fetch_add(1, std::memory_order_relaxed);
    st->submitNs = traceNowNs();
    return st;
}

ServingEngine::RequestId
ServingEngine::enqueue(const std::shared_ptr<RequestState> &st)
{
    {
        std::lock_guard<std::mutex> lock(stateMu_);
        states_.emplace(st->id, st);
    }
    // Count the submission BEFORE the enqueue: a worker can pop and
    // complete the request before this thread runs another line, and
    // completed > submitted must never be observable.
    submitted_.fetch_add(1, std::memory_order_relaxed);
    if (!queue_.push(st)) {
        submitted_.fetch_sub(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(stateMu_);
        states_.erase(st->id);
        throw std::runtime_error("ServingEngine: engine is stopped");
    }
    int64_t depth = static_cast<int64_t>(queue_.size());
    int64_t prev = maxQueueDepth_.load(std::memory_order_relaxed);
    while (depth > prev &&
           !maxQueueDepth_.compare_exchange_weak(
               prev, depth, std::memory_order_relaxed)) {
    }
    return st->id;
}

ServingEngine::RequestId
ServingEngine::submit(std::unordered_map<std::string, Tensor> feeds)
{
    return enqueue(makeRequest(feeds));
}

// ---- generative stream API -------------------------------------------

void
ServingEngine::requireGenerative() const
{
    if (!generative_)
        throw std::logic_error(
            "ServingEngine: stream API requires "
            "ServeOptions::decodeFactory");
}

ServingEngine::StreamId
ServingEngine::openStream()
{
    requireGenerative();
    std::lock_guard<std::mutex> lock(streamMu_);
    StreamId id = nextStreamId_++;
    Stream s;
    s.cache.resize(cacheSpec_.size());
    streams_.emplace(id, std::move(s));
    streamsOpened_.fetch_add(1, std::memory_order_relaxed);
    return id;
}

void
ServingEngine::closeStream(StreamId id)
{
    requireGenerative();
    std::lock_guard<std::mutex> lock(streamMu_);
    auto it = streams_.find(id);
    if (it == streams_.end())
        throw std::out_of_range("ServingEngine: unknown stream " +
                                std::to_string(id));
    if (it->second.busy)
        throw std::runtime_error(
            "ServingEngine: stream " + std::to_string(id) +
            " has a request in flight; wait() it before closing");
    streams_.erase(it);
}

int64_t
ServingEngine::streamGeneration(StreamId id) const
{
    requireGenerative();
    std::lock_guard<std::mutex> lock(streamMu_);
    auto it = streams_.find(id);
    if (it == streams_.end())
        throw std::out_of_range("ServingEngine: unknown stream " +
                                std::to_string(id));
    return it->second.gen;
}

int64_t
ServingEngine::streamCacheBytes() const
{
    return maxSeq_ * cacheRowBytes_;
}

int64_t
ServingEngine::decodeBucketFor(int64_t streams) const
{
    requireGenerative();
    int i = decodeCoalescer_.routeSingle(streams);
    return i < 0 ? -1 : buckets_[prefillBuckets_ + i]->batch;
}

int64_t
ServingEngine::claimStream(StreamId id)
{
    std::lock_guard<std::mutex> lock(streamMu_);
    auto it = streams_.find(id);
    if (it == streams_.end())
        throw std::out_of_range("ServingEngine: unknown stream " +
                                std::to_string(id));
    if (it->second.busy)
        throw std::runtime_error("ServingEngine: stream " +
                                 std::to_string(id) +
                                 " already has a request in flight");
    it->second.busy = true;
    return it->second.gen;
}

void
ServingEngine::releaseStream(StreamId id)
{
    std::lock_guard<std::mutex> lock(streamMu_);
    auto it = streams_.find(id);
    if (it != streams_.end())
        it->second.busy = false;
}

ServingEngine::RequestId
ServingEngine::submitPrefill(
    StreamId stream, std::unordered_map<std::string, Tensor> feeds)
{
    requireGenerative();
    claimStream(stream);
    try {
        std::shared_ptr<RequestState> st = makeRequest(feeds, false);
        st->stream = stream;
        prefills_.fetch_add(1, std::memory_order_relaxed);
        return enqueue(st);
    } catch (...) {
        releaseStream(stream);
        throw;
    }
}

ServingEngine::RequestId
ServingEngine::submitDecode(
    StreamId stream, std::unordered_map<std::string, Tensor> feeds)
{
    requireGenerative();
    const int64_t gen = claimStream(stream);
    try {
        if (gen <= 0)
            throw std::runtime_error(
                "ServingEngine: stream " + std::to_string(stream) +
                " has no prefilled prompt to decode from");
        if (gen >= maxSeq_)
            throw std::runtime_error(
                "ServingEngine: stream " + std::to_string(stream) +
                " is at maxSeq capacity (" +
                std::to_string(maxSeq_) + ")");
        if (feeds.count("pos") || feeds.count("mask"))
            throw std::invalid_argument(
                "ServingEngine: 'pos' and 'mask' are written from "
                "the stream's generation — do not feed them");
        std::shared_ptr<RequestState> st = makeRequest(feeds, true);
        if (st->rows != 1)
            throw std::invalid_argument(
                "ServingEngine: a decode step feeds one row per stream");
        st->stream = stream;
        st->isDecode = true;
        st->gen = gen;
        decodeSteps_.fetch_add(1, std::memory_order_relaxed);
        return enqueue(st);
    } catch (...) {
        releaseStream(stream);
        throw;
    }
}

void
ServingEngine::workerLoop(int worker)
{
    std::shared_ptr<RequestState> leader;
    while (true) {
        // One worker gathers at a time; the lock is released before
        // runGroup, so runs still overlap. A pop that fails (shutdown)
        // releases it on the way out.
        std::unique_lock<std::mutex> gathering(gatherMu_);
        if (carry_) {
            leader = std::move(carry_);
        } else {
            if (!queue_.pop(leader))
                break;
            if (options_.trace)
                leader->dequeueNs = traceNowNs();
        }

        std::vector<std::shared_ptr<RequestState>> group;
        int64_t total = leader->rows;
        int bucketIdx = leader->bucket;
        const bool decodeDom = leader->isDecode;
        group.push_back(std::move(leader));

        // The one solo rule: on a generative engine a prompt-domain
        // request runs alone, because a prefill graph's rows
        // cross-attend (causal attention over the packed batch) and
        // packing two prompts would mix their tokens. It skips the
        // drain: waiting the window out could never buy it company.
        const bool solo = generative_ && !decodeDom;
        const Coalescer &co =
            decodeDom ? decodeCoalescer_ : coalescer_;
        if (coalescable_ && co.enabled() && !solo) {
            // Continuous batching: drain queued requests of the
            // leader's domain into this group until the largest
            // bucket is exactly full, the deadline window expires, or
            // an arrival does not fit. A lone request goes out alone
            // after at most windowUs. Row count is the whole
            // admission rule: decode steps at different generations
            // share a run, since each row carries its own pos, mask
            // and cache slot.
            auto deadline =
                std::chrono::steady_clock::now() +
                std::chrono::microseconds(co.windowUs());
            std::shared_ptr<RequestState> next;
            while (!co.full(total) &&
                   queue_.popUntil(next, deadline)) {
                if (options_.trace)
                    next->dequeueNs = traceNowNs();
                if (next->isDecode == decodeDom &&
                    co.admits(total, next->rows)) {
                    total += next->rows;
                    group.push_back(std::move(next));
                } else {
                    carry_ = std::move(next);
                    break;
                }
            }
            // The group routes to the smallest bucket fitting the
            // PACKED total — group pad waste, not per-request pad
            // waste (a 3-row + 1-row pair shares one bucket-4 run).
            if (group.size() > 1)
                bucketIdx =
                    (decodeDom ? static_cast<int>(prefillBuckets_)
                               : 0) +
                    co.routeSingle(total);
        }
        gathering.unlock();
        runGroup(worker, bucketIdx, group, total);
    }
}

void
ServingEngine::runGroup(
    int worker, int bucketIdx,
    std::vector<std::shared_ptr<RequestState>> &group,
    int64_t totalRows)
{
    Bucket &bk = *buckets_[bucketIdx];
    const bool tracing = options_.trace;
    // One id per plan execution, shared by every member: coalesced
    // request lanes carry the same run id into the Chrome export.
    const int64_t runId =
        runCounter_.fetch_add(1, std::memory_order_relaxed) + 1;
    int64_t bindNs = 0, runStartNs = 0, runEndNs = 0;
    int64_t runNs = 0;
    int64_t cacheBytes = 0;
    std::string error;

    // Any worker-path throw (first-bind validation, allocation
    // failure) is captured into every member and rethrown by their
    // wait()s — an uncaught exception here would std::terminate the
    // process and strand every waiter.
    try {
        // Session acquisition is lock-free by ownership: worker w is
        // the only thread that ever touches sessions_[w]. After one
        // request per (worker, bucket) pair the pool is warm and the
        // hot path performs no allocation besides result tensors.
        WorkerSession &ws = sessions_[worker][bucketIdx];
        if (!ws.ctx) {
            ws.ctx = bk.exec->makeContext();
            sessionsCreated_.fetch_add(1, std::memory_order_relaxed);
            // A fresh cache region is all zeros.
            if (bk.decode)
                ws.dirty.assign(static_cast<size_t>(bk.batch), 0);
            // Traced engines arm every session at mint time, so the
            // executor's kernel steps land inside the serving run
            // spans. Sessions are serial inside (numThreads = 1), so
            // shard spans would never appear — skip them.
            if (tracing)
                bk.exec->armTrace(*ws.ctx, options_.traceCapacity,
                                  /*shardSpans=*/false);
        }
        ExecContext &sess = *ws.ctx;
        if (tracing)
            bindNs = traceNowNs();

        // Pack each member's rows contiguously into the session's
        // staging buffers, then zero the pad tail once: a group of one
        // is the pad-to-bucket bind, and a larger group's buffer is
        // byte-identical to the concatenation of its members'
        // independently padded binds. Every copy goes through one
        // row view (Executor::rowsOf). Decode members also gather
        // their stream's rows [0, gen) into their slot of the
        // session's persistent cache region and re-zero the rows
        // [gen, dirty) an earlier run left there, so the slot ends up
        // byte-equal to a fresh serial session at the same generation
        // — the root of shared-vs-solo bit parity. Until this run
        // succeeds the slot counts as dirty to maxSeq. (Prefill skips
        // the gather: it rewrites rows [0, S) itself and nothing
        // beyond its prompt is fetched back.)
        const Executor &ex = *bk.exec;
        int64_t off = 0;
        for (const auto &st : group) {
            for (const auto &[id, t] : st->feeds)
                std::copy_n(t.data(), t.size(),
                            ex.rowsOf(sess, id, off, st->rows));
            if (st->isDecode) {
                const int64_t gen = st->gen;
                const int64_t stale = std::exchange(
                    ws.dirty[static_cast<size_t>(off)], maxSeq_);
                std::lock_guard<std::mutex> lk(streamMu_);
                const Stream &s = streams_.at(st->stream);
                for (size_t i = 0; i < bk.cacheNodes.size(); ++i) {
                    const int64_t d = bk.cacheNodes[i].dim;
                    float *slot = ex.rowsOf(sess, bk.cacheNodes[i].id,
                                            off, 1);
                    std::copy_n(s.cache[i].data(), gen * d, slot);
                    if (stale > gen)
                        std::fill(slot + gen * d, slot + stale * d, 0.0f);
                }
                cacheBytes += std::max(stale, gen) * cacheRowBytes_;
            }
            off += st->rows;
        }
        // Zero the pad tail of every fed Input.
        const Graph &g = bk.cg.graph;
        for (int id : g.inputIds()) {
            if (id == bk.posInput || id == bk.maskInput)
                continue;
            const Shape &s = g.node(id).shape;
            std::fill_n(ex.rowsOf(sess, id, totalRows, s[0] - totalRows),
                        (s[0] - totalRows) * (numel(s) / s[0]), 0.0f);
        }
        // Each decode row (one per member) writes its own pos, its
        // generation, and mask row, 0 through gen and kMaskedScore
        // after: deep enough that exp() underflows to exact 0.0f. A
        // pad row is a generation-0 row, so attention scans one
        // column for it, not maxSeq. A pad slot's run writes only its
        // cache row 0, so the slot stays dirty to where it was, or to
        // row 1.
        if (bk.decode) {
            for (int64_t r = 0; r < bk.batch; ++r) {
                const int64_t gen =
                    r < totalRows ? group[static_cast<size_t>(r)]->gen : 0;
                *ex.rowsOf(sess, bk.posInput, r, 1) =
                    static_cast<float>(gen);
                float *mask = ex.rowsOf(sess, bk.maskInput, r, 1);
                std::fill(mask, mask + gen + 1, 0.0f);
                std::fill(mask + gen + 1, mask + maxSeq_, kMaskedScore);
            }
            for (auto d = ws.dirty.begin() + totalRows; d != ws.dirty.end();
                 ++d)
                *d = std::max<int64_t>(*d, 1);
        }

        runStartNs = traceNowNs();
        bk.exec->run(sess);
        runEndNs = traceNowNs();
        runNs = runEndNs - runStartNs;

        // One fetch per output; each member slices its own rows back
        // out of the shared result.
        for (int oid : bk.cg.graph.outputs()) {
            Tensor full = bk.exec->fetch(sess, oid);
            off = 0;
            for (const auto &st : group) {
                st->outputs.push_back(
                    sliceRows(full, bk.batch, off, st->rows));
                off += st->rows;
            }
        }
        // Stream members copy the freshly written cache rows back
        // into their stream state and advance its generation, so the
        // NEXT submit on the stream (gated on the done flag below)
        // sees consistent state: a prefill's S prompt rows replace
        // the stream's rows (a re-prefill restarts it), and a decode
        // step's one row is appended straight out of its slot.
        off = 0;
        for (const auto &st : group) {
            if (st->stream != 0) {
                const int64_t row0 = st->isDecode ? st->gen : 0;
                const int64_t rows = st->isDecode ? 1 : st->rows;
                std::lock_guard<std::mutex> lk(streamMu_);
                auto sit = streams_.find(st->stream);
                if (sit != streams_.end()) {
                    Stream &s = sit->second;
                    for (size_t i = 0; i < bk.cacheNodes.size(); ++i) {
                        const CacheNodeRef &c = bk.cacheNodes[i];
                        std::vector<float> &dst = s.cache[i];
                        dst.resize(static_cast<size_t>((row0 + rows) *
                                                       c.dim));
                        std::copy_n(ex.rowsOf(sess, c.id, off, 1) +
                                        row0 * c.dim,
                                    rows * c.dim,
                                    dst.data() + row0 * c.dim);
                    }
                    cacheBytes += rows * cacheRowBytes_;
                    s.gen = row0 + rows;
                    s.busy = false;
                }
                if (st->isDecode)
                    ws.dirty[static_cast<size_t>(off)] = st->gen + 1;
            }
            off += st->rows;
        }
    } catch (const std::exception &e) {
        error = e.what();
    }

    if (cacheBytes > 0)
        cacheBytesCopied_.fetch_add(cacheBytes, std::memory_order_relaxed);
    if (!error.empty()) {
        // Failures stay out of completed/hits/latency: a failing
        // fleet must read as failing, not as healthy throughput. A
        // mid-group throw fails every member — none of them ran. A
        // failed stream request leaves the stream re-submittable
        // (cache state unchanged — the run never scattered back).
        for (const auto &st : group) {
            if (st->stream != 0)
                releaseStream(st->stream);
            st->outputs.clear();
            st->error = error;
        }
        failed_.fetch_add(static_cast<int64_t>(group.size()),
                          std::memory_order_relaxed);
    } else {
        bk.hits.fetch_add(static_cast<int64_t>(group.size()),
                          std::memory_order_relaxed);
        bk.runs.fetch_add(1, std::memory_order_relaxed);
        bk.paddedRows.fetch_add(bk.batch - totalRows,
                                std::memory_order_relaxed);
        runNanos_.fetch_add(runNs, std::memory_order_relaxed);
        bk.runNs.fetch_add(runNs, std::memory_order_relaxed);
        if (group.size() > 1) {
            coalescedRuns_.fetch_add(1, std::memory_order_relaxed);
            coalescedRequests_.fetch_add(
                static_cast<int64_t>(group.size()),
                std::memory_order_relaxed);
        }
        const int64_t nowNs = traceNowNs();
        {
            std::lock_guard<std::mutex> lock(statsMu_);
            for (const auto &st : group) {
                double us = (nowNs - st->submitNs) / 1e3;
                latenciesUs_.record(us);
                // log2 histogram bin: [2^b, 2^(b+1)) us, last open.
                int64_t v = static_cast<int64_t>(us);
                int bin = 0;
                while (v > 1 && bin < kLatencyHistBins - 1) {
                    v >>= 1;
                    ++bin;
                }
                bk.latHist[static_cast<size_t>(bin)].fetch_add(
                    1, std::memory_order_relaxed);
            }
        }
        completed_.fetch_add(static_cast<int64_t>(group.size()),
                             std::memory_order_relaxed);
        if (tracing) {
            LifecycleRecord r;
            r.bucketBatch = bk.batch;
            r.groupSize = static_cast<int>(group.size());
            r.worker = worker;
            r.runId = runId;
            r.tier = simdTierName(bk.exec->simdTier());
            r.bindNs = bindNs;
            r.runStartNs = runStartNs;
            r.runEndNs = runEndNs;
            r.doneNs = traceNowNs();
            std::lock_guard<std::mutex> lock(traceMu_);
            for (const auto &st : group) {
                r.id = st->id;
                r.rows = st->rows;
                r.enqueueNs = st->submitNs;
                r.dequeueNs = st->dequeueNs;
                r.stream = st->stream;
                r.gen = st->gen;
                lifecycle_->record(r);
            }
        }
    }
    {
        std::lock_guard<std::mutex> lock(doneMu_);
        for (const auto &st : group)
            st->done.store(true, std::memory_order_release);
    }
    doneCv_.notify_all();
    group.clear();
}

bool
ServingEngine::poll(RequestId id) const
{
    std::lock_guard<std::mutex> lock(stateMu_);
    auto it = states_.find(id);
    if (it == states_.end())
        throw std::out_of_range(
            "ServingEngine::poll: unknown or consumed request " +
            std::to_string(id));
    return it->second->done.load(std::memory_order_acquire);
}

std::vector<Tensor>
ServingEngine::wait(RequestId id)
{
    std::shared_ptr<RequestState> st;
    {
        // Consume the id atomically at entry: of two concurrent
        // waiters only one gets the state, the other throws — never
        // a racy double-move of the result tensors.
        std::lock_guard<std::mutex> lock(stateMu_);
        auto it = states_.find(id);
        if (it == states_.end())
            throw std::out_of_range(
                "ServingEngine::wait: unknown or consumed request " +
                std::to_string(id));
        st = std::move(it->second);
        states_.erase(it);
    }
    {
        std::unique_lock<std::mutex> lock(doneMu_);
        doneCv_.wait(lock, [&] {
            return st->done.load(std::memory_order_acquire);
        });
    }
    if (!st->error.empty())
        throw std::runtime_error("ServingEngine: request " +
                                 std::to_string(id) + " failed: " +
                                 st->error);
    return std::move(st->outputs);
}

ServeStats
ServingEngine::stats() const
{
    ServeStats s;
    s.submitted = submitted_.load(std::memory_order_relaxed);
    s.completed = completed_.load(std::memory_order_relaxed);
    s.failed = failed_.load(std::memory_order_relaxed);
    s.queueDepth = static_cast<int64_t>(queue_.size());
    s.maxQueueDepth = maxQueueDepth_.load(std::memory_order_relaxed);
    s.sessionsCreated = sessionsCreated_.load(std::memory_order_relaxed);
    s.coalescedRuns = coalescedRuns_.load(std::memory_order_relaxed);
    s.coalescedRequests =
        coalescedRequests_.load(std::memory_order_relaxed);
    s.streamsOpened = streamsOpened_.load(std::memory_order_relaxed);
    s.prefills = prefills_.load(std::memory_order_relaxed);
    s.decodeSteps = decodeSteps_.load(std::memory_order_relaxed);
    s.cacheBytesCopied = cacheBytesCopied_.load(std::memory_order_relaxed);
    for (const auto &b : buckets_) {
        BucketStats bs;
        bs.batch = b->batch;
        bs.decode = b->decode;
        bs.hits = b->hits.load(std::memory_order_relaxed);
        bs.runs = b->runs.load(std::memory_order_relaxed);
        bs.paddedRows = b->paddedRows.load(std::memory_order_relaxed);
        bs.runNs = b->runNs.load(std::memory_order_relaxed);
        bs.tier = simdTierName(b->exec->simdTier());
        bs.latencyHistUs.reserve(kLatencyHistBins);
        for (const auto &h : b->latHist)
            bs.latencyHistUs.push_back(
                h.load(std::memory_order_relaxed));
        s.runs += bs.runs;
        s.buckets.push_back(bs);
    }
    if (s.completed > 0) {
        s.coalesceRate = static_cast<double>(s.coalescedRequests) /
                         static_cast<double>(s.completed);
        s.amortizedRunUs =
            runNanos_.load(std::memory_order_relaxed) / 1e3 /
            static_cast<double>(s.completed);
    }
    // Copy the sample window under the lock, sort after releasing it:
    // workers take statsMu_ on every completion, and sorting the
    // reservoir under it would let a stats poll loop stall the very
    // path the engine keeps lock-free otherwise.
    std::vector<double> lat;
    {
        std::lock_guard<std::mutex> lock(statsMu_);
        lat = latenciesUs_.snapshot();
    }
    s.latencySamples = static_cast<int64_t>(lat.size());
    if (!lat.empty()) {
        std::sort(lat.begin(), lat.end());
        auto pct = [&](double p) {
            size_t i = static_cast<size_t>(p * (lat.size() - 1));
            return lat[i];
        };
        s.p50LatencyUs = pct(0.50);
        s.p99LatencyUs = pct(0.99);
    }
    s.elapsedSeconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start_)
                           .count();
    if (s.elapsedSeconds > 0)
        s.throughputRps = static_cast<double>(s.completed) /
                          s.elapsedSeconds;
    return s;
}

bool
ServingEngine::exportChromeTrace(const std::string &path) const
{
    ChromeTraceJson ct;
    ct.processName(1, "serving workers");
    ct.processName(2, "requests");
    for (int w = 0; w < options_.workers; ++w)
        ct.threadName(1, w, "worker " + std::to_string(w));

    std::vector<LifecycleRecord> recs;
    {
        std::lock_guard<std::mutex> lock(traceMu_);
        if (lifecycle_)
            recs = lifecycle_->snapshot();
    }

    // Request lanes (pid 2, one tid per request id): queued -> wait
    // -> run -> complete. Every member of a coalesced group carries
    // the SAME "run#<id>" span, so in the viewer N lanes converge
    // into the one worker-run that served them all.
    std::unordered_set<int64_t> runsEmitted;
    for (const LifecycleRecord &r : recs) {
        int64_t tid = static_cast<int64_t>(r.id);
        ct.threadName(2, tid, "req " + std::to_string(r.id));
        std::vector<std::pair<std::string, std::string>> args;
        args.emplace_back("rows", std::to_string(r.rows));
        ct.event("queued", 2, tid, r.enqueueNs,
                 r.dequeueNs - r.enqueueNs, args);
        if (r.runStartNs > r.dequeueNs)
            ct.event("wait", 2, tid, r.dequeueNs,
                     r.runStartNs - r.dequeueNs);
        std::string runName = "run#" + std::to_string(r.runId);
        std::vector<std::pair<std::string, std::string>> runArgs;
        runArgs.emplace_back("group_size",
                             std::to_string(r.groupSize));
        runArgs.emplace_back("bucket",
                             "b" + std::to_string(r.bucketBatch));
        runArgs.emplace_back("worker", std::to_string(r.worker));
        runArgs.emplace_back("tier", r.tier);
        // Decode-stream lanes: the viewer shows N "stream S @gen G"
        // lanes converging into one shared run per step.
        if (r.stream != 0) {
            runArgs.emplace_back("stream", std::to_string(r.stream));
            runArgs.emplace_back("gen", std::to_string(r.gen));
        }
        ct.event(runName, 2, tid, r.runStartNs,
                 r.runEndNs - r.runStartNs, runArgs);
        ct.event("complete", 2, tid, r.runEndNs,
                 r.doneNs - r.runEndNs);

        // Worker track (pid 1): one bind/run/slice triple per unique
        // run id, regardless of how many requests shared it.
        if (runsEmitted.insert(r.runId).second) {
            ct.event("bind " + std::string("b") +
                         std::to_string(r.bucketBatch),
                     1, r.worker, r.bindNs, r.runStartNs - r.bindNs);
            ct.event(runName + " b" + std::to_string(r.bucketBatch),
                     1, r.worker, r.runStartNs,
                     r.runEndNs - r.runStartNs, runArgs);
            ct.event("slice", 1, r.worker, r.runEndNs,
                     r.doneNs - r.runEndNs);
        }
    }

    // Executor step spans from the armed sessions nest inside the
    // worker-run spans above (same tracks, finer grain). Reading the
    // rings is only safe while the engine is quiescent — see the
    // header contract.
    for (int w = 0; w < options_.workers; ++w) {
        for (size_t b = 0; b < buckets_.size(); ++b) {
            const auto &sess = sessions_[w][b].ctx;
            const TraceBuffer *tb = sess ? sess->trace() : nullptr;
            if (!tb)
                continue;
            for (const TraceSpan &s : tb->snapshot()) {
                if (s.kind != SpanKind::Step)
                    continue;
                std::string name = s.op;
                if (s.variant && s.variant[0]) {
                    name += "/";
                    name += s.variant;
                }
                std::vector<std::pair<std::string, std::string>>
                    args;
                args.emplace_back("node", std::to_string(s.node));
                args.emplace_back(
                    "bucket",
                    "b" + std::to_string(buckets_[b]->batch));
                ct.event(name, 1, w, s.startNs, s.durNs, args);
            }
        }
    }
    return ct.save(path);
}

} // namespace pe
