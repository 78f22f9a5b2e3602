/**
 * @file
 * Concurrent serving runtime (the "heavy traffic" leg of the ROADMAP
 * north star).
 *
 * The paper compiles training/inference into a static plan so that
 * deployment-time execution makes no runtime decisions; the serving
 * layer exploits exactly that property. A ServingEngine compiles a
 * model ONCE per (precision, shape-bucket) into an immutable
 * CompiledPlan — graph, schedule, memory plan, kernel variants — over
 * one shared frozen ParamStore + const pool, and every in-flight
 * request executes that plan on a pooled per-session ExecContext
 * (private arena + input staging + bound kernel contexts). N requests
 * therefore run concurrently with zero cross-session allocation or
 * locking on the hot path: the only synchronization a request crosses
 * is the bounded MPMC admission queue on the way in and one
 * condition-variable signal on the way out.
 *
 * Shape buckets: requests whose leading (batch) dimension does not
 * match a compiled plan are padded up to the smallest bucket that
 * fits — amortizing compilation across request shapes exactly like
 * the paper amortizes planning across steps. Pad rows are zero-filled
 * and results are sliced back to the request's rows, so a padded
 * request returns byte-identical values to an explicitly zero-padded
 * serial run.
 *
 * Continuous batching (ServeOptions::coalesceWindowUs > 0): a worker
 * that dequeues a request first drains additional compatible queued
 * requests — any mix of row counts whose packed total still fits the
 * largest bucket — within the deadline window, packs their rows
 * contiguously into ONE session's staging buffers (the same
 * zero-pad/slice machinery as above, with the pad tail zeroed once
 * after the group), runs the group's bucket plan ONCE, and slices
 * each requester's rows back out. k compatible requests therefore
 * cost one bucket run instead of k, and the group routes to the
 * smallest bucket fitting the packed TOTAL, so group pad waste beats
 * per-request pad waste too (see src/serve/coalescer.h for the
 * policy). Outputs are byte-identical to the independently padded
 * serial runs coalescing replaces — the same row-independence the
 * pad-to-bucket path already relies on. Models with outputs whose
 * leading dim is not the batch (scalars, reductions) cannot be
 * sliced per request and always go out alone. coalesceWindowUs = 0
 * (the default) disables grouping and reproduces the per-request
 * path exactly.
 *
 * Concurrency model: `workers` serving workers, each a plain thread
 * running one loop over the admission queue; one worker at a time
 * gathers a group (pop, drain), then runs it while the next gathers.
 * Destruction closes the queue, lets the workers drain it, and joins
 * them. Each worker owns at most one session context per bucket,
 * minted lazily on first use and reused for every later request —
 * the session "pool" is therefore lock-free by ownership, bounded by
 * workers x buckets, and stops allocating once warm. Sessions execute
 * serially inside (numThreads = 1 per session); concurrency comes from
 * running many sessions at once, which is the right trade for
 * throughput-bound serving (and keeps per-request results
 * bit-identical to the serial executor).
 */

#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "serve/coalescer.h"
#include "serve/queue.h"

namespace pe {

/** What the engine serves: a forward graph + the output node ids,
 *  built for one bucket's batch size. The factory is called once per
 *  bucket at engine construction; parameter names must not depend on
 *  the batch size so every bucket binds the same frozen weights. */
struct ServedModel {
    Graph graph;
    std::vector<int> outputs;
};

/** Builds the served model at a given leading (batch) dimension. */
using ModelFactory = std::function<ServedModel(int64_t batch)>;

/**
 * Generative serving (PR 9): a model family becomes generative by
 * providing a SECOND factory that builds the single-token decode step.
 * The primary factory then builds the PREFILL graph — batch dimension
 * = prompt length, bucketed by ServeOptions::buckets (e.g. {32, 128,
 * 512} prompt buckets) — and the decode factory builds the decode
 * graph at each ServeOptions::decodeBuckets stream count.
 *
 * Contract between the two graphs:
 *  - Both write their K/V rows through CacheWrite nodes; prefill and
 *    decode cache values correspond BY NODE NAME (e.g. "b0.kcache"),
 *    with equal maxSeq and row width. Validated at construction.
 *  - The prefill graph is self-positioned (position 0 is a Const, the
 *    causal mask is a Const): its only Input is the prompt, one token
 *    per row, and its caches are [1, maxSeq, D].
 *  - The decode graph takes one token per stream row plus two
 *    engine-owned Inputs: "pos" [B, 1] (each stream's write position
 *    = its generation) and "mask" [B, maxSeq] (0 for columns <=
 *    generation, kMaskedScore beyond — large enough that exp()
 *    underflows to exact 0.0f, which is what makes shared runs
 *    bit-identical to solo runs no matter what stale rows sit past
 *    the generation). The engine writes each row's pos and mask
 *    straight into the session's staging rows; a pad row is written
 *    as generation 0 (pos 0, only column 0 visible), so attention
 *    scans one column for it, not maxSeq. Its caches are
 *    [B, maxSeq, D], one slot per stream row.
 *
 * Per-stream authoritative cache state lives engine-side and holds
 * only the rows written so far: `gen` rows of D floats per cache
 * value (a prefill sets its S prompt rows, each decode step appends
 * one). Before a decode run the engine gathers each member stream's
 * rows [0, gen) into its slot of the session's persistent cache
 * region, and afterwards appends the newly written row back. Slot
 * rows >= gen are zero when the run starts: each worker remembers,
 * per decode slot, how many rows an earlier run may have left nonzero
 * and re-zeroes only rows [gen, that count). That invariant is what
 * the unfused attention chain needs (it reads every column, and
 * 0 x NaN is NaN); the fused kernel stops at each row's last visible
 * column, so a step's cost follows gen, not maxSeq. Every decode row
 * carries its own pos row, mask row and cache slot, so decode steps
 * share runs by row count alone: N concurrent streams coalesce into
 * bucket runs whatever their generations, bit-identical to each
 * stream decoding alone.
 */

/** Serving-engine construction options. */
struct ServeOptions {
    /** Shape buckets: the leading-dimension sizes compiled plans
     *  exist for. Requests are padded up to the smallest bucket that
     *  fits; larger requests are rejected at submit. Sorted and
     *  deduplicated internally; must be non-empty with sizes >= 1. */
    std::vector<int64_t> buckets = {1};
    /**
     * Generative mode switch: when set, builds the single-token decode
     * graph at each decodeBuckets stream count (see the ModelFactory
     * contract above) and arms the stream API (openStream /
     * submitPrefill / submitDecode). The primary factory then builds
     * the prefill graph, bucketed by `buckets` as PROMPT lengths.
     */
    ModelFactory decodeFactory;
    /** Decode shape buckets: concurrent-stream counts compiled decode
     *  plans exist for. Same normalization as `buckets`. */
    std::vector<int64_t> decodeBuckets = {1};
    /** Concurrent serving workers (= max in-flight sessions). */
    int workers = 2;
    /**
     * Continuous-batching deadline window, in microseconds. A worker
     * that dequeues a request waits up to this long for additional
     * compatible queued requests and coalesces them into ONE shared
     * bucket run (rows packed contiguously, outputs sliced back per
     * request, byte-identical to the serial padded runs it
     * replaces). 0 (default) disables coalescing — every request
     * runs alone, exactly the pre-coalescing serving path. Tuning:
     * the window is the latency a lone request pays waiting for
     * company, so set it to the burst inter-arrival time you want to
     * absorb (a few hundred us to a few ms for RPC traffic); under
     * saturation the queue is never empty and the window is rarely
     * waited out.
     */
    int64_t coalesceWindowUs = 0;
    /** Bounded admission-queue capacity: submit(), submitPrefill()
     *  and submitDecode() block while this many requests are queued
     *  (the backpressure bound). */
    size_t queueCapacity = 64;
    /** Per-bucket compile switches (precision, fusion, ...).
     *  numThreads is forced to 1: sessions are serial inside, and
     *  concurrency comes from running many sessions at once. */
    CompileOptions compile;
    /**
     * When non-empty, bucket plans are LOADED from this directory —
     * one binary plan file per bucket, named
     * planFileName(compile.precision, batch) — instead of compiled.
     * The model factory is never invoked and engine construction
     * performs ZERO planner/scheduler/QuantizePass work (asserted via
     * pipelineCounters; std::logic_error if the contract breaks), so
     * serving startup is file reads + pointer binding. Write such a
     * directory with savePlans() or `plan_tool compile`. Plans must
     * have been compiled at numThreads = 1 (sessions are serial
     * inside; loading a multi-threaded plan throws).
     */
    std::string planDir;
    /**
     * Calibration batches for quantized buckets (compile.precision !=
     * F32; ignored when planDir is set). Each feed map is fitted to
     * every bucket's batch — rows zero-padded up (exactly the pad the
     * serving path applies to real requests) or truncated down — and
     * calibrate() stamps the observed ranges on the bucket's graph
     * before the QuantizePass consumes them. Empty = quantize with
     * whatever calibration attrs the factory's graph already carries.
     */
    std::vector<std::unordered_map<std::string, Tensor>> calibration;
    /**
     * Arm request-lifecycle tracing: every completed request records
     * its enqueue -> dequeue -> bind -> run -> slice -> complete
     * timestamps into a fixed-capacity ring, every session context is
     * armed with an executor span ring (so kernel steps appear inside
     * the serving run spans), and exportChromeTrace() renders it all
     * as one Perfetto-loadable timeline. Off by default: the record
     * path costs a handful of clock reads per request, but serving
     * benchmarks should not pay even that without asking — and the
     * lifecycle ring is only allocated when this is set.
     */
    bool trace = false;
    /** Lifecycle-ring capacity (records, oldest overwritten) and the
     *  per-session executor span-ring capacity when `trace` is on. */
    size_t traceCapacity = 4096;

    // Validated builder-style setters (mirror DecoderConfig's): each
    // rejects bad values up front with std::invalid_argument naming
    // the offending field, so a misconfigured engine fails at option
    // construction instead of deep inside bucket compilation. The
    // engine constructor runs the same checks over every field, so a
    // field assigned directly fails the same way.
    ServeOptions &withBuckets(std::vector<int64_t> b);
    ServeOptions &withDecodeBuckets(std::vector<int64_t> b);
    ServeOptions &withWorkers(int n);
    ServeOptions &withCoalesceWindow(int64_t us);
    ServeOptions &withQueueCapacity(size_t n);
};

/** Per-bucket serving counters. */
struct BucketStats {
    int64_t batch = 0;      ///< the bucket's compiled batch size
    bool decode = false;    ///< decode-domain bucket (batch = streams)
    int64_t hits = 0;       ///< requests served by this bucket's plan
    int64_t runs = 0;       ///< plan executions (== hits minus
                            ///< coalescing: k grouped requests run once)
    int64_t paddedRows = 0; ///< total pad rows executed (waste)
    int64_t runNs = 0;      ///< summed plan execution time (ns)
    /** SIMD tier the bucket's plan bound against ("scalar"/"avx2"/
     *  "neon") — the key for per-tier run-time attribution. */
    std::string tier;
    /** Fixed log2 latency histogram: bin b counts completions whose
     *  submit-to-complete latency fell in [2^b, 2^(b+1)) us (last bin
     *  open-ended). Sum over bins == hits served by this bucket. */
    std::vector<int64_t> latencyHistUs;
};

/** Aggregate serving statistics (CompileReport-style snapshot). */
struct ServeStats {
    int64_t submitted = 0;
    int64_t completed = 0; ///< successfully served
    /** Worker-path failures (the exception is rethrown by wait());
     *  excluded from completed/hits/latency so a failing fleet reads
     *  as failing, not as healthy throughput. */
    int64_t failed = 0;
    int64_t queueDepth = 0;
    int64_t maxQueueDepth = 0;
    /** Session contexts minted so far. Bounded by workers x buckets
     *  and stable once traffic has warmed every (worker, bucket)
     *  pair — the arena-pool-reuse invariant tests assert on. */
    int64_t sessionsCreated = 0;
    /** Bucket-plan executions across all buckets. Without coalescing
     *  runs == completed; with it, runs is the number the coalescer
     *  drives DOWN (the burst-of-singles acceptance metric). */
    int64_t runs = 0;
    /** Runs that served >= 2 coalesced requests. */
    int64_t coalescedRuns = 0;
    /** Requests served through a shared (>= 2 request) run. */
    int64_t coalescedRequests = 0;
    /** coalescedRequests / completed — the coalescing rate. */
    double coalesceRate = 0;
    /** Generative-serving counters (0 on non-generative engines). */
    int64_t streamsOpened = 0;
    int64_t prefills = 0;    ///< prompt requests submitted
    int64_t decodeSteps = 0; ///< single-token decode requests submitted
    /** KV-cache bytes moved between stream storage and session slots:
     *  rows gathered into slots, stale slot rows zeroed, and rows
     *  scattered back. Follows the tokens served, not maxSeq. */
    int64_t cacheBytesCopied = 0;
    /** Plan execution time divided by requests served: the amortized
     *  per-request cost coalescing buys down (excludes queueing, so
     *  it is comparable across traffic shapes). */
    double amortizedRunUs = 0;
    /** Latency samples currently held by the fixed-capacity
     *  reservoir percentiles are computed from (bounded by
     *  kLatencyReservoirCap regardless of traffic volume). */
    int64_t latencySamples = 0;
    double p50LatencyUs = 0; ///< submit-to-complete, median
    double p99LatencyUs = 0;
    double throughputRps = 0; ///< completed / elapsed
    double elapsedSeconds = 0;
    std::vector<BucketStats> buckets;

    /**
     * Human-readable snapshot: the aggregate counters plus one aligned
     * per-bucket table row (hits, runs, pad rows, run ms, tier).
     * summary() and json() render the SAME snapshot — stats() is the
     * one place serving state is sampled, so the two never disagree.
     */
    std::string summary() const;

    /** The whole snapshot as a JSON object (metrics endpoints, CI). */
    std::string json() const;
};

class Session;

/**
 * A session-based concurrent inference server over one model family.
 * Construction compiles every bucket. session() hands out Session
 * handles: the synchronous surface, one call per request. Underneath
 * sit the asynchronous primitives Session composes — submit() /
 * poll() / wait() and openStream() / submitPrefill() /
 * submitDecode() — which a caller uses directly to keep several
 * requests in flight from one thread. Thread-safe: any thread may
 * submit, poll or wait. Destruction drains queued requests, then
 * joins.
 */
class ServingEngine
{
  public:
    using RequestId = uint64_t;
    using StreamId = uint64_t;
    /** Latency-percentile reservoir capacity: stats memory is bounded
     *  by this regardless of how many requests the engine serves. */
    static constexpr size_t kLatencyReservoirCap = 4096;
    /** log2 latency-histogram bins: [1us, 2us) ... [2^18us, inf). */
    static constexpr int kLatencyHistBins = 20;

    ServingEngine(const ModelFactory &model,
                  std::shared_ptr<ParamStore> store,
                  ServeOptions options);
    ~ServingEngine();

    ServingEngine(const ServingEngine &) = delete;
    ServingEngine &operator=(const ServingEngine &) = delete;

    /**
     * The synchronous serving surface: a Session handle bound to this
     * engine. session().run(feeds) is the one-shot path;
     * session().prefill(...) / .decode(...) the generative one (the
     * handle opens and owns its stream). Every Session call is a
     * submit/wait pair over the primitives below, so results are
     * byte-identical to driving them directly.
     */
    Session session();

    /**
     * Enqueue one request. Each feed's first dimension is the
     * request's row count (all feeds must agree); remaining dims must
     * match the model's inputs. Blocks while the admission queue is
     * full. Returns as soon as the request is queued, so one thread
     * can keep a burst in flight and wait() each id afterwards.
     * Throws std::invalid_argument for unknown input names, shape
     * mismatches, feeds with no rows, or more rows than the largest
     * bucket.
     */
    RequestId submit(std::unordered_map<std::string, Tensor> feeds);

    /** True once @p id has completed (its results are ready). Throws
     *  std::out_of_range for ids never issued or already consumed. */
    bool poll(RequestId id) const;

    /**
     * Block until @p id completes and return its outputs (one tensor
     * per model output, sliced back to the request's rows). Consumes
     * the result: a second wait on the same id throws std::out_of_range
     * (the id is claimed atomically at entry, so concurrent waiters
     * never race on the result). A request that failed on the worker
     * path rethrows here as std::runtime_error.
     */
    std::vector<Tensor> wait(RequestId id);

    // ---- generative stream API (requires ServeOptions::decodeFactory)

    /** True when the engine was built with a decode factory. */
    bool generative() const { return generative_; }

    /**
     * Open one generation stream (its K/V cache starts empty and
     * grows by one row per cached token) and return its id.
     * Throws std::logic_error on a non-generative engine. A Session
     * opens (and closes) its own stream; open one directly to drive
     * several streams in lockstep from one thread with submitPrefill()
     * / submitDecode() + wait().
     */
    StreamId openStream();

    /** Release @p id's cache state. Throws std::out_of_range for
     *  unknown ids and std::runtime_error while a request is in
     *  flight on the stream. */
    void closeStream(StreamId id);

    /**
     * Enqueue @p stream's prompt: feeds are the prefill graph's
     * Inputs, one token per row (rows = prompt length, routed to the
     * smallest fitting prompt bucket). Prefill never coalesces: a
     * prompt's rows attend to each other. On completion the stream's
     * cache holds the prompt's K/V rows and its generation
     * equals the prompt length; re-prefilling restarts the stream.
     * One in-flight request per stream: submitting while another is
     * pending throws std::runtime_error.
     */
    RequestId submitPrefill(StreamId stream,
                            std::unordered_map<std::string, Tensor> feeds);

    /**
     * Enqueue one single-token decode step for @p stream: feeds are
     * the decode graph's Inputs EXCEPT "pos" and "mask", one row
     * each; the engine writes pos and mask from the stream's
     * generation. Requires a completed prefill and generation <
     * maxSeq.
     * Concurrent streams share bucket runs whatever their generations
     * — bit-identically to each stream decoding alone.
     */
    RequestId submitDecode(StreamId stream,
                           std::unordered_map<std::string, Tensor> feeds);

    /** Rows currently cached for @p stream (== next token position). */
    int64_t streamGeneration(StreamId stream) const;

    /** The most cache bytes one stream can hold: the sum over cache
     *  values of maxSeq x D x sizeof(float), reached at generation
     *  maxSeq (a stream holds gen x D floats per value) — the
     *  per-conversation memory bound. 0 on non-generative engines. */
    int64_t streamCacheBytes() const;

    /** The decode bucket (stream count) @p streams concurrent rows
     *  route to; -1 when it exceeds every decode bucket. */
    int64_t decodeBucketFor(int64_t streams) const;

    /** Snapshot of the serving counters and latency percentiles. */
    ServeStats stats() const;

    /** stats() rendered as JSON — the poll-safe metrics endpoint
     *  (atomic counter snapshot; only the latency reservoir and
     *  histogram reads take a lock). */
    std::string metricsJson() const { return stats().json(); }

    /**
     * Write the recorded request lifecycles (and, when the engine was
     * built with ServeOptions::trace, the per-session executor step
     * spans) to @p path as Chrome Trace Event JSON: one track per
     * serving worker (bind / run / slice, with kernel steps nested
     * inside the run), and one lane per request (queued -> wait ->
     * run -> complete). A coalesced group shows as N request lanes
     * carrying the SAME "run#<id>" span — the lanes converge into one
     * worker-run. Call it quiescent (all submitted ids waited): the
     * session span rings are read without synchronizing against
     * in-flight runs. Returns false on I/O failure.
     */
    bool exportChromeTrace(const std::string &path) const;

    /** Compiled-plan report of the bucket whose batch is @p batch. */
    const CompileReport &bucketReport(int64_t batch) const;

    /** The bucket batch a @p rows -row request routes to; -1 when
     *  @p rows exceeds every bucket. Exposed for routing tests. */
    int64_t bucketFor(int64_t rows) const;

    int workers() const { return options_.workers; }

    /**
     * Serialize every bucket's compiled plan (graph, order, variants,
     * memory plan, launch geometry, packed consts, frozen params)
     * into @p dir — one file per bucket, named planFileName(). A
     * later engine constructed with ServeOptions::planDir = @p dir
     * serves bit-identical results without compiling anything.
     */
    void savePlans(const std::string &dir) const;

    /** Canonical plan file name of one (precision, bucket) plan,
     *  e.g. "int8_b4.peplan"; decode-domain buckets use a "d" prefix
     *  ("int8_d4.peplan") so a prompt bucket and a stream bucket of
     *  the same size never collide in one plan directory. */
    static std::string planFileName(Precision p, int64_t batch,
                                    bool decode = false);

  private:
    struct RequestState {
        RequestId id = 0;
        int bucket = -1; ///< index into buckets_
        int64_t rows = 0;
        /** Decode only: the stream's generation at submit — the row
         *  the step writes, the value its pos and mask rows are
         *  written from, its slot's dirty mark and its trace record. */
        int64_t gen = 0;
        /** Owning stream; 0 for plain (non-generative) requests. A
         *  stream request that is not a decode is a prefill. */
        StreamId stream = 0;
        bool isDecode = false;
        /** (input node id in the bucket's graph, request tensor). */
        std::vector<std::pair<int, Tensor>> feeds;
        /** traceNowNs() at submit, set by the submitting thread before
         *  the queue push: the start of the request's latency and of
         *  its lifecycle record's "queued" span. */
        int64_t submitNs = 0;
        /** traceNowNs() when a worker pops the request, written only
         *  when the engine traces (the queue handoff orders it after
         *  submitNs). */
        int64_t dequeueNs = 0;
        std::vector<Tensor> outputs;
        /** Worker-path failure, rethrown by wait(). Written before
         *  the done flag's release store, read after its acquire. */
        std::string error;
        std::atomic<bool> done{false};
    };

    /** One CacheWrite value of a generative bucket's graph: the name
     *  is the cross-graph correspondence key (prefill and decode
     *  caches pair up by it), the id is graph-local. */
    struct CacheNodeRef {
        std::string name;
        int id = -1;
        int64_t maxSeq = 0;
        int64_t dim = 0; ///< row width D
    };

    /** One (precision, shape-bucket) compiled plan. The CompiledGraph
     *  lives at a stable heap address so the Executor's graph
     *  reference stays valid for the engine's lifetime; its artifact
     *  moves into the Executor at construction, and its report (the
     *  one copy bucketReport serves) records the binding then. */
    struct Bucket {
        int64_t batch = 0;
        bool decode = false; ///< decode-domain bucket (batch = streams)
        /** CacheWrite values of this bucket's graph, sorted by name —
         *  index-aligned with cacheSpec_ and Stream::cache. */
        std::vector<CacheNodeRef> cacheNodes;
        /** Decode buckets only: the engine-owned inputs, written per
         *  row from each member's generation. */
        int posInput = -1;
        int maskInput = -1;
        CompiledGraph cg;
        std::unique_ptr<Executor> exec;
        std::atomic<int64_t> hits{0};
        std::atomic<int64_t> runs{0};
        std::atomic<int64_t> paddedRows{0};
        /** Summed plan execution time: the per-(tier, bucket)
         *  run-time accumulator metricsJson() reports. */
        std::atomic<int64_t> runNs{0};
        /** log2 latency histogram (see BucketStats::latencyHistUs). */
        std::array<std::atomic<int64_t>, kLatencyHistBins> latHist;

        Bucket()
        {
            for (auto &h : latHist)
                h.store(0, std::memory_order_relaxed);
        }
    };

    /** One completed request's lifecycle, recorded into the trace
     *  ring by the worker that ran it. Group members share the
     *  bind/run/done timestamps and runId of their shared run. */
    struct LifecycleRecord {
        RequestId id = 0;
        int64_t rows = 0;
        int64_t bucketBatch = 0;
        int groupSize = 1;
        int worker = 0;
        int64_t runId = 0;
        const char *tier = ""; ///< static simdTierName storage
        int64_t enqueueNs = 0;
        int64_t dequeueNs = 0;
        int64_t bindNs = 0; ///< group drained, binding started
        int64_t runStartNs = 0;
        int64_t runEndNs = 0;
        int64_t doneNs = 0; ///< outputs sliced, completion signaled
        StreamId stream = 0; ///< owning stream (0 = plain request)
        int64_t gen = 0;     ///< decode generation at submit
    };

    /** One generation stream's authoritative state. Guarded by
     *  streamMu_ for map access and flag flips; the cache rows are
     *  touched only by the one worker running the stream's request
     *  (while busy), so the bulk copies never contend. */
    struct Stream {
        int64_t gen = 0; ///< cached rows (== next token position)
        bool busy = false; ///< one in-flight request per stream
        /** Authoritative K/V rows, gen x D floats per cacheSpec_
         *  entry (index-aligned): only the rows written so far. */
        std::vector<std::vector<float>> cache;
    };

    /** One worker's session of one bucket, minted on first use. */
    struct WorkerSession {
        std::unique_ptr<ExecContext> ctx;
        /** Decode buckets only, one entry per stream slot: rows at
         *  and past it are zero in every cache value of the slot. A
         *  member leaves gen + 1 and a failed run maxSeq; a pad
         *  slot keeps its mark, or 1 (its run writes only row 0). */
        std::vector<int64_t> dirty;
    };

    std::shared_ptr<RequestState> makeRequest(
        std::unordered_map<std::string, Tensor> &feeds,
        bool decodeDomain = false);
    /** The one submit tail: register the state, count it, block-push
     *  it into the admission queue (throws when stopped). */
    RequestId enqueue(const std::shared_ptr<RequestState> &st);
    /** Flag @p id busy (one in-flight request per stream) and return
     *  its generation; throws for unknown or already-busy streams. */
    int64_t claimStream(StreamId id);
    /** Clear @p id's busy flag (a no-op once the stream is closed). */
    void releaseStream(StreamId id);
    /** Compile (or planDir-load) one bucket of either domain. */
    std::unique_ptr<Bucket> buildBucket(const ModelFactory &model,
                                        int64_t batch, bool decode);
    /** Discover + cross-validate CacheWrite values and the decode
     *  graphs' pos/mask inputs; fills cacheSpec_/maxSeq_. */
    void resolveCacheTopology();
    void requireGenerative() const;
    void workerLoop(int worker);
    /** Close the queue, let the workers drain it, join them. */
    void stopWorkers();
    /** Pack @p group's rows into one session of bucket @p bucketIdx,
     *  zero the pad tail, run the plan once, slice each member's rows
     *  back out and signal completion. A group of one is the
     *  pad-to-bucket case of the same path. */
    void runGroup(
        int worker, int bucketIdx,
        std::vector<std::shared_ptr<RequestState>> &group,
        int64_t totalRows);
    /** Index of the smallest bucket fitting @p rows; -1 if none. The
     *  ONE routing rule — bucketFor(), makeRequest() and the
     *  coalescer share it. */
    int bucketIndexFor(int64_t rows) const;

    std::shared_ptr<ParamStore> store_;
    ServeOptions options_;
    /** Prefill/plain buckets first, then (generative engines) decode
     *  buckets: indices [0, prefillBuckets_) are the prompt domain,
     *  [prefillBuckets_, size) the decode domain. */
    std::vector<std::unique_ptr<Bucket>> buckets_;
    size_t prefillBuckets_ = 0;
    bool generative_ = false;
    /** Canonical cache geometry (names sorted; ids unset) every
     *  generative bucket was validated against. */
    std::vector<CacheNodeRef> cacheSpec_;
    int64_t maxSeq_ = 0; ///< shared cache extent (mask row width)
    /** Bytes of one cached token: sum over cache values of D floats. */
    int64_t cacheRowBytes_ = 0;
    /** Grouping policy (bucket batches + deadline window). */
    Coalescer coalescer_;
    /** Decode-domain grouping policy (stream-count batches). */
    Coalescer decodeCoalescer_;
    /** Every bucket's outputs lead with its batch dim, so a shared
     *  run can be sliced back per request. Computed once at
     *  construction; false pins every request to a solo run. */
    bool coalescable_ = false;

    BoundedQueue<std::shared_ptr<RequestState>> queue_;
    /** Held by the one worker forming a group, from taking its leader
     *  through the drain but not over the run, so two idle workers
     *  never split one burst into two padded runs. */
    std::mutex gatherMu_;
    /** A drained request that did not fit the group in progress: the
     *  NEXT group's leader, so FIFO order is preserved and nothing is
     *  pushed back onto the queue. Guarded by gatherMu_ and taken
     *  before any pop, so neither a blocked pop nor shutdown can strand
     *  it. */
    std::shared_ptr<RequestState> carry_;
    std::vector<std::thread> threads_; ///< one per serving worker

    /** sessions_[worker][bucket]: lazily minted, worker-owned — no
     *  lock is ever taken to acquire a session. */
    std::vector<std::vector<WorkerSession>> sessions_;

    mutable std::mutex stateMu_; ///< id -> in-flight request states
    std::unordered_map<RequestId, std::shared_ptr<RequestState>> states_;
    std::atomic<RequestId> nextId_{1};

    mutable std::mutex streamMu_; ///< stream map + gen/busy flips
    std::unordered_map<StreamId, Stream> streams_;
    StreamId nextStreamId_ = 1; ///< guarded by streamMu_

    mutable std::mutex doneMu_; ///< completion signaling only
    std::condition_variable doneCv_;

    std::atomic<int64_t> submitted_{0};
    std::atomic<int64_t> completed_{0};
    std::atomic<int64_t> failed_{0};
    std::atomic<int64_t> maxQueueDepth_{0};
    std::atomic<int64_t> sessionsCreated_{0};
    std::atomic<int64_t> coalescedRuns_{0};
    std::atomic<int64_t> coalescedRequests_{0};
    std::atomic<int64_t> streamsOpened_{0};
    std::atomic<int64_t> prefills_{0};
    std::atomic<int64_t> decodeSteps_{0};
    std::atomic<int64_t> cacheBytesCopied_{0};
    /** Summed plan execution time (ns) across all bucket runs — the
     *  numerator of ServeStats::amortizedRunUs. */
    std::atomic<int64_t> runNanos_{0};
    mutable std::mutex statsMu_; ///< latency samples
    Ring<double> latenciesUs_{kLatencyReservoirCap};
    std::chrono::steady_clock::time_point start_;

    /** Shared-run ids: every runGroup takes one, so coalesced members
     *  carry the SAME id into their lifecycle records (how the Chrome
     *  export knows which request lanes converge). */
    std::atomic<int64_t> runCounter_{0};
    /** Lifecycle ring (ServeOptions::traceCapacity records, oldest
     *  overwritten), allocated only on traced engines. Workers record
     *  under traceMu_ so ones that lap each other never share a slot. */
    mutable std::mutex traceMu_;
    std::unique_ptr<Ring<LifecycleRecord>> lifecycle_;
};

/**
 * The unified serving handle: one object for both request styles.
 *
 *  - One-shot: run(feeds) submits and waits — sugar for
 *    engine.wait(engine.submit(feeds)), nothing more.
 *  - Generative: prefill(feeds) opens the handle's stream on first
 *    use (re-prefilling restarts it, exactly like submitPrefill) and
 *    decode(feeds) steps it; both wait for completion and return the
 *    outputs. The stream is closed on destruction.
 *
 * Because every call routes through the engine's submit/wait
 * machinery, Session results are byte-identical to driving the raw
 * entry points directly — that equivalence is a tested contract
 * (tests/test_decode.cc), not an aspiration. Handles are cheap:
 * mint one per logical conversation. A Session is movable (the moved-
 * from handle forgets its stream) but not copyable, and is NOT
 * thread-safe — share the engine across threads, not one handle.
 */
class Session
{
  public:
    Session(Session &&other) noexcept
        : engine_(other.engine_), stream_(other.stream_)
    {
        other.engine_ = nullptr;
        other.stream_ = 0;
    }

    Session &operator=(Session &&other) noexcept
    {
        if (this != &other) {
            close();
            engine_ = other.engine_;
            stream_ = other.stream_;
            other.engine_ = nullptr;
            other.stream_ = 0;
        }
        return *this;
    }

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    ~Session()
    {
        try {
            close();
        } catch (...) {
            // Destructors must not throw; a stream already closed
            // through the raw API is not worth terminating over.
        }
    }

    /** One-shot request: submit @p feeds, wait, return the outputs
     *  (one tensor per model output, sliced to the request's rows). */
    std::vector<Tensor>
    run(std::unordered_map<std::string, Tensor> feeds)
    {
        return engine_->wait(engine_->submit(std::move(feeds)));
    }

    /** Prompt the handle's stream (opened on first use): prefill the
     *  K/V cache from @p feeds and return the prompt logits. After it
     *  returns, generation() equals the prompt length. */
    std::vector<Tensor>
    prefill(std::unordered_map<std::string, Tensor> feeds)
    {
        if (stream_ == 0)
            stream_ = engine_->openStream();
        return engine_->wait(
            engine_->submitPrefill(stream_, std::move(feeds)));
    }

    /** One decode step on the handle's stream (requires a completed
     *  prefill): returns the next-token logits and advances
     *  generation() by one. */
    std::vector<Tensor>
    decode(std::unordered_map<std::string, Tensor> feeds)
    {
        if (stream_ == 0)
            throw std::logic_error(
                "Session::decode: no stream (call prefill first)");
        return engine_->wait(
            engine_->submitDecode(stream_, std::move(feeds)));
    }

    /** Rows cached for the handle's stream (0 before first prefill). */
    int64_t
    generation() const
    {
        return stream_ == 0 ? 0 : engine_->streamGeneration(stream_);
    }

    /** The underlying stream id (0 before first prefill) — exposed so
     *  callers can mix Session and async stream calls. */
    ServingEngine::StreamId stream() const { return stream_; }

    /** Release the handle's stream early (idempotent; destruction
     *  calls it too). The handle can prefill again afterwards, which
     *  opens a fresh stream. */
    void
    close()
    {
        if (engine_ != nullptr && stream_ != 0) {
            engine_->closeStream(stream_);
            stream_ = 0;
        }
    }

  private:
    friend class ServingEngine;
    explicit Session(ServingEngine &engine) : engine_(&engine) {}

    ServingEngine *engine_ = nullptr;
    ServingEngine::StreamId stream_ = 0;
};

inline Session
ServingEngine::session()
{
    return Session(*this);
}

} // namespace pe
