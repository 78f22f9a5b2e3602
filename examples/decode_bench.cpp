/**
 * @file
 * Generative-serving demo: N concurrent decode streams through the
 * KV-cached ServingEngine, against each stream decoding alone.
 *
 * The scenario is the transformer-serving shape the ROADMAP names:
 * every stream prefills a prompt once (one prompt-bucket run whose
 * CacheWrite values leave the keys/values in the stream's cache),
 * then advances token by token through the single-token decode plan.
 * Incremental decode re-uses the cached rows, so a decode step costs
 * O(1) attention work instead of the prompt-quadratic prefill — and
 * the coalescer packs the streams' single-token steps into shared
 * bucket runs by row count alone (each row carries its own position,
 * mask and cache slot), bit-identical to each stream decoding alone.
 *
 * Measured per precision (fp32 and int8):
 *  - decode-parity: every logit tensor of every stream/step compared
 *    BIT FOR BIT against the serial (coalescing-off) reference
 *    through the same bucket plans;
 *  - run sharing: N x T decode requests vs the decode-bucket runs
 *    that actually executed (the >= 2x acceptance bar at 4 streams);
 *  - prefill-vs-decode amortized cost per token (from the engine's
 *    per-bucket run-time accumulators, the median of interleaved solo
 *    and shared rounds on warm engines; gated only as the
 *    shared/solo ratio, so host speed cancels), the cache bytes a
 *    session may pin, and the KV bytes the engine moves between
 *    stream storage and session slots per decoded token
 *    (machine-independent, gated).
 *
 *   ./build/decode_bench [tokens-per-stream]   (default: 8)
 *   ./build/decode_bench --json BENCH_decode.json
 *       runs the deterministic multi-stream scenarios and writes the
 *       rows scripts/bench_json.sh snapshots and
 *       scripts/bench_check.py gates.
 *   ./build/decode_bench --trace OUT.json
 *       runs the coalesced fp32 scenario with lifecycle tracing armed
 *       and exports a Chrome/Perfetto trace: N request lanes per step
 *       converge into one shared decode-run span (each lane stamped
 *       with its stream id and generation). Exits 0 only if at least
 *       one run served >= 2 streams.
 *
 * The llama_proxy_fused scenario serves a multi-head config (4 heads
 * of 32, dim 128) end to end with the FusedAttention rewrite on, and
 * adds the fused-attention gates: logits within 1e-5 of the unfused
 * serial reference, attention-stage us/step >= 1.5x faster fused than
 * unfused, and the fused decode plan's peak-live strictly below the
 * unfused plan's. It also sweeps maxSeq (64, 256, 1024) at the same
 * prompt and token count: decode wall-clock us/token (gather, run and
 * scatter) stays flat, because attention stops at each row's last
 * visible column and serving moves only the rows a stream has
 * written. A second sweep (64, 1024) serves one stream on the
 * bucket-4 engine, so every run carries three pad rows: it stays flat
 * because a pad row is a generation-0 row whose attention reads one
 * column. Both 1024/64 ratios are gated as floors.
 *
 * Timing columns are medians of rounds that keep alternating until
 * at least kRounds rounds and kMinRoundsMs have passed, so a column
 * spans more than one short host phase.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "../bench/bench_common.h"
#include "engine/engine.h"
#include "frontend/builder.h"
#include "frontend/models.h"
#include "serve/serving.h"

using namespace pe;

namespace {

DecoderConfig
benchCfg()
{
    DecoderConfig cfg; // the header defaults: 2 layers, dim 32
    cfg.maxSeq = 32;
    return cfg;
}

/** LLaMA-proxy decode config: the multi-head shape the fused-attention
 *  gates run at (4 heads of 32; per-head decode attention is
 *  [streams*4, 1, 32] q against a [streams*4, 32, 32] cached K/V). */
DecoderConfig
llamaProxyCfg()
{
    return DecoderConfig{}
        .withDim(128)
        .withHeads(4)
        .withFfDim(256)
        .withMaxSeq(32);
}

Tensor
tokenRows(const std::vector<float> &toks)
{
    Tensor t({static_cast<int64_t>(toks.size()), 1});
    for (size_t i = 0; i < toks.size(); ++i)
        t[static_cast<int64_t>(i)] = toks[i];
    return t;
}

std::vector<std::unordered_map<std::string, Tensor>>
calibFeeds(const DecoderConfig &cfg)
{
    Rng r(11);
    std::vector<std::unordered_map<std::string, Tensor>> out;
    for (int bi = 0; bi < 2; ++bi) {
        const int64_t gen = 8 + bi;
        std::vector<float> toks;
        for (int i = 0; i < 8; ++i)
            toks.push_back(static_cast<float>(r.randint(cfg.vocab)));
        Tensor pos({8, 1});
        Tensor mask({8, cfg.maxSeq});
        for (int64_t i = 0; i < 8; ++i) {
            pos[i] = static_cast<float>(gen);
            for (int64_t j = 0; j < cfg.maxSeq; ++j)
                mask[i * cfg.maxSeq + j] = j <= gen ? 0.0f : kMaskedScore;
        }
        out.push_back({{"x", tokenRows(toks)},
                       {"pos", std::move(pos)},
                       {"mask", std::move(mask)}});
    }
    return out;
}

/** Prompt bucket {8}, decode bucket {4}: solo decode steps pad to the
 *  SAME bucket-4 plan shared runs use, so fp32 AND int8 parity are
 *  exact (quantization error is deterministic through one plan). */
std::unique_ptr<ServingEngine>
makeEngine(const std::shared_ptr<ParamStore> &store, int64_t window_us,
           int workers, Precision prec, const DecoderConfig &cfg,
           bool fuse = true, bool trace = false)
{
    ServeOptions so = ServeOptions{}
                          .withBuckets({8})
                          .withDecodeBuckets({4})
                          .withWorkers(workers)
                          .withCoalesceWindow(window_us)
                          .withQueueCapacity(64);
    so.compile.precision = prec;
    so.compile.fuse = fuse;
    so.trace = trace;
    if (prec != Precision::F32)
        so.calibration = calibFeeds(cfg);
    so.decodeFactory = [store, cfg](int64_t streams) {
        Rng r(7);
        ModelSpec m = buildDecoderDecode(cfg, streams, r, store.get());
        return ServedModel{std::move(m.graph), {m.logits}};
    };
    return std::make_unique<ServingEngine>(
        [store, cfg](int64_t prompt) {
            Rng r(7);
            ModelSpec m =
                buildDecoderPrefill(cfg, prompt, r, store.get());
            return ServedModel{std::move(m.graph), {m.logits}};
        },
        store, so);
}

struct StreamPlan {
    std::vector<std::vector<float>> prompts; ///< per stream, 8 tokens
    std::vector<std::vector<float>> next;    ///< per stream, T tokens
};

StreamPlan
makeTraffic(const DecoderConfig &cfg, int streams, int64_t tokens)
{
    Rng r(97);
    StreamPlan p;
    p.prompts.resize(streams);
    p.next.resize(streams);
    for (int s = 0; s < streams; ++s) {
        for (int i = 0; i < 8; ++i)
            p.prompts[s].push_back(
                static_cast<float>(r.randint(cfg.vocab)));
        for (int64_t t = 0; t < tokens; ++t)
            p.next[s].push_back(
                static_cast<float>(r.randint(cfg.vocab)));
    }
    return p;
}

/** Drive every stream through prefill + T decode steps in lockstep;
 *  returns all logits, [stream][0] = prefill, [stream][1 + t]. When
 *  @p decodeUs is set, it receives the decode steps' wall-clock us. */
std::vector<std::vector<Tensor>>
driveStreams(ServingEngine &e, const StreamPlan &p, int64_t tokens,
             double *decodeUs = nullptr)
{
    const int streams = static_cast<int>(p.prompts.size());
    std::vector<ServingEngine::StreamId> sids(streams);
    std::vector<ServingEngine::RequestId> rids(streams);
    std::vector<std::vector<Tensor>> out(streams);
    for (int s = 0; s < streams; ++s)
        sids[s] = e.openStream();
    for (int s = 0; s < streams; ++s)
        rids[s] = e.submitPrefill(sids[s],
                                  {{"x", tokenRows(p.prompts[s])}});
    for (int s = 0; s < streams; ++s)
        out[s].push_back(e.wait(rids[s])[0]);
    auto t0 = std::chrono::steady_clock::now();
    for (int64_t t = 0; t < tokens; ++t) {
        for (int s = 0; s < streams; ++s)
            rids[s] = e.submitDecode(
                sids[s], {{"x", tokenRows({p.next[s][t]})}});
        for (int s = 0; s < streams; ++s)
            out[s].push_back(e.wait(rids[s])[0]);
    }
    if (decodeUs)
        *decodeUs = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    for (int s = 0; s < streams; ++s)
        e.closeStream(sids[s]);
    return out;
}

struct DecodeRow {
    std::string scenario;
    int64_t streams = 0;
    int64_t promptLen = 8;
    int64_t tokens = 0;
    bool parity = true;
    int64_t decodeRequests = 0;
    int64_t runsSolo = 0, runsCoalesced = 0;
    double runReduction = 0;
    double coalesceRate = 0;
    int64_t cacheBytesPerSession = 0;
    double cacheBytesCopiedPerToken = 0; ///< coalesced round, per decode
    double prefillUsPerToken = 0; ///< wall-clock, informational
    double decodeUsPerTokenSolo = 0;
    double decodeUsPerTokenShared = 0;

    // Fused-attention columns; emitted (and gated) only when
    // fusedAttention >= 0 (the llama_proxy_fused scenario).
    int64_t heads = 0;
    int fusedAttention = -1;
    int parityVsUnfused1e5 = -1; ///< fused within 1e-5 of unfused
    double attnUsFused = 0;      ///< attention stage, us per decode step
    double attnUsUnfused = 0;
    double attnSpeedup = 0;         ///< unfused / fused; gate >= 1.5
    int64_t peakLiveFused = 0;      ///< decode plan peak-live bytes
    int64_t peakLiveUnfused = 0;    ///< gate: fused strictly below
    /** Decode wall-clock us/token at each kSweepMaxSeq (4 streams)
     *  and each kPaddedMaxSeq (1 stream, 3 pad rows per run). */
    std::vector<double> maxSeqSweepUs;
    std::vector<double> paddedSweepUs;
};

/** The maxSeq sweeps of the llama_proxy_fused row. */
const std::vector<int64_t> kSweepMaxSeq = {64, 256, 1024};
const std::vector<int64_t> kPaddedMaxSeq = {64, 1024};

/** Timing rounds per --json column: solo and shared decode (and the
 *  fused and unfused attention stage) alternate round by round on warm
 *  engines until both bounds are met, and each column reports its
 *  median round. */
constexpr int kRounds = 31;
constexpr double kMinRoundsMs = 300;

/** Call @p round until it has run kRounds times and kMinRoundsMs of
 *  wall-clock have passed. */
template <class Round>
void
forRounds(Round &&round)
{
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0;
         r < kRounds ||
         std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
                 .count() < kMinRoundsMs;
         ++r)
        round();
}

/** Hits, runs and summed run time of one bucket domain so far. */
struct BucketCost {
    int64_t hits = 0, runs = 0, runNs = 0;
};

BucketCost
bucketCost(ServingEngine &e, bool decode)
{
    BucketCost c;
    for (const BucketStats &b : e.stats().buckets) {
        if (b.decode != decode)
            continue;
        c.hits += b.hits;
        c.runs += b.runs;
        c.runNs += b.runNs;
    }
    return c;
}

/** Run microseconds per hit since @p before, per @p tokensPerHit. */
double
usPerToken(ServingEngine &e, bool decode, const BucketCost &before,
           int64_t tokensPerHit = 1)
{
    BucketCost now = bucketCost(e, decode);
    int64_t hits = now.hits - before.hits;
    return hits > 0 ? static_cast<double>(now.runNs - before.runNs) /
                          (hits * tokensPerHit) / 1e3
                    : 0;
}

/** The serial reference: each stream decodes alone, one after another. */
std::vector<std::vector<Tensor>>
driveSolo(ServingEngine &e, const StreamPlan &p, int64_t tokens)
{
    std::vector<std::vector<Tensor>> out;
    for (size_t s = 0; s < p.prompts.size(); ++s) {
        StreamPlan one;
        one.prompts = {p.prompts[s]};
        one.next = {p.next[s]};
        out.push_back(driveStreams(e, one, tokens)[0]);
    }
    return out;
}

bool
bitEqual(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(), sizeof(float) * a.size()) ==
               0;
}

/**
 * Drive the coalesced engine once for parity against @p ref (the
 * serial outputs of @p solo) and the run-count columns, then time
 * solo vs shared decode over kRounds interleaved rounds.
 */
void
measureStreams(DecodeRow &row, ServingEngine &solo, ServingEngine &eng,
               const std::vector<std::vector<Tensor>> &ref,
               const StreamPlan &traffic)
{
    const int64_t tokens = row.tokens;
    const int64_t copiedBefore = eng.stats().cacheBytesCopied;
    std::vector<std::vector<Tensor>> got =
        driveStreams(eng, traffic, tokens);
    row.cacheBytesCopiedPerToken =
        static_cast<double>(eng.stats().cacheBytesCopied - copiedBefore) /
        static_cast<double>(row.decodeRequests);
    for (size_t s = 0; s < got.size(); ++s)
        for (size_t i = 0; i < got[s].size(); ++i)
            row.parity = row.parity && bitEqual(ref[s][i], got[s][i]);

    row.runsSolo = bucketCost(solo, true).runs;
    row.runsCoalesced = bucketCost(eng, true).runs;
    row.runReduction =
        row.runsCoalesced > 0
            ? static_cast<double>(row.runsSolo) / row.runsCoalesced
            : 0;
    row.coalesceRate = eng.stats().coalesceRate;
    row.cacheBytesPerSession = eng.streamCacheBytes();

    std::vector<double> soloUs, sharedUs, prefillUs;
    forRounds([&] {
        BucketCost before = bucketCost(solo, true);
        driveSolo(solo, traffic, tokens);
        soloUs.push_back(usPerToken(solo, true, before));
        before = bucketCost(eng, true);
        BucketCost prefill = bucketCost(eng, false);
        driveStreams(eng, traffic, tokens);
        sharedUs.push_back(usPerToken(eng, true, before));
        prefillUs.push_back(
            usPerToken(eng, false, prefill, row.promptLen));
    });
    row.decodeUsPerTokenSolo = pe::bench::median(soloUs);
    row.decodeUsPerTokenShared = pe::bench::median(sharedUs);
    row.prefillUsPerToken = pe::bench::median(prefillUs);
}

DecodeRow
runScenario(const std::string &scenario, Precision prec, int streams,
            int64_t tokens, const DecoderConfig &cfg)
{
    const StreamPlan traffic = makeTraffic(cfg, streams, tokens);
    DecodeRow row;
    row.scenario = scenario;
    row.streams = streams;
    row.tokens = tokens;
    row.decodeRequests = static_cast<int64_t>(streams) * tokens;

    // Serial reference: coalescing off. Coalesced: all streams in
    // lockstep share decode-bucket runs.
    auto soloStore = std::make_shared<ParamStore>();
    auto solo = makeEngine(soloStore, 0, 1, prec, cfg);
    auto store = std::make_shared<ParamStore>();
    auto eng = makeEngine(store, 20000, 1, prec, cfg);
    measureStreams(row, *solo, *eng, driveSolo(*solo, traffic, tokens),
                   traffic);
    return row;
}

/**
 * Attention-stage microbench: the standalone decode attention chain
 * NetBuilder::attention emits for buildDecoderLM — q [streams, D]
 * split per head against the cached K/V [streams, M, D], the
 * per-stream mask row broadcast per head, and the head merge —
 * compiled with fusion on or off
 * and timed through the bound executor. This is the per-step cost of
 * exactly the ops the FusedAttention rewrite collapses, so
 * fused/unfused is the fusion speedup with the rest of the layer held
 * constant.
 */
struct AttnStage {
    std::unique_ptr<InferenceProgram> prog;
    std::unordered_map<std::string, Tensor> feeds;

    AttnStage(const DecoderConfig &cfg, int64_t streams, bool fused)
    {
        const int64_t L = streams, D = cfg.dim, M = cfg.maxSeq;
        auto store = std::make_shared<ParamStore>();
        Graph g;
        Rng rng(5);
        NetBuilder b(g, rng, store.get());
        int ctx = b.attention(b.input({L, D}, "q"),
                              b.input({L, M, D}, "k"),
                              b.input({L, M, D}, "v"),
                              b.input({L, M}, "mask"), cfg.heads);
        g.markOutput(ctx);
        CompileOptions opt;
        opt.fuse = fused;
        prog = std::make_unique<InferenceProgram>(
            compileInferenceGraph(g, {ctx}, opt, store), store);

        Rng vr(11);
        Tensor qt({L, D}), kt({L, M, D}), vt({L, M, D});
        for (Tensor *t : {&qt, &kt, &vt})
            for (int64_t i = 0; i < t->size(); ++i)
                (*t)[i] = vr.uniform(-1.0f, 1.0f);
        feeds = {{"q", qt},
                 {"k", kt},
                 {"v", vt},
                 {"mask", Tensor::zeros({L, M})}};
        for (int i = 0; i < 50; ++i)
            prog->run(feeds);
    }

    /** Microseconds per step over one round of @p iters runs. */
    double
    usPerStep(int iters)
    {
        auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < iters; ++i)
            prog->run(feeds);
        auto t1 = std::chrono::steady_clock::now();
        return std::chrono::duration<double, std::micro>(t1 - t0)
                   .count() /
               iters;
    }
};

/** Every fused logit within 1e-5 (relative, floored at 1) of the
 *  unfused reference. */
bool
within1e5(const Tensor &a, const Tensor &b)
{
    if (a.shape() != b.shape())
        return false;
    for (int64_t i = 0; i < a.size(); ++i) {
        double scale = std::max(
            1.0, std::max(std::abs(static_cast<double>(a[i])),
                          std::abs(static_cast<double>(b[i]))));
        if (std::abs(static_cast<double>(a[i]) -
                     static_cast<double>(b[i])) > 1e-5 * scale)
            return false;
    }
    return true;
}

/**
 * Decode wall-clock us/token of @p streams lockstep streams of the
 * LLaMA proxy at each cache extent in @p maxSeqs: one engine per
 * extent serves the same traffic over interleaved rounds, and each
 * extent reports its median round. Fewer than 4 streams run
 * uncoalesced (a lone stream would wait the window out), so every run
 * pads up to the bucket-4 plan.
 */
std::vector<double>
maxSeqSweep(const std::vector<int64_t> &maxSeqs, int streams,
            int64_t tokens)
{
    const StreamPlan traffic =
        makeTraffic(llamaProxyCfg(), streams, tokens);
    std::vector<std::unique_ptr<ServingEngine>> engines;
    for (int64_t maxSeq : maxSeqs) {
        engines.push_back(makeEngine(std::make_shared<ParamStore>(),
                                     streams == 4 ? 20000 : 0, 1,
                                     Precision::F32,
                                     llamaProxyCfg().withMaxSeq(maxSeq)));
        driveStreams(*engines.back(), traffic, tokens); // warm-up
    }
    std::vector<std::vector<double>> us(engines.size());
    forRounds([&] {
        for (size_t i = 0; i < engines.size(); ++i) {
            double wall = 0;
            driveStreams(*engines[i], traffic, tokens, &wall);
            us[i].push_back(wall / (streams * tokens));
        }
    });
    std::vector<double> medians;
    for (const auto &u : us)
        medians.push_back(pe::bench::median(u));
    return medians;
}

/**
 * The fused-attention acceptance scenario: the LLaMA-proxy config
 * (heads >= 2) served end to end with the FusedAttention rewrite.
 * Bit parity is fused-coalesced vs fused-serial (the decode_stream
 * contract); the 1e-5 column compares the fused serial run against a
 * second engine compiled with the fusion pass OFF, so the rewrite
 * itself is what is being bounded. Peak-live comes from the two
 * engines' decode-bucket compile reports.
 */
DecodeRow
runLlamaScenario(int64_t tokens)
{
    const DecoderConfig cfg = llamaProxyCfg();
    const int streams = 4;
    const StreamPlan traffic = makeTraffic(cfg, streams, tokens);
    DecodeRow row;
    row.scenario = "llama_proxy_fused";
    row.streams = streams;
    row.tokens = tokens;
    row.decodeRequests = static_cast<int64_t>(streams) * tokens;
    row.heads = cfg.heads;
    row.fusedAttention = 1;

    // Unfused serial reference: fusion pass off end to end.
    auto ustore = std::make_shared<ParamStore>();
    auto unfused =
        makeEngine(ustore, 0, 1, Precision::F32, cfg, false);
    std::vector<std::vector<Tensor>> refU =
        driveSolo(*unfused, traffic, tokens);

    // Fused serial (the bit reference for shared runs) and fused
    // coalesced: lockstep streams share decode-bucket runs.
    auto sstore = std::make_shared<ParamStore>();
    auto solo = makeEngine(sstore, 0, 1, Precision::F32, cfg);
    std::vector<std::vector<Tensor>> refF =
        driveSolo(*solo, traffic, tokens);
    auto store = std::make_shared<ParamStore>();
    auto eng = makeEngine(store, 20000, 1, Precision::F32, cfg);
    measureStreams(row, *solo, *eng, refF, traffic);

    row.parityVsUnfused1e5 = 1;
    for (int s = 0; s < streams; ++s)
        for (size_t i = 0; i < refF[s].size(); ++i)
            if (!within1e5(refF[s][i], refU[s][i]))
                row.parityVsUnfused1e5 = 0;

    // Decode-bucket (batch 4) planned peak-live, fused vs unfused.
    row.peakLiveFused = eng->bucketReport(4).peakLiveBytes;
    row.peakLiveUnfused = unfused->bucketReport(4).peakLiveBytes;

    AttnStage fusedStage(cfg, 4, true), unfusedStage(cfg, 4, false);
    std::vector<double> fusedUs, unfusedUs;
    forRounds([&] {
        fusedUs.push_back(fusedStage.usPerStep(500));
        unfusedUs.push_back(unfusedStage.usPerStep(500));
    });
    row.attnUsFused = pe::bench::median(fusedUs);
    row.attnUsUnfused = pe::bench::median(unfusedUs);
    row.attnSpeedup =
        row.attnUsFused > 0 ? row.attnUsUnfused / row.attnUsFused : 0;

    row.maxSeqSweepUs = maxSeqSweep(kSweepMaxSeq, streams, tokens);
    row.paddedSweepUs = maxSeqSweep(kPaddedMaxSeq, 1, tokens);
    return row;
}

void
printRows(const std::vector<DecodeRow> &rows)
{
    std::printf("\n=== incremental decode (shared bucket runs) ===\n");
    for (const DecodeRow &r : rows) {
        std::printf(
            "%-12s: %lld streams x %lld tokens | decode runs %lld -> "
            "%lld (%.1fx fewer) | rate %.2f | prefill %.1f us/tok, "
            "decode %.1f -> %.1f us/tok | cache %lld KB/session, "
            "%.0f B copied/tok | parity %s\n",
            r.scenario.c_str(), static_cast<long long>(r.streams),
            static_cast<long long>(r.tokens),
            static_cast<long long>(r.runsSolo),
            static_cast<long long>(r.runsCoalesced), r.runReduction,
            r.coalesceRate, r.prefillUsPerToken,
            r.decodeUsPerTokenSolo, r.decodeUsPerTokenShared,
            static_cast<long long>(r.cacheBytesPerSession / 1024),
            r.cacheBytesCopiedPerToken, r.parity ? "EXACT" : "BROKEN");
        if (r.fusedAttention >= 0) {
            std::printf(
                "  fused attention (%lld heads): vs unfused 1e-5 %s | "
                "attn stage %.2f -> %.2f us/step (%.2fx) | decode "
                "peak-live %lld -> %lld bytes\n",
                static_cast<long long>(r.heads),
                r.parityVsUnfused1e5 == 1 ? "OK" : "BROKEN",
                r.attnUsUnfused, r.attnUsFused, r.attnSpeedup,
                static_cast<long long>(r.peakLiveUnfused),
                static_cast<long long>(r.peakLiveFused));
            std::printf("  decode wall us/token by maxSeq:");
            for (size_t i = 0; i < r.maxSeqSweepUs.size(); ++i)
                std::printf(" %lld: %.1f",
                            static_cast<long long>(kSweepMaxSeq[i]),
                            r.maxSeqSweepUs[i]);
            std::printf(" | 1 stream + 3 pad rows:");
            for (size_t i = 0; i < r.paddedSweepUs.size(); ++i)
                std::printf(" %lld: %.1f",
                            static_cast<long long>(kPaddedMaxSeq[i]),
                            r.paddedSweepUs[i]);
            std::printf("\n");
        }
    }
}

/** BENCH_decode.json rows. Parity, run counts and cache bytes are
 *  machine-independent; the us/token columns are median rounds, gated
 *  only as self-normalized ratios. */
bool
saveRows(const std::vector<DecodeRow> &rows, const std::string &path)
{
    pe::bench::JsonRows json;
    for (const DecodeRow &r : rows) {
        json.begin("decode_stream");
        json.field("scenario", r.scenario);
#ifdef NDEBUG
        json.field("build_type", "release");
#else
        json.field("build_type", "debug");
#endif
        json.field("streams", r.streams);
        json.field("prompt_len", r.promptLen);
        json.field("tokens_per_stream", r.tokens);
        json.field("decode_requests", r.decodeRequests);
        json.field("runs_solo", r.runsSolo);
        json.field("runs_coalesced", r.runsCoalesced);
        json.field("run_reduction", r.runReduction);
        json.field("coalesce_rate", r.coalesceRate);
        json.field("cache_bytes_per_session", r.cacheBytesPerSession);
        json.field("cache_bytes_copied_per_token",
                   r.cacheBytesCopiedPerToken);
        json.field("prefill_us_per_token", r.prefillUsPerToken);
        json.field("decode_us_per_token_solo", r.decodeUsPerTokenSolo);
        json.field("decode_us_per_token_shared",
                   r.decodeUsPerTokenShared);
        json.field("parity", static_cast<int64_t>(r.parity ? 1 : 0));
        if (r.fusedAttention >= 0) {
            json.field("heads", r.heads);
            json.field("fused_attention",
                       static_cast<int64_t>(r.fusedAttention));
            json.field("parity_vs_unfused_1e5",
                       static_cast<int64_t>(r.parityVsUnfused1e5));
            json.field("attn_us_per_step_fused", r.attnUsFused);
            json.field("attn_us_per_step_unfused", r.attnUsUnfused);
            json.field("attn_fused_speedup", r.attnSpeedup);
            json.field("peak_live_fused_bytes", r.peakLiveFused);
            json.field("peak_live_unfused_bytes", r.peakLiveUnfused);
            for (size_t i = 0; i < r.maxSeqSweepUs.size(); ++i)
                json.field("decode_wall_us_per_token_maxseq" +
                               std::to_string(kSweepMaxSeq[i]),
                           r.maxSeqSweepUs[i]);
            for (size_t i = 0; i < r.paddedSweepUs.size(); ++i)
                json.field("decode_wall_us_per_token_padded_maxseq" +
                               std::to_string(kPaddedMaxSeq[i]),
                           r.paddedSweepUs[i]);
        }
    }
    return json.save(path);
}

} // namespace

int
main(int argc, char **argv)
{
    // --trace <path>: traced coalesced decode -> Chrome trace whose
    // request lanes (stamped stream/gen) converge into shared runs.
    std::string tracePath;
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--trace") == 0)
            tracePath = argv[i + 1];
    }
    if (!tracePath.empty()) {
        auto store = std::make_shared<ParamStore>();
        auto eng = makeEngine(store, 20000, 1, Precision::F32,
                              benchCfg(), true, true);
        driveStreams(*eng, makeTraffic(benchCfg(), 4, 8), 8);
        ServeStats s = eng->stats();
        std::printf("%s", s.summary().c_str());
        if (!eng->exportChromeTrace(tracePath)) {
            std::fprintf(stderr, "failed to write %s\n",
                         tracePath.c_str());
            return 1;
        }
        std::printf("chrome trace: %s (load in chrome://tracing or "
                    "ui.perfetto.dev)\n",
                    tracePath.c_str());
        std::printf("shared decode runs: %lld served >= 2 stream "
                    "lanes -> %s\n",
                    static_cast<long long>(s.coalescedRuns),
                    s.coalescedRuns >= 1 ? "OK" : "NONE");
        return s.coalescedRuns >= 1 ? 0 : 1;
    }

    const std::string jsonPath =
        pe::bench::jsonPathFromArgs(argc, argv);
    const int64_t tokens =
        jsonPath.empty() && argc > 1 ? std::atoll(argv[1]) : 8;

    std::vector<DecodeRow> rows = {
        runScenario("fp32", Precision::F32, 4, tokens, benchCfg()),
        runScenario("int8", Precision::Int8, 4, tokens, benchCfg()),
        runLlamaScenario(tokens),
    };
    printRows(rows);

    if (!jsonPath.empty()) {
        if (!saveRows(rows, jsonPath)) {
            std::fprintf(stderr, "failed to write %s\n",
                         jsonPath.c_str());
            return 1;
        }
        std::printf("wrote %s\n", jsonPath.c_str());
    }
    for (const DecodeRow &r : rows) {
        if (!r.parity || r.runsCoalesced * 2 > r.runsSolo)
            return 1;
        if (r.fusedAttention >= 0 &&
            (r.parityVsUnfused1e5 != 1 || r.attnSpeedup < 1.5 ||
             r.peakLiveFused >= r.peakLiveUnfused ||
             r.maxSeqSweepUs.back() > 1.5 * r.maxSeqSweepUs.front() ||
             r.paddedSweepUs.back() > 1.5 * r.paddedSweepUs.front()))
            return 1;
    }
    return 0;
}
