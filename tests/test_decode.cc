/**
 * @file
 * KV-cache / incremental-decode tests (ctest label: decode — the CI
 * decode-parity gate's focused pass).
 *
 * Guarantee layers:
 *  1. The cache region's lifetime contract at the executor level:
 *     Storage::Cache values start zeroed and persist across run()
 *     calls, and the row view (Executor::rowsOf) addresses exactly
 *     the rows asked for: a write through it touches nothing else, a
 *     zero-row view is valid, and a view past dim 0 or onto a param,
 *     const or arena value throws.
 *  2. Plans carrying cache values round-trip bit-identically with
 *     ZERO pipeline invocations on load, and a tampered cache-region
 *     extent is rejected at load time (checksum gate for blind
 *     corruption, validateArtifact for resealed tampering).
 *  3. The admission rule is row count alone: decode steps at different
 *     generations may share a run.
 *  4. The generative stream API's lifecycle rules: decode before
 *     prefill, one in-flight request per stream, cache-full streams,
 *     close-while-busy, non-generative engines.
 *  5. The acceptance bar: N concurrent decode streams coalescing into
 *     shared bucket runs produce logits BIT-IDENTICAL to each stream
 *     decoding alone through the same bucket plans — fp32, fp16 and
 *     int8, with streams at one generation or at four — including a
 *     threaded mixed-pace stress run and a schedule that churns streams
 *     across slots, buckets and re-prefills. The KV bytes serving moves
 *     follow the tokens served, not maxSeq.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "frontend/builder.h"
#include "frontend/models.h"
#include "plan/plan.h"
#include "serve/coalescer.h"
#include "serve/serving.h"
#include "testutil.h"

namespace pe {
namespace {

/** Small enough for CI, big enough that every decode step touches
 *  embedding, two cached-attention blocks and the LM head. */
DecoderConfig
smallCfg()
{
    DecoderConfig cfg;
    cfg.vocab = 48;
    cfg.dim = 16;
    cfg.ffDim = 32;
    cfg.layers = 2;
    cfg.maxSeq = 16;
    return cfg;
}

Tensor
tokenRows(const std::vector<float> &toks)
{
    Tensor t({static_cast<int64_t>(toks.size()), 1});
    for (size_t i = 0; i < toks.size(); ++i)
        t[static_cast<int64_t>(i)] = toks[i];
    return t;
}

void
expectBitEqual(const Tensor &a, const Tensor &b, const std::string &what)
{
    ASSERT_EQ(a.shape(), b.shape()) << what;
    EXPECT_EQ(std::memcmp(a.data(), b.data(), sizeof(float) * a.size()),
              0)
        << what << ": values differ";
}

bool
allFinite(const Tensor &t)
{
    for (int64_t i = 0; i < t.size(); ++i)
        if (!std::isfinite(t[i]))
            return false;
    return true;
}

// ---- 1. executor-level cache lifetime --------------------------------

/** Rows [@p row0, @p row0 + @p rows) of cache value @p id, slot
 *  @p slot, as a [rows, D] tensor. */
Tensor
cacheRows(const Executor &ex, ExecContext &ctx, int id, int64_t slot,
          int64_t row0, int64_t rows)
{
    const int64_t d = ex.graph().node(id).shape.back();
    Tensor t({rows, d});
    std::copy_n(ex.rowsOf(ctx, id, slot, 1) + row0 * d, rows * d,
                t.data());
    return t;
}

struct BuiltPrefill {
    std::shared_ptr<ParamStore> store;
    std::unique_ptr<InferenceProgram> prog;
    int kcache = -1; ///< node id of "b0.kcache"
};

BuiltPrefill
makePrefill(int64_t prompt_len)
{
    BuiltPrefill b;
    b.store = std::make_shared<ParamStore>();
    DecoderConfig cfg = smallCfg();
    Rng rng(7);
    ModelSpec m = buildDecoderPrefill(cfg, prompt_len, rng,
                                      b.store.get());
    CompileOptions opt;
    opt.numThreads = 1;
    CompiledGraph c =
        compileInferenceGraph(m.graph, {m.logits}, opt, b.store);
    b.prog = std::make_unique<InferenceProgram>(std::move(c), b.store);
    const Graph &g = b.prog->graph();
    for (int id = 0; id < g.numNodes(); ++id)
        if (g.node(id).op == OpKind::CacheWrite &&
            g.node(id).name == "b0.kcache")
            b.kcache = id;
    return b;
}

TEST(CacheRegion, PersistsAcrossRuns)
{
    const DecoderConfig cfg = smallCfg();
    const int64_t S = 4;
    BuiltPrefill b = makePrefill(S);
    ASSERT_GE(b.kcache, 0) << "prefill graph must carry b0.kcache";
    Executor &ex = b.prog->executor();
    // 2 layers x {k, v} caches of [maxSeq, dim] f32 rows.
    EXPECT_EQ(ex.cacheBytes(),
              cfg.layers * 2 * cfg.maxSeq * cfg.dim *
                  static_cast<int64_t>(sizeof(float)));

    auto ctx = ex.makeContext();
    int xid = ex.inputId("x");
    ASSERT_GE(xid, 0);

    // Fresh sessions start zeroed — rows past the prompt must read
    // as exact zeros (the shared-run parity argument leans on this).
    Tensor fresh = cacheRows(ex, *ctx, b.kcache, 0, 0, cfg.maxSeq);
    for (int64_t i = 0; i < fresh.size(); ++i)
        ASSERT_EQ(fresh[i], 0.0f) << "fresh cache row not zero";

    ex.bindInputById(*ctx, xid, tokenRows({1, 2, 3, 4}));
    ex.run(*ctx);
    Tensor written = cacheRows(ex, *ctx, b.kcache, 0, 0, S);
    bool nonzero = false;
    for (int64_t i = 0; i < written.size(); ++i)
        nonzero = nonzero || written[i] != 0.0f;
    EXPECT_TRUE(nonzero) << "CacheWrite left the prompt rows zero";

    // Rows the graph never writes persist across run(): plant data
    // past the prompt, run again, and it must still be there — run()
    // NEVER re-zeroes the cache region.
    Rng r(31);
    Tensor planted = Tensor::randn({2, cfg.dim}, r);
    float *slot = ex.rowsOf(*ctx, b.kcache, 0, 1);
    std::copy_n(planted.data(), planted.size(), slot + 8 * cfg.dim);
    ex.bindInputById(*ctx, xid, tokenRows({5, 6, 7, 8}));
    ex.run(*ctx);
    expectBitEqual(cacheRows(ex, *ctx, b.kcache, 0, 8, 2), planted,
                   "rows planted past the prompt");

    // A zero-row view is valid, at the start and at the end of dim 0.
    EXPECT_EQ(ex.rowsOf(*ctx, b.kcache, 0, 0), slot);
    EXPECT_EQ(ex.rowsOf(*ctx, b.kcache, 1, 0),
              slot + cfg.maxSeq * cfg.dim);

    // Zeroing one row through the view clears exactly that row.
    std::fill_n(slot + 8 * cfg.dim, cfg.dim, 0.0f);
    Tensor both = cacheRows(ex, *ctx, b.kcache, 0, 8, 2);
    for (int64_t i = 0; i < cfg.dim; ++i) {
        ASSERT_EQ(both[i], 0.0f) << "zeroed row kept data";
        ASSERT_EQ(both[cfg.dim + i], planted[cfg.dim + i])
            << "zeroing one row touched the next";
    }
}

TEST(CacheRegion, RowViewRejectsOutOfBoundsAndSharedStorage)
{
    BuiltPrefill b = makePrefill(4);
    ASSERT_GE(b.kcache, 0);
    Executor &ex = b.prog->executor();
    auto ctx = ex.makeContext();
    const int xid = ex.inputId("x");
    ASSERT_GE(xid, 0);

    // One value of each storage class the view refuses.
    int param = -1, cnst = -1, arena = -1;
    const Graph &g = ex.graph();
    for (int id = 0; id < g.numNodes(); ++id) {
        Storage s = ex.memoryPlan().values[id].storage;
        if (s == Storage::Param && param < 0)
            param = id;
        if (s == Storage::ConstBuf && cnst < 0)
            cnst = id;
        if (s == Storage::Arena && arena < 0)
            arena = id;
    }
    ASSERT_GE(param, 0);
    ASSERT_GE(cnst, 0);
    ASSERT_GE(arena, 0);

    const int64_t xrows = g.node(xid).shape[0]; // 4 prompt rows
    EXPECT_NO_THROW(ex.rowsOf(*ctx, xid, 0, xrows));
    EXPECT_NO_THROW(ex.rowsOf(*ctx, xid, xrows, 0));
    EXPECT_THROW(ex.rowsOf(*ctx, xid, -1, 1), std::runtime_error);
    EXPECT_THROW(ex.rowsOf(*ctx, xid, 1, xrows), std::runtime_error);
    EXPECT_THROW(ex.rowsOf(*ctx, xid, 0, -1), std::runtime_error);
    // The prefill cache is [1, maxSeq, D]: slot 1 is past B.
    EXPECT_THROW(ex.rowsOf(*ctx, b.kcache, 1, 1), std::runtime_error);
    EXPECT_THROW(ex.rowsOf(*ctx, param, 0, 0), std::runtime_error);
    EXPECT_THROW(ex.rowsOf(*ctx, cnst, 0, 0), std::runtime_error);
    EXPECT_THROW(ex.rowsOf(*ctx, arena, 0, 0), std::runtime_error);
    EXPECT_THROW(ex.rowsOf(*ctx, -1, 0, 0), std::runtime_error);
    EXPECT_THROW(ex.rowsOf(*ctx, g.numNodes(), 0, 0),
                 std::runtime_error);
}

// ---- 2. plan round-trip with cache values ----------------------------

TEST(CachePlan, RoundTripBitParityWithZeroPipelineInvocations)
{
    BuiltPrefill b = makePrefill(4);
    std::string blob = serializePlan(b.prog->graph(),
                                     b.prog->executor().exportArtifact(),
                                     b.prog->report(), *b.store);

    PipelineCounters before = pipelineCounters();
    auto loaded = loadPlanFromBytes(blob);
    Tensor x = tokenRows({9, 3, 7, 1});
    Tensor got = loaded->run({{"x", x}})[0];
    PipelineCounters after = pipelineCounters();
    EXPECT_TRUE(before == after)
        << "loading or running a cache plan invoked a compile stage";

    EXPECT_EQ(loaded->executor().cacheBytes(),
              b.prog->executor().cacheBytes())
        << "cache-region extent did not round-trip";

    expectBitEqual(got, b.prog->run({{"x", x}})[0], "loaded logits");

    // The cache CONTENTS round-trip too: run both executors session-
    // style and compare the written rows byte for byte.
    Executor &e1 = b.prog->executor();
    Executor &e2 = loaded->executor();
    auto c1 = e1.makeContext();
    auto c2 = e2.makeContext();
    e1.bindInputById(*c1, e1.inputId("x"), x);
    e2.bindInputById(*c2, e2.inputId("x"), x);
    e1.run(*c1);
    e2.run(*c2);
    expectBitEqual(cacheRows(e1, *c1, b.kcache, 0, 0, 4),
                   cacheRows(e2, *c2, b.kcache, 0, 0, 4),
                   "cache rows after load");
}

TEST(CachePlan, TamperedCacheExtentRejectedAtLoad)
{
    BuiltPrefill b = makePrefill(4);
    ASSERT_GT(b.prog->executor().cacheBytes(), 0);
    std::string blob = serializePlan(b.prog->graph(),
                                     b.prog->executor().exportArtifact(),
                                     b.prog->report(), *b.store);

    size_t mplnOff = 0, mplnBytes = 0;
    for (const PlanSectionInfo &s : planSections(blob)) {
        if (s.tag == "MPLN") {
            mplnOff = static_cast<size_t>(s.offset);
            mplnBytes = static_cast<size_t>(s.bytes);
        }
    }
    ASSERT_GT(mplnBytes, 8u);

    // Blind corruption anywhere in the memory-plan section trips the
    // checksum gate before any payload is interpreted.
    {
        std::string bad = blob;
        bad[mplnOff + mplnBytes / 2] ^= 0x40;
        EXPECT_THROW(loadPlanFromBytes(bad), PlanChecksumError);
    }

    // An attacker who RESEALS the checksums still cannot shrink the
    // cache region under its placements: cacheBytes is the final
    // field of MPLN, and validateArtifact rejects placements that no
    // longer fit inside it.
    {
        std::string bad = blob;
        int64_t zero = 0;
        std::memcpy(&bad[mplnOff + mplnBytes - sizeof(int64_t)], &zero,
                    sizeof(int64_t));
        resealPlan(bad);
        try {
            loadPlanFromBytes(bad);
            FAIL() << "shrunken cache extent must be rejected";
        } catch (const std::exception &e) {
            EXPECT_NE(std::string(e.what()).find("cache"),
                      std::string::npos)
                << "rejection must name the cache region, got: "
                << e.what();
        }
    }
}

// ---- 3. the admission rule --------------------------------------------

TEST(Coalescer, AdmitsByRowCountAlone)
{
    Coalescer co({1, 4}, 100);

    // Rows fit: the packed total may reach the largest bucket.
    EXPECT_TRUE(co.admits(1, 2));
    EXPECT_TRUE(co.admits(3, 1)) << "3+1 exactly fills bucket 4";
    EXPECT_FALSE(co.admits(3, 2)) << "row overflow";
    EXPECT_FALSE(co.admits(4, 1)) << "a full group admits nothing";

    // A request with no rows never joins.
    EXPECT_FALSE(co.admits(0, 0));
    EXPECT_FALSE(co.admits(2, 0));

    // Decode steps are one row each, whatever their generations: four
    // streams at generations 1, 2, 3 and 4 pack one bucket-4 run.
    int64_t group = 1;
    for (int gen = 2; gen <= 4; ++gen) {
        ASSERT_TRUE(co.admits(group, 1)) << "step at generation " << gen;
        ++group;
    }
    EXPECT_TRUE(co.full(group));
    EXPECT_EQ(co.padRows(group), 0);
}

// ---- 4. generative stream API ----------------------------------------

std::vector<std::unordered_map<std::string, Tensor>>
calibFeeds(const DecoderConfig &cfg)
{
    Rng r(11);
    std::vector<std::unordered_map<std::string, Tensor>> out;
    for (int bi = 0; bi < 2; ++bi) {
        const int64_t gen = 4 + bi;
        std::vector<float> toks;
        for (int i = 0; i < 4; ++i)
            toks.push_back(static_cast<float>(r.randint(cfg.vocab)));
        Tensor pos({4, 1});
        Tensor mask({4, cfg.maxSeq});
        for (int64_t i = 0; i < 4; ++i) {
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

struct GenEngine {
    std::shared_ptr<ParamStore> store;
    std::unique_ptr<ServingEngine> engine;
};

/** Prompt bucket {4}, decode bucket {4} by default: every prompt pads
 *  to 4 tokens and solo decode steps pad to the SAME bucket-4 plan
 *  shared runs use — which is what makes the int8 parity comparison
 *  exact (quantization error is deterministic through one plan). */
GenEngine
makeGenEngine(int64_t window_us, int workers,
              Precision prec = Precision::F32,
              DecoderConfig cfg = smallCfg(),
              bool fuse = true, bool force_scalar = false,
              std::vector<int64_t> decode_buckets = {4})
{
    GenEngine ge;
    ge.store = std::make_shared<ParamStore>();
    auto store = ge.store;
    ServeOptions so;
    so.buckets = {4};
    so.decodeBuckets = std::move(decode_buckets);
    so.workers = workers;
    so.coalesceWindowUs = window_us;
    so.queueCapacity = 64;
    so.compile.precision = prec;
    so.compile.fuse = fuse;
    if (prec != Precision::F32)
        so.calibration = calibFeeds(cfg);
    so.decodeFactory = [store, cfg](int64_t streams) {
        Rng r(7);
        ModelSpec m = buildDecoderDecode(cfg, streams, r, store.get());
        return ServedModel{std::move(m.graph), {m.logits}};
    };
    std::optional<test::TierOverride> pin;
    if (force_scalar)
        pin.emplace(SimdTier::Scalar);
    ge.engine = std::make_unique<ServingEngine>(
        [store, cfg](int64_t prompt) {
            Rng r(7);
            ModelSpec m =
                buildDecoderPrefill(cfg, prompt, r, store.get());
            return ServedModel{std::move(m.graph), {m.logits}};
        },
        store, so);
    return ge;
}

TEST(DecodeStreams, TierIsFixedWhenTheEngineIsBuilt)
{
    // Every bucket binds hostSimdTier() once, when the engine builds
    // it: an engine built under TierOverride(Scalar) is scalar in its
    // prompt and decode buckets, and stays so after the guard exits and
    // through prefill and decode runs; an engine built afterwards binds
    // the host's tier.
    auto expectTier = [](const ServingEngine &e, const std::string &want) {
        int prompt = 0, decode = 0;
        for (const BucketStats &b : e.stats().buckets) {
            ++(b.decode ? decode : prompt);
            EXPECT_EQ(b.tier, want)
                << (b.decode ? "decode" : "prompt") << " bucket "
                << b.batch;
        }
        EXPECT_EQ(prompt, 1);
        EXPECT_EQ(decode, 1);
    };

    GenEngine pinned = [] {
        test::TierOverride pin(SimdTier::Scalar);
        return makeGenEngine(0, 1);
    }();
    ServingEngine &e = *pinned.engine;
    expectTier(e, "scalar");
    auto sid = e.openStream();
    e.wait(e.submitPrefill(sid, {{"x", tokenRows({1, 2, 3, 4})}}));
    e.wait(e.submitDecode(sid, {{"x", tokenRows({5})}}));
    expectTier(e, "scalar");

    expectTier(*makeGenEngine(0, 1).engine, simdTierName(hostSimdTier()));
}

TEST(DecodeStreams, LifecycleRules)
{
    const DecoderConfig cfg = smallCfg();
    GenEngine ge = makeGenEngine(0, 1);
    ServingEngine &e = *ge.engine;
    ASSERT_TRUE(e.generative());
    EXPECT_EQ(e.streamCacheBytes(),
              cfg.layers * 2 * cfg.maxSeq * cfg.dim *
                  static_cast<int64_t>(sizeof(float)));
    EXPECT_EQ(e.decodeBucketFor(1), 4);
    EXPECT_EQ(e.decodeBucketFor(5), -1);

    auto sid = e.openStream();
    EXPECT_EQ(e.streamGeneration(sid), 0);

    // Decode needs a completed prefill first.
    EXPECT_THROW(e.submitDecode(sid, {{"x", tokenRows({1})}}),
                 std::runtime_error);

    auto rid = e.submitPrefill(sid, {{"x", tokenRows({1, 2, 3, 4})}});
    std::vector<Tensor> pre = e.wait(rid);
    ASSERT_EQ(pre.size(), 1u);
    EXPECT_EQ(pre[0].shape(), (Shape{4, cfg.vocab}));
    EXPECT_EQ(e.streamGeneration(sid), 4);

    // pos and mask are engine-owned, and a step is one row.
    EXPECT_THROW(e.submitDecode(sid, {{"x", tokenRows({1})},
                                      {"pos", tokenRows({0})}}),
                 std::invalid_argument);
    EXPECT_THROW(e.submitDecode(sid, {{"x", tokenRows({1, 2})}}),
                 std::invalid_argument);

    // Decode to the cache limit, then the stream is full.
    for (int64_t g = 4; g < cfg.maxSeq; ++g) {
        std::vector<Tensor> out =
            e.wait(e.submitDecode(sid, {{"x", tokenRows({5})}}));
        ASSERT_EQ(out.size(), 1u);
        EXPECT_EQ(out[0].shape(), (Shape{1, cfg.vocab}));
        EXPECT_EQ(e.streamGeneration(sid), g + 1);
    }
    EXPECT_THROW(e.submitDecode(sid, {{"x", tokenRows({5})}}),
                 std::runtime_error);

    // Re-prefill restarts the conversation on the same stream.
    e.wait(e.submitPrefill(sid, {{"x", tokenRows({9, 8, 7, 6})}}));
    EXPECT_EQ(e.streamGeneration(sid), 4);

    e.closeStream(sid);
    EXPECT_THROW(e.streamGeneration(sid), std::out_of_range);
    EXPECT_THROW(e.closeStream(sid + 99), std::out_of_range);

    ServeStats st = e.stats();
    EXPECT_EQ(st.streamsOpened, 1);
    EXPECT_EQ(st.prefills, 2);
    EXPECT_EQ(st.decodeSteps, cfg.maxSeq - 4);
}

TEST(DecodeStreams, NonGenerativeEngineRejectsStreamApi)
{
    auto store = std::make_shared<ParamStore>();
    const DecoderConfig cfg = smallCfg();
    ServeOptions so;
    so.buckets = {2};
    so.workers = 1;
    ServingEngine e(
        [&](int64_t b) {
            Rng r(7);
            ModelSpec m = buildDecoderPrefill(cfg, b, r, store.get());
            return ServedModel{std::move(m.graph), {m.logits}};
        },
        store, so);
    EXPECT_FALSE(e.generative());
    EXPECT_EQ(e.streamCacheBytes(), 0);
    EXPECT_THROW(e.openStream(), std::logic_error);
    EXPECT_THROW(e.submitPrefill(1, {{"x", tokenRows({1, 2})}}),
                 std::logic_error);
}

// ---- 5. the acceptance bar: shared-run decode bit-parity --------------

/** One shared-run parity configuration (see runDecodeParity). */
struct ParityCase {
    const char *name = "";
    Precision prec = Precision::F32;
    /** Stream s prefills 1 + s tokens, so the streams decode at four
     *  different generations; otherwise every prompt is 4 tokens. */
    bool mixedGenerations = false;
    bool fuse = true;
    bool forceScalar = false;
    std::vector<int64_t> decodeBuckets = {4};
    int workers = 1;
};

/** Drive N streams for T decode steps: once serially (coalescing off,
 *  one stream at a time), once with all N streams submitted per step
 *  against a coalescing engine — every logit tensor must match BIT FOR
 *  BIT, and the coalesced engine must run each step as one full
 *  bucket run (T decode runs, no pad rows). */
void
runDecodeParity(const ParityCase &pc)
{
    SCOPED_TRACE(pc.name);
    const DecoderConfig cfg = smallCfg();
    const int N = 4;     // streams
    const int64_t T = 6; // decode steps per stream
    Rng r(97);
    std::vector<std::vector<float>> prompts(N), next(N);
    for (int s = 0; s < N; ++s) {
        for (int i = 0; i < (pc.mixedGenerations ? 1 + s : 4); ++i)
            prompts[s].push_back(
                static_cast<float>(r.randint(cfg.vocab)));
        for (int64_t t = 0; t < T; ++t)
            next[s].push_back(
                static_cast<float>(r.randint(cfg.vocab)));
    }
    auto build = [&](int64_t window, int workers) {
        return makeGenEngine(window, workers, pc.prec, cfg, pc.fuse,
                             pc.forceScalar, pc.decodeBuckets);
    };

    // Serial reference: one stream at a time, coalescing disabled.
    std::vector<Tensor> refPrefill(N);
    std::vector<std::vector<Tensor>> refStep(N);
    {
        GenEngine ge = build(0, 1);
        for (int s = 0; s < N; ++s) {
            auto sid = ge.engine->openStream();
            refPrefill[s] = ge.engine->wait(
                ge.engine->submitPrefill(sid, {{"x",
                                                tokenRows(prompts[s])}}))[0];
            for (int64_t t = 0; t < T; ++t)
                refStep[s].push_back(ge.engine->wait(
                    ge.engine->submitDecode(
                        sid, {{"x", tokenRows({next[s][t]})}}))[0]);
            ge.engine->closeStream(sid);
        }
    }

    // Coalesced: all N streams advance in lockstep, so every step's
    // N single-token requests share bucket runs, at one generation or
    // at N different ones.
    GenEngine ge = build(20000, pc.workers);
    ServingEngine &e = *ge.engine;
    std::vector<ServingEngine::StreamId> sids(N);
    std::vector<ServingEngine::RequestId> rids(N);
    for (int s = 0; s < N; ++s)
        sids[s] = e.openStream();
    for (int s = 0; s < N; ++s)
        rids[s] = e.submitPrefill(sids[s],
                                  {{"x", tokenRows(prompts[s])}});
    for (int s = 0; s < N; ++s)
        expectBitEqual(e.wait(rids[s])[0], refPrefill[s],
                       "prefill stream " + std::to_string(s));
    for (int64_t t = 0; t < T; ++t) {
        for (int s = 0; s < N; ++s)
            rids[s] = e.submitDecode(
                sids[s], {{"x", tokenRows({next[s][t]})}});
        for (int s = 0; s < N; ++s)
            expectBitEqual(e.wait(rids[s])[0], refStep[s][t],
                           "stream " + std::to_string(s) + " step " +
                               std::to_string(t));
    }
    for (int s = 0; s < N; ++s)
        e.closeStream(sids[s]);

    // Each lockstep step's N requests fill one bucket-N run, with any
    // worker count: one worker gathers a group at a time, so a second
    // idle worker cannot split the step into two padded runs.
    ServeStats st = e.stats();
    int64_t decodeHits = 0, decodeRuns = 0, decodePad = 0;
    for (const BucketStats &bs : st.buckets)
        if (bs.decode) {
            decodeHits += bs.hits;
            decodeRuns += bs.runs;
            decodePad += bs.paddedRows;
        }
    EXPECT_EQ(decodeHits, static_cast<int64_t>(N) * T);
    EXPECT_EQ(decodeRuns, T);
    EXPECT_EQ(decodePad, 0);
    EXPECT_GE(st.coalescedRuns, 1);
}

TEST(DecodeParity, SharedRunsMatchSerialFp32)
{
    runDecodeParity({"fp32"});
}

TEST(DecodeParity, SharedRunsMatchSerialInt8)
{
    runDecodeParity({"int8", Precision::Int8});
}

/** Streams at four different generations share each step's run: every
 *  row carries its own pos, mask and cache slot. Int8 runs on decode
 *  bucket {4} only — calibration is per bucket, so a {1, 4} serial
 *  reference would run its solo steps through the bucket-1 plan and
 *  legitimately differ. */
TEST(DecodeParity, MixedGenerationsShareRunsAndMatchSerial)
{
    auto mixed = [](const char *name) {
        ParityCase pc;
        pc.name = name;
        pc.mixedGenerations = true;
        return pc;
    };
    std::vector<ParityCase> cases;
    cases.push_back(mixed("fp32 fused"));
    cases.push_back(mixed("fp32 unfused"));
    cases.back().fuse = false;
    cases.push_back(mixed("fp16"));
    cases.back().prec = Precision::F16;
    cases.push_back(mixed("int8"));
    cases.back().prec = Precision::Int8;
    cases.push_back(mixed("fp32 decode buckets {1, 2, 4}"));
    cases.back().decodeBuckets = {1, 2, 4};
    cases.push_back(mixed("fp32 scalar tier"));
    cases.back().forceScalar = true;
    cases.push_back(mixed("fp32 two workers"));
    cases.back().workers = 2;
    for (const ParityCase &pc : cases)
        runDecodeParity(pc);
}

/** Threaded mixed-pace stress: 8 streams driven by 8 client threads
 *  (2 workers, real window) against per-stream serial references.
 *  Streams drift out of lockstep, so groups form opportunistically —
 *  parity must hold no matter how the generations interleave. */
TEST(DecodeParity, ThreadedStreamStressMatchesSerial)
{
    const DecoderConfig cfg = smallCfg();
    const int N = 8;
    const int64_t T = 5;
    Rng r(131);
    std::vector<std::vector<float>> prompts(N), next(N);
    for (int s = 0; s < N; ++s) {
        for (int i = 0; i < 4; ++i)
            prompts[s].push_back(
                static_cast<float>(r.randint(cfg.vocab)));
        for (int64_t t = 0; t < T; ++t)
            next[s].push_back(
                static_cast<float>(r.randint(cfg.vocab)));
    }

    std::vector<Tensor> refPrefill(N);
    std::vector<std::vector<Tensor>> refStep(N);
    {
        GenEngine ge = makeGenEngine(0, 1);
        for (int s = 0; s < N; ++s) {
            auto sid = ge.engine->openStream();
            refPrefill[s] = ge.engine->wait(
                ge.engine->submitPrefill(sid, {{"x",
                                                tokenRows(prompts[s])}}))[0];
            for (int64_t t = 0; t < T; ++t)
                refStep[s].push_back(ge.engine->wait(
                    ge.engine->submitDecode(
                        sid, {{"x", tokenRows({next[s][t]})}}))[0]);
            ge.engine->closeStream(sid);
        }
    }

    GenEngine ge = makeGenEngine(500, 2);
    ServingEngine &e = *ge.engine;
    std::vector<std::thread> clients;
    for (int s = 0; s < N; ++s) {
        clients.emplace_back([&, s] {
            auto sid = e.openStream();
            Tensor pre = e.wait(e.submitPrefill(
                sid, {{"x", tokenRows(prompts[s])}}))[0];
            expectBitEqual(pre, refPrefill[s],
                           "stress prefill " + std::to_string(s));
            for (int64_t t = 0; t < T; ++t) {
                Tensor out = e.wait(e.submitDecode(
                    sid, {{"x", tokenRows({next[s][t]})}}))[0];
                expectBitEqual(out, refStep[s][t],
                               "stress stream " + std::to_string(s) +
                                   " step " + std::to_string(t));
            }
            e.closeStream(sid);
        });
    }
    for (auto &c : clients)
        c.join();

    ServeStats st = e.stats();
    EXPECT_EQ(st.streamsOpened, N);
    EXPECT_EQ(st.decodeSteps, static_cast<int64_t>(N) * T);
    EXPECT_EQ(st.failed, 0);
    EXPECT_EQ(st.completed, st.submitted);
}

/** Slot-invariant parity under churn: decode buckets {1, 4} and a
 *  schedule that moves streams between slots and buckets from step to
 *  step, pads runs (2 or 3 members in bucket 4, whose pad slots then
 *  serve members), runs one stream alone for a long decode and then
 *  re-prefills two streams with shorter prompts, so their next runs
 *  land in slots an earlier run left written far past their
 *  generation. Every output must equal a serial per-stream replay bit
 *  for bit: a slot's rows >= gen must read zero whichever run used it
 *  last. */
TEST(DecodeParity, SlotChurnMatchesSerialReplay)
{
    const int N = 4;
    struct Event {
        std::vector<int> decode; ///< streams stepped, in submit order
        int prefill = -1;        ///< or: the stream (re-)prefilled
        int64_t prompt = 0;
    };
    std::vector<Event> events;
    auto pre = [&](int s, int64_t len) {
        Event e;
        e.prefill = s;
        e.prompt = len;
        events.push_back(e);
    };
    auto step = [&](std::vector<int> ss) {
        Event e;
        e.decode = std::move(ss);
        events.push_back(e);
    };
    for (int s = 0; s < N; ++s)
        pre(s, 4);
    step({0, 1, 2, 3});
    step({3, 2, 1, 0});
    step({1, 3});
    step({2, 0});
    step({2});
    step({0, 3, 1});
    step({1, 2, 0});
    for (int i = 0; i < 5; ++i)
        step({3});
    pre(3, 2);
    pre(1, 2);
    step({3, 1});
    step({3});
    step({1, 0, 2, 3});
    step({0, 2});

    // One feed per (event, stream), fixed up front.
    const DecoderConfig cfg = smallCfg();
    Rng r(151);
    std::vector<std::vector<Tensor>> feed(events.size(),
                                          std::vector<Tensor>(N));
    for (size_t e = 0; e < events.size(); ++e) {
        std::vector<int> who = events[e].decode;
        if (events[e].prefill >= 0)
            who = {events[e].prefill};
        for (int s : who) {
            std::vector<float> toks;
            for (int64_t i = 0; i < std::max<int64_t>(1, events[e].prompt);
                 ++i)
                toks.push_back(static_cast<float>(r.randint(cfg.vocab)));
            feed[e][s] = tokenRows(toks);
        }
    }

    // Serial replay: one stream at a time, coalescing off.
    std::vector<std::vector<Tensor>> ref(N);
    {
        GenEngine ge = makeGenEngine(0, 1, Precision::F32, cfg, true,
                                     false, {1, 4});
        ServingEngine &e = *ge.engine;
        for (int s = 0; s < N; ++s) {
            auto sid = e.openStream();
            for (size_t ev = 0; ev < events.size(); ++ev) {
                const Event &x = events[ev];
                if (x.prefill == s)
                    ref[s].push_back(e.wait(
                        e.submitPrefill(sid, {{"x", feed[ev][s]}}))[0]);
                else if (std::count(x.decode.begin(), x.decode.end(), s))
                    ref[s].push_back(e.wait(
                        e.submitDecode(sid, {{"x", feed[ev][s]}}))[0]);
            }
            e.closeStream(sid);
        }
    }

    GenEngine ge =
        makeGenEngine(10000, 1, Precision::F32, cfg, true, false, {1, 4});
    ServingEngine &e = *ge.engine;
    std::vector<ServingEngine::StreamId> sids(N);
    for (int s = 0; s < N; ++s)
        sids[s] = e.openStream();
    std::vector<std::vector<Tensor>> got(N);
    for (size_t ev = 0; ev < events.size(); ++ev) {
        const Event &x = events[ev];
        if (x.prefill >= 0) {
            got[x.prefill].push_back(e.wait(e.submitPrefill(
                sids[x.prefill], {{"x", feed[ev][x.prefill]}}))[0]);
            continue;
        }
        std::vector<ServingEngine::RequestId> rids;
        for (int s : x.decode)
            rids.push_back(
                e.submitDecode(sids[s], {{"x", feed[ev][s]}}));
        for (size_t i = 0; i < rids.size(); ++i)
            got[x.decode[i]].push_back(e.wait(rids[i])[0]);
    }
    for (int s = 0; s < N; ++s) {
        ASSERT_EQ(got[s].size(), ref[s].size());
        for (size_t i = 0; i < got[s].size(); ++i)
            expectBitEqual(got[s][i], ref[s][i],
                           "stream " + std::to_string(s) + " output " +
                               std::to_string(i));
        e.closeStream(sids[s]);
    }

    // The schedule reached both buckets and padded bucket-4 runs.
    ServeStats st = e.stats();
    EXPECT_EQ(st.failed, 0);
    for (const BucketStats &b : st.buckets) {
        if (!b.decode)
            continue;
        EXPECT_GT(b.runs, 0) << "decode bucket " << b.batch;
        if (b.batch == 4)
            EXPECT_GT(b.paddedRows, 0);
    }
}

TEST(DecodeParity, StaleSlotRowsAreReZeroedBeforeTheNextStream)
{
    // Serving re-zeroes the slot rows [gen, dirty) an earlier stream
    // left. The unfused chain (fuse = false) reads every cache column,
    // and a masked column weighs exactly 0 only while its row is
    // finite. One token's embedding row is NaN, so stream A, which
    // prefills with it and decodes, leaves NaN rows in the one decode
    // slot. Stream B then decodes in that slot at a shorter
    // generation: its outputs must be finite and bit-equal to a
    // serial replay on a fresh engine.
    const DecoderConfig cfg = smallCfg();
    const int64_t poison = 5;
    const std::vector<float> toksB = {9, 10, 11};
    auto serveB = [&](ServingEngine &e) {
        std::vector<Tensor> out;
        auto b = e.openStream();
        out.push_back(
            e.wait(e.submitPrefill(b, {{"x", tokenRows({4, 6})}}))[0]);
        for (float tok : toksB)
            out.push_back(
                e.wait(e.submitDecode(b, {{"x", tokenRows({tok})}}))[0]);
        e.closeStream(b);
        return out;
    };

    std::vector<Tensor> ref;
    {
        GenEngine fresh =
            makeGenEngine(0, 1, Precision::F32, cfg, false, false, {1});
        ref = serveB(*fresh.engine);
    }

    GenEngine ge =
        makeGenEngine(0, 1, Precision::F32, cfg, false, false, {1});
    Tensor &emb = ge.store->get("embed.tok.weight");
    for (int64_t c = 0; c < cfg.dim; ++c)
        emb[poison * cfg.dim + c] = NAN;
    ServingEngine &e = *ge.engine;
    auto a = e.openStream();
    e.wait(e.submitPrefill(
        a, {{"x", tokenRows({static_cast<float>(poison), 1, 2, 3})}}));
    Tensor lastA;
    for (int t = 0; t < 3; ++t) // slot rows [0, 7) now hold NaN
        lastA = e.wait(e.submitDecode(a, {{"x", tokenRows({7})}}))[0];
    ASSERT_FALSE(allFinite(lastA)) << "the poisoned row never reached "
                                      "stream A's cache";
    e.closeStream(a);

    std::vector<Tensor> got = serveB(e);
    ASSERT_EQ(got.size(), ref.size());
    for (size_t i = 0; i < got.size(); ++i) {
        const std::string what = "stream B output " + std::to_string(i);
        EXPECT_TRUE(allFinite(got[i])) << what;
        expectBitEqual(got[i], ref[i], what);
    }
}

/** Cache traffic follows the tokens served, not maxSeq: the same
 *  prompts and steps move the same bytes at maxSeq 64 and 256 — a
 *  prefill scatters its S rows, a decode step at generation g gathers
 *  g rows, re-zeroes the rows an earlier run left past g, and
 *  scatters one. */
TEST(DecodeStreams, CacheBytesCopiedFollowTokensNotMaxSeq)
{
    auto serve = [](int64_t maxSeq) {
        DecoderConfig cfg = smallCfg();
        cfg.maxSeq = maxSeq;
        GenEngine ge = makeGenEngine(0, 1, Precision::F32, cfg);
        ServingEngine &e = *ge.engine;
        auto a = e.openStream();
        e.wait(e.submitPrefill(a, {{"x", tokenRows({1, 2, 3, 4})}}));
        for (int t = 0; t < 5; ++t)
            e.wait(e.submitDecode(a, {{"x", tokenRows({5})}}));
        // A shorter stream reuses the slot stream a left 9 rows deep.
        auto b = e.openStream();
        e.wait(e.submitPrefill(b, {{"x", tokenRows({6, 7})}}));
        for (int t = 0; t < 2; ++t)
            e.wait(e.submitDecode(b, {{"x", tokenRows({8})}}));
        return e.stats();
    };
    ServeStats small = serve(64), large = serve(256);
    EXPECT_EQ(small.cacheBytesCopied, large.cacheBytesCopied);

    // Rows moved: prefill 4, then (g + 1) per step at g = 4..8; prefill
    // 2, step g = 2 over a slot 9 rows deep (9 + 1), step g = 3 (4).
    const DecoderConfig cfg = smallCfg();
    const int64_t rowBytes = cfg.layers * 2 * cfg.dim *
                             static_cast<int64_t>(sizeof(float));
    EXPECT_EQ(large.cacheBytesCopied,
              (4 + 5 + 6 + 7 + 8 + 9 + 2 + 10 + 4) * rowBytes);

    // Both renderings of the snapshot carry the counter.
    const std::string bytes = std::to_string(large.cacheBytesCopied);
    EXPECT_NE(large.json().find("\"cache_bytes_copied\":" + bytes),
              std::string::npos);
    EXPECT_NE(large.summary().find("cache " + bytes + " bytes copied"),
              std::string::npos);
}

/** Decode runs, summed over the decode buckets. */
int64_t
decodeRuns(const ServeStats &st)
{
    int64_t runs = 0;
    for (const BucketStats &bs : st.buckets)
        runs += bs.decode ? bs.runs : 0;
    return runs;
}

/** A pad row is a generation-0 row: it writes only row 0 of its slot,
 *  so a padded run leaves its pad slots dirty to row 1, not maxSeq.
 *  Stream a decodes alone on the bucket-4 engine (3 pad slots), then
 *  a, b, c and d share one step: it gathers each member's rows
 *  [0, gen) and re-zeroes nothing, whatever maxSeq is. */
TEST(DecodeStreams, PadSlotsStayDirtyOnlyToTheRowTheyWrite)
{
    DecoderConfig cfg = smallCfg();
    cfg.maxSeq = 64;
    GenEngine ge = makeGenEngine(20000, 1, Precision::F32, cfg);
    ServingEngine &e = *ge.engine;
    std::vector<ServingEngine::StreamId> sids;
    for (int s = 0; s < 4; ++s) {
        sids.push_back(e.openStream());
        e.wait(e.submitPrefill(sids.back(),
                               {{"x", tokenRows({1, 2, 3, 4})}}));
    }
    e.wait(e.submitDecode(sids[0], {{"x", tokenRows({5})}})); // 3 pad rows

    const ServeStats before = e.stats();
    std::vector<ServingEngine::RequestId> rids;
    for (auto sid : sids)
        rids.push_back(e.submitDecode(sid, {{"x", tokenRows({6})}}));
    for (auto rid : rids)
        e.wait(rid);
    const ServeStats after = e.stats();
    ASSERT_EQ(decodeRuns(after), decodeRuns(before) + 1)
        << "the four decode steps did not share one run";

    // Gathered: stream a at generation 5 (its slot dirty to 5), b, c
    // and d at 4 over pad slots dirty to 1; then one row scattered per
    // member. Pad slots marked dirty to maxSeq would add 3 x 60 rows.
    const int64_t rowBytes = cfg.layers * 2 * cfg.dim *
                             static_cast<int64_t>(sizeof(float));
    EXPECT_EQ(after.cacheBytesCopied - before.cacheBytesCopied,
              (5 + 4 + 4 + 4 + 4) * rowBytes);
}

// ---- 6. multi-head fused attention -----------------------------------
//
// The fused-attention contract, head count by head count:
//  - fuseAttention() collapses every attention subgraph (one per
//    layer) and DCE removes the unfused chain;
//  - the fused scalar kernel is BIT-identical to the unfused scalar
//    subgraph (same dot order, same softmax reduction sequence), and
//    the bound default tier stays inside the 1e-5 fp32 contract;
//  - int8 graphs keep their quantization boundaries (attention is
//    never quantized), so fused int8 serving matches unfused exactly;
//  - fused plans round-trip through serialize/load bit-identically;
//  - the Session handle is byte-equivalent to the raw entry points.

struct BuiltProg {
    std::shared_ptr<ParamStore> store;
    std::unique_ptr<InferenceProgram> prog;
};

BuiltProg
makeDecodeProg(const DecoderConfig &cfg, int64_t streams, bool fused,
               bool force_scalar)
{
    BuiltProg b;
    b.store = std::make_shared<ParamStore>();
    Rng rng(7);
    ModelSpec m = buildDecoderDecode(cfg, streams, rng, b.store.get());
    CompileOptions opt;
    opt.numThreads = 1;
    opt.fuse = fused;
    std::optional<test::TierOverride> pin;
    if (force_scalar)
        pin.emplace(SimdTier::Scalar);
    b.prog = std::make_unique<InferenceProgram>(
        compileInferenceGraph(m.graph, {m.logits}, opt, b.store), b.store);
    return b;
}

BuiltProg
makePrefillProg(const DecoderConfig &cfg, int64_t prompt, bool fused,
                bool force_scalar)
{
    BuiltProg b;
    b.store = std::make_shared<ParamStore>();
    Rng rng(7);
    ModelSpec m = buildDecoderPrefill(cfg, prompt, rng, b.store.get());
    CompileOptions opt;
    opt.numThreads = 1;
    opt.fuse = fused;
    std::optional<test::TierOverride> pin;
    if (force_scalar)
        pin.emplace(SimdTier::Scalar);
    b.prog = std::make_unique<InferenceProgram>(
        compileInferenceGraph(m.graph, {m.logits}, opt, b.store), b.store);
    return b;
}

int
countOps(const Graph &g, OpKind k)
{
    int n = 0;
    for (int id = 0; id < g.numNodes(); ++id)
        if (g.node(id).op == k)
            ++n;
    return n;
}

/** Decode feeds at generation @p gen for @p streams rows: distinct
 *  tokens per row, engine-style pos/mask synthesis. */
std::unordered_map<std::string, Tensor>
decodeFeeds(const DecoderConfig &cfg, int64_t streams, int64_t gen,
            int64_t salt)
{
    std::vector<float> toks;
    for (int64_t s = 0; s < streams; ++s)
        toks.push_back(static_cast<float>((salt + 3 * s + gen) %
                                          cfg.vocab));
    Tensor pos({streams, 1});
    Tensor mask({streams, cfg.maxSeq});
    for (int64_t s = 0; s < streams; ++s) {
        pos[s] = static_cast<float>(gen);
        for (int64_t j = 0; j < cfg.maxSeq; ++j)
            mask[s * cfg.maxSeq + j] = j <= gen ? 0.0f : kMaskedScore;
    }
    return {{"x", tokenRows(toks)},
            {"pos", std::move(pos)},
            {"mask", std::move(mask)}};
}

void
expectWithin(const Tensor &a, const Tensor &b, double tol,
             const std::string &what)
{
    ASSERT_EQ(a.shape(), b.shape()) << what;
    for (int64_t i = 0; i < a.size(); ++i) {
        double ref = std::abs(static_cast<double>(b[i]));
        ASSERT_NEAR(a[i], b[i], tol * std::max(1.0, ref))
            << what << " at " << i;
    }
}

TEST(FusedAttention, PassCollapsesEveryLayerAndDceRemovesTheChain)
{
    for (int64_t heads : {1, 2, 4}) {
        DecoderConfig cfg = smallCfg().withHeads(heads);
        BuiltProg fused = makeDecodeProg(cfg, 4, true, true);
        BuiltProg plain = makeDecodeProg(cfg, 4, false, true);
        const Graph &fg = fused.prog->graph();
        EXPECT_EQ(countOps(fg, OpKind::FusedAttention), cfg.layers)
            << heads << " heads: one FusedAttention per layer";
        EXPECT_EQ(countOps(fg, OpKind::Softmax), 0)
            << heads << " heads: unfused softmax left behind";
        EXPECT_EQ(countOps(plain.prog->graph(), OpKind::FusedAttention),
                  0)
            << "fuse=false must build the unfused reference";
        EXPECT_EQ(countOps(plain.prog->graph(), OpKind::Softmax),
                  cfg.layers);
    }
}

TEST(FusedAttention, HeadSplitSinksIntoKernelAndShrinksPeakLive)
{
    // Prefill and decode at every head count: the pass must sink the
    // Q/K/V head splits (reshape -> permute -> reshape), the mask
    // broadcast and the head merge into the op, so the fused graph
    // holds NO materialized per-head copies — that is what puts the
    // fused plan's peak-live strictly below the unfused plan's, where
    // K's copy dies before V's is built. Fusing before constant
    // folding keeps the prefill's causal mask one [S, maxSeq] Const
    // instead of H folded copies.
    const int64_t S = 6;
    for (int64_t heads : {1, 2, 4}) {
        DecoderConfig cfg = smallCfg().withHeads(heads);
        for (bool decode : {false, true}) {
            std::string what = std::to_string(heads) + " heads, " +
                               (decode ? "decode" : "prefill");
            BuiltProg fused = decode ? makeDecodeProg(cfg, 4, true, true)
                                     : makePrefillProg(cfg, S, true, true);
            BuiltProg plain = decode
                                  ? makeDecodeProg(cfg, 4, false, true)
                                  : makePrefillProg(cfg, S, false, true);
            const Graph &fg = fused.prog->graph();
            EXPECT_EQ(countOps(fg, OpKind::FusedAttention), cfg.layers)
                << what;
            EXPECT_EQ(countOps(fg, OpKind::Permute), 0)
                << what << ": head split or merge not sunk";
            EXPECT_EQ(countOps(fg, OpKind::BroadcastTo), 0)
                << what << ": mask broadcast not sunk";
            for (int id = 0; id < fg.numNodes(); ++id) {
                const Node &n = fg.node(id);
                if (n.op == OpKind::FusedAttention)
                    EXPECT_EQ(n.attrs.getInt("heads", 0), heads) << what;
                if (n.op == OpKind::Const)
                    EXPECT_LE(numel(n.shape), S * cfg.maxSeq)
                        << what << ": Const " << n.name << " "
                        << shapeToString(n.shape);
            }
            EXPECT_LT(fused.prog->report().peakLiveBytes,
                      plain.prog->report().peakLiveBytes)
                << what << ": fused must plan below unfused";
        }
    }
}

TEST(FusedAttention, UnfusedChainsAreCounted)
{
    // Every decoder attention chain fuses: prefill and decode report
    // no miss at any head count.
    for (int64_t heads : {1, 2, 4}) {
        DecoderConfig cfg = smallCfg().withHeads(heads);
        for (bool decode : {false, true}) {
            BuiltProg b = decode ? makeDecodeProg(cfg, 4, true, false)
                                 : makePrefillProg(cfg, 5, true, false);
            EXPECT_EQ(b.prog->report().attentionUnfused, 0)
                << heads << " heads, " << (decode ? "decode" : "prefill");
        }
    }
    // A chain outside the one form is declined and counted: here the
    // graph also returns the attention probabilities, so the Softmax
    // is not single-use. One such chain per mask form (none, shared
    // [S,M], per-row [L*S,M]); without the extra output all three
    // fuse.
    const int64_t L = 2, S = 3, M = 5, D = 8;
    for (bool exportProbs : {true, false}) {
        auto store = std::make_shared<ParamStore>();
        Rng rng(3);
        Graph g;
        NetBuilder b(g, rng, store.get());
        int q = b.input({L * S, D}, "q");
        int k = b.input({L, M, D}, "k");
        int v = b.input({L, M, D}, "v");
        std::vector<int> outs = {
            b.attention(q, k, v, -1, 2),
            b.attention(q, k, v, b.input({S, M}, "shared"), 2),
            b.attention(q, k, v, b.input({L * S, M}, "rows"), 2)};
        for (int id = 0; exportProbs && id < g.numNodes(); ++id)
            if (g.node(id).op == OpKind::Softmax)
                outs.push_back(id);
        for (int o : outs)
            g.markOutput(o);
        InferenceProgram p =
            compileInference(g, outs, CompileOptions{}, store);
        SCOPED_TRACE(exportProbs ? "probabilities exported" : "plain");
        EXPECT_EQ(p.report().attentionUnfused, exportProbs ? 3 : 0);
        EXPECT_EQ(countOps(p.graph(), OpKind::FusedAttention),
                  exportProbs ? 0 : 3);
        EXPECT_EQ(countOps(p.graph(), OpKind::Softmax), exportProbs ? 3 : 0);

        // The count is carried in the plan's report section.
        std::string blob =
            serializePlan(p.graph(), p.executor().exportArtifact(),
                          p.report(), *store);
        EXPECT_EQ(loadPlanFromBytes(blob)->report().attentionUnfused,
                  exportProbs ? 3 : 0);
    }
}

/** One inference compile of a built-in encoder or decoder model at
 *  the proxy shape (2 layers, dim 32, 4 heads, batch 2, seq 16). */
struct ZooProg {
    std::string name;
    std::shared_ptr<ParamStore> store = std::make_shared<ParamStore>();
    std::unique_ptr<InferenceProgram> prog;
    int64_t layers = 2;
};

std::vector<ZooProg>
zooProgs(bool fuse, bool force_scalar)
{
    NlpConfig nc;
    nc.batch = 2;
    nc.seqLen = 16;
    nc.dim = 32;
    nc.heads = 4;
    nc.ffDim = 64;
    nc.layers = 2;
    LlamaConfig lc;
    lc.batch = 2;
    lc.seqLen = 16;
    lc.dim = 32;
    lc.heads = 4;
    lc.ffDim = 64;
    lc.layers = 2;
    std::vector<ZooProg> out(3);
    out[0].name = "bert";
    out[1].name = "llama";
    out[2].name = "llama-lora4";
    CompileOptions opt;
    opt.fuse = fuse;
    std::optional<test::TierOverride> pin;
    if (force_scalar)
        pin.emplace(SimdTier::Scalar);
    for (size_t i = 0; i < out.size(); ++i) {
        Rng rng(9);
        ModelSpec m = i == 0 ? buildBert(nc, rng, out[i].store.get())
                             : buildLlama(lc, rng, out[i].store.get(),
                                          i == 2 ? 4 : 0);
        out[i].prog = std::make_unique<InferenceProgram>(
            compileInferenceGraph(m.graph, {m.logits}, opt, out[i].store),
            out[i].store);
    }
    return out;
}

std::unordered_map<std::string, Tensor>
zooFeeds()
{
    Tensor ids({2, 16});
    for (int64_t i = 0; i < ids.size(); ++i)
        ids[i] = static_cast<float>((7 * i + 3) % 97);
    return {{"x", ids}};
}

TEST(FusedAttention, BuiltInModelsFuseEveryLayer)
{
    // BERT (no mask), LLaMA (shared [S,S] causal mask) and LLaMA with
    // LoRA q/v adapters all emit NetBuilder::attention: their
    // inference compiles hold one FusedAttention per layer and no
    // head-split copy, with scalar logits bit-equal to the unfused
    // compile and the default tier within 1e-5.
    auto feeds = zooFeeds();
    std::vector<ZooProg> fused = zooProgs(true, true);
    std::vector<ZooProg> plain = zooProgs(false, true);
    std::vector<ZooProg> fusedT = zooProgs(true, false);
    std::vector<ZooProg> plainT = zooProgs(false, false);
    for (size_t i = 0; i < fused.size(); ++i) {
        SCOPED_TRACE(fused[i].name);
        const InferenceProgram &p = *fused[i].prog;
        EXPECT_EQ(p.report().attentionUnfused, 0);
        EXPECT_EQ(countOps(p.graph(), OpKind::FusedAttention),
                  fused[i].layers);
        EXPECT_EQ(countOps(p.graph(), OpKind::Permute), 0);
        EXPECT_EQ(countOps(p.graph(), OpKind::Softmax), 0);
        EXPECT_EQ(countOps(plain[i].prog->graph(), OpKind::FusedAttention),
                  0);
        expectBitEqual(fused[i].prog->run(feeds)[0],
                       plain[i].prog->run(feeds)[0], "scalar logits");
        expectWithin(fusedT[i].prog->run(feeds)[0],
                     plainT[i].prog->run(feeds)[0], 1e-5,
                     "default-tier logits");
    }
    // BERT has no mask: its FusedAttention takes three inputs.
    for (int id = 0; id < fused[0].prog->graph().numNodes(); ++id) {
        const Node &n = fused[0].prog->graph().node(id);
        if (n.op == OpKind::FusedAttention)
            EXPECT_EQ(n.inputs.size(), 3u);
    }
}

TEST(FusedAttention, MultiHeadDecodeParityScalarBitExactDefaultTier1e5)
{
    const int64_t B = 4;
    for (int64_t heads : {1, 2, 4}) {
        DecoderConfig cfg = smallCfg().withHeads(heads);
        // Scalar tier: the fused kernel replicates the unfused chain's
        // dot order and softmax reduction, so parity is BIT-exact.
        BuiltProg fused = makeDecodeProg(cfg, B, true, true);
        BuiltProg plain = makeDecodeProg(cfg, B, false, true);
        for (int64_t gen : {0, 3, 9}) {
            auto feeds = decodeFeeds(cfg, B, gen, heads);
            expectBitEqual(fused.prog->run(feeds)[0],
                           plain.prog->run(feeds)[0],
                           std::to_string(heads) + " heads, gen " +
                               std::to_string(gen) + " (scalar)");
        }
        // Default tier (AVX2/NEON when the host has it): the fp32
        // kernel contract is 1e-5 relative.
        BuiltProg fusedT = makeDecodeProg(cfg, B, true, false);
        BuiltProg plainT = makeDecodeProg(cfg, B, false, false);
        for (int64_t gen : {0, 9}) {
            auto feeds = decodeFeeds(cfg, B, gen, heads);
            expectWithin(fusedT.prog->run(feeds)[0],
                         plainT.prog->run(feeds)[0], 1e-5,
                         std::to_string(heads) + " heads, gen " +
                             std::to_string(gen) + " (tier)");
        }
    }
}

TEST(FusedAttention, MultiHeadPrefillParity)
{
    const int64_t S = 6;
    for (int64_t heads : {1, 2, 4}) {
        DecoderConfig cfg = smallCfg().withHeads(heads);
        BuiltProg fused = makePrefillProg(cfg, S, true, true);
        BuiltProg plain = makePrefillProg(cfg, S, false, true);
        auto feeds = std::unordered_map<std::string, Tensor>{
            {"x", tokenRows({1, 5, 9, 2, 7, 4})}};
        expectBitEqual(fused.prog->run(feeds)[0],
                       plain.prog->run(feeds)[0],
                       std::to_string(heads) + "-head prefill");
        EXPECT_EQ(countOps(fused.prog->graph(),
                           OpKind::FusedAttention),
                  cfg.layers);
    }
}

TEST(FusedAttention, Int8BoundariesUnchangedFusedMatchesUnfused)
{
    // Attention is never quantized (QuantizePass does not touch
    // FusedAttention, exactly as it never touched BatchMatMul or
    // Softmax), so an int8 graph's quantization boundaries are
    // identical with and without the fusion — fused int8 serving must
    // match unfused int8 serving bit for bit on the scalar tier.
    DecoderConfig cfg = smallCfg().withHeads(2);
    GenEngine fused =
        makeGenEngine(0, 1, Precision::Int8, cfg, true, true);
    GenEngine plain =
        makeGenEngine(0, 1, Precision::Int8, cfg, false, true);
    Session sf = fused.engine->session();
    Session sp = plain.engine->session();
    expectBitEqual(sf.prefill({{"x", tokenRows({3, 1, 4, 1})}})[0],
                   sp.prefill({{"x", tokenRows({3, 1, 4, 1})}})[0],
                   "int8 prefill fused vs unfused");
    for (int t = 0; t < 4; ++t) {
        float tok = static_cast<float>(5 + t);
        expectBitEqual(sf.decode({{"x", tokenRows({tok})}})[0],
                       sp.decode({{"x", tokenRows({tok})}})[0],
                       "int8 decode step " + std::to_string(t));
    }
}

TEST(FusedAttention, FusedPlanRoundTripsBitIdentically)
{
    DecoderConfig cfg = smallCfg().withHeads(2);
    // Default tier on both sides: the loaded plan binds at the host
    // tier, so the source program must too for bit comparison. One
    // decode bucket (per-row mask), one prefill bucket (shared mask)
    // and a BERT encoder (no mask: three-input FusedAttention).
    BuiltProg dec = makeDecodeProg(cfg, 4, true, false);
    BuiltProg pre = makePrefillProg(cfg, 6, true, false);
    ZooProg zoo = std::move(zooProgs(true, false)[0]);
    BuiltProg bert{zoo.store, std::move(zoo.prog)};
    std::vector<std::pair<BuiltProg *,
                          std::unordered_map<std::string, Tensor>>>
        cases = {{&dec, decodeFeeds(cfg, 4, 2, 17)},
                 {&pre, {{"x", tokenRows({4, 8, 15, 16, 23, 42})}}},
                 {&bert, zooFeeds()}};
    for (auto &[b, feeds] : cases) {
        std::string blob = serializePlan(
            b->prog->graph(), b->prog->executor().exportArtifact(),
            b->prog->report(), *b->store);

        PipelineCounters before = pipelineCounters();
        auto loaded = loadPlanFromBytes(blob);
        Tensor got = loaded->run(feeds)[0];
        PipelineCounters after = pipelineCounters();
        EXPECT_TRUE(before == after)
            << "loading a fused plan invoked a compile stage";

        EXPECT_EQ(countOps(loaded->graph(), OpKind::FusedAttention),
                  cfg.layers)
            << "FusedAttention nodes must survive the round trip";
        expectBitEqual(got, b->prog->run(feeds)[0],
                       b == &pre   ? "loaded fused prefill logits"
                       : b == &dec ? "loaded fused decode logits"
                                   : "loaded fused BERT logits");
    }
}

// ---- 7. the unified Session API --------------------------------------

TEST(SessionApi, ByteIdenticalToRawEntryPoints)
{
    DecoderConfig cfg = smallCfg().withHeads(2);
    GenEngine a = makeGenEngine(0, 1, Precision::F32, cfg);
    GenEngine b = makeGenEngine(0, 1, Precision::F32, cfg);

    // Raw entry points on engine A...
    ServingEngine &ea = *a.engine;
    auto sid = ea.openStream();
    Tensor rawPre = ea.wait(
        ea.submitPrefill(sid, {{"x", tokenRows({2, 7, 1, 8})}}))[0];
    std::vector<Tensor> rawSteps;
    for (int t = 0; t < 3; ++t)
        rawSteps.push_back(ea.wait(ea.submitDecode(
            sid, {{"x", tokenRows({static_cast<float>(t + 1)})}}))[0]);
    Tensor rawShot =
        ea.wait(ea.submit({{"x", tokenRows({6, 5, 4, 3})}}))[0];

    // ...and the Session surface on the identically-seeded engine B
    // must produce byte-identical tensors.
    Session s = b.engine->session();
    EXPECT_EQ(s.stream(), 0u) << "stream opens lazily on prefill";
    EXPECT_EQ(s.generation(), 0);
    expectBitEqual(s.prefill({{"x", tokenRows({2, 7, 1, 8})}})[0],
                   rawPre, "session prefill");
    EXPECT_NE(s.stream(), 0u);
    EXPECT_EQ(s.generation(), 4);
    for (int t = 0; t < 3; ++t)
        expectBitEqual(
            s.decode({{"x", tokenRows({static_cast<float>(t + 1)})}})[0],
            rawSteps[static_cast<size_t>(t)],
            "session decode step " + std::to_string(t));
    expectBitEqual(s.run({{"x", tokenRows({6, 5, 4, 3})}})[0], rawShot,
                   "session one-shot run");

    // close() releases the stream; the handle can start over.
    auto old = s.stream();
    s.close();
    EXPECT_EQ(s.stream(), 0u);
    EXPECT_THROW(b.engine->streamGeneration(old), std::out_of_range);
    expectBitEqual(s.prefill({{"x", tokenRows({2, 7, 1, 8})}})[0],
                   rawPre, "session prefill after close");

    ea.closeStream(sid);
}

TEST(SessionApi, DecodeBeforePrefillThrows)
{
    GenEngine ge = makeGenEngine(0, 1);
    Session s = ge.engine->session();
    EXPECT_THROW(s.decode({{"x", tokenRows({1})}}), std::logic_error);

    // Moving the handle transfers stream ownership.
    s.prefill({{"x", tokenRows({1, 2, 3, 4})}});
    auto sid = s.stream();
    Session t = std::move(s);
    EXPECT_EQ(t.stream(), sid);
    EXPECT_EQ(s.stream(), 0u); // NOLINT(bugprone-use-after-move)
    t.close();
}

// ---- 8. validated builder setters ------------------------------------

TEST(BuilderSetters, RejectBadValuesNamingTheOffendingField)
{
    auto expectNames = [](const std::function<void()> &f,
                          const std::string &field) {
        try {
            f();
            FAIL() << "expected invalid_argument naming " << field;
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(field),
                      std::string::npos)
                << "error must name " << field << ", got: " << e.what();
        }
    };

    DecoderConfig cfg;
    cfg.withDim(16).withHeads(4).withLayers(2).withMaxSeq(32).withVocab(
        64);
    EXPECT_EQ(cfg.dim, 16);
    EXPECT_EQ(cfg.heads, 4);
    expectNames([&] { cfg.withHeads(3); }, "heads");
    expectNames([&] { cfg.withHeads(0); }, "heads");
    expectNames([&] { cfg.withDim(30); }, "dim"); // 30 % 4 != 0
    expectNames([&] { cfg.withLayers(0); }, "layers");
    expectNames([&] { cfg.withMaxSeq(-1); }, "maxSeq");
    expectNames([&] { cfg.withVocab(0); }, "vocab");
    expectNames([&] { cfg.withFfDim(0); }, "ffDim");
    EXPECT_EQ(cfg.heads, 4) << "rejected setter must not mutate";

    ServeOptions so;
    so.withBuckets({4, 1}).withWorkers(3).withCoalesceWindow(250)
        .withQueueCapacity(16);
    EXPECT_EQ(so.workers, 3);
    EXPECT_EQ(so.coalesceWindowUs, 250);
    EXPECT_EQ(so.queueCapacity, 16u);
    expectNames([&] { so.withWorkers(0); }, "workers");
    expectNames([&] { so.withCoalesceWindow(-5); }, "coalesceWindowUs");
    expectNames([&] { so.withQueueCapacity(0); }, "queueCapacity");
    expectNames([&] { so.withBuckets({}); }, "buckets");
    expectNames([&] { so.withBuckets({4, 0}); }, "buckets");
    expectNames([&] { so.withDecodeBuckets({-2}); }, "decodeBuckets");
    EXPECT_EQ(so.workers, 3) << "rejected setter must not mutate";

    // A field assigned directly fails the same way, when the engine is
    // built and before any bucket compiles.
    auto engineWith = [](const std::function<void(ServeOptions &)> &set) {
        return [set] {
            ServeOptions raw;
            set(raw);
            ServingEngine e(
                [](int64_t) -> ServedModel {
                    throw std::logic_error("options were not validated");
                },
                nullptr, raw);
        };
    };
    expectNames(engineWith([](ServeOptions &o) { o.workers = 0; }),
                "workers");
    expectNames(engineWith([](ServeOptions &o) { o.buckets = {}; }),
                "buckets");
    expectNames(engineWith([](ServeOptions &o) { o.decodeBuckets = {0}; }),
                "decodeBuckets");
    expectNames(engineWith([](ServeOptions &o) { o.queueCapacity = 0; }),
                "queueCapacity");
    expectNames(
        engineWith([](ServeOptions &o) { o.coalesceWindowUs = -1; }),
        "coalesceWindowUs");
}

} // namespace
} // namespace pe
