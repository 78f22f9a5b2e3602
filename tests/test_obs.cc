/**
 * @file
 * Observability tests (ctest label: obs — the TSan job runs this
 * suite standalone, since traced serving is concurrent recording by
 * construction).
 *
 * Guarantee layers:
 *  1. TraceBuffer ring semantics: fixed capacity, overflow keeps the
 *     newest spans, dropped() makes the loss visible, snapshot()
 *     unrolls oldest-first.
 *  2. Executor tracing: step spans describe the compiled program
 *     (step order, ops, variants, run ids), shard spans nest inside
 *     their step's wall interval with contiguous ranges, and arming
 *     a trace never perturbs results (bit-parity with the untraced
 *     path).
 *  3. Profile aggregation: profileTrace folds runs x steps exactly,
 *     time shares sum to 1, and the JSON rendering is well-formed.
 *  4. Chrome export: the Trace Event JSON parses with an in-test
 *     JSON parser (no deps) and carries the expected tracks.
 *  5. Serving metrics: metricsJson()'s bucket hit counts and latency
 *     histograms account for every completed request, and polling is
 *     safe against live traffic.
 *  6. The acceptance bar: a 4-worker x 64-request traced coalescing
 *     stress exports a trace in which at least one run span is
 *     shared by >= 2 request lanes (the converging-lanes rendering).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "frontend/builder.h"
#include "obs/chrome.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "passes/passes.h"
#include "runtime/executor.h"
#include "serve/serving.h"

namespace pe {
namespace {

// ---- minimal in-test JSON parser -------------------------------------
// Just enough JSON to prove well-formedness and walk the documents the
// obs layer emits (objects, arrays, strings, numbers, bools, null).
// Deliberately dependency-free: the repo must not grow a JSON library
// for its tests.

struct Json {
    enum class T { Null, Bool, Num, Str, Arr, Obj };
    T t = T::Null;
    bool b = false;
    double num = 0;
    std::string str;
    std::vector<Json> arr;
    std::vector<std::pair<std::string, Json>> obj;

    const Json *
    find(const std::string &key) const
    {
        for (const auto &kv : obj)
            if (kv.first == key)
                return &kv.second;
        return nullptr;
    }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string &s) : s_(s) {}

    bool
    parse(Json &out)
    {
        skipWs();
        if (!value(out))
            return false;
        skipWs();
        return pos_ == s_.size(); // no trailing garbage
    }

  private:
    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                s_[pos_] == '\n' || s_[pos_] == '\r'))
            ++pos_;
    }

    bool
    literal(const char *lit)
    {
        size_t n = std::strlen(lit);
        if (s_.compare(pos_, n, lit) != 0)
            return false;
        pos_ += n;
        return true;
    }

    bool
    string(std::string &out)
    {
        if (pos_ >= s_.size() || s_[pos_] != '"')
            return false;
        ++pos_;
        out.clear();
        while (pos_ < s_.size()) {
            char c = s_[pos_++];
            if (c == '"')
                return true;
            if (c == '\\') {
                if (pos_ >= s_.size())
                    return false;
                char e = s_[pos_++];
                switch (e) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'n': out += '\n'; break;
                case 'r': out += '\r'; break;
                case 't': out += '\t'; break;
                case 'u':
                    if (pos_ + 4 > s_.size())
                        return false;
                    // Escaped code point: validate the hex, keep a
                    // placeholder (the tests never match on one).
                    for (int i = 0; i < 4; ++i)
                        if (!std::isxdigit(
                                static_cast<unsigned char>(s_[pos_ + i])))
                            return false;
                    pos_ += 4;
                    out += '?';
                    break;
                default: return false;
                }
            } else {
                out += c;
            }
        }
        return false; // unterminated
    }

    bool
    number(double &out)
    {
        size_t start = pos_;
        if (pos_ < s_.size() && s_[pos_] == '-')
            ++pos_;
        size_t digits = pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                s_[pos_] == '+' || s_[pos_] == '-'))
            ++pos_;
        if (pos_ == digits)
            return false;
        try {
            out = std::stod(s_.substr(start, pos_ - start));
        } catch (...) {
            return false;
        }
        return true;
    }

    bool
    value(Json &out)
    {
        skipWs();
        if (pos_ >= s_.size())
            return false;
        char c = s_[pos_];
        if (c == '{') {
            ++pos_;
            out.t = Json::T::Obj;
            skipWs();
            if (pos_ < s_.size() && s_[pos_] == '}') {
                ++pos_;
                return true;
            }
            while (true) {
                skipWs();
                std::string key;
                if (!string(key))
                    return false;
                skipWs();
                if (pos_ >= s_.size() || s_[pos_++] != ':')
                    return false;
                Json v;
                if (!value(v))
                    return false;
                out.obj.emplace_back(std::move(key), std::move(v));
                skipWs();
                if (pos_ >= s_.size())
                    return false;
                if (s_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                if (s_[pos_] == '}') {
                    ++pos_;
                    return true;
                }
                return false;
            }
        }
        if (c == '[') {
            ++pos_;
            out.t = Json::T::Arr;
            skipWs();
            if (pos_ < s_.size() && s_[pos_] == ']') {
                ++pos_;
                return true;
            }
            while (true) {
                Json v;
                if (!value(v))
                    return false;
                out.arr.push_back(std::move(v));
                skipWs();
                if (pos_ >= s_.size())
                    return false;
                if (s_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                if (s_[pos_] == ']') {
                    ++pos_;
                    return true;
                }
                return false;
            }
        }
        if (c == '"') {
            out.t = Json::T::Str;
            return string(out.str);
        }
        if (c == 't') {
            out.t = Json::T::Bool;
            out.b = true;
            return literal("true");
        }
        if (c == 'f') {
            out.t = Json::T::Bool;
            out.b = false;
            return literal("false");
        }
        if (c == 'n') {
            out.t = Json::T::Null;
            return literal("null");
        }
        out.t = Json::T::Num;
        return number(out.num);
    }

    const std::string &s_;
    size_t pos_ = 0;
};

bool
parseJson(const std::string &s, Json &out)
{
    return JsonParser(s).parse(out);
}

TEST(JsonParser, AcceptsTheGrammarItClaims)
{
    Json j;
    ASSERT_TRUE(parseJson(
        R"({"a":[1,-2.5,"x\n",true,null],"b":{"c":1e3}})", j));
    ASSERT_NE(j.find("a"), nullptr);
    EXPECT_EQ(j.find("a")->arr.size(), 5u);
    EXPECT_DOUBLE_EQ(j.find("b")->find("c")->num, 1000.0);
    EXPECT_FALSE(parseJson("{\"a\":}", j));
    EXPECT_FALSE(parseJson("[1,2", j));
    EXPECT_FALSE(parseJson("{} trailing", j));
}

// ---- fixtures --------------------------------------------------------

/** The served model family (same shape as test_serve's): parameter
 *  names are batch-independent so every bucket binds one store. */
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

TraceSpan
spanWithNode(int node)
{
    TraceSpan s;
    s.node = node;
    return s;
}

// ---- 1. TraceBuffer ring semantics -----------------------------------

TEST(TraceRing, OverflowKeepsNewestAndCountsDrops)
{
    TraceBuffer tb(4);
    EXPECT_EQ(tb.capacity(), 4u);
    for (int i = 0; i < 6; ++i)
        tb.record(spanWithNode(i));
    EXPECT_EQ(tb.size(), 4u);
    EXPECT_EQ(tb.recorded(), 6);
    EXPECT_EQ(tb.dropped(), 2);
    std::vector<TraceSpan> got = tb.snapshot();
    ASSERT_EQ(got.size(), 4u);
    // Oldest-first: 0 and 1 were overwritten, 2..5 survive in order.
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(got[i].node, i + 2) << "slot " << i;
}

TEST(TraceRing, BelowCapacityIsLossless)
{
    TraceBuffer tb(8);
    for (int i = 0; i < 5; ++i)
        tb.record(spanWithNode(i));
    EXPECT_EQ(tb.size(), 5u);
    EXPECT_EQ(tb.dropped(), 0);
    std::vector<TraceSpan> got = tb.snapshot();
    ASSERT_EQ(got.size(), 5u);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(got[i].node, i);
}

TEST(TraceRing, ZeroCapacityClampsToOneSlot)
{
    TraceBuffer tb(0);
    EXPECT_EQ(tb.capacity(), 1u);
    tb.record(spanWithNode(1));
    tb.record(spanWithNode(2));
    ASSERT_EQ(tb.snapshot().size(), 1u);
    EXPECT_EQ(tb.snapshot()[0].node, 2);
}

TEST(TraceRing, ClearForgetsSpansKeepsCapacity)
{
    TraceBuffer tb(4);
    for (int i = 0; i < 3; ++i)
        tb.record(spanWithNode(i));
    tb.clear();
    EXPECT_EQ(tb.size(), 0u);
    EXPECT_EQ(tb.recorded(), 0);
    EXPECT_EQ(tb.capacity(), 4u);
    tb.record(spanWithNode(9));
    ASSERT_EQ(tb.snapshot().size(), 1u);
    EXPECT_EQ(tb.snapshot()[0].node, 9);
}

// ---- 2. Executor tracing ---------------------------------------------

TEST(ExecTrace, StepSpansDescribeTheProgram)
{
    auto store = std::make_shared<ParamStore>();
    ServedModel m = mlpModel(4, store.get());
    CompileOptions opt;
    auto prog = compileInference(m.graph, m.outputs, opt, store);
    Executor &ex = prog.executor();

    EXPECT_EQ(ex.trace(), nullptr) << "tracing must be off by default";
    ex.armTrace(1 << 10);
    ASSERT_NE(ex.trace(), nullptr);

    Rng r(11);
    const int kRuns = 3;
    for (int i = 0; i < kRuns; ++i)
        prog.run({{"x", Tensor::randn({4, 8}, r)}});

    const TraceBuffer &tb = *ex.trace();
    EXPECT_EQ(tb.dropped(), 0);
    std::vector<TraceSpan> spans = tb.snapshot();
    int steps = 0;
    std::set<int64_t> runIds;
    int32_t prevIndex = -1;
    for (const TraceSpan &s : spans) {
        if (s.kind != SpanKind::Step)
            continue;
        ++steps;
        runIds.insert(s.runId);
        EXPECT_GE(s.stepIndex, 0);
        EXPECT_LT(s.stepIndex, ex.numSteps());
        EXPECT_GE(s.node, 0);
        EXPECT_GT(std::strlen(s.op), 0u) << "op mnemonic missing";
        EXPECT_GE(s.durNs, 0);
        EXPECT_GT(s.startNs, 0);
        EXPECT_EQ(s.shards, 1) << "serial program must not shard";
        // Within one run the ring is append-ordered, so step indices
        // restart at 0 exactly at run boundaries.
        if (s.stepIndex != 0)
            EXPECT_EQ(s.stepIndex, prevIndex + 1);
        prevIndex = s.stepIndex;
    }
    EXPECT_EQ(steps, kRuns * ex.numSteps());
    EXPECT_EQ(runIds.size(), static_cast<size_t>(kRuns))
        << "each run() must stamp a distinct runId";
}

TEST(ExecTrace, ShardSpansNestInsideTheirStep)
{
    Graph g;
    Rng rng(7);
    auto store = std::make_shared<ParamStore>();
    NetBuilder b(g, rng, store.get());
    int x = b.input({16, 8}, "x");
    int h = b.relu(b.linear(x, 32, "l1"));
    h = b.gelu(b.linear(h, 32, "l2"));
    int logits = b.linear(h, 4, "head");
    int y = b.input({16}, "y");
    int loss = b.crossEntropy(logits, y);

    CompileOptions opt;
    opt.numThreads = 4;
    opt.optim = OptimConfig::sgd(0.05);
    auto prog = compileTraining(g, loss, SparseUpdateScheme::full(),
                                opt, store);
    Executor &ex = prog.executor();
    ASSERT_GT(ex.shardedSteps(), 0)
        << "fixture must shard or the nesting assertions are vacuous";
    ex.armTrace(1 << 12, /*shardSpans=*/true);

    Rng r(13);
    Tensor xs = Tensor::randn({16, 8}, r);
    Tensor ys({16});
    for (int i = 0; i < 16; ++i)
        ys[i] = static_cast<float>(i % 4);
    prog.trainStep({{"x", xs}, {"y", ys}});

    ASSERT_EQ(ex.trace()->dropped(), 0);
    std::vector<TraceSpan> spans = ex.trace()->snapshot();

    // Index shard spans by (runId, stepIndex).
    std::map<std::pair<int64_t, int32_t>, std::vector<TraceSpan>>
        shards;
    for (const TraceSpan &s : spans)
        if (s.kind == SpanKind::Shard)
            shards[{s.runId, s.stepIndex}].push_back(s);
    ASSERT_FALSE(shards.empty());

    int shardedSeen = 0;
    for (const TraceSpan &st : spans) {
        if (st.kind != SpanKind::Step)
            continue;
        auto it = shards.find({st.runId, st.stepIndex});
        if (st.shards <= 1) {
            EXPECT_EQ(it, shards.end())
                << "serial step " << st.stepIndex
                << " must not record shard spans";
            continue;
        }
        ++shardedSeen;
        ASSERT_NE(it, shards.end()) << "step " << st.stepIndex;
        std::vector<TraceSpan> &sh = it->second;
        EXPECT_EQ(sh.size(), static_cast<size_t>(st.shards))
            << "one span per shard of step " << st.stepIndex;
        std::sort(sh.begin(), sh.end(),
                  [](const TraceSpan &a, const TraceSpan &b2) {
                      return a.shard < b2.shard;
                  });
        int64_t cursor = 0;
        for (size_t i = 0; i < sh.size(); ++i) {
            const TraceSpan &s = sh[i];
            EXPECT_EQ(s.shard, static_cast<int32_t>(i));
            EXPECT_EQ(s.node, st.node);
            EXPECT_STREQ(s.op, st.op);
            // Contiguous, non-empty ranges over the partition domain.
            EXPECT_EQ(s.begin, cursor)
                << "shard ranges must tile without gaps";
            EXPECT_GT(s.end, s.begin);
            cursor = s.end;
            // Temporal nesting: every shard ran inside the step's
            // wall interval (same steady clock, both ends bracket the
            // dispatch).
            EXPECT_GE(s.startNs, st.startNs);
            EXPECT_LE(s.startNs + s.durNs, st.startNs + st.durNs);
        }
    }
    EXPECT_EQ(shardedSeen, ex.shardedSteps());
}

TEST(ExecTrace, TracingIsBitExactAndDisarmable)
{
    // One step loop serves traced and untraced runs, serial steps and
    // sharded ones: arming a ring, with or without shard spans, must
    // not perturb a single output bit.
    for (int threads : {1, 4}) {
        SCOPED_TRACE(std::to_string(threads) + " threads");
        auto store = std::make_shared<ParamStore>();
        ServedModel m = mlpModel(64, store.get());
        CompileOptions opt;
        opt.numThreads = threads;
        auto prog = compileInference(m.graph, m.outputs, opt, store);
        Executor &ex = prog.executor();
        int shardSpansPerRun = 0;
        for (int s : ex.exportArtifact().shardsPerStep)
            shardSpansPerRun += s > 1 ? s : 0;
        if (threads > 1)
            ASSERT_GT(ex.shardedSteps(), 0)
                << "fixture must shard or the shard branch goes untested";
        int xid = ex.inputId("x");
        ASSERT_GE(xid, 0);
        int out = prog.graph().outputs()[0];

        Rng r(17);
        Tensor x = Tensor::randn({64, 8}, r);
        auto sameBits = [](const Tensor &a, const Tensor &b) {
            return a.shape() == b.shape() &&
                   std::memcmp(a.data(), b.data(),
                               sizeof(float) * a.size()) == 0;
        };

        // Untraced reference through a fresh session.
        auto plain = ex.makeContext();
        ASSERT_EQ(plain->trace(), nullptr);
        ex.bindInputById(*plain, xid, x);
        ex.run(*plain);
        Tensor ref = ex.fetch(*plain, out);

        // Traced sessions over the same program and feed.
        for (bool shardSpans : {false, true}) {
            SCOPED_TRACE(shardSpans ? "shard spans" : "step spans only");
            auto traced = ex.makeContext();
            ex.armTrace(*traced, 256, shardSpans);
            ASSERT_NE(traced->trace(), nullptr);
            ex.bindInputById(*traced, xid, x);
            ex.run(*traced);
            EXPECT_TRUE(sameBits(ex.fetch(*traced, out), ref))
                << "arming a trace must not perturb results";
            int steps = 0, shards = 0;
            for (const TraceSpan &s : traced->trace()->snapshot())
                ++(s.kind == SpanKind::Step ? steps : shards);
            EXPECT_EQ(steps, ex.numSteps());
            EXPECT_EQ(shards, shardSpans ? shardSpansPerRun : 0);

            // Disarm drops the ring and returns to the untraced path.
            ex.disarmTrace(*traced);
            EXPECT_EQ(traced->trace(), nullptr);
            ex.run(*traced);
            EXPECT_TRUE(sameBits(ex.fetch(*traced, out), ref));
        }
    }
}

// ---- 3. profile aggregation ------------------------------------------

TEST(Profile, ReportFoldsRunsTimesSteps)
{
    auto store = std::make_shared<ParamStore>();
    ServedModel m = mlpModel(4, store.get());
    CompileOptions opt;
    auto prog = compileInference(m.graph, m.outputs, opt, store);
    Executor &ex = prog.executor();
    ex.armTrace(1 << 12);

    Rng r(19);
    const int kRuns = 5;
    for (int i = 0; i < kRuns; ++i)
        prog.run({{"x", Tensor::randn({4, 8}, r)}});

    ProfileReport rep = profileTrace(ex, *ex.trace());
    EXPECT_EQ(rep.runs, kRuns);
    EXPECT_EQ(rep.stepSpans, kRuns * ex.numSteps());
    EXPECT_EQ(rep.droppedSpans, 0);
    ASSERT_EQ(rep.steps.size(), static_cast<size_t>(ex.numSteps()));
    EXPECT_EQ(rep.kernelFallbacks, ex.fallbackCount());

    int64_t summed = 0;
    double shareSum = 0;
    for (size_t i = 0; i < rep.steps.size(); ++i) {
        const ProfileStepRow &row = rep.steps[i];
        EXPECT_EQ(row.stepIndex, static_cast<int>(i))
            << "rows must come back in execution order";
        EXPECT_EQ(row.calls, kRuns);
        EXPECT_FALSE(row.op.empty());
        EXPECT_GE(row.totalNs, 0);
        EXPECT_GT(row.outBytes, 0)
            << "every step has an output placement";
        summed += row.totalNs;
        shareSum += row.timeShare;
    }
    EXPECT_EQ(summed, rep.totalNs)
        << "report total must be the sum of its rows";
    EXPECT_NEAR(shareSum, 1.0, 1e-9);

    ASSERT_FALSE(rep.ops.empty());
    double opShareSum = 0;
    for (size_t i = 0; i < rep.ops.size(); ++i) {
        opShareSum += rep.ops[i].timeShare;
        if (i)
            EXPECT_GE(rep.ops[i - 1].totalNs, rep.ops[i].totalNs)
                << "op rows must sort by time, descending";
    }
    EXPECT_NEAR(opShareSum, 1.0, 1e-9);

    EXPECT_FALSE(rep.table().empty());
    EXPECT_NE(rep.summary().find("profile:"), std::string::npos);
}

TEST(Profile, JsonIsWellFormed)
{
    auto store = std::make_shared<ParamStore>();
    ServedModel m = mlpModel(4, store.get());
    CompileOptions opt;
    auto prog = compileInference(m.graph, m.outputs, opt, store);
    prog.executor().armTrace();
    Rng r(23);
    prog.run({{"x", Tensor::randn({4, 8}, r)}});

    ProfileReport rep =
        profileTrace(prog.executor(), *prog.executor().trace());
    Json j;
    ASSERT_TRUE(parseJson(rep.json(), j)) << rep.json();
    ASSERT_NE(j.find("runs"), nullptr);
    EXPECT_DOUBLE_EQ(j.find("runs")->num, 1.0);
    const Json *steps = j.find("steps");
    ASSERT_NE(steps, nullptr);
    ASSERT_EQ(steps->t, Json::T::Arr);
    EXPECT_EQ(steps->arr.size(), rep.steps.size());
    for (const Json &row : steps->arr) {
        EXPECT_NE(row.find("op"), nullptr);
        EXPECT_NE(row.find("total_ns"), nullptr);
        EXPECT_NE(row.find("time_share"), nullptr);
    }
    ASSERT_NE(j.find("ops"), nullptr);
    EXPECT_EQ(j.find("ops")->arr.size(), rep.ops.size());
}

// ---- 4. Chrome-trace export ------------------------------------------

TEST(ChromeExport, ExecutorTraceIsWellFormedAndTracked)
{
    Graph g;
    Rng rng(7);
    auto store = std::make_shared<ParamStore>();
    NetBuilder b(g, rng, store.get());
    int x = b.input({16, 8}, "x");
    int h = b.relu(b.linear(x, 32, "l1"));
    int logits = b.linear(h, 4, "head");
    int y = b.input({16}, "y");
    int loss = b.crossEntropy(logits, y);
    CompileOptions opt;
    opt.numThreads = 4;
    opt.optim = OptimConfig::sgd(0.05);
    auto prog = compileTraining(g, loss, SparseUpdateScheme::full(),
                                opt, store);
    Executor &ex = prog.executor();
    ASSERT_GT(ex.shardedSteps(), 0);
    ex.armTrace();
    Rng r(29);
    Tensor xs = Tensor::randn({16, 8}, r);
    Tensor ys({16});
    for (int i = 0; i < 16; ++i)
        ys[i] = static_cast<float>(i % 4);
    prog.trainStep({{"x", xs}, {"y", ys}});

    std::string path = testing::TempDir() + "pe_obs_exec_trace.json";
    ASSERT_TRUE(exportChromeTrace(path, ex, *ex.trace()));

    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::string text;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    std::fclose(f);
    std::remove(path.c_str());

    Json j;
    ASSERT_TRUE(parseJson(text, j));
    const Json *events = j.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->t, Json::T::Arr);
    ASSERT_FALSE(events->arr.empty());

    int complete = 0, meta = 0, shardTracks = 0;
    for (const Json &e : events->arr) {
        const Json *ph = e.find("ph");
        ASSERT_NE(ph, nullptr);
        ASSERT_NE(e.find("pid"), nullptr);
        ASSERT_NE(e.find("tid"), nullptr);
        if (ph->str == "X") {
            ++complete;
            ASSERT_NE(e.find("name"), nullptr);
            ASSERT_NE(e.find("ts"), nullptr);
            ASSERT_NE(e.find("dur"), nullptr);
            EXPECT_GE(e.find("ts")->num, 0.0)
                << "timestamps must be normalized near t=0";
            EXPECT_GT(e.find("dur")->num, 0.0)
                << "zero-duration spans must be widened";
            if (e.find("tid")->num >= 100)
                ++shardTracks; // per-worker shard tracks
        } else if (ph->str == "M") {
            ++meta;
        } else {
            ADD_FAILURE() << "unexpected event kind " << ph->str;
        }
    }
    EXPECT_GE(complete, ex.numSteps()) << "every step span must export";
    EXPECT_GT(shardTracks, 0) << "shard spans must land on worker tracks";
    EXPECT_GT(meta, 0) << "tracks must be named";
}

// ---- 5. serving metrics ----------------------------------------------

TEST(ServingObs, MetricsJsonAccountsForEveryRequest)
{
    auto store = std::make_shared<ParamStore>();
    auto factory = [&](int64_t bb) { return mlpModel(bb, store.get()); };
    ServeOptions so;
    so.buckets = {1, 4};
    so.workers = 2;
    ServingEngine engine(factory, store, so);

    Rng r(31);
    const int kRequests = 12;
    std::vector<ServingEngine::RequestId> ids;
    for (int i = 0; i < kRequests; ++i) {
        int64_t rows = 1 + (i % 4); // mixed routing across both buckets
        ids.push_back(
            engine.submit({{"x", Tensor::randn({rows, 8}, r)}}));
    }
    for (auto id : ids)
        engine.wait(id);

    ServeStats s = engine.stats();
    EXPECT_EQ(s.completed, kRequests);

    Json j;
    std::string text = engine.metricsJson();
    ASSERT_TRUE(parseJson(text, j)) << text;
    EXPECT_DOUBLE_EQ(j.find("completed")->num, kRequests);
    EXPECT_DOUBLE_EQ(j.find("submitted")->num, kRequests);
    EXPECT_DOUBLE_EQ(j.find("failed")->num, 0.0);
    EXPECT_GE(j.find("queue_depth_max")->num, 0.0);

    const Json *buckets = j.find("buckets");
    ASSERT_NE(buckets, nullptr);
    ASSERT_EQ(buckets->arr.size(), 2u);
    double hitsSum = 0, histSum = 0;
    for (const Json &bj : buckets->arr) {
        double hits = bj.find("hits")->num;
        hitsSum += hits;
        const Json *hist = bj.find("latency_hist_us");
        ASSERT_NE(hist, nullptr);
        EXPECT_EQ(hist->arr.size(),
                  static_cast<size_t>(ServingEngine::kLatencyHistBins));
        double bucketHist = 0;
        for (const Json &bin : hist->arr)
            bucketHist += bin.num;
        EXPECT_EQ(bucketHist, hits)
            << "per-bucket histogram must account for every hit";
        histSum += bucketHist;
        EXPECT_FALSE(bj.find("tier")->str.empty());
        if (hits > 0)
            EXPECT_GT(bj.find("run_ns")->num, 0.0);
    }
    EXPECT_EQ(hitsSum, kRequests)
        << "bucket hits must sum to completed";
    EXPECT_EQ(histSum, kRequests);

    // summary() renders the same snapshot: spot-check the counters.
    std::string sum = s.summary();
    EXPECT_NE(sum.find(std::to_string(kRequests) + " done"),
              std::string::npos)
        << sum;
    EXPECT_NE(sum.find("b1"), std::string::npos) << sum;
    EXPECT_NE(sum.find("b4"), std::string::npos) << sum;
}

TEST(ServingObs, StatsJsonHoldsEveryFieldAtItsWidest)
{
    // Every counter at its widest %lld (20 chars) and every double at
    // its widest %.17g (24 chars): the snapshot must still render as
    // one complete JSON object, not a truncated prefix.
    const int64_t wide = std::numeric_limits<int64_t>::min();
    const double dwide = -1.2345678901234567e-300;
    ServeStats s;
    for (int64_t *f :
         {&s.submitted, &s.completed, &s.failed, &s.queueDepth,
          &s.maxQueueDepth, &s.sessionsCreated, &s.runs, &s.coalescedRuns,
          &s.coalescedRequests, &s.streamsOpened, &s.prefills,
          &s.decodeSteps, &s.cacheBytesCopied, &s.latencySamples})
        *f = wide;
    for (double *f : {&s.coalesceRate, &s.amortizedRunUs, &s.p50LatencyUs,
                      &s.p99LatencyUs, &s.throughputRps,
                      &s.elapsedSeconds})
        *f = dwide;
    Json j;
    const std::string text = s.json();
    ASSERT_TRUE(parseJson(text, j)) << text;
    EXPECT_DOUBLE_EQ(j.find("cache_bytes_copied")->num,
                     static_cast<double>(wide));
    EXPECT_DOUBLE_EQ(j.find("elapsed_seconds")->num, dwide);
}

TEST(ServingObs, MetricsPollingIsSafeAgainstLiveTraffic)
{
    auto store = std::make_shared<ParamStore>();
    auto factory = [&](int64_t bb) { return mlpModel(bb, store.get()); };
    ServeOptions so;
    so.buckets = {1, 4};
    so.workers = 4;
    ServingEngine engine(factory, store, so);

    std::atomic<bool> stop{false};
    std::thread poller([&] {
        // The metrics endpoint contract: concurrent polls against
        // live traffic are safe (TSan is the real assertion here).
        while (!stop.load()) {
            Json j;
            std::string text = engine.metricsJson();
            ASSERT_TRUE(parseJson(text, j)) << text;
            ASSERT_NE(j.find("completed"), nullptr);
        }
    });

    Rng r(37);
    std::vector<ServingEngine::RequestId> ids;
    for (int i = 0; i < 48; ++i)
        ids.push_back(engine.submit(
            {{"x", Tensor::randn({1 + (i % 4), 8}, r)}}));
    for (auto id : ids)
        engine.wait(id);
    stop = true;
    poller.join();

    ServeStats s = engine.stats();
    EXPECT_EQ(s.completed, 48);
    int64_t hits = 0;
    for (const auto &bs : s.buckets)
        hits += bs.hits;
    EXPECT_EQ(hits, 48);
}

TEST(ServingObs, LifecycleRingKeepsTheNewestRequestLanes)
{
    // A traced engine whose lifecycle ring holds 4 records serves 10
    // requests in order: the export must hold exactly the 4 newest
    // request lanes (the ring wrapped; the oldest six were dropped).
    auto store = std::make_shared<ParamStore>();
    ServeOptions so;
    so.buckets = {1};
    so.workers = 1;
    so.trace = true;
    so.traceCapacity = 4;
    ServingEngine engine(
        [&](int64_t bb) { return mlpModel(bb, store.get()); }, store, so);

    Rng r(43);
    std::vector<ServingEngine::RequestId> ids;
    for (int i = 0; i < 10; ++i) {
        ids.push_back(engine.submit({{"x", Tensor::randn({1, 8}, r)}}));
        engine.wait(ids.back());
    }

    std::string path = testing::TempDir() + "pe_obs_ring_trace.json";
    ASSERT_TRUE(engine.exportChromeTrace(path));
    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::string text;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    std::fclose(f);
    std::remove(path.c_str());

    Json j;
    ASSERT_TRUE(parseJson(text, j));
    const Json *events = j.find("traceEvents");
    ASSERT_NE(events, nullptr);
    std::set<int64_t> lanes;
    for (const Json &e : events->arr) {
        const Json *ph = e.find("ph");
        if (ph != nullptr && ph->str == "X" &&
            static_cast<int>(e.find("pid")->num) == 2)
            lanes.insert(static_cast<int64_t>(e.find("tid")->num));
    }
    std::set<int64_t> newest;
    for (size_t i = 6; i < ids.size(); ++i)
        newest.insert(static_cast<int64_t>(ids[i]));
    EXPECT_EQ(lanes, newest);
}

// ---- 6. traced coalescing stress (the acceptance bar) ----------------

TEST(ServingObs, TracedCoalescingStressExportsConvergingLanes)
{
    auto store = std::make_shared<ParamStore>();
    auto factory = [&](int64_t bb) { return mlpModel(bb, store.get()); };

    // Per-request reference engine (bit-parity oracle).
    ServeOptions ref;
    ref.buckets = {1, 4, 8};
    ref.workers = 1;
    ServingEngine solo(factory, store, ref);

    ServeOptions so = ref;
    so.workers = 4;
    so.coalesceWindowUs = 400000; // see test_serve's kTestWindowUs
    so.queueCapacity = 64;
    so.trace = true;
    so.traceCapacity = 4096;
    ServingEngine engine(factory, store, so);

    Rng r(41);
    const int kRequests = 64;
    std::vector<Tensor> xs;
    for (int i = 0; i < kRequests; ++i)
        xs.push_back(Tensor::randn({1, 8}, r));

    std::vector<Tensor> want;
    for (const Tensor &x : xs)
        want.push_back(solo.wait(solo.submit({{"x", x}}))[0]);

    std::vector<ServingEngine::RequestId> ids;
    for (const Tensor &x : xs)
        ids.push_back(engine.submit({{"x", x}}));
    for (size_t i = 0; i < ids.size(); ++i) {
        Tensor got = engine.wait(ids[i])[0];
        ASSERT_EQ(got.shape(), want[i].shape());
        EXPECT_EQ(std::memcmp(got.data(), want[i].data(),
                              sizeof(float) * got.size()),
                  0)
            << "traced coalesced request " << i
            << " must stay bit-identical";
    }

    ServeStats s = engine.stats();
    EXPECT_EQ(s.completed, kRequests);
    ASSERT_GE(s.coalescedRuns, 1)
        << "the 400ms window must coalesce a 64-single burst";

    // Quiescent now (every id waited): export and parse the timeline.
    std::string path =
        testing::TempDir() + "pe_obs_serve_trace.json";
    ASSERT_TRUE(engine.exportChromeTrace(path));
    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::string text;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    std::fclose(f);
    std::remove(path.c_str());

    Json j;
    ASSERT_TRUE(parseJson(text, j));
    const Json *events = j.find("traceEvents");
    ASSERT_NE(events, nullptr);

    // run#<id> spans on pid 2 are the request lanes; a coalesced
    // group shows as one run name across >= 2 distinct lane tids.
    std::map<std::string, std::set<int64_t>> runLanes;
    int requestLanes = 0, workerSteps = 0;
    for (const Json &e : events->arr) {
        const Json *ph = e.find("ph");
        if (ph == nullptr || ph->str != "X")
            continue;
        int pid = static_cast<int>(e.find("pid")->num);
        const std::string &name = e.find("name")->str;
        if (pid == 2) {
            ++requestLanes;
            if (name.rfind("run#", 0) == 0)
                runLanes[name].insert(
                    static_cast<int64_t>(e.find("tid")->num));
        } else if (pid == 1) {
            // Executor session step spans are the pid-1 events that
            // carry a "node" arg (bind/run/slice lifecycle spans do
            // not).
            const Json *args = e.find("args");
            if (args != nullptr && args->find("node") != nullptr)
                ++workerSteps;
        }
    }
    EXPECT_GT(requestLanes, 0);
    EXPECT_GT(workerSteps, 0)
        << "session step spans must nest on the worker tracks";

    size_t widestRun = 0;
    for (const auto &kv : runLanes)
        widestRun = std::max(widestRun, kv.second.size());
    EXPECT_GE(widestRun, 2u)
        << "at least one run span must be shared by >= 2 request "
           "lanes (the converging-lanes acceptance bar)";
    EXPECT_EQ(static_cast<int64_t>(runLanes.size()), s.runs)
        << "every bucket run must appear as exactly one run span name";
}

} // namespace
} // namespace pe
