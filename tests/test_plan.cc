/**
 * @file
 * Binary plan serialization tests (src/plan/).
 *
 * Layers of guarantees:
 *  1. Round-trip: save/load/run is BIT-identical to the freshly
 *     compiled program, for fp32/fp16/int8 x {MLP, MCUNet}, and for
 *     nt=1 vs nt=4 launch geometry (MCUNet, and a Winograd-bound
 *     net whose workspace records the plan must carry).
 *  2. Zero recompile: loading performs no planner / scheduler /
 *     QuantizePass invocations (pipelineCounters delta == 0).
 *  3. Determinism: compiling the same model twice yields
 *     byte-identical plan files (the CI round-trip job's `cmp`).
 *  4. Robust load errors: truncated file, bad magic, version
 *     mismatch, checksum failure and unknown-kernel-name each throw
 *     their own typed error, and a corrupt-one-byte fuzz loop never
 *     produces UB or a silent success.
 *  5. Serving: a ServingEngine built from a plan directory serves
 *     bit-identical results to one that compiled its buckets, with
 *     zero compile work at startup; calibrate() wired into the bucket
 *     factory produces a real int8 serving path.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "frontend/builder.h"
#include "frontend/models.h"
#include "plan/plan.h"
#include "quant/quant.h"
#include "runtime/planner.h"
#include "serve/serving.h"
#include "testutil.h"

namespace pe {
namespace {

using Feeds = std::unordered_map<std::string, Tensor>;

// ---- fixtures --------------------------------------------------------

struct Built {
    Graph graph;
    int logits = -1;
    std::shared_ptr<ParamStore> store;
    Shape inShape;
};

Built
makeMlp(int64_t batch, int64_t hidden = 32)
{
    Built b;
    b.store = std::make_shared<ParamStore>();
    Rng rng(7);
    NetBuilder nb(b.graph, rng, b.store.get());
    int x = nb.input({batch, 16}, "x");
    int h = nb.relu(nb.linear(x, hidden, "fc1"));
    h = nb.relu(nb.linear(h, hidden, "fc2"));
    b.logits = nb.linear(h, 4, "head");
    b.inShape = {batch, 16};
    return b;
}

Built
makeCnn(int64_t batch)
{
    Built b;
    b.store = std::make_shared<ParamStore>();
    VisionConfig cfg;
    cfg.batch = batch;
    cfg.resolution = 12;
    cfg.width = 0.5;
    cfg.blocks = 2;
    Rng rng(11);
    ModelSpec m = buildMcuNet(cfg, rng, b.store.get());
    b.graph = std::move(m.graph);
    b.logits = m.logits;
    b.inShape = {batch, 3, 12, 12};
    return b;
}

/** test::winoNet: frozen 3x3 stride-1 convs, so inference binds
 *  Winograd (MLP and MCUNet have no such conv). */
Built
makeWino(int64_t batch)
{
    test::WinoNet n = test::winoNet(batch);
    Built b;
    b.graph = std::move(n.g);
    b.logits = n.logits;
    b.store = std::move(n.store);
    b.inShape = {batch, 4, 12, 12};
    return b;
}

/** Calibrate (for non-fp32) and compile @p b at (precision, nt). */
std::unique_ptr<InferenceProgram>
compileProg(Built &b, Precision p, int nt)
{
    if (p != Precision::F32) {
        std::vector<Feeds> calib;
        Rng rng(21);
        for (int i = 0; i < 2; ++i)
            calib.push_back({{"x", Tensor::randn(b.inShape, rng)}});
        calibrate(b.graph, *b.store, calib);
    }
    CompileOptions opt;
    opt.precision = p;
    opt.numThreads = nt;
    return std::make_unique<InferenceProgram>(
        compileInferenceGraph(b.graph, {b.logits}, opt, b.store),
        b.store);
}

std::string
serialize(const InferenceProgram &prog,
          const ParamStore &store)
{
    return serializePlan(prog.graph(),
                         prog.executor().exportArtifact(),
                         prog.report(), store);
}

bool
bitEqual(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       sizeof(float) *
                           static_cast<size_t>(a.size())) == 0;
}

Tensor
seededInput(const Shape &shape, uint64_t seed = 123)
{
    Rng rng(seed);
    return Tensor::randn(shape, rng);
}

// ---- 1. round-trip bit parity ----------------------------------------

TEST(PlanRoundTrip, BitParityAllPrecisionsAllModels)
{
    for (bool cnn : {false, true}) {
        for (Precision p :
             {Precision::F32, Precision::F16, Precision::Int8}) {
            SCOPED_TRACE(std::string(cnn ? "mcunet/" : "mlp/") +
                         precisionName(p));
            Built b = cnn ? makeCnn(2) : makeMlp(2);
            auto prog = compileProg(b, p, 1);
            Tensor x = seededInput(b.inShape);
            Tensor fresh = prog->run({{"x", x}})[0];

            std::string blob = serialize(*prog, *b.store);
            auto loaded = loadPlanFromBytes(blob);
            EXPECT_EQ(loaded->report().precision, p);
            const PassStats &mem = prog->report().backend;
            const PassStats &disk = loaded->report().backend;
            EXPECT_EQ(disk.winogradBound, mem.winogradBound);
            EXPECT_EQ(disk.im2colBound, mem.im2colBound);
            EXPECT_EQ(disk.blockedBound, mem.blockedBound);
            EXPECT_EQ(disk.int8Bound, mem.int8Bound);
            if (cnn && p == Precision::F32)
                EXPECT_GT(mem.im2colBound, 0) << "pointwise convs";
            Tensor replay = loaded->run({{"x", x}})[0];
            EXPECT_TRUE(bitEqual(fresh, replay));

            // Repeated runs on the loaded program stay stable (the
            // arena is recycled identically step over step).
            EXPECT_TRUE(
                bitEqual(replay, loaded->run({{"x", x}})[0]));
        }
    }
}

TEST(PlanRoundTrip, ThreadCountParityOnLoadedPlan)
{
    Built b1 = makeCnn(2);
    auto prog1 = compileProg(b1, Precision::F32, 1);
    Built b4 = makeCnn(2);
    auto prog4 = compileProg(b4, Precision::F32, 4);

    Tensor x = seededInput(b1.inShape);
    Tensor fresh1 = prog1->run({{"x", x}})[0];
    Tensor fresh4 = prog4->run({{"x", x}})[0];
    ASSERT_TRUE(bitEqual(fresh1, fresh4)); // PR-1 invariant

    auto loaded1 = loadPlanFromBytes(serialize(*prog1, *b1.store));
    auto loaded4 = loadPlanFromBytes(serialize(*prog4, *b4.store));
    EXPECT_EQ(loaded4->executor().numThreads(), 4);
    EXPECT_EQ(loaded4->executor().shardedSteps(),
              prog4->executor().shardedSteps());

    Tensor r1 = loaded1->run({{"x", x}})[0];
    Tensor r4 = loaded4->run({{"x", x}})[0];
    EXPECT_TRUE(bitEqual(fresh1, r1));
    EXPECT_TRUE(bitEqual(fresh4, r4));
    EXPECT_TRUE(bitEqual(r1, r4));
}

TEST(PlanRoundTrip, WinogradBitParityAtOneAndFourThreads)
{
    Tensor x = seededInput({2, 4, 12, 12});
    std::vector<Tensor> outs;
    for (int nt : {1, 4}) {
        SCOPED_TRACE("numThreads " + std::to_string(nt));
        Built b = makeWino(2);
        auto prog = compileProg(b, Precision::F32, nt);
        ASSERT_GT(prog->report().backend.winogradBound, 0);
        Tensor fresh = prog->run({{"x", x}})[0];

        auto loaded = loadPlanFromBytes(serialize(*prog, *b.store));
        const std::vector<WorkspacePlacement> &mem =
            prog->executor().memoryPlan().workspaces;
        const std::vector<WorkspacePlacement> &disk =
            loaded->executor().memoryPlan().workspaces;
        ASSERT_EQ(disk.size(), mem.size());
        ASSERT_FALSE(mem.empty());
        for (size_t i = 0; i < mem.size(); ++i) {
            EXPECT_EQ(disk[i].node, mem[i].node);
            EXPECT_EQ(disk[i].stepPos, mem[i].stepPos);
            EXPECT_EQ(disk[i].shards, mem[i].shards);
            EXPECT_EQ(disk[i].bytesPerShard, mem[i].bytesPerShard);
            EXPECT_EQ(disk[i].shardStride, mem[i].shardStride);
            EXPECT_EQ(disk[i].offset, mem[i].offset);
        }
        EXPECT_EQ(loaded->executor().shardedSteps(),
                  prog->executor().shardedSteps());
        if (nt > 1)
            EXPECT_GT(loaded->executor().shardedSteps(), 0);
        Tensor replay = loaded->run({{"x", x}})[0];
        EXPECT_TRUE(bitEqual(fresh, replay));
        EXPECT_TRUE(bitEqual(replay, loaded->run({{"x", x}})[0]));
        outs.push_back(std::move(replay));
    }
    EXPECT_TRUE(bitEqual(outs[0], outs[1]));
}

TEST(PlanRoundTrip, FileRoundTripAndSections)
{
    Built b = makeMlp(1);
    auto prog = compileProg(b, Precision::F32, 1);
    std::string path = ::testing::TempDir() + "test_plan_mlp.peplan";
    prog->savePlan(path, "model=mlp;batch=1");

    std::string blob = readPlanFile(path);
    std::vector<PlanSectionInfo> sections = planSections(blob);
    EXPECT_EQ(sections.size(), 9u);
    for (const PlanSectionInfo &s : sections)
        EXPECT_TRUE(s.checksumOk) << s.tag;

    PlanData pd = deserializePlan(blob);
    EXPECT_EQ(pd.tag, "model=mlp;batch=1");

    auto loaded = loadPlan(path);
    Tensor x = seededInput(b.inShape);
    EXPECT_TRUE(bitEqual(prog->run({{"x", x}})[0],
                         loaded->run({{"x", x}})[0]));
}

// ---- 2. zero recompile on load ---------------------------------------

TEST(PlanLoad, ZeroPipelineInvocations)
{
    Built b = makeMlp(2);
    auto prog = compileProg(b, Precision::Int8, 1);
    std::string blob = serialize(*prog, *b.store);

    // Sanity: the counters do move during a compile (otherwise the
    // zero-delta assertion below would be vacuous).
    PipelineCounters c0 = pipelineCounters();
    Built b2 = makeMlp(2);
    auto prog2 = compileProg(b2, Precision::Int8, 1);
    PipelineCounters c1 = pipelineCounters();
    EXPECT_GT(c1.planMemory, c0.planMemory);
    EXPECT_GT(c1.planLaunches, c0.planLaunches);
    EXPECT_GT(c1.reorder, c0.reorder);
    EXPECT_GT(c1.quantizePass, c0.quantizePass);

    PipelineCounters before = pipelineCounters();
    auto loaded = loadPlanFromBytes(blob);
    Tensor x = seededInput(b.inShape);
    loaded->run({{"x", x}});
    PipelineCounters after = pipelineCounters();
    EXPECT_TRUE(before == after)
        << "loading or running a plan invoked a compile stage";
}

/** Pipeline-stage invocations since @p before. */
PipelineCounters
countersSince(const PipelineCounters &before)
{
    PipelineCounters now = pipelineCounters();
    now.planMemory -= before.planMemory;
    now.planLaunches -= before.planLaunches;
    now.reorder -= before.reorder;
    now.quantizePass -= before.quantizePass;
    return now;
}

TEST(PlanLoad, CompilePlansOnceAndBindingPlansNothing)
{
    // One compile runs the plan step once: compileTraining costs the
    // planner exactly what compileGraphOnly does, and binding a
    // compiled graph into a program adds no planner call at all.
    VisionConfig cfg;
    cfg.batch = 2;
    cfg.resolution = 12;
    cfg.width = 0.5;
    cfg.blocks = 2;
    Rng rng(13);
    auto store = std::make_shared<ParamStore>();
    ModelSpec m = buildMcuNet(cfg, rng, store.get());
    const SparseUpdateScheme scheme = cnnSparseScheme(m, 2, 1);
    const CompileOptions opt;

    PipelineCounters before = pipelineCounters();
    CompiledGraph c =
        compileGraphOnly(m.graph, m.loss, scheme, opt, store.get());
    PipelineCounters graph_only = countersSince(before);
    EXPECT_GT(graph_only.planMemory, 0);
    EXPECT_GT(graph_only.planLaunches, 0);

    before = pipelineCounters();
    TrainingProgram compiled =
        compileTraining(m.graph, m.loss, scheme, opt, store);
    PipelineCounters training = countersSince(before);
    EXPECT_EQ(training.planMemory, graph_only.planMemory);
    EXPECT_EQ(training.planLaunches, graph_only.planLaunches);
    EXPECT_EQ(training.reorder, graph_only.reorder);
    EXPECT_EQ(training.quantizePass, graph_only.quantizePass);

    const CompileReport planned = c.report;
    before = pipelineCounters();
    TrainingProgram bound(std::move(c), store);
    EXPECT_TRUE(countersSince(before) == PipelineCounters{})
        << "binding a compiled training graph invoked the planner";
    EXPECT_EQ(bound.report().arenaBytes, planned.arenaBytes);
    EXPECT_EQ(bound.report().memoryTimeline, planned.memoryTimeline);
    EXPECT_EQ(bound.report().kernelSteps, planned.kernelSteps);

    CompiledGraph ic =
        compileInferenceGraph(m.graph, {m.logits}, opt, store);
    before = pipelineCounters();
    InferenceProgram infer(std::move(ic), store);
    EXPECT_TRUE(countersSince(before) == PipelineCounters{})
        << "binding a compiled inference graph invoked the planner";
}

// ---- 3. determinism --------------------------------------------------

TEST(PlanDeterminism, SameModelSameBytes)
{
    for (bool cnn : {false, true}) {
        Precision p = cnn ? Precision::F32 : Precision::Int8;
        SCOPED_TRACE(cnn ? "mcunet/fp32" : "mlp/int8");
        Built a = cnn ? makeCnn(2) : makeMlp(2);
        auto progA = compileProg(a, p, 1);
        Built b = cnn ? makeCnn(2) : makeMlp(2);
        auto progB = compileProg(b, p, 1);
        std::string blobA = serialize(*progA, *a.store);
        std::string blobB = serialize(*progB, *b.store);
        EXPECT_EQ(blobA.size(), blobB.size());
        EXPECT_TRUE(blobA == blobB)
            << "two compiles of the same model produced different "
               "plan bytes";
    }
}

// ---- 4. robust load errors -------------------------------------------

class PlanErrorsTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        Built b = makeMlp(1, 16);
        prog_ = compileProg(b, Precision::F32, 1);
        store_ = b.store;
        blob_ = serialize(*prog_, *store_);
    }

    std::unique_ptr<InferenceProgram> prog_;
    std::shared_ptr<ParamStore> store_;
    std::string blob_;
};

TEST_F(PlanErrorsTest, BadMagic)
{
    std::string bad = blob_;
    bad[1] ^= 0xff;
    EXPECT_THROW(loadPlanFromBytes(bad), PlanBadMagicError);
}

TEST_F(PlanErrorsTest, VersionMismatch)
{
    // v4 is the previous format (three FusedAttention input forms,
    // rank-2 prefill caches); v3 had shared workspace regions.
    for (uint32_t v : {kPlanFormatVersion + 41, uint32_t{3}, uint32_t{4}}) {
        std::string bad = blob_;
        std::memcpy(&bad[8], &v, 4);
        EXPECT_THROW(loadPlanFromBytes(bad), PlanVersionError) << v;
    }
}

TEST_F(PlanErrorsTest, ChecksumFailure)
{
    std::string bad = blob_;
    bad[bad.size() - 5] ^= 0x10; // deep inside the last payload
    EXPECT_THROW(loadPlanFromBytes(bad), PlanChecksumError);
}

TEST_F(PlanErrorsTest, Truncated)
{
    for (size_t keep : {size_t(0), size_t(10), size_t(30),
                        blob_.size() / 2, blob_.size() - 7}) {
        SCOPED_TRACE(keep);
        EXPECT_THROW(loadPlanFromBytes(blob_.substr(0, keep)),
                     PlanTruncatedError);
    }
}

TEST_F(PlanErrorsTest, UnknownKernelName)
{
    // A plan binds kernels by registry NAME; tamper an op mnemonic
    // (resealing the section checksums so the corruption gets past
    // the integrity gate) and the loader must reject it with the
    // distinct unknown-kernel error, not bind garbage.
    Graph g;
    g.input({2, 8}, "x");
    int y = g.add(OpKind::Softmax, {0});
    g.markOutput(y);
    auto store = std::make_shared<ParamStore>();
    auto prog = compileInference(g, {y}, CompileOptions{}, store);
    std::string blob = serialize(prog, *store);

    size_t at = blob.find("Softmax");
    ASSERT_NE(at, std::string::npos);
    blob[at] = 'Z';
    EXPECT_THROW(loadPlanFromBytes(blob), PlanChecksumError)
        << "tampering without resealing must be caught as corruption";
    resealPlan(blob);
    EXPECT_THROW(loadPlanFromBytes(blob), PlanUnknownKernelError);
}

TEST_F(PlanErrorsTest, CraftedPlanHardening)
{
    // Checksums only catch ACCIDENTAL corruption — a crafted file
    // carries valid ones (resealPlan stands in for the attacker).
    // Each hostile payload below must be rejected with a typed
    // PlanError, never an out-of-bounds bind, infinite recursion,
    // silent zero-fill, or a 32 GB bad_alloc.
    auto sectionOffset = [&](const std::string &blob,
                             const std::string &tag) {
        for (const PlanSectionInfo &s : planSections(blob)) {
            if (s.tag == tag)
                return static_cast<size_t>(s.offset);
        }
        ADD_FAILURE() << "no section " << tag;
        return size_t(0);
    };

    { // negative workspace offset -> placement outside the arena
      // (int8: the quant kernels' packed panels guarantee the plan
      // actually carries workspaces at this model scale)
        Built cnn = makeCnn(1);
        auto prog = compileProg(cnn, Precision::Int8, 1);
        std::string blob = serialize(*prog, *cnn.store);
        size_t mpln = sectionOffset(blob, "MPLN");
        uint32_t num_values;
        std::memcpy(&num_values, &blob[mpln], 4);
        size_t ws_count_at = mpln + 4 + size_t(num_values) * 26;
        uint32_t num_ws;
        std::memcpy(&num_ws, &blob[ws_count_at], 4);
        ASSERT_GE(num_ws, 1u) << "fixture lost its workspaces";
        int64_t evil = -(int64_t(1) << 20);
        // ws entry: node/stepPos/shards (12) + bytesPerShard/
        // shardStride (16), then offset.
        std::memcpy(&blob[ws_count_at + 4 + 28], &evil, 8);
        resealPlan(blob);
        EXPECT_THROW(loadPlanFromBytes(blob), PlanFormatError);
    }

    { // Alias placement on an input-less node -> resolve() would
      // index inputs[0] of an empty vector
        std::string blob = blob_;
        size_t mpln = sectionOffset(blob, "MPLN");
        blob[mpln + 4] = 4; // value 0 (the Input node) -> Alias
        resealPlan(blob);
        EXPECT_THROW(loadPlanFromBytes(blob), PlanFormatError);
    }

    { // duplicate param name shadowing a missing one -> silent
      // zero-fill of the real weights
        std::string blob = blob_;
        size_t prms = sectionOffset(blob, "PRMS");
        size_t at = blob.find("fc2.weight", prms);
        ASSERT_NE(at, std::string::npos);
        blob.replace(at, 10, "fc1.weight");
        resealPlan(blob);
        EXPECT_THROW(loadPlanFromBytes(blob), PlanFormatError);
    }

    { // implausible element count -> typed error BEFORE allocation
        std::string blob = blob_;
        size_t lnch = sectionOffset(blob, "LNCH");
        uint32_t evil = 0xFFFFFFFFu;
        std::memcpy(&blob[lnch + 4], &evil, 4); // shardsPerStep count
        resealPlan(blob);
        EXPECT_THROW(loadPlanFromBytes(blob), PlanFormatError);
    }
}

TEST_F(PlanErrorsTest, OutOfRangeZeroPointIsRejected)
{
    // The loader re-infers every node, so a resealed plan whose int8
    // op carries a zero point outside [-128, 127] is refused like any
    // other node shape inference rejects.
    Built cnn = makeCnn(1);
    auto prog = compileProg(cnn, Precision::Int8, 1);
    std::string blob = serialize(*prog, *cnn.store);
    EXPECT_NO_THROW(loadPlanFromBytes(blob));
    // An attr is its key (u32 length + bytes), a tag byte (0 = int)
    // and the i64 value.
    const std::string key("\x03\x00\x00\x00xZp", 7);
    size_t at = blob.find(key);
    ASSERT_NE(at, std::string::npos) << "fixture lost its int8 ops";
    ASSERT_EQ(blob[at + key.size()], 0) << "xZp is not an int attr";
    int64_t evil = 200;
    std::memcpy(&blob[at + key.size() + 1], &evil, 8);
    resealPlan(blob);
    try {
        loadPlanFromBytes(blob);
        ADD_FAILURE() << "a plan with xZp 200 loaded";
    } catch (const PlanError &e) {
        EXPECT_NE(std::string(e.what()).find("xZp 200"), std::string::npos)
            << e.what();
    }
}

TEST_F(PlanErrorsTest, CorruptByteFuzz)
{
    // Flip one byte at a time across the whole file: every flip must
    // be rejected with a typed PlanError — never UB (ASan-gated in
    // CI), never a silent success, never a stray exception type. The
    // header + section table get byte-dense coverage; payloads are
    // strided (every payload byte is under a section checksum, so
    // coverage there is representative, not positional).
    auto check = [&](size_t i) {
        std::string bad = blob_;
        bad[i] ^= 0x5A;
        try {
            loadPlanFromBytes(bad);
            ADD_FAILURE() << "byte " << i
                          << ": corrupt plan loaded successfully";
        } catch (const PlanError &) {
            // expected: typed rejection
        } catch (const std::exception &e) {
            ADD_FAILURE() << "byte " << i
                          << ": wrong exception type: " << e.what();
        }
    };
    size_t dense = std::min<size_t>(blob_.size(), 320);
    for (size_t i = 0; i < dense; ++i)
        check(i);
    for (size_t i = dense; i < blob_.size(); i += 5)
        check(i);
}

// ---- 5. serving from plan directories --------------------------------

ServedModel
servedMlp(int64_t batch, ParamStore *store)
{
    Graph g;
    Rng rng(7);
    NetBuilder nb(g, rng, store);
    int x = nb.input({batch, 16}, "x");
    int h = nb.relu(nb.linear(x, 32, "fc1"));
    h = nb.relu(nb.linear(h, 32, "fc2"));
    int logits = nb.linear(h, 4, "head");
    return ServedModel{std::move(g), {logits}};
}

ModelFactory
throwingFactory()
{
    return [](int64_t) -> ServedModel {
        throw std::logic_error(
            "model factory must not run when serving from plans");
    };
}

TEST(PlanServing, PlanDirParityAndZeroCompileStartup)
{
    auto store = std::make_shared<ParamStore>();
    servedMlp(1, store.get()); // materialize the frozen weights

    ServeOptions opts;
    opts.buckets = {1, 4};
    opts.workers = 2;
    ServingEngine compiled(
        [&](int64_t b) { return servedMlp(b, store.get()); }, store,
        opts);

    std::string dir = ::testing::TempDir() + "pe_plandir_fp32";
    compiled.savePlans(dir);

    std::vector<Tensor> inputs;
    for (int64_t rows = 1; rows <= 4; ++rows)
        inputs.push_back(seededInput({rows, 16}, 900 + rows));

    std::vector<Tensor> want;
    for (const Tensor &x : inputs)
        want.push_back(compiled.wait(compiled.submit({{"x", x}}))[0]);

    ServeOptions popts = opts;
    popts.planDir = dir;
    PipelineCounters before = pipelineCounters();
    ServingEngine served(throwingFactory(), nullptr, popts);
    EXPECT_TRUE(pipelineCounters() == before)
        << "plan-dir serving startup ran a compile stage";

    for (size_t i = 0; i < inputs.size(); ++i) {
        Tensor got =
            served.wait(served.submit({{"x", inputs[i]}}))[0];
        EXPECT_TRUE(bitEqual(want[i], got)) << "request " << i;
    }
}

TEST(PlanServing, Int8CalibrationWiringAndPlanDirParity)
{
    auto store = std::make_shared<ParamStore>();
    servedMlp(1, store.get());

    ServeOptions opts;
    opts.buckets = {1, 4};
    opts.workers = 1;
    opts.compile.precision = Precision::Int8;
    Rng rng(33);
    for (int i = 0; i < 2; ++i)
        opts.calibration.push_back(
            {{"x", Tensor::randn({4, 16}, rng)}});

    ServingEngine compiled(
        [&](int64_t b) { return servedMlp(b, store.get()); }, store,
        opts);
    EXPECT_EQ(compiled.bucketReport(4).precision, Precision::Int8);
    EXPECT_GT(compiled.bucketReport(4).quant.quantizedOps, 0)
        << "calibration wiring did not produce a quantized bucket";

    std::string dir = ::testing::TempDir() + "pe_plandir_int8";
    compiled.savePlans(dir);

    std::vector<Tensor> inputs;
    for (int64_t rows = 1; rows <= 4; ++rows)
        inputs.push_back(seededInput({rows, 16}, 700 + rows));
    std::vector<Tensor> want;
    for (const Tensor &x : inputs)
        want.push_back(compiled.wait(compiled.submit({{"x", x}}))[0]);

    ServeOptions popts = opts;
    popts.calibration.clear(); // not needed (and unused) for plans
    popts.planDir = dir;
    ServingEngine served(throwingFactory(), nullptr, popts);
    EXPECT_EQ(served.bucketReport(4).precision, Precision::Int8);
    for (size_t i = 0; i < inputs.size(); ++i) {
        Tensor got =
            served.wait(served.submit({{"x", inputs[i]}}))[0];
        EXPECT_TRUE(bitEqual(want[i], got)) << "request " << i;
    }
}

} // namespace
} // namespace pe
