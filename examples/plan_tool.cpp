/**
 * @file
 * plan_tool: compile once, deploy anywhere — the CLI for binary plan
 * files (src/plan/).
 *
 *   plan_tool compile --model mlp|mcunet --precision fp32|fp16|int8
 *             [--batch N] [--res N] [--threads N] -o FILE
 *       Build the named model DETERMINISTICALLY (fixed seeds for
 *       weights and calibration), run the full compile pipeline, and
 *       serialize the compiled plan. Two invocations with the same
 *       flags produce byte-identical files — the CI round-trip job
 *       `cmp`s them to prove it.
 *
 *   plan_tool inspect FILE
 *       Print the header, section table (sizes + checksums), the
 *       compiled program's vital signs, and how this host binds it
 *       (SIMD tier, kernel fallbacks, tier misses) without executing
 *       anything.
 *
 *   plan_tool run FILE [--seed N] [--verify]
 *       Load the plan (zero compile work — asserted), run it on a
 *       seeded deterministic input, and print a checksum of every
 *       output. With --verify, additionally rebuild the model from
 *       the recipe recorded in the plan's tag, compile it fresh
 *       in-process, and require (a) the fresh plan bytes to equal the
 *       file and (b) the fresh outputs to be BIT-identical to the
 *       loaded plan's — machine/process portability, proven.
 *
 *   plan_tool profile FILE [--iters N] [--seed N] [--chrome OUT.json]
 *       Load the plan, arm execution tracing, run N iterations on a
 *       seeded input, and print the per-step / per-op attribution
 *       tables (src/obs/). Also reports trace COVERAGE — summed span
 *       time over measured wall time — so lost time is visible, and
 *       optionally writes the spans as Chrome Trace Event JSON for
 *       chrome://tracing / Perfetto.
 *
 * Exit status: 0 on success / verification pass, 1 otherwise.
 */

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "frontend/builder.h"
#include "frontend/models.h"
#include "obs/chrome.h"
#include "obs/profile.h"
#include "plan/plan.h"
#include "quant/quant.h"

using namespace pe;

namespace {

struct Recipe {
    std::string model = "mlp"; ///< mlp | mcunet
    int64_t batch = 1;
    int64_t res = 16;         ///< mcunet input resolution
    int threads = 1;
    Precision precision = Precision::F32;
};

std::string
tagOf(const Recipe &r)
{
    return "model=" + r.model + ";batch=" + std::to_string(r.batch) +
           ";res=" + std::to_string(r.res) +
           ";threads=" + std::to_string(r.threads) +
           ";precision=" + precisionName(r.precision);
}

Precision
parsePrecision(const std::string &s)
{
    if (s == "fp32")
        return Precision::F32;
    if (s == "fp16")
        return Precision::F16;
    if (s == "int8")
        return Precision::Int8;
    throw std::runtime_error("unknown precision '" + s +
                             "' (fp32|fp16|int8)");
}

/** Parse the "k=v;k=v" tag a compile stamped into the plan. */
Recipe
recipeFromTag(const std::string &tag)
{
    if (tag.empty())
        throw std::runtime_error(
            "plan carries no plan_tool recipe tag (written by "
            "savePlan()/savePlans()?) — --verify needs a plan made "
            "by `plan_tool compile`");
    Recipe r;
    size_t pos = 0;
    while (pos < tag.size()) {
        size_t eq = tag.find('=', pos);
        size_t end = tag.find(';', pos);
        if (end == std::string::npos)
            end = tag.size();
        if (eq == std::string::npos || eq > end)
            throw std::runtime_error(
                "plan tag is not a plan_tool recipe: " + tag);
        std::string k = tag.substr(pos, eq - pos);
        std::string v = tag.substr(eq + 1, end - eq - 1);
        if (k == "model")
            r.model = v;
        else if (k == "batch")
            r.batch = std::stoll(v);
        else if (k == "res")
            r.res = std::stoll(v);
        else if (k == "threads")
            r.threads = std::stoi(v);
        else if (k == "precision")
            r.precision = parsePrecision(v);
        else
            throw std::runtime_error("unknown tag key '" + k + "'");
        pos = end + 1;
    }
    return r;
}

struct BuiltModel {
    Graph graph;
    int logits = -1;
    std::shared_ptr<ParamStore> store;
    Shape inShape;
};

/** Deterministic model construction: fixed weight seeds per family. */
BuiltModel
buildModel(const Recipe &r)
{
    BuiltModel b;
    b.store = std::make_shared<ParamStore>();
    if (r.model == "mlp") {
        Rng rng(7);
        NetBuilder nb(b.graph, rng, b.store.get());
        int x = nb.input({r.batch, 16}, "x");
        int h = nb.relu(nb.linear(x, 64, "fc1"));
        h = nb.relu(nb.linear(h, 64, "fc2"));
        b.logits = nb.linear(h, 4, "head");
        b.inShape = {r.batch, 16};
    } else if (r.model == "mcunet") {
        VisionConfig cfg;
        cfg.batch = r.batch;
        cfg.resolution = r.res;
        cfg.width = 0.5;
        cfg.blocks = 4;
        Rng rng(11);
        ModelSpec m = buildMcuNet(cfg, rng, b.store.get());
        b.graph = std::move(m.graph);
        b.logits = m.logits;
        b.inShape = {r.batch, 3, r.res, r.res};
    } else {
        throw std::runtime_error("unknown model '" + r.model +
                                 "' (mlp|mcunet)");
    }
    return b;
}

/** The one compile path `compile` and `run --verify` both take, so a
 *  verify failure can only mean a real portability break. */
std::string
compileToBytes(const Recipe &r, BuiltModel &b)
{
    if (r.precision != Precision::F32) {
        std::vector<std::unordered_map<std::string, Tensor>> calib;
        Rng rng(55);
        for (int i = 0; i < 2; ++i)
            calib.push_back({{"x", Tensor::randn(b.inShape, rng)}});
        calibrate(b.graph, *b.store, calib);
    }
    CompileOptions opt;
    opt.precision = r.precision;
    opt.numThreads = r.threads;
    InferenceProgram prog =
        compileInference(b.graph, {b.logits}, opt, b.store);
    return serializePlan(prog.graph(),
                         prog.executor().exportArtifact(),
                         prog.report(), *b.store, tagOf(r));
}

/** Seeded feeds for every Input node, in id order. */
std::unordered_map<std::string, Tensor>
seededFeeds(const Graph &g, uint64_t seed)
{
    Rng rng(seed);
    std::unordered_map<std::string, Tensor> feeds;
    for (int id : g.inputIds())
        feeds.emplace(g.node(id).name,
                      Tensor::randn(g.node(id).shape, rng));
    return feeds;
}

bool
bitEqual(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       sizeof(float) *
                           static_cast<size_t>(a.size())) == 0;
}

int
cmdCompile(const Recipe &r, const std::string &out)
{
    BuiltModel b = buildModel(r);
    std::string bytes = compileToBytes(r, b);
    writePlanFile(out, bytes);
    std::printf("wrote %s (%zu bytes)  tag: %s\n", out.c_str(),
                bytes.size(), tagOf(r).c_str());
    return 0;
}

int
cmdInspect(const std::string &path)
{
    std::string bytes = readPlanFile(path);
    std::printf("%s: %zu bytes, format v%u\n", path.c_str(),
                bytes.size(), kPlanFormatVersion);
    std::printf("%-6s %10s %10s  %-16s %s\n", "sect", "offset",
                "bytes", "checksum", "ok");
    for (const PlanSectionInfo &s : planSections(bytes)) {
        std::printf("%-6s %10llu %10llu  %016llx %s\n",
                    s.tag.c_str(),
                    static_cast<unsigned long long>(s.offset),
                    static_cast<unsigned long long>(s.bytes),
                    static_cast<unsigned long long>(s.checksum),
                    s.checksumOk ? "ok" : "MISMATCH");
    }

    PlanData pd = deserializePlan(bytes);
    int steps = 0;
    for (int id : pd.artifact.order) {
        if (!isSourceOp(pd.graph.node(id).op))
            ++steps;
    }
    const MemoryPlan &mp = pd.artifact.plan;
    std::printf("\ntag       : %s\n", pd.tag.c_str());
    std::printf("precision : %s\n", precisionName(pd.precision));
    std::printf("graph     : %d nodes, %zu inputs, %zu outputs, "
                "%zu params, %d kernel steps\n",
                pd.graph.numNodes(), pd.graph.inputIds().size(),
                pd.graph.outputs().size(), pd.params.size(), steps);
    std::printf("launch    : %d threads, %d sharded steps\n",
                pd.artifact.numThreads,
                countShardedSteps(pd.artifact.shardsPerStep));
    std::printf("memory    : arena %lld B (peak live %lld B), "
                "workspaces %lld B, params %lld B, consts %lld B\n",
                static_cast<long long>(mp.arenaBytes),
                static_cast<long long>(mp.peakLiveBytes),
                static_cast<long long>(mp.workspaceBytes),
                static_cast<long long>(mp.paramBytes),
                static_cast<long long>(mp.constBytes));
    std::printf("compile   : %d fusions, %d folded, %d quantized ops, "
                "%d prequantized weights, %.3g FLOPs/step\n",
                pd.report.fusions, pd.report.folded,
                pd.report.quant.quantizedOps,
                pd.report.quant.prequantizedWeights,
                pd.report.flopsPerStep);
    std::printf("backend   : %d winograd, %d im2col, %d blocked, "
                "%d int8 bound\n",
                pd.report.backend.winogradBound,
                pd.report.backend.im2colBound,
                pd.report.backend.blockedBound,
                pd.report.backend.int8Bound);
    // Binding resolves kernels against this host's registry (no
    // kernel runs): which tier each step got, and what missed it.
    auto loaded = loadPlanFromBytes(bytes);
    const CompileReport &br = loaded->report();
    auto orNone = [](const std::string &s) {
        return s.empty() ? std::string("none") : s;
    };
    std::printf("binding   : %s tier (%s); kernel fallbacks: %s; "
                "tier misses: %s; attention unfused: %d\n",
                br.simdTier.c_str(), br.tierBreakdown().c_str(),
                orNone(br.fallbackBreakdown()).c_str(),
                orNone(br.tierMissBreakdown()).c_str(),
                br.attentionUnfused);
    return 0;
}

int
cmdRun(const std::string &path, uint64_t seed, bool verify)
{
    std::string bytes = readPlanFile(path);
    auto loaded = loadPlanFromBytes(bytes);
    auto feeds = seededFeeds(loaded->graph(), seed);
    std::vector<Tensor> outs = loaded->run(feeds);
    for (size_t i = 0; i < outs.size(); ++i) {
        std::printf("output[%zu]: shape %s checksum %016llx\n", i,
                    shapeToString(outs[i].shape()).c_str(),
                    static_cast<unsigned long long>(planChecksum(
                        outs[i].data(),
                        sizeof(float) *
                            static_cast<size_t>(outs[i].size()))));
    }
    if (!verify)
        return 0;

    // Rebuild from the recipe the plan carries, compile fresh IN THIS
    // process, and require byte-identical plan bytes + bit-identical
    // outputs. Run from a plan produced by another job/machine, this
    // is the whole portability claim in one command.
    PlanData pd = deserializePlan(bytes);
    Recipe r = recipeFromTag(pd.tag);
    BuiltModel b = buildModel(r);
    std::string fresh = compileToBytes(r, b);
    bool bytes_ok = fresh == bytes;
    std::printf("verify: plan bytes %s (%zu vs %zu)\n",
                bytes_ok ? "IDENTICAL" : "DIFFER", bytes.size(),
                fresh.size());

    auto fresh_prog = loadPlanFromBytes(fresh);
    std::vector<Tensor> fresh_outs = fresh_prog->run(feeds);
    bool outs_ok = fresh_outs.size() == outs.size();
    for (size_t i = 0; outs_ok && i < outs.size(); ++i)
        outs_ok = bitEqual(outs[i], fresh_outs[i]);
    std::printf("verify: outputs vs fresh compile %s\n",
                outs_ok ? "BIT-IDENTICAL" : "DIFFER");
    std::printf("%s\n", bytes_ok && outs_ok ? "PASS" : "FAIL");
    return bytes_ok && outs_ok ? 0 : 1;
}

int
cmdProfile(const std::string &path, int iters, uint64_t seed,
           const std::string &chromeOut)
{
    std::string bytes = readPlanFile(path);
    auto loaded = loadPlanFromBytes(bytes);
    Executor &ex = loaded->executor();
    auto feeds = seededFeeds(loaded->graph(), seed);
    for (auto &[name, t] : feeds)
        ex.bindInput(name, t);

    // One untraced warm-up run: first-touch page faults and cold
    // caches land outside the profiled window, so the tables show
    // steady-state kernel time only.
    ex.run();

    // Size the ring for every span the loop can record (steps plus
    // shard spans at the plan's thread count) — a profile with
    // dropped spans would silently under-attribute.
    size_t cap = static_cast<size_t>(iters) *
                 static_cast<size_t>(ex.numSteps()) *
                 static_cast<size_t>(1 + ex.numThreads());
    ex.armTrace(cap);

    int64_t w0 = traceNowNs();
    for (int i = 0; i < iters; ++i)
        ex.run();
    int64_t wallNs = traceNowNs() - w0;

    ProfileReport pr = profileTrace(ex, *ex.trace());
    std::printf("%s\n", pr.table().c_str());
    if (pr.kernelFallbacks > 0)
        std::printf("kernel fallbacks: %d -> %s\n", pr.kernelFallbacks,
                    pr.fallbackBreakdown.c_str());
    double coverage =
        wallNs > 0 ? static_cast<double>(pr.totalNs) /
                         static_cast<double>(wallNs)
                   : 0;
    std::printf("coverage: spans explain %.1f%% of %.3f ms measured "
                "wall (%d iters)\n",
                100.0 * coverage, wallNs / 1e6, iters);
    if (!chromeOut.empty()) {
        if (!exportChromeTrace(chromeOut, ex, *ex.trace())) {
            std::fprintf(stderr, "plan_tool: cannot write %s\n",
                        chromeOut.c_str());
            return 1;
        }
        std::printf("chrome trace: %s (load in chrome://tracing or "
                    "ui.perfetto.dev)\n",
                    chromeOut.c_str());
    }
    return 0;
}

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage:\n"
        "  plan_tool compile --model mlp|mcunet --precision "
        "fp32|fp16|int8 [--batch N] [--res N] [--threads N] -o FILE\n"
        "  plan_tool inspect FILE\n"
        "  plan_tool run FILE [--seed N] [--verify]\n"
        "  plan_tool profile FILE [--iters N] [--seed N] "
        "[--chrome OUT.json]\n");
    std::exit(1);
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        if (argc < 2)
            usage();
        std::string cmd = argv[1];
        std::vector<std::string> args(argv + 2, argv + argc);
        auto value = [&](size_t &i) -> std::string {
            if (i + 1 >= args.size())
                usage();
            return args[++i];
        };

        if (cmd == "compile") {
            Recipe r;
            std::string out;
            for (size_t i = 0; i < args.size(); ++i) {
                if (args[i] == "--model")
                    r.model = value(i);
                else if (args[i] == "--precision")
                    r.precision = parsePrecision(value(i));
                else if (args[i] == "--batch")
                    r.batch = std::stoll(value(i));
                else if (args[i] == "--res")
                    r.res = std::stoll(value(i));
                else if (args[i] == "--threads")
                    r.threads = std::stoi(value(i));
                else if (args[i] == "-o" || args[i] == "--out")
                    out = value(i);
                else
                    usage();
            }
            if (out.empty())
                usage();
            return cmdCompile(r, out);
        }
        if (cmd == "inspect") {
            if (args.size() != 1)
                usage();
            return cmdInspect(args[0]);
        }
        if (cmd == "run") {
            std::string path;
            uint64_t seed = 123;
            bool verify = false;
            for (size_t i = 0; i < args.size(); ++i) {
                if (args[i] == "--seed")
                    seed = std::stoull(value(i));
                else if (args[i] == "--verify")
                    verify = true;
                else if (path.empty())
                    path = args[i];
                else
                    usage();
            }
            if (path.empty())
                usage();
            return cmdRun(path, seed, verify);
        }
        if (cmd == "profile") {
            std::string path, chromeOut;
            int iters = 50;
            uint64_t seed = 123;
            for (size_t i = 0; i < args.size(); ++i) {
                if (args[i] == "--iters")
                    iters = std::stoi(value(i));
                else if (args[i] == "--seed")
                    seed = std::stoull(value(i));
                else if (args[i] == "--chrome")
                    chromeOut = value(i);
                else if (path.empty())
                    path = args[i];
                else
                    usage();
            }
            if (path.empty() || iters < 1)
                usage();
            return cmdProfile(path, iters, seed, chromeOut);
        }
        usage();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "plan_tool: %s\n", e.what());
        return 1;
    }
}
