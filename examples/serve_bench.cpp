/**
 * @file
 * Serving-runtime demo: mixed MCUNet + MLP traffic through the
 * session-based ServingEngine, against the serial runBatch baseline
 * that was the repository's only serving path before src/serve/.
 *
 * Two model families are served at once — a tiny MLP classifier
 * ("tabular" traffic) and the MCUNet proxy ("vision" traffic) — with
 * shape-bucketed request sizes, so the run exercises per-bucket
 * compiled-plan sharing, pad-to-bucket routing, the bounded admission
 * queue, and N concurrent sessions over one frozen ParamStore per
 * family.
 *
 * On a multicore host the 4-worker engine reports higher aggregate
 * throughput than the serial loop; on a single-core container the
 * sessions still interleave correctly but wall-clock speedup cannot
 * appear (same caveat as the PR-1 thread-scaling bench).
 *
 * Two deployment-shaped sections follow the fp32 run: an INT8 serving
 * path (calibrate() wired into the bucket factory via
 * ServeOptions::calibration, reporting footprint vs fp32 and top-1
 * agreement), and a plan-directory cold start — the int8 bucket plans
 * are saved once with savePlans() and a second engine boots from
 * ServeOptions::planDir with zero compile work (src/plan/).
 *
 * A continuous-batching section measures the coalescing win on the
 * traffic shape the ROADMAP names as the big lever: a burst of
 * batch-1 requests against a {1,4,8} bucket set. With
 * ServeOptions::coalesceWindowUs > 0 the burst shares bucket runs
 * (64 requests in ~8 runs instead of 64) with bit-identical outputs,
 * and a mixed-row trace shows group-aware routing beating
 * per-request pad waste.
 *
 *   ./build/serve_bench [requests-per-family]   (default: 64)
 *   ./build/serve_bench --json BENCH_serve.json
 *       runs ONLY the (fast, deterministic) coalescing scenarios and
 *       writes the machine-readable rows scripts/bench_json.sh
 *       snapshots and scripts/bench_check.py gates. The amortized
 *       us/request columns are the median of interleaved solo and
 *       coalesced rounds on warm engines.
 *   ./build/serve_bench --trace OUT.json
 *       runs a 4-worker coalesced burst with request-lifecycle and
 *       executor tracing armed (ServeOptions::trace) and exports a
 *       Chrome/Perfetto trace in which coalesced request lanes
 *       converge into shared run spans. Exits 0 only if at least one
 *       run served >= 2 requests (the converging-lanes acceptance).
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include <filesystem>

#include "../bench/bench_common.h"
#include "engine/engine.h"
#include "frontend/builder.h"
#include "frontend/models.h"
#include "plan/plan.h"
#include "serve/serving.h"

using namespace pe;

namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Family 0: the MLP. Parameter names are batch-independent, so all
 *  buckets share one frozen store. */
ServedModel
mlpModel(int64_t batch, ParamStore *store)
{
    Graph g;
    Rng rng(7);
    NetBuilder b(g, rng, store);
    int x = b.input({batch, 16}, "x");
    int h = b.relu(b.linear(x, 64, "fc1"));
    h = b.relu(b.linear(h, 64, "fc2"));
    int logits = b.linear(h, 4, "head");
    return ServedModel{std::move(g), {logits}};
}

/** Family 1: the MCUNet proxy at 16x16 (the paper's deployment-shaped
 *  CNN, scaled to run fast enough for a demo loop). */
ServedModel
mcunetModel(int64_t batch, ParamStore *store)
{
    VisionConfig cfg;
    cfg.batch = batch;
    cfg.resolution = 16;
    cfg.width = 0.5;
    cfg.blocks = 4;
    Rng rng(11);
    ModelSpec m = buildMcuNet(cfg, rng, store);
    return ServedModel{std::move(m.graph), {m.logits}};
}

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

struct Traffic {
    int family = 0; ///< 0 = MLP, 1 = MCUNet
    Tensor x;
};

// ---- continuous batching scenarios -----------------------------------

/** One coalescing measurement: the same trace through a per-request
 *  engine (coalesceWindowUs = 0) and a coalescing engine, outputs
 *  bit-compared per request. */
struct CoalesceRow {
    std::string scenario;
    int64_t requests = 0;
    int64_t runsSolo = 0, runsCoalesced = 0;
    double runReduction = 0; ///< runsSolo / runsCoalesced
    double coalesceRate = 0; ///< share of requests in shared runs
    double amortSoloUs = 0, amortCoalescedUs = 0;
    int64_t padSolo = 0, padCoalesced = 0;
    bool parity = true;
};

int64_t
totalPad(const ServeStats &s)
{
    int64_t pad = 0;
    for (const auto &b : s.buckets)
        pad += b.paddedRows;
    return pad;
}

/** Submit the whole trace as a burst, wait in order, return outputs. */
std::vector<Tensor>
pumpBurst(ServingEngine &e, const std::vector<Tensor> &xs)
{
    std::vector<ServingEngine::RequestId> ids;
    ids.reserve(xs.size());
    for (const Tensor &x : xs)
        ids.push_back(e.submit({{"x", x}}));
    std::vector<Tensor> outs;
    outs.reserve(ids.size());
    for (auto id : ids)
        outs.push_back(e.wait(id)[0]);
    return outs;
}

/** Plan run time summed over every bucket so far (ns). */
int64_t
totalRunNs(const ServeStats &s)
{
    int64_t ns = 0;
    for (const auto &b : s.buckets)
        ns += b.runNs;
    return ns;
}

/** Amortized run microseconds per request of one more pass of @p xs. */
double
amortizedRoundUs(ServingEngine &e, const std::vector<Tensor> &xs)
{
    ServeStats before = e.stats();
    pumpBurst(e, xs);
    ServeStats after = e.stats();
    return static_cast<double>(totalRunNs(after) - totalRunNs(before)) /
           1e3 / static_cast<double>(after.completed - before.completed);
}

/** Timing rounds per amortized-latency column: solo and coalesced
 *  alternate round by round on warm engines, and each column reports
 *  its median round. */
constexpr int kRounds = 201;

CoalesceRow
runCoalesceScenario(const std::string &scenario,
                    const std::shared_ptr<ParamStore> &store,
                    const std::vector<int64_t> &buckets,
                    const std::vector<Tensor> &xs, int64_t windowUs)
{
    auto factory = [&](int64_t b) { return mlpModel(b, store.get()); };
    ServeOptions solo;
    solo.buckets = buckets;
    solo.workers = 1; // one worker: the run-count drop is pure policy
    solo.queueCapacity = xs.size();
    ServingEngine soloE(factory, store, solo);
    ServeOptions co = solo;
    co.coalesceWindowUs = windowUs;
    ServingEngine coE(factory, store, co);

    std::vector<Tensor> ref = pumpBurst(soloE, xs);
    std::vector<Tensor> got = pumpBurst(coE, xs);

    CoalesceRow row;
    row.scenario = scenario;
    row.requests = static_cast<int64_t>(xs.size());
    for (size_t i = 0; i < xs.size(); ++i) {
        row.parity = row.parity && ref[i].shape() == got[i].shape() &&
                     std::memcmp(ref[i].data(), got[i].data(),
                                 sizeof(float) * ref[i].size()) == 0;
    }
    ServeStats ss = soloE.stats(), cs = coE.stats();
    row.runsSolo = ss.runs;
    row.runsCoalesced = cs.runs;
    row.runReduction = cs.runs > 0 ? static_cast<double>(ss.runs) /
                                         static_cast<double>(cs.runs)
                                   : 0;
    row.coalesceRate = cs.coalesceRate;
    row.padSolo = totalPad(ss);
    row.padCoalesced = totalPad(cs);

    std::vector<double> soloUs, coUs;
    for (int r = 0; r < kRounds; ++r) {
        soloUs.push_back(amortizedRoundUs(soloE, xs));
        coUs.push_back(amortizedRoundUs(coE, xs));
    }
    row.amortSoloUs = pe::bench::median(soloUs);
    row.amortCoalescedUs = pe::bench::median(coUs);
    return row;
}

/** Both scenarios: the ROADMAP's burst-of-singles, plus a mixed-row
 *  trace proving group-aware routing covers multi-row requests. */
std::vector<CoalesceRow>
runCoalesceScenarios(const std::shared_ptr<ParamStore> &store)
{
    const int64_t windowUs = 5000;
    Rng rng(97);

    std::vector<Tensor> singles;
    for (int i = 0; i < 64; ++i)
        singles.push_back(Tensor::randn({1, 16}, rng));

    std::vector<Tensor> mixed;
    for (int i = 0; i < 48; ++i)
        mixed.push_back(Tensor::randn(
            {1 + static_cast<int64_t>(i % 4), 16}, rng));

    return {
        runCoalesceScenario("burst_singles", store, {1, 4, 8},
                            singles, windowUs),
        runCoalesceScenario("mixed_rows", store, {1, 4, 8}, mixed,
                            windowUs),
    };
}

void
printCoalesceRows(const std::vector<CoalesceRow> &rows)
{
    std::printf("\n=== continuous batching (coalesced bucket runs) "
                "===\n");
    for (const CoalesceRow &r : rows) {
        std::printf(
            "%-14s: %lld req | runs %lld -> %lld (%.1fx fewer) | "
            "rate %.2f | amort %.1f -> %.1f us/req | pad %lld -> "
            "%lld rows | parity %s\n",
            r.scenario.c_str(), static_cast<long long>(r.requests),
            static_cast<long long>(r.runsSolo),
            static_cast<long long>(r.runsCoalesced), r.runReduction,
            r.coalesceRate, r.amortSoloUs, r.amortCoalescedUs,
            static_cast<long long>(r.padSolo),
            static_cast<long long>(r.padCoalesced),
            r.parity ? "EXACT" : "BROKEN");
    }
}

/** BENCH_serve.json rows (same flat-array shape as BENCH_table4): the
 *  run-reduction, coalescing-rate and amortized-latency columns
 *  scripts/bench_check.py gates. */
bool
saveCoalesceJson(const std::vector<CoalesceRow> &rows,
                 const std::string &path)
{
    pe::bench::JsonRows json;
    for (const CoalesceRow &r : rows) {
        json.begin("serve_coalesce");
        json.field("scenario", r.scenario);
#ifdef NDEBUG
        json.field("build_type", "release");
#else
        json.field("build_type", "debug");
#endif
        json.field("requests", r.requests);
        json.field("runs_solo", r.runsSolo);
        json.field("runs_coalesced", r.runsCoalesced);
        json.field("run_reduction", r.runReduction);
        json.field("coalesce_rate", r.coalesceRate);
        json.field("amortized_run_us_solo", r.amortSoloUs);
        json.field("amortized_run_us_coalesced", r.amortCoalescedUs);
        json.field("padded_rows_solo", r.padSolo);
        json.field("padded_rows_coalesced", r.padCoalesced);
        json.field("parity", static_cast<int64_t>(r.parity ? 1 : 0));
    }
    return json.save(path);
}

} // namespace

int
main(int argc, char **argv)
{
    // --trace <path>: traced 4-worker coalesced burst -> Chrome trace.
    std::string tracePath;
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--trace") == 0)
            tracePath = argv[i + 1];
    }
    if (!tracePath.empty()) {
        auto store = std::make_shared<ParamStore>();
        mlpModel(1, store.get());
        ServeOptions so;
        so.buckets = {1, 4, 8};
        so.workers = 4;
        so.coalesceWindowUs = 5000;
        so.queueCapacity = 64;
        so.trace = true;
        ServingEngine e(
            [&](int64_t b) { return mlpModel(b, store.get()); },
            store, so);
        Rng rng(97);
        std::vector<Tensor> xs;
        for (int i = 0; i < 64; ++i)
            xs.push_back(Tensor::randn({1, 16}, rng));
        pumpBurst(e, xs);
        ServeStats s = e.stats();
        std::printf("%s", s.summary().c_str());
        if (!e.exportChromeTrace(tracePath)) {
            std::fprintf(stderr, "failed to write %s\n",
                         tracePath.c_str());
            return 1;
        }
        std::printf("chrome trace: %s (load in chrome://tracing or "
                    "ui.perfetto.dev)\n",
                    tracePath.c_str());
        std::printf("shared run spans: %lld runs served >= 2 request "
                    "lanes -> %s\n",
                    static_cast<long long>(s.coalescedRuns),
                    s.coalescedRuns >= 1 ? "OK" : "NONE");
        return s.coalescedRuns >= 1 ? 0 : 1;
    }

    // --json <path>: run only the deterministic coalescing scenarios
    // and emit the rows bench_json.sh snapshots / bench_check.py gates.
    const std::string jsonPath = pe::bench::jsonPathFromArgs(argc, argv);
    if (!jsonPath.empty()) {
        auto store = std::make_shared<ParamStore>();
        mlpModel(1, store.get());
        std::vector<CoalesceRow> rows = runCoalesceScenarios(store);
        printCoalesceRows(rows);
        if (!saveCoalesceJson(rows, jsonPath)) {
            std::fprintf(stderr, "failed to write %s\n",
                         jsonPath.c_str());
            return 1;
        }
        std::printf("wrote %s\n", jsonPath.c_str());
        for (const CoalesceRow &r : rows)
            if (!r.parity)
                return 1;
        return 0;
    }

    const int perFamily = argc > 1 ? std::atoi(argv[1]) : 64;
    const std::vector<int64_t> mlpBuckets = {1, 4};
    const std::vector<int64_t> cnnBuckets = {1, 2};

    auto mlpStore = std::make_shared<ParamStore>();
    auto cnnStore = std::make_shared<ParamStore>();
    mlpModel(1, mlpStore.get()); // materialize the frozen weights
    mcunetModel(1, cnnStore.get());

    // Mixed traffic: alternating families, cycling request sizes
    // within each family's bucket range (so some requests pad).
    Rng rng(3);
    std::vector<Traffic> traffic;
    for (int i = 0; i < perFamily; ++i) {
        traffic.push_back(
            {0, Tensor::randn({1 + static_cast<int64_t>(i % 4), 16},
                              rng)});
        traffic.push_back(
            {1, Tensor::randn({1 + static_cast<int64_t>(i % 2), 3, 16,
                               16},
                              rng)});
    }

    // ---- serial baseline: per-bucket programs driven one request at
    // a time on one executor (pad to bucket, run, slice — exactly
    // what the engine does, minus the concurrency).
    CompileOptions copt;
    ServedModel sm1 = mlpModel(1, mlpStore.get());
    ServedModel sm4 = mlpModel(4, mlpStore.get());
    ServedModel sc1 = mcunetModel(1, cnnStore.get());
    ServedModel sc2 = mcunetModel(2, cnnStore.get());
    auto mlp1 = compileInference(sm1.graph, sm1.outputs, copt, mlpStore);
    auto mlp4 = compileInference(sm4.graph, sm4.outputs, copt, mlpStore);
    auto cnn1 = compileInference(sc1.graph, sc1.outputs, copt, cnnStore);
    auto cnn2 = compileInference(sc2.graph, sc2.outputs, copt, cnnStore);
    auto progFor = [&](int family,
                       int64_t rows) -> std::pair<InferenceProgram &,
                                                  int64_t> {
        if (family == 0)
            return rows <= 1 ? std::pair<InferenceProgram &, int64_t>{
                                   mlp1, 1}
                             : std::pair<InferenceProgram &, int64_t>{
                                   mlp4, 4};
        return rows <= 1 ? std::pair<InferenceProgram &, int64_t>{cnn1,
                                                                  1}
                         : std::pair<InferenceProgram &, int64_t>{cnn2,
                                                                  2};
    };

    auto t0 = std::chrono::steady_clock::now();
    for (const Traffic &req : traffic) {
        auto [prog, bucket] = progFor(req.family, req.x.shape()[0]);
        prog.run({{"x", padRows(req.x, bucket)}});
    }
    double serialSec = secondsSince(t0);
    double serialRps = traffic.size() / serialSec;
    std::printf("serial runBatch  : %5.1f req/s  (%zu requests, "
                "%.2fs)\n",
                serialRps, traffic.size(), serialSec);

    // ---- the serving engine at 1 and 4 workers ---------------------
    double engineRps[2] = {0, 0};
    const int workerCounts[2] = {1, 4};
    for (int wi = 0; wi < 2; ++wi) {
        int workers = workerCounts[wi];
        ServeOptions mo;
        mo.buckets = mlpBuckets;
        mo.workers = workers;
        mo.queueCapacity = 32;
        ServingEngine mlp(
            [&](int64_t b) { return mlpModel(b, mlpStore.get()); },
            mlpStore, mo);
        ServeOptions co;
        co.buckets = cnnBuckets;
        co.workers = workers;
        co.queueCapacity = 32;
        ServingEngine cnn(
            [&](int64_t b) { return mcunetModel(b, cnnStore.get()); },
            cnnStore, co);

        auto tb = std::chrono::steady_clock::now();
        std::vector<std::pair<int, ServingEngine::RequestId>> ids;
        ids.reserve(traffic.size());
        for (const Traffic &req : traffic) {
            ServingEngine &e = req.family == 0 ? mlp : cnn;
            ids.emplace_back(req.family, e.submit({{"x", req.x}}));
        }
        for (auto &[family, id] : ids)
            (family == 0 ? mlp : cnn).wait(id);
        double sec = secondsSince(tb);
        engineRps[wi] = traffic.size() / sec;

        ServeStats ms = mlp.stats(), cs = cnn.stats();
        std::printf("engine %d worker%s: %5.1f req/s  (%.2fs)\n",
                    workers, workers == 1 ? " " : "s",
                    engineRps[wi], sec);
        std::printf("--- mlp ---\n%s", ms.summary().c_str());
        std::printf("--- mcunet ---\n%s", cs.summary().c_str());
    }

    std::printf("\naggregate throughput: serial %.1f -> 4 workers "
                "%.1f req/s (%.2fx)\n",
                serialRps, engineRps[1], engineRps[1] / serialRps);
    std::printf("(a 1-core container shows ~1x: sessions interleave "
                "correctly but cannot overlap in wall-clock — same "
                "caveat as the PR-1 thread-scaling bench)\n");

    // Per-bucket compiled-plan facts: one plan per (precision,
    // bucket), shared by every session that serves it.
    {
        ServeOptions mo;
        mo.buckets = mlpBuckets;
        ServingEngine mlp(
            [&](int64_t b) { return mlpModel(b, mlpStore.get()); },
            mlpStore, mo);
        for (int64_t b : mlpBuckets) {
            const CompileReport &r = mlp.bucketReport(b);
            std::printf("mlp bucket %lld: %d kernel steps, arena "
                        "%lld KB, %lld KB weights\n",
                        static_cast<long long>(b), r.kernelSteps,
                        static_cast<long long>(r.arenaBytes / 1024),
                        static_cast<long long>(
                            (r.paramBytes + r.constBytes) / 1024));
        }
    }

    // ---- int8 serving: calibrate() wired into the bucket factory --
    // The engine pads each calibration batch to every bucket's shape
    // (the same zero-pad real traffic gets), stamps observed ranges,
    // and the QuantizePass turns each bucket into an int8 plan with
    // pre-quantized i8 weight consts.
    std::printf("\n=== int8 serving (calibrated buckets) ===\n");
    auto cnnFactory = [&](int64_t b) {
        return mcunetModel(b, cnnStore.get());
    };
    ServeOptions qco;
    qco.buckets = cnnBuckets;
    qco.workers = 4;
    qco.queueCapacity = 32;
    qco.compile.precision = Precision::Int8;
    {
        Rng crng(17);
        for (int i = 0; i < 2; ++i)
            qco.calibration.push_back(
                {{"x", Tensor::randn({2, 3, 16, 16}, crng)}});
    }
    ServingEngine qcnn(cnnFactory, cnnStore, qco);

    // Agreement + throughput vs the fp32 engine on the same traffic.
    ServeOptions fo;
    fo.buckets = cnnBuckets;
    fo.workers = 4;
    fo.queueCapacity = 32;
    ServingEngine fcnn(cnnFactory, cnnStore, fo);
    int agree = 0, total = 0;
    auto tq = std::chrono::steady_clock::now();
    for (const Traffic &req : traffic) {
        if (req.family != 1)
            continue;
        Tensor f = fcnn.wait(fcnn.submit({{"x", req.x}}))[0];
        Tensor q = qcnn.wait(qcnn.submit({{"x", req.x}}))[0];
        int64_t classes = f.shape()[1];
        for (int64_t row = 0; row < f.shape()[0]; ++row) {
            int64_t fa = 0, qa = 0;
            for (int64_t c = 1; c < classes; ++c) {
                if (f[row * classes + c] > f[row * classes + fa])
                    fa = c;
                if (q[row * classes + c] > q[row * classes + qa])
                    qa = c;
            }
            agree += fa == qa;
            ++total;
        }
    }
    double qSec = secondsSince(tq);
    const CompileReport &q1 = qcnn.bucketReport(1);
    const CompileReport &f1 = fcnn.bucketReport(1);
    std::printf("int8 top-1 agreement vs fp32: %d/%d rows\n", agree,
                total);
    std::printf("int8 bucket-1 act+weight: %lld KB (fp32 %lld KB, "
                "%.2fx); fallbacks: %s\n",
                static_cast<long long>(q1.actWeightBytes() / 1024),
                static_cast<long long>(f1.actWeightBytes() / 1024),
                static_cast<double>(q1.actWeightBytes()) /
                    static_cast<double>(f1.actWeightBytes()),
                q1.fallbackBreakdown().empty()
                    ? "none"
                    : q1.fallbackBreakdown().c_str());
    std::printf("mixed fp32+int8 interleaved: %.2fs for %d requests\n",
                qSec, 2 * perFamily);

    // ---- continuous batching: queued requests share bucket runs ----
    std::vector<CoalesceRow> coRows = runCoalesceScenarios(mlpStore);
    printCoalesceRows(coRows);
    bool coParity = true;
    for (const CoalesceRow &r : coRows)
        coParity = coParity && r.parity;

    // ---- compile once, deploy anywhere: plan-directory cold start --
    // savePlans() freezes every (precision, bucket) plan to disk; a
    // fresh engine boots from the directory with ZERO compile work
    // (the constructor asserts no planner/scheduler/QuantizePass
    // stage runs) — the serving-fleet startup story of src/plan/.
    std::printf("\n=== serving from a plan directory ===\n");
    std::string planDir =
        (std::filesystem::temp_directory_path() / "serve_bench_plans")
            .string();
    auto ts = std::chrono::steady_clock::now();
    qcnn.savePlans(planDir);
    double saveSec = secondsSince(ts);

    auto tc = std::chrono::steady_clock::now();
    ServeOptions po = qco;
    po.calibration.clear();
    po.planDir = planDir;
    ServingEngine planCnn(
        [](int64_t) -> ServedModel {
            throw std::logic_error("factory unused with planDir");
        },
        nullptr, po);
    double loadSec = secondsSince(tc);

    // Bit-parity spot check: plans serve exactly what compiles serve.
    bool parity = true;
    for (int i = 0; i < 8; ++i) {
        Rng prng(100 + i);
        Tensor x = Tensor::randn({1 + (i % 2), 3, 16, 16}, prng);
        Tensor a = qcnn.wait(qcnn.submit({{"x", x}}))[0];
        Tensor b = planCnn.wait(planCnn.submit({{"x", x}}))[0];
        parity = parity && a.shape() == b.shape() &&
                 std::memcmp(a.data(), b.data(),
                             sizeof(float) * a.size()) == 0;
    }
    int64_t planBytes = 0;
    for (const auto &e :
         std::filesystem::directory_iterator(planDir))
        planBytes += static_cast<int64_t>(e.file_size());
    std::printf("saved %lld KB of int8 bucket plans in %.1f ms; "
                "engine from planDir up in %.1f ms (zero compile "
                "work, asserted); bit-parity vs compiled engine: "
                "%s\n",
                static_cast<long long>(planBytes / 1024),
                saveSec * 1e3, loadSec * 1e3,
                parity ? "EXACT" : "BROKEN");
    return parity && coParity ? 0 : 1;
}
