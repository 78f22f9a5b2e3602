/**
 * @file
 * The three workloads. Each one: generates its inputs from the seed,
 * times several identical set-ups and keeps the last, runs closed-loop
 * ops (one client thread, each op waited on before the next) for the
 * requested seconds, checks every op's outputs, then checks a sample
 * against an independent reference outside the timed ops.
 *
 * --trace 1 splits the time into an untraced half and a traced half
 * (spans around every layer call, executor step tracing armed) and
 * reports per-layer metrics instead of end-to-end ones.
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "baseline/eager.h"
#include "bench.h"
#include "engine/engine.h"
#include "frontend/models.h"
#include "obs/profile.h"
#include "quant/quant.h"
#include "serve/serving.h"

namespace perfbench {

using pe::Tensor;
using Feeds = std::unordered_map<std::string, Tensor>;

std::string
Result::num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.12g", std::isfinite(v) ? v : -1.0);
    return buf;
}

std::vector<double>
SpanLog::durationsMs(const char *name) const
{
    std::vector<double> out;
    for (const Span &s : spans_)
        if (std::strcmp(s.name, name) == 0)
            out.push_back(msBetween(s.startNs, s.endNs));
    return out;
}

double
SpanLog::coverage() const
{
    const std::vector<int64_t> self = selfTimes(spans_);
    int64_t wall = 0, uncovered = 0;
    for (size_t i = 0; i < spans_.size(); ++i) {
        if (spans_[i].parent >= 0)
            continue;
        wall += spans_[i].endNs - spans_[i].startNs;
        uncovered += self[i];
    }
    return wall > 0 ? 1.0 - static_cast<double>(uncovered) /
                                static_cast<double>(wall)
                    : 0;
}

double
peakRssMb()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    return 0;
}

void
endToEnd(Result &r, const Timings &opMs, double workPerOp,
         const Timings &ttftMs, const Timings &setupMs, double rssMb)
{
    const Summary op = summarize(opMs.used());
    const Summary tt = summarize(ttftMs.used());
    const std::vector<double> setup = setupMs.used();
    r.metric("op_ms_p50", op.p50, "ms");
    r.metric("op_ms_p90", op.p90, "ms");
    r.metric("work_per_s",
             op.sum > 0 ? workPerOp * static_cast<double>(op.n) /
                              (op.sum / 1e3)
                        : 0,
             "1/s");
    r.metric("ttft_ms_p50", tt.p50, "ms");
    r.metric("ttft_ms_p90", tt.p90, "ms");
    r.metric("peak_rss_mb", rssMb, "MiB");
    r.metric("setup_s", median(setup) / 1e3, "s");
    r.metric("success_frac",
             r.attempted > 0 ? static_cast<double>(r.attempted - r.failed) /
                                   static_cast<double>(r.attempted)
                             : 0,
             "frac");
    r.note("op_samples", static_cast<double>(op.n));
    r.note("op_samples_total", static_cast<double>(opMs.total()));
    r.note("op_samples_beyond_p90", static_cast<double>(op.beyondP90));
    r.note("ttft_samples", static_cast<double>(tt.n));
    r.note("ttft_samples_total", static_cast<double>(ttftMs.total()));
    r.note("ttft_samples_beyond_p90", static_cast<double>(tt.beyondP90));
    r.note("setup_samples", static_cast<double>(setup.size()));
    r.note("setup_samples_total", static_cast<double>(setupMs.total()));
}

namespace {

/** Model weights are fixed; only inputs come from the workload seed. */
constexpr uint64_t kModelSeed = 11;

/** Ops whose kernel time share every traced run reports (the union of
 *  the three workloads' top five); absent ops read 0. */
const char *const kShareOps[] = {
    "ConvBiasAct", "DwConvBiasAct", "Conv2dBwdInput", "Conv2dBwdWeight",
    "DwConv2dBwdInput", "QuantDwConv2d", "QuantConv2d", "QuantAdd",
    "Quantize", "QuantMatMul", "MatMul", "FusedAttention", "Silu",
    "RMSNorm", "Reshape", "CacheWrite",
};

bool
finiteAll(const Tensor &t)
{
    for (int64_t i = 0; i < t.size(); ++i)
        if (!std::isfinite(t[i]))
            return false;
    return true;
}

bool
bitEqual(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(), sizeof(float) * a.size()) == 0;
}

/** Per-layer metrics no workload-specific code sets default to 0
 *  (the workload does not use that layer). */
struct Layers {
    std::map<std::string, std::pair<double, std::string>> m;

    void set(const std::string &k, double v, const std::string &unit)
    {
        m[k] = {v, unit};
    }

    Layers()
    {
        for (const char *k :
             {"frontend.build_ms", "engine.compile_ms",
              "runtime.run_ms_p50", "serve.construct_ms",
              "serve.wait_ms_p50", "serve.run_ms_per_op",
              "serve.overhead_ms_per_op", "serve.prefill_run_ms",
              "serve.prefill_overhead_ms"})
            set(k, 0, "ms");
        for (const char *k : {"runtime.bind_us_p50", "runtime.fetch_us_p50",
                              "serve.submit_us_p50"})
            set(k, 0, "us");
        for (const char *k :
             {"engine.kernel_steps", "engine.pruned_nodes",
              "engine.simd_steps", "kernels.fallbacks", "serve.runs_per_op",
              "serve.padded_rows_per_op"})
            set(k, 0, "count");
        set("engine.peak_live_kb", 0, "KiB");
        set("serve.cache_kb_per_stream", 0, "KiB");
        set("kernels.gflops", 0, "GFLOP/s");
        set("obs.trace_overhead_frac", 0, "frac");
        set("obs.span_coverage", 0, "frac");
        for (const char *op : kShareOps)
            set(std::string("kernels.share.") + op, 0, "frac");
    }

    void
    compileReport(const pe::CompileReport &rep)
    {
        set("engine.kernel_steps", rep.kernelSteps, "count");
        set("engine.pruned_nodes", rep.prunedNodes, "count");
        set("engine.simd_steps", rep.simdSteps, "count");
        set("engine.peak_live_kb",
            static_cast<double>(rep.peakLiveBytes) / 1024.0, "KiB");
    }

    /** Kernel shares, GFLOP/s and fallbacks of one profiled context;
     *  the top five ops also go to the detail line. */
    void
    profile(const pe::ProfileReport &p, Result &r)
    {
        set("kernels.gflops", p.gflops, "GFLOP/s");
        set("kernels.fallbacks", p.kernelFallbacks, "count");
        std::string top = "{";
        for (size_t i = 0; i < p.ops.size(); ++i) {
            const std::string key = "kernels.share." + p.ops[i].op;
            if (m.count(key))
                set(key, p.ops[i].timeShare, "frac");
            if (i < 5)
                top += (i ? ", \"" : "\"") + p.ops[i].op + "\": " +
                       Result::num(p.ops[i].timeShare);
        }
        r.detail.push_back({"kernel_top5", top + "}"});
        r.note("kernel_step_spans", static_cast<double>(p.stepSpans));
    }

    void
    emit(Result &r) const
    {
        for (const auto &[k, v] : m)
            r.metric(k, v.first, v.second);
    }
};

/** The timed-phase plan: --trace 0 measures untraced for the whole
 *  budget; --trace 1 gives half to each side. */
struct Phases {
    int64_t untracedNs = 0;
    int64_t tracedNs = 0;

    explicit Phases(const Args &a)
    {
        const int64_t total = static_cast<int64_t>(a.seconds * 1e9);
        untracedNs = a.trace ? total / 2 : total;
        tracedNs = a.trace ? total - untracedNs : 0;
    }
};

/** Run standalone plan steps through the executor's classic API:
 *  @p n untraced bind/run/fetch rounds (runtime.* timings), then
 *  @p n rounds with step tracing armed (kernel shares). */
template <typename Bind>
void
profileStandalone(pe::Executor &ex, int outId, int n, Bind bind,
                  Layers &lay, Result &r, Placer &pl)
{
    std::vector<double> bindUs, runMs, fetchUs;
    for (int i = 0; i < n; ++i) {
        pl.prepare();
        int64_t t0 = nowNs();
        bind(i);
        int64_t t1 = nowNs();
        ex.run();
        int64_t t2 = nowNs();
        Tensor out = ex.fetch(outId);
        int64_t t3 = nowNs();
        bindUs.push_back(msBetween(t0, t1) * 1e3);
        runMs.push_back(msBetween(t1, t2));
        fetchUs.push_back(msBetween(t2, t3) * 1e3);
    }
    lay.set("runtime.bind_us_p50", median(bindUs), "us");
    lay.set("runtime.run_ms_p50", median(runMs), "ms");
    lay.set("runtime.fetch_us_p50", median(fetchUs), "us");
    r.note("runtime_samples", n);
    ex.armTrace(1 << 16, false);
    for (int i = 0; i < n; ++i) {
        pl.prepare();
        bind(i);
        ex.run();
    }
    lay.profile(pe::profileTrace(ex, *ex.trace()), r);
}

// ---------------------------------------------------------------------
// mcunet_sparse_train
// ---------------------------------------------------------------------

constexpr int kEpisodeSteps = 256;
constexpr int kTrainSetups = 51;
constexpr int kEagerSteps = 10;
constexpr float kEagerTol = 2e-3f;

pe::VisionConfig
mcunetShape(int64_t batch)
{
    pe::VisionConfig cfg;
    cfg.batch = batch;
    cfg.resolution = 16;
    cfg.width = 0.5;
    cfg.blocks = 5;
    return cfg;
}

pe::CompileOptions
trainOptions()
{
    pe::CompileOptions o;
    o.optim = pe::OptimConfig::sgd(1e-3);
    o.numThreads = 1;
    return o;
}

struct TrainSetup {
    std::shared_ptr<pe::ParamStore> store;
    std::unique_ptr<pe::TrainingProgram> prog;
    /** Deep copy of every ParamStore tensor taken right after
     *  compile: restoring it makes each episode bit-identical. */
    std::vector<std::pair<Tensor, Tensor>> snapshot; ///< (live, copy)
    double buildMs = 0, compileMs = 0;

    void
    restore()
    {
        for (auto &[live, copy] : snapshot)
            std::memcpy(live.data(), copy.data(),
                        sizeof(float) * copy.size());
    }
};

/** Build + compile + one warm-up step. The ParamStore snapshot taken
 *  between compile and warm-up is the benchmark's own work; its time
 *  goes to @p snapshotMs so the caller can leave it out of set-up. */
TrainSetup
trainSetup(const Feeds &warm, double &snapshotMs)
{
    TrainSetup s;
    int64_t t0 = nowNs();
    s.store = std::make_shared<pe::ParamStore>();
    pe::Rng rng(kModelSeed);
    pe::ModelSpec m = pe::buildMcuNet(mcunetShape(8), rng, s.store.get());
    int64_t t1 = nowNs();
    s.prog.reset(new pe::TrainingProgram(pe::compileTraining(
        m.graph, m.loss, pe::cnnSparseScheme(m, 3, 2), trainOptions(),
        s.store)));
    int64_t t2 = nowNs();
    for (const auto &[name, t] : s.store->all())
        s.snapshot.push_back({t, t.clone()});
    int64_t t3 = nowNs();
    s.prog->trainStep(warm); // episodes restore the snapshot first
    s.buildMs = msBetween(t0, t1);
    s.compileMs = msBetween(t1, t2);
    snapshotMs = msBetween(t2, t3);
    return s;
}

int
lossNode(const pe::Graph &g)
{
    for (const pe::Node &n : g.nodes())
        if (n.name == "__loss__")
            return n.id;
    throw std::runtime_error("compiled training graph has no __loss__");
}

} // namespace

Result
runTrain(const Args &a, Placer &pl)
{
    Result r;
    const pe::VisionConfig shape = mcunetShape(8);
    pe::Rng in(a.seed);
    std::vector<Feeds> batches(kEpisodeSteps);
    for (Feeds &f : batches) {
        Tensor x = Tensor::randn(
            {shape.batch, shape.channels, shape.resolution,
             shape.resolution},
            in);
        Tensor y({shape.batch});
        for (int64_t i = 0; i < shape.batch; ++i)
            y[i] = static_cast<float>(in.randint(shape.numClasses));
        f = {{"x", x}, {"y", y}};
    }

    Timings setupMs;
    std::vector<double> buildMs, compileMs;
    TrainSetup s;
    for (int i = 0; i < kTrainSetups; ++i) {
        // The previous set-up is released outside the timed interval.
        s = TrainSetup{};
        double snapshotMs = 0;
        const Timed t =
            timeOp(pl, [&] { s = trainSetup(batches[0], snapshotMs); });
        setupMs.add({t.ms - snapshotMs, t.load});
        buildMs.push_back(s.buildMs);
        compileMs.push_back(s.compileMs);
    }
    pe::TrainingProgram &prog = *s.prog;
    pe::Executor &ex = prog.executor();
    const int lossId = lossNode(prog.graph());
    r.simdTier = prog.report().simdTier;

    std::vector<float> firstLosses;
    Timings opMs, tracedOpMs;
    SpanLog log;
    const Phases ph(a);
    int episodes = 0;
    // One episode: restore the snapshot (untimed), then 256 timed
    // steps. Every step's loss must be finite and, from the second
    // episode on, bit-equal to the first episode's loss at that step.
    auto episode = [&](bool traced) {
        s.restore();
        for (int st = 0; st < kEpisodeSteps; ++st) {
            const Feeds &f = batches[st];
            float loss = 0;
            (traced ? tracedOpMs : opMs).add(timeOp(pl, [&] {
                if (!traced) {
                    loss = prog.trainStep(f);
                    return;
                }
                // trainStep at gradAccumSteps 1, call by call.
                int op = log.begin("op");
                int sp = log.begin("runtime.bind", op);
                ex.bindInput("x", f.at("x"));
                ex.bindInput("y", f.at("y"));
                log.end(sp);
                sp = log.begin("runtime.run", op);
                ex.run();
                log.end(sp);
                sp = log.begin("runtime.fetch", op);
                loss = ex.fetch(lossId)[0];
                log.end(sp);
                log.end(op);
            }));
            ++r.attempted;
            bool ok = std::isfinite(loss);
            if (episodes == 0)
                firstLosses.push_back(loss);
            else
                ok = ok && std::memcmp(&loss, &firstLosses[st],
                                       sizeof loss) == 0;
            if (!ok)
                ++r.failed;
        }
        ++episodes;
    };
    int64_t deadline = nowNs() + ph.untracedNs;
    do
        episode(false);
    while (nowNs() < deadline);
    const double rss = peakRssMb();
    if (a.trace) {
        ex.armTrace(1 << 16, false);
        deadline = nowNs() + ph.tracedNs;
        do
            episode(true);
        while (nowNs() < deadline);
    }
    r.note("episodes", episodes);

    // Independent reference: the eager interpreter in masked-sparse
    // mode, same initial weights, same first batches.
    {
        auto store = std::make_shared<pe::ParamStore>();
        pe::Rng rng(kModelSeed);
        pe::ModelSpec m = pe::buildMcuNet(shape, rng, store.get());
        const pe::SparseUpdateScheme scheme = pe::cnnSparseScheme(m, 3, 2);
        std::unordered_map<std::string, bool> mask;
        for (int id : m.graph.paramIds()) {
            const std::string &name = m.graph.node(id).name;
            mask[name] = scheme.ruleFor(name).update;
        }
        pe::EagerEngine eager(m.graph, m.loss, store,
                              trainOptions().optim, &mask);
        double gap = 0;
        for (int st = 0; st < kEagerSteps; ++st) {
            float le = eager.trainStep(batches[st]);
            gap = std::max(gap, std::fabs(static_cast<double>(le) -
                                          firstLosses[st]));
        }
        r.note("eager_max_loss_gap", gap);
        if (!(gap <= kEagerTol))
            r.errors.push_back("compiled losses diverge from the eager "
                               "reference by " + Result::num(gap));
    }

    if (!a.trace) {
        endToEnd(r, opMs, static_cast<double>(shape.batch), opMs, setupMs,
                 rss);
        return r;
    }
    Layers lay;
    lay.set("frontend.build_ms", median(buildMs), "ms");
    lay.set("engine.compile_ms", median(compileMs), "ms");
    lay.compileReport(prog.report());
    lay.set("runtime.bind_us_p50", median(log.durationsMs("runtime.bind")) * 1e3,
            "us");
    lay.set("runtime.run_ms_p50", median(log.durationsMs("runtime.run")),
            "ms");
    lay.set("runtime.fetch_us_p50",
            median(log.durationsMs("runtime.fetch")) * 1e3, "us");
    lay.profile(pe::profileTrace(ex, *ex.trace()), r);
    lay.set("obs.trace_overhead_frac",
            median(tracedOpMs.used()) / median(opMs.used()) - 1, "frac");
    lay.set("obs.span_coverage", log.coverage(), "frac");
    lay.emit(r);
    return r;
}

namespace {

// ---------------------------------------------------------------------
// mcunet_int8_burst
// ---------------------------------------------------------------------

constexpr int kBurstRequests = 4;
constexpr int64_t kBurstRows = 8;
constexpr int kBursts = 256;
constexpr int kInt8Setups = 31;
/** Coalescing window. A burst or lockstep step fills its bucket and
 *  runs as soon as its last request arrives, so the window only limits
 *  how long a stall between submits may be before a group splits and
 *  fails the determinism guard (2 ms was seen to split one). */
constexpr int64_t kWindowUs = 20000;

struct Burst {
    std::vector<int64_t> rows; ///< kBurstRequests parts summing to 8
    std::vector<Tensor> x;
};

/** A uniformly drawn composition of 8 rows into 4 non-empty requests:
 *  three distinct cut points in 1..7. */
std::vector<int64_t>
drawSplit(pe::Rng &rng)
{
    std::vector<int64_t> cuts;
    while (cuts.size() < kBurstRequests - 1) {
        int64_t c = 1 + rng.randint(kBurstRows - 1);
        if (std::find(cuts.begin(), cuts.end(), c) == cuts.end())
            cuts.push_back(c);
    }
    std::sort(cuts.begin(), cuts.end());
    cuts.push_back(kBurstRows);
    std::vector<int64_t> rows;
    int64_t prev = 0;
    for (int64_t c : cuts) {
        rows.push_back(c - prev);
        prev = c;
    }
    return rows;
}

std::string
splitKey(const std::vector<int64_t> &rows)
{
    std::string k;
    for (int64_t n : rows)
        k += (k.empty() ? "" : "+") + std::to_string(n);
    return k;
}

pe::ServedModel
mcunetServed(int64_t batch, pe::ParamStore *store, double *buildMs)
{
    int64_t t0 = nowNs();
    pe::Rng rng(kModelSeed);
    pe::ModelSpec m = pe::buildMcuNet(mcunetShape(batch), rng, store);
    if (buildMs)
        *buildMs += msBetween(t0, nowNs());
    return pe::ServedModel{std::move(m.graph), {m.logits}};
}

pe::ServeOptions
int8Options(const Feeds &calib, std::vector<int64_t> buckets,
            int64_t window)
{
    pe::ServeOptions so = pe::ServeOptions{}
                              .withBuckets(std::move(buckets))
                              .withWorkers(1)
                              .withCoalesceWindow(window)
                              .withQueueCapacity(64);
    so.compile.precision = pe::Precision::Int8;
    so.compile.numThreads = 1;
    so.calibration = {calib};
    return so;
}

struct ServeCounts {
    int64_t runs = 0, padded = 0, runNs = 0;
    int64_t prefillRuns = 0, prefillRunNs = 0;
};

ServeCounts
serveCounts(const pe::ServingEngine &e)
{
    ServeCounts c;
    for (const pe::BucketStats &b : e.stats().buckets) {
        if (b.decode || !e.generative()) {
            c.runs += b.runs;
            c.padded += b.paddedRows;
            c.runNs += b.runNs;
        } else {
            c.prefillRuns += b.runs;
            c.prefillRunNs += b.runNs;
        }
    }
    return c;
}

/** Submit every request of @p b, then wait on each in order; the
 *  first reply's latency goes to @p ttftMs. */
std::vector<Tensor>
runBurst(pe::ServingEngine &e, const Burst &b, double *ttftMs,
         SpanLog *log)
{
    std::vector<pe::ServingEngine::RequestId> ids(kBurstRequests);
    std::vector<Tensor> outs(kBurstRequests);
    const int64_t t0 = nowNs();
    const int op = log ? log->begin("op") : -1;
    for (int i = 0; i < kBurstRequests; ++i) {
        int sp = log ? log->begin("serve.submit", op) : -1;
        ids[i] = e.submit({{"x", b.x[i]}});
        if (log)
            log->end(sp);
    }
    for (int i = 0; i < kBurstRequests; ++i) {
        int sp = log ? log->begin("serve.wait", op) : -1;
        outs[i] = e.wait(ids[i])[0];
        if (log)
            log->end(sp);
        if (i == 0 && ttftMs)
            *ttftMs = msBetween(t0, nowNs());
    }
    if (log)
        log->end(op);
    return outs;
}

/** Per-op sums of the @p name children of each root span, in ms. */
std::vector<double>
perOpChildMs(const SpanLog &log, const char *name)
{
    std::vector<double> out;
    const auto &sp = log.spans();
    std::vector<int> slot(sp.size(), -1);
    for (size_t i = 0; i < sp.size(); ++i) {
        if (sp[i].parent < 0 && std::strcmp(sp[i].name, "op") == 0) {
            slot[i] = static_cast<int>(out.size());
            out.push_back(0);
        } else if (sp[i].parent >= 0 && std::strcmp(sp[i].name, name) == 0 &&
                   slot[static_cast<size_t>(sp[i].parent)] >= 0) {
            out[static_cast<size_t>(slot[static_cast<size_t>(sp[i].parent)])] +=
                msBetween(sp[i].startNs, sp[i].endNs);
        }
    }
    return out;
}

/** serve.* metrics of one traced phase whose ops took @p tracedOpMs. */
void
serveLayers(Layers &lay, const SpanLog &log, const ServeCounts &before,
            const ServeCounts &after, const std::vector<double> &tracedOpMs)
{
    const double ops = static_cast<double>(tracedOpMs.size());
    double wall = 0;
    for (double v : tracedOpMs)
        wall += v;
    const double runMs = (after.runNs - before.runNs) / 1e6 / ops;
    lay.set("serve.submit_us_p50",
            median(perOpChildMs(log, "serve.submit")) * 1e3, "us");
    lay.set("serve.wait_ms_p50", median(perOpChildMs(log, "serve.wait")),
            "ms");
    lay.set("serve.run_ms_per_op", runMs, "ms");
    lay.set("serve.overhead_ms_per_op", wall / ops - runMs, "ms");
    lay.set("serve.runs_per_op", (after.runs - before.runs) / ops, "count");
    lay.set("serve.padded_rows_per_op", (after.padded - before.padded) / ops,
            "count");
}

} // namespace

Result
runInt8Burst(const Args &a, Placer &pl)
{
    Result r;
    r.serveWorkers = 1;
    const pe::VisionConfig shape = mcunetShape(kBurstRows);
    pe::Rng in(a.seed);
    Feeds calib = {{"x", Tensor::randn({kBurstRows, shape.channels,
                                        shape.resolution, shape.resolution},
                                       in)}};
    std::vector<Burst> bursts(kBursts);
    for (Burst &b : bursts) {
        b.rows = drawSplit(in);
        for (int64_t n : b.rows)
            b.x.push_back(Tensor::randn(
                {n, shape.channels, shape.resolution, shape.resolution},
                in));
    }

    Timings setupMs;
    std::vector<double> buildMs, constructMs;
    std::shared_ptr<pe::ParamStore> store;
    std::unique_ptr<pe::ServingEngine> engine;
    for (int i = 0; i < kInt8Setups; ++i) {
        engine.reset();
        double build = 0, construct = 0;
        setupMs.add(timeOp(pl, [&] {
            int64_t t0 = nowNs();
            store = std::make_shared<pe::ParamStore>();
            pe::ParamStore *sp = store.get();
            engine = std::make_unique<pe::ServingEngine>(
                [sp, &build](int64_t b) {
                    return mcunetServed(b, sp, &build);
                },
                store, int8Options(calib, {1, 2, 4, 8}, kWindowUs));
            construct = msBetween(t0, nowNs());
            runBurst(*engine, bursts[0], nullptr, nullptr);
        }));
        constructMs.push_back(construct);
        buildMs.push_back(build);
    }
    r.simdTier = engine->bucketReport(kBurstRows).simdTier;

    // First outputs of each distinct split, for the reference check.
    std::map<std::string, std::pair<int, std::vector<Tensor>>> firstOf;
    Timings opMs, ttftMs, tracedOpMs;
    SpanLog log;
    const Phases ph(a);
    int next = 0;
    auto phase = [&](int64_t ns, bool traced) {
        const int64_t deadline = nowNs() + ns;
        ServeCounts prev = serveCounts(*engine);
        do {
            const int bi = next++ % kBursts;
            const Burst &b = bursts[bi];
            double ttft = 0;
            bool ok = true;
            std::vector<Tensor> outs;
            const Timed t = timeOp(pl, [&] {
                try {
                    outs = runBurst(*engine, b, &ttft,
                                    traced ? &log : nullptr);
                } catch (const std::exception &) {
                    ok = false;
                }
            });
            (traced ? tracedOpMs : opMs).add(t);
            ++r.attempted;
            if (!traced)
                ttftMs.add({ttft, t.load});
            // Determinism guard: the burst packs into exactly one
            // bucket-8 run with no pad rows.
            ServeCounts now = serveCounts(*engine);
            if (!ratioHolds(now.runs - prev.runs, 1, 1) ||
                !ratioHolds(now.padded - prev.padded, 1, 0)) {
                ok = false;
                r.errors.push_back(
                    "burst " + std::to_string(r.attempted) + " ran " +
                    std::to_string(now.runs - prev.runs) + " runs with " +
                    std::to_string(now.padded - prev.padded) + " pad rows");
            }
            prev = now;
            for (int i = 0; ok && i < kBurstRequests; ++i)
                ok = outs[i].shape() ==
                         pe::Shape{b.rows[i], shape.numClasses} &&
                     finiteAll(outs[i]);
            if (!ok)
                ++r.failed;
            else
                firstOf.emplace(splitKey(b.rows), std::make_pair(bi, outs));
        } while (nowNs() < deadline);
    };
    phase(ph.untracedNs, false);
    const double rss = peakRssMb();
    ServeCounts tracedBefore, tracedAfter;
    if (a.trace) {
        tracedBefore = serveCounts(*engine);
        phase(ph.tracedNs, true);
        tracedAfter = serveCounts(*engine);
    }
    engine.reset();

    // Independent reference: a serial engine with only the bucket-8
    // plan (same calibration batch), one request at a time.
    {
        auto refStore = std::make_shared<pe::ParamStore>();
        pe::ParamStore *sp = refStore.get();
        pe::ServingEngine ref(
            [sp](int64_t b) { return mcunetServed(b, sp, nullptr); },
            refStore, int8Options(calib, {kBurstRows}, 0));
        int mismatched = 0;
        for (const auto &[key, first] : firstOf) {
            const Burst &b = bursts[first.first];
            for (int i = 0; i < kBurstRequests; ++i)
                if (!bitEqual(ref.session().run({{"x", b.x[i]}})[0],
                              first.second[i]))
                    ++mismatched;
        }
        r.note("reference_splits", static_cast<double>(firstOf.size()));
        if (mismatched)
            r.errors.push_back(std::to_string(mismatched) +
                               " burst outputs differ from the serial "
                               "bucket-8 reference");
    }

    if (!a.trace) {
        endToEnd(r, opMs, static_cast<double>(kBurstRows), ttftMs, setupMs,
                 rss);
        return r;
    }
    Layers lay;
    lay.set("frontend.build_ms", median(buildMs), "ms");
    lay.set("serve.construct_ms", median(constructMs), "ms");
    serveLayers(lay, log, tracedBefore, tracedAfter, tracedOpMs.all());
    lay.set("obs.trace_overhead_frac",
            median(tracedOpMs.used()) / median(opMs.used()) - 1, "frac");
    lay.set("obs.span_coverage", log.coverage(), "frac");

    // Kernel shares from a standalone program of the bucket-8 graph,
    // compiled with the engine's options.
    auto pstore = std::make_shared<pe::ParamStore>();
    pe::ServedModel m = mcunetServed(kBurstRows, pstore.get(), nullptr);
    pe::calibrate(m.graph, *pstore, {calib});
    int64_t t0 = nowNs();
    pe::InferenceProgram prog = pe::compileInference(
        m.graph, m.outputs, int8Options(calib, {kBurstRows}, 0).compile,
        pstore);
    lay.set("engine.compile_ms", msBetween(t0, nowNs()), "ms");
    lay.compileReport(prog.report());
    pe::Executor &ex = prog.executor();
    std::vector<Tensor> packed;
    for (int i = 0; i < 16; ++i) {
        Tensor x({kBurstRows, shape.channels, shape.resolution,
                  shape.resolution});
        int64_t off = 0;
        for (const Tensor &part : bursts[i].x) {
            std::memcpy(x.data() + off, part.data(),
                        sizeof(float) * part.size());
            off += part.size();
        }
        packed.push_back(x);
    }
    profileStandalone(
        ex, prog.graph().outputs().at(0), 400,
        [&](int i) { ex.bindInput("x", packed[i % packed.size()]); }, lay,
        r, pl);
    lay.emit(r);
    return r;
}

namespace {

// ---------------------------------------------------------------------
// llama_decode_lockstep
// ---------------------------------------------------------------------

constexpr int kStreams = 4;
constexpr int64_t kPromptLen = 8;
constexpr int kDecodeSteps = 56;
constexpr int kRounds = 32;
constexpr int kDecodeSetups = 21;
constexpr uint64_t kDecoderSeed = 7;

pe::DecoderConfig
llamaProxy()
{
    return pe::DecoderConfig{}
        .withDim(128)
        .withHeads(4)
        .withFfDim(256)
        .withLayers(2)
        .withMaxSeq(256);
}

struct Round {
    std::vector<Tensor> prompts;           ///< [kPromptLen, 1] per stream
    std::vector<std::vector<Tensor>> toks; ///< [step][stream] -> [1, 1]
};

Tensor
tokenRows(pe::Rng &rng, int64_t n, int64_t vocab)
{
    Tensor t({n, 1});
    for (int64_t i = 0; i < n; ++i)
        t[i] = static_cast<float>(rng.randint(vocab));
    return t;
}

std::unique_ptr<pe::ServingEngine>
decodeEngine(const std::shared_ptr<pe::ParamStore> &store, int64_t window,
             double *buildMs)
{
    const pe::DecoderConfig cfg = llamaProxy();
    pe::ParamStore *sp = store.get();
    pe::ServeOptions so = pe::ServeOptions{}
                              .withBuckets({kPromptLen})
                              .withDecodeBuckets({kStreams})
                              .withWorkers(1)
                              .withCoalesceWindow(window)
                              .withQueueCapacity(64);
    so.compile.numThreads = 1;
    so.decodeFactory = [sp, cfg, buildMs](int64_t streams) {
        int64_t t0 = nowNs();
        pe::Rng rng(kDecoderSeed);
        pe::ModelSpec m = pe::buildDecoderDecode(cfg, streams, rng, sp);
        if (buildMs)
            *buildMs += msBetween(t0, nowNs());
        return pe::ServedModel{std::move(m.graph), {m.logits}};
    };
    return std::make_unique<pe::ServingEngine>(
        [sp, cfg, buildMs](int64_t prompt) {
            int64_t t0 = nowNs();
            pe::Rng rng(kDecoderSeed);
            pe::ModelSpec m = pe::buildDecoderPrefill(cfg, prompt, rng, sp);
            if (buildMs)
                *buildMs += msBetween(t0, nowNs());
            return pe::ServedModel{std::move(m.graph), {m.logits}};
        },
        store, so);
}

/** Outputs of one round: [stream][0] = prompt logits, [stream][1+t]. */
using RoundOut = std::vector<std::vector<Tensor>>;

} // namespace

Result
runDecode(const Args &a, Placer &pl)
{
    Result r;
    r.serveWorkers = 1;
    const pe::DecoderConfig cfg = llamaProxy();
    pe::Rng in(a.seed);
    std::vector<Round> rounds(kRounds);
    for (Round &rd : rounds) {
        for (int s = 0; s < kStreams; ++s)
            rd.prompts.push_back(tokenRows(in, kPromptLen, cfg.vocab));
        rd.toks.resize(kDecodeSteps);
        for (auto &step : rd.toks)
            for (int s = 0; s < kStreams; ++s)
                step.push_back(tokenRows(in, 1, cfg.vocab));
    }

    Timings setupMs;
    std::vector<double> buildMs, constructMs;
    std::shared_ptr<pe::ParamStore> store;
    std::unique_ptr<pe::ServingEngine> engine;
    for (int i = 0; i < kDecodeSetups; ++i) {
        engine.reset();
        double build = 0, construct = 0;
        setupMs.add(timeOp(pl, [&] {
            int64_t t0 = nowNs();
            store = std::make_shared<pe::ParamStore>();
            engine = decodeEngine(store, kWindowUs, &build);
            construct = msBetween(t0, nowNs());
            // Warm-up: every stream prefills, then one lockstep step.
            std::vector<pe::Session> ss;
            for (int s = 0; s < kStreams; ++s) {
                ss.push_back(engine->session());
                ss.back().prefill({{"x", rounds[0].prompts[s]}});
            }
            std::vector<pe::ServingEngine::RequestId> ids;
            for (int s = 0; s < kStreams; ++s)
                ids.push_back(engine->submitDecode(
                    ss[s].stream(), {{"x", rounds[0].toks[0][s]}}));
            for (auto id : ids)
                engine->wait(id);
        }));
        constructMs.push_back(construct);
        buildMs.push_back(build);
    }
    r.simdTier = engine->bucketReport(kPromptLen).simdTier;

    RoundOut firstRound;
    Timings opMs, ttftMs, tracedOpMs, tracedPrefillMs;
    SpanLog log;
    const Phases ph(a);
    int next = 0;
    auto phase = [&](int64_t ns, bool traced) {
        const int64_t deadline = nowNs() + ns;
        do {
            const Round &rd = rounds[next % kRounds];
            const bool keep = next == 0;
            ++next;
            RoundOut out(kStreams);
            const ServeCounts before = serveCounts(*engine);
            std::vector<pe::Session> ss;
            bool roundOk = true;
            std::vector<char> stepOk(kDecodeSteps, 1);
            try {
                for (int s = 0; s < kStreams; ++s) {
                    ss.push_back(engine->session());
                    (traced ? tracedPrefillMs : ttftMs).add(timeOp(pl, [&] {
                        int sp = traced ? log.begin("prefill") : -1;
                        int c = traced ? log.begin("serve.prefill", sp) : -1;
                        out[s].push_back(
                            ss.back().prefill({{"x", rd.prompts[s]}})[0]);
                        if (traced) {
                            log.end(c);
                            log.end(sp);
                        }
                    }));
                    roundOk = roundOk && finiteAll(out[s].back());
                }
                std::vector<pe::ServingEngine::RequestId> ids(kStreams);
                for (int t = 0; t < kDecodeSteps; ++t) {
                    (traced ? tracedOpMs : opMs).add(timeOp(pl, [&] {
                        int op = traced ? log.begin("op") : -1;
                        for (int s = 0; s < kStreams; ++s) {
                            int c = traced ? log.begin("serve.submit", op)
                                           : -1;
                            ids[s] = engine->submitDecode(
                                ss[s].stream(), {{"x", rd.toks[t][s]}});
                            if (traced)
                                log.end(c);
                        }
                        for (int s = 0; s < kStreams; ++s) {
                            int c =
                                traced ? log.begin("serve.wait", op) : -1;
                            out[s].push_back(engine->wait(ids[s])[0]);
                            if (traced)
                                log.end(c);
                        }
                        if (traced)
                            log.end(op);
                    }));
                    for (int s = 0; s < kStreams; ++s)
                        stepOk[t] = stepOk[t] &&
                                    out[s].back().shape() ==
                                        pe::Shape{1, cfg.vocab} &&
                                    finiteAll(out[s].back());
                }
            } catch (const std::exception &) {
                roundOk = false;
            }
            // Determinism guard: 4 solo prefill runs and one shared
            // decode run per lockstep step, no pad rows.
            const ServeCounts after = serveCounts(*engine);
            const int64_t prefillRuns = after.prefillRuns - before.prefillRuns;
            const int64_t runs = after.runs - before.runs;
            const int64_t padded = after.padded - before.padded;
            if (!ratioHolds(prefillRuns, kStreams, 1) ||
                !ratioHolds(runs, kDecodeSteps, 1) ||
                !ratioHolds(padded, kDecodeSteps, 0)) {
                roundOk = false;
                r.errors.push_back(
                    "round " + std::to_string(next) + " ran " +
                    std::to_string(prefillRuns) + " prefill runs, " +
                    std::to_string(runs) + " decode runs, " +
                    std::to_string(padded) + " pad rows");
            }
            r.attempted += kDecodeSteps;
            for (int t = 0; t < kDecodeSteps; ++t)
                if (!roundOk || !stepOk[t])
                    ++r.failed;
            if (keep)
                firstRound = std::move(out);
        } while (nowNs() < deadline);
    };
    phase(ph.untracedNs, false);
    const double rss = peakRssMb();
    ServeCounts tracedBefore, tracedAfter;
    if (a.trace) {
        tracedBefore = serveCounts(*engine);
        phase(ph.tracedNs, true);
        tracedAfter = serveCounts(*engine);
    }
    const int64_t cacheBytes = engine->streamCacheBytes();
    engine.reset();
    r.note("rounds", next);

    // Independent reference: replay the first round through an engine
    // with the same buckets and coalescing off, one stream at a time.
    bool firstComplete = firstRound.size() == kStreams;
    for (const auto &stream : firstRound)
        firstComplete = firstComplete && stream.size() == 1 + kDecodeSteps;
    if (!firstComplete) {
        r.errors.push_back("the first decode round did not complete");
    } else {
        auto refStore = std::make_shared<pe::ParamStore>();
        auto ref = decodeEngine(refStore, 0, nullptr);
        int mismatched = 0;
        for (int s = 0; s < kStreams; ++s) {
            pe::Session ss = ref->session();
            if (!bitEqual(ss.prefill({{"x", rounds[0].prompts[s]}})[0],
                          firstRound.at(s).at(0)))
                ++mismatched;
            for (int t = 0; t < kDecodeSteps; ++t)
                if (!bitEqual(ss.decode({{"x", rounds[0].toks[t][s]}})[0],
                              firstRound.at(s).at(1 + t)))
                    ++mismatched;
        }
        if (mismatched)
            r.errors.push_back(std::to_string(mismatched) +
                               " decode-round outputs differ from the "
                               "serial replay");
    }

    if (!a.trace) {
        endToEnd(r, opMs, static_cast<double>(kStreams), ttftMs, setupMs,
                 rss);
        return r;
    }
    Layers lay;
    lay.set("frontend.build_ms", median(buildMs), "ms");
    lay.set("serve.construct_ms", median(constructMs), "ms");
    lay.set("serve.cache_kb_per_stream", cacheBytes / 1024.0, "KiB");
    serveLayers(lay, log, tracedBefore, tracedAfter, tracedOpMs.all());
    const double prefills = static_cast<double>(tracedPrefillMs.total());
    double prefillWall = 0;
    for (double v : tracedPrefillMs.all())
        prefillWall += v;
    const double prefillRun =
        (tracedAfter.prefillRunNs - tracedBefore.prefillRunNs) / 1e6 /
        prefills;
    lay.set("serve.prefill_run_ms", prefillRun, "ms");
    lay.set("serve.prefill_overhead_ms", prefillWall / prefills - prefillRun,
            "ms");
    lay.set("obs.trace_overhead_frac",
            median(tracedOpMs.used()) / median(opMs.used()) - 1, "frac");
    lay.set("obs.span_coverage", log.coverage(), "frac");

    // Kernel shares from a standalone decode-bucket-4 program, fed the
    // generations a round walks through.
    auto pstore = std::make_shared<pe::ParamStore>();
    pe::Rng rng(kDecoderSeed);
    pe::ModelSpec m = pe::buildDecoderDecode(cfg, kStreams, rng, pstore.get());
    pe::CompileOptions co;
    co.numThreads = 1;
    int64_t t0 = nowNs();
    pe::InferenceProgram prog =
        pe::compileInference(m.graph, {m.logits}, co, pstore);
    lay.set("engine.compile_ms", msBetween(t0, nowNs()), "ms");
    lay.compileReport(prog.report());
    pe::Executor &ex = prog.executor();
    std::vector<Feeds> steps;
    for (int t = 0; t < kDecodeSteps; ++t) {
        const int64_t gen = kPromptLen + t;
        Tensor x({kStreams, 1}), pos({kStreams, 1}),
            mask({kStreams, cfg.maxSeq});
        for (int s = 0; s < kStreams; ++s) {
            x[s] = rounds[0].toks[t][s][0];
            pos[s] = static_cast<float>(gen);
            for (int64_t j = 0; j < cfg.maxSeq; ++j)
                mask[s * cfg.maxSeq + j] = j <= gen ? 0.0f : -1e30f;
        }
        steps.push_back({{"x", x}, {"pos", pos}, {"mask", mask}});
    }
    profileStandalone(
        ex, prog.graph().outputs().at(0), 8 * kDecodeSteps,
        [&](int i) {
            for (const auto &[name, t] : steps[i % kDecodeSteps])
                ex.bindInput(name, t);
        },
        lay, r, pl);
    lay.emit(r);
    return r;
}

} // namespace perfbench
