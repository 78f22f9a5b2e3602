#include "engine/engine.h"

#include <algorithm>
#include <stdexcept>

namespace pe {

void
CompileReport::recordPlan(const ProgramArtifact &art)
{
    const MemoryPlan &mp = art.plan;
    kernelSteps = static_cast<int>(art.shardsPerStep.size());
    arenaBytes = mp.arenaBytes;
    workspaceBytes = mp.workspaceBytes;
    paramBytes = mp.paramBytes;
    constBytes = mp.constBytes;
    totalBytes = mp.totalBytes();
    memoryTimeline = mp.liveBytesAtStep;
    peakLiveBytes = mp.peakLiveBytes;
    arenaBytesByDtype = mp.arenaValueBytesByDtype;
    constBytesByDtype = mp.constBytesByDtype;
    shardedSteps = countShardedSteps(art.shardsPerStep);
}

void
CompileReport::recordBinding(const Executor &ex)
{
    simdTier = simdTierName(ex.simdTier());
    simdSteps = ex.simdSteps();
    stepTiers = ex.stepTiers();
    tierMissKernels = ex.tierMisses();
    tierMisses = static_cast<int>(tierMissKernels.size());
    kernelFallbacks = ex.fallbackCount();
    fallbackKernels = ex.fallbackKernels();
}

TrainingProgram::TrainingProgram(CompiledGraph step,
                                 std::shared_ptr<ParamStore> store,
                                 CompiledGraph apply,
                                 int grad_accum_steps,
                                 std::vector<std::string> accum_buffers)
    : graph_(std::move(step.graph)), lossId_(step.lossId),
      store_(std::move(store)), applyGraph_(std::move(apply.graph)),
      gradAccumSteps_(grad_accum_steps),
      accumBuffers_(std::move(accum_buffers)),
      report_(std::move(step.report))
{
    executor_ = std::make_unique<Executor>(
        graph_, std::move(step.artifact), *store_);
    if (applyGraph_.numNodes() > 0)
        applyExecutor_ = std::make_unique<Executor>(
            applyGraph_, std::move(apply.artifact), *store_);
    report_.recordBinding(*executor_);
}

float
TrainingProgram::trainStep(
    const std::unordered_map<std::string, Tensor> &feeds)
{
    for (const auto &[name, t] : feeds)
        executor_->bindInput(name, t);
    executor_->run();
    float loss = executor_->fetch(lossId_)[0];
    if (applyExecutor_ && ++microStep_ % gradAccumSteps_ == 0) {
        applyExecutor_->run();
        for (const std::string &name : accumBuffers_)
            store_->get(name).fill(0.0f);
    }
    return loss;
}

InferenceProgram::InferenceProgram(CompiledGraph c,
                                   std::shared_ptr<ParamStore> store)
    : graph_(std::move(c.graph)), store_(std::move(store)),
      report_(std::move(c.report))
{
    executor_ = std::make_unique<Executor>(
        graph_, std::move(c.artifact), *store_);
    report_.recordBinding(*executor_);
}

std::vector<Tensor>
InferenceProgram::run(
    const std::unordered_map<std::string, Tensor> &feeds)
{
    for (const auto &[name, t] : feeds)
        executor_->bindInput(name, t);
    executor_->run();
    std::vector<Tensor> outs;
    outs.reserve(graph_.outputs().size());
    for (int id : graph_.outputs())
        outs.push_back(executor_->fetch(id));
    return outs;
}

std::vector<std::vector<Tensor>>
InferenceProgram::runBatch(
    const std::vector<std::unordered_map<std::string, Tensor>> &feeds)
{
    std::vector<std::vector<Tensor>> results;
    results.reserve(feeds.size());
    // Resolve feed names to input node ids once, from the first item
    // (every item must feed the same inputs — they are one batch).
    std::vector<std::pair<std::string, int>> slots;
    if (!feeds.empty()) {
        for (const auto &[name, t] : feeds.front()) {
            int id = executor_->inputId(name);
            if (id < 0)
                throw std::runtime_error("runBatch: no input named " +
                                         name);
            slots.emplace_back(name, id);
        }
    }
    for (const auto &feed : feeds) {
        if (feed.size() != slots.size())
            throw std::runtime_error(
                "runBatch: feed sets must bind the same inputs");
        for (const auto &[name, id] : slots) {
            auto it = feed.find(name);
            if (it == feed.end())
                throw std::runtime_error(
                    "runBatch: feed sets must bind the same inputs "
                    "(missing " +
                    name + ")");
            executor_->bindInputById(id, it->second);
        }
        executor_->run();
        std::vector<Tensor> outs;
        outs.reserve(graph_.outputs().size());
        for (int id : graph_.outputs())
            outs.push_back(executor_->fetch(id));
        results.push_back(std::move(outs));
    }
    return results;
}

ProgramArtifact
planProgram(const Graph &g, std::vector<std::string> variants,
            bool reorder, int numThreads, CompileReport *report)
{
    ProgramArtifact art;
    art.numThreads = numThreads <= 0 ? HostDevice::hardwareThreads()
                                     : numThreads;
    variants.resize(g.numNodes());

    // The greedy memory-aware schedule is not guaranteed to beat
    // creation order on every graph, so plan both and keep the
    // memory-aware one unless creation order is strictly cheaper.
    // Launch geometry and workspace requests are node-keyed (variants
    // read shapes only), so one summary serves both orders.
    std::vector<int> natural = naturalOrder(g);
    art.order = reorder ? reorderForMemory(g) : natural;
    LaunchSummary launches =
        planLaunches(g, art.order, variants, art.numThreads);
    art.plan = planMemory(g, art.order, launches.workspaces);
    int64_t naturalArena = art.plan.arenaBytes;
    if (reorder) {
        MemoryPlan plan = planMemory(g, natural, launches.workspaces);
        naturalArena = plan.arenaBytes;
        if (plan.arenaBytes < art.plan.arenaBytes) {
            // Shard counts are listed per step of the memory-aware
            // order; re-list them in creation order.
            std::vector<int> shardsOf(g.numNodes(), 1);
            size_t si = 0;
            for (int id : art.order) {
                if (!isSourceOp(g.node(id).op))
                    shardsOf[id] = launches.shardsPerStep[si++];
            }
            launches.shardsPerStep.clear();
            for (int id : natural) {
                if (!isSourceOp(g.node(id).op))
                    launches.shardsPerStep.push_back(shardsOf[id]);
            }
            art.order = std::move(natural);
            art.plan = std::move(plan);
        }
    }
    art.variants = std::move(variants);
    art.shardsPerStep = std::move(launches.shardsPerStep);
    if (report) {
        report->recordPlan(art);
        report->arenaBytesNoReorder = naturalArena;
    }
    return art;
}

namespace {

/** Node id of the training loss (named by compileGraphOnly so it
 *  survives graph compaction). */
int
findLoss(const Graph &g)
{
    for (int i = 0; i < g.numNodes(); ++i) {
        if (g.node(i).name == "__loss__")
            return i;
    }
    throw std::runtime_error("compileGraphOnly: loss eliminated");
}

/**
 * The back half every compile shares: simplify -> attention fusion ->
 * constant fold -> operator fusion -> DCE -> quantization -> backend
 * switching -> the fallback list -> the plan step. @p training
 * selects the quantization shape: only the loss's forward cone with
 * fp32 masters kept, versus the whole graph with frozen weights
 * pre-quantized into consts.
 */
ProgramArtifact
lowerGraph(Graph &g, const CompileOptions &options,
           const ParamStore *store, bool training, CompileReport &report)
{
    report.precision = options.precision;
    simplify(g);
    // Attention fuses before folding, which would expand a per-row
    // Const mask's per-head broadcast into H copies and leave the
    // chain unfused. No built-in model emits one: a Const mask is a
    // shared [S, M] one, which the Add broadcasts itself.
    if (options.fuse)
        report.fusions = fuseAttention(g, &report.attentionUnfused);
    if (options.foldConstants)
        report.folded = constantFold(g);
    if (options.fuse)
        report.fusions += fuseOperators(g);
    report.prunedNodes = dce(g);

    // Quantization runs after autodiff + fusion, which is what keeps a
    // training graph's backward region fp32: backward ops pick up
    // per-use Dequantize reads of the now-int8 stored activations
    // (straight-through estimates), and trainable weights keep fp32
    // masters re-quantized each step. Inference graphs are
    // deployment-shaped instead: every param is frozen, so weights
    // are pre-quantized into i8 Consts and DCE drops the fp32 masters
    // from the graph — and from the reported footprint.
    if (options.precision != Precision::F32) {
        QuantizeOptions qo;
        qo.precision = options.precision;
        qo.root = training ? findLoss(g) : -1;
        qo.store = store;
        qo.prequantizeFrozen = !training;
        quantizePass(g, qo, &report.quant);
        dce(g); // sweep values only the fp32 forward consumed
    }

    // Backend switching. Variants are order-independent (they read
    // shapes and trainability only), and selecting them before
    // scheduling lets the planner include each kernel's declared
    // workspace in every number the plan step reports.
    BackendOptions bopt;
    bopt.enableWinograd = options.winograd;
    bopt.enableBlocked = options.blocked;
    std::vector<std::string> variants =
        switchBackends(g, bopt, &report.backend);

    // Surface kernel-library gaps: a selected variant that is not
    // registered will silently run the default at bind time. Counting
    // only where a default exists mirrors bind behavior — a missing
    // default throws there instead. Analysis-only compiles report
    // these too; a bound program refreshes them from its executor.
    for (int id = 0; id < g.numNodes(); ++id) {
        const std::string &v = variants[id];
        if (!isSourceOp(g.node(id).op) && !v.empty() &&
            !hasKernelVariant(g.node(id).op, v) &&
            hasKernelVariant(g.node(id).op, "")) {
            ++report.kernelFallbacks;
            report.fallbackKernels.push_back(
                std::string(opName(g.node(id).op)) + "/" + v);
        }
    }

    report.flopsPerStep = g.totalFlops();
    return planProgram(g, std::move(variants), options.reorder,
                       options.numThreads, &report);
}

} // namespace

CompiledGraph
compileGraphOnly(const Graph &forward, int loss_id,
                 const SparseUpdateScheme &scheme,
                 const CompileOptions &options, const ParamStore *store)
{
    CompiledGraph out;
    Graph &g = out.graph;
    g = forward;
    CompileReport &report = out.report;
    report.forwardNodes = g.numNodes();

    // Name the loss so its id can be tracked across graph compaction.
    g.node(loss_id).name = "__loss__";
    g.outputs().clear();
    g.markOutput(loss_id);

    // 1. Sparse update scheme: trainable flags + channel ratios.
    report.trainableTensors = scheme.apply(g);

    // 2. Compile-time autodiff (prunes frozen branches by never
    //    emitting them).
    BackwardResult bwd = buildBackward(g, loss_id);
    report.backwardNodes = bwd.nodesEmitted;

    // 3. In-place optimizer emission — or, under gradient
    //    accumulation, scaled AccumGrad into persistent buffers (the
    //    optimizer then lives in a separate tiny apply program).
    if (options.gradAccumSteps > 1) {
        std::vector<std::pair<int, int>> pairs(bwd.paramGrads.begin(),
                                               bwd.paramGrads.end());
        std::sort(pairs.begin(), pairs.end());
        double inv = 1.0 / static_cast<double>(options.gradAccumSteps);
        for (auto [pid, gid] : pairs) {
            const std::string base = g.node(pid).name;
            const Shape gshape = g.node(gid).shape;
            int gacc = g.param(gshape, base + ".gacc", false);
            Attrs sa;
            sa.set("alpha", inv);
            int scaled = g.add(OpKind::Scale, {gid}, std::move(sa));
            int acc = g.add(OpKind::AccumGrad, {gacc, scaled}, {},
                            base + ".gaccum");
            g.markOutput(acc);
        }
    } else {
        emitOptimizer(g, options.optim, bwd.paramGrads);
    }

    // 4. Graph optimizations, quantization, backend switching and the
    //    plan step.
    out.artifact = lowerGraph(g, options, store, /*training=*/true, report);
    out.lossId = findLoss(g);
    return out;
}

TrainingProgram
compileTraining(const Graph &forward, int loss_id,
                const SparseUpdateScheme &scheme,
                const CompileOptions &options,
                std::shared_ptr<ParamStore> store)
{
    if (!store)
        store = std::make_shared<ParamStore>();
    CompiledGraph c =
        compileGraphOnly(forward, loss_id, scheme, options, store.get());
    // Under gradient accumulation, build the small apply program that
    // consumes the ".gacc" buffers every N-th step.
    CompiledGraph apply;
    std::vector<std::string> accum_buffers;
    if (options.gradAccumSteps > 1) {
        std::unordered_map<int, int> param_grads;
        for (int id : c.graph.paramIds()) {
            const Node &n = c.graph.node(id);
            const std::string suffix = ".gacc";
            if (n.name.size() <= suffix.size() ||
                n.name.compare(n.name.size() - suffix.size(),
                               suffix.size(), suffix) != 0) {
                continue;
            }
            std::string base =
                n.name.substr(0, n.name.size() - suffix.size());
            int base_id = c.graph.findParam(base);
            int p = apply.graph.param(c.graph.node(base_id).shape, base);
            int gacc = apply.graph.param(n.shape, n.name, false);
            param_grads[p] = gacc;
            accum_buffers.push_back(n.name);
        }
        emitOptimizer(apply.graph, options.optim, param_grads);
        apply.artifact = planProgram(apply.graph);
    }
    return TrainingProgram(std::move(c), std::move(store), std::move(apply),
                           options.gradAccumSteps, std::move(accum_buffers));
}

CompiledGraph
compileInferenceGraph(const Graph &forward,
                      const std::vector<int> &output_ids,
                      const CompileOptions &options,
                      std::shared_ptr<ParamStore> store)
{
    CompiledGraph out;
    out.graph = forward;
    out.graph.outputs() = output_ids;
    for (int id : out.graph.paramIds())
        out.graph.node(id).trainable = false;
    out.report.forwardNodes = out.graph.numNodes();
    out.artifact = lowerGraph(out.graph, options, store.get(),
                              /*training=*/false, out.report);
    return out;
}

InferenceProgram
compileInference(const Graph &forward,
                 const std::vector<int> &output_ids,
                 const CompileOptions &options,
                 std::shared_ptr<ParamStore> store)
{
    if (!store)
        store = std::make_shared<ParamStore>();
    CompiledGraph c =
        compileInferenceGraph(forward, output_ids, options, store);
    return InferenceProgram(std::move(c), std::move(store));
}

} // namespace pe
