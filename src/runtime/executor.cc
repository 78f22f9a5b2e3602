#include "runtime/executor.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "ir/op.h"
#include "quant/quant.h"

namespace pe {

namespace {

/**
 * Materialize a graph's constants. Non-f32 constants (pre-quantized
 * i8 weights) pack their integer values into raw byte storage: the
 * graph-side const data stays a float tensor of exact small integers,
 * but kernels read the buffer as int8_t or uint16_t codes, sized by
 * the placement's dtype.
 */
std::vector<Tensor>
packConstPool(const Graph &g)
{
    std::vector<Tensor> pool(g.numNodes());
    for (int id = 0; id < g.numNodes(); ++id) {
        const Node &n = g.node(id);
        if (n.op != OpKind::Const)
            continue;
        if (n.dtype == DType::F32) {
            pool[id] = g.hasConstData(id) ? g.constData(id).clone()
                                          : Tensor::zeros(n.shape);
            continue;
        }
        int64_t bytes = numel(n.shape) * dtypeSize(n.dtype);
        Tensor packed({(bytes + 3) / 4});
        if (g.hasConstData(id)) {
            const Tensor &v = g.constData(id);
            if (n.dtype == DType::I8) {
                int8_t *p = reinterpret_cast<int8_t *>(packed.data());
                for (int64_t i = 0; i < v.size(); ++i)
                    p[i] = static_cast<int8_t>(v[i]);
            } else {
                uint16_t *p =
                    reinterpret_cast<uint16_t *>(packed.data());
                for (int64_t i = 0; i < v.size(); ++i)
                    p[i] = floatToHalf(v[i]);
            }
        }
        pool[id] = std::move(packed);
    }
    return pool;
}

} // namespace

Executor::Executor(const Graph &g, ProgramArtifact art,
                   ParamStore &store)
    : g_(g), order_(std::move(art.order)), store_(store),
      plan_(std::move(art.plan)), constBufs_(std::move(art.constPool)),
      variants_(std::move(art.variants)),
      numThreads_(art.numThreads <= 0 ? HostDevice::hardwareThreads()
                                      : art.numThreads),
      shardsPerStep_(std::move(art.shardsPerStep))
{
    detail::ensureKernelsRegistered();
    pool_ = HostDevice::instance().pool(numThreads_);
    // The const pool is immutable from here on and shared read-only
    // by every session context.
    if (constBufs_.empty())
        constBufs_ = packConstPool(g_);
    validateArtifact();
    store_.materialize(g_);
    tier_ = hostSimdTier();
    retargetTiers();
    countStepsAndFallbacks();
    // No planLaunches/planMemory happened above: binding is pointer
    // resolution only. bindInto()'s workspace and shard-count checks
    // still cross-check the artifact against what the registry's
    // WorkspaceSpecs and PartitionSpecs produce on THIS machine at
    // first context bind.
}

ProgramArtifact
Executor::exportArtifact() const
{
    ProgramArtifact art;
    art.order = order_;
    art.variants = variants_;
    art.plan = plan_;
    art.shardsPerStep = shardsPerStep_;
    art.numThreads = numThreads_;
    art.constPool = constBufs_;
    return art;
}

void
Executor::countStepsAndFallbacks()
{
    for (int id : order_) {
        const Node &n = g_.node(id);
        if (isSourceOp(n.op))
            continue;
        ++numSteps_;
        if (lookupKernelInfo(n.op, variants_[id]).fellBack)
            fallbacks_.push_back(std::string(opName(n.op)) + "/" +
                                 variants_[id]);
        SimdTier vt = variantTier(variants_[id]);
        stepTiers_.push_back(simdTierName(vt));
        if (vt != SimdTier::Scalar)
            ++simdSteps_;
        else if (tier_ != SimdTier::Scalar && hasTierForm(n.op, tier_))
            tierMisses_.push_back(std::string(opName(n.op)) + "/" +
                                  variants_[id]);
    }
}

void
Executor::retargetTiers()
{
    for (int id : order_) {
        const Node &n = g_.node(id);
        if (!isSourceOp(n.op))
            variants_[id] = resolveTierVariant(n.op, variants_[id], tier_);
    }
}

void
Executor::validateArtifact() const
{
    const int n = g_.numNodes();
    if (static_cast<int>(variants_.size()) != n)
        throw std::runtime_error(
            "Executor: artifact variants do not cover the graph");
    if (static_cast<int>(plan_.values.size()) != n)
        throw std::runtime_error(
            "Executor: artifact memory plan does not cover the graph");
    if (order_.empty())
        throw std::runtime_error("Executor: artifact order is empty");
    std::vector<char> seen(n, 0);
    for (int id : order_) {
        if (id < 0 || id >= n || seen[id])
            throw std::runtime_error(
                "Executor: artifact order is not a permutation of "
                "node ids");
        seen[id] = 1;
    }
    int steps = 0;
    for (int id : order_) {
        if (!isSourceOp(g_.node(id).op))
            ++steps;
    }
    if (static_cast<int>(shardsPerStep_.size()) != steps)
        throw std::runtime_error(
            "Executor: artifact launch geometry does not match the "
            "step count");
    if (static_cast<int>(constBufs_.size()) != n)
        throw std::runtime_error(
            "Executor: artifact const pool does not cover the graph");
    // Placement bounds. Every offset/size below is file-controlled in
    // the loadPlan path, so the checks must hold for ADVERSARIAL
    // values too: reject negatives outright and compare extents in
    // 128-bit so no crafted int64 can overflow the comparison itself.
    if (plan_.arenaBytes < 0)
        throw std::runtime_error(
            "Executor: artifact arena extent is negative");
    if (plan_.cacheBytes < 0)
        throw std::runtime_error(
            "Executor: artifact cache extent is negative");
    auto fits = [&](int64_t offset, int64_t bytes) {
        return offset >= 0 && bytes >= 0 &&
               static_cast<__int128>(offset) + bytes <=
                   plan_.arenaBytes;
    };
    // Cache placements are bounded by the CACHE region, not the
    // arena: a tampered offset that fits the (usually larger) arena
    // must still be rejected here.
    auto fitsCache = [&](int64_t offset, int64_t bytes) {
        return offset >= 0 && bytes >= 0 &&
               static_cast<__int128>(offset) + bytes <=
                   plan_.cacheBytes;
    };
    for (int id = 0; id < n; ++id) {
        const Node &node = g_.node(id);
        for (int in : node.inputs) {
            if (in < 0 || in >= n)
                throw std::runtime_error(
                    "Executor: artifact graph has out-of-range "
                    "input ids");
        }
        if (node.op == OpKind::Const && !constBufs_[id].defined())
            throw std::runtime_error(
                "Executor: artifact const pool is missing a Const "
                "buffer");
        const ValuePlacement &v = plan_.values[id];
        // Storage class is a FUNCTION of the op (planMemory's
        // classification); a crafted tag — External on a Mul, say —
        // would dereference unallocated staging at bind.
        Storage want = node.op == OpKind::Param ? Storage::Param
                       : node.op == OpKind::Const ? Storage::ConstBuf
                       : node.op == OpKind::Input ? Storage::External
                       : isInPlaceOp(node.op)    ? Storage::Alias
                       : node.op == OpKind::CacheWrite
                           ? Storage::Cache
                           : Storage::Arena;
        if (v.storage != want)
            throw std::runtime_error(
                "Executor: artifact storage class does not match "
                "the node's op");
        if (v.dtype != node.dtype)
            throw std::runtime_error(
                "Executor: artifact placement dtype does not match "
                "the node");
        // Overflow-safe element count; kernels write numel(shape)
        // elements, so the placement MUST be sized for exactly that.
        __int128 ne = 1;
        for (int64_t d : node.shape) {
            if (d < 0 ||
                (d > 0 &&
                 ne > std::numeric_limits<int64_t>::max() / d))
                throw std::runtime_error(
                    "Executor: artifact shape is negative or "
                    "overflows");
            ne *= d;
        }
        if (v.storage == Storage::Arena &&
            (ne * dtypeSize(v.dtype) != v.bytes ||
             !fits(v.offset, v.bytes)))
            throw std::runtime_error(
                "Executor: artifact placement does not fit its "
                "value inside the arena");
        if (v.storage == Storage::Cache &&
            (ne * dtypeSize(v.dtype) != v.bytes ||
             !fitsCache(v.offset, v.bytes)))
            throw std::runtime_error(
                "Executor: artifact cache placement does not fit "
                "inside the cache region");
    }
    // Alias chains: resolve() walks input 0 until a non-alias
    // placement, so every alias node needs an input and the chain
    // must terminate (a crafted cycle would otherwise recurse
    // forever; input ids were range-checked above).
    for (int id = 0; id < n; ++id) {
        if (plan_.values[id].storage != Storage::Alias)
            continue;
        int cur = id, hops = 0;
        while (plan_.values[cur].storage == Storage::Alias) {
            if (g_.node(cur).inputs.empty())
                throw std::runtime_error(
                    "Executor: artifact aliases a node with no "
                    "inputs");
            cur = g_.node(cur).inputs[0];
            if (++hops > n)
                throw std::runtime_error(
                    "Executor: artifact alias chain does not "
                    "terminate");
        }
    }
    for (const WorkspacePlacement &w : plan_.workspaces) {
        if (w.node < 0 || w.node >= n)
            throw std::runtime_error(
                "Executor: artifact workspace names a bad node");
        if (w.shards < 1 || w.bytesPerShard < 0 ||
            w.shardStride < 0)
            throw std::runtime_error(
                "Executor: artifact workspace has negative sizes");
        if (w.bytesPerShard > 0) {
            if (w.shards > 1 && w.shardStride < w.bytesPerShard)
                throw std::runtime_error(
                    "Executor: artifact workspace shards overlap");
            __int128 top = static_cast<__int128>(w.offset) +
                           static_cast<__int128>(w.shards - 1) *
                               w.shardStride +
                           w.bytesPerShard;
            if (w.offset < 0 || top > plan_.arenaBytes)
                throw std::runtime_error(
                    "Executor: artifact workspace exceeds the arena");
        }
    }
}

std::unique_ptr<ExecContext>
Executor::makeContext() const
{
    auto ctx = std::make_unique<ExecContext>();
    bindInto(*ctx);
    return ctx;
}

void
Executor::armTrace(ExecContext &ctx, size_t capacity,
                   bool shardSpans) const
{
    ctx.trace_ = std::make_unique<TraceBuffer>(capacity);
    ctx.traceShards_ = shardSpans;
}

void
Executor::disarmTrace(ExecContext &ctx) const
{
    ctx.trace_.reset();
}

void
Executor::armTrace(size_t capacity, bool shardSpans)
{
    armTrace(defaultCtx(), capacity, shardSpans);
}

ExecContext &
Executor::defaultCtx() const
{
    if (!defaultCtx_)
        defaultCtx_ = makeContext();
    return *defaultCtx_;
}

float *
Executor::resolve(ExecContext &ctx, int id) const
{
    const Node &n = g_.node(id);
    const ValuePlacement &v = plan_.values[id];
    switch (v.storage) {
      case Storage::Param:
        return store_.get(n.name).data();
      case Storage::ConstBuf:
        return const_cast<Tensor &>(constBufs_[id]).data();
      case Storage::External:
        return ctx.inputBufs_[id].data();
      case Storage::Alias:
        return resolve(ctx, n.inputs[0]);
      case Storage::Arena:
        return ctx.arena_.at<float>(v.offset);
      case Storage::Cache:
        return ctx.cache_.at<float>(v.offset);
    }
    throw std::runtime_error("Executor::resolve: bad storage");
}

void
Executor::bindInto(ExecContext &ctx) const
{
    ctx.arena_.reset(plan_.arenaBytes);
    // The cache region is zeroed here — at bind — and then left alone
    // forever: run() never touches it, which is exactly the cross-run
    // persistence Storage::Cache promises. A caller clears rows
    // through rowsOf().
    ctx.cache_.reset(plan_.cacheBytes);

    // Input staging buffers are per-session: two in-flight requests
    // must never share the bytes their feeds land in.
    ctx.inputBufs_.resize(g_.numNodes());
    for (int id = 0; id < g_.numNodes(); ++id) {
        if (g_.node(id).op == OpKind::Input)
            ctx.inputBufs_[id] = Tensor::zeros(g_.node(id).shape);
    }

    ctx.steps_.clear();
    ctx.steps_.reserve(order_.size());

    // Workspace placements by node id, from the plan.
    std::vector<const WorkspacePlacement *> wsOf(g_.numNodes(), nullptr);
    for (const WorkspacePlacement &w : plan_.workspaces)
        wsOf[w.node] = &w;

    for (int id : order_) {
        const Node &n = g_.node(id);
        if (isSourceOp(n.op))
            continue;
        KernelInfo info = lookupKernelInfo(n.op, variants_[id]);
        BoundStep s;
        s.node = id;
        s.fn = info.fn;
        s.ctx.node = &g_.node(id);
        for (int in : n.inputs) {
            s.ctx.in.push_back(resolve(ctx, in));
            s.ctx.inShapes.push_back(&g_.node(in).shape);
        }
        s.ctx.out = resolve(ctx, id);
        s.ctx.outShape = &g_.node(id).shape;
        s.ctx.pool = pool_;
        const WorkspacePlacement *wsp = wsOf[id];

        // Resolve the node's workspace placement to arena pointers.
        // The planned placement may be larger than the bound kernel
        // needs — binding into a roomier placement is fine; needing
        // bytes the plan never reserved is not. This is the one check
        // that a plan (possibly from another host or build) fits the
        // kernels this registry binds.
        int64_t wsBytes =
            info.workspace ? info.workspace(g_, n).bytesPerShard : 0;
        if (wsBytes > 0 && !wsp)
            throw std::runtime_error(
                "Executor: workspace plan out of sync for " +
                std::string(opName(n.op)));
        if (wsp && wsBytes > wsp->bytesPerShard)
            throw std::runtime_error(
                "Executor: kernel needs more workspace than planned "
                "for " +
                std::string(opName(n.op)));
        if (wsBytes > 0)
            s.ctx.workspace = ctx.arena_.at<float>(wsp->shardOffset(0));

        // Launch plan: how many shards, over which ranges. Decided
        // here, once, from static shapes — run() only replays it.
        // Workspaces no longer force a kernel serial: shard i runs on
        // its own planned workspace instance.
        if (pool_ && info.part.splittable()) {
            std::vector<int64_t> bounds = splitRange(
                info.part.extent(s.ctx), info.part.minGrain, numThreads_);
            if (bounds.size() > 2) {
                int shards = static_cast<int>(bounds.size()) - 1;
                if (wsp && shards > wsp->shards)
                    throw std::runtime_error(
                        "Executor: launch plan has more shards than "
                        "the planned workspace instances for " +
                        std::string(opName(n.op)));
                s.shards.reserve(shards);
                for (int i = 0; i < shards; ++i) {
                    KernelCtx shard = s.ctx;
                    // A shard must never nest a dispatch on the pool
                    // it is running on.
                    shard.pool = nullptr;
                    shard.begin = bounds[i];
                    shard.end = bounds[i + 1];
                    if (wsBytes > 0)
                        shard.workspace =
                            ctx.arena_.at<float>(wsp->shardOffset(i));
                    s.shards.push_back(std::move(shard));
                }
            }
        }

        // Regression tripwire: the bound shard count must equal the
        // compile-time launch summary's (both derive from the same
        // extents and splitRange). A divergence means bind applied a
        // rule the plan does not know — e.g. the pre-Arena-v2
        // "scratch serializes the kernel" gate — which would skew
        // every shard statistic the reports assert on, so fail loudly
        // on the first context bind instead.
        size_t si = ctx.steps_.size();
        int bound = s.shards.empty() ? 1
                                     : static_cast<int>(s.shards.size());
        if (bound != shardsPerStep_[si])
            throw std::runtime_error(
                "Executor: bound launch plan diverges from the "
                "compile-time summary for " +
                std::string(opName(n.op)) + " (bound " +
                std::to_string(bound) + " shards, planned " +
                std::to_string(shardsPerStep_[si]) + ")");
        ctx.steps_.push_back(std::move(s));
    }
}

void
Executor::bindInput(const std::string &name, const Tensor &t)
{
    int id = inputId(name);
    if (id < 0)
        throw std::runtime_error("bindInput: no input named " + name);
    bindInputById(id, t);
}

int
Executor::inputId(const std::string &name) const
{
    for (int id : g_.inputIds()) {
        if (g_.node(id).name == name)
            return id;
    }
    return -1;
}

void
Executor::bindInputById(int id, const Tensor &t)
{
    bindInputById(defaultCtx(), id, t);
}

void
Executor::bindInputById(ExecContext &ctx, int id, const Tensor &t) const
{
    const Node &n = g_.node(id);
    if (t.shape() != n.shape) {
        throw std::runtime_error("bindInput: shape mismatch for " +
                                 n.name + ": got " +
                                 shapeToString(t.shape()) + " want " +
                                 shapeToString(n.shape));
    }
    std::memcpy(ctx.inputBufs_[id].data(), t.data(),
                sizeof(float) * t.size());
}

void
Executor::run()
{
    run(defaultCtx());
}

void
Executor::run(ExecContext &ctx) const
{
    ++ctx.step_;
    // Disarmed tracing costs each step a null-ring test
    // (BM_TraceOverhead/0 vs /1 measures both sides).
    TraceBuffer *tb = ctx.trace_.get();
    const bool shardSpans = tb && ctx.traceShards_;
    TraceSpan span; // refilled by every traced step
    for (size_t si = 0; si < ctx.steps_.size(); ++si) {
        BoundStep &s = ctx.steps_[si];
        if (tb) {
            span.node = s.node;
            span.stepIndex = static_cast<int32_t>(si);
            span.shards = s.shards.empty()
                              ? 1
                              : static_cast<int32_t>(s.shards.size());
            span.runId = ctx.step_;
            span.op = opName(g_.node(s.node).op);
            // variants_ is frozen after construction, so the c_str
            // stays valid for the executor's lifetime — spans borrow,
            // not copy.
            span.variant = variants_[s.node].c_str();
            span.startNs = traceNowNs();
        }
        if (s.shards.empty()) {
            s.ctx.step = ctx.step_;
            s.fn(s.ctx);
        } else {
            // One dispatch per step: shards run concurrently, and the
            // dispatch's completion wait is the inter-step barrier.
            // Shard spans are recorded inside the dispatch by the
            // worker that ran the shard: each record() reserves its
            // own ring slot, and the barrier orders all of them
            // before the step span below and any reader.
            pool_->dispatch(static_cast<int>(s.shards.size()), [&](int i) {
                KernelCtx &kc = s.shards[i];
                kc.step = ctx.step_;
                if (!shardSpans) {
                    s.fn(kc);
                    return;
                }
                TraceSpan sh = span;
                sh.kind = SpanKind::Shard;
                sh.worker =
                    static_cast<uint16_t>(ThreadPool::currentWorker());
                sh.shard = i;
                sh.begin = kc.begin;
                sh.end = kc.end;
                int64_t cpu0 = traceThreadCpuNs();
                sh.startNs = traceNowNs();
                s.fn(kc);
                sh.durNs = traceNowNs() - sh.startNs;
                int64_t cpu1 = traceThreadCpuNs();
                sh.cpuNs = (cpu0 >= 0 && cpu1 >= 0) ? cpu1 - cpu0 : -1;
                tb->record(sh);
            });
        }
        if (tb) {
            span.durNs = traceNowNs() - span.startNs;
            tb->record(span);
        }
    }
}

Tensor
Executor::fetch(int node_id) const
{
    return fetch(defaultCtx(), node_id);
}

Tensor
Executor::fetch(const ExecContext &ctx, int node_id) const
{
    const Node &n = g_.node(node_id);
    Tensor out(n.shape);
    const float *src =
        resolve(const_cast<ExecContext &>(ctx), node_id);
    switch (n.dtype) {
      case DType::F32:
        std::memcpy(out.data(), src, sizeof(float) * out.size());
        break;
      case DType::I8: {
        // Dequantize through the node's stamped output params when
        // present; raw integer codes otherwise (per-channel weights).
        const int8_t *q = reinterpret_cast<const int8_t *>(src);
        if (n.attrs.has("yScale")) {
            float s = static_cast<float>(n.attrs.getFloat("yScale", 1.0));
            int32_t zp = static_cast<int32_t>(n.attrs.getInt("yZp", 0));
            for (int64_t i = 0; i < out.size(); ++i)
                out[i] = dequantizeValue(q[i], s, zp);
        } else {
            for (int64_t i = 0; i < out.size(); ++i)
                out[i] = static_cast<float>(q[i]);
        }
        break;
      }
      case DType::F16: {
        const uint16_t *h = reinterpret_cast<const uint16_t *>(src);
        for (int64_t i = 0; i < out.size(); ++i)
            out[i] = halfToFloat(h[i]);
        break;
      }
    }
    return out;
}

float *
Executor::rowsOf(ExecContext &ctx, int id, int64_t row0, int64_t n) const
{
    if (id < 0 || id >= g_.numNodes())
        throw std::runtime_error("Executor::rowsOf: node id " +
                                 std::to_string(id) + " out of range");
    const Node &node = g_.node(id);
    const ValuePlacement &v = plan_.values[id];
    if ((v.storage != Storage::External && v.storage != Storage::Cache) ||
        v.dtype != DType::F32 || node.shape.empty())
        throw std::runtime_error("Executor::rowsOf: " + node.name +
                                 " is not an fp32 input or cache value");
    const int64_t rows = node.shape[0];
    if (row0 < 0 || n < 0 || row0 + n > rows)
        throw std::runtime_error(
            "Executor::rowsOf: rows [" + std::to_string(row0) + ", " +
            std::to_string(row0 + n) + ") exceed the " +
            std::to_string(rows) + " rows of " + node.name);
    return resolve(ctx, id) +
           row0 * numel(Shape(node.shape.begin() + 1, node.shape.end()));
}

} // namespace pe
