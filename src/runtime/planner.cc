#include "runtime/planner.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <stdexcept>

#include "hw/threadpool.h"
#include "kernels/kernel.h"

namespace pe {

namespace {

constexpr int64_t kAlign = 64;

int64_t
alignUp(int64_t v)
{
    return (v + kAlign - 1) / kAlign * kAlign;
}

/**
 * A simple address-ordered best-fit free list over one arena.
 * Allocation extends the arena when no block fits; frees coalesce
 * with neighbours.
 */
class FreeList
{
  public:
    int64_t
    alloc(int64_t bytes)
    {
        bytes = alignUp(bytes);
        // Best fit: smallest free block that fits.
        auto best = free_.end();
        for (auto it = free_.begin(); it != free_.end(); ++it) {
            if (it->second >= bytes &&
                (best == free_.end() || it->second < best->second)) {
                best = it;
            }
        }
        if (best != free_.end()) {
            int64_t off = best->first;
            int64_t rest = best->second - bytes;
            free_.erase(best);
            if (rest > 0)
                free_[off + bytes] = rest;
            return off;
        }
        int64_t off = top_;
        top_ += bytes;
        return off;
    }

    void
    release(int64_t off, int64_t bytes)
    {
        bytes = alignUp(bytes);
        auto [it, ok] = free_.emplace(off, bytes);
        if (!ok)
            throw std::runtime_error("FreeList: double free");
        // Coalesce with next.
        auto next = std::next(it);
        if (next != free_.end() && it->first + it->second == next->first) {
            it->second += next->second;
            free_.erase(next);
        }
        // Coalesce with prev.
        if (it != free_.begin()) {
            auto prev = std::prev(it);
            if (prev->first + prev->second == it->first) {
                prev->second += it->second;
                free_.erase(it);
            }
        }
    }

    int64_t top() const { return top_; }

  private:
    std::map<int64_t, int64_t> free_; ///< offset -> size
    int64_t top_ = 0;
};

/** Storage dtype of a value: the node's inferred tag (i8/f16 appear
 *  downstream of the QuantizePass; everything else is fp32). */
DType
dtypeOf(const Node &n)
{
    return n.dtype;
}

/** Total per-step block of a workspace placement (all shard
 *  instances, each padded to its aligned stride). */
int64_t
shardBlockBytes(int shards, int64_t bytesPerShard)
{
    return static_cast<int64_t>(shards) * alignUp(bytesPerShard);
}

// The pipeline-stage invocation counters the binary-plan loader
// asserts stay flat across a load (see PipelineCounters). Plain
// atomics: incremented on compile paths only, never on the hot path.
std::atomic<int64_t> g_planMemoryCalls{0};
std::atomic<int64_t> g_planLaunchesCalls{0};
std::atomic<int64_t> g_reorderCalls{0};
std::atomic<int64_t> g_quantizePassCalls{0};

} // namespace

PipelineCounters
pipelineCounters()
{
    PipelineCounters c;
    c.planMemory = g_planMemoryCalls.load(std::memory_order_relaxed);
    c.planLaunches = g_planLaunchesCalls.load(std::memory_order_relaxed);
    c.reorder = g_reorderCalls.load(std::memory_order_relaxed);
    c.quantizePass = g_quantizePassCalls.load(std::memory_order_relaxed);
    return c;
}

namespace detail {

void
countReorderInvocation()
{
    g_reorderCalls.fetch_add(1, std::memory_order_relaxed);
}

void
countQuantizePassInvocation()
{
    g_quantizePassCalls.fetch_add(1, std::memory_order_relaxed);
}

} // namespace detail

MemoryPlan
planMemory(const Graph &g, const std::vector<int> &order,
           const std::vector<WorkspaceRequest> &workspaces)
{
    g_planMemoryCalls.fetch_add(1, std::memory_order_relaxed);
    int n = g.numNodes();
    MemoryPlan plan;
    plan.values.resize(n);

    std::vector<int> pos(n, -1);
    for (size_t i = 0; i < order.size(); ++i)
        pos[order[i]] = static_cast<int>(i);

    // Classify storage and compute sizes.
    for (int id = 0; id < n; ++id) {
        const Node &node = g.node(id);
        ValuePlacement &v = plan.values[id];
        v.dtype = dtypeOf(node);
        v.bytes = numel(node.shape) * dtypeSize(v.dtype);
        v.defPos = pos[id];
        if (node.op == OpKind::Param) {
            v.storage = Storage::Param;
            plan.paramBytes += v.bytes;
        } else if (node.op == OpKind::Const) {
            v.storage = Storage::ConstBuf;
            plan.constBytes += v.bytes;
            plan.constBytesByDtype[static_cast<int>(v.dtype)] += v.bytes;
        } else if (node.op == OpKind::Input) {
            v.storage = Storage::External;
            plan.inputBytes += v.bytes;
        } else if (isInPlaceOp(node.op)) {
            v.storage = Storage::Alias;
        } else if (node.op == OpKind::CacheWrite) {
            // Cross-run lifetime: packed monotonically into the
            // per-context cache region, never released — the greedy
            // sweep below deals only in within-run lifetimes and
            // never sees these values.
            v.storage = Storage::Cache;
            if (pos[id] >= 0) {
                v.offset = alignUp(plan.cacheBytes);
                plan.cacheBytes = v.offset + v.bytes;
            }
        } else {
            v.storage = Storage::Arena;
            if (pos[id] >= 0) { // scheduled: actually materialized
                plan.arenaValueBytesByDtype[static_cast<int>(v.dtype)] +=
                    v.bytes;
            }
        }
    }

    // Lifetimes: last position among consumers (and self).
    for (int id = 0; id < n; ++id) {
        if (pos[id] < 0)
            continue;
        plan.values[id].lastUsePos = pos[id];
    }
    for (int oid : order) {
        const Node &node = g.node(oid);
        for (int in : node.inputs) {
            plan.values[in].lastUsePos =
                std::max(plan.values[in].lastUsePos, pos[oid]);
        }
        // An in-place op extends the lifetime of the aliased value's
        // chain implicitly; params are persistent anyway.
    }
    for (int out : g.outputs()) {
        plan.values[out].lastUsePos = static_cast<int>(order.size());
    }

    FreeList arena;
    int64_t live = 0;      ///< running live bytes (aligned)

    // Requests are node-keyed, so one launch summary can serve
    // several candidate orders: place them in THIS order's step
    // sequence, which keeps the plan independent of the order the
    // caller listed them in.
    std::vector<const WorkspaceRequest *> requests;
    requests.reserve(workspaces.size());
    for (const WorkspaceRequest &req : workspaces) {
        if (req.node < 0 || req.node >= n || pos[req.node] < 0)
            throw std::runtime_error(
                "planMemory: workspace request for unscheduled node");
        requests.push_back(&req);
    }
    std::stable_sort(requests.begin(), requests.end(),
                     [&pos](const WorkspaceRequest *a,
                            const WorkspaceRequest *b) {
                         return pos[a->node] < pos[b->node];
                     });
    plan.workspaces.reserve(requests.size());
    std::vector<int> wsAtPos(order.size(), -1);
    for (const WorkspaceRequest *r : requests) {
        const WorkspaceRequest &req = *r;
        WorkspacePlacement w;
        w.node = req.node;
        w.stepPos = pos[req.node];
        w.shards = std::max(1, req.shards);
        w.bytesPerShard = req.bytesPerShard;
        w.shardStride = alignUp(req.bytesPerShard);
        int idx = static_cast<int>(plan.workspaces.size());
        if (wsAtPos[w.stepPos] != -1)
            throw std::runtime_error(
                "planMemory: duplicate workspace request for one step");
        wsAtPos[w.stepPos] = idx;
        plan.workspaces.push_back(w);
    }

    // Greedy allocation sweep in execution order. Workspaces are
    // interval-allocated exactly like values, with a one-step
    // lifetime: alloc at their step, free before the next step's
    // allocations — so best-fit recycles scratch space across steps
    // and between scratch and values.
    std::vector<std::vector<int>> frees_at(order.size() + 2);
    for (int id = 0; id < n; ++id) {
        const ValuePlacement &v = plan.values[id];
        if (v.storage == Storage::Arena && v.defPos >= 0 &&
            v.lastUsePos <= static_cast<int>(order.size())) {
            size_t slot = std::min<size_t>(v.lastUsePos + 1,
                                           frees_at.size() - 1);
            frees_at[slot].push_back(id);
        }
    }
    plan.liveBytesAtStep.assign(order.size(), 0);
    int64_t peakWsBlock = 0;
    int prevWs = -1;
    for (size_t step = 0; step < order.size(); ++step) {
        for (int id : frees_at[step]) {
            arena.release(plan.values[id].offset, plan.values[id].bytes);
            live -= alignUp(plan.values[id].bytes);
        }
        if (prevWs >= 0) {
            WorkspacePlacement &w = plan.workspaces[prevWs];
            int64_t block = shardBlockBytes(w.shards, w.bytesPerShard);
            if (block > 0)
                arena.release(w.offset, block);
            live -= block;
            prevWs = -1;
        }
        // Workspace before value: successive scratch-bearing steps
        // then exact-fit each other's just-released blocks instead of
        // having the step's output nibble the front of them.
        if (wsAtPos[step] >= 0) {
            WorkspacePlacement &w = plan.workspaces[wsAtPos[step]];
            int64_t block = shardBlockBytes(w.shards, w.bytesPerShard);
            if (block > 0)
                w.offset = arena.alloc(block);
            live += block;
            peakWsBlock = std::max(peakWsBlock, block);
            prevWs = wsAtPos[step];
        }
        int oid = order[step];
        ValuePlacement &v = plan.values[oid];
        if (v.storage == Storage::Arena) {
            v.offset = arena.alloc(v.bytes);
            live += alignUp(v.bytes);
        }
        plan.liveBytesAtStep[step] = live;
        plan.peakLiveBytes = std::max(plan.peakLiveBytes, live);
    }
    plan.arenaBytes = arena.top();
    plan.workspaceBytes = peakWsBlock;
    return plan;
}

LaunchSummary
planLaunches(const Graph &g, const std::vector<int> &order,
             const std::vector<std::string> &variants, int numThreads)
{
    g_planLaunchesCalls.fetch_add(1, std::memory_order_relaxed);
    detail::ensureKernelsRegistered();
    LaunchSummary out;
    for (int id : order) {
        const Node &n = g.node(id);
        if (isSourceOp(n.op))
            continue;
        std::string variant =
            id < static_cast<int>(variants.size()) ? variants[id] : "";
        KernelInfo info = lookupKernelInfo(n.op, variant);

        // Dry context: shapes and attrs only. PartitionSpec extents
        // are required to depend on nothing else, so the launch shape
        // computed here is EXACTLY the one the executor binds.
        KernelCtx ctx;
        ctx.node = &n;
        for (int in : n.inputs)
            ctx.inShapes.push_back(&g.node(in).shape);
        ctx.outShape = &n.shape;

        int shards = 1;
        if (numThreads > 1 && info.part.splittable()) {
            std::vector<int64_t> bounds = splitRange(
                info.part.extent(ctx), info.part.minGrain, numThreads);
            shards = std::max<int>(
                1, static_cast<int>(bounds.size()) - 1);
        }
        out.shardsPerStep.push_back(shards);

        int64_t bytes =
            info.workspace ? info.workspace(g, n).bytesPerShard : 0;
        if (bytes > 0)
            out.workspaces.push_back({id, bytes, shards});
    }
    // The shard counts above never consult the workspace, which is
    // Arena v2's whole point. Every context bind (Executor::bindInto)
    // verifies its actually-bound shard count against shardsPerStep
    // and THROWS on divergence, so a reintroduced
    // scratch-serializes-kernels gate fails the first bind.
    return out;
}

int
countShardedSteps(const std::vector<int> &shardsPerStep)
{
    return static_cast<int>(std::count_if(shardsPerStep.begin(),
                                          shardsPerStep.end(),
                                          [](int s) { return s > 1; }));
}

} // namespace pe
