/**
 * @file
 * Kernel ABI and registry.
 *
 * Every op in the catalogue has at least one CPU kernel; several have
 * multiple named variants (e.g. Conv2d: "naive", "im2col", "winograd")
 * which the backend-switching pass selects between — this is the
 * repository's stand-in for the paper's per-backend kernel libraries
 * (SNPE / TensorRT / TVM-tuned / TinyEngine).
 *
 * Partitioned execution: a kernel may declare (via PartitionSpec) a
 * one-dimensional partition domain — output rows, flattened output
 * elements, batch images — whose shards write disjoint output ranges.
 * The executor splits that domain across the thread pool at BIND
 * time (the launch plan is precomputed; nothing is decided per step,
 * preserving the paper's no-runtime-decisions invariant) and each
 * shard receives the same KernelCtx with [begin, end) narrowed.
 * A default-constructed range (begin == end == 0) means "the full
 * domain", so unsharded callers (tests, the eager baseline, benches)
 * need no changes.
 *
 * Workspaces (Arena v2): a kernel that needs scratch declares a
 * WorkspaceSpec — bytes per shard (each shard of a partitioned launch
 * gets its own instance, so scratch never serializes a kernel). Nothing
 * persists across calls: a kernel that derives data from its inputs
 * (Winograd's filter transforms) recomputes it into its shard's
 * workspace on every call. The memory planner places workspaces in the
 * SAME arena as values, live only during their step, so the reported
 * footprint includes them and best-fit reuses the space across steps.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/shape.h"
#include "ir/graph.h"

namespace pe {

class ThreadPool;

/** Everything a kernel needs to run one node (or one shard of one). */
struct KernelCtx {
    const Node *node = nullptr;       ///< attrs
    std::vector<const float *> in;    ///< input buffers
    std::vector<const Shape *> inShapes;
    float *out = nullptr;             ///< output buffer
    const Shape *outShape = nullptr;
    int64_t step = 0;                 ///< global optimizer step (Adam)
    float *workspace = nullptr;       ///< THIS shard's private scratch
                                      ///< (WorkspaceSpec::bytesPerShard)
    int64_t begin = 0;                ///< partition range over the
    int64_t end = 0;                  ///< kernel's declared domain;
                                      ///< begin == end == 0 -> full
    ThreadPool *pool = nullptr;       ///< for kernels that parallelize
                                      ///< internally; may be null
};

using KernelFn = void (*)(const KernelCtx &);

/**
 * How a kernel's work splits across threads. The domain is a
 * kernel-defined 1-D index set (rows, images, flattened elements…);
 * shards of it must write disjoint output bytes. Each shard receives
 * its own workspace instance, so scratch-bearing kernels partition
 * like any other. Kernels whose accumulation spans the whole domain
 * (scalar losses, axis reductions into shared slots) stay
 * unsplittable.
 */
struct PartitionSpec {
    /**
     * Domain extent for one invocation, computed from the bound ctx
     * (shapes are static, so this runs once at bind time). Null means
     * the kernel is not splittable. Must depend only on shapes and
     * node attrs — the planner evaluates it before buffers exist.
     */
    int64_t (*extent)(const KernelCtx &) = nullptr;
    /** Minimum domain elements per shard (don't split tiny work). */
    int64_t minGrain = 1;

    bool splittable() const { return extent != nullptr; }
};

/**
 * Declared scratch requirement of (node, variant). All quantities are
 * BYTES; the planner places them in the arena and the executor
 * resolves them to pointers at bind time.
 */
struct WorkspaceSpec {
    /** Private scratch per shard; every shard of a partitioned launch
     *  gets its own instance at a distinct arena offset. */
    int64_t bytesPerShard = 0;
};

/** Workspace query: sizes from static shapes, at compile time. */
using WorkspaceFn = WorkspaceSpec (*)(const Graph &, const Node &);

/** Registry entry: the kernel plus how to partition and feed it. */
struct KernelInfo {
    KernelFn fn = nullptr;
    PartitionSpec part;
    WorkspaceFn workspace = nullptr; ///< null -> no scratch needed
    /** True if the requested variant was missing and "" was used. */
    bool fellBack = false;
};

/**
 * Resolve the partition range of @p c against the full domain extent
 * @p n: a default-constructed range means the whole domain. Kernels
 * call this once at entry. Internal linkage, like everything the SIMD
 * tier TUs use from headers (kernel_util.h).
 */
static inline int64_t
partitionEnd(const KernelCtx &c, int64_t n)
{
    return c.end > c.begin ? std::min(c.end, n) : n;
}

/**
 * True for a pointwise convolution (1x1 kernel, stride 1, pad 0) with
 * weight shape @p w and conv attrs @p a. Its NCHW input image already
 * is the [ci, h*w] GEMM operand, so the "im2col" kernels read it in
 * place: no unfold and no column workspace. One predicate for the
 * kernels, their workspace declaration and switchBackends.
 */
bool isPointwiseConv(const Shape &w, const Attrs &a);

/**
 * Look up the kernel for an op. @p variant "" selects the default;
 * unknown variants fall back to the default (a backend without the
 * tuned kernel still runs the model) — the fallback is flagged in
 * KernelInfo::fellBack so the compile report can surface it.
 */
KernelFn lookupKernel(OpKind op, const std::string &variant = "");

/** Full registry entry for (op, variant), with fallback applied. */
KernelInfo lookupKernelInfo(OpKind op, const std::string &variant = "");

/** True if a kernel is registered for (op, variant) exactly. */
bool hasKernelVariant(OpKind op, const std::string &variant);

/**
 * Workspace declared by the kernel bound to (node, variant), with the
 * registry's fallback rule applied. Zero for most kernels.
 */
WorkspaceSpec kernelWorkspace(const Graph &g, const Node &n,
                              const std::string &variant);

/** Registration hook used by the kernel translation units. */
void registerKernel(OpKind op, const std::string &variant, KernelFn fn,
                    PartitionSpec part = {}, WorkspaceFn workspace = nullptr);

/**
 * Owns workspace storage for one direct (un-planned) kernel call —
 * tests, the eager baseline, constant folding. Attach before
 * invoking; reattaching with the same size reuses the storage.
 */
class DirectWorkspace
{
  public:
    void
    attach(KernelCtx &c, const WorkspaceSpec &spec)
    {
        size_t per = static_cast<size_t>((spec.bytesPerShard + 3) / 4);
        if (perShard_.size() != per)
            perShard_.assign(per, 0.0f);
        if (per > 0)
            c.workspace = perShard_.data();
    }

    /** Attach the workspace declared for (node, variant). */
    void
    attach(KernelCtx &c, const Graph &g, const Node &n,
           const std::string &variant = "")
    {
        attach(c, kernelWorkspace(g, n, variant));
    }

  private:
    std::vector<float> perShard_;
};

namespace detail {
/** Force-link all kernel TUs (each defines a registrar object). */
void ensureKernelsRegistered();
} // namespace detail

// ---- SIMD kernel tiers -----------------------------------------------

/**
 * The vector instruction tier a kernel variant targets. Scalar is the
 * universal tier: every op's scalar kernels are registered on every
 * host, so a tier downgrade always lands on a runnable kernel.
 */
enum class SimdTier { Scalar, Avx2, Neon };

constexpr const char *
simdTierName(SimdTier t)
{
    return t == SimdTier::Avx2 ? "avx2"
           : t == SimdTier::Neon ? "neon"
                                 : "scalar";
}

/**
 * The best tier this host can execute (cpu_features probe; Scalar
 * when the library was built with PE_SIMD=OFF). Tier variants are
 * only REGISTERED when this says they can run, so hasKernelVariant on
 * a tier name doubles as a host-capability check.
 */
SimdTier hostSimdTier();

/**
 * Tier encoded in a variant name. Tier variants are named
 * "<base>@<tier>" ("blocked@avx2", "int8@neon"); a bare tier name
 * ("avx2") is the tier variant of the default kernel. Everything else
 * — including unknown variants — is Scalar.
 */
SimdTier variantTier(const std::string &variant);

/** Strip any tier suffix: "blocked@avx2" -> "blocked", "avx2" -> "". */
std::string scalarVariantOf(const std::string &variant);

/**
 * Bind-time tier selection: map @p variant to the kernel the program
 * should bind at @p tier. The stored name is first reduced to its
 * scalar base (so a plan saved on an AVX2 host resolves on a NEON
 * host), then upgraded to "<base>@<tier>" when that exact variant is
 * registered. Unknown variants pass through untouched so the
 * registry's fallback accounting still sees them.
 */
std::string resolveTierVariant(OpKind op, const std::string &variant,
                               SimdTier tier);

/**
 * True if some registered variant of @p op is a @p tier form. A step
 * bound to a scalar variant of such an op misses the tier silently:
 * the compile report counts it (CompileReport::tierMisses).
 */
bool hasTierForm(OpKind op, SimdTier tier);

/**
 * Register @p fn as the @p tier variant of the registered (op, @p base)
 * kernel — "<base>@<tier>", or the bare tier name for base "" — with
 * the base's own PartitionSpec and WorkspaceFn, so a tier variant
 * declares exactly its base's partition and workspace by
 * construction. Throws if the base is not registered yet.
 */
void registerTierVariant(OpKind op, const char *base, SimdTier tier,
                         KernelFn fn);

/**
 * Test hook: force hostSimdTier() to report @p tier (pass Scalar to
 * simulate a SIMD-less host; -1 clears the override). An Executor
 * reads hostSimdTier() once, at construction, so the override pins
 * the programs built while it is set (tests scope it with
 * test::TierOverride). Only downgrades are meaningful — the override
 * cannot conjure kernels that were never registered.
 */
void setSimdTierForTesting(int tier);

// ---- Common partition domains (used by the kernel TUs) ---------------

namespace part {
/** Flattened output elements. */
int64_t outElems(const KernelCtx &c);
/** Output rows: numel(out) / out.back(). */
int64_t outRows(const KernelCtx &c);
/** First output dim (batch / output channels / samples). */
int64_t outDim0(const KernelCtx &c);
/** First two output dims flattened (e.g. N*C of an NCHW output). */
int64_t outDim01(const KernelCtx &c);
/** N * ceil(C / kutil::kDwBlock) of an NCHW output: the (image,
 *  channel-block) shards of the packed depthwise kernels. */
int64_t outChannelBlocks(const KernelCtx &c);
/** Elements of input 1 (optimizer kernels: the gradient). */
int64_t in1Elems(const KernelCtx &c);
} // namespace part

} // namespace pe
