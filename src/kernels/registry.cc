#include "kernels/kernel.h"

#include <map>
#include <stdexcept>

#include "hw/cpu_features.h"
#include "kernels/kernel_util.h"

namespace pe {

namespace {

using Key = std::pair<OpKind, std::string>;

std::map<Key, KernelInfo> &
registry()
{
    static std::map<Key, KernelInfo> r;
    return r;
}

} // namespace

void
registerKernel(OpKind op, const std::string &variant, KernelFn fn,
               PartitionSpec part, WorkspaceFn workspace)
{
    registry()[{op, variant}] = {fn, part, workspace, false};
}

bool
isPointwiseConv(const Shape &w, const Attrs &a)
{
    return w[2] == 1 && w[3] == 1 && a.getInt("stride", 1) == 1 &&
           a.getInt("pad", 0) == 0;
}

namespace kutil {

// Out of line so the ISA-flagged tier TUs call these instead of
// compiling their own copies of the Attrs lookup (kernel_util.h).
float
attrF(const KernelCtx &c, const char *key, double dflt)
{
    return static_cast<float>(c.node->attrs.getFloat(key, dflt));
}

int64_t
attrI(const KernelCtx &c, const char *key, int64_t dflt)
{
    return c.node->attrs.getInt(key, dflt);
}

} // namespace kutil

namespace part {

int64_t
outElems(const KernelCtx &c)
{
    return numel(*c.outShape);
}

int64_t
outRows(const KernelCtx &c)
{
    return numel(*c.outShape) / c.outShape->back();
}

int64_t
outDim0(const KernelCtx &c)
{
    return (*c.outShape)[0];
}

int64_t
outDim01(const KernelCtx &c)
{
    return (*c.outShape)[0] * (*c.outShape)[1];
}

int64_t
outChannelBlocks(const KernelCtx &c)
{
    int64_t ch = (*c.outShape)[1];
    return (*c.outShape)[0] * ((ch + kutil::kDwBlock - 1) / kutil::kDwBlock);
}

int64_t
in1Elems(const KernelCtx &c)
{
    return numel(*c.inShapes[1]);
}

} // namespace part

namespace detail {

// Declared here, defined one per kernel translation unit. A static
// library can silently drop TUs whose symbols are never referenced, so
// registration is pulled in explicitly instead of relying on static
// initializers.
void registerElementwiseKernels();
void registerMatmulKernels();
void registerConvKernels();
void registerWinogradKernels();
void registerPoolKernels();
void registerSoftmaxKernels();
void registerAttentionKernels();
void registerNormKernels();
void registerEmbeddingKernels();
void registerLossKernels();
void registerReduceKernels();
void registerShapeOpKernels();
void registerOptimApplyKernels();
void registerQuantizedKernels();
void registerSimdAvx2Kernels();
void registerSimdNeonKernels();

void
ensureKernelsRegistered()
{
    static const bool done = [] {
        registerElementwiseKernels();
        registerMatmulKernels();
        registerConvKernels();
        registerWinogradKernels();
        registerPoolKernels();
        registerSoftmaxKernels();
        registerAttentionKernels();
        registerNormKernels();
        registerEmbeddingKernels();
        registerLossKernels();
        registerReduceKernels();
        registerShapeOpKernels();
        registerOptimApplyKernels();
        registerQuantizedKernels();
#ifndef PE_NO_SIMD
        // Tier variants register only when the RUNNING host can
        // execute them, so hasKernelVariant("...@avx2") is also a
        // capability check and a direct lookup can never bind an
        // illegal instruction.
        if (cpuFeatures().avx2)
            registerSimdAvx2Kernels();
        if (cpuFeatures().neon)
            registerSimdNeonKernels();
#endif
        return true;
    }();
    (void)done;
}

} // namespace detail

namespace {
int g_tierOverride = -1; ///< setSimdTierForTesting; -1 = no override
} // namespace

void
setSimdTierForTesting(int tier)
{
    g_tierOverride = tier;
}

SimdTier
hostSimdTier()
{
    if (g_tierOverride >= 0)
        return static_cast<SimdTier>(g_tierOverride);
#ifdef PE_NO_SIMD
    return SimdTier::Scalar;
#else
    if (cpuFeatures().avx2)
        return SimdTier::Avx2;
    if (cpuFeatures().neon)
        return SimdTier::Neon;
    return SimdTier::Scalar;
#endif
}

SimdTier
variantTier(const std::string &variant)
{
    std::string base = scalarVariantOf(variant);
    std::string suffix = base.empty()
                             ? variant
                             : (variant.size() > base.size() + 1
                                    ? variant.substr(base.size() + 1)
                                    : "");
    if (suffix == "avx2")
        return SimdTier::Avx2;
    if (suffix == "neon")
        return SimdTier::Neon;
    return SimdTier::Scalar;
}

std::string
scalarVariantOf(const std::string &variant)
{
    if (variant == "avx2" || variant == "neon")
        return "";
    size_t at = variant.rfind('@');
    if (at != std::string::npos) {
        std::string suffix = variant.substr(at + 1);
        if (suffix == "avx2" || suffix == "neon")
            return variant.substr(0, at);
    }
    return variant;
}

namespace {

/** "<base>@<tier>", or the bare tier name for the default kernel. */
std::string
tierVariantName(const std::string &base, SimdTier tier)
{
    return base.empty() ? std::string(simdTierName(tier))
                        : base + "@" + simdTierName(tier);
}

} // namespace

void
registerTierVariant(OpKind op, const char *base, SimdTier tier,
                    KernelFn fn)
{
    auto it = registry().find({op, base});
    if (it == registry().end())
        throw std::logic_error(std::string("no base kernel for tier "
                                           "variant of ") +
                               opName(op) + " \"" + base + "\"");
    KernelInfo info = it->second;
    info.fn = fn;
    registry()[{op, tierVariantName(base, tier)}] = info;
}

std::string
resolveTierVariant(OpKind op, const std::string &variant, SimdTier tier)
{
    std::string base = scalarVariantOf(variant);
    if (tier != SimdTier::Scalar) {
        std::string candidate = tierVariantName(base, tier);
        if (hasKernelVariant(op, candidate))
            return candidate;
    }
    return base;
}

KernelInfo
lookupKernelInfo(OpKind op, const std::string &variant)
{
    detail::ensureKernelsRegistered();
    auto it = registry().find({op, variant});
    bool fell_back = false;
    if (it == registry().end() && !variant.empty()) {
        it = registry().find({op, ""});
        fell_back = it != registry().end();
    }
    if (it == registry().end()) {
        throw std::runtime_error(std::string("no kernel for op ") +
                                 opName(op));
    }
    KernelInfo info = it->second;
    info.fellBack = fell_back;
    return info;
}

KernelFn
lookupKernel(OpKind op, const std::string &variant)
{
    return lookupKernelInfo(op, variant).fn;
}

bool
hasKernelVariant(OpKind op, const std::string &variant)
{
    detail::ensureKernelsRegistered();
    return registry().count({op, variant}) > 0;
}

bool
hasTierForm(OpKind op, SimdTier tier)
{
    detail::ensureKernelsRegistered();
    for (auto it = registry().lower_bound({op, ""});
         it != registry().end() && it->first.first == op; ++it) {
        if (variantTier(it->first.second) == tier)
            return true;
    }
    return false;
}

WorkspaceSpec
kernelWorkspace(const Graph &g, const Node &n, const std::string &variant)
{
    KernelInfo info = lookupKernelInfo(n.op, variant);
    return info.workspace ? info.workspace(g, n) : WorkspaceSpec{};
}

} // namespace pe
