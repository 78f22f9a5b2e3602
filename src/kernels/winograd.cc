/**
 * @file
 * Winograd F(2x2, 3x3) convolution, registered as the "winograd"
 * variant of Conv2d / ConvBiasAct. The fused form is the same kernel
 * followed by the shared bias + activation epilogue (kutil::Epilogue)
 * on each finished output row pair, so every activation is applied.
 *
 * The paper (Section 3.2) observes that Winograd's weight transform is
 * normally a poor fit for training because the weights change every
 * step — but under sparse backpropagation many layers are frozen, and
 * the compiler knows which. The backend-switching pass binds frozen
 * 3x3 stride-1 convolutions to this kernel. The filter transforms are
 * recomputed on every call from the current weight (no per-context
 * cache), so the kernel reads its weight like every other conv
 * variant does.
 *
 * Partitioning: the domain is the flattened (image, tile-row) pairs —
 * each tile row owns two output rows, so shards write disjoint output
 * slabs. Every shard carries a private workspace holding its filter
 * transforms and the transformed-input buffer, so the kernel
 * participates in the launch plan instead of being serialized by
 * scratch.
 */

#include <algorithm>
#include <cstring>

#include "kernels/kernel.h"
#include "kernels/kernel_util.h"

namespace pe {
namespace {

/** U = G g G^T for one 3x3 filter; G is the 4x3 F(2,3) matrix. */
void
transformFilter(const float *g, float *u)
{
    // G = [[1,0,0],[.5,.5,.5],[.5,-.5,.5],[0,0,1]]
    float tmp[4][3];
    for (int j = 0; j < 3; ++j) {
        float g0 = g[0 * 3 + j], g1 = g[1 * 3 + j], g2 = g[2 * 3 + j];
        tmp[0][j] = g0;
        tmp[1][j] = 0.5f * (g0 + g1 + g2);
        tmp[2][j] = 0.5f * (g0 - g1 + g2);
        tmp[3][j] = g2;
    }
    for (int i = 0; i < 4; ++i) {
        float t0 = tmp[i][0], t1 = tmp[i][1], t2 = tmp[i][2];
        u[i * 4 + 0] = t0;
        u[i * 4 + 1] = 0.5f * (t0 + t1 + t2);
        u[i * 4 + 2] = 0.5f * (t0 - t1 + t2);
        u[i * 4 + 3] = t2;
    }
}

/** All co*ci filter transforms of weight @p w into @p u [co, ci, 16]. */
void
transformAllFilters(const float *w, int64_t co, int64_t ci, float *u)
{
    for (int64_t o = 0; o < co; ++o) {
        for (int64_t i = 0; i < ci; ++i)
            transformFilter(w + (o * ci + i) * 9, u + (o * ci + i) * 16);
    }
}

/** V = B^T d B for one 4x4 input tile. */
void
transformInput(const float d[4][4], float v[4][4])
{
    float t[4][4];
    for (int j = 0; j < 4; ++j) {
        t[0][j] = d[0][j] - d[2][j];
        t[1][j] = d[1][j] + d[2][j];
        t[2][j] = -d[1][j] + d[2][j];
        t[3][j] = d[1][j] - d[3][j];
    }
    for (int i = 0; i < 4; ++i) {
        v[i][0] = t[i][0] - t[i][2];
        v[i][1] = t[i][1] + t[i][2];
        v[i][2] = -t[i][1] + t[i][2];
        v[i][3] = t[i][1] - t[i][3];
    }
}

/** Y = A^T m A: 4x4 accumulator -> 2x2 output tile. */
void
transformOutput(const float m[4][4], float y[2][2])
{
    float t[2][4];
    for (int j = 0; j < 4; ++j) {
        t[0][j] = m[0][j] + m[1][j] + m[2][j];
        t[1][j] = m[1][j] - m[2][j] - m[3][j];
    }
    for (int i = 0; i < 2; ++i) {
        y[i][0] = t[i][0] + t[i][1] + t[i][2];
        y[i][1] = t[i][1] - t[i][2] - t[i][3];
    }
}

/**
 * Winograd Conv2d / ConvBiasAct. Requires kh == kw == 3 and stride
 * == 1 (the backend-switching pass guarantees this before binding the
 * variant).
 *
 * Workspace layout (per shard): [vbuf: ci*16] then [u: co*ci*16].
 */
void
winogradConvK(const KernelCtx &c)
{
    const Shape &xs = *c.inShapes[0];
    const Shape &ws = *c.inShapes[1];
    int64_t pad = c.node->attrs.getInt("pad", 0);
    int64_t ci = xs[1], h = xs[2], w = xs[3];
    int64_t co = ws[0];
    int64_t ho = (*c.outShape)[2], wo = (*c.outShape)[3];
    int64_t tiles_h = (ho + 1) / 2, tiles_w = (wo + 1) / 2;
    kutil::Epilogue ep = kutil::epilogueOf(c);

    float *vbuf = c.workspace;       // [ci, 16]
    float *u = c.workspace + ci * 16; // [co, ci, 16] filter transforms
    transformAllFilters(c.in[1], co, ci, u);

    int64_t hi = partitionEnd(c, xs[0] * tiles_h);
    for (int64_t idx = c.begin; idx < hi; ++idx) {
        int64_t ni = idx / tiles_h, th = idx % tiles_h;
        for (int64_t tw = 0; tw < tiles_w; ++tw) {
            // Gather the 4x4 input tile per channel (implicit pad).
            for (int64_t i = 0; i < ci; ++i) {
                float d[4][4];
                const float *xp = c.in[0] + (ni * ci + i) * h * w;
                for (int a = 0; a < 4; ++a) {
                    int64_t ih = th * 2 - pad + a;
                    for (int b = 0; b < 4; ++b) {
                        int64_t iw = tw * 2 - pad + b;
                        bool ok = ih >= 0 && ih < h && iw >= 0 &&
                                  iw < w;
                        d[a][b] = ok ? xp[ih * w + iw] : 0.0f;
                    }
                }
                float v[4][4];
                transformInput(d, v);
                std::memcpy(vbuf + i * 16, v, 16 * sizeof(float));
            }
            // Per output channel: elementwise product + sum.
            for (int64_t o = 0; o < co; ++o) {
                float m[4][4];
                std::memset(m, 0, sizeof(m));
                const float *uo = u + o * ci * 16;
                for (int64_t i = 0; i < ci; ++i) {
                    const float *ui = uo + i * 16;
                    const float *vi = vbuf + i * 16;
                    for (int k = 0; k < 16; ++k)
                        m[k / 4][k % 4] += ui[k] * vi[k];
                }
                float y[2][2];
                transformOutput(m, y);
                float *op = c.out + (ni * co + o) * ho * wo;
                for (int a = 0; a < 2; ++a) {
                    int64_t oh = th * 2 + a;
                    if (oh >= ho)
                        continue;
                    for (int bb = 0; bb < 2; ++bb) {
                        int64_t ow = tw * 2 + bb;
                        if (ow >= wo)
                            continue;
                        op[oh * wo + ow] = y[a][bb];
                    }
                }
            }
        }
        // This shard's output rows [2 th, 2 th + 2) are finished.
        int64_t rows = std::min<int64_t>(2, ho - th * 2);
        for (int64_t o = 0; o < co; ++o)
            ep.channel(c.out + ((ni * co + o) * ho + th * 2) * wo,
                       rows * wo, o);
    }
}

WorkspaceSpec
winogradWorkspace(const Graph &g, const Node &n)
{
    const Shape &w = g.node(n.inputs[1]).shape;
    int64_t co = w[0], ci = w[1];
    return {(ci * 16 + co * ci * 16) * 4};
}

/** Flattened (image, output-tile-row) pairs. */
int64_t
winogradTileRows(const KernelCtx &c)
{
    return (*c.outShape)[0] * (((*c.outShape)[2] + 1) / 2);
}

} // namespace

namespace detail {

void
registerWinogradKernels()
{
    PartitionSpec tileRows{winogradTileRows, 1};
    for (OpKind op : {OpKind::Conv2d, OpKind::ConvBiasAct})
        registerKernel(op, "winograd", winogradConvK, tileRows,
                       winogradWorkspace);
}

} // namespace detail
} // namespace pe
