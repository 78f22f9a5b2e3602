#include "frontend/models.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "frontend/builder.h"

namespace pe {

namespace {

int64_t
scaled(int64_t ch, double width)
{
    auto v = static_cast<int64_t>(std::round(ch * width));
    return std::max<int64_t>(4, v);
}

int64_t
countParams(const Graph &g)
{
    int64_t total = 0;
    for (int id : g.paramIds())
        total += numel(g.node(id).shape);
    return total;
}

/**
 * One inverted-bottleneck block (MobileNetV2 / MCUNet building
 * block): expand 1x1 ("conv1") -> depthwise ("dw") -> project 1x1
 * ("conv2"); residual when stride 1 and channels match.
 */
int
invertedBottleneck(NetBuilder &b, int x, int64_t out_ch, int64_t expand,
                   int64_t kernel, int64_t stride,
                   const std::string &name)
{
    Graph &g = b.graph();
    int64_t in_ch = g.node(x).shape[1];
    int h = x;
    int64_t mid = in_ch * expand;
    if (expand != 1) {
        h = b.conv2d(h, mid, 1, 1, 0, name + ".conv1");
        h = b.relu(h);
    }
    h = b.dwConv2d(h, kernel, stride, kernel / 2, name + ".dw");
    h = b.relu(h);
    h = b.conv2d(h, out_ch, 1, 1, 0, name + ".conv2");
    if (stride == 1 && in_ch == out_ch)
        h = b.add(h, x);
    return h;
}

/**
 * Global-pool classifier head + loss. Fills @p spec in place: the
 * builder holds a reference to spec.graph, so the spec must not be
 * moved while building.
 */
void
finishClassifier(NetBuilder &b, ModelSpec &spec, int features,
                 int64_t num_classes, int64_t batch)
{
    Graph &g = b.graph();
    int pooled = b.globalAvgPool(features);
    int logits = b.linear(pooled, num_classes, "head");
    int labels = b.input({batch}, "y");
    int loss = b.crossEntropy(logits, labels);
    spec.labels = labels;
    spec.logits = logits;
    spec.loss = loss;
    g.markOutput(loss);
    g.markOutput(logits);
    spec.paramCount = countParams(g);
}

} // namespace

ModelSpec
buildMcuNet(const VisionConfig &cfg, Rng &rng, ParamStore *store)
{
    ModelSpec spec;
    spec.kind = "mcunet";
    NetBuilder b(spec.graph, rng, store);
    int x = b.input({cfg.batch, cfg.channels, cfg.resolution,
                     cfg.resolution},
                    "x");
    spec.input = x;

    int h = b.conv2d(x, scaled(16, cfg.width), 3, 2, 1, "stem");
    h = b.relu(h);

    // (out_ch, expand, kernel, stride) per block; MCUNet-5FPS-like
    // schedule of MB blocks with mixed kernels.
    struct Blk { int64_t c, e, k, s; };
    std::vector<Blk> blocks = {
        {16, 1, 3, 1}, {24, 3, 5, 2}, {24, 3, 3, 1}, {40, 3, 7, 2},
        {40, 3, 3, 1}, {48, 3, 5, 1}, {96, 3, 5, 2}, {96, 6, 7, 1},
        {160, 3, 5, 2},
    };
    int n_blocks = cfg.blocks > 0
                       ? std::min<int>(cfg.blocks,
                                       static_cast<int>(blocks.size()))
                       : static_cast<int>(blocks.size());
    for (int i = 0; i < n_blocks; ++i) {
        const Blk &bl = blocks[i];
        h = invertedBottleneck(b, h, scaled(bl.c, cfg.width), bl.e, bl.k,
                               bl.s, "b" + std::to_string(i));
    }
    spec.numBlocks = n_blocks;
    finishClassifier(b, spec, h, cfg.numClasses, cfg.batch);
    return spec;
}

ModelSpec
buildMobileNetV2(const VisionConfig &cfg, Rng &rng, ParamStore *store)
{
    ModelSpec spec;
    spec.kind = "mobilenetv2";
    NetBuilder b(spec.graph, rng, store);
    int x = b.input({cfg.batch, cfg.channels, cfg.resolution,
                     cfg.resolution},
                    "x");
    spec.input = x;

    int h = b.conv2d(x, scaled(32, cfg.width), 3, 2, 1, "stem");
    h = b.relu(h);

    // (t, c, n, s) schedule from the MobileNetV2 paper.
    struct Stage { int64_t t, c, n, s; };
    std::vector<Stage> stages = {
        {1, 16, 1, 1},  {6, 24, 2, 2},  {6, 32, 3, 2}, {6, 64, 4, 2},
        {6, 96, 3, 1},  {6, 160, 3, 2}, {6, 320, 1, 1},
    };
    int bi = 0;
    int limit = cfg.blocks > 0 ? cfg.blocks : 1 << 30;
    for (const Stage &st : stages) {
        for (int64_t i = 0; i < st.n && bi < limit; ++i, ++bi) {
            int64_t stride = i == 0 ? st.s : 1;
            h = invertedBottleneck(b, h, scaled(st.c, cfg.width), st.t, 3,
                                   stride, "b" + std::to_string(bi));
        }
    }
    spec.numBlocks = bi;
    finishClassifier(b, spec, h, cfg.numClasses, cfg.batch);
    return spec;
}

ModelSpec
buildResNet(const VisionConfig &cfg, Rng &rng, ParamStore *store)
{
    ModelSpec spec;
    spec.kind = "resnet";
    NetBuilder b(spec.graph, rng, store);
    Graph &g = spec.graph;
    int x = b.input({cfg.batch, cfg.channels, cfg.resolution,
                     cfg.resolution},
                    "x");
    spec.input = x;

    int h = b.conv2d(x, scaled(64, cfg.width), 3, 2, 1, "stem");
    h = b.relu(h);

    // ResNet-50 stage plan: (mid_ch, n_blocks, stride).
    struct Stage { int64_t c, n, s; };
    std::vector<Stage> stages = {
        {64, 3, 1}, {128, 4, 2}, {256, 6, 2}, {512, 3, 2},
    };
    int bi = 0;
    int limit = cfg.blocks > 0 ? cfg.blocks : 1 << 30;
    for (const Stage &st : stages) {
        for (int64_t i = 0; i < st.n && bi < limit; ++i, ++bi) {
            std::string name = "b" + std::to_string(bi);
            int64_t mid = scaled(st.c, cfg.width);
            int64_t out = mid * 4;
            int64_t stride = i == 0 ? st.s : 1;
            int64_t in_ch = g.node(h).shape[1];
            int shortcut = h;
            if (stride != 1 || in_ch != out) {
                shortcut = b.conv2d(h, out, 1, stride, 0,
                                    name + ".down");
            }
            int y = b.conv2d(h, mid, 1, 1, 0, name + ".conv1");
            y = b.relu(y);
            y = b.conv2d(y, mid, 3, stride, 1, name + ".conv2");
            y = b.relu(y);
            y = b.conv2d(y, out, 1, 1, 0, name + ".conv3");
            h = b.relu(b.add(y, shortcut));
        }
    }
    spec.numBlocks = bi;
    finishClassifier(b, spec, h, cfg.numClasses, cfg.batch);
    return spec;
}

ModelSpec
buildBert(const NlpConfig &cfg, Rng &rng, ParamStore *store)
{
    ModelSpec spec;
    spec.kind = "bert";
    NetBuilder b(spec.graph, rng, store);
    Graph &g = spec.graph;

    int ids = b.input({cfg.batch, cfg.seqLen}, "x");
    spec.input = ids;
    int h = b.embedding(ids, cfg.vocab, cfg.dim, "embed.tok");
    int pos = b.param({cfg.seqLen, cfg.dim}, "embed.pos.weight", 0.02f);
    h = b.add(h, pos); // [B,S,D] + [S,D]
    h = b.layerNorm(h, "embed.ln");

    for (int64_t i = 0; i < cfg.layers; ++i) {
        std::string name = "b" + std::to_string(i);
        int attn = b.selfAttention(h, cfg.heads, name + ".attn", false);
        h = b.layerNorm(b.add(h, attn), name + ".ln1");
        int x2d = b.reshape(h, {cfg.batch * cfg.seqLen, cfg.dim});
        int ff = b.linear(x2d, cfg.ffDim, name + ".ffn.fc1");
        ff = b.gelu(ff);
        ff = b.linear(ff, cfg.dim, name + ".ffn.fc2");
        int ff3d = b.reshape(ff, {cfg.batch, cfg.seqLen, cfg.dim});
        h = b.layerNorm(b.add(h, ff3d), name + ".ln2");
    }
    spec.numBlocks = static_cast<int>(cfg.layers);

    // First-token pooling -> classifier.
    int cls = b.slice(h, 1, 0, 1);                  // [B,1,D]
    cls = b.reshape(cls, {cfg.batch, cfg.dim});
    int logits = b.linear(cls, cfg.numClasses, "head");
    int labels = b.input({cfg.batch}, "y");
    int loss = b.crossEntropy(logits, labels);
    spec.labels = labels;
    spec.logits = logits;
    spec.loss = loss;
    g.markOutput(loss);
    g.markOutput(logits);
    spec.paramCount = countParams(g);
    return spec;
}

ModelSpec
buildLlama(const LlamaConfig &cfg, Rng &rng, ParamStore *store,
           int64_t lora_rank)
{
    ModelSpec spec;
    spec.kind = "llama";
    NetBuilder b(spec.graph, rng, store);
    Graph &g = spec.graph;

    int ids = b.input({cfg.batch, cfg.seqLen}, "x");
    spec.input = ids;
    int h = b.embedding(ids, cfg.vocab, cfg.dim, "embed.tok");

    for (int64_t i = 0; i < cfg.layers; ++i) {
        std::string name = "b" + std::to_string(i);
        int norm1 = b.rmsNorm(h, name + ".ln1");
        int attn = b.selfAttention(norm1, cfg.heads, name + ".attn",
                                   true, lora_rank);
        h = b.add(h, attn);
        int norm2 = b.rmsNorm(h, name + ".ln2");
        int x2d = b.reshape(norm2, {cfg.batch * cfg.seqLen, cfg.dim});
        // SwiGLU: fc2(silu(fc1(x)) * fc3(x)).
        int gate = b.linear(x2d, cfg.ffDim, name + ".ffn.fc1", false);
        gate = b.silu(gate);
        int up = b.linear(x2d, cfg.ffDim, name + ".ffn.fc3", false);
        int ff = b.mul(gate, up);
        ff = b.linear(ff, cfg.dim, name + ".ffn.fc2", false);
        h = b.add(h, b.reshape(ff, {cfg.batch, cfg.seqLen, cfg.dim}));
    }
    spec.numBlocks = static_cast<int>(cfg.layers);

    h = b.rmsNorm(h, "final.ln");
    int h2d = b.reshape(h, {cfg.batch * cfg.seqLen, cfg.dim});
    int logits = b.linear(h2d, cfg.vocab, "head", false);
    int labels = b.input({cfg.batch * cfg.seqLen}, "y");
    int loss = b.crossEntropy(logits, labels);
    spec.labels = labels;
    spec.logits = logits;
    spec.loss = loss;
    g.markOutput(loss);
    g.markOutput(logits);
    spec.paramCount = countParams(g);
    return spec;
}

namespace {

[[noreturn]] void
badDecoderField(const std::string &field, const std::string &why)
{
    throw std::invalid_argument("DecoderConfig::" + field + ": " + why);
}

} // namespace

DecoderConfig &
DecoderConfig::withHeads(int64_t n)
{
    if (n < 1)
        badDecoderField("heads", "must be >= 1");
    if (dim % n != 0)
        badDecoderField("heads",
                        "must divide dim (dim=" + std::to_string(dim) +
                            ", heads=" + std::to_string(n) + ")");
    heads = n;
    return *this;
}

DecoderConfig &
DecoderConfig::withDim(int64_t d)
{
    if (d < 1)
        badDecoderField("dim", "must be >= 1");
    if (d % heads != 0)
        badDecoderField("dim",
                        "must be divisible by heads (dim=" +
                            std::to_string(d) +
                            ", heads=" + std::to_string(heads) + ")");
    dim = d;
    return *this;
}

DecoderConfig &
DecoderConfig::withLayers(int64_t n)
{
    if (n < 1)
        badDecoderField("layers", "must be >= 1");
    layers = n;
    return *this;
}

DecoderConfig &
DecoderConfig::withMaxSeq(int64_t n)
{
    if (n < 1)
        badDecoderField("maxSeq", "must be >= 1");
    maxSeq = n;
    return *this;
}

DecoderConfig &
DecoderConfig::withVocab(int64_t v)
{
    if (v < 1)
        badDecoderField("vocab", "must be >= 1");
    vocab = v;
    return *this;
}

DecoderConfig &
DecoderConfig::withFfDim(int64_t d)
{
    if (d < 1)
        badDecoderField("ffDim", "must be >= 1");
    ffDim = d;
    return *this;
}

namespace {

/**
 * Shared decoder-LM core: prefill and decode are the SAME parameters
 * (identical creation order and names — the rng draws line up) and
 * the same attention block. A prefill is lead L = 1 with S = @p rows
 * prompt rows; a decode step is L = @p rows streams with S = 1. Each
 * layer writes its K/V rows into a [L, maxSeq, D] cache at "pos" and
 * attends every Q row to its lead's whole cache through the additive
 * [L*S, maxSeq] "mask". The two graphs differ only in where pos and
 * mask come from: Consts in the prefill (row 0; token i sees cache
 * columns j <= i), Inputs in the decode step.
 *
 * Heads stay packed as [.., D] with D = H*Dh, so the cache layout and
 * the "b<i>.kcache"/"b<i>.vcache" node-name contract do not depend on
 * H; NetBuilder::attention splits and merges them. The prefill's
 * [S, maxSeq] causal Const is its shared mask (L = 1); a decode step
 * with L > 1 streams passes its [L, maxSeq] mask per row.
 */
ModelSpec
buildDecoderLM(const DecoderConfig &cfg, int64_t rows, bool decode,
               Rng &rng, ParamStore *store)
{
    ModelSpec spec;
    spec.kind = decode ? "decoder-decode" : "decoder-prefill";
    NetBuilder b(spec.graph, rng, store);
    Graph &g = spec.graph;
    const int64_t D = cfg.dim;
    const int64_t M = cfg.maxSeq;
    const int64_t L = decode ? rows : 1;
    const int64_t S = decode ? 1 : rows;

    int ids = b.input({rows, 1}, "x");
    spec.input = ids;
    int pos = -1;
    int mask = -1;
    if (decode) {
        pos = b.input({L, 1}, "pos");
        mask = b.input({rows, M}, "mask");
    } else {
        pos = g.constantOf(Tensor({1}), "pos0");
        mask = b.causalMask(rows, M, "causal_mask");
    }
    int h = b.reshape(b.embedding(ids, cfg.vocab, D, "embed.tok"),
                      {rows, D});
    Attrs cache_attrs;
    cache_attrs.set("maxSeq", M);

    for (int64_t i = 0; i < cfg.layers; ++i) {
        std::string name = "b" + std::to_string(i);
        int norm1 = b.rmsNorm(h, name + ".ln1");
        int q = b.linear(norm1, D, name + ".q", false);
        int k = b.linear(norm1, D, name + ".k", false);
        int v = b.linear(norm1, D, name + ".v", false);
        int kc = g.add(OpKind::CacheWrite, {b.reshape(k, {L, S, D}), pos},
                       cache_attrs, name + ".kcache");
        int vc = g.add(OpKind::CacheWrite, {b.reshape(v, {L, S, D}), pos},
                       cache_attrs, name + ".vcache");
        int attn = b.attention(q, kc, vc, mask, cfg.heads);
        h = b.add(h, b.linear(attn, D, name + ".proj", false));
        int norm2 = b.rmsNorm(h, name + ".ln2");
        // SwiGLU: fc2(silu(fc1(x)) * fc3(x)).
        int gate = b.silu(b.linear(norm2, cfg.ffDim,
                                   name + ".ffn.fc1", false));
        int up = b.linear(norm2, cfg.ffDim, name + ".ffn.fc3", false);
        int ff = b.linear(b.mul(gate, up), D, name + ".ffn.fc2",
                          false);
        h = b.add(h, ff);
    }
    spec.numBlocks = static_cast<int>(cfg.layers);

    h = b.rmsNorm(h, "final.ln");
    int logits = b.linear(h, cfg.vocab, "head", false);
    spec.logits = logits;
    g.markOutput(logits);
    spec.paramCount = countParams(g);
    return spec;
}

} // namespace

ModelSpec
buildDecoderPrefill(const DecoderConfig &cfg, int64_t prompt_len,
                    Rng &rng, ParamStore *store)
{
    return buildDecoderLM(cfg, prompt_len, false, rng, store);
}

ModelSpec
buildDecoderDecode(const DecoderConfig &cfg, int64_t streams, Rng &rng,
                   ParamStore *store)
{
    return buildDecoderLM(cfg, streams, true, rng, store);
}

SparseUpdateScheme
cnnSparseScheme(const ModelSpec &m, int bias_blocks, int weight_blocks,
                double ratio)
{
    SparseUpdateScheme s = SparseUpdateScheme::frozen();
    int n = m.numBlocks;
    for (int i = std::max(0, n - bias_blocks); i < n; ++i)
        s.updateBiasPrefix("b" + std::to_string(i) + ".");
    for (int i = std::max(0, n - weight_blocks); i < n; ++i) {
        s.set("b" + std::to_string(i) + ".conv1.weight",
              TensorRule{true, ratio});
    }
    s.updatePrefix("head.");
    s.updateBiasPrefix("head.");
    return s;
}

SparseUpdateScheme
transformerSparseScheme(const ModelSpec &m, int bias_blocks,
                        int weight_blocks)
{
    SparseUpdateScheme s = SparseUpdateScheme::frozen();
    int n = m.numBlocks;
    for (int i = std::max(0, n - bias_blocks); i < n; ++i)
        s.updateBiasPrefix("b" + std::to_string(i) + ".");
    for (int i = std::max(0, n - weight_blocks); i < n; ++i) {
        std::string blk = "b" + std::to_string(i) + ".";
        s.updatePrefix(blk + "attn.");
        s.updatePrefix(blk + "ffn.fc1.");
    }
    s.updatePrefix("head.");
    s.updateBiasPrefix("head.");
    return s;
}

SparseUpdateScheme
loraScheme()
{
    SparseUpdateScheme s = SparseUpdateScheme::frozen();
    s.updateContaining(".lora.");
    s.updatePrefix("head.");
    return s;
}

SparseUpdateScheme
biasOnlyScheme()
{
    SparseUpdateScheme s = SparseUpdateScheme::biasOnly();
    s.updatePrefix("head.");
    return s;
}

VisionConfig
paperMcuNetConfig(int64_t batch)
{
    VisionConfig c;
    c.batch = batch;
    c.resolution = 128;
    c.numClasses = 10;
    return c;
}

VisionConfig
paperMobileNetV2Config(int64_t batch)
{
    VisionConfig c;
    c.batch = batch;
    c.resolution = 224;
    c.numClasses = 10;
    return c;
}

VisionConfig
paperResNet50Config(int64_t batch)
{
    VisionConfig c;
    c.batch = batch;
    c.resolution = 224;
    c.numClasses = 10;
    return c;
}

NlpConfig
paperBertBaseConfig(int64_t batch)
{
    NlpConfig c;
    c.batch = batch;
    c.seqLen = 128;
    c.vocab = 30522;
    c.dim = 768;
    c.heads = 12;
    c.ffDim = 3072;
    c.layers = 12;
    return c;
}

NlpConfig
paperDistilBertConfig(int64_t batch)
{
    NlpConfig c = paperBertBaseConfig(batch);
    c.layers = 6;
    return c;
}

LlamaConfig
paperLlama7bConfig(int64_t seq_len)
{
    LlamaConfig c;
    c.batch = 1;
    c.seqLen = seq_len;
    c.vocab = 32000;
    c.dim = 4096;
    c.heads = 32;
    c.ffDim = 11008;
    c.layers = 32;
    return c;
}

} // namespace pe
