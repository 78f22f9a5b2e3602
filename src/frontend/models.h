/**
 * @file
 * Model zoo: the five model families the paper evaluates (Section
 * 4.1), width/depth-configurable so the same definitions serve both
 * executable (scaled-down) experiments and full-size (analysis-only)
 * memory/latency studies, plus the Section 4.1 sparse-BP schemes for
 * each.
 */

#pragma once

#include <string>
#include <vector>

#include "core/rng.h"
#include "engine/scheme.h"
#include "ir/graph.h"
#include "runtime/paramstore.h"

namespace pe {

/** A built model: the forward graph plus the interesting node ids. */
struct ModelSpec {
    Graph graph;
    int input = -1;  ///< data Input node ("x")
    int labels = -1; ///< label Input node ("y")
    int logits = -1;
    int loss = -1;
    int numBlocks = 0;
    std::string kind;
    int64_t paramCount = 0; ///< trainable-eligible weights (no optim state)
};

/** Vision model configuration. */
struct VisionConfig {
    int64_t batch = 8;
    int64_t resolution = 32;
    int64_t channels = 3;
    int64_t numClasses = 10;
    double width = 1.0; ///< channel multiplier
    int blocks = 0;     ///< 0 = family default
};

/**
 * MCUNet-proxy: a tiny inverted-bottleneck CNN (the 5FPS MCUNet is an
 * MB-block network found by NAS; we keep the block structure with
 * fixed kernel sizes). Blocks are named "b0".."bN-1"; the stem is
 * "stem", the classifier "head".
 */
ModelSpec buildMcuNet(const VisionConfig &cfg, Rng &rng,
                      ParamStore *store);

/** MobileNetV2: inverted residual bottlenecks, expand ratio 6. */
ModelSpec buildMobileNetV2(const VisionConfig &cfg, Rng &rng,
                           ParamStore *store);

/** ResNet with 1x1-3x3-1x1 bottleneck blocks. */
ModelSpec buildResNet(const VisionConfig &cfg, Rng &rng,
                      ParamStore *store);

/** Transformer encoder (BERT/DistilBERT) configuration. */
struct NlpConfig {
    int64_t batch = 4;
    int64_t seqLen = 32;
    int64_t vocab = 1000;
    int64_t dim = 64;
    int64_t heads = 4;
    int64_t ffDim = 256;
    int64_t layers = 4;
    int64_t numClasses = 2;
};

/**
 * BERT-style encoder for sequence classification: embeddings, post-LN
 * transformer blocks ("b0".."bN-1" with ".attn" and ".ffn.fc1/fc2"),
 * first-token pooling, classifier "head". Attention has no mask, so
 * each block's chain fuses into a three-input FusedAttention.
 */
ModelSpec buildBert(const NlpConfig &cfg, Rng &rng, ParamStore *store);

/** LLaMA-style decoder configuration. */
struct LlamaConfig {
    int64_t batch = 1;
    int64_t seqLen = 32;
    int64_t vocab = 512;
    int64_t dim = 64;
    int64_t heads = 4;
    int64_t ffDim = 172; ///< SwiGLU hidden (~8/3 d in the real model)
    int64_t layers = 4;
};

/**
 * Decoder-only LM: token embedding, pre-RMSNorm blocks with causal
 * attention (one shared [S, S] mask per block) and SwiGLU FFN,
 * tied-free LM head; next-token cross-entropy loss.
 *
 * @param lora_rank  if > 0, add LoRA adapters (A/B pairs, params
 *        "<layer>.lora.a/.lora.b") to the attention q/v projections —
 *        the parameter-efficient baseline of Table 5. Train them with
 *        loraScheme().
 */
ModelSpec buildLlama(const LlamaConfig &cfg, Rng &rng, ParamStore *store,
                     int64_t lora_rank = 0);

/** Freeze everything except LoRA adapters (and the loss head biases). */
SparseUpdateScheme loraScheme();

/** Generative decoder-LM configuration (KV-cache serving). The
 *  default single head keeps the cached graphs small enough for CI
 *  while exercising the full prefill/decode machinery; withHeads()
 *  turns on multi-head attention (heads packed in the cache's dim
 *  axis, so the cache layout and node names are head-agnostic). */
struct DecoderConfig {
    int64_t vocab = 96;
    int64_t dim = 32;
    int64_t ffDim = 64; ///< SwiGLU hidden
    int64_t layers = 2;
    int64_t maxSeq = 48; ///< KV-cache extent, shared by every layer
    int64_t heads = 1;   ///< attention heads; must divide dim

    // Validated builder-style setters: each rejects bad values up
    // front, naming the offending field, so misconfiguration fails at
    // construction instead of deep inside graph building.
    DecoderConfig &withHeads(int64_t n);
    DecoderConfig &withDim(int64_t d);
    DecoderConfig &withLayers(int64_t n);
    DecoderConfig &withMaxSeq(int64_t n);
    DecoderConfig &withVocab(int64_t v);
    DecoderConfig &withFfDim(int64_t d);
};

/**
 * Prefill graph for one prompt of @p prompt_len tokens: Input "x"
 * [S,1] token rows, causal self-attention over the prompt (a shared
 * [S,maxSeq] Const mask), and
 * CacheWrite nodes "b<i>.kcache"/"b<i>.vcache" ([1,maxSeq,dim],
 * written at position 0) that leave the session cache holding the
 * prompt's keys/values. Output: next-token logits [S,vocab].
 *
 * Parameters are created in the SAME order and under the SAME names
 * as buildDecoderDecode(), so building both from equal-seeded Rngs
 * against one ParamStore yields one consistent model.
 */
ModelSpec buildDecoderPrefill(const DecoderConfig &cfg,
                              int64_t prompt_len, Rng &rng,
                              ParamStore *store);

/**
 * Single-token decode graph for @p streams concurrent sequences:
 * Inputs "x" [B,1] (one token per stream), "pos" [B,1] (each
 * stream's generation, i.e. its cache row count), "mask" [B,maxSeq]
 * (0 for visible cache columns, kMaskedScore for the rest).
 * CacheWrite nodes carry the same "b<i>.kcache"/"b<i>.vcache" names
 * ([B,maxSeq,dim]); attention reads the whole cache through the
 * additive mask, one row per stream. Output: next-token logits
 * [B,vocab].
 */
ModelSpec buildDecoderDecode(const DecoderConfig &cfg, int64_t streams,
                             Rng &rng, ParamStore *store);

// ---- Paper Section 4.1 update schemes -------------------------------

/**
 * CNN scheme: biases of the last @p bias_blocks blocks; weights of
 * the *first* pointwise convolution in the last @p weight_blocks
 * blocks (optionally channel-sparse); classifier always updated.
 */
SparseUpdateScheme cnnSparseScheme(const ModelSpec &m, int bias_blocks,
                                   int weight_blocks,
                                   double ratio = 1.0);

/**
 * Transformer scheme: biases of the last @p bias_blocks blocks;
 * attention + first FFN linear weights of the last @p weight_blocks
 * blocks; classifier/head always updated.
 */
SparseUpdateScheme transformerSparseScheme(const ModelSpec &m,
                                           int bias_blocks,
                                           int weight_blocks);

/** Bias-only scheme with the task head still trainable. */
SparseUpdateScheme biasOnlyScheme();

// ---- Paper-scale configurations (analysis-only shapes) ----------------

VisionConfig paperMcuNetConfig(int64_t batch);      ///< 128x128 input
VisionConfig paperMobileNetV2Config(int64_t batch); ///< 224x224
VisionConfig paperResNet50Config(int64_t batch);
NlpConfig paperBertBaseConfig(int64_t batch);    ///< 768d x 12
NlpConfig paperDistilBertConfig(int64_t batch);  ///< 768d x 6
LlamaConfig paperLlama7bConfig(int64_t seq_len); ///< 4096d x 32

} // namespace pe
