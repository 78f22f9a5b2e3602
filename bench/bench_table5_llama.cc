/**
 * @file
 * Table 5: LLaMA-v2 instruction tuning on Jetson AGX Orin — PyTorch
 * FT-Full vs PyTorch LoRA vs PockEngine FT-Full vs PockEngine
 * Sparse.
 *
 * Latency / memory columns: the 7B-shape graph costed on the Orin
 * device model (eager profile for the PyTorch rows, compiled profile
 * for PockEngine). Loss / win-rate proxy: a reduced decoder trained
 * end-to-end on the synthetic instruction corpus (Alpaca stand-in),
 * win rate = exact-match reply-token accuracy (see DESIGN.md).
 *
 * Expected shape: PockEngine-Full ~4x faster than PyTorch at equal
 * quality; Sparse ~2x faster again at near-equal quality; LoRA saves
 * memory but little latency.
 */

#include "baseline/eager.h"
#include "bench_common.h"
#include "hw/device.h"

using namespace pe;
using namespace pe::bench;

namespace {

struct QualityRow {
    double loss = 0;
    double winRate = 0;
};

/** Train the reduced decoder under a scheme; report loss + win rate. */
QualityRow
quality(const SparseUpdateScheme &scheme, int64_t lora_rank, int steps)
{
    LlamaConfig cfg;
    cfg.batch = 2;
    cfg.seqLen = 16;
    cfg.vocab = 64;
    cfg.dim = 32;
    cfg.heads = 2;
    cfg.ffDim = 88;
    cfg.layers = 3;

    Rng rng(71);
    auto store = std::make_shared<ParamStore>();
    ModelSpec m = buildLlama(cfg, rng, store.get(), lora_rank);
    InstructionTask task(99, 8, cfg.vocab, cfg.seqLen);

    CompileOptions opt;
    opt.optim = OptimConfig::lion(0.001); // the paper fine-tunes w/ Lion
    auto prog = compileTraining(m.graph, m.loss, scheme, opt, store);
    Rng r(3);
    QualityRow q;
    for (int s = 0; s < steps; ++s) {
        Batch b = task.sample(cfg.batch, r);
        q.loss = prog.trainStep({{"x", b.x}, {"y", b.y}});
    }
    auto infer = compileInference(m.graph, {m.logits}, opt, store);
    double match = 0;
    int evals = 24;
    for (int e = 0; e < evals; ++e) {
        Batch b = task.sample(cfg.batch, r);
        Tensor logits = infer.run({{"x", b.x}})[0];
        match += task.exactMatch(logits, b);
    }
    q.winRate = match / evals;
    return q;
}

} // namespace

int
main()
{
    std::printf("=== Table 5: LlamaV2-7B instruction tuning on Jetson "
                "AGX Orin ===\n\n");
    int steps = scaledSteps(1200);

    // --- 7B-shape cost analysis on the Orin model -------------------
    Rng rng(7);
    LlamaConfig big = paperLlama7bConfig(512);
    ModelSpec m7 = buildLlama(big, rng, nullptr);
    ModelSpec m7lora = buildLlama(big, rng, nullptr, 8);
    DeviceModel orin = DeviceModel::jetsonOrin();

    CompileOptions eager_like;
    eager_like.fuse = false;
    eager_like.reorder = false;
    eager_like.winograd = false;
    eager_like.blocked = false;
    CompileOptions opt;

    CompiledGraph py_full = compileGraphOnly(
        m7.graph, m7.loss, SparseUpdateScheme::full(), eager_like);
    CompiledGraph py_lora = compileGraphOnly(m7lora.graph, m7lora.loss,
                                             loraScheme(), eager_like);
    CompiledGraph pe_full = compileGraphOnly(
        m7.graph, m7.loss, SparseUpdateScheme::full(), opt);
    CompiledGraph pe_sparse = compileGraphOnly(
        m7.graph, m7.loss, transformerSparseScheme(m7, 5, 5), opt);

    FrameworkProfile pt = FrameworkProfile::pytorch();
    FrameworkProfile pe = FrameworkProfile::pockEngine();
    double t_py_full = projectLatencyUs(
        py_full.graph, py_full.artifact.order, orin, pt, {},
        py_full.report.backwardNodes);
    double t_py_lora = projectLatencyUs(
        py_lora.graph, py_lora.artifact.order, orin, pt, {},
        py_lora.report.backwardNodes);
    double t_pe_full =
        projectLatencyUs(pe_full.graph, pe_full.artifact.order, orin, pe,
                         pe_full.artifact.variants);
    double t_pe_sparse =
        projectLatencyUs(pe_sparse.graph, pe_sparse.artifact.order, orin,
                         pe, pe_sparse.artifact.variants);

    // --- quality on the reduced decoder ------------------------------
    QualityRow q_full = quality(SparseUpdateScheme::full(), 0, steps);
    QualityRow q_lora = quality(loraScheme(), 8, steps);
    // Paper scheme: biases of the last 5 of 32 blocks + attn/fc1
    // weights of the last 5. Our 3-block proxy uses biases of all
    // blocks and weights of the last 2 (same ~2/3 depth coverage).
    QualityRow q_sparse =
        quality(transformerSparseScheme(
                    buildLlama(LlamaConfig{2, 16, 64, 32, 2, 88, 3},
                               rng, nullptr),
                    3, 2),
                0, steps);

    printRow({"framework", "method", "iter-lat", "memory", "loss",
              "win-proxy"},
             14);
    printRow({"PyTorch", "FT-Full", fmt(t_py_full / 1e6, 2) + "s",
              fmtBytes(py_full.report.totalBytes), fmt(q_full.loss, 3),
              fmt(100 * q_full.winRate, 1) + "%"},
             14);
    printRow({"PyTorch", "LoRA(r=8)", fmt(t_py_lora / 1e6, 2) + "s",
              fmtBytes(py_lora.report.totalBytes), fmt(q_lora.loss, 3),
              fmt(100 * q_lora.winRate, 1) + "%"},
             14);
    printRow({"PockEngine", "FT-Full", fmt(t_pe_full / 1e6, 2) + "s",
              fmtBytes(pe_full.report.totalBytes), fmt(q_full.loss, 3),
              fmt(100 * q_full.winRate, 1) + "%"},
             14);
    printRow({"PockEngine", "Sparse", fmt(t_pe_sparse / 1e6, 2) + "s",
              fmtBytes(pe_sparse.report.totalBytes),
              fmt(q_sparse.loss, 3),
              fmt(100 * q_sparse.winRate, 1) + "%"},
             14);

    std::printf("\nspeedups: PockEngine-Full %.1fx over PyTorch; "
                "Sparse %.1fx over PockEngine-Full; LoRA latency "
                "gain over PyTorch-Full only %.2fx (it still "
                "backpropagates to layer 0).\n",
                t_py_full / t_pe_full, t_pe_full / t_pe_sparse,
                t_py_full / t_py_lora);
    return 0;
}
