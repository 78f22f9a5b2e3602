/**
 * @file
 * Figure 9: training throughput across seven edge platforms for the
 * baseline frameworks vs PockEngine (full and sparse BP).
 *
 * Two sections:
 *  1. HOST-MEASURED: real wall-clock on this machine, EagerEngine
 *     (runtime autodiff, dynamic dispatch, per-step allocation) vs
 *     the compiled engine on identical models — the measured part of
 *     the speedup claim.
 *  2. DEVICE-PROJECTED: the compiled/eager graphs costed on the
 *     calibrated device models (see DESIGN.md substitution table),
 *     reproducing the Fig. 9 (a)-(g) matrix shape.
 */

#include <chrono>

#include "baseline/eager.h"
#include "bench_common.h"
#include "hw/device.h"

using namespace pe;
using namespace pe::bench;

namespace {

struct ModelEntry {
    std::string name;
    ModelSpec spec;
    SparseUpdateScheme sparse;
    int64_t batch;
};

std::vector<ModelEntry>
projectionModels()
{
    // Paper-scale shapes (analysis only; projection needs no
    // parameter materialization).
    std::vector<ModelEntry> out;
    Rng rng(3);
    {
        VisionConfig c = paperMcuNetConfig(8);
        ModelSpec m = buildMcuNet(c, rng, nullptr);
        out.push_back({"MCUNet", std::move(m), {}, c.batch});
        out.back().sparse = cnnSparseScheme(out.back().spec, 7, 4, 0.5);
    }
    {
        VisionConfig c = paperMobileNetV2Config(8);
        ModelSpec m = buildMobileNetV2(c, rng, nullptr);
        out.push_back({"MbV2", std::move(m), {}, c.batch});
        out.back().sparse = cnnSparseScheme(out.back().spec, 7, 7);
    }
    {
        VisionConfig c = paperResNet50Config(8);
        ModelSpec m = buildResNet(c, rng, nullptr);
        out.push_back({"ResNet50", std::move(m), {}, c.batch});
        out.back().sparse = cnnSparseScheme(out.back().spec, 8, 8);
    }
    {
        NlpConfig c = paperDistilBertConfig(4);
        ModelSpec m = buildBert(c, rng, nullptr);
        out.push_back({"DistilBERT", std::move(m), {}, c.batch});
        out.back().sparse =
            transformerSparseScheme(out.back().spec, 3, 2);
    }
    {
        NlpConfig c = paperBertBaseConfig(4);
        ModelSpec m = buildBert(c, rng, nullptr);
        out.push_back({"BERT", std::move(m), {}, c.batch});
        out.back().sparse =
            transformerSparseScheme(out.back().spec, 6, 4);
    }
    return out;
}

double
wallMs(const std::function<void()> &fn, int iters)
{
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i)
        fn();
    auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(t1 - t0).count() /
           iters;
}

} // namespace

int
main()
{
    std::printf("=== Fig. 9 section 1: HOST-MEASURED step time "
                "(ms), eager vs compiled ===\n\n");
    printRow({"model", "eager(full)", "compiled(full)",
              "compiled(sparse)", "speedup", "sparse-x"},
             17);

    int iters = scaledSteps(10);
    {
        Rng rng(5);
        VisionConfig cfg;
        cfg.batch = 4;
        cfg.resolution = 16;
        cfg.width = 0.5;
        cfg.blocks = 5;
        auto store_e = std::make_shared<ParamStore>();
        auto store_c = std::make_shared<ParamStore>();
        auto store_s = std::make_shared<ParamStore>();
        Rng r1(9), r2(9), r3(9);
        ModelSpec me = buildMcuNet(cfg, r1, store_e.get());
        ModelSpec mc = buildMcuNet(cfg, r2, store_c.get());
        ModelSpec ms = buildMcuNet(cfg, r3, store_s.get());

        SyntheticVision task = SyntheticVision::pretrain(3, 16);
        Rng dr(3);
        Batch b = task.sample(cfg.batch, dr);

        EagerEngine eager(me.graph, me.loss, store_e,
                          OptimConfig::sgd(0.01));
        CompileOptions opt;
        opt.optim = OptimConfig::sgd(0.01);
        auto full = compileTraining(mc.graph, mc.loss,
                                    SparseUpdateScheme::full(), opt,
                                    store_c);
        auto sparse = compileTraining(ms.graph, ms.loss,
                                      cnnSparseScheme(ms, 3, 2), opt,
                                      store_s);

        double te = wallMs(
            [&] { eager.trainStep({{"x", b.x}, {"y", b.y}}); }, iters);
        double tc = wallMs(
            [&] { full.trainStep({{"x", b.x}, {"y", b.y}}); }, iters);
        double ts = wallMs(
            [&] { sparse.trainStep({{"x", b.x}, {"y", b.y}}); }, iters);
        printRow({"MCUNet-proxy", fmt(te), fmt(tc), fmt(ts),
                  fmt(te / tc, 2) + "x", fmt(tc / ts, 2) + "x"},
                 17);
    }

    std::printf("\n=== Fig. 9 section 2: DEVICE-PROJECTED training "
                "throughput (samples/sec) ===\n");
    auto models = projectionModels();
    std::vector<FrameworkProfile> frameworks = {
        FrameworkProfile::tensorflow(), FrameworkProfile::pytorch(),
        FrameworkProfile::jax(), FrameworkProfile::mnn()};

    CompileOptions opt;
    opt.optim = OptimConfig::sgd(0.01);
    CompileOptions eager_like;
    eager_like.fuse = false;
    eager_like.reorder = false;
    eager_like.winograd = false;
    eager_like.blocked = false;
    eager_like.optim = OptimConfig::sgd(0.01);

    for (const DeviceModel &dev : DeviceModel::all()) {
        std::printf("\n--- %s ---\n", dev.name.c_str());
        printRow({"model", "TF", "PyTorch", "Jax", "MNN", "PE(full)",
                  "PE(sparse)", "vs-TF", "sparse-x"},
                 11);
        for (const ModelEntry &m : models) {
            // MCU only fits MCUNet-class models.
            bool mcu = dev.name.rfind("STM32", 0) == 0;
            if (mcu && m.name != "MCUNet")
                continue;
            // Eager frameworks run the unfused natural-order graph
            // and re-derive backward every step (extra host ops).
            CompiledGraph eg = compileGraphOnly(
                m.spec.graph, m.spec.loss, SparseUpdateScheme::full(),
                eager_like);
            CompiledGraph pg = compileGraphOnly(m.spec.graph,
                                                m.spec.loss,
                                                SparseUpdateScheme::full(),
                                                opt);
            CompiledGraph sg = compileGraphOnly(m.spec.graph,
                                                m.spec.loss, m.sparse,
                                                opt);
            std::vector<std::string> cells = {m.name};
            double tf_baseline = 0;
            for (const FrameworkProfile &fw : frameworks) {
                double us = projectLatencyUs(
                    eg.graph, eg.artifact.order, dev, fw, {},
                    /*extra_ops=*/eg.report.backwardNodes);
                double tput = throughputPerSec(us, m.batch);
                if (fw.name == "TensorFlow")
                    tf_baseline = tput;
                cells.push_back(fmt(tput, 1));
            }
            FrameworkProfile pe = FrameworkProfile::pockEngine();
            double us_full =
                projectLatencyUs(pg.graph, pg.artifact.order, dev, pe,
                                 pg.artifact.variants);
            double us_sparse =
                projectLatencyUs(sg.graph, sg.artifact.order, dev, pe,
                                 sg.artifact.variants);
            double t_full = throughputPerSec(us_full, m.batch);
            double t_sparse = throughputPerSec(us_sparse, m.batch);
            cells.push_back(fmt(t_full, 1));
            cells.push_back(fmt(t_sparse, 1));
            cells.push_back(fmt(t_full / tf_baseline, 1) + "x");
            cells.push_back(fmt(t_sparse / t_full, 2) + "x");
            printRow(cells, 11);
        }
    }
    std::printf("\nShape to verify vs paper: PE(full) is ~2x the eager "
                "frameworks on GPU-class devices and ~10-20x "
                "TensorFlow on CPU-class devices; sparse adds a "
                "further 1.3-2.3x.\n");
    return 0;
}
