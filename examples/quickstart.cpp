/**
 * @file
 * Quickstart: define a model with the builder frontend, compile a
 * training program with a sparse update scheme, train, and deploy
 * the same weights through an inference program.
 *
 *   cmake --build build && ./build/examples/quickstart
 */

#include <cstdio>

#include "engine/engine.h"
#include "data/synthetic.h"
#include "frontend/builder.h"
#include "obs/profile.h"

using namespace pe;

int
main()
{
    // 1. Define a forward graph with the builder frontend (any DAG
    //    source works — see ir/serialize.h for the JSON interchange).
    Graph g;
    Rng rng(42);
    auto store = std::make_shared<ParamStore>();
    NetBuilder b(g, rng, store.get());

    int x = b.input({32, 16}, "x");
    int h = b.relu(b.linear(x, 64, "fc1"));
    h = b.relu(b.linear(h, 64, "fc2"));
    int logits = b.linear(h, 4, "head");
    int labels = b.input({32}, "y");
    int loss = b.crossEntropy(logits, labels);

    // 2. Choose what trains. Freeze fc1 entirely, train fc2's bias
    //    and the head — a sparse backpropagation scheme. At compile
    //    time the engine prunes fc1's backward subgraph away.
    SparseUpdateScheme scheme = SparseUpdateScheme::frozen();
    scheme.updateBiasPrefix("fc2.");
    scheme.updatePrefix("head.");
    scheme.updateBiasPrefix("head.");

    CompileOptions opt;
    opt.optim = OptimConfig::adam(0.01);
    auto prog = compileTraining(g, loss, scheme, opt, store);

    std::printf("compiled: %d fwd nodes, %d bwd nodes emitted, %d "
                "pruned, %d fusions, arena %lld KB (natural order "
                "would need %lld KB)\n",
                prog.report().forwardNodes, prog.report().backwardNodes,
                prog.report().prunedNodes, prog.report().fusions,
                static_cast<long long>(prog.report().arenaBytes / 1024),
                static_cast<long long>(
                    prog.report().arenaBytesNoReorder / 1024));
    // Silent misses: registry fallbacks, steps that miss this host's
    // SIMD tier although another variant of their op has a tier
    // form, and attention chains the fusion pass left unfused.
    const CompileReport &rep = prog.report();
    std::printf("kernels: %s; fallbacks: %s; tier misses: %s; attention "
                "unfused: %d\n",
                rep.tierBreakdown().c_str(),
                rep.kernelFallbacks ? rep.fallbackBreakdown().c_str()
                                    : "none",
                rep.tierMisses ? rep.tierMissBreakdown().c_str() : "none",
                rep.attentionUnfused);
    // Arm execution tracing (src/obs/) on the training program: every
    // trainStep records one span per kernel step, and the profile
    // summary printed after the loop attributes the time — including
    // any kernel fallbacks, which on a real device are deploy
    // blockers (a quantized op with no int8 kernel silently runs the
    // dequant->fp32->requant reference tier).
    prog.executor().armTrace();

    // 3. Train on a toy task: class = argmax of 4 feature groups.
    Rng data_rng(7);
    auto make_batch = [&] {
        Batch batch{Tensor({32, 16}), Tensor({32})};
        for (int i = 0; i < 32; ++i) {
            int cls = static_cast<int>(data_rng.randint(4));
            for (int j = 0; j < 16; ++j) {
                batch.x[i * 16 + j] = data_rng.normal() +
                                      (j / 4 == cls ? 1.5f : 0.0f);
            }
            batch.y[i] = static_cast<float>(cls);
        }
        return batch;
    };

    for (int step = 0; step < 200; ++step) {
        Batch batch = make_batch();
        float l = prog.trainStep({{"x", batch.x}, {"y", batch.y}});
        if (step % 40 == 0)
            std::printf("step %3d  loss %.4f\n", step, l);
    }
    std::printf("--- training profile ---\n%s",
                profileTrace(prog.executor(), *prog.executor().trace())
                    .summary()
                    .c_str());

    // 4. Deploy: an inference program over the same ParamStore, with
    //    tracing armed so the eval run prints where its time went.
    auto infer = compileInference(g, {logits}, opt, store);
    infer.executor().armTrace();
    Batch batch = make_batch();
    Tensor out = infer.run({{"x", batch.x}})[0];
    int correct = 0;
    for (int i = 0; i < 32; ++i) {
        int argmax = 0;
        for (int c = 1; c < 4; ++c) {
            if (out[i * 4 + c] > out[i * 4 + argmax])
                argmax = c;
        }
        correct += argmax == static_cast<int>(batch.y[i]);
    }
    std::printf("eval accuracy: %d/32\n", correct);
    std::printf("--- inference profile ---\n%s",
                profileTrace(infer.executor(),
                             *infer.executor().trace())
                    .summary()
                    .c_str());
    return 0;
}
