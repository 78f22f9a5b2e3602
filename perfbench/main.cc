/**
 * @file
 * perfbench: the repository's end-to-end benchmark program.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *
 * Workloads: mcunet_sparse_train, mcunet_int8_burst,
 * llama_decode_lockstep (see README.md for why each exists). The last
 * stdout line is one JSON object {correct, attempted, failed, metrics}:
 * the end-to-end metrics with --trace 0, the per-layer metrics with
 * --trace 1. The line before it stamps host facts and sample counts.
 * Exit status is 0 only when the run completed and printed a result.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <unistd.h>

#include "bench.h"
#include "hw/cpu_features.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif

namespace perfbench {
int runSelfTests();
}

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> "
                 "--seed <n> --seconds <s> --trace <0|1>\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + k).c_str());
        const char *v = argv[++i];
        char *endp = nullptr;
        if (k == "--workload") {
            a.workload = v;
            have_workload = true;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v, &endp, 10);
            if (*endp != '\0')
                usage("--seed must be a whole number");
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v, &endp);
            if (*endp != '\0' || !(a.seconds > 0) || a.seconds > 600)
                usage("--seconds must be in (0, 600]");
        } else if (k == "--trace") {
            if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
                usage("--trace must be 0 or 1");
            a.trace = v[0] == '1';
        } else {
            usage(("unknown argument " + k).c_str());
        }
    }
    if (!have_workload)
        usage("--workload is required");
    return a;
}

void
printResult(const Args &a, const Result &r)
{
    const pe::CpuFeatures &cf = pe::cpuFeatures();
    std::string host = "{\"nproc\": " +
                       std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
                       ", \"cpu_simd\": \"" +
                       (cf.avx2 ? "avx2" : cf.neon ? "neon" : "none") +
                       "\", \"bound_tier\": \"" + r.simdTier +
                       "\", \"build_type\": \"" PERFBENCH_BUILD_TYPE
                       "\", \"client_threads\": 1, \"serve_workers\": " +
                       std::to_string(r.serveWorkers) +
                       ", \"kernel_threads\": 1}";
    std::string detail = "{\"perfbench\": {\"workload\": \"" + a.workload +
                         "\", \"seed\": " + std::to_string(a.seed) +
                         ", \"trace\": " + (a.trace ? "1" : "0") +
                         ", \"host\": " + host;
    for (const auto &[k, v] : r.detail)
        detail += ", \"" + k + "\": " + v;
    detail += ", \"errors\": [";
    for (size_t i = 0; i < r.errors.size(); ++i) {
        std::string e;
        for (char c : r.errors[i])
            e += (c == '"' || c == '\\') ? '\'' : c;
        detail += (i ? ", \"" : "\"") + e + "\"";
    }
    std::printf("%s]}}\n", detail.c_str());

    const bool correct = r.errors.empty() && r.failed == 0;
    std::string out = std::string("{\"correct\": ") +
                      (correct ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(r.attempted) +
                      ", \"failed\": " + std::to_string(r.failed) +
                      ", \"metrics\": {";
    for (size_t i = 0; i < r.metrics.size(); ++i) {
        const Metric &m = r.metrics[i];
        out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
               Result::num(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    std::printf("%s}}\n", out.c_str());
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);
    if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
        std::fprintf(stderr,
                     "perfbench: refusing to measure a '%s' build; "
                     "configure with -DCMAKE_BUILD_TYPE=Release\n",
                     PERFBENCH_BUILD_TYPE);
        return 2;
    }
    if (runSelfTests() != 0) {
        std::fprintf(stderr, "perfbench: self-tests failed\n");
        return 3;
    }
    if (a.workload != "mcunet_sparse_train" &&
        a.workload != "mcunet_int8_burst" &&
        a.workload != "llama_decode_lockstep")
        usage(("unknown workload " + a.workload).c_str());
    Result r;
    Placer pl;
    try {
        if (a.workload == "mcunet_sparse_train")
            r = runTrain(a, pl);
        else if (a.workload == "mcunet_int8_burst")
            r = runInt8Burst(a, pl);
        else
            r = runDecode(a, pl);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s: %s\n", a.workload.c_str(),
                     e.what());
        return 1;
    }
    r.note("placer_moves", static_cast<double>(pl.moves()));
    r.note("placer_contended_share", pl.contendedShare());
    printResult(a, r);
    return 0;
}
