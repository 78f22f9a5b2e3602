/**
 * @file
 * Shared helpers for the per-table/figure benchmark binaries:
 * fixed-width table printing, the standard pretrain->transfer loop,
 * and accuracy evaluation.
 *
 * Set PE_BENCH_FAST=1 to shrink step counts (CI smoke mode).
 */

#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "engine/engine.h"
#include "frontend/models.h"

namespace pe::bench {

// ---- machine-readable output (--json <path>) -------------------------

/**
 * Flat JSON record collector: each row is one object of string /
 * integer / double fields; save() writes the array. This is the perf
 * trajectory format scripts/bench_json.sh snapshots — keep fields
 * append-only so old BENCH_*.json files stay comparable.
 */
class JsonRows
{
  public:
    void
    begin(const std::string &kind)
    {
        rows_.emplace_back("\"kind\":\"" + kind + "\"");
    }

    void
    field(const std::string &key, const std::string &value)
    {
        std::string escaped;
        for (char c : value) {
            if (c == '"' || c == '\\')
                escaped.push_back('\\');
            escaped.push_back(c);
        }
        rows_.back() += ",\"" + key + "\":\"" + escaped + "\"";
    }

    void
    field(const std::string &key, int64_t value)
    {
        rows_.back() += ",\"" + key + "\":" + std::to_string(value);
    }

    void
    field(const std::string &key, double value)
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.6g", value);
        rows_.back() += ",\"" + key + "\":" + buf;
    }

    /** Write the collected array; returns false on I/O failure. */
    bool
    save(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fprintf(f, "[\n");
        for (size_t i = 0; i < rows_.size(); ++i)
            std::fprintf(f, "  {%s}%s\n", rows_[i].c_str(),
                         i + 1 < rows_.size() ? "," : "");
        std::fprintf(f, "]\n");
        std::fclose(f);
        return true;
    }

    bool empty() const { return rows_.empty(); }

  private:
    std::vector<std::string> rows_;
};

/** Extract `--json <path>` from argv; empty string when absent. */
inline std::string
jsonPathFromArgs(int argc, char **argv)
{
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0)
            return argv[i + 1];
    }
    return "";
}

/** Median of a sample of per-round timings (0 when empty). The
 *  --json benches time interleaved rounds and report this, so one
 *  preempted round does not move a gated ratio. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
}

inline bool
fastMode()
{
    const char *v = std::getenv("PE_BENCH_FAST");
    return v && v[0] == '1';
}

inline int
scaledSteps(int steps)
{
    return fastMode() ? std::max(1, steps / 10) : steps;
}

/** Print a row of fixed-width cells. */
inline void
printRow(const std::vector<std::string> &cells, int width = 14)
{
    for (const auto &c : cells)
        std::printf("%-*s", width, c.c_str());
    std::printf("\n");
}

inline std::string
fmt(double v, int prec = 2)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
    return buf;
}

inline std::string
fmtBytes(int64_t bytes)
{
    char buf[64];
    if (bytes >= (1LL << 30)) {
        std::snprintf(buf, sizeof(buf), "%.1fGB",
                      static_cast<double>(bytes) / (1LL << 30));
    } else if (bytes >= (1LL << 20)) {
        std::snprintf(buf, sizeof(buf), "%.1fMB",
                      static_cast<double>(bytes) / (1LL << 20));
    } else {
        std::snprintf(buf, sizeof(buf), "%.1fKB",
                      static_cast<double>(bytes) / (1LL << 10));
    }
    return buf;
}

/** Classification accuracy of an inference program on fresh batches. */
template <typename Sampler>
double
evalAccuracy(InferenceProgram &infer, Sampler &&sample, int64_t batch,
             int eval_batches, Rng &rng)
{
    int64_t correct = 0, total = 0;
    for (int e = 0; e < eval_batches; ++e) {
        Batch b = sample(batch, rng);
        Tensor logits = infer.run({{"x", b.x}})[0];
        int64_t classes = logits.dim(1);
        for (int64_t i = 0; i < batch; ++i) {
            int64_t argmax = 0;
            for (int64_t c = 1; c < classes; ++c) {
                if (logits[i * classes + c] > logits[i * classes + argmax])
                    argmax = c;
            }
            total++;
            if (argmax == static_cast<int64_t>(b.y[i]))
                correct++;
        }
    }
    return static_cast<double>(correct) / static_cast<double>(total);
}

/** Fine-tune a compiled program on a sampler for n steps. */
template <typename Sampler>
double
finetune(TrainingProgram &prog, Sampler &&sample, int64_t batch,
         int steps, Rng &rng)
{
    double last = 0;
    for (int s = 0; s < steps; ++s) {
        Batch b = sample(batch, rng);
        last = prog.trainStep({{"x", b.x}, {"y", b.y}});
    }
    return last;
}

} // namespace pe::bench
