#!/usr/bin/env bash
# Machine-readable benchmark snapshot: runs the memory bench, the
# kernel microbench, and the serving coalescing + decode scenarios
# with --json and drops BENCH_table4.json / BENCH_kernels.json /
# BENCH_serve.json / BENCH_decode.json at the repo root — the
# perf-trajectory files a re-anchor (or CI trend job) diffs against
# previous PRs.
#
# Usage: scripts/bench_json.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
if [ ! -d "$BUILD" ]; then
    echo "build dir '$BUILD' missing; run: cmake -B $BUILD -S . && cmake --build $BUILD -j" >&2
    exit 1
fi

# Refuse to snapshot anything but a plain Release build: a debug or
# sanitizer baseline poisons the perf gate (every later Release run
# "passes" trivially, and real regressions hide behind the slack).
CACHE="$BUILD/CMakeCache.txt"
if [ ! -f "$CACHE" ]; then
    echo "no CMakeCache.txt in '$BUILD'; not a configured build dir" >&2
    exit 1
fi
BT="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$CACHE")"
if [ "$BT" != "Release" ]; then
    echo "refusing to benchmark: CMAKE_BUILD_TYPE is '${BT:-<unset>}', need Release" >&2
    echo "reconfigure with: cmake -B $BUILD -S . -DCMAKE_BUILD_TYPE=Release" >&2
    exit 1
fi
for SAN in PE_SANITIZE PE_TSAN; do
    if sed -n "s/^$SAN:[^=]*=//p" "$CACHE" | grep -qi '^on$'; then
        echo "refusing to benchmark: $SAN=ON in '$BUILD' (sanitizer builds are not perf baselines)" >&2
        exit 1
    fi
done

"$BUILD"/bench_table4_memory --json BENCH_table4.json > /dev/null
echo "wrote BENCH_table4.json"

# Continuous-batching rows: run reduction / coalesce rate are policy
# counts (deterministic), amortized latency is the median of
# interleaved rounds, gated as a coalesced/solo ratio so host speed
# cancels.
"$BUILD"/serve_bench --json BENCH_serve.json > /dev/null
echo "wrote BENCH_serve.json"

# Incremental-decode rows: decode-parity, run-sharing and the KV bytes
# copied per token are deterministic counts; the us/token columns are
# medians of interleaved rounds, gated only as ratios within one
# snapshot (shared/solo, and maxSeq 1024 vs 64) so host speed cancels.
"$BUILD"/decode_bench --json BENCH_decode.json > /dev/null
echo "wrote BENCH_decode.json"

if [ -x "$BUILD"/bench_kernels ]; then
    # Pinned to one CPU (the last this process may use) for 0.5 s per
    # row, the way the committed baseline was measured: on a shared
    # host, unpinned short runs drift past the 25% row gate more often.
    # Thread-scaling rows then share that one CPU; bench_check.py
    # reports them and never gates them.
    CPU="$(python3 -c 'import os; print(max(os.sched_getaffinity(0)))')"
    taskset -c "$CPU" "$BUILD"/bench_kernels --json BENCH_kernels.json \
        --benchmark_min_time=0.5 > /dev/null
    echo "wrote BENCH_kernels.json"
else
    echo "bench_kernels not built (google-benchmark missing); skipped" >&2
fi
