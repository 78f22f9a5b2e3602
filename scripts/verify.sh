#!/usr/bin/env bash
# Tier-1 verify: configure, build, run the test suite, and smoke-run
# the kernel bench's thread-scaling case (matmul GFLOP/s at 1/2/4
# threads), the decode-shape GEMM rows (the host's tier vs scalar
# rate) and the int8 conv rows (the int8 tile at the MCUNet shapes,
# scalar and tier). Mirrors ROADMAP.md's verify command.
#
# Usage: scripts/verify.sh [build-dir] [--scalar]
#   build-dir   configure/build/test in this directory (default:
#               build) — lets CI legs verify their own tree (e.g. a
#               TSan build dir) without clobbering the Release build.
#   --scalar    configure the build with -DPE_SIMD=OFF and run the
#               suite on the scalar kernel tier only (the SIMD-less
#               deployment target); may be combined with a build-dir.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=build
SCALAR=0
for arg in "$@"; do
    case "$arg" in
        --scalar) SCALAR=1 ;;
        -*) echo "unknown option: $arg" >&2
            echo "usage: scripts/verify.sh [build-dir] [--scalar]" >&2
            exit 2 ;;
        *) BUILD="$arg" ;;
    esac
done
if [ "$SCALAR" = 1 ] && [ "$BUILD" = build ]; then
    # Keep the default Release tree intact: scalar mode gets its own
    # directory unless the caller named one explicitly.
    BUILD=build-scalar
fi

CONFIG_ARGS=()
if [ "$SCALAR" = 1 ]; then
    CONFIG_ARGS+=(-DPE_SIMD=OFF)
fi

cmake -B "$BUILD" -S . "${CONFIG_ARGS[@]}"
cmake --build "$BUILD" -j "$(nproc)"
(cd "$BUILD" && ctest --output-on-failure -j "$(nproc)")

if [ -x "$BUILD"/bench_kernels ]; then
    ./"$BUILD"/bench_kernels \
        --benchmark_filter='BM_MatMulThreads|BM_DecodeMatMul|BM_QuantConv' \
        --benchmark_min_time=0.2
fi
