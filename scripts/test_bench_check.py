#!/usr/bin/env python3
"""Tests for scripts/bench_check.py: every committed BENCH_*.json passes
against itself, and a doctored copy per failure mode fails.

Run: python3 scripts/test_bench_check.py   (ctest: bench_check)
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHECKER = ROOT / "scripts" / "bench_check.py"


def load(kind):
    with open(ROOT / f"BENCH_{kind}.json") as fp:
        return json.load(fp)


# ---- doctoring helpers: each takes a snapshot and edits it in place --
# A helper that matches no row raises, so a baseline refresh or a
# renamed row cannot quietly turn a case into a no-op.

def kernel_entries(doc, run_name):
    """Every entry (iteration row or aggregate) of one benchmark."""
    rows = [r for r in doc["benchmarks"]
            if r.get("run_name", r["name"]) == run_name]
    if not rows:
        raise AssertionError(f"no {run_name} row in the snapshot")
    return rows


def scale_row(r, factor):
    """Multiply one kernel row's throughput by factor."""
    if "items_per_second" in r:
        r["items_per_second"] *= factor
    r["real_time"] /= factor
    r["cpu_time"] /= factor


def scale_kernel(run_name, factor):
    def edit(doc):
        for r in kernel_entries(doc, run_name):
            scale_row(r, factor)
    return edit


def tier_ratio(tier_name, base_name, ratio):
    """Speed up the scalar row until the tier row is only ratio times
    as fast: a floor breaks, no gate does."""
    def edit(doc):
        tier = kernel_entries(doc, tier_name)[0]["items_per_second"]
        for r in kernel_entries(doc, base_name):
            scale_row(r, tier / ratio / r["items_per_second"])
    return edit


def as_aggregates(mean, median):
    """A --benchmark_repetitions snapshot: each row becomes its mean and
    median aggregates, with throughput scaled by the given factors."""
    def edit(doc):
        out = []
        for r in doc["benchmarks"]:
            for agg, factor in (("mean", mean), ("median", median)):
                a = copy.deepcopy(r)
                a.update(name=f"{r['name']}_{agg}", run_type="aggregate",
                         run_name=r.get("run_name", r["name"]),
                         aggregate_name=agg)
                scale_row(a, factor)
                out.append(a)
        doc["benchmarks"] = out
    return edit


def drop_kernels(pred):
    def edit(doc):
        kept = [r for r in doc["benchmarks"]
                if not pred(r.get("run_name", r["name"]))]
        if len(kept) == len(doc["benchmarks"]):
            raise AssertionError("no kernel row matched the drop")
        doc["benchmarks"] = kept
    return edit


def drop_context(*keys):
    def edit(doc):
        for k in keys:
            del doc["context"][k]
    return edit


def set_context(key, val):
    def edit(doc):
        doc["context"][key] = val
    return edit


def add_neon_row(doc):
    """A baseline row measured on a NEON host."""
    for r in kernel_entries(doc, "BM_MatMul/blocked@avx2/64"):
        n = copy.deepcopy(r)
        for k in ("name", "run_name"):
            n[k] = n[k].replace("@avx2", "@neon")
        doc["benchmarks"].append(n)


def row_where(key, val):
    """Index of the first flat row whose key column equals val."""
    def find(doc):
        for i, r in enumerate(doc):
            if r.get(key) == val:
                return i
        raise AssertionError(f"no row with {key}={val!r}")
    return find


def edit_row(find, col, fn):
    """Apply fn to one column of one flat row (fn returning None
    deletes the column)."""
    def edit(doc):
        row = doc[find(doc)]
        new = fn(row[col])
        if new is None:
            del row[col]
        else:
            row[col] = new
    return edit


def chain(*edits):
    def edit(doc):
        for e in edits:
            e(doc)
    return edit


def drop_row(find):
    def edit(doc):
        del doc[find(doc)]
    return edit


FIRST = lambda doc: 0  # noqa: E731
FUSED = row_where("scenario", "llama_proxy_fused")
BURST = row_where("scenario", "burst_singles")
GONE = lambda _: None  # noqa: E731

# (case, snapshot kind, edit of the FRESH copy, expected rc). The three
# "bypass" cases passed the gate before it became one rule table.
CASES = [
    ("kernels self", "kernels", None, 0),
    ("kernels debug stamp", "kernels",
     set_context("pe_build_type", "debug"), 1),
    ("kernels missing build stamp", "kernels",
     drop_context("pe_build_type"), 1),
    ("kernels missing tier stamp", "kernels",
     drop_context("pe_simd_tier"), 1),
    ("bypass: kernels without stamps or @avx2 rows", "kernels",
     chain(drop_context("pe_build_type", "pe_simd_tier"),
           drop_kernels(lambda n: "@avx2" in n)), 1),
    ("kernels vanished row", "kernels",
     drop_kernels(lambda n: n == "BM_MatMul/naive/64"), 1),
    ("kernels vanished host-tier row", "kernels",
     drop_kernels(lambda n: n == "BM_MatMul/blocked@avx2/64"), 1),
    ("kernels 30% drop (items/s)", "kernels",
     scale_kernel("BM_MatMul/blocked/128", 0.7), 1),
    ("kernels 30% drop (real_time)", "kernels",
     scale_kernel("BM_ConvVariant/im2col/32", 0.7), 1),
    ("kernels 30% drop on a multi-thread row is reported only",
     "kernels", scale_kernel("BM_MatMulThreads/256/4/real_time", 0.7),
     0),
    ("kernels broken fused/unfused pairing", "kernels",
     scale_kernel("BM_UnfusedAttention/16", 10.0), 1),
    ("kernels unfused counterpart vanished", "kernels",
     drop_kernels(lambda n: n.startswith("BM_UnfusedAttention")), 1),
    # A faster direct / ref row breaks only the floor, not a gate.
    ("kernels depthwise tier row under 2x its direct row", "kernels",
     scale_kernel("BM_DwConvBiasRelu/direct", 5.0), 1),
    ("kernels int8 depthwise tier row under 2x its ref row", "kernels",
     scale_kernel("BM_QuantDwConv/ref/mcunet", 5.0), 1),
    ("kernels depthwise direct counterpart vanished", "kernels",
     drop_kernels(lambda n: n == "BM_DwConvBwdInput/direct"), 1),
    # The ratios an 8-row x 8-col AVX2 tile reads: under the GEMM floor.
    ("kernels decode GEMM tier row at 3.3x its scalar row", "kernels",
     tier_ratio("BM_DecodeMatMul/blocked@avx2", "BM_DecodeMatMul/blocked",
                3.3), 1),
    ("kernels 128 GEMM tier row at 3.8x its scalar row", "kernels",
     tier_ratio("BM_MatMul/blocked@avx2/128", "BM_MatMul/blocked/128",
                3.8), 1),
    # An int8 conv tier row only 1.5x its scalar row: under the floor.
    ("kernels MCUNet int8 conv tier row at 1.5x its scalar row",
     "kernels",
     tier_ratio("BM_QuantConv/int8@avx2/mcunet_60x20",
                "BM_QuantConv/int8/mcunet_60x20", 1.5), 1),
    ("kernels int8 conv scalar counterpart vanished", "kernels",
     drop_kernels(lambda n: n == "BM_QuantConv/int8/mcunet_stem"), 1),
    ("kernels repetitions: the median aggregate is read", "kernels",
     as_aggregates(mean=0.5, median=1.0), 0),
    ("kernels repetitions: 30% drop in the median", "kernels",
     as_aggregates(mean=1.0, median=0.7), 1),

    ("table4 self", "table4", None, 0),
    ("table4 peak growth 6%", "table4",
     edit_row(FIRST, "peak_live_bytes", lambda v: int(v * 1.06)), 1),
    ("table4 peak growth 4% is within tolerance", "table4",
     edit_row(FIRST, "peak_live_bytes", lambda v: int(v * 1.04)), 0),
    ("table4 gated field vanished", "table4",
     edit_row(FIRST, "total_bytes", GONE), 1),
    ("table4 reported field vanished", "table4",
     edit_row(FIRST, "arena_bytes", GONE), 0),
    ("table4 vanished row", "table4", drop_row(FIRST), 1),

    ("serve self", "serve", None, 0),
    ("serve debug stamp", "serve",
     edit_row(FIRST, "build_type", lambda _: "debug"), 1),
    ("serve missing stamp", "serve",
     edit_row(FIRST, "build_type", GONE), 1),
    ("serve parity=0", "serve", edit_row(FIRST, "parity", lambda _: 0),
     1),
    ("serve burst_singles run reduction 1.5", "serve",
     edit_row(BURST, "run_reduction", lambda _: 1.5), 1),
    ("serve coalesced/solo ratio up 30%", "serve",
     edit_row(FIRST, "amortized_run_us_coalesced", lambda v: v * 1.3),
     1),
    ("serve vanished scenario", "serve", drop_row(FIRST), 1),
    ("bypass: serve without amortized_run_us_solo", "serve",
     edit_row(FIRST, "amortized_run_us_solo", GONE), 1),

    ("decode self", "decode", None, 0),
    ("decode debug stamp", "decode",
     edit_row(FIRST, "build_type", lambda _: "debug"), 1),
    ("decode missing stamp", "decode",
     edit_row(FIRST, "build_type", GONE), 1),
    ("decode parity=0", "decode", edit_row(FIRST, "parity", lambda _: 0),
     1),
    ("decode run reduction 1.5", "decode",
     edit_row(FIRST, "run_reduction", lambda _: 1.5), 1),
    ("decode no cache bytes", "decode",
     edit_row(FIRST, "cache_bytes_per_session", lambda _: 0), 1),
    ("decode shared/solo ratio up 30%", "decode",
     edit_row(FIRST, "decode_us_per_token_shared", lambda v: v * 1.3),
     1),
    ("decode vanished scenario", "decode", drop_row(FIRST), 1),
    ("bypass: decode without decode_us_per_token_shared", "decode",
     edit_row(FIRST, "decode_us_per_token_shared", GONE), 1),
    ("decode fused parity vs unfused broken", "decode",
     edit_row(FUSED, "parity_vs_unfused_1e5", lambda _: 0), 1),
    ("decode fused attention speedup 1.4", "decode",
     edit_row(FUSED, "attn_fused_speedup", lambda _: 1.4), 1),
    ("decode fused peak-live not below unfused", "decode",
     edit_row(FUSED, "peak_live_fused_bytes", lambda _: 1 << 40), 1),
    ("decode fused_attention stamp vanished", "decode",
     edit_row(FUSED, "fused_attention", GONE), 1),
    ("decode cache bytes copied per token up 30%", "decode",
     edit_row(FIRST, "cache_bytes_copied_per_token", lambda v: v * 1.3),
     1),
    ("decode fused cost grows with maxSeq", "decode",
     edit_row(FUSED, "decode_wall_us_per_token_maxseq1024",
              lambda v: v * 3.0), 1),
    ("decode fused maxSeq sweep column vanished", "decode",
     edit_row(FUSED, "decode_wall_us_per_token_maxseq64", GONE), 1),
    # Pad rows that scan every cache column read about 5x.
    ("decode fused padded cost grows with maxSeq", "decode",
     edit_row(FUSED, "decode_wall_us_per_token_padded_maxseq1024",
              lambda v: v * 3.0), 1),
    ("decode fused padded sweep column vanished", "decode",
     edit_row(FUSED, "decode_wall_us_per_token_padded_maxseq64", GONE),
     1),
]


class BenchCheckTest(unittest.TestCase):
    def run_check(self, base, fresh):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, doc in (("base", base), ("fresh", fresh)):
                paths.append(os.path.join(tmp, name + ".json"))
                with open(paths[-1], "w") as fp:
                    json.dump(doc, fp)
            proc = subprocess.run([sys.executable, str(CHECKER), *paths],
                                  capture_output=True, text=True)
        return proc.returncode, proc.stdout + proc.stderr

    def test_cases(self):
        for case, kind, edit, want in CASES:
            with self.subTest(case):
                base = load(kind)
                fresh = copy.deepcopy(base)
                if edit:
                    edit(fresh)
                rc, out = self.run_check(base, fresh)
                self.assertEqual(rc, want, out)

    def test_vanished_neon_row_on_avx2_host(self):
        fresh = load("kernels")
        fresh["context"]["pe_simd_tier"] = "avx2"
        base = copy.deepcopy(fresh)
        add_neon_row(base)
        rc, out = self.run_check(base, fresh)
        self.assertEqual(rc, 0, out)
        self.assertIn("@neon", out)


if __name__ == "__main__":
    unittest.main()
