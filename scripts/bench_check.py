#!/usr/bin/env python3
"""Benchmark regression gate: compare a fresh bench JSON snapshot
against the committed baseline.

One rule table (RULES) covers the four snapshot kinds, auto-detected:
kernels (google-benchmark BENCH_kernels.json), table4
(BENCH_table4.json), serve (BENCH_serve.json) and decode
(BENCH_decode.json). Each rule says how rows are keyed, which stamps
and hard floors every fresh row must meet, which metrics are gated
against the baseline (a column or a ratio of two columns, with a
direction and a tolerance) and which are only reported. One loop
applies them all:

* Stamps: a fresh snapshot must say it came from a Release build
  (kernels also stamp the host SIMD tier). A missing stamp fails.
* Floors: machine-independent bars on the fresh rows themselves
  (bit parity, the 2.0x run reduction, a live KV cache, the three
  fused-attention floors, decode cost flat across maxSeq with and
  without pad rows, fused vs unfused attention kernels, depthwise
  tier vs direct / reference kernels, and GEMM and int8 conv tier vs
  scalar kernels, paired within one snapshot).
  A column a floor reads that is missing fails.
* Gates: a gated metric may not regress beyond its tolerance (25% for
  throughput and self-normalized latency ratios, 5% for table4 peak
  memory). A metric gates once the baseline row has it; from then on,
  a fresh row without it fails.
* Vanish rule: a baseline row missing from the fresh snapshot fails,
  unless it is a SIMD-tier row ("@avx2"/"@neon") and the fresh
  snapshot's pe_simd_tier stamp says the host lacks that tier.

Kernel rows are read from the google-benchmark "median" aggregate when
the snapshot has one (a run with --benchmark_repetitions), else from
the iteration row. Thread-scaling rows (*Threads* families at
more than one thread) are reported, never gated.

Usage: bench_check.py BASELINE FRESH
Exit status 1 iff a stamp, floor, gate or vanish rule failed.
"""

import json
import sys
from collections import namedtuple

RATIO_TOL = 0.25   # throughput and latency-ratio gates vs the baseline
MEMORY_TOL = 0.05  # table4 peak-memory growth
# Bucket runs per request saved by coalescing or lockstep decode: run
# counts are policy, not timing, so the floor is host-independent.
MIN_RUN_REDUCTION = 2.0
# A fused-attention tier kernel must beat the unfused chain (the naive
# "" GEMM reference) by this factor; the scalar fused kernel must never
# lose to it. Both pairings are within one snapshot, so host speed
# cancels. The decode scenario's attention stage has the same bar.
MIN_FUSED_ATTN_SPEEDUP = 1.5
MIN_FUSED_ATTN_SCALAR_SPEEDUP = 1.0
# Decode wall-clock per token at maxSeq 1024 over maxSeq 64, same
# traffic, same snapshot: decode work follows the tokens a stream has
# written, not the cache extent. It binds both sweeps: 4 streams in
# full bucket-4 runs, and 1 stream whose runs carry 3 pad rows.
MAX_DECODE_MAXSEQ_RATIO = 1.5
# A depthwise tier row ("packed@<tier>", "int8@<tier>") must beat its
# direct-loop / dequant-reference row at the same shape by this factor,
# paired within one snapshot like the attention floors.
MIN_DW_TIER_SPEEDUP = 2.0
# The decode-shape and 128-square fp32 GEMM tier rows must beat the
# scalar "blocked" row at the same shape by this factor, paired within
# one snapshot: a register tile that stops reusing its loads shows
# here on any host.
MIN_GEMM_TIER_SPEEDUP = 4.5
GEMM_TIER_ROWS = ("BM_DecodeMatMul/blocked@{}", "BM_MatMul/blocked@{}/128")
# Every int8 conv tier row ("BM_QuantConv/int8@<tier>/...", the MCUNet
# shapes included) must beat the scalar "int8" row at the same shape by
# this factor, paired within one snapshot: an int8 tile that stops
# vectorizing its channels shows here on any host.
MIN_QCONV_TIER_SPEEDUP = 2.0

# label: printed name; value: row -> number (KeyError if a column is
# missing); better: "higher"/"lower", or None for a reported-only
# metric; applies: row key -> whether the metric gates that row.
Metric = namedtuple("Metric", "label value better tol applies",
                    defaults=(None, 0.0, lambda key: True))
Rule = namedtuple("Rule", "rows stamped stamps floors metrics")


def col(name):
    return lambda row: float(row[name])


def per(num, den):
    return lambda row: float(row[num]) / float(row[den])


def throughput(row):
    """Ops-per-second-shaped rate for a gbench row (bigger = better)."""
    if "items_per_second" in row:
        return float(row["items_per_second"])
    scale = {"ns": 1e9, "us": 1e6, "ms": 1e3, "s": 1.0}
    return scale[row.get("time_unit", "ns")] / float(row["real_time"])


def single_thread(key):
    """BM_MatMulThreads/256/4/real_time runs 4 threads; rows outside a
    *Threads* family run one."""
    parts = key.split("/")
    nums = [p for p in parts[1:] if p.isdigit()]
    return "Threads" not in parts[0] or not nums or nums[-1] == "1"


def row_tier(key):
    """SIMD tier a row depends on ("BM_MatMul/blocked@avx2/128" ->
    "avx2"); None for tier-independent rows."""
    return next((t for t in ("avx2", "neon") if "@" + t in key), None)


def kernel_rows(doc):
    """run_name -> the median aggregate, else the iteration row."""
    rows = {}
    for r in doc["benchmarks"]:
        if r.get("run_type", "iteration") == "iteration":
            rows.setdefault(r.get("run_name", r["name"]), r)
        elif r.get("aggregate_name") == "median":
            rows[r["run_name"]] = r
    return rows


def attention_pairing(row, key, rows):
    """Every fused-attention kernel row beats the unfused chain at the
    same shape arg in the same snapshot (KeyError if it vanished)."""
    if not key.startswith("BM_FusedAttention"):
        return True
    other = rows["BM_UnfusedAttention/" + key.split("/")[-1]]
    floor = (MIN_FUSED_ATTN_SPEEDUP if row_tier(key)
             else MIN_FUSED_ATTN_SCALAR_SPEEDUP)
    return throughput(row) / throughput(other) >= floor


def depthwise_pairing(row, key, rows):
    """Every depthwise tier row beats its "direct" (fp32) or "ref"
    (int8) row in the same snapshot (KeyError if that vanished)."""
    tier = row_tier(key)
    if not tier or not key.startswith(("BM_DwConv", "BM_QuantDwConv")):
        return True
    base = key.replace("packed@" + tier, "direct").replace(
        "int8@" + tier, "ref")
    return throughput(row) / throughput(rows[base]) >= MIN_DW_TIER_SPEEDUP


def gemm_pairing(row, key, rows):
    """The GEMM_TIER_ROWS beat their scalar "blocked" row in the same
    snapshot (KeyError if that vanished)."""
    tier = row_tier(key)
    if not tier or key not in [r.format(tier) for r in GEMM_TIER_ROWS]:
        return True
    base = rows[key.replace("@" + tier, "")]
    return throughput(row) / throughput(base) >= MIN_GEMM_TIER_SPEEDUP


def qconv_pairing(row, key, rows):
    """Every int8 conv tier row beats its scalar "int8" row in the same
    snapshot (KeyError if that vanished)."""
    tier = row_tier(key)
    if not tier or not key.startswith("BM_QuantConv/int8@" + tier):
        return True
    base = rows[key.replace("int8@" + tier, "int8")]
    return throughput(row) / throughput(base) >= MIN_QCONV_TIER_SPEEDUP


def table4_key(row):
    return "/".join(str(row[k]) for k in ("kind", "platform", "model",
                                          "method", "mode", "precision")
                    if k in row)


def scenario_rows(doc):
    return {r["scenario"]: r for r in doc}


def fused(test):
    """A floor that binds only rows stamped fused_attention=1."""
    return lambda r, *_: r.get("fused_attention") != 1 or test(r)


RELEASE_ROWS = {"build_type": "release"}
RUN_SHARING = [Metric("run_reduction", col("run_reduction"), "higher",
                      RATIO_TOL),
               Metric("coalesce_rate", col("coalesce_rate"), "higher",
                      RATIO_TOL)]

RULES = {
    "kernels": Rule(
        rows=kernel_rows,
        stamped=lambda doc: [doc.get("context", {})],
        stamps={"pe_build_type": "release", "pe_simd_tier": None},
        floors=[("fused attention beats the unfused chain "
                 f"({MIN_FUSED_ATTN_SPEEDUP}x tier, "
                 f"{MIN_FUSED_ATTN_SCALAR_SPEEDUP}x scalar)",
                 attention_pairing),
                (f"depthwise tier row >= {MIN_DW_TIER_SPEEDUP}x its "
                 "direct / ref row", depthwise_pairing),
                (f"GEMM tier row >= {MIN_GEMM_TIER_SPEEDUP}x its scalar "
                 "blocked row", gemm_pairing),
                (f"int8 conv tier row >= {MIN_QCONV_TIER_SPEEDUP}x its "
                 "scalar int8 row", qconv_pairing)],
        metrics=[Metric("ops/s", throughput, "higher", RATIO_TOL,
                        single_thread)]),
    "table4": Rule(
        rows=lambda doc: {table4_key(r): r for r in doc},
        stamped=lambda doc: [],
        stamps={},
        floors=[],
        metrics=[Metric(f, col(f), "lower", MEMORY_TOL)
                 for f in ("total_bytes", "peak_live_bytes",
                           "act_weight_bytes")]
        + [Metric(f, col(f)) for f in ("arena_bytes", "workspace_bytes",
                                       "plan_file_bytes")]),
    "serve": Rule(
        rows=scenario_rows,
        stamped=lambda doc: doc,
        stamps=RELEASE_ROWS,
        floors=[("parity == 1", lambda r, *_: r["parity"] == 1),
                (f"burst_singles run_reduction >= {MIN_RUN_REDUCTION}",
                 lambda r, key, _: key != "burst_singles"
                 or r["run_reduction"] >= MIN_RUN_REDUCTION)],
        metrics=RUN_SHARING
        + [Metric("amortized us/req coalesced/solo",
                  per("amortized_run_us_coalesced",
                      "amortized_run_us_solo"), "lower", RATIO_TOL)]),
    "decode": Rule(
        rows=scenario_rows,
        stamped=lambda doc: doc,
        stamps=RELEASE_ROWS,
        floors=[("parity == 1", lambda r, *_: r["parity"] == 1),
                (f"run_reduction >= {MIN_RUN_REDUCTION}",
                 lambda r, *_: r["run_reduction"] >= MIN_RUN_REDUCTION),
                ("cache_bytes_per_session > 0",
                 lambda r, *_: r["cache_bytes_per_session"] > 0),
                ("fused: parity_vs_unfused_1e5 == 1",
                 fused(lambda r: r["parity_vs_unfused_1e5"] == 1)),
                (f"fused: attn_fused_speedup >= {MIN_FUSED_ATTN_SPEEDUP}",
                 fused(lambda r: r["attn_fused_speedup"]
                       >= MIN_FUSED_ATTN_SPEEDUP)),
                ("fused: 0 < peak_live_fused_bytes < "
                 "peak_live_unfused_bytes",
                 fused(lambda r: 0 < r["peak_live_fused_bytes"]
                       < r["peak_live_unfused_bytes"])),
                ("fused: decode us/token at maxSeq 1024 <= "
                 f"{MAX_DECODE_MAXSEQ_RATIO}x maxSeq 64",
                 fused(lambda r: r["decode_wall_us_per_token_maxseq1024"]
                       <= MAX_DECODE_MAXSEQ_RATIO
                       * r["decode_wall_us_per_token_maxseq64"])),
                ("fused: padded decode us/token at maxSeq 1024 <= "
                 f"{MAX_DECODE_MAXSEQ_RATIO}x maxSeq 64",
                 fused(lambda r:
                       r["decode_wall_us_per_token_padded_maxseq1024"]
                       <= MAX_DECODE_MAXSEQ_RATIO
                       * r["decode_wall_us_per_token_padded_maxseq64"]))],
        # fused_attention gates as a column, so a row that stops
        # running the fused scenario cannot drop its floors unnoticed.
        metrics=RUN_SHARING
        + [Metric("decode us/token shared/solo",
                  per("decode_us_per_token_shared",
                      "decode_us_per_token_solo"), "lower", RATIO_TOL),
           Metric("cache_bytes_copied_per_token",
                  col("cache_bytes_copied_per_token"), "lower", RATIO_TOL),
           Metric("fused_attention", col("fused_attention"), "higher",
                  RATIO_TOL)]),
}


def kind_of(doc):
    if isinstance(doc, dict):
        return "kernels"
    kind = str(doc[0].get("kind", "")) if doc else ""
    return next((k for k in ("serve", "decode") if kind.startswith(k)),
                "table4")


def value(metric, row):
    try:
        return metric.value(row)
    except (KeyError, ZeroDivisionError):
        return None


def check(rule, base, fresh):
    """Print every finding; return the number of failures."""
    failures = 0

    def fail(msg):
        nonlocal failures
        failures += 1
        print(f"  [FAIL] {msg}")

    stamped = rule.stamped(fresh)
    for rec in stamped:
        for name, want in rule.stamps.items():
            got = rec.get(name)
            if got is None or (want is not None and got != want):
                fail(f"stamp {name}={got!r}, need {want or 'a value'}"
                     " (snapshot a Release build via "
                     "scripts/bench_json.sh)")

    b, f = rule.rows(base), rule.rows(fresh)
    for key in sorted(f):
        for label, test in rule.floors:
            try:
                ok = test(f[key], key, f)
            except KeyError as e:
                ok, label = False, f"{label}: {e} missing"
            if not ok:
                fail(f"{key}: floor {label}")

    host_tier = stamped[0].get("pe_simd_tier") if stamped else None
    for key in sorted(set(b) - set(f)):
        tier = row_tier(key)
        if tier and host_tier and tier != host_tier:
            print(f"  [info] {key}: {tier} row skipped, host tier is "
                  f"{host_tier}")
        else:
            fail(f"{key}: baseline row missing from the fresh snapshot")
    for key in sorted(set(f) - set(b)):
        print(f"  [info] {key}: new row (no baseline yet)")

    for key in sorted(set(b) & set(f)):
        for m in rule.metrics:
            old, new = value(m, b[key]), value(m, f[key])
            if old is None or old == new:
                continue  # a metric gates once the baseline has it
            gated = m.better is not None and m.applies(key)
            if new is None:
                if gated:
                    fail(f"{key} {m.label}: not in the fresh row")
                else:
                    print(f"  [info] {key} {m.label}: {old:.4g} -> "
                          f"(missing)")
                continue
            line = (f"{key} {m.label}: {old:.4g} -> {new:.4g} "
                    f"({new / old if old else float('inf'):.2f}x)")
            worse = (new < old * (1 - m.tol) if m.better == "higher"
                     else new > old * (1 + m.tol))
            if gated and old > 0 and worse:
                fail(line)
            else:
                print(f"  {line}  {'ok' if gated else 'info'}")
    return failures


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(sys.argv[1]) as fp:
        base = json.load(fp)
    with open(sys.argv[2]) as fp:
        fresh = json.load(fp)
    kind = kind_of(base)
    print(f"{kind} gate: {sys.argv[1]} vs {sys.argv[2]}")
    failures = check(RULES[kind], base, fresh)
    print(f"{failures} gate failure(s): fix the regression, or refresh "
          f"the committed baseline with scripts/bench_json.sh as the "
          f"explicit sign-off" if failures else "every gate holds")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
