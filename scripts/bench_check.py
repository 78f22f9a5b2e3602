#!/usr/bin/env python3
"""Benchmark regression gate: compare a fresh bench JSON snapshot
against the committed baseline.

Three file shapes are understood, auto-detected:

* google-benchmark JSON (BENCH_kernels.json): the GATE. Single-thread
  rows must hold >= (1 - tolerance) of the baseline's throughput
  (items_per_second, falling back to 1/real_time). Thread-scaling rows
  (families named *Threads* at thread counts > 1) are reported but
  never gate — CI runners expose too few cores for those numbers to
  mean anything (the ROADMAP's multicore-host run is where they count).
  A fresh snapshot stamped pe_build_type=debug fails outright, and a
  baseline row missing from the fresh run fails unless it is a
  SIMD-tier row ("@avx2"/"@neon" in the name) and the fresh snapshot's
  pe_simd_tier context says the host lacks that tier.

* table4 memory JSON (BENCH_table4.json): GATED on peak memory. Byte
  counts are deterministic, so any drift is a real planner change.
  Drift is always printed, but only REGRESSIONS fail: a row whose
  total_bytes / peak_live_bytes / act_weight_bytes grew more than
  --table4-tolerance (default 5%) over the committed baseline exits 1
  — the author must either fix the regression or refresh the
  committed BENCH_table4.json in the same PR (the refresh IS the
  explicit sign-off). Improvements and other field drift (arena
  layout, workspace split, plan-file sizes) stay informational.

* serve coalescing JSON (BENCH_serve.json, rows with kind
  "serve_coalesce"): GATED. Hard machine-independent floors on every
  fresh row — build_type must be release, parity must be 1 (coalesced
  outputs bit-identical to per-request serving), and the
  burst_singles scenario must keep run_reduction >= 2.0 (the
  continuous-batching acceptance bar: a burst of singles in at most
  half the bucket runs). Against the committed baseline, coalesce
  rate and run reduction must hold >= (1 - tolerance) of baseline,
  and the amortized-latency win — coalesced/solo us-per-request,
  self-normalized so host speed cancels like a throughput ratio —
  must not shrink beyond the same tolerance. Vanished baseline rows
  fail, same as the other gates.

* decode serving JSON (BENCH_decode.json, rows with kind
  "decode_stream"): GATED. Hard machine-independent floors on every
  fresh row — build_type must be release, parity must be 1 (N
  concurrent decode streams bit-identical to each stream decoding
  alone, fp32 AND int8), run_reduction >= 2.0 (4 lockstep streams
  must share decode-bucket runs at least 2x), and
  cache_bytes_per_session must be positive (the KV cache actually
  exists). Rows stamped fused_attention=1 (the llama_proxy_fused
  scenario) carry three more floors: parity_vs_unfused_1e5 must be 1
  (fused logits within 1e-5 of the unfused serial reference),
  attn_fused_speedup >= 1.5 (the attention stage at the decode shape),
  and peak_live_fused_bytes strictly below peak_live_unfused_bytes
  (both positive). A baseline row that had the fused columns and a
  fresh row without them is a gate bypass and fails. Against the
  committed baseline, run reduction / coalesce rate must hold
  >= (1 - tolerance), and the shared/solo us-per-token ratio —
  self-normalized so host speed cancels — must not grow beyond the
  same tolerance. Vanished baseline rows fail.

  The gbench gate also pairs rows: every fresh BM_FusedAttention
  tier row must beat the BM_UnfusedAttention row at the same shape
  arg by >= 1.5x (the chain runs the naive "" GEMM reference; a
  compiled decode plan fuses it), the scalar base row must never
  lose to the chain, and a missing counterpart fails (the claim
  would be unverifiable).

Usage: bench_check.py BASELINE FRESH [--tolerance 0.25]
                                     [--table4-tolerance 0.05]
Exit status 1 iff a gated row regressed more than its tolerance.
"""

import argparse
import json
import sys


def thread_count(name):
    """Thread count encoded in a *Threads* family's benchmark name
    (e.g. BM_MatMulThreads/256/4/real_time -> 4); 1 otherwise."""
    parts = name.split("/")
    if "Threads" not in parts[0]:
        return 1
    nums = [p for p in parts[1:] if p.isdigit()]
    return int(nums[-1]) if nums else 1


def throughput(row):
    """Ops-per-second-shaped rate for a gbench row."""
    if "items_per_second" in row:
        return float(row["items_per_second"])
    # Per-iteration time in the row's unit; invert so "bigger = better"
    # holds for every gated metric.
    scale = {"ns": 1e9, "us": 1e6, "ms": 1e3, "s": 1.0}
    return scale.get(row.get("time_unit", "ns"), 1e9) / float(
        row["real_time"])


def rows_of(doc):
    """name -> row for gbench docs (iteration rows only)."""
    return {
        r["name"]: r
        for r in doc.get("benchmarks", [])
        if r.get("run_type", "iteration") == "iteration"
    }


def row_tier(name):
    """SIMD tier a row depends on ("BM_MatMul/blocked@avx2/128" ->
    "avx2"); None for tier-independent rows."""
    for tier in ("avx2", "neon"):
        if "@" + tier in name:
            return tier
    return None


# The fused-attention kernel claim at the decode shape: the fused
# kernel the executor binds on a SIMD host (the tier row) must beat
# the five-dispatch unfused chain by at least this factor. The chain
# runs the naive "" GEMM reference; a compiled decode plan fuses it,
# so the chain is the unfused baseline, not what serving runs.
# Same-snapshot pairing, so machine speed cancels.
MIN_FUSED_ATTN_SPEEDUP = 1.5
# The scalar fused kernel's contract is bit-exactness with the chain,
# not speed — but it strictly eliminates the chain's intermediate
# sweeps, so it must never LOSE to it.
MIN_FUSED_ATTN_SCALAR_SPEEDUP = 1.0


def unfused_counterpart(name):
    """BM_FusedAttention/base[@tier]/16 -> BM_UnfusedAttention/16."""
    return "BM_UnfusedAttention/" + name.split("/")[-1]


def check_gbench(base, fresh, tolerance):
    b, f = rows_of(base), rows_of(fresh)
    failures = 0

    # A debug-build snapshot must never pass the gate (nor be quietly
    # accepted as a future baseline). Old baselines predate the
    # pe_build_type context; only an explicit "debug" stamp fails.
    ctx = fresh.get("context", {})
    if ctx.get("pe_build_type", "release") != "release":
        print("  [FAIL] fresh snapshot was built in debug mode "
              "(context pe_build_type) — rebuild Release via "
              "scripts/bench_json.sh")
        failures += 1

    # A baseline row vanishing is a gate bypass, not trivia: the
    # throughput it gated is no longer watched. The one legitimate
    # cause is a SIMD-tier row measured on a host whose registry
    # doesn't have that tier (context pe_simd_tier says so).
    host_tier = ctx.get("pe_simd_tier")
    for name in sorted(set(b) - set(f)):
        tier = row_tier(name)
        if tier is not None and tier != host_tier:
            print(f"  [info] {tier} row skipped: host tier is "
                  f"'{host_tier}' (not gated): {name}")
        else:
            print(f"  [FAIL] baseline row missing from fresh run: "
                  f"{name} — restore it or refresh the committed "
                  f"baseline with scripts/bench_json.sh")
            failures += 1
    for name in sorted(set(f) - set(b)):
        print(f"  [info] new row (no baseline yet): {name}")
    for name in sorted(set(b) & set(f)):
        old, new = throughput(b[name]), throughput(f[name])
        ratio = new / old if old > 0 else float("inf")
        gated = thread_count(name) == 1
        status = "ok"
        if gated and ratio < 1.0 - tolerance:
            status = "FAIL"
            failures += 1
        elif not gated:
            status = "info (multi-thread row, not gated)"
        print(f"  {name}: {old:.3g} -> {new:.3g} ops/s "
              f"({ratio:.2f}x)  {status}")
    # Fused-vs-unfused attention pairing: gate the ratio WITHIN the
    # fresh snapshot (host speed cancels). Tier rows carry the 1.5x
    # serving claim; the scalar base row floors at parity. A fused
    # row whose unfused counterpart vanished fails — the speedup
    # claim is unverifiable.
    for name in sorted(f):
        if not name.startswith("BM_FusedAttention"):
            continue
        other = unfused_counterpart(name)
        if other not in f:
            print(f"  [FAIL] {name}: unfused counterpart {other} "
                  f"missing from the fresh run — the fused-attention "
                  f"speedup claim is unverifiable")
            failures += 1
            continue
        floor = (MIN_FUSED_ATTN_SPEEDUP if row_tier(name)
                 else MIN_FUSED_ATTN_SCALAR_SPEEDUP)
        speedup = throughput(f[name]) / throughput(f[other])
        status = "ok"
        if speedup < floor:
            status = "FAIL"
            failures += 1
        print(f"  {name}: {speedup:.2f}x vs {other} (floor "
              f"{floor}x)  {status}")
    if failures:
        print(f"{failures} gate failure(s): regression beyond "
              f"{tolerance:.0%}, vanished baseline row, or non-Release "
              f"snapshot — investigate or refresh the committed "
              f"baseline with scripts/bench_json.sh")
    return failures == 0


def table4_key(row):
    return tuple(
        str(row.get(k, ""))
        for k in ("kind", "platform", "model", "method", "mode",
                  "precision"))


# Peak-memory metrics: growth beyond the tolerance FAILS the gate.
GATED_TABLE4_FIELDS = ("total_bytes", "peak_live_bytes",
                       "act_weight_bytes")
# Reported on drift but never gated (layout shifts, artifact sizes).
INFO_TABLE4_FIELDS = ("arena_bytes", "workspace_bytes",
                      "plan_file_bytes")


def check_table4(base, fresh, tolerance):
    b = {table4_key(r): r for r in base}
    f = {table4_key(r): r for r in fresh}
    drifted = 0
    failures = 0
    for key in sorted(set(b) & set(f)):
        for field in GATED_TABLE4_FIELDS + INFO_TABLE4_FIELDS:
            if field not in b[key]:
                continue  # new fields gate once the baseline has them
            if field not in f[key]:
                # A gated metric VANISHING is a gate bypass, not
                # drift: fail it so a bench change cannot silently
                # stop emitting the number the gate watches.
                drifted += 1
                gate_bypass = field in GATED_TABLE4_FIELDS
                failures += gate_bypass
                status = "FAIL" if gate_bypass else "drift"
                print(f"  [{status}] {'/'.join(k for k in key if k)} "
                      f"{field}: {b[key][field]} -> (missing)")
                continue
            old, new = b[key][field], f[key][field]
            if old == new:
                continue
            drifted += 1
            regressed = (field in GATED_TABLE4_FIELDS and old > 0
                         and new > old * (1.0 + tolerance))
            status = "FAIL" if regressed else "drift"
            failures += regressed
            print(f"  [{status}] {'/'.join(k for k in key if k)} "
                  f"{field}: {old} -> {new}")
    for key in sorted(set(b) ^ set(f)):
        drifted += 1
        if key in b:
            # A whole baseline row vanishing is the row-level version
            # of the field-vanishing bypass above: whatever it gated
            # is no longer watched, so it fails until the committed
            # baseline is refreshed.
            failures += 1
            print(f"  [FAIL] baseline-only row: "
                  f"{'/'.join(k for k in key if k)}")
        else:
            print(f"  [drift] fresh-only row: "
                  f"{'/'.join(k for k in key if k)}")
    if failures:
        print(f"{failures} peak-memory regression(s) beyond "
              f"{tolerance:.0%} vs the committed table4 baseline — "
              f"deterministic numbers, so this is a real planner "
              f"change: fix it or refresh BENCH_table4.json in this "
              f"PR as the explicit sign-off")
    elif drifted:
        print(f"{drifted} memory-plan drift(s) vs the committed "
              f"table4 baseline (none beyond the {tolerance:.0%} "
              f"peak-memory gate) — explain in the PR or refresh "
              f"BENCH_table4.json")
    else:
        print("  table4 memory plan matches the committed baseline "
              "exactly")
    return failures == 0


# The continuous-batching acceptance bar: a burst of batch-1 requests
# must execute in at most half the bucket runs of per-request serving.
# Run counts are policy, not timing, so this floor is host-independent.
MIN_BURST_RUN_REDUCTION = 2.0


def serve_key(row):
    return str(row.get("scenario", ""))


def check_serve(base, fresh, tolerance):
    b = {serve_key(r): r for r in base}
    f = {serve_key(r): r for r in fresh}
    failures = 0

    # Machine-independent floors on the fresh snapshot itself.
    for name in sorted(f):
        row = f[name]
        if row.get("build_type", "release") != "release":
            print(f"  [FAIL] {name}: snapshot built in debug mode — "
                  f"rebuild Release via scripts/bench_json.sh")
            failures += 1
        if int(row.get("parity", 0)) != 1:
            print(f"  [FAIL] {name}: coalesced outputs are NOT "
                  f"bit-identical to per-request serving (parity="
                  f"{row.get('parity')})")
            failures += 1
        if (name == "burst_singles"
                and float(row.get("run_reduction", 0))
                < MIN_BURST_RUN_REDUCTION):
            print(f"  [FAIL] {name}: run_reduction "
                  f"{row.get('run_reduction')} below the "
                  f"{MIN_BURST_RUN_REDUCTION}x continuous-batching "
                  f"acceptance bar")
            failures += 1

    for name in sorted(set(b) - set(f)):
        print(f"  [FAIL] baseline scenario missing from fresh run: "
              f"{name} — restore it or refresh the committed baseline "
              f"with scripts/bench_json.sh")
        failures += 1
    for name in sorted(set(f) - set(b)):
        print(f"  [info] new scenario (no baseline yet): {name}")

    for name in sorted(set(b) & set(f)):
        old, new = b[name], f[name]
        # Bigger-is-better policy metrics, tolerance-gated vs baseline.
        for field in ("run_reduction", "coalesce_rate"):
            ov, nv = float(old.get(field, 0)), float(new.get(field, 0))
            ratio = nv / ov if ov > 0 else float("inf")
            status = "ok"
            if ratio < 1.0 - tolerance:
                status = "FAIL"
                failures += 1
            print(f"  {name} {field}: {ov:.3g} -> {nv:.3g} "
                  f"({ratio:.2f}x)  {status}")
        # Amortized latency: gate the coalesced/solo ratio (lower is
        # better) so host speed cancels out of the comparison.
        os_, oc = (float(old.get("amortized_run_us_solo", 0)),
                   float(old.get("amortized_run_us_coalesced", 0)))
        ns_, nc = (float(new.get("amortized_run_us_solo", 0)),
                   float(new.get("amortized_run_us_coalesced", 0)))
        if os_ > 0 and ns_ > 0:
            orat, nrat = oc / os_, nc / ns_
            status = "ok"
            if orat > 0 and nrat > orat * (1.0 + tolerance):
                status = "FAIL"
                failures += 1
            print(f"  {name} amortized us/req (coalesced/solo): "
                  f"{orat:.2f} -> {nrat:.2f}  {status}")
    if failures:
        print(f"{failures} serve gate failure(s): parity break, "
              f"run-reduction below {MIN_BURST_RUN_REDUCTION}x, "
              f"regression beyond {tolerance:.0%}, vanished scenario, "
              f"or non-Release snapshot — investigate or refresh the "
              f"committed BENCH_serve.json with scripts/bench_json.sh")
    return failures == 0


# The incremental-decode acceptance bar: 4 lockstep streams must pack
# their single-token steps into at most half the decode-bucket runs of
# serial decode. Run counts are coalescer policy, not timing, so the
# floor is host-independent — and parity is the bit-exactness claim.
MIN_DECODE_RUN_REDUCTION = 2.0


def check_decode(base, fresh, tolerance):
    b = {serve_key(r): r for r in base}
    f = {serve_key(r): r for r in fresh}
    failures = 0

    # Machine-independent floors on the fresh snapshot itself.
    for name in sorted(f):
        row = f[name]
        if row.get("build_type", "release") != "release":
            print(f"  [FAIL] {name}: snapshot built in debug mode — "
                  f"rebuild Release via scripts/bench_json.sh")
            failures += 1
        if int(row.get("parity", 0)) != 1:
            print(f"  [FAIL] {name}: shared-run decode is NOT "
                  f"bit-identical to serial decode (parity="
                  f"{row.get('parity')})")
            failures += 1
        if (float(row.get("run_reduction", 0))
                < MIN_DECODE_RUN_REDUCTION):
            print(f"  [FAIL] {name}: run_reduction "
                  f"{row.get('run_reduction')} below the "
                  f"{MIN_DECODE_RUN_REDUCTION}x decode run-sharing "
                  f"acceptance bar at {row.get('streams')} streams")
            failures += 1
        if int(row.get("cache_bytes_per_session", 0)) <= 0:
            print(f"  [FAIL] {name}: cache_bytes_per_session is "
                  f"{row.get('cache_bytes_per_session')} — the KV "
                  f"cache vanished")
            failures += 1
        if int(row.get("fused_attention", 0)) == 1:
            if int(row.get("parity_vs_unfused_1e5", 0)) != 1:
                print(f"  [FAIL] {name}: fused logits are NOT within "
                      f"1e-5 of the unfused serial reference "
                      f"(parity_vs_unfused_1e5="
                      f"{row.get('parity_vs_unfused_1e5')})")
                failures += 1
            speedup = float(row.get("attn_fused_speedup", 0))
            if speedup < MIN_FUSED_ATTN_SPEEDUP:
                print(f"  [FAIL] {name}: attention-stage fused "
                      f"speedup {speedup:.2f}x below the "
                      f"{MIN_FUSED_ATTN_SPEEDUP}x fused-attention "
                      f"acceptance bar")
                failures += 1
            plf = int(row.get("peak_live_fused_bytes", 0))
            plu = int(row.get("peak_live_unfused_bytes", 0))
            if plf <= 0 or plu <= 0 or plf >= plu:
                print(f"  [FAIL] {name}: fused decode peak-live "
                      f"({plf}) is not strictly below unfused "
                      f"({plu})")
                failures += 1

    for name in sorted(set(b) - set(f)):
        print(f"  [FAIL] baseline scenario missing from fresh run: "
              f"{name} — restore it or refresh the committed baseline "
              f"with scripts/bench_json.sh")
        failures += 1
    for name in sorted(set(f) - set(b)):
        print(f"  [info] new scenario (no baseline yet): {name}")

    for name in sorted(set(b) & set(f)):
        old, new = b[name], f[name]
        # The fused-attention columns vanishing from a row that gated
        # them is a gate bypass, same as a vanished scenario.
        if (int(old.get("fused_attention", 0)) == 1
                and int(new.get("fused_attention", 0)) != 1):
            print(f"  [FAIL] {name}: fused-attention columns vanished "
                  f"from the fresh row — restore them or refresh the "
                  f"committed baseline with scripts/bench_json.sh")
            failures += 1
        for field in ("run_reduction", "coalesce_rate"):
            ov, nv = float(old.get(field, 0)), float(new.get(field, 0))
            ratio = nv / ov if ov > 0 else float("inf")
            status = "ok"
            if ratio < 1.0 - tolerance:
                status = "FAIL"
                failures += 1
            print(f"  {name} {field}: {ov:.3g} -> {nv:.3g} "
                  f"({ratio:.2f}x)  {status}")
        # Decode cost per token: gate the shared/solo ratio (lower is
        # better) so host speed cancels out of the comparison.
        os_, oc = (float(old.get("decode_us_per_token_solo", 0)),
                   float(old.get("decode_us_per_token_shared", 0)))
        ns_, nc = (float(new.get("decode_us_per_token_solo", 0)),
                   float(new.get("decode_us_per_token_shared", 0)))
        if os_ > 0 and ns_ > 0:
            orat, nrat = oc / os_, nc / ns_
            status = "ok"
            if orat > 0 and nrat > orat * (1.0 + tolerance):
                status = "FAIL"
                failures += 1
            print(f"  {name} decode us/token (shared/solo): "
                  f"{orat:.2f} -> {nrat:.2f}  {status}")
    if failures:
        print(f"{failures} decode gate failure(s): parity break, "
              f"run-sharing below {MIN_DECODE_RUN_REDUCTION}x, missing "
              f"cache bytes, a fused-attention floor (1e-5 parity, "
              f"{MIN_FUSED_ATTN_SPEEDUP}x attention speedup, fused "
              f"peak-live below unfused), regression beyond "
              f"{tolerance:.0%}, vanished scenario, or non-Release "
              f"snapshot — investigate or refresh the committed "
              f"BENCH_decode.json with scripts/bench_json.sh")
    return failures == 0


def is_decode_doc(doc):
    """Flat decode-stream rows (checked before the serve shape: both
    are flat scenario lists, distinguished by their kind prefix)."""
    return (isinstance(doc, list) and len(doc) > 0
            and str(doc[0].get("kind", "")).startswith("decode"))


def is_serve_doc(doc):
    """Flat serve-coalescing rows vs the table4 flat list."""
    return (isinstance(doc, list) and len(doc) > 0
            and str(doc[0].get("kind", "")).startswith("serve"))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("fresh")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="max allowed single-thread throughput "
                         "regression (default 0.25)")
    ap.add_argument("--table4-tolerance", type=float, default=0.05,
                    help="max allowed peak-memory growth before the "
                         "table4 gate fails (default 0.05)")
    args = ap.parse_args()

    with open(args.baseline) as fp:
        base = json.load(fp)
    with open(args.fresh) as fp:
        fresh = json.load(fp)

    if is_decode_doc(base) or is_decode_doc(fresh):
        print(f"decode serving gate: {args.baseline} vs {args.fresh} "
              f"(parity + {MIN_DECODE_RUN_REDUCTION}x run-sharing "
              f"floors, tolerance {args.tolerance:.0%} vs baseline)")
        ok = check_decode(base, fresh, args.tolerance)
    elif is_serve_doc(base) or is_serve_doc(fresh):
        print(f"serve coalescing gate: {args.baseline} vs "
              f"{args.fresh} (parity + {MIN_BURST_RUN_REDUCTION}x "
              f"run-reduction floors, tolerance {args.tolerance:.0%} "
              f"vs baseline)")
        ok = check_serve(base, fresh, args.tolerance)
    elif isinstance(base, list):
        print(f"table4 gate: {args.baseline} vs {args.fresh} "
              f"(tolerance {args.table4_tolerance:.0%} on peak "
              f"memory)")
        ok = check_table4(base, fresh, args.table4_tolerance)
    else:
        print(f"throughput gate: {args.baseline} vs {args.fresh} "
              f"(tolerance {args.tolerance:.0%} on single-thread rows)")
        ok = check_gbench(base, fresh, args.tolerance)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
