#!/usr/bin/env python3
"""Benchmark regression gate: diff a measured bench artifact against its
checked-in baseline.

Usage:
    python3 ci/compare_bench.py MEASURED.json BASELINE.json \
        [--fail-under 0.7] [--notice-over 1.3] [--strict]

Both files must be artifacts of the same bench binary (`kernels` or
`dist`). For every case present in the baseline, the measured GFLOP/s is
compared as a ratio; a case below ``--fail-under`` x baseline is a
regression, above ``--notice-over`` x is a notice (update the baseline to
bank the win). The schema of the measured file is validated first, so a
bench binary that drops a field fails here rather than producing an
uncomparable artifact.

A `kernels` artifact is also checked against itself: each
`conv2d_backward_*` row must reach at least ``CONV_GRAD_FLOOR`` x the
GFLOP/s of the `conv2d` row with the same case and dispatch path. The
gradients run on vector kernels like the forward kernel (the packed GEMM
or a lane kernel), so a row far below it means a gradient fell back to
scalar loops while its roofline label still says `simd8`. Both rows come
from one run on one machine, their trials interleaved, so this check
fails on every machine.

And each forward `conv2d` row with at least ``CONV_GEMM_MIN_IN_C`` input
channels and a kernel larger than 1x1 must reach ``CONV_GEMM_FLOOR`` x the
artifact's own `gemm 256x256x256` row: with that many channels the im2col
scratch is filled in runs and multiplied a block of rows at a time, so the
kernel is the GEMM plus a copy, and a row far below the GEMM means patches
are being gathered element by element or multiplied a strip at a time
again. (A 1x1 kernel reduces over its channels alone; a GEMM that shallow
is bound by its write-back, not by the engine.)

Likewise each broadcasting elementwise row (`add …+[C]`, `greater_mask …
vs scalar`) may take at most ``BROADCAST_CEILING`` x the time of the
same-shape `add …+same` row over the same dims: a broadcast operand is
indexed in the kernel's inner loop, so a row far above it means an operand
was materialized at the output shape again.

And each LeNet average-pool row (`avg_pool2d` / `avg_pool2d_backward`,
case `lenet-…`) may take at most ``POOL_CEILING`` x the time of the
same-shape `add …+same` row over its input: pooling walks rows and folds
each window in vector registers, so a row far above that means the kernels
went back to visiting the window cell by cell (the per-element loops took
7-18x).

Throughput is only comparable between like machines. When the two
artifacts' machine fingerprints differ, regressions are reported but
downgraded to warnings (exit 0) unless ``--strict`` is given — CI runners
are not the machine the baseline was recorded on.
"""

import argparse
import json
import sys

# Per-bench schema: (result key fields, required result fields, metrics).
# Every metric listed is gated independently against the baseline's value
# for the same key — for `kernels` that means the active dispatch path
# (gflops_1, usually simd8) AND the scalar reference path
# (gflops_scalar_1) each hold their own line, so a SIMD win cannot mask a
# scalar-path regression or vice versa.
SCHEMAS = {
    "kernels": {
        "key": ("kernel", "case"),
        "required": (
            "kernel", "case", "path", "threads_1_ms", "threads_n_ms",
            "threads_scalar_1_ms", "speedup", "flops", "bytes",
            "gflops_1", "gflops_n", "gflops_scalar_1",
        ),
        "metrics": ("gflops_1", "gflops_scalar_1"),
    },
    # Multi-process ring all-reduce: throughput gates advisory only (the
    # baseline's 1-worker row records ring_gbps 0, which is skipped); the
    # schema check is the hard gate — a bench that stops emitting the
    # step-time quantiles or the predicted-vs-measured columns fails here.
    "dist": {
        "key": ("case",),
        "required": (
            "case", "workers", "steps", "step_ms_p50", "step_ms_p99",
            "allreduce_ms_p50", "ring_gbps", "tx_bytes_per_step",
            "final_loss", "predicted_step_ms", "measured_over_predicted",
        ),
        "metrics": ("ring_gbps",),
    },
}


# A conv gradient row below this fraction of its forward row's gflops_1
# fails the artifact (the lowering targets >= 0.66x; see DESIGN.md 6g).
CONV_GRAD_FLOOR = 0.5


# A forward conv row with at least this many input channels (and a kernel
# past 1x1) must reach CONV_GEMM_FLOOR x the GEMM_REFERENCE row of its own
# artifact (DESIGN.md 6g).
CONV_GEMM_MIN_IN_C = 16
CONV_GEMM_FLOOR = 0.6
GEMM_REFERENCE = "256x256x256"


# A broadcasting elementwise row above this multiple of its same-shape
# row's time fails the artifact (same element count, fewer bytes read).
BROADCAST_CEILING = 1.5


# A LeNet average-pool row above this multiple of the same-input add row's
# time fails the artifact (DESIGN.md 6g).
POOL_CEILING = 4.0
POOL_KERNELS = ("avg_pool2d", "avg_pool2d_backward")


def load(path):
    with open(path) as f:
        return json.load(f)


def validate(doc, path):
    """Schema-checks one artifact; returns its bench kind."""
    kind = doc.get("bench")
    if kind not in SCHEMAS:
        sys.exit(f"{path}: unknown bench kind {kind!r}")
    schema = SCHEMAS[kind]
    results = doc.get("results")
    if not isinstance(results, list) or not results:
        sys.exit(f"{path}: empty or missing results")
    machine = doc.get("machine")
    if not isinstance(machine, dict) or "fingerprint" not in machine:
        sys.exit(f"{path}: missing machine fingerprint")
    for r in results:
        for field in schema["required"]:
            if field not in r:
                sys.exit(f"{path}: result missing field {field!r}: {r}")
        for metric in schema["metrics"]:
            if r[metric] < 0:
                sys.exit(f"{path}: negative {metric}: {r}")
    return kind


def conv_grad_failures(doc):
    """Conv gradient rows slower than CONV_GRAD_FLOOR x their forward row."""
    forward = {(r["case"], r["path"]): r["gflops_1"]
               for r in doc["results"] if r["kernel"] == "conv2d"}
    failures = []
    for r in doc["results"]:
        if not r["kernel"].startswith("conv2d_backward_"):
            continue
        fwd = forward.get((r["case"], r["path"]))
        if fwd is None:
            failures.append(f"{r['kernel']}/{r['case']}: no conv2d row "
                            f"with path {r['path']} to compare against")
        elif r["gflops_1"] < CONV_GRAD_FLOOR * fwd:
            failures.append(
                f"{r['kernel']}/{r['case']} [{r['path']}]: {r['gflops_1']:.3f} "
                f"GFLOP/s is {r['gflops_1'] / fwd:.2f}x the forward kernel's "
                f"{fwd:.3f} (floor {CONV_GRAD_FLOOR}x)")
    return failures


def conv_gemm_failures(doc):
    """Forward conv rows (case `<name> NxHxWxC*KhxKwxCxO[/s]`, C >=
    CONV_GEMM_MIN_IN_C, Kh*Kw > 1) slower than CONV_GEMM_FLOOR x the same
    artifact's reference GEMM row."""
    gemm = {r["path"]: r["gflops_1"] for r in doc["results"]
            if r["kernel"] == "gemm" and r["case"] == GEMM_REFERENCE}
    failures = []
    for r in doc["results"]:
        if r["kernel"] != "conv2d":
            continue
        k_h, k_w, in_c = (int(d) for d in
                          r["case"].split()[1].split("*")[1].split("x")[:3])
        if in_c < CONV_GEMM_MIN_IN_C or k_h * k_w == 1:
            continue
        ref = gemm.get(r["path"])
        if ref is None:
            failures.append(f"conv2d/{r['case']}: no gemm {GEMM_REFERENCE} row "
                            f"with path {r['path']} to compare against")
        elif r["gflops_1"] < CONV_GEMM_FLOOR * ref:
            failures.append(
                f"conv2d/{r['case']} [{r['path']}]: {r['gflops_1']:.3f} GFLOP/s "
                f"is {r['gflops_1'] / ref:.2f}x gemm {GEMM_REFERENCE}'s "
                f"{ref:.3f} (floor {CONV_GEMM_FLOOR}x)")
    return failures


def broadcast_failures(doc):
    """Broadcasting elementwise rows slower than BROADCAST_CEILING x the
    same-shape add over the same dims (case names are `<op> <dims>...`)."""
    rows = [r for r in doc["results"] if r["kernel"] == "elementwise"]
    same = {r["case"].split()[1].split("+")[0]: r["threads_1_ms"]
            for r in rows if r["case"].endswith("+same")}
    failures = []
    for r in rows:
        case = r["case"]
        if not ("+[" in case or case.endswith(" vs scalar")):
            continue
        dims = case.split()[1].split("+")[0]
        base = same.get(dims)
        if base is None:
            failures.append(f"{case}: no `add {dims}+same` row to compare against")
        elif r["threads_1_ms"] > BROADCAST_CEILING * base:
            failures.append(
                f"{case}: {r['threads_1_ms']:.4f} ms is "
                f"{r['threads_1_ms'] / base:.2f}x the same-shape add's "
                f"{base:.4f} ms (ceiling {BROADCAST_CEILING}x)")
    return failures


def pool_failures(doc):
    """LeNet average-pool rows (case `lenet-<n> <dims> ...`) slower than
    POOL_CEILING x the `add <dims>+same` row over the same input."""
    add = {r["case"].split()[1].split("+")[0]: r["threads_1_ms"]
           for r in doc["results"]
           if r["kernel"] == "elementwise" and r["case"].endswith("+same")}
    failures = []
    for r in doc["results"]:
        if r["kernel"] not in POOL_KERNELS or not r["case"].startswith("lenet-"):
            continue
        dims = r["case"].split()[1]
        base = add.get(dims)
        if base is None:
            failures.append(f"{r['kernel']}/{r['case']}: no `add {dims}+same` "
                            "row to compare against")
        elif r["threads_1_ms"] > POOL_CEILING * base:
            failures.append(
                f"{r['kernel']}/{r['case']}: {r['threads_1_ms']:.4f} ms is "
                f"{r['threads_1_ms'] / base:.2f}x the same-input add's "
                f"{base:.4f} ms (ceiling {POOL_CEILING}x)")
    return failures


# Metrics measured on the scalar reference path regardless of the active
# dispatch path; these stay comparable even when measured and baseline
# artifacts ran with different S4TF_SIMD settings.
PATH_INDEPENDENT = {"gflops_scalar_1"}


def keyed(doc, schema):
    """{key tuple: (dispatch path, {metric: value})} per result row."""
    return {
        tuple(r[k] for k in schema["key"]): (
            r.get("path", ""),
            {m: r[m] for m in schema["metrics"] if m in r},
        )
        for r in doc["results"]
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("measured")
    ap.add_argument("baseline")
    ap.add_argument("--fail-under", type=float, default=0.7)
    ap.add_argument("--notice-over", type=float, default=1.3)
    ap.add_argument("--strict", action="store_true",
                    help="fail on regressions even across unlike machines")
    args = ap.parse_args()

    measured = load(args.measured)
    baseline = load(args.baseline)
    kind = validate(measured, args.measured)
    base_kind = validate(baseline, args.baseline)
    if kind != base_kind:
        sys.exit(f"bench kind mismatch: {kind} vs {base_kind}")
    schema = SCHEMAS[kind]

    grad_failures = conv_grad_failures(measured) if kind == "kernels" else []
    for f in grad_failures:
        print(f"  CONV GRADIENT OFF THE ENGINE: {f}")
    gemm_failures = conv_gemm_failures(measured) if kind == "kernels" else []
    for f in gemm_failures:
        print(f"  CONV BELOW THE GEMM: {f}")
    bcast_failures = broadcast_failures(measured) if kind == "kernels" else []
    for f in bcast_failures:
        print(f"  BROADCAST MATERIALIZED: {f}")
    pooling_failures = pool_failures(measured) if kind == "kernels" else []
    for f in pooling_failures:
        print(f"  POOLING CELL BY CELL: {f}")

    m_fp = measured["machine"]["fingerprint"]
    b_fp = baseline["machine"]["fingerprint"]
    same_machine = m_fp == b_fp
    if not same_machine:
        print(f"note: machine mismatch (measured {m_fp}, baseline {b_fp}); "
              "regressions are advisory" + (" [--strict overrides]" if not args.strict else ""))

    got = keyed(measured, schema)
    want = keyed(baseline, schema)
    regressions, notices, compared, path_skips = [], [], 0, 0
    for key, (base_path, base_metrics) in sorted(want.items()):
        if key not in got:
            regressions.append(f"{key}: missing from measured artifact")
            continue
        m_path, m_metrics = got[key]
        for metric in schema["metrics"]:
            base_val = base_metrics.get(metric)
            if base_val is None or base_val <= 0:
                continue
            if base_path != m_path and metric not in PATH_INDEPENDENT:
                # e.g. a S4TF_SIMD=0 run against a simd8 baseline: the
                # active-path column measures a different kernel.
                path_skips += 1
                continue
            if metric not in m_metrics:
                regressions.append(f"{key}: missing metric {metric}")
                continue
            ratio = m_metrics[metric] / base_val
            compared += 1
            line = (f"{'/'.join(key)} [{metric}]: {m_metrics[metric]:.3f} "
                    f"vs baseline {base_val:.3f} GFLOP/s ({ratio:.2f}x)")
            if ratio < args.fail_under:
                regressions.append(line)
            elif ratio > args.notice_over:
                notices.append(line)

    print(f"{kind}: compared {compared} metric(s) against {args.baseline}")
    if path_skips:
        print(f"  note: {path_skips} active-path metric(s) skipped "
              "(dispatch path differs from baseline)")
    for n in notices:
        print(f"  faster (consider re-baselining): {n}")
    for r in regressions:
        print(f"  REGRESSION: {r}")
    if grad_failures:
        sys.exit(f"{len(grad_failures)} conv gradient row(s) below "
                 f"{CONV_GRAD_FLOOR}x their forward row")
    if gemm_failures:
        sys.exit(f"{len(gemm_failures)} conv row(s) below "
                 f"{CONV_GEMM_FLOOR}x gemm {GEMM_REFERENCE}")
    if bcast_failures:
        sys.exit(f"{len(bcast_failures)} broadcast row(s) above "
                 f"{BROADCAST_CEILING}x their same-shape row")
    if pooling_failures:
        sys.exit(f"{len(pooling_failures)} LeNet pooling row(s) above "
                 f"{POOL_CEILING}x their same-input add row")
    if regressions and (same_machine or args.strict):
        sys.exit(f"{len(regressions)} case(s) regressed below "
                 f"{args.fail_under}x baseline")
    if regressions:
        print("regressions are advisory on this machine; exiting 0")
    if not regressions and not notices:
        print("  all cases within tolerance")


if __name__ == "__main__":
    main()
