"""One workload in one fresh interpreter, driven by one closed-loop client.

Started by run.py.  Set-up (imports, input generation, one warm-up op on
inputs outside the measured set) ends with a ``READY`` line on stdout;
the worker then reads one line from stdin: ``go`` runs the timed phase,
anything else exits.  Ops run back to back in whole rounds until the ops
have been busy for ``--seconds``; each op's outputs are checked between
ops, outside its timing.  The last stdout line is a JSON object with
``attempted``, ``failed`` and ``metrics``; earlier lines start with
``perfbench:``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import workloads
from ops import Runner, Tracer, digest, duration

LAYERS = ("specfun", "radial.interior", "radial.match", "amplitudes", "asymptotics", "cli")

PER_LAYER = (
    ("specfun.calls", "count/op"), ("specfun.busy_s", "s/op"),
    ("radial.interior.busy_s", "s/op"), ("radial.interior.solves", "count/op"),
    ("radial.interior.modes", "count/op"), ("radial.interior.reuse_share", "ratio"),
    ("radial.match.busy_s", "s/op"), ("radial.modes", "count/op"), ("radial.modes_near", "count/op"),
    ("radial.modes_far_kept", "count/op"), ("radial.modes_truncated", "count/op"),
    ("radial.useful_mode_share", "ratio"), ("radial.tail_c_max", "abs"),
    ("radial.unitarity_defect_max", "abs"),
    ("amplitudes.f1_sum.busy_s", "s/op"), ("amplitudes.fc_sums.busy_s", "s/op"),
    ("amplitudes.ab_amplitude.busy_s", "s/op"), ("amplitudes.curve.busy_s", "s/op"),
    ("amplitudes.mode_angle_terms", "count/op"),
    ("asymptotics.Fraunhofer.busy_s", "s/op"), ("asymptotics.PenetrationAsymptotic.busy_s", "s/op"),
    ("asymptotics.Rainbow.busy_s", "s/op"), ("asymptotics.Classical.busy_s", "s/op"),
    ("asymptotics.AB.busy_s", "s/op"), ("asymptotics.f2_stationary.busy_s", "s/op"),
    ("asymptotics.f2_direct.busy_s", "s/op"), ("asymptotics.evaluations", "count/op"),
    ("cli.curve.busy_s", "s/op"), ("cli.sweep.busy_s", "s/op"), ("cli.compare.busy_s", "s/op"),
    ("cli.self_s", "s/op"), ("cli.csv_bytes", "bytes/op"), ("cli.nonzero_exits", "count/op"),
    ("trace.coverage", "ratio"), ("trace.overhead_s", "s/op"),
)
TAIL_BEYOND = 10  # samples beyond the reported tail percentile


def info(text: str) -> None:
    print(f"perfbench: {text}", flush=True)


def tail(times: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest order statistic with at least
    TAIL_BEYOND samples beyond it (the maximum when there are fewer)."""
    s = sorted(times)
    i = len(s) - TAIL_BEYOND - 1 if len(s) > TAIL_BEYOND else len(s) - 1
    return s[i], 100.0 * (i + 1) / len(s)


def span_cost() -> float:
    """Seconds one empty span costs the tracer."""
    tr = Tracer()
    n = 2000
    t0 = perf_counter()
    for _ in range(n):
        with tr.span("x"):
            pass
    return (perf_counter() - t0) / n


def layer_of(name: str) -> str:
    return next(layer for layer in LAYERS if name == layer or name.startswith(layer + "."))


def self_times(spans) -> list[float]:
    """Span duration minus the part its child spans cover."""
    out = [duration(rec) for rec in spans]
    for rec in spans:
        if rec[4] is not None:
            out[rec[4]] -= duration(rec)
    return out


def layer_self(spans, selfs, cli_self: dict[int, float], ops: set[int]) -> dict[str, float]:
    """Self seconds per layer over ``ops``: the op chain by layer, the cli
    layer counting only its own share (cli.main minus the library calls it
    repeats), and the probes under ``probe:<layer>``."""
    out = defaultdict(float)
    for rec, own in zip(spans, selfs):
        if rec[0] in ops and rec[4] is not None:
            root = spans[rec[4]][1]
            layer = layer_of(rec[1])
            if root == "probe":
                out[f"probe:{layer}"] += own
            elif layer != "cli":
                out[layer] += own
    out["cli"] = sum(cli_self[i] for i in ops)
    return dict(out)


def traced_metrics(runner: Runner, spans, selfs, ops_meta: list[dict], per_span: float) -> dict:
    n = len(ops_meta)
    busy = defaultdict(float)
    op_wall = covered = 0.0
    for rec, own in zip(spans, selfs):
        busy[rec[1]] += own
        if rec[1] == "op":
            op_wall += duration(rec)
            covered += duration(rec) - own
    c, mx = runner.counts, runner.maxima
    need = [m for m in ops_meta if m["interior"] is not None]
    values = {}
    for name, unit in PER_LAYER:
        if name.endswith(".busy_s"):
            v = busy[name[: -len(".busy_s")]] / n
        elif name == "radial.interior.reuse_share":
            v = sum(m["interior"] is False for m in need) / len(need) if need else 0.0
        elif name == "radial.useful_mode_share":
            v = (c["radial.modes_near"] + c["radial.modes_far_kept"]) / c["radial.modes"] if c["radial.modes"] else 0.0
        elif name in mx:
            v = mx[name]
        elif name == "trace.coverage":
            v = covered / op_wall
        elif name == "trace.overhead_s":
            v = per_span * (len(spans) / n)
        else:
            v = c[name] / n
        values[name] = {"value": v, "unit": unit}
    return values


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--csv-dir", required=True)
    ap.add_argument("--spans", help="JSON-lines file for the traced run's spans")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import numpy
    import scipy
    import vortexscatter as vs
    from vortexscatter import cli

    size = workloads.TINY if args.tiny else workloads.FULL
    gen = workloads.rounds(args.workload, args.seed, size)
    runner = Runner(vs, cli, args.csv_dir)
    warm = workloads.warmup_op(args.workload, size)
    reasons, _ = runner.check(warm, runner.execute(warm))
    if reasons:
        print(f"warm-up op failed its checks: {reasons}", file=sys.stderr)
        return 3
    print("READY", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    info(f"python={platform.python_version()} numpy={numpy.__version__} scipy={scipy.__version__} "
         f"nproc={os.cpu_count()} threads={os.environ.get('OMP_NUM_THREADS')}")
    tr = Tracer() if args.trace else None
    per_span = span_cost() if args.trace else 0.0
    times, failures, blobs, ops_meta = [], Counter(), [], []
    busy = 0.0
    first_round = True
    for rnd in gen:
        for op in rnd:
            op_id = len(times)
            if tr is not None:
                tr.op_id = op_id
                cli_before = runner.counts["cli.self_s"]
            t0 = perf_counter()
            try:
                if tr is None:
                    outcome, interior = runner.execute(op), None
                else:
                    outcome, interior = runner.execute_traced(op, tr)
                dt = perf_counter() - t0
                reasons, blob = runner.check(op, outcome)
            except Exception as exc:  # a failed op is counted, never dropped
                dt = perf_counter() - t0
                reasons, blob, interior = [f"exception_{type(exc).__name__}"], repr(exc).encode(), None
            times.append(dt)
            busy += dt
            failures.update(reasons[:1])
            if first_round:
                blobs.append(blob)
            if tr is not None:
                ops_meta.append({"id": op_id, "X": op.X, "interior": interior,
                                 "cli_self": runner.counts["cli.self_s"] - cli_before})
        first_round = False
        if busy >= args.seconds:
            break

    attempted = len(times)
    failed = sum(failures.values())
    info(f"workload={args.workload} seed={args.seed} attempted={attempted} failed={failed} "
         f"error_rate={failed / attempted:.6g} reasons={json.dumps(dict(failures), sort_keys=True)}")
    info(f"output_digest={digest(blobs)} (first round, {len(blobs)} ops)")
    if tr is None:
        value, pct = tail(times)
        info(f"op_s_tail is the p{pct:.1f} of {attempted} ops")
        metrics = {
            "ops_per_s": {"value": (attempted - failed) / busy, "unit": "1/s"},
            "op_s_p50": {"value": statistics.median(times), "unit": "s"},
            "op_s_tail": {"value": value, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
    else:
        selfs = self_times(tr.spans)
        metrics = traced_metrics(runner, tr.spans, selfs, ops_meta, per_span)
        cli_self = {m["id"]: m["cli_self"] for m in ops_meta}
        groups = {"all": {m["id"] for m in ops_meta}}
        if args.workload == "shell_scan":
            groups["warm"] = {m["id"] for m in ops_meta if m["interior"] is not True}
        for X in sorted({m["X"] for m in ops_meta}):
            groups[f"X={X:g}"] = {m["id"] for m in ops_meta if m["X"] == X}
        summary = {k: {"ops": len(ids), **{layer: round(s / len(ids), 6) for layer, s in
                                           sorted(layer_self(tr.spans, selfs, cli_self, ids).items())}}
                   for k, ids in groups.items()}
        info(f"layer self s/op: {json.dumps(summary, sort_keys=True)}")
        if args.spans:
            with open(args.spans, "w") as fh:
                for rec in tr.spans:
                    fh.write(json.dumps({"op": rec[0], "name": rec[1], "start": rec[2],
                                         "end": rec[3], "parent": rec[4]}) + "\n")
    print(json.dumps({"attempted": attempted, "failed": failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
