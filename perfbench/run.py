"""vortexscatter benchmark: one workload per invocation.

    python3 perfbench/run.py --workload survey --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads (see README.md and workloads.py):

  survey         Exact cross-section curves on fresh, stratified inputs
  shell_scan     in-process ``cli compare`` over scans of 8 shell strengths
  semiclassical  closed-form CLI curves, flux sweep and f2 asymptotics

With ``--trace 0`` the workload process is set up ``SETUPS`` times, each in
a fresh interpreter (``setup_s`` is their median); the last one runs the
timed phase and reports the end-to-end metrics.  With ``--trace 1`` one
process runs the same seed's ops as chains of traced layer calls and
reports the per-layer metrics; its spans go to ``.perfbench/``.  The last
stdout line is the JSON result; ``--tiny`` shrinks every input for
``selftest.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 5
READY_TIMEOUT_S = 60.0
RUN_TIMEOUT_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def fail(msg: str) -> int:
    print(f"perfbench: error: {msg}", file=sys.stderr)
    return 2


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    threads = str(min(2, os.cpu_count() or 1))
    env.update({v: threads for v in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(argv: list[str], env: dict[str, str]) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for READY; returns it with its set-up seconds."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv], cwd=ROOT, env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    ready, _, _ = select.select([proc.stdout], [], [], READY_TIMEOUT_S)
    line = proc.stdout.readline() if ready else ""
    setup = perf_counter() - t0
    if line.strip() != "READY":
        stop(proc)
        raise RuntimeError(f"worker set-up failed (exit {proc.returncode})")
    return proc, setup


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs, for selftest.py")
    args = ap.parse_args()

    if not (ROOT / "src" / "vortexscatter" / "__init__.py").is_file():
        return fail(f"no vortexscatter sources under {ROOT / 'src'}; run from a source checkout")
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    env = worker_env()

    with tempfile.TemporaryDirectory(dir=out_dir, prefix="csv-") as csv_dir:
        argv = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--csv-dir", csv_dir]
        if args.tiny:
            argv.append("--tiny")
        if args.trace:
            argv += ["--spans", str(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")]
        setups, proc = [], None
        try:
            for i in range(1 if args.trace else SETUPS):
                proc, setup = start_worker(argv, env)
                setups.append(setup)
                if i < SETUPS - 1 and not args.trace:
                    proc.communicate("exit\n", timeout=READY_TIMEOUT_S)
            out, _ = proc.communicate("go\n", timeout=RUN_TIMEOUT_S)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            if proc is not None:
                stop(proc)
            return fail(str(exc))

    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        return fail(f"worker exited {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    if not args.trace:
        print(f"perfbench: setup_s samples {[round(s, 4) for s in setups]}")
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
