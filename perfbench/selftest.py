"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

Checks that the input generator is deterministic for a seed, that every
metric named in BENCHMARK.json is emitted with its unit in both trace
modes, that output digests repeat across two runs with the same seed, and
that the benchmark fails without printing a result when the package
sources are missing.  Exits 0 when every check passes.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", "3",
            "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def digest_line(stdout: str) -> str:
    return next(line for line in stdout.splitlines() if line.startswith("perfbench: output_digest="))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []

    def check(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    for w in workloads.WORKLOADS:
        for label, size in (("tiny", workloads.TINY), ("full", workloads.FULL)):
            first = list(itertools.islice(workloads.rounds(w, 5, size), 3))
            check(first == list(itertools.islice(workloads.rounds(w, 5, size), 3)),
                  f"{w} ({label}): same seed gives the same inputs")
            check(first != list(itertools.islice(workloads.rounds(w, 6, size), 3)),
                  f"{w} ({label}): another seed gives other inputs")

    for w in workloads.WORKLOADS:
        digests = []
        for trace in (0, 0, 1):
            proc = run(w, trace)
            check(proc.returncode == 0, f"{w} trace={trace}: exit 0")
            if proc.returncode != 0:
                print(proc.stderr)
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            check(set(result) == RESULT_KEYS, f"{w} trace={trace}: result keys")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{w} trace={trace}: outputs correct")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == expected[trace], f"{w} trace={trace}: every metric with its unit")
            digests.append(digest_line(proc.stdout))
        check(len(set(digests)) == 1, f"{w}: output digests repeat for one seed")

    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("survey", 0, cwd=bare)
        check(proc.returncode != 0 and not proc.stdout.strip(),
              "without package sources: non-zero exit and no result")

    print(f"selftest: {'FAILED ' + str(len(failures)) if failures else 'all checks passed'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
