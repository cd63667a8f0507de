"""List the survey flux strata on which the Exact solver fails its checks.

    python3 perfbench/strata_probe.py

For every survey X and every 2|mu|/X bin of width 0.1 over (0, 2], runs one
survey op at the bin's upper edge for kappa = 0 and kappa = inf (sigma = +1,
mu > 0) and applies the survey's output checks.  Prints one JSON object:
per X, each failing bin with its reason and, where the table was built, the
larger table-end |c_n|.  The survey workload draws only bins below
``workloads.FLUX_CAP``; this is the evidence for those caps and the list a
fix of the mode window can cite.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

import workloads
from ops import Runner

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import vortexscatter as vs
    from vortexscatter import cli

    out = {}
    with tempfile.TemporaryDirectory() as csv_dir:
        runner = Runner(vs, cli, csv_dir)
        for X, _, _ in workloads.SURVEY_ROUND:
            failing = []
            for k in range(round(workloads.FLUX_FULL / workloads.FLUX_BIN)):
                ratio = (k + 1) * workloads.FLUX_BIN
                for kappa in (0.0, math.inf):
                    op = workloads.SurveyOp(X=X, mu=ratio * X / 2.0, kappa=kappa, sigma=1,
                                            angles=workloads.SURVEY_ANGLES, oracle_idx=(0, 1000, 2000))
                    try:
                        reasons, _ = runner.check(op, runner.execute(op))
                    except Exception as exc:
                        reasons = [f"{type(exc).__name__}: {exc}"]
                    if reasons:
                        entry = {"bin": [round(ratio - workloads.FLUX_BIN, 1), round(ratio, 1)],
                                 "kappa": "inf" if math.isinf(kappa) else kappa, "reasons": reasons}
                        if "tail_c_n" in reasons:
                            table = vs.mode_table(runner.params(op))
                            entry["tail_c_max"] = max(abs(table[0].c_n), abs(table[-1].c_n))
                        failing.append(entry)
            out[f"X={X:g}"] = {"flux_cap": workloads.FLUX_CAP[X], "failing": failing}
            print(f"X={X:g}: {len(failing)} failing (bin, kappa) pairs", file=sys.stderr)
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
