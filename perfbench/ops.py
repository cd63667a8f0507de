"""One benchmark op per workload, plain or traced, and its output checks.

Only names in ``vortexscatter.__all__`` and ``vortexscatter.cli.main`` are
called, so refactors of private code need no benchmark edit.  The traced
form of an op runs the same inputs as its chain of public layer calls in
dependency order, each call a child span of an ``op`` span.  After the op,
a ``probe`` span re-runs work the chain does inside one call, to time it
on its own: the edge cylinder functions of every kept mode (specfun) and
the three amplitude sums inside an Exact curve.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import io
import math
import os
from collections import defaultdict
from time import perf_counter

import numpy as np

from workloads import SHELL_WINDOW, SemiOp, ShellOp, SurveyOp

UNITARITY_TOL = 1e-8  # acceptance criterion 01
TAIL_CUTOFF = 1e-14  # documented mode-table tail cutoff
ORACLE_TOL = 1e-10  # relative to the curve's peak
SWEEP_ROWS = 13  # cli sweep default --mu-steps
SEMI_METHODS = ("Fraunhofer", "PenetrationAsymptotic", "Classical", "AB")
SHELL_METHODS = ("Fraunhofer", "PenetrationAsymptotic")


class Tracer:
    """In-memory spans: [op id, name, start, end, parent index]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id = -1

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [self.op_id, name, perf_counter(), None, self._stack[-1] if self._stack else None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[3] = perf_counter()
            self._stack.pop()


def duration(rec) -> float:
    return rec[3] - rec[2]


def _kappa_arg(kappa: float) -> str:
    return "inf" if math.isinf(kappa) else repr(kappa)


def _call_cli(cli, argv: list[str]) -> tuple[int, str]:
    """cli.main in process with its console output captured."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, err.getvalue()


def _cli_grid(lo: float, hi: float, steps: int) -> np.ndarray:
    """The angle grid cli.main builds for Exact/AB runs (zero nudged off)."""
    g = np.linspace(lo, hi, steps)
    return np.where(g == 0.0, 0.25 * (hi - lo) / (steps - 1), g)


def oracle_cross_section(vs, params, table, phi: float) -> float:
    """|f_ab + f1 + f2 + f3|^2 at one angle, rebuilt from the mode table with
    math.fsum, independently of the compensated sums being timed."""
    re, im = [], []
    for m in table:
        if m.regime == "near":
            w = 1.0 + m.c_n
        elif m.c_n != 0.0:
            w = m.c_n
        else:
            continue
        t = w * cmath.exp(1j * (math.pi * (abs(m.n) - abs(m.n - params.mu)) + m.n * phi))
        re.append(t.real)
        im.append(t.imag)
    f = vs.ab_amplitude(phi, params.mu) + 1j / math.sqrt(2.0 * math.pi) * complex(math.fsum(re), math.fsum(im))
    return abs(f) ** 2


def table_reasons(table) -> list[str]:
    out = []
    if max(abs(abs(m.s_n) - 1.0) for m in table) > UNITARITY_TOL:
        out.append("unitarity")
    if max(abs(table[0].c_n), abs(table[-1].c_n)) >= TAIL_CUTOFF:
        out.append("tail_c_n")
    return out


def _csv_rows(path: str) -> list[str]:
    with open(path) as fh:
        return fh.read().splitlines()


def _file_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


class Runner:
    """Executes and checks ops of one workload; CSVs go to ``csv_dir``."""

    def __init__(self, vs, cli, csv_dir: str):
        self.vs = vs
        self.cli = cli
        self.csv = {k: os.path.join(csv_dir, f"{k}.csv") for k in ("compare", "curve", "rainbow", "sweep")}
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self._interiors: set = set()

    def params(self, op):
        kappa = getattr(op, "kappa", 0.0)
        sigma = getattr(op, "sigma", 1)
        return self.vs.VortexParams(X=op.X, mu=op.mu, kappa=kappa, sigma=sigma)

    # -- argv ---------------------------------------------------------------

    def _compare_argv(self, op: ShellOp) -> list[str]:
        argv = ["compare", "--kr-c", repr(op.X), "--mu", repr(op.mu), "--kappa", _kappa_arg(op.kappa),
                "--sigma", str(op.sigma), f"--phi-min={-SHELL_WINDOW!r}", f"--phi-max={SHELL_WINDOW!r}",
                "--steps", str(op.steps), "--method", "Exact"]
        for m in SHELL_METHODS:
            argv += ["--method", m]
        return argv + ["--out", self.csv["compare"]]

    def _semi_argvs(self, op: SemiOp) -> list[tuple[str, list[str]]]:
        physics = ["--kr-c", repr(op.X), "--mu", repr(op.mu), "--steps", str(op.steps)]
        curve = ["curve", *physics]
        for m in SEMI_METHODS:
            curve += ["--method", m]
        out = [("curve", curve + ["--out", self.csv["curve"]])]
        if op.rainbow is not None:
            lo, hi = op.rainbow
            out.append(("rainbow", ["curve", *physics, f"--phi-min={lo!r}", f"--phi-max={hi!r}",
                                    "--method", "Rainbow", "--out", self.csv["rainbow"]]))
        out.append(("sweep", ["sweep", "--kr-c", repr(op.X), "--out", self.csv["sweep"]]))
        return out

    # -- plain ops ----------------------------------------------------------

    def execute(self, op):
        vs = self.vs
        if isinstance(op, SurveyOp):
            return vs.cross_section_curve(self.params(op), vs.default_angle_grid(op.angles), vs.EXACT)
        if isinstance(op, ShellOp):
            return [_call_cli(self.cli, self._compare_argv(op))]
        exits = [_call_cli(self.cli, argv) for _, argv in self._semi_argvs(op)]
        f2 = [vs.f2_asymptotic(a, op.mu, op.X, mode=mode)
              for mode in ("stationary", "direct") for a in op.f2_angles]
        return exits, f2

    # -- traced ops ---------------------------------------------------------

    def _interior(self, tr: Tracer, params) -> bool | None:
        """Drive the interior solve through inside_solution; None when the
        shell is impenetrable (no interior), else whether it was solved."""
        if math.isinf(params.kappa):
            return None
        key = (params.X, params.mu, params.sigma)
        with tr.span("radial.interior"):
            self.vs.inside_solution(0, params)
        if key in self._interiors:
            return False
        self._interiors.add(key)
        self.counts["radial.interior.solves"] += 1
        self.counts["radial.interior.modes"] += 2 * params.n_max + 1
        return True

    def _tally_table(self, table, angles: int):
        near = sum(m.regime == "near" for m in table)
        far_kept = sum(m.regime != "near" and m.c_n != 0.0 for m in table)
        c = self.counts
        c["radial.modes"] += len(table)
        c["radial.modes_near"] += near
        c["radial.modes_far_kept"] += far_kept
        c["radial.modes_truncated"] += len(table) - near - far_kept
        # an Exact curve sums the near modes three times (f1 twice) and the kept far modes once
        c["amplitudes.mode_angle_terms"] += (3 * near + far_kept) * angles
        mx = self.maxima
        mx["radial.tail_c_max"] = max(mx["radial.tail_c_max"], abs(table[0].c_n), abs(table[-1].c_n))
        mx["radial.unitarity_defect_max"] = max(mx["radial.unitarity_defect_max"],
                                                max(abs(abs(m.s_n) - 1.0) for m in table))

    def _probe(self, tr: Tracer, params, table, grid=None):
        """Re-run, outside the op, the edge cylinder functions of every kept
        mode and, given a grid, the three amplitude sums the curve makes."""
        vs = self.vs
        kept = [m.n for m in table if m.regime == "near" or m.c_n != 0.0]
        with tr.span("probe"):
            with tr.span("specfun"):
                for n in kept:
                    vs.outside_basis_at_edge(n, params)
            if grid is not None:
                with tr.span("amplitudes.ab_amplitude"):
                    vs.ab_amplitude(grid, params.mu)
                with tr.span("amplitudes.f1_sum"):
                    vs.f1_sum(grid, params)
                with tr.span("amplitudes.fc_sums"):
                    vs.fc_sums(grid, params, table)
        self.counts["specfun.calls"] += 4 * len(kept)

    def _traced_cli(self, tr: Tracer, name: str, argv: list[str], path: str, twins: float):
        with tr.span(name) as rec:
            rc, err = _call_cli(self.cli, argv)
        self.counts["cli.self_s"] += duration(rec) - twins
        self.counts["cli.nonzero_exits"] += rc != 0
        if os.path.exists(path):
            self.counts["cli.csv_bytes"] += os.path.getsize(path)
        return rc, err

    def execute_traced(self, op, tr: Tracer) -> tuple:
        """Returns (outcome as from execute, interior state of the op)."""
        vs = self.vs
        if isinstance(op, SurveyOp):
            p = self.params(op)
            grid = vs.default_angle_grid(op.angles)
            with tr.span("op"):
                solved = self._interior(tr, p)
                with tr.span("radial.match"):
                    table = vs.mode_table(p)
                with tr.span("amplitudes.curve"):
                    curve = vs.cross_section_curve(p, grid, vs.EXACT, table)
            self._tally_table(table, op.angles)
            self._probe(tr, p, table, grid)
            return curve, solved

        if isinstance(op, ShellOp):
            p = self.params(op)
            flipped = vs.VortexParams(X=op.X, mu=op.mu, kappa=op.kappa, sigma=-op.sigma)
            grid = _cli_grid(-SHELL_WINDOW, SHELL_WINDOW, op.steps)
            with tr.span("op"):
                states = [self._interior(tr, q) for q in (p, flipped)]
                tables = []
                for q in (p, flipped):
                    with tr.span("radial.match"):
                        tables.append(vs.mode_table(q))
                # the library calls cli compare repeats with the same inputs
                twins = 0.0
                for q, t in zip((p, flipped), tables):
                    with tr.span("amplitudes.curve") as rec:
                        vs.cross_section_curve(q, grid, vs.EXACT, t)
                    twins += duration(rec)
                for m in SHELL_METHODS:
                    with tr.span(f"asymptotics.{m}") as rec:
                        vs.cross_section_curve(p, grid, m, tables[0])
                    twins += duration(rec)
                    self.counts["asymptotics.evaluations"] += op.steps
                exit_ = self._traced_cli(tr, "cli.compare", self._compare_argv(op), self.csv["compare"], twins)
            for q, t, g in zip((p, flipped), tables, (grid, None)):
                self._tally_table(t, op.steps)
                self._probe(tr, q, t, g)
            solved = None if states[0] is None else any(states)
            return [exit_], solved

        p = self.params(op)
        grids = {"curve": _cli_grid(-math.pi + 1e-3, math.pi - 1e-3, op.steps)}
        if op.rainbow is not None:
            grids["rainbow"] = np.linspace(op.rainbow[0], op.rainbow[1], op.steps)
        exits = []
        with tr.span("op"):
            twins = {"curve": 0.0, "rainbow": 0.0, "sweep": 0.0}
            for method in SEMI_METHODS:
                with tr.span(f"asymptotics.{method}") as rec:
                    vs.cross_section_curve(p, grids["curve"], method)
                twins["curve"] += duration(rec)
            if op.rainbow is not None:
                with tr.span("asymptotics.Rainbow") as rec:
                    vs.cross_section_curve(p, grids["rainbow"], vs.RAINBOW)
                twins["rainbow"] += duration(rec)
            self.counts["asymptotics.evaluations"] += op.steps * (len(SEMI_METHODS) + (op.rainbow is not None))
            f2 = []
            for mode in ("stationary", "direct"):
                with tr.span(f"asymptotics.f2_{mode}"):
                    f2 += [vs.f2_asymptotic(a, op.mu, op.X, mode=mode) for a in op.f2_angles]
                self.counts["asymptotics.evaluations"] += len(op.f2_angles)
            # the sweep's fringe search has no public library twin: all of it is CLI self time
            for kind, argv in self._semi_argvs(op):
                name = "cli.sweep" if kind == "sweep" else "cli.curve"
                exits.append(self._traced_cli(tr, name, argv, self.csv[kind], twins[kind]))
        return (exits, f2), None

    # -- checks -------------------------------------------------------------

    def check(self, op, outcome) -> tuple[list[str], bytes]:
        """Failure reasons (empty when correct) and the op's output bytes."""
        if isinstance(op, SurveyOp):
            return self._check_survey(op, outcome)
        if isinstance(op, ShellOp):
            return self._check_shell(op, outcome)
        return self._check_semi(op, outcome)

    def _check_survey(self, op: SurveyOp, curve):
        v = curve.value
        if not (np.all(np.isfinite(v)) and np.all(v >= 0.0)):
            return ["curve_not_finite_or_negative"], v.tobytes()
        p = self.params(op)
        table = self.vs.mode_table(p)
        reasons = table_reasons(table)
        peak = float(v.max())
        for i in op.oracle_idx:
            if abs(v[i] - oracle_cross_section(self.vs, p, table, float(curve.phi[i]))) > ORACLE_TOL * peak:
                reasons.append("oracle")
                break
        return reasons, v.tobytes()

    def _check_shell(self, op: ShellOp, outcome):
        (rc, err), = outcome
        if rc != 0:
            return [f"exit_{rc}"], err.encode()
        path = self.csv["compare"]
        rows = _csv_rows(path)
        if len(rows) != 1 + len(SHELL_METHODS) * op.steps:
            return ["csv_rows"], _file_bytes(path)
        cells = [r.split(",") for r in rows[1:]]
        exact = np.array([float(c[2]) for c in cells])
        if not (np.all(np.isfinite(exact)) and np.all(exact >= 0.0)):
            return ["curve_not_finite_or_negative"], _file_bytes(path)
        p = self.params(op)
        reasons = []
        for q in (p, self.vs.VortexParams(X=op.X, mu=op.mu, kappa=op.kappa, sigma=-op.sigma)):
            reasons += table_reasons(self.vs.mode_table(q))
        table = self.vs.mode_table(p)
        peak = float(exact.max())
        for i in op.oracle_rows:
            phi = float(cells[i][0])
            if abs(exact[i] - oracle_cross_section(self.vs, p, table, phi)) > ORACLE_TOL * peak:
                reasons.append("oracle")
                break
        return sorted(set(reasons)), _file_bytes(path)

    def _check_semi(self, op: SemiOp, outcome):
        exits, f2 = outcome
        kinds = [k for k, _ in self._semi_argvs(op)]
        expected = {"curve": 1 + len(SEMI_METHODS) * op.steps, "rainbow": 1 + op.steps, "sweep": 1 + SWEEP_ROWS}
        reasons, data = [], []
        for kind, (rc, err) in zip(kinds, exits):
            if rc != 0:
                reasons.append(f"exit_{rc}")
                data.append(err.encode())
                continue
            blob = _file_bytes(self.csv[kind])
            if blob.count(b"\n") != expected[kind]:
                reasons.append("csv_rows")
            data.append(blob)
        if not all(cmath.isfinite(v) for v in f2):
            reasons.append("f2_not_finite")
        data.append(np.array(f2).tobytes())
        return reasons, b"".join(data)


def digest(blobs: list[bytes]) -> str:
    h = hashlib.sha256()
    for b in blobs:
        h.update(hashlib.sha256(b).digest())
    return h.hexdigest()[:16]
