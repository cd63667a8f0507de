"""
Command-line front end: curve generation, flux sweeps, comparison reports.

Subcommands
-----------
``curve``    sample cross sections for one scenario and write CSV
``sweep``    track diffraction-fringe peaks of the closed form over a
             flux grid (the flux periodicity shows as identical rows at
             mu and mu+1); the peaks of all rows are refined together
``compare``  exact-vs-asymptotic report with L2 summaries, the unitarity
             worst case, the diffraction/penetration interference
             residual and the spin-flip difference; nonzero exit when a
             configured tolerance is exceeded

Scenario parameters come from flags or from a plain ``key=value`` file
(one pair per line, ``#`` comments).  Each key has one conversion and one
default: the file overrides the default and flags override the file
(``--method`` flags replace the file's ``methods``).  Every command
refuses (exit 2) a key that no command reads and a file value that its
key cannot convert; a flag and a file value out of range, such as
``sigma = 2``, get the same message.  The impenetrable shell is spelled
``--kappa inf``.  All numeric CSV output
uses 17 significant digits, so identical inputs give byte-identical
files; the rows are built column-wise, one format call per cell.

Exit codes: 0 success, 1 tolerance exceeded, 2 invalid input,
3 compute failure.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import amplitudes as amp
from . import asymptotics as asy
from .radial import SolverFailure, VortexParams, mode_table

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_INVALID = 2
EXIT_COMPUTE = 3

_CSV_HEADER = "phi,method,value,f1_re,f1_im,f2_re,f2_im,f3_re,f3_im,fab_re,fab_im"


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_csv(path: str, lines: list[str]) -> None:
    """Write the CSV rows, each ending in a bare newline on every
    platform; called once a run has computed all of them."""
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


@dataclass
class Scenario:
    """One CLI run: physics parameters, angle grid, methods, output."""

    params: VortexParams
    grid: tuple[float, float, int] = (-math.pi + 1e-3, math.pi - 1e-3, 2001)
    methods: tuple[str, ...] = (amp.EXACT,)
    output_path: str = "curves.csv"
    rescale_rc: bool = False

    def __post_init__(self):
        lo, hi, steps = self.grid
        if not (-math.pi < lo < hi < math.pi):
            raise ValueError("angle grid must lie inside (-pi, pi) with phi_min < phi_max")
        if steps < 2:
            raise ValueError("need at least 2 grid steps")
        if not self.methods:
            raise ValueError("at least one method is required")
        for m in self.methods:
            if m not in amp.METHOD_TAGS:
                raise ValueError(f"unknown method {m!r}; expected one of {amp.METHOD_TAGS}")

    def angles(self) -> np.ndarray:
        lo, hi, steps = self.grid
        g = np.linspace(lo, hi, steps)
        if {amp.EXACT, amp.AB} & set(self.methods):
            # nudge the zero sample off the flux-line singularity; linspace
            # may leave a roundoff residue of a few ulp of the ends there
            zero = np.abs(g) <= 4.0 * np.finfo(float).eps * max(abs(lo), abs(hi))
            g = np.where(zero, 0.25 * (hi - lo) / (steps - 1), g)
        return g


def regime_warnings(params: VortexParams) -> list[str]:
    """Out-of-regime parameters produce warnings, never silent acceptance."""
    out = []
    if not params.is_large_radius:
        out.append(f"warning: short-wavelength regime kr_c >> 1 violated (kr_c = {params.X:g})")
    if not params.flux_regime_ok:
        out.append(
            "warning: weak-flux bound |mu| << (kr_c)^2/2 violated "
            f"(|mu| = {abs(params.mu):g}, (kr_c)^2/2 = {params.X ** 2 / 2:g})")
    return out


def _curves(scenario: Scenario):
    """The pass that ``run_scenario`` and ``compare_report`` share: print
    the regime warnings, then build the angle grid, its CSV cells, the
    mode table (when Exact is asked for) and one curve per method, in
    the scenario's order."""
    for w in regime_warnings(scenario.params):
        print(w, file=sys.stderr)
    params = scenario.params
    grid = scenario.angles()
    table = mode_table(params) if amp.EXACT in scenario.methods else None
    curves = [amp.cross_section_curve(params, grid, m, table) for m in scenario.methods]
    return grid, [_fmt(phi) for phi in grid.tolist()], table, curves


def run_scenario(scenario: Scenario) -> str:
    """Compute every requested curve and write one CSV file.

    Amplitude columns are populated only for the Exact method; the other
    methods leave them empty.  Returns the output path.
    """
    _, phis, _, curves = _curves(scenario)
    scale = 1.0 / scenario.params.X if scenario.rescale_rc else 1.0
    lines = [_CSV_HEADER]
    for method, curve in zip(scenario.methods, curves):
        values = (curve.value * scale).tolist()
        if method == amp.EXACT:
            amps = (curve.extras[k].tolist() for k in ("f1", "f2", "f3", "f_ab"))
            lines += [f"{phi},{method},{v:.17g},{f1.real:.17g},{f1.imag:.17g},"
                      f"{f2.real:.17g},{f2.imag:.17g},{f3.real:.17g},{f3.imag:.17g},"
                      f"{fab.real:.17g},{fab.imag:.17g}"
                      for phi, v, f1, f2, f3, fab in zip(phis, values, *amps)]
        else:
            lines += [f"{phi},{method},{v:.17g},,,,,,,," for phi, v in zip(phis, values)]
    _write_csv(scenario.output_path, lines)
    return scenario.output_path


# ---------------------------------------------------------------------------
# fringe sweep
# ---------------------------------------------------------------------------

def _fringe_peaks(mu_grid, X: float) -> list[list[tuple[float, float]]]:
    """Peaks of the closed-form diffraction pattern within the central
    lobe |phi| <= 2 pi / X at each flux of ``mu_grid``, located as roots
    of the analytic derivative (root-finding keeps peak positions
    reproducible to ~1e-14, which a value-based maximiser cannot do).
    All fluxes share one derivative grid and one root call.

    The pattern is exactly periodic in the flux with period 1, so mu is
    reduced mod 1 first; rows at mu and mu+1 then come out bit-identical
    whenever the reduced fluxes are the same float.  Up to two dominant
    peaks are reported per row, left to right; peaks whose heights agree
    within 1e-12 relative (the mirror-image side lobes at integer mu,
    which differ by roundoff alone) rank by the smaller phi.
    """
    mu = np.asarray(mu_grid, dtype=float)
    mu = mu - np.floor(mu)
    grid = np.linspace(-2.0 * math.pi / X, 2.0 * math.pi / X, 801)
    dvals = asy.fraunhofer_cs_dphi(grid, mu[:, None], X)
    rows, cols = np.nonzero((dvals[:, :-1] > 0.0) & (dvals[:, 1:] <= 0.0))  # maximum brackets
    roots = asy.bracketed_roots(lambda p, i: asy.fraunhofer_cs_dphi(p, mu[rows[i]], X),
                                grid[cols], grid[cols + 1], dvals[rows, cols],
                                dvals[rows, cols + 1], xtol=1e-15, rtol=8.9e-16)
    values = asy.fraunhofer_cs(roots, mu[rows], X)
    peaks = [[] for _ in mu]
    for row, phi, value in zip(rows.tolist(), roots.tolist(), values.tolist()):
        peaks[row].append((phi, value))
    return [_dominant(row) for row in peaks]


def _dominant(peaks: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """The two highest of the (phi, value) peaks, listed by increasing phi;
    of heights within 1e-12 relative the one at smaller phi ranks first."""
    ranked = []
    while peaks and len(ranked) < 2:
        top = max(v for _, v in peaks)
        ranked.append(next(p for p in peaks if p[1] >= (1.0 - 1e-12) * top))
        peaks = [p for p in peaks if p is not ranked[-1]]
    return sorted(ranked)


def fringe_sweep(base: VortexParams, mu_grid, output_path: str) -> str:
    """Track the one or two dominant diffraction-fringe peaks over a flux
    grid and write ``mu,peak_phi_1,peak_value_1,peak_phi_2,peak_value_2``.

    Peak columns are exactly periodic in mu with period 1; a row with a
    single peak leaves the second pair of cells empty.
    """
    if base.X < 2.0:
        raise ValueError(f"sweep needs kr_c >= 2, got kr_c = {base.X:g}: the central "
                         "lobe |phi| <= 2 pi/kr_c must not pass phi = pi")
    mu_grid = list(mu_grid)
    if not mu_grid or any(not (0.0 <= m <= 3.0) for m in mu_grid):
        raise ValueError("flux sweep grid must be non-empty and lie in [0, 3]")
    lines = ["mu,peak_phi_1,peak_value_1,peak_phi_2,peak_value_2"]
    for mu, peaks in zip(mu_grid, _fringe_peaks(mu_grid, base.X)):
        cells = [_fmt(mu)] + [_fmt(v) for peak in peaks for v in peak]
        lines.append(",".join(cells + [""] * (5 - len(cells))))
    _write_csv(output_path, lines)
    return output_path


# ---------------------------------------------------------------------------
# comparison report
# ---------------------------------------------------------------------------

@dataclass
class CompareReport:
    l2: dict = field(default_factory=dict)
    unitarity_worst: float = math.nan
    interference_rel_l2: float = math.nan
    spin_difference: float = math.nan
    failures: list = field(default_factory=list)

    def summary(self) -> str:
        out = []
        for method, val in self.l2.items():
            out.append(f"rel L2 (Exact vs {method}): {val:.6g}")
        out.append(f"unitarity worst ||s_n|-1|: {self.unitarity_worst:.6g}")
        out.append(f"interference residual rel L2: {self.interference_rel_l2:.6g}")
        out.append(f"spin-flip curve difference (rel L2): {self.spin_difference:.6g}")
        for f in self.failures:
            out.append(f"TOLERANCE EXCEEDED: {f}")
        return "\n".join(out)


def compare_report(scenario: Scenario, max_l2: float | None = None,
                   max_unitarity: float | None = None) -> CompareReport:
    """Exact-vs-asymptotic comparison on the scenario grid.

    Per-angle relative differences go to the CSV at the scenario output
    path; the returned report carries the L2 summaries, the worst
    unitarity defect, the f1/f2 interference residual (relative L2 over
    angles outside the forward peak, |phi| > 5/X) and the spin-flip
    curve difference.  Configured tolerances add failure entries; the
    CLI maps those to exit code 1.  A tolerance must be a number >= 0
    (inf sets no limit): NaN would compare false and pass everything.
    """
    for flag, tol in (("--max-l2", max_l2), ("--max-unitarity", max_unitarity)):
        if tol is not None and not tol >= 0.0:
            raise ValueError(f"{flag} must be >= 0 (inf for no limit), got {tol}")
    if amp.EXACT not in scenario.methods or set(scenario.methods) == {amp.EXACT}:
        raise ValueError("compare needs the Exact method plus at least one other")
    params = scenario.params
    grid, phis, table, curves = _curves(scenario)
    exact = curves[scenario.methods.index(amp.EXACT)]
    report = CompareReport()

    report.unitarity_worst = float(np.abs(np.abs(table.s_n) - 1.0).max())

    mask = np.abs(grid) > 5.0 / params.X
    resid = exact.extras["interference"][mask]
    denom = (exact.extras["f1_sq"] + exact.extras["f2_sq"])[mask]
    report.interference_rel_l2 = float(
        np.linalg.norm(resid) / max(np.linalg.norm(denom), 1e-300))

    flipped = replace(params, sigma=-params.sigma)
    other = amp.cross_section_curve(flipped, grid, amp.EXACT)
    report.spin_difference = float(
        np.linalg.norm(exact.value - other.value)
        / max(np.linalg.norm(exact.value), 1e-300))

    lines = ["phi,method,exact,asymptotic,rel_diff"]
    exact_cells = [_fmt(v) for v in exact.value.tolist()]
    floor = 1e-12 * max(float(np.max(exact.value)), 1e-300)
    for method, curve in zip(scenario.methods, curves):
        if method == amp.EXACT:
            continue
        rel = np.abs(curve.value - exact.value) / np.maximum(exact.value, floor)
        l2 = float(np.linalg.norm(curve.value - exact.value)
                   / max(np.linalg.norm(exact.value), 1e-300))
        report.l2[method] = l2
        lines += [f"{phi},{method},{e},{v:.17g},{r:.17g}" for phi, e, v, r
                  in zip(phis, exact_cells, curve.value.tolist(), rel.tolist())]
        if max_l2 is not None and l2 > max_l2:
            report.failures.append(f"rel L2 for {method} = {l2:.3g} > {max_l2:g}")
    if max_unitarity is not None and report.unitarity_worst > max_unitarity:
        report.failures.append(
            f"unitarity defect {report.unitarity_worst:.3g} > {max_unitarity:g}")

    _write_csv(scenario.output_path, lines)
    return report


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

def _method_list(text: str) -> list[str]:
    return [m.strip() for m in text.split(";") if m.strip()]


#: every key a scenario file may set, with the conversion of its text and
#: its default (kr_c has none); sweep reads curve and compare files
_KEYS = {"kr_c": (float, None), "mu": (float, 0.0), "kappa": (float, 0.0), "sigma": (int, 1),
         "phi_min": (float, Scenario.grid[0]), "phi_max": (float, Scenario.grid[1]),
         "steps": (int, Scenario.grid[2]), "methods": (_method_list, Scenario.methods),
         "out": (str, Scenario.output_path), "units": (str, "k")}
_UNITS = ("k", "rc")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="vortex-scatter",
        description="Differential cross sections for scattering by a penetrable magnetic vortex")
    sub = p.add_subparsers(dest="command", required=True)

    def add_physics(sp, with_vortex=True):
        sp.add_argument("--scenario", help="key=value scenario file; flags override it")
        sp.add_argument("--kr-c", type=float, help="dimensionless vortex radius k r_c")
        sp.add_argument("--out", help="output CSV path")
        if with_vortex:  # the sweep's closed-form pattern depends on k r_c alone
            sp.add_argument("--mu", type=float, help="flux in flux quanta")
            sp.add_argument("--kappa", type=float,
                            help="shell strength kappa/k; 'inf' for the impenetrable vortex")
            sp.add_argument("--sigma", type=int, help="spin projection, +1 or -1")
            sp.add_argument("--phi-min", type=float)
            sp.add_argument("--phi-max", type=float)
            sp.add_argument("--steps", type=int)
            sp.add_argument("--method", action="append", dest="methods",
                            help=f"one of {amp.METHOD_TAGS}; repeatable")

    c = sub.add_parser("curve", help="sample cross-section curves to CSV")
    add_physics(c)
    c.add_argument("--units", help="report k d(sigma)/(dz dphi) ('k') or divide by k r_c ('rc')")

    s = sub.add_parser("sweep", help="flux sweep of diffraction-fringe peaks")
    add_physics(s, with_vortex=False)
    s.add_argument("--mu-min", type=float, default=0.0)
    s.add_argument("--mu-max", type=float, default=3.0)
    s.add_argument("--mu-steps", type=int, default=13)

    r = sub.add_parser("compare", help="exact-vs-asymptotic comparison report")
    add_physics(r)
    r.add_argument("--max-l2", type=float, default=None,
                   help="fail (exit 1) if any method's rel L2 exceeds this (>= 0, inf for no limit)")
    r.add_argument("--max-unitarity", type=float, default=None,
                   help="fail (exit 1) if the worst ||s_n|-1| exceeds this (>= 0, inf for no limit)")
    return p


def _settings(args, **defaults) -> dict:
    """Every scenario setting: the key's default (or the command's, from
    ``defaults``), replaced by the scenario file's value, replaced by the
    flag's."""
    values = {key: default for key, (_, default) in _KEYS.items()} | defaults
    if args.scenario:
        with open(args.scenario) as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"malformed scenario line: {raw.strip()!r}")
                key, val = (part.strip() for part in line.split("=", 1))
                if key not in _KEYS:
                    raise ValueError(f"unknown scenario key {key!r} in {args.scenario}; "
                                     f"expected one of {', '.join(_KEYS)}")
                values[key] = _KEYS[key][0](val)
    values |= {key: v for key in _KEYS if (v := getattr(args, key, None)) is not None}
    if values["kr_c"] is None:
        raise ValueError("kr_c is required (flag --kr-c or scenario file)")
    return values


def _scenario_from_args(args) -> Scenario:
    s = _settings(args)
    params = VortexParams(X=s["kr_c"], mu=s["mu"], kappa=s["kappa"], sigma=s["sigma"])
    if s["units"] not in _UNITS:
        raise ValueError(f"units must be one of {_UNITS}, got {s['units']!r}")
    canon = {m.lower(): m for m in amp.METHOD_TAGS}
    return Scenario(params=params, grid=(s["phi_min"], s["phi_max"], s["steps"]),
                    methods=tuple(dict.fromkeys(canon.get(m.lower(), m) for m in s["methods"])),
                    output_path=s["out"], rescale_rc=(s["units"] == "rc"))


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a value such as -5e-05 or -inf after a space as an
    # option; joined to its flag by "=" it is read as the value
    for i in range(len(argv) - 1, 0, -1):
        flag, value = argv[i - 1], argv[i]
        if flag[:2] == "--" and "=" not in flag and re.match(r"-\.?\d|-inf", value, re.I):
            argv[i - 1:i + 1] = [f"{flag}={value}"]
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "sweep":
            s = _settings(args, out="fringes.csv")
            mu_grid = np.linspace(args.mu_min, args.mu_max, args.mu_steps)
            path = fringe_sweep(VortexParams(X=s["kr_c"], mu=0.0), mu_grid, s["out"])
            print(f"wrote {path}")
            return EXIT_OK
        scenario = _scenario_from_args(args)
        if args.command == "curve":
            print(f"wrote {run_scenario(scenario)}")
            return EXIT_OK
        report = compare_report(scenario, max_l2=args.max_l2, max_unitarity=args.max_unitarity)
        print(report.summary())
        return EXIT_TOLERANCE if report.failures else EXIT_OK
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except SolverFailure as exc:
        print(f"compute error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
