"""Seeded, stratified inputs for the three perfbench workloads.

This module never imports vortexscatter: the program under test receives
only the inputs generated here.  Every workload is a sequence of rounds;
a round is a fixed-composition list of op inputs, so any whole number of
rounds has the same stratum mix, and the rounds are sized so that the
median and tail op times fall inside a stratum, not between two.

Strata
------
``survey`` rounds hold 14 ops over X in {30, 100, 200, 480} and the shell
kinds {kappa = 0, log-uniform 0.1-100, inf} (``SURVEY_ROUND``).  The
impenetrable shell skips the interior solve, so the kind moves an op's
time as much as X does, and op times jitter by about 10 % on a shared
2-core host: the order statistics must sit in the middle of large groups.
Sorted by time, R rounds put the median in the middle of the 4R X=100
penetrable ops and the tail (10 ops beyond it) among the 3R X=200
penetrable ones, for 3 <= R <= 8.  ``semiclassical`` rounds hold 3, 4, 4
and 1 ops at the four X; times rise with X, and the median falls inside
the X=100 group for 3 <= R <= 12, the tail inside the X=200 group for
R <= 10 (from 11 on among the X=480 ops, which overlap it in time).
Within each X the flux ratio 2|mu|/X is stratified into bins of width
0.1, cycled in a seeded order.  The bins stop at ``FLUX_CAP[X]``: beyond
it the current mode window (ROADMAP item 3) crashes or truncates the table
above the 1e-14 tail cutoff, which ``strata_probe.py`` lists; a benchmark
op must not fail.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

#: (X, number of impenetrable ops, number of penetrable ops) per survey round;
#: a penetrable op draws kappa = 0 or a log-uniform kappa with equal odds
SURVEY_ROUND = ((30.0, 1, 2), (100.0, 1, 4), (200.0, 1, 3), (480.0, 1, 1))
#: semiclassical ops per round at each X
SEMI_X_COUNTS = ((30.0, 3), (100.0, 4), (200.0, 4), (480.0, 1))
FLUX_BIN = 0.1
#: largest 2|mu|/X at which the current solver passes every check (any kappa, sigma, sign)
FLUX_CAP = {30.0: 2.0, 100.0: 0.9, 200.0: 0.5, 480.0: 0.4}
#: full flux range of the paper: weak field below 1, strong field above
FLUX_FULL = 2.0

SHELL_KAPPAS = (0.0, 0.1, 0.5, 1.0, 3.0, 10.0, 100.0, math.inf)
#: one X=100 scan and two X=200 scans per round: with equal counts the
#: median would sit on the X=100 / X=200 boundary
SHELL_XS = (100.0, 200.0, 200.0)
SHELL_WINDOW = 0.6

SURVEY_ANGLES = 2001
SHELL_STEPS = 2001
SEMI_STEPS = 2001
F2_ANGLES = 24
ORACLE_ANGLES = 5


@dataclass(frozen=True)
class Size:
    """Scale of the generated inputs; ``TINY`` serves the self-test."""

    survey_round: tuple
    semi_x_counts: tuple
    shell_xs: tuple
    survey_angles: int
    shell_steps: int
    semi_steps: int
    f2_angles: int


FULL = Size(SURVEY_ROUND, SEMI_X_COUNTS, SHELL_XS, SURVEY_ANGLES, SHELL_STEPS, SEMI_STEPS, F2_ANGLES)
TINY = Size(((30.0, 1, 1),), ((30.0, 1),), (30.0,), 201, 201, 201, 4)


@dataclass(frozen=True)
class SurveyOp:
    X: float
    mu: float
    kappa: float
    sigma: int
    angles: int
    oracle_idx: tuple  # grid indices checked against the fsum oracle


@dataclass(frozen=True)
class ShellOp:
    X: float
    mu: float
    kappa: float
    sigma: int
    steps: int
    oracle_rows: tuple  # CSV rows (0-based, Exact block) checked against the oracle


@dataclass(frozen=True)
class SemiOp:
    X: float
    mu: float
    steps: int
    rainbow: tuple | None  # (phi_min, phi_max) of the rainbow window, weak field only
    f2_angles: tuple  # angles inside the penetration window


def _flux_bins(X: float) -> list[tuple[float, float]]:
    n = round(FLUX_CAP[X] / FLUX_BIN)
    return [(k * FLUX_BIN, (k + 1) * FLUX_BIN) for k in range(n)]


def _bin_cycle(rng: random.Random, X: float):
    """Endless stream of flux bins for one X, each pass in a fresh order."""
    bins = _flux_bins(X)
    while True:
        order = bins[:]
        rng.shuffle(order)
        yield from order


def _draw_mu(rng: random.Random, X: float, lo: float, hi: float) -> float:
    ratio = lo + (hi - lo) * (1.0 - rng.random())  # in (lo, hi], never 0
    return rng.choice((1.0, -1.0)) * ratio * X / 2.0


def _draw_kappa(rng: random.Random, kind: str) -> float:
    if kind == "inf":
        return math.inf
    return rng.choice((0.0, 10.0 ** rng.uniform(-1.0, 2.0)))


def _stratified(rng: random.Random, strata: list[tuple]):
    """Endless rounds of the given (X, kind) strata, each with a flux bin,
    in a seeded order."""
    cycles = {X: _bin_cycle(rng, X) for X, _ in strata}
    while True:
        rnd = [(X, kind, next(cycles[X])) for X, kind in strata]
        rng.shuffle(rnd)
        yield rnd


def _survey_op(rng: random.Random, X: float, kind: str, lo: float, hi: float, size: Size) -> SurveyOp:
    mu = _draw_mu(rng, X, lo, hi)
    return SurveyOp(X=X, mu=mu, kappa=_draw_kappa(rng, kind), sigma=rng.choice((1, -1)),
                    angles=size.survey_angles,
                    oracle_idx=tuple(sorted(rng.sample(range(size.survey_angles), ORACLE_ANGLES))))


def rainbow_window(mu: float, X: float) -> tuple[float, float] | None:
    """Two Airy half-widths either side of the rainbow angle (weak field)."""
    if 2.0 * abs(mu) >= X:
        return None
    centre = -math.copysign(2.0 * math.asin(2.0 * abs(mu) / X), mu)
    half = 2.0 * 6.0 * (2.0 * abs(mu)) ** (-2.0 / 3.0) / math.sqrt((X / (2.0 * mu)) ** 2 - 1.0)
    edge = math.pi - 1e-3
    return max(centre - half, -edge), min(centre + half, edge)


def penetration_angles(mu: float, X: float, n: int) -> tuple:
    """n angles across the classically allowed penetration window."""
    if 2.0 * abs(mu) < X:
        edge = 2.0 * math.asin(2.0 * abs(mu) / X)
    else:
        edge = math.pi
    side = -math.copysign(1.0, mu)
    return tuple(side * edge * (k + 0.5) / n for k in range(n))


def _semi_op(rng: random.Random, X: float, kind: None, lo: float, hi: float, size: Size) -> SemiOp:
    mu = _draw_mu(rng, X, lo, hi)
    return SemiOp(X=X, mu=mu, steps=size.semi_steps, rainbow=rainbow_window(mu, X),
                  f2_angles=penetration_angles(mu, X, size.f2_angles))


def _shell_rounds(rng: random.Random, size: Size):
    while True:
        rnd = []
        for X in size.shell_xs:
            mu = 10.0 + rng.uniform(-0.5, 0.5)
            sigma = rng.choice((1, -1))
            for kappa in SHELL_KAPPAS:
                rows = tuple(sorted(rng.sample(range(size.shell_steps), ORACLE_ANGLES)))
                rnd.append(ShellOp(X=X, mu=mu, kappa=kappa, sigma=sigma,
                                   steps=size.shell_steps, oracle_rows=rows))
        yield rnd


WORKLOADS = ("survey", "shell_scan", "semiclassical")


def rounds(workload: str, seed: int, size: Size = FULL):
    """Endless generator of rounds (lists of op inputs) for one workload."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "shell_scan":
        yield from _shell_rounds(rng, size)
        return
    if workload == "survey":
        make, strata = _survey_op, [(X, kind) for X, n_inf, n_pen in size.survey_round
                                    for kind in ["inf"] * n_inf + ["pen"] * n_pen]
    else:
        make, strata = _semi_op, [(X, None) for X, count in size.semi_x_counts for _ in range(count)]
    for rnd in _stratified(rng, strata):
        yield [make(rng, X, kind, lo, hi, size) for X, kind, (lo, hi) in rnd]


def warmup_op(workload: str, size: Size = FULL):
    """One op on inputs outside every measured stratum (X=40 is never drawn)."""
    X, mu = 40.0, 3.3
    if workload == "survey":
        return SurveyOp(X=X, mu=mu, kappa=1.0, sigma=1, angles=size.survey_angles,
                        oracle_idx=(0, size.survey_angles // 2, size.survey_angles - 1))
    if workload == "shell_scan":
        return ShellOp(X=X, mu=mu, kappa=1.0, sigma=1, steps=size.shell_steps,
                       oracle_rows=(0, size.shell_steps - 1))
    return SemiOp(X=X, mu=mu, steps=size.semi_steps, rainbow=rainbow_window(mu, X),
                  f2_angles=penetration_angles(mu, X, size.f2_angles))
