"""
vortexscatter: quantum scattering of charged particles by a penetrable
magnetic vortex.

Exact partial-wave solution of the two-dimensional scattering problem
for a spin-1/2 charged particle and a flux tube of finite radius with a
delta-shell edge barrier, together with the semiclassical closed forms
(edge diffraction, penetration, rainbow, classical limits, flux-line
amplitude) and a CLI for curve generation and comparisons.
"""

from .amplitudes import (
    AB,
    CLASSICAL,
    EXACT,
    FRAUNHOFER,
    METHOD_TAGS,
    PENETRATION,
    RAINBOW,
    CrossSectionCurve,
    ab_amplitude,
    cross_section_curve,
    default_angle_grid,
    f1_sum,
    fc_sums,
)
from .asymptotics import (
    ForbiddenModeError,
    StationaryPhaseReport,
    classical_cs,
    deflection,
    f2_asymptotic,
    fraunhofer_cs,
    penetration_cs,
    poisson_stationary_sum,
    rainbow_angle,
    rainbow_cs,
)
from .radial import (
    ModeMatch,
    ModeTable,
    SolverFailure,
    VortexParams,
    inside_solution,
    mode_table,
    outside_basis_at_edge,
)

__version__ = "0.1.0"

__all__ = [
    "AB", "CLASSICAL", "EXACT", "FRAUNHOFER", "METHOD_TAGS", "PENETRATION",
    "RAINBOW", "CrossSectionCurve", "ForbiddenModeError", "ModeMatch",
    "ModeTable", "SolverFailure", "StationaryPhaseReport", "VortexParams",
    "ab_amplitude", "classical_cs", "cross_section_curve",
    "default_angle_grid", "deflection", "f1_sum", "f2_asymptotic",
    "fc_sums", "fraunhofer_cs", "inside_solution", "mode_table",
    "outside_basis_at_edge", "penetration_cs", "poisson_stationary_sum",
    "rainbow_angle", "rainbow_cs",
]
