"""Numeric tolerances and caps.

One tolerance is settable: `lp_tol`, taken by every function that solves
an LP.  It is both the HiGHS primal/dual feasibility tolerance and the
slack of the redundancy certificate, and defaults to `LP_TOL`.  The
MASBOUND_TOL environment variable overrides it (see :func:`from_env`)
for the CLI commands that read it: bound, exact and sweep-asymmetry.
Every other tolerance below is a fixed constant.
"""

from __future__ import annotations

import os

ENV_TOL_VAR = "MASBOUND_TOL"

LP_TOL = 1e-9
# HiGHS refuses feasibility tolerances below 1e-10.  Above 1e-6 the looser
# redundancy slack accepts rows that cut by less than it, and the forced
# exact index drops below its value at LP_TOL (at 1e-5 and 1e-4 on study
# systems of the seed-2026 generator).
LP_TOL_RANGE = (1e-10, 1e-6)
# Vertex handling.
VERTEX_DEDUP = 1e-8
VERTEX_FEASIBILITY = 1e-8
# Rows with coefficient norm below this are treated as all-zero.
ZERO_ROW = 1e-12
# Relative symmetry check for symmetric-eigensolver inputs.
SYMMETRY = 1e-10
# Relative residual accepted from the discrete Lyapunov solve.
LYAPUNOV_RESIDUAL = 1e-8
# Divergence guard for the power-series coefficient recursion.
BETA_GROWTH_LIMIT = 1e12

# Iteration caps (not tolerances, but centralized for the same reason).
POWER_SERIES_STEP_CAP = 10**6
EXACT_STEP_CAP = 10**5
VERTEX_DIM_CAP = 12

# Default rejection thresholds for system validation and the study generator.
STABILITY_THRESHOLD = 0.999
OBSERVABILITY_THRESHOLD = 1e-4


def from_env() -> float:
    """The LP tolerance: MASBOUND_TOL if set, else `LP_TOL`.

    The variable must parse as a float inside `LP_TOL_RANGE`; anything
    else raises ValueError with the offending text.
    """
    raw = os.environ.get(ENV_TOL_VAR)
    if raw is None:
        return LP_TOL
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"{ENV_TOL_VAR} must be a float, got {raw!r}") from None
    lo, hi = LP_TOL_RANGE
    if not lo <= value <= hi:
        raise ValueError(f"{ENV_TOL_VAR} must lie in [{lo:g}, {hi:g}], got {value:g}")
    return value
