"""Centralized numeric tolerances.

Every comparison against zero in the package goes through an explicit
tolerance from this record, so the whole stack can be loosened or
tightened coherently.  The MASBOUND_TOL environment variable overrides
the shared LP feasibility / redundancy tolerance (see :func:`from_env`)
of the CLI commands that read it: bound, exact and sweep-asymmetry.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

ENV_TOL_VAR = "MASBOUND_TOL"


@dataclass(frozen=True)
class Tolerances:
    # LP feasibility and the redundancy certificate share one scale.
    lp_feasibility: float = 1e-9
    redundancy: float = 1e-9
    # Vertex handling.
    vertex_dedup: float = 1e-8
    vertex_feasibility: float = 1e-8
    # Rows with coefficient norm below this are treated as all-zero.
    zero_row: float = 1e-12
    # Relative symmetry check for symmetric-eigensolver inputs.
    symmetry: float = 1e-10
    # Relative residual accepted from the discrete Lyapunov solve.
    lyapunov_residual: float = 1e-8
    # Divergence guard for the power-series coefficient recursion.
    beta_growth_limit: float = 1e12


DEFAULT_TOLS = Tolerances()

# Iteration caps (not tolerances, but centralized for the same reason).
POWER_SERIES_STEP_CAP = 10**6
EXACT_STEP_CAP = 10**5
VERTEX_DIM_CAP = 12

# Default rejection thresholds for system validation and the study generator.
STABILITY_THRESHOLD = 0.999
OBSERVABILITY_THRESHOLD = 1e-4


def from_env(base: Tolerances = DEFAULT_TOLS) -> Tolerances:
    """Return `base` with MASBOUND_TOL applied to the shared LP tolerance.

    The variable must parse as a positive float; anything else raises
    ValueError with the offending text.
    """
    raw = os.environ.get(ENV_TOL_VAR)
    if raw is None:
        return base
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"{ENV_TOL_VAR} must be a float, got {raw!r}") from None
    if not value > 0.0:
        raise ValueError(f"{ENV_TOL_VAR} must be positive, got {value}")
    return replace(base, lp_feasibility=value, redundancy=value)
