"""Result records shared by the two bound methods."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class BoundReport:
    """Upper bound on the admissibility index, with method diagnostics.

    method is "power-series" or "lyapunov"; regime is "unforced" or
    "forced".  diagnostics carries method-specific extras: for the
    power-series method "stop_t", "stop_slack" (the stop rule's
    threshold less its left side at stop_t), "gamma" and "rho"; for the
    level-set method "sigma" (eq. (25)'s decay factor, which gives m),
    "m2_paper" and "sigma_paper" (the same levels with the paper's
    sigma = rho(A)^2, not a bound for non-normal A), "r1", "r2", the
    Lyapunov matrix "P", "boundary_integer", the prefix-set vertex count
    "vertices" and the "vertex_path" that enumerated them
    ("closed_form" or "qhull"); in the forced regime also "epsilon".
    "boundary_integer" flags a near tie of m: log(r1/r2)/log(sigma) within
    1e-9 of an integer, where the floor that gives m could round either
    way.  It is False from 2^52 on, where every float is an integer and
    the window would flag every ratio.
    """

    method: str
    regime: str
    m: int
    iterations: int | None = None
    diagnostics: dict = field(default_factory=dict)
