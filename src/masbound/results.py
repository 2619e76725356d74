"""Result records shared by the two bound methods."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class BoundReport:
    """Upper bound on the admissibility index, with method diagnostics.

    method is "power-series" or "lyapunov"; regime is "unforced" or
    "forced".  diagnostics carries method-specific extras: for the
    power-series method "stop_t", "gamma" and "rho"; for the level-set
    method "sigma", "sigma_mode", "r1", "r2", the Lyapunov matrix "P",
    "boundary_integer", the prefix-set vertex count "vertices" and the
    "vertex_path" that enumerated them ("closed_form" or "qhull"); in
    the forced regime also "epsilon".
    """

    method: str
    regime: str
    m: int
    iterations: int | None = None
    diagnostics: dict = field(default_factory=dict)
