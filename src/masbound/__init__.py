"""masbound: admissibility-index bounds and exact maximal admissible sets
for constrained discrete-time LTI systems.

The namespace holds the quickstart and CLI calls and the result,
configuration and error types they return or raise; every other name
lives in its module.
"""

from .errors import (
    IterationCapError,
    LpError,
    MasboundError,
    NumericalError,
    UnboundedPolytopeError,
)
from .exact import MasResult, exact_t_star_forced, exact_t_star_unforced
from .geometry import Polytope
from .lyapunov import bound_m2_forced, bound_m2_unforced
from .model import LtiSystem, OutputBox, load_system
from .montecarlo import StudyConfig, StudyRow, SweepRow, asymmetry_sweep, demo_system, run_study
from .powerseries import bound_m1_forced, bound_m1_unforced
from .results import BoundReport

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "IterationCapError",
    "LpError",
    "LtiSystem",
    "MasResult",
    "MasboundError",
    "NumericalError",
    "OutputBox",
    "Polytope",
    "StudyConfig",
    "StudyRow",
    "SweepRow",
    "UnboundedPolytopeError",
    "asymmetry_sweep",
    "bound_m1_forced",
    "bound_m1_unforced",
    "bound_m2_forced",
    "bound_m2_unforced",
    "demo_system",
    "exact_t_star_forced",
    "exact_t_star_unforced",
    "load_system",
    "run_study",
]
