"""System and constraint data model.

Holds the LTI system description (autonomous or with a constant input
channel), the per-system memo `per_system`, the box output constraint,
validation against the stability and observability rejection
thresholds, the problem check that the three methods share, the DC gain
and the output constraint bands used by the exact and level-set
computations.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import OBSERVABILITY_THRESHOLD, STABILITY_THRESHOLD
from .linalg import min_singular_value, spectral_radius


@dataclass(frozen=True)
class LtiSystem:
    """x(t+1) = A x(t) [+ B u],  y(t) = C x(t) [+ D u].

    B and D are None for an autonomous system.  If B is given and D is
    not, D defaults to zeros.  The matrices are read-only copies of the
    caller's, so `rho`, the spectral radius of A, and every quantity
    memoised by `per_system` are computed once per system.
    """

    A: np.ndarray
    C: np.ndarray
    B: np.ndarray | None = None
    D: np.ndarray | None = None

    def __post_init__(self):
        A = np.array(self.A, dtype=float, ndmin=2)
        C = np.array(self.C, dtype=float, ndmin=2)
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got shape {A.shape}")
        if C.shape[1] != A.shape[0]:
            raise ValueError(f"C has {C.shape[1]} columns but A is {A.shape[0]}x{A.shape[0]}")
        B = self.B
        D = self.D
        if B is None:
            if D is not None:
                raise ValueError("D given without B (no input channel)")
        else:
            B = np.array(B, dtype=float)
            if B.ndim == 1:
                B = B.reshape(-1, 1)
            if B.shape[0] != A.shape[0]:
                raise ValueError(f"B has {B.shape[0]} rows but A is {A.shape[0]}x{A.shape[0]}")
            if D is None:
                D = np.zeros((C.shape[0], B.shape[1]))
            else:
                D = np.array(D, dtype=float)
                if D.ndim == 1:
                    D = D.reshape(C.shape[0], -1)
                if D.shape != (C.shape[0], B.shape[1]):
                    raise ValueError(
                        f"D must be {C.shape[0]}x{B.shape[1]}, got {D.shape}"
                    )
        for name, M in (("A", A), ("B", B), ("C", C), ("D", D)):
            if M is not None:
                if not np.all(np.isfinite(M)):
                    raise ValueError(f"{name} has non-finite entries")
                M.setflags(write=False)
            object.__setattr__(self, name, M)

    def __setstate__(self, state):
        # Unpickled arrays come back writeable, the memoised ones too.
        for value in state.values():
            _read_only(value)
        self.__dict__.update(state)

    @cached_property
    def rho(self) -> float:
        """Spectral radius of A."""
        return spectral_radius(self.A)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def q(self) -> int:
        return self.C.shape[0]

    @property
    def m_in(self) -> int:
        return 0 if self.B is None else self.B.shape[1]

    @property
    def has_input(self) -> bool:
        return self.B is not None


def _read_only(value):
    """`value`, with it or each array in it (a tuple) made read-only."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif isinstance(value, tuple):
        for item in value:
            _read_only(item)
    return value


def per_system(fn):
    """Memoise `fn(sys)` on the system, for a quantity that does not depend on the box.

    The first call stores the value in the frozen `LtiSystem`'s
    `__dict__`, as `functools.cached_property` stores `rho`, under the
    function's qualified name; later calls read it back.  Any array it
    returns, alone or in a tuple, is made read-only, so every caller
    shares one value and none can change it; a pickled system carries
    it along, read-only.  An exception is not stored: the next call runs
    `fn` again and raises again.  `fn` looks up what it calls when it
    runs, so a patched module attribute takes effect on a system that
    has not stored the value yet.  Two threads may both compute a value
    on a fresh system; both get the same numbers.

    One value in the same `__dict__` is replaced rather than stored
    once: `powerseries` keeps there how far the `m1` recursion has been
    stepped, tuples of plain floats that no caller can change, and a
    call that steps further stores a longer record in its place.  Two threads may each
    store one; every record holds the same numbers for the steps it
    covers.
    """
    key = f"{fn.__module__}.{fn.__qualname__}"

    @functools.wraps(fn)
    def memo(sys: LtiSystem):
        stored = sys.__dict__
        if key not in stored:
            stored[key] = _read_only(fn(sys))
        return stored[key]

    return memo


@dataclass(frozen=True)
class OutputBox:
    """Per-output limits: -y_lower[j] <= y_j <= y_upper[j], for at least one output, all limits finite and > 0."""

    y_lower: np.ndarray
    y_upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.y_lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.y_upper, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError(f"y_lower/y_upper must be equal-length vectors, got {lo.shape}, {hi.shape}")
        if lo.size == 0:
            raise ValueError("box needs at least one output")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("box limits must be finite")
        if not (np.all(lo > 0.0) and np.all(hi > 0.0)):
            raise ValueError("all box limits must be strictly positive (origin interior)")
        object.__setattr__(self, "y_lower", lo)
        object.__setattr__(self, "y_upper", hi)

    @property
    def q(self) -> int:
        return self.y_lower.shape[0]

    def scaled(self, k: float) -> "OutputBox":
        return OutputBox(k * self.y_lower, k * self.y_upper)


@dataclass(frozen=True)
class ValidationReport:
    spectral_radius: float
    min_obsv_singular_value: float
    stable: bool
    observable: bool

    @property
    def ok(self) -> bool:
        return self.stable and self.observable


def observability_matrix(sys: LtiSystem) -> np.ndarray:
    """Stacked [C; CA; ...; CA^{n-1}]."""
    blocks = []
    M = sys.C
    for _ in range(sys.n):
        blocks.append(M)
        M = M @ sys.A
    return np.vstack(blocks)


def validate(
    sys: LtiSystem,
    box: OutputBox,
    stability_threshold: float = STABILITY_THRESHOLD,
    observability_threshold: float = OBSERVABILITY_THRESHOLD,
) -> ValidationReport:
    """Check the rejection rules: spectral radius and observability margin.

    Flags a system unstable when rho(A) >= stability_threshold and
    unobservable when the smallest singular value of the observability
    matrix falls below observability_threshold.
    """
    if box.q != sys.q:
        raise ValueError(f"box has {box.q} outputs but system has {sys.q}")
    rho = sys.rho
    sigma_min = min_singular_value(observability_matrix(sys))
    return ValidationReport(
        spectral_radius=rho,
        min_obsv_singular_value=sigma_min,
        stable=bool(rho < stability_threshold),
        observable=bool(sigma_min >= observability_threshold),
    )


def check_problem(sys: LtiSystem, box: OutputBox, epsilon: float | None = None) -> float:
    """Refuse a problem that `t*`, `m1` and `m2` do not accept; return rho(A).

    The box must hold one limit pair per output and A must be strictly
    stable.  With `epsilon` (the constant-input regime) the system must
    also have an input channel and epsilon must lie in (0, 1].
    """
    if box.q != sys.q:
        raise ValueError(f"box has {box.q} outputs but system has {sys.q}")
    if epsilon is not None:
        if not sys.has_input:
            raise ValueError("constant-input regime requires a system with an input channel (B)")
        if not 0.0 < epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    rho = sys.rho
    if rho >= 1.0:
        raise ValueError(f"the admissibility index requires spectral radius < 1, got {rho:.6g}")
    return rho


def gamma(box: OutputBox) -> float:
    """Largest asymmetry ratio of the box, max_j max(u_j/l_j, l_j/u_j) >= 1.

    On plain floats: for the few outputs of a box, numpy's call overhead
    would cost several times the arithmetic, once per `m1` call.
    """
    return max(max(u / l, l / u) for l, u in zip(box.y_lower.tolist(), box.y_upper.tolist()))


@per_system
def stable_dc_gain(sys: LtiSystem) -> np.ndarray:
    """Steady-state gain C (I - A)^{-1} B + D from the constant input to the output.

    The caller has checked rho(A) < 1 (`check_problem` with epsilon).
    Solved once per system (`per_system`); the gain is read-only.
    """
    if sys.m_in == 0:
        raise ValueError("the steady-state gain needs an input channel (B)")
    X = np.linalg.solve(np.eye(sys.n) - sys.A, sys.B)
    return sys.C @ X + sys.D


def output_bands(sys: LtiSystem, box: OutputBox, feed=None, epsilon: float = 1.0):
    """Two-sided output bands (M_b, lower_b, upper_b), each -lower_b <= M_b v <= upper_b.

    Yields without end.  Without `feed` the variables are the state and
    the bands are C A^t for t = 0, 1, ...  With it they are (z, v): a
    steady-state band [0, feed] against (1 - epsilon) times the box comes
    first, then [C A^t, feed] for t = 0, 1, ...
    """
    n = sys.n
    if feed is not None:
        steady = np.zeros((sys.q, n + feed.shape[1]))
        steady[:, n:] = feed
        yield steady, (1.0 - epsilon) * box.y_lower, (1.0 - epsilon) * box.y_upper
    M = sys.C
    while True:
        if feed is None:
            yield M, box.y_lower, box.y_upper
        else:
            band = np.empty_like(steady)
            band[:, :n] = M
            band[:, n:] = feed
            yield band, box.y_lower, box.y_upper
        # C A^t as (C A^{t-1}) A: the recorded exact results rest on this product order.
        M = M @ sys.A


# ---------------------------------------------------------------------------
# JSON system description (consumed by the CLI)
# ---------------------------------------------------------------------------

def _is_number(value) -> bool:
    """A JSON number: an int or float, but not a bool (which Python counts as an int)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _matrix_from_json(obj, key, optional=False):
    if key not in obj:
        if optional:
            return None
        raise ValueError(f"key '{key}': missing")
    raw = obj[key]
    if not isinstance(raw, list) or not raw:
        raise ValueError(f"key '{key}': must be a non-empty array of arrays")
    if not all(isinstance(row, list) and row for row in raw):
        raise ValueError(f"key '{key}': every row must be a non-empty array")
    width = len(raw[0])
    if any(len(row) != width for row in raw):
        raise ValueError(f"key '{key}': ragged rows")
    if not all(_is_number(v) for row in raw for v in row):
        raise ValueError(f"key '{key}': entries must be numbers")
    return _finite_array(raw, key)


def _vector_from_json(obj, key):
    if key not in obj:
        raise ValueError(f"key '{key}': missing")
    raw = obj[key]
    if not isinstance(raw, list) or not raw:
        raise ValueError(f"key '{key}': must be a non-empty array of numbers")
    if any(isinstance(v, list) for v in raw):
        raise ValueError(f"key '{key}': must be a flat array")
    if not all(_is_number(v) for v in raw):
        raise ValueError(f"key '{key}': entries must be numbers")
    return _finite_array(raw, key)


def _finite_array(raw, key):
    """The JSON numbers `raw` as a float array; an integer too large for a float is not finite."""
    try:
        M = np.array(raw, dtype=float)
    except OverflowError:
        M = None
    if M is None or not np.all(np.isfinite(M)):
        raise ValueError(f"key '{key}': entries must be finite")
    return M


def system_from_dict(obj: dict) -> tuple[LtiSystem, OutputBox, float | None]:
    """Build (system, box, epsilon) from the JSON description.

    Keys: "A" (n x n), optional "B" (n x m), "C" (q x n), optional "D"
    (q x m), "y_lower", "y_upper" (length q), optional "epsilon".
    """
    if not isinstance(obj, dict):
        raise ValueError("system description must be a JSON object")
    A = _matrix_from_json(obj, "A")
    B = _matrix_from_json(obj, "B", optional=True)
    C = _matrix_from_json(obj, "C")
    D = _matrix_from_json(obj, "D", optional=True)
    y_lower = _vector_from_json(obj, "y_lower")
    y_upper = _vector_from_json(obj, "y_upper")
    epsilon = obj.get("epsilon")
    if epsilon is not None:
        if not _is_number(epsilon):
            raise ValueError("key 'epsilon': must be a number")
        try:
            epsilon = float(epsilon)
        except OverflowError:  # an integer too large for a float
            epsilon = math.inf
        if not math.isfinite(epsilon):
            raise ValueError("key 'epsilon': must be finite")
    try:
        sys = LtiSystem(A=A, B=B, C=C, D=D)
    except ValueError as exc:
        raise ValueError(f"inconsistent system matrices: {exc}") from exc
    try:
        box = OutputBox(y_lower=y_lower, y_upper=y_upper)
    except ValueError as exc:
        raise ValueError(f"invalid constraint box: {exc}") from exc
    if box.q != sys.q:
        raise ValueError(
            f"key 'y_lower': length {box.q} does not match the {sys.q} output rows of 'C'"
        )
    return sys, box, epsilon


def load_system(path) -> tuple[LtiSystem, OutputBox, float | None]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    return system_from_dict(obj)
