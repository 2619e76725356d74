"""Random-system study harness.

Generates random stable single-output systems (with the documented
rejection rules), computes the exact admissibility index and both upper
bounds in the unforced and constant-input regimes for each, and
aggregates tightness statistics.  Also provides the constraint-asymmetry
sweep on a built-in oscillatory third-order demo system.
"""

from __future__ import annotations

import logging
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import block_diag

from .config import DEFAULT_TOLS, OBSERVABILITY_THRESHOLD, STABILITY_THRESHOLD, Tolerances
from .errors import IterationCapError, MasboundError
from .exact import exact_t_star_forced, exact_t_star_unforced
from .linalg import spectral_radius
from .lyapunov import bound_m2, bound_m2_forced, bound_m2_unforced
from .model import LtiSystem, OutputBox, validate
from .powerseries import bound_m1_forced, bound_m1_unforced

logger = logging.getLogger(__name__)

CSV_HEADER = "system_id,seed,n,rho,t_star,m1,m2,t_star_forced,m1_forced,m2_forced,epsilon,status"
# Consecutive rejected draws after which the generator gives up.
MAX_ATTEMPTS = 1000


@dataclass(frozen=True)
class StudyConfig:
    count: int = 300
    seed: int = 0
    epsilon: float = 0.01
    order_min: int = 1
    order_max: int = 8
    stability_threshold: float = STABILITY_THRESHOLD
    observability_threshold: float = OBSERVABILITY_THRESHOLD

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in (0, 1], got {self.epsilon}")
        if not 1 <= self.order_min <= self.order_max:
            raise ValueError("order range must satisfy 1 <= order_min <= order_max")
        if not (0.0 < self.stability_threshold < 1.0):
            raise ValueError("stability threshold must lie in (0, 1)")


@dataclass
class StudyRow:
    system_id: int
    seed: int
    n: int
    rho: float
    t_star: int | None = None
    m1: int | None = None
    m2: int | None = None
    t_star_forced: int | None = None
    m1_forced: int | None = None
    m2_forced: int | None = None
    epsilon: float | None = None
    status: str = "ok"
    # Extra diagnostics, not part of the CSV contract.
    m2_paper: int | None = None
    m2_paper_forced: int | None = None
    times: dict = field(default_factory=dict)


def system_seed(master_seed: int, system_id: int) -> int:
    """Counter-derived per-system seed; independent of execution order."""
    return int(np.random.SeedSequence((master_seed, system_id)).generate_state(1)[0])


def random_stable_system(seed: int, config: StudyConfig = StudyConfig()) -> tuple[LtiSystem, OutputBox]:
    """Draw one random stable observable single-output system.

    Order is uniform over the configured range.  Eigenvalues are a
    random mix of reals, uniform in (-0.99, 0.99), and conjugate pairs
    with modulus uniform in (0, 0.99) and uniform angle, assembled in
    real block-diagonal form and conjugated by a well-conditioned random
    similarity.  C is one random row, B one random column, D = 0, and
    the box is the symmetric unit box.  Draws failing the stability or
    observability thresholds are rejected and resampled.
    """
    rng = np.random.default_rng(seed)
    box = OutputBox(np.array([1.0]), np.array([1.0]))
    # The order is drawn once so that rejection resampling (which hits
    # high orders harder through the observability rule) cannot skew the
    # order distribution away from uniform.
    n = int(rng.integers(config.order_min, config.order_max + 1))
    for _ in range(MAX_ATTEMPTS):
        blocks = []
        rem = n
        while rem > 0:
            if rem == 1 or rng.random() < 0.5:
                blocks.append(np.array([[rng.uniform(-0.99, 0.99)]]))
                rem -= 1
            else:
                r = rng.uniform(0.0, 0.99)
                th = rng.uniform(0.0, math.pi)
                a, b = r * math.cos(th), r * math.sin(th)
                blocks.append(np.array([[a, b], [-b, a]]))
                rem -= 2
        core = block_diag(*blocks)
        T = rng.standard_normal((n, n))
        while np.linalg.cond(T) > 1e3:
            T = rng.standard_normal((n, n))
        A = T @ core @ np.linalg.inv(T)
        sys = LtiSystem(
            A=A,
            B=rng.standard_normal((n, 1)),
            C=rng.standard_normal((1, n)),
        )
        report = validate(
            sys,
            box,
            stability_threshold=config.stability_threshold,
            observability_threshold=config.observability_threshold,
        )
        if report.ok:
            return sys, box
    raise MasboundError(
        f"system generation rejected {MAX_ATTEMPTS} consecutive draws (seed {seed})"
    )


def _timed(times: dict, key: str, fn):
    t0 = time.perf_counter()
    try:
        return fn()
    finally:
        times[key] = time.perf_counter() - t0


def compute_study_row(
    system_id: int,
    config: StudyConfig,
    system: tuple[LtiSystem, OutputBox] | None = None,
) -> StudyRow:
    """All six indices for one system; failures are tagged, never raised."""
    seed = system_seed(config.seed, system_id)
    if system is None:
        sys, box = random_stable_system(seed, config)
    else:
        sys, box = system
    row = StudyRow(
        system_id=system_id,
        seed=seed,
        n=sys.n,
        rho=spectral_radius(sys.A),
        epsilon=config.epsilon,
    )
    tags: list[str] = []

    def stage(key, fn, cap_tag):
        try:
            return _timed(row.times, key, fn)
        except IterationCapError:
            tags.append(f"capped:{cap_tag}")
        except MasboundError as exc:
            tags.append(f"error:{cap_tag}:{type(exc).__name__}")
        except ValueError:
            tags.append(f"unavailable:{cap_tag}")
        return None

    res = stage("t_star", lambda: exact_t_star_unforced(sys, box), "t_star")
    row.t_star = None if res is None else res.t_star
    res = stage("m1", lambda: bound_m1_unforced(sys, box), "m1")
    row.m1 = None if res is None else res.m
    res = stage("m2", lambda: bound_m2_unforced(sys, box), "m2")
    if res is not None:
        row.m2 = res.m
        row.m2_paper = bound_m2(
            res.diagnostics["r1"], res.diagnostics["r2"], min(row.rho**2, 1.0 - 1e-16)
        )

    if sys.has_input:
        eps = config.epsilon
        res = stage("t_star_forced", lambda: exact_t_star_forced(sys, box, eps), "t_star_forced")
        row.t_star_forced = None if res is None else res.t_star
        res = stage("m1_forced", lambda: bound_m1_forced(sys, box, eps), "m1_forced")
        row.m1_forced = None if res is None else res.m
        res = stage("m2_forced", lambda: bound_m2_forced(sys, box, eps), "m2_forced")
        if res is not None:
            row.m2_forced = res.m
            row.m2_paper_forced = bound_m2(
                res.diagnostics["r1"], res.diagnostics["r2"], min(row.rho**2, 1.0 - 1e-16)
            )

    if tags:
        row.status = ";".join(tags)
    return row


def _row_for_pool(args) -> StudyRow:
    system_id, config = args
    return compute_study_row(system_id, config)


def run_study(
    config: StudyConfig,
    jobs: int = 1,
    systems: list[tuple[LtiSystem, OutputBox]] | None = None,
) -> tuple[list[StudyRow], dict]:
    """Compute rows for `count` systems and the summary statistics.

    Deterministic for a fixed config, independent of the worker count:
    each row depends only on (seed, system_id).  Pass `systems` to
    bypass generation (length must equal count); that path runs inline.
    """
    if systems is not None:
        if len(systems) != config.count:
            raise ValueError(f"got {len(systems)} systems for count={config.count}")
        rows = [
            compute_study_row(i, config, system=pair) for i, pair in enumerate(systems)
        ]
    elif jobs <= 1:
        rows = [compute_study_row(i, config) for i in range(config.count)]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(
                pool.map(
                    _row_for_pool,
                    ((i, config) for i in range(config.count)),
                    chunksize=max(1, config.count // (4 * jobs)),
                )
            )
    rows.sort(key=lambda r: r.system_id)
    for row in rows:
        for label, bound_val in (("unforced", row.m2_paper), ("forced", row.m2_paper_forced)):
            t_ref = row.t_star if label == "unforced" else row.t_star_forced
            if bound_val is not None and t_ref is not None and bound_val < t_ref:
                logger.warning(
                    "sigma mode 'paper' undershoots on system %d (%s): m2_paper=%d < t*=%d",
                    row.system_id,
                    label,
                    bound_val,
                    t_ref,
                )
    return rows, summarize(rows)


def summarize(rows: list[StudyRow]) -> dict:
    """Tightness statistics over the rows with complete data.

    Gap statistics (m_i - t*) cover the unforced regime; the
    forced-versus-unforced fraction compares the exact indices.
    """
    m1_gaps = [r.m1 - r.t_star for r in rows if r.m1 is not None and r.t_star is not None]
    m2_gaps = [r.m2 - r.t_star for r in rows if r.m2 is not None and r.t_star is not None]
    both = [(r.m1, r.m2) for r in rows if r.m1 is not None and r.m2 is not None]
    forced_pairs = [
        (r.t_star_forced, r.t_star)
        for r in rows
        if r.t_star_forced is not None and r.t_star is not None
    ]

    def stats(gaps):
        if not gaps:
            return float("nan"), float("nan"), float("nan")
        arr = np.asarray(gaps, dtype=float)
        return float(arr.mean()), float(arr.std()), float(np.median(arr))

    mean1, std1, med1 = stats(m1_gaps)
    mean2, std2, med2 = stats(m2_gaps)
    return {
        "mean_m1_gap": mean1,
        "std_m1_gap": std1,
        "median_m1_gap": med1,
        "mean_m2_gap": mean2,
        "std_m2_gap": std2,
        "median_m2_gap": med2,
        "frac_m1_le_m2": (
            sum(1 for a, b in both if a <= b) / len(both) if both else float("nan")
        ),
        "frac_forced_ge_unforced": (
            sum(1 for f, u in forced_pairs if f >= u) / len(forced_pairs)
            if forced_pairs
            else float("nan")
        ),
        "count_capped": sum(1 for r in rows if "capped" in r.status),
    }


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def rows_to_csv_text(rows: list[StudyRow]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                _cell(v)
                for v in (
                    r.system_id,
                    r.seed,
                    r.n,
                    r.rho,
                    r.t_star,
                    r.m1,
                    r.m2,
                    r.t_star_forced,
                    r.m1_forced,
                    r.m2_forced,
                    r.epsilon,
                    r.status,
                )
            )
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Constraint-asymmetry sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    y_lower: float
    t_star: int
    m1: int
    m2: int


def demo_system() -> LtiSystem:
    """Built-in third-order demo: an oscillatory pair plus a fast sign-flipping mode."""
    return LtiSystem(
        A=np.array([[0.9, -0.25, 1.0], [0.25, 0.9, 0.0], [0.0, 0.0, -0.98]]),
        C=np.array([[-1.0, 1.0, 0.5]]),
    )


def asymmetry_sweep(
    sys: LtiSystem,
    y_upper: float,
    y_lower_grid,
    sigma_mode: str = "eq25",
    tols: Tolerances = DEFAULT_TOLS,
) -> list[SweepRow]:
    """Exact index and both bounds while the lower limit sweeps a grid.

    Single-output systems only; the upper limit stays fixed so the grid
    controls the asymmetry ratio.
    """
    if sys.q != 1:
        raise ValueError(f"asymmetry sweep needs a single-output system, got q={sys.q}")
    out = []
    for y_l in y_lower_grid:
        box = OutputBox(np.array([float(y_l)]), np.array([float(y_upper)]))
        t_star = exact_t_star_unforced(sys, box, tols=tols).t_star
        m1 = bound_m1_unforced(sys, box, tols=tols).m
        m2 = bound_m2_unforced(sys, box, sigma_mode=sigma_mode, tols=tols).m
        out.append(SweepRow(y_lower=float(y_l), t_star=t_star, m1=m1, m2=m2))
    return out


def sweep_to_csv_text(rows: list[SweepRow]) -> str:
    lines = ["y_l,t_star,m1,m2"]
    for r in rows:
        lines.append(f"{_cell(r.y_lower)},{r.t_star},{r.m1},{r.m2}")
    return "\n".join(lines) + "\n"
