"""Inputs of the benchmark workloads.

Each workload runs a fixed panel of systems: the first ``PER_STRATUM``
systems of every stratum (the order, and for ``mimo`` also the input
count) in the workload's generator sequence.  The seed only fixes the
order in which a run visits the panel.  The panel is fixed because the
cost of a system and its bound gaps are heavy-tailed: any seeded sample
small enough for one run moves the end-to-end metrics between seeds by
more than their bounds (see NOTES.md).  ``golden/<workload>.json`` holds
the exact indices of every panel system.  The package only ever sees
the generated systems.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import block_diag

import masbound.model
import masbound.montecarlo
from masbound.model import LtiSystem, OutputBox
from masbound.montecarlo import StudyConfig, system_seed

MASTER_SEED = 2026
EPSILON = 0.01

# The paper's study: SISO, orders 1-8, symmetric unit box.
STUDY_CONFIG = StudyConfig(seed=MASTER_SEED, epsilon=EPSILON)
# Same generator with orders reaching 9, where vertex enumeration dominates.
# Orders stop at 9 for bounds and 5 for mimo so that no single item runs
# longer than about 1.5 s: the reference chunks around an item (see
# reference.py) only read the machine's speed at its two ends.
BOUNDS_CONFIG = StudyConfig(seed=MASTER_SEED, epsilon=EPSILON, order_max=9)
# Two outputs, one or two inputs (m_in <= q), asymmetric boxes, orders 2-5.
MIMO_OUTPUTS = 2
MIMO_ORDERS = (2, 5)
MIMO_INPUTS = (1, 2)
MIMO_BOX = (0.5, 2.0)

WORKLOADS = ("study", "bounds", "mimo")
STRATA = {
    "study": [(n, 1) for n in range(STUDY_CONFIG.order_min, STUDY_CONFIG.order_max + 1)],
    "bounds": [(n, 1) for n in range(BOUNDS_CONFIG.order_min, BOUNDS_CONFIG.order_max + 1)],
    "mimo": [
        (n, m)
        for n in range(MIMO_ORDERS[0], MIMO_ORDERS[1] + 1)
        for m in range(MIMO_INPUTS[0], MIMO_INPUTS[1] + 1)
    ],
}
# On one core of a 2-core x86 machine at the commit that introduced the
# benchmark one pass takes about 27 s (study), 7.5 s (bounds) and 9 s
# (mimo), so a 30 s run makes one, three and three passes.
PER_STRATUM = {"study": 9, "bounds": 3, "mimo": 3}


def _random_core(rng: np.random.Generator, n: int) -> np.ndarray:
    """Stable A with the eigenvalue mix of montecarlo.random_stable_system."""
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
    return T @ core @ np.linalg.inv(T)


def random_mimo_system(seed: int, max_attempts: int = 1000) -> tuple[LtiSystem, OutputBox]:
    """Two-output system with a random asymmetric box (so gamma > 1).

    Order and input count are drawn once, then draws are rejected
    through ``masbound.model.validate`` with the study thresholds, as in
    ``montecarlo.random_stable_system``.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(MIMO_ORDERS[0], MIMO_ORDERS[1] + 1))
    m_in = int(rng.integers(MIMO_INPUTS[0], MIMO_INPUTS[1] + 1))
    box = OutputBox(rng.uniform(*MIMO_BOX, MIMO_OUTPUTS), rng.uniform(*MIMO_BOX, MIMO_OUTPUTS))
    for _ in range(max_attempts):
        sys = LtiSystem(
            A=_random_core(rng, n),
            B=rng.standard_normal((n, m_in)),
            C=rng.standard_normal((MIMO_OUTPUTS, n)),
        )
        report = masbound.model.validate(
            sys,
            box,
            stability_threshold=STUDY_CONFIG.stability_threshold,
            observability_threshold=STUDY_CONFIG.observability_threshold,
        )
        if report.ok:
            return sys, box
    raise RuntimeError(f"mimo generator rejected {max_attempts} draws (seed {seed})")


def make_system(workload: str, pool_id: int) -> tuple[LtiSystem, OutputBox]:
    """The pool system ``pool_id`` of a workload."""
    seed = system_seed(MASTER_SEED, pool_id)
    if workload == "study":
        return masbound.montecarlo.random_stable_system(seed, STUDY_CONFIG)
    if workload == "bounds":
        return masbound.montecarlo.random_stable_system(seed, BOUNDS_CONFIG)
    if workload == "mimo":
        return random_mimo_system(seed)
    raise ValueError(f"unknown workload {workload!r}")


def stratum(sys: LtiSystem) -> tuple[int, int]:
    return (sys.n, sys.m_in)


def panel(workload: str) -> dict[int, tuple[LtiSystem, OutputBox]]:
    """The first ``PER_STRATUM`` systems of every stratum, keyed by pool id."""
    need = PER_STRATUM[workload]
    want = STRATA[workload]
    counts = dict.fromkeys(want, 0)
    out = {}
    pool_id = 0
    while any(c < need for c in counts.values()):
        pair = make_system(workload, pool_id)
        key = stratum(pair[0])
        if counts[key] < need:
            counts[key] += 1
            out[pool_id] = pair
        pool_id += 1
    return out


def visiting_order(pool_ids, seed: int) -> list[int]:
    """The panel in the seeded order a run visits it."""
    ids = sorted(pool_ids)
    return [ids[i] for i in np.random.default_rng(seed).permutation(len(ids))]
