"""Acceptance suite.

Runs every acceptance criterion at its stated tolerance and prints one
PASS/FAIL line per criterion (visible with `pytest -v -s`).  The shared
300-system study takes a minute or two of single-core time.
"""

import hashlib
import json

import numpy as np
import pytest
from scipy.stats import spearmanr

import masbound as mb
from masbound.geometry import enumerate_vertices
from masbound.linalg import solve_discrete_lyapunov, spectral_radius
from masbound.lyapunov import bound_m2, compute_sigma
from masbound.model import gamma
from masbound.montecarlo import (
    StudyConfig,
    asymmetry_sweep,
    random_stable_system,
    rows_to_csv_text,
    run_study,
)
from conftest import (
    brute_force_vertices,
    make_siso,
    match_point_sets,
    random_bounded_polytope,
    random_stable_matrix,
    scalar_interval_t_star,
    unit_box,
)

STUDY_SEED = 2026
STUDY_COUNT = 300
STUDY_EPSILON = 0.01
# SHA-256 of the study CSV text and of json.dumps(summary): a change that
# keeps the study's numbers keeps both.
STUDY_CSV_SHA256 = "2bb9c8d8cd30f32b8fbbc0ae777ad5211d2e49e61e30643a6aef90f19cfa70d3"
STUDY_SUMMARY_SHA256 = "27850dc07cbcbe965d8932746fcc6a7f774859168ea9f2a8fb0cbddcdbc121ff"


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def study():
    config = StudyConfig(count=STUDY_COUNT, seed=STUDY_SEED, epsilon=STUDY_EPSILON)
    rows, summary = run_study(config)
    return rows, summary


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_study_outputs_byte_identical(study):
    rows, summary = study
    assert sha256(rows_to_csv_text(rows)) == STUDY_CSV_SHA256
    assert sha256(json.dumps(summary)) == STUDY_SUMMARY_SHA256


def test_criterion_1_soundness(study):
    rows, summary = study
    violations = []
    usable = 0
    for r in rows:
        if "capped" in r.status:
            continue
        pairs = [
            ("unforced-m1", r.t_star, r.m1),
            ("unforced-m2", r.t_star, r.m2),
            ("forced-m1", r.t_star_forced, r.m1_forced),
            ("forced-m2", r.t_star_forced, r.m2_forced),
        ]
        for tag, t_ref, bound in pairs:
            if t_ref is None or bound is None:
                continue
            usable += 1
            if bound < t_ref:
                violations.append((r.system_id, tag, t_ref, bound))
    ok = not violations and usable >= 4 * 0.95 * STUDY_COUNT
    report(
        1,
        ok,
        f"{STUDY_COUNT} systems, {usable} bound/index pairs checked, "
        f"{len(violations)} soundness violations (capped rows: {summary['count_capped']})",
    )
    assert ok, violations[:20]


def test_criterion_2_method1_dominance(study):
    rows, _ = study
    both = [(r.system_id, r.m1, r.m2) for r in rows if r.m1 is not None and r.m2 is not None]
    exceptions = [(sid, a, b) for sid, a, b in both if a > b]
    frac = 1.0 - len(exceptions) / len(both)
    for sid, a, b in exceptions:
        print(f"  method-1 dominance exception: system {sid} m1={a} > m2={b}")
    ok = frac >= 0.95
    report(2, ok, f"fraction(m1 <= m2) = {frac:.4f} over {len(both)} systems (threshold 0.95)")
    assert ok


def test_criterion_3_tightness(study):
    rows, summary = study
    gaps = [r.m1 - r.t_star for r in rows if r.m1 is not None and r.t_star is not None]
    median_gap = float(np.median(gaps))
    ok = median_gap <= 1.0
    report(3, ok, f"median(m1 - t*) = {median_gap} over {len(gaps)} unforced systems (threshold 1)")
    assert ok
    assert summary["median_m1_gap"] == median_gap


def test_criterion_4_forced_dominance(study):
    rows, _ = study
    t_pairs = [
        (r.system_id, r.t_star_forced, r.t_star)
        for r in rows
        if r.t_star_forced is not None and r.t_star is not None
    ]
    t_exceptions = [(sid, f, u) for sid, f, u in t_pairs if f < u]
    frac_t = 1.0 - len(t_exceptions) / len(t_pairs)
    for sid, f, u in t_exceptions:
        print(f"  forced dominance exception: system {sid} t*_forced={f} < t*={u}")
    m_pairs = [
        (r.m1_forced, r.m1) for r in rows if r.m1_forced is not None and r.m1 is not None
    ]
    frac_m = sum(1 for f, u in m_pairs if f >= u) / len(m_pairs)
    ok = frac_t >= 0.99 and frac_m == 1.0
    report(
        4,
        ok,
        f"fraction(t*_forced >= t*) = {frac_t:.4f} (assert >= 0.99), "
        f"fraction(m1_forced >= m1) = {frac_m:.4f} (assert = 1.0)",
    )
    assert ok


def test_criterion_5_asymmetry_sweep():
    grid = [0.1, 0.5, 1.0, 1.5, 2.0]
    rows = asymmetry_sweep(mb.demo_system(), 1.0, grid)
    by_yl = {r.y_lower: r for r in rows}
    symmetric = by_yl[1.0]
    ordering_ok = all(r.t_star <= r.m1 <= r.m2 for r in rows)
    trend_ok = all(
        getattr(symmetric, f) <= getattr(by_yl[0.1], f)
        and getattr(symmetric, f) <= getattr(by_yl[2.0], f)
        for f in ("t_star", "m1", "m2")
    )
    ok = ordering_ok and trend_ok
    detail = ", ".join(f"y_l={r.y_lower}: ({r.t_star}, {r.m1}, {r.m2})" for r in rows)
    report(5, ok, f"(t*, m1, m2) over the grid: {detail}")
    assert ok


def test_criterion_6_degeneracy_checks():
    rng = np.random.default_rng(7)
    eps_one_ok = True
    for seed in range(20):
        sys, box = random_stable_system(seed)
        if (
            mb.bound_m1_forced(sys, box, 1.0).m != mb.bound_m1_unforced(sys, box).m
            or mb.bound_m2_forced(sys, box, 1.0).m != mb.bound_m2_unforced(sys, box).m
        ):
            eps_one_ok = False
            print(f"  epsilon=1 degeneracy failed on generator seed {seed}")
    scaling_ok = True
    for seed in range(20, 40):
        sys, box = random_stable_system(seed)
        t_ref = mb.exact_t_star_unforced(sys, box).t_star
        m_ref = mb.bound_m1_unforced(sys, box).m
        for k in (0.1, 10.0):
            scaled = box.scaled(k)
            if (
                mb.exact_t_star_unforced(sys, scaled).t_star != t_ref
                or mb.bound_m1_unforced(sys, scaled).m != m_ref
            ):
                scaling_ok = False
                print(f"  radial-scaling invariance failed on generator seed {seed}, k={k}")
    ok = eps_one_ok and scaling_ok
    report(
        6,
        ok,
        "epsilon=1 forced == unforced on 20 systems; "
        "box scaling by k in {0.1, 10} leaves t* and m1 unchanged on 20 systems",
    )
    assert ok


def test_criterion_7_closed_form_unit_suite():
    rng = np.random.default_rng(11)
    checks = []

    # Lyapunov residual at the stated tolerance on random stable instances.
    residual_ok = True
    for _ in range(20):
        n = int(rng.integers(1, 7))
        A = random_stable_matrix(rng, n, rho_max=0.95)
        P = solve_discrete_lyapunov(A, np.eye(n))
        residual = np.linalg.norm(A.T @ P @ A - P + np.eye(n), "fro")
        residual_ok &= residual <= 1e-8 * np.sqrt(n)
    checks.append(("lyapunov residual <= 1e-8*||Q||", residual_ok))

    # Closed form for diagonal A.
    diag_ok = True
    for _ in range(10):
        a = rng.uniform(-0.95, 0.95, size=int(rng.integers(1, 6)))
        P = solve_discrete_lyapunov(np.diag(a), np.eye(a.size))
        diag_ok &= np.allclose(P, np.diag(1.0 / (1.0 - a**2)), atol=1e-10)
    checks.append(("P = diag(1/(1-a_i^2)) for diagonal A", diag_ok))

    # Decay factor equals the squared spectral radius on normal A.
    normal_ok = True
    for _ in range(10):
        n = int(rng.integers(1, 6))
        S = rng.standard_normal((n, n))
        S = 0.5 * (S + S.T)
        A = S * (rng.uniform(0.2, 0.95) / np.max(np.abs(np.linalg.eigvalsh(S))))
        P = solve_discrete_lyapunov(A, np.eye(n))
        sigma = compute_sigma(A, P, np.eye(n), mode="eq25")
        normal_ok &= abs(sigma - spectral_radius(A) ** 2) <= 1e-8
    checks.append(("sigma_eq25 = rho^2 on normal A", normal_ok))

    # Floor-formula worked values.
    checks.append(("floor formula m=0", bound_m2(4.0 / 3.0, 8.0 / 3.0, 0.25) == 0))
    checks.append(("floor formula m=43", bound_m2(1.0, 100.0, 0.9) == 43))

    # Power-series worked values.
    checks.append(("power series m=0", mb.bound_m1_unforced(make_siso(0.5), unit_box()).m == 0))
    checks.append(
        (
            "power series m=1",
            mb.bound_m1_unforced(make_siso(-0.9), mb.OutputBox([0.1], [1.0])).m == 1,
        )
    )
    double_pole = mb.LtiSystem(A=[[0.0, 1.0], [-0.25, 1.0]], C=[[1.0, 0.0]])
    checks.append(("power series m=2", mb.bound_m1_unforced(double_pole, unit_box()).m == 2))
    checks.append(
        ("power series m=4", mb.bound_m1_forced(make_siso(0.5, b=1.0), unit_box(), 0.1).m == 4)
    )

    ok = all(flag for _, flag in checks)
    failed = [name for name, flag in checks if not flag]
    report(7, ok, f"{len(checks)} closed-form checks" + (f"; failed: {failed}" if failed else ""))
    assert ok, failed


def test_criterion_8_oracle_equivalence():
    rng = np.random.default_rng(13)
    scalar_ok = True
    for i in range(50):
        a = float(rng.uniform(-0.98, 0.98))
        c = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 3.0))
        y_l, y_u = (1.0, 1.0) if i % 2 == 0 else (0.1, 1.0)
        got = mb.exact_t_star_unforced(make_siso(a, c=c), mb.OutputBox([y_l], [y_u])).t_star
        want = scalar_interval_t_star(a, c, y_l, y_u)
        if got != want:
            scalar_ok = False
            print(f"  scalar oracle mismatch: a={a:.4f} c={c:.4f} box=({y_l},{y_u}) {got} != {want}")

    vertex_ok = True
    for _ in range(25):
        d = int(rng.integers(2, 4))
        k = int(rng.integers(2 * d, 13))
        G, h = random_bounded_polytope(rng, d, k)
        mine = enumerate_vertices(mb.Polytope(G, h)).vertices
        oracle = brute_force_vertices(G, h)
        if not match_point_sets(mine, oracle, 1e-6):
            vertex_ok = False
            print(f"  vertex oracle mismatch at d={d}, k={k}")

    ok = scalar_ok and vertex_ok
    report(8, ok, "50 scalar systems vs interval oracle; 25 polytopes vs active-set oracle")
    assert ok


def test_criterion_9_first_order_shortcuts():
    rng = np.random.default_rng(17)
    unforced_ok = True
    for _ in range(50):
        lo = float(rng.uniform(0.1, 2.0))
        hi = float(rng.uniform(0.1, 2.0))
        box = mb.OutputBox([lo], [hi])
        g = gamma(box)
        a = float(rng.uniform(-1.0 / g + 1e-9, 0.999))
        sys = make_siso(a, b=1.0)
        if mb.bound_m1_unforced(sys, box).m != 0 or mb.exact_t_star_unforced(sys, box).t_star != 0:
            unforced_ok = False
            print(f"  unforced shortcut failed: a={a:.5f} gamma={g:.4f}")

    forced_ok = True
    for _ in range(50):
        lo = float(rng.uniform(0.1, 2.0))
        hi = float(rng.uniform(0.1, 2.0))
        box = mb.OutputBox([lo], [hi])
        g = gamma(box)
        eps = float(rng.uniform(0.05, 0.95))
        low = -eps / (g + (1.0 - eps))
        high = eps / (1.0 + g * (1.0 - eps))
        margin = 1e-9 * (high - low)
        a = float(rng.uniform(low + margin, high - margin))
        sys = make_siso(a, b=float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)))
        if (
            mb.bound_m1_forced(sys, box, eps).m != 0
            or mb.exact_t_star_forced(sys, box, eps).t_star != 0
        ):
            forced_ok = False
            print(f"  forced shortcut failed: a={a:.5f} gamma={g:.4f} eps={eps:.4f}")

    ok = unforced_ok and forced_ok
    report(9, ok, "50 scalar systems above -1/gamma; 50 scalar systems inside the forced interval")
    assert ok


def test_spectral_radius_correlation(study):
    # Tightness degrades as the spectral radius approaches one; the rank
    # correlation between rho and the unforced m1 gap must be positive.
    rows, _ = study
    usable = [r for r in rows if r.m1 is not None and r.t_star is not None]
    corr = spearmanr([r.rho for r in usable], [r.m1 - r.t_star for r in usable]).statistic
    ok = corr > 0.0
    report(0, ok, f"supplement: spearman(rho, m1 - t*) = {corr:.3f} (positive expected)")
    assert ok
