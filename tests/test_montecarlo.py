import inspect
import logging
import os
import time

import numpy as np
import pytest
from scipy.stats import chi2

from masbound import (
    IterationCapError,
    LtiSystem,
    NumericalError,
    OutputBox,
    demo_system,
    run_study,
)
from masbound import montecarlo
from masbound.linalg import spectral_radius
from masbound.lyapunov import bound_m2, compute_sigma
from masbound.model import validate
from masbound.montecarlo import (
    CSV_HEADER,
    StudyConfig,
    asymmetry_sweep,
    compute_study_row,
    random_stable_system,
    rows_to_csv_text,
    system_seed,
)
from conftest import make_siso, unit_box


class TestGenerator:
    def test_deterministic_for_fixed_seed(self):
        a1, box1 = random_stable_system(42)
        a2, box2 = random_stable_system(42)
        assert np.array_equal(a1.A, a2.A)
        assert np.array_equal(a1.B, a2.B)
        assert np.array_equal(a1.C, a2.C)
        assert np.array_equal(box1.y_lower, box2.y_lower)

    def test_rejection_rules_hold(self):
        cfg = StudyConfig(count=1, seed=0)
        for seed in range(40):
            sys, box = random_stable_system(seed, cfg)
            rep = validate(sys, box)
            assert rep.spectral_radius <= 0.999
            assert rep.min_obsv_singular_value >= 1e-4
            assert sys.q == 1 and sys.m_in == 1
            assert box.y_lower[0] == 1.0 and box.y_upper[0] == 1.0

    def test_order_distribution_uniform(self):
        counts = np.zeros(8, dtype=int)
        for seed in range(10_000):
            sys, _ = random_stable_system(seed)
            counts[sys.n - 1] += 1
        expected = counts.sum() / 8.0
        stat = float(np.sum((counts - expected) ** 2 / expected))
        p_value = float(chi2.sf(stat, df=7))
        assert p_value > 0.01, (counts, p_value)

    def test_order_range_respected(self):
        cfg = StudyConfig(count=1, seed=0, order_min=3, order_max=3)
        for seed in range(5):
            sys, _ = random_stable_system(seed, cfg)
            assert sys.n == 3


@pytest.fixture
def recording_pool(monkeypatch):
    """The worker counts `run_study` asks of its pool, which maps in this process and starts none."""
    seen = []

    class RecordingPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", RecordingPool)
    return seen


class TestStudy:
    def test_injected_scalar_row(self):
        cfg = StudyConfig(count=1, seed=7)
        rows, summary = run_study(cfg, systems=[(make_siso(0.5, b=1.0), unit_box())])
        row = rows[0]
        assert (row.t_star, row.m1, row.m2) == (0, 0, 0)
        assert row.status == "ok"
        assert row.t_star_forced is not None and row.t_star_forced >= 0
        assert summary["count_capped"] == 0

    def test_deterministic_across_runs(self):
        cfg = StudyConfig(count=5, seed=123)
        rows_a, summary_a = run_study(cfg)
        rows_b, summary_b = run_study(cfg)
        assert rows_to_csv_text(rows_a) == rows_to_csv_text(rows_b)
        assert summary_a == summary_b

    def test_workers_do_not_change_results(self):
        cfg = StudyConfig(count=4, seed=5)
        rows_serial, _ = run_study(cfg, jobs=1)
        rows_parallel, _ = run_study(cfg, jobs=2)
        assert rows_to_csv_text(rows_serial) == rows_to_csv_text(rows_parallel)

    def test_workers_capped_at_count(self, recording_pool, monkeypatch):
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 64)
        cfg = StudyConfig(count=1, seed=5)
        rows, _ = run_study(cfg, jobs=64)
        assert recording_pool == [1]
        assert rows_to_csv_text(rows) == rows_to_csv_text(run_study(cfg)[0])
        run_study(StudyConfig(count=3, seed=5), jobs=2)
        assert recording_pool == [1, 2]

    def test_workers_capped_at_usable_cpus(self, recording_pool, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert montecarlo._usable_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
        cfg = StudyConfig(count=3, seed=5)
        rows, _ = run_study(cfg, jobs=5000)
        assert recording_pool == [2]
        assert rows_to_csv_text(rows) == rows_to_csv_text(run_study(cfg)[0])

    @pytest.mark.parametrize(("cpu_count", "usable"), [(3, 3), (None, 1)])
    def test_usable_cpus_without_affinity(self, monkeypatch, cpu_count, usable):
        # Where the platform has no sched_getaffinity, os.cpu_count() decides; it may not know.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        assert montecarlo._usable_cpus() == usable

    def test_soundness_on_small_batch(self):
        cfg = StudyConfig(count=8, seed=99)
        rows, summary = run_study(cfg)
        for r in rows:
            if r.t_star is not None and r.m1 is not None:
                assert r.m1 >= r.t_star
            if r.t_star is not None and r.m2 is not None:
                assert r.m2 >= r.t_star
            if r.t_star_forced is not None and r.t_star is not None:
                assert r.t_star_forced >= r.t_star
        assert summary["frac_m1_le_m2"] == 1.0

    @pytest.mark.parametrize(
        "exc, tag",
        [
            (IterationCapError("admissibility index not determined within 0 steps", cap=0), "capped:t_star"),
            (NumericalError("solver gave up"), "error:t_star:NumericalError"),
            (ValueError("not accepted"), "unavailable:t_star"),
        ],
        ids=["capped", "error", "unavailable"],
    )
    def test_capped_system_recorded_not_raised(self, monkeypatch, exc, tag):
        def failing(*args, **kwargs):
            raise exc

        monkeypatch.setattr(montecarlo, "exact_t_star_unforced", failing)
        cfg = StudyConfig(count=1, seed=0)
        rows, summary = run_study(
            cfg, systems=[(make_siso(-0.9), OutputBox([0.1], [1.0]))]
        )
        row = rows[0]
        assert row.t_star is None
        assert tag in row.status
        assert "t_star" in row.times  # the failed stage is timed
        assert row.m1 is not None  # other stages still ran
        assert summary["count_capped"] == (1 if tag.startswith("capped") else 0)

    def test_epsilon_underflow_tags_m2_forced_as_numerical(self):
        # epsilon**2 underflows, so the forced inscribed level reads 0.0.
        cfg = StudyConfig(count=1, seed=0, epsilon=1e-200)
        row = compute_study_row(0, cfg, system=(make_siso(0.5, b=1.0), unit_box()))
        assert row.status == "error:m2_forced:NumericalError"
        assert row.m2_forced is None and row.m2 is not None

    def test_m2_paper_is_the_paper_sigma_mode(self):
        # The paper's step count taken afresh from the report's levels and rho(A)^2.
        cfg = StudyConfig(count=1, seed=2026)
        for i in range(20):
            sys, box = random_stable_system(system_seed(2026, i), cfg)
            row = compute_study_row(i, cfg, system=(sys, box))
            for column in ("m2", "m2_forced"):
                d = montecarlo.STAGES[column](sys, box, cfg.epsilon).diagnostics
                sigma = compute_sigma(sys.A, d["P"], np.eye(sys.n), "paper")
                assert getattr(row, column.replace("m2", "m2_paper")) == bound_m2(d["r1"], d["r2"], sigma)

    def test_paper_undershoot_logged(self, caplog):
        system = random_stable_system(system_seed(2026, 44))
        with caplog.at_level(logging.WARNING, logger="masbound.montecarlo"):
            run_study(StudyConfig(count=1, seed=2026), systems=[system])
        assert caplog.messages == [
            "m2_paper (sigma = rho(A)^2) falls below t* on system 0 (unforced): m2_paper=0 < t*=1"
        ]

    def test_csv_shape(self):
        cfg = StudyConfig(count=2, seed=11)
        rows, _ = run_study(cfg)
        text = rows_to_csv_text(rows)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert lines[0] == (
            "system_id,seed,n,rho,t_star,m1,m2,t_star_forced,m1_forced,m2_forced,epsilon,status"
        )
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "0"
        assert int(first[2]) >= 1  # order
        assert float(first[3]) < 1.0  # spectral radius

    def test_summary_keys_exact(self):
        cfg = StudyConfig(count=2, seed=3)
        _, summary = run_study(cfg)
        assert set(summary.keys()) == {
            "mean_m1_gap",
            "std_m1_gap",
            "median_m1_gap",
            "mean_m2_gap",
            "std_m2_gap",
            "median_m2_gap",
            "frac_m1_le_m2",
            "frac_forced_ge_unforced",
            "count_capped",
        }

    def test_seed_derivation_is_counter_based(self):
        assert system_seed(1, 0) != system_seed(1, 1)
        assert system_seed(1, 5) == system_seed(1, 5)
        assert system_seed(2, 5) != system_seed(1, 5)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            StudyConfig(count=0)
        with pytest.raises(ValueError):
            StudyConfig(count=1, epsilon=0.0)

    def test_row_for_unforced_only_system(self):
        cfg = StudyConfig(count=1, seed=0)
        row = compute_study_row(0, cfg, system=(make_siso(0.5), unit_box()))
        assert row.t_star == 0 and row.m1 == 0 and row.m2 == 0
        assert row.t_star_forced is None and row.status == "ok"


# Each STAGES column and the montecarlo attribute its call must look up.
ENTRY_POINTS = {
    "t_star": "exact_t_star_unforced",
    "m1": "bound_m1_unforced",
    "m2": "bound_m2_unforced",
    "t_star_forced": "exact_t_star_forced",
    "m1_forced": "bound_m1_forced",
    "m2_forced": "bound_m2_forced",
}


class TestStages:
    def test_columns_are_the_csv_stage_columns(self):
        assert list(montecarlo.STAGES) == list(ENTRY_POINTS) == CSV_HEADER.split(",")[4:10]

    @pytest.mark.parametrize("column", ENTRY_POINTS)
    def test_stage_takes_sys_box_epsilon(self, column):
        # No tolerance or other setting rides along: every LP runs at LP_TOL.
        assert list(inspect.signature(montecarlo.STAGES[column]).parameters) == ["sys", "box", "eps"]

    @pytest.mark.parametrize("column, entry", ENTRY_POINTS.items())
    def test_stage_looks_up_its_entry_point_when_it_runs(self, monkeypatch, column, entry):
        signature = inspect.signature(getattr(montecarlo, entry))
        calls = []
        monkeypatch.setattr(
            montecarlo, entry, lambda *args, **kwargs: calls.append(signature.bind(*args, **kwargs)) or "result"
        )
        sys, box = object(), object()
        # Not an entry point's default, so a dropped argument shows.
        given = {"epsilon": 0.25}
        assert montecarlo.STAGES[column](sys, box, *given.values()) == "result"
        (call,) = calls
        taken = {k: v for k, v in given.items() if k in signature.parameters}
        assert call.arguments == {"sys": sys, "box": box, **taken}

    def test_stage_time_leaves_out_freeing_the_previous_result(self, monkeypatch):
        class SlowToFree:
            t_star = 0

            def __del__(self):
                time.sleep(0.2)

        class Bound:
            m = 0

        monkeypatch.setitem(montecarlo.STAGES, "t_star", lambda *args: SlowToFree())
        monkeypatch.setitem(montecarlo.STAGES, "m1", lambda *args: Bound())
        row = compute_study_row(0, StudyConfig(count=1), system=(make_siso(0.5), unit_box()))
        assert (row.t_star, row.m1) == (0, 0)
        assert row.times["m1"] < 0.1


class TestSweep:
    def test_demo_system_matrices(self):
        sys = demo_system()
        assert np.allclose(
            sys.A, [[0.9, -0.25, 1.0], [0.25, 0.9, 0.0], [0.0, 0.0, -0.98]]
        )
        assert np.allclose(sys.C, [[-1.0, 1.0, 0.5]])
        assert spectral_radius(sys.A) == pytest.approx(0.98)

    def test_scalar_sweep_all_zero(self):
        rows = asymmetry_sweep(make_siso(0.5), 1.0, [0.5, 1.0, 2.0])
        for r in rows:
            assert r.m1 == 0  # positive scalar below 1: first check fires
            assert r.t_star == 0
            assert r.t_star <= r.m1 <= r.m2

    def test_rejects_multi_output(self):
        sys = LtiSystem(A=np.diag([0.5, 0.5]), C=np.eye(2))
        with pytest.raises(ValueError, match="single-output"):
            asymmetry_sweep(sys, 1.0, [1.0])

    def test_ordering_invariant(self):
        rows = asymmetry_sweep(make_siso(-0.8), 1.0, [0.2, 1.0])
        for r in rows:
            assert r.t_star <= r.m1 <= r.m2
