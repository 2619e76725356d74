"""The names that the benchmark harness under bench/ looks up in the package.

`bench/tracing.py` patches each `TRACE_POINTS` attribute by name and
`bench/run.py` reads study rows, so a package rename would otherwise
show only as an AttributeError in a traced benchmark run.  The harness
files are read, never changed.
"""

import dataclasses
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from masbound.montecarlo import CSV_HEADER, StudyConfig, StudyRow, compute_study_row
from conftest import make_siso, unit_box

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing_contract", TRACING)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up while they are built.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_trace_points_resolve(tracing):
    assert tracing.TRACE_POINTS
    for owner, attr, *_ in tracing.TRACE_POINTS:
        assert callable(getattr(importlib.import_module(owner), attr, None)), f"{owner}.{attr}"


def test_study_row_fields_and_stage_times():
    assert "times" in {f.name for f in dataclasses.fields(StudyRow)}
    assert "system" in inspect.signature(compute_study_row).parameters
    row = compute_study_row(0, StudyConfig(count=1), system=(make_siso(0.5, b=1.0), unit_box()))
    # One time per stage, keyed by the stage's CSV column.
    stages = set(CSV_HEADER.split(",")[4:10])
    assert set(row.times) == stages
