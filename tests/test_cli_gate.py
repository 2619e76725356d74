"""Byte-for-byte gate on the CLI's output.

Fixes, against `data/cli_outputs.json`:
- the `bound` JSON, wall-time keys dropped, for every method and regime
  on a symmetric (`sym_box.json`) and an asymmetric (`asym_box.json`)
  two-output box;
- the `exact` JSON, wall time dropped, in both regimes on both inputs;
- the SHA-256 of the default `sweep-asymmetry` CSV.

Re-record only for a change that moves a reported value on purpose:
`PYTHONPATH=src python tests/test_cli_gate.py`.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from masbound.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "cli_outputs.json"
INPUTS = ("sym_box.json", "asym_box.json")
REGIMES = ((), ("--forced", "--epsilon", "0.1"))
METHODS = ("power-series", "lyapunov", "both")


def cases() -> list[list[str]]:
    out = []
    for name in INPUTS:
        for regime in REGIMES:
            for method in METHODS:
                out.append(["bound", name, "--method", method, *regime])
            out.append(["exact", name, *regime])
    out.append(["sweep-asymmetry"])
    return out


def _run(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0, argv
    return buf.getvalue()


def output(argv: list[str], tmp_dir: Path) -> str:
    """What the gate fixes for one command: its JSON without wall times, or its CSV's SHA-256."""
    if argv[0] == "sweep-asymmetry":
        csv = tmp_dir / "sweep.csv"
        _run([*argv, "--out", str(csv)])
        return hashlib.sha256(csv.read_bytes()).hexdigest()
    report = json.loads(_run([argv[0], str(DATA / argv[1]), *argv[2:]]))
    return json.dumps({k: v for k, v in report.items() if not k.endswith("wall_time_s")})


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert list(golden) == [" ".join(argv) for argv in cases()]


@pytest.mark.parametrize("argv", cases(), ids=" ".join)
def test_cli_output_byte_identical(argv, golden, tmp_path):
    assert output(argv, tmp_path) == golden[" ".join(argv)]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        recorded = {" ".join(argv): output(argv, Path(tmp)) for argv in cases()}
    GOLDEN.write_text(json.dumps(recorded, indent=1) + "\n")
    print(f"recorded {len(recorded)} cases to {GOLDEN}")
