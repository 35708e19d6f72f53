"""Golden CLI reports: every experiment kind against a committed reference.

Each case runs ``clonesim.cli.main`` from the repository root and compares
its exit code and JSON report with ``tests/golden/<case>.json``.  Strings,
integers, booleans and check verdicts must match exactly, floats to within
``FLOAT_ATOL`` (so -0.0 equals 0.0).  The ``generated_at`` timestamp and the
free-text check ``detail`` are not part of a golden.

Regenerate references, only when a report change is intended, by naming
their cases (all cases when none is named; an unknown name exits 2)::

    PYTHONPATH=src python tests/test_golden.py spontaneous domain

Name only the cases whose reports the change touches: the last bits of a
float, and the sign of a zero, can differ between machines, so rewriting
an untouched golden can change it.
"""

from __future__ import annotations

import io
import json
import os
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from clonesim.cli import main
from clonesim.experiments import EXPERIMENT_KINDS

REPO_ROOT = Path(__file__).resolve().parents[1]
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
FLOAT_ATOL = 1e-12

CASES = {
    "clone-demo": ["clone-demo", "--dim", "5", "--seed", "3"],
    "fixed-ancilla": ["fixed-ancilla", "--dim", "4", "--seed", "2", "--ancilla-index", "1"],
    "fixed-ancilla-dim16": ["fixed-ancilla", "--dim", "16"],
    "no-cloning-witness": ["no-cloning-witness"],
    "selection-rules": ["selection-rules", "--config", "configs/hydrogen_n2.json"],
    "domain": ["domain", "--config", "configs/full_p_manifold.json"],
    "stimulated-clone": ["stimulated-clone", "--config", "configs/full_p_manifold.json"],
    "stimulated-clone-seed5": ["stimulated-clone", "--config", "configs/full_p_manifold.json", "--seed", "5"],
    # pi_only.json maps sigma+ to no level, so the photon has an uncoupled component.
    "stimulated-clone-pi-only": ["stimulated-clone", "--config", "configs/pi_only.json", "--seed", "4"],
    "stimulated-clone-pi-only-below-tolerance": [
        "stimulated-clone", "--config", "configs/pi_only.json", "--state", "1,1e-11",
    ],
    "stimulated-clone-pi-only-outside-domain": [
        "stimulated-clone", "--config", "configs/pi_only.json", "--state", "0.7,0.7",
    ],
    "spontaneous": ["spontaneous", "--config", "configs/full_p_manifold.json"],
    "spontaneous-excited-state": [
        "spontaneous", "--config", "configs/full_p_manifold.json", "--excited-state", "0.6,0.48i,0.64",
    ],
    "spontaneous-mode-subset": [
        "spontaneous", "--config", "configs/full_p_manifold.json",
        "--modes", "sigma-,pi", "--excited-state", "0.6,0.48i,0.64",
    ],
}


def run_case(argv: list[str]) -> dict:
    """Exit code and comparable report of one CLI run in the repository root."""
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        code = main(argv)
    # Exit 1 (a failed check) still writes the report; refusals write none.
    report = json.loads(stdout.getvalue()) if stdout.getvalue() else None
    if report is not None:
        report.pop("generated_at")
        for check in report["checks"]:
            check.pop("detail")
    return {"exit_code": code, "report": report}


def assert_matches(expected, actual, path: str = "$") -> None:
    if isinstance(expected, float) or isinstance(actual, float):
        assert type(expected) in (int, float) and type(actual) in (int, float), f"{path}: {actual!r} != {expected!r}"
        assert abs(actual - expected) <= FLOAT_ATOL, f"{path}: {actual!r} != {expected!r}"
    elif isinstance(expected, dict):
        assert isinstance(actual, dict) and actual.keys() == expected.keys(), f"{path}: keys differ"
        for key in expected:
            assert_matches(expected[key], actual[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), f"{path}: lengths differ"
        for index, (want, got) in enumerate(zip(expected, actual)):
            assert_matches(want, got, f"{path}[{index}]")
    else:
        assert type(actual) is type(expected) and actual == expected, f"{path}: {actual!r} != {expected!r}"


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(case, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    golden = json.loads((GOLDEN_DIR / f"{case}.json").read_text())
    assert_matches(golden, run_case(CASES[case]))


def test_every_kind_has_a_golden():
    assert {argv[0] for argv in CASES.values()} == set(EXPERIMENT_KINDS)


def regenerate(names: list[str]) -> int:
    """Rewrite the goldens of the named cases, or of every case when none is
    named; exit code 2, and nothing written, on an unknown name."""
    unknown = [name for name in names if name not in CASES]
    if unknown:
        print(f"unknown golden cases {unknown}; the cases are {sorted(CASES)}", file=sys.stderr)
        return 2
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in names or CASES:
        text = json.dumps(run_case(CASES[name]), indent=2, sort_keys=True) + "\n"
        (GOLDEN_DIR / f"{name}.json").write_text(text)
    return 0


def test_regenerates_only_the_named_case(tmp_path, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN_DIR", tmp_path)
    assert regenerate(["domain"]) == 0
    assert [path.name for path in tmp_path.iterdir()] == ["domain.json"]
    assert json.loads((tmp_path / "domain.json").read_text()) == run_case(CASES["domain"])


def test_regeneration_refuses_an_unknown_case(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN_DIR", tmp_path)
    assert regenerate(["domain", "no-such-case"]) == 2
    assert list(tmp_path.iterdir()) == []
    assert "no-such-case" in capsys.readouterr().err


if __name__ == "__main__":
    os.chdir(REPO_ROOT)
    sys.exit(regenerate(sys.argv[1:]))
