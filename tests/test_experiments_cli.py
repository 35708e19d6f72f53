"""Tests for the experiment runner, report formats, and the CLI surface."""

import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from clonesim import cli, copying, emission, experiments
from clonesim.cli import main
from clonesim.emission import PI, SIGMA_MINUS
from clonesim.errors import ConfigError
from clonesim.hilbert import max_abs
from clonesim.experiments import (
    EXPERIMENT_KINDS,
    ExperimentSpec,
    load_atomic_system,
    parse_amplitudes,
    render_report,
    resolve_state,
    run,
)
from oracles import stimulated_pair_by_hamiltonian
from test_golden import CASES as GOLDEN_CASES
from test_golden import REPO_ROOT

CONFIG_DIR = REPO_ROOT / "configs"

REPORT_KEYS = {"schema_version", "kind", "generated_at", "parameters", "results", "checks", "passed"}

REPORT_PARAMETERS = {"config_path", "state", "seed", "dim", "ancilla_index", "overlap", "excited_state", "modes"}


def assert_schema_valid(report: dict) -> None:
    """The report layout of docs/report_schema.md (version 2), key by key."""
    assert report.keys() == REPORT_KEYS
    assert type(report["schema_version"]) is int and report["schema_version"] == 2
    assert isinstance(report["kind"], str) and isinstance(report["generated_at"], str)
    assert isinstance(report["parameters"], dict) and REPORT_PARAMETERS <= report["parameters"].keys()
    assert isinstance(report["results"], dict) and isinstance(report["passed"], bool)
    assert isinstance(report["checks"], list)
    for check in report["checks"]:
        assert isinstance(check, dict) and check.keys() == {"name", "passed", "detail"}
        assert isinstance(check["name"], str) and isinstance(check["detail"], str)
        assert isinstance(check["passed"], bool)


# configs/full_p_manifold.json without its radial factors and mode map
FULL_P_CONFIG = {
    "ground": {"label": "g", "l": 0, "m": 0},
    "excited": [{"label": "e-", "l": 1, "m": -1}, {"label": "e0", "l": 1, "m": 0}, {"label": "e+", "l": 1, "m": 1}],
}


# FULL_P_CONFIG with one misspelt key; a dropped key would change no error, only a result.
UNKNOWN_KEY_CONFIGS = {
    "top-level": {**FULL_P_CONFIG, "radial_factor": {"e0": 3.0}},
    "excited-level": {**FULL_P_CONFIG, "excited": [{"label": "e0", "l": 1, "m": 0, "radial": 5.0}]},
    "ground-level": {**FULL_P_CONFIG, "ground": {"label": "g", "l": 0, "m": 0, "parity": 1}},
}


def documented_columns() -> dict[str, list[str]]:
    """Each kind's csv and table columns, from the table in docs/report_schema.md."""
    text = (REPO_ROOT / "docs" / "report_schema.md").read_text(encoding="utf-8")
    section = text.split("\n## csv and table columns\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([a-z-]+)` +\| (.+) \|$", section, re.MULTILINE)
    return {kind: re.findall(r"`([^`]+)`", columns) for kind, columns in rows}


def strip_timestamp(text: str) -> str:
    report = json.loads(text)
    report.pop("generated_at")
    return json.dumps(report, indent=2, sort_keys=True)


def stdlib_json(report: dict) -> str:
    """The JSON rendering that docs/report_schema.md specifies, from the standard library."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def run_cli(argv: list[str]) -> tuple[object, str, str]:
    """Exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def spec_for(kind: str, config_dir, **overrides) -> ExperimentSpec:
    defaults = {
        "clone-demo": {"state": "plus", "dim": 2},
        "fixed-ancilla": {"state": "plus", "dim": 2, "ancilla_index": 0},
        "no-cloning-witness": {},
        "selection-rules": {"config_path": str(config_dir / "hydrogen_n2.json")},
        "domain": {"config_path": str(config_dir / "full_p_manifold.json")},
        "stimulated-clone": {"config_path": str(config_dir / "full_p_manifold.json"), "seed": 11},
        "spontaneous": {"config_path": str(config_dir / "full_p_manifold.json")},
    }
    params = {**defaults[kind], **overrides}
    return ExperimentSpec(kind=kind, **params)


class TestStateParsing:
    def test_amplitude_list_with_i_notation(self):
        amps = parse_amplitudes("0.5+0.5i, 0.5-0.5i")
        assert amps[0] == pytest.approx(0.5 + 0.5j)
        assert amps[1] == pytest.approx(0.5 - 0.5j)

    def test_bad_amplitude_rejected(self):
        with pytest.raises(ValueError):
            parse_amplitudes("1, two")

    def test_presets(self):
        plus = resolve_state("plus", 4, seed=0)
        assert np.allclose(plus.amplitudes, 0.5)
        basis1 = resolve_state("basis1", 3, seed=0)
        assert basis1.amplitudes[1] == 1.0

    def test_random_state_seeded(self):
        a = resolve_state(None, 3, seed=42)
        b = resolve_state(None, 3, seed=42)
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_wrong_length_rejected(self):
        with pytest.raises(Exception):
            resolve_state("1,0,0", 2, seed=0)

    @pytest.mark.parametrize("index", ["1_0", "+1", " 1", "-1", ""])
    def test_basis_index_is_plain_digits(self, index):
        # int() reads "1_0" as 10 and "+1", " 1" as 1
        with pytest.raises(ValueError, match="not a non-negative decimal integer"):
            resolve_state(f"basis{index}", 12, seed=0)

    def test_digit_group_underscore_amplitude_rejected(self):
        # complex() reads "1_0" as 10
        with pytest.raises(ValueError, match="underscore"):
            parse_amplitudes("1_0, 1")


class TestConfigLoading:
    def test_full_manifold_config(self, config_dir):
        system, mode_map = load_atomic_system(config_dir / "full_p_manifold.json")
        assert system.manifold_dim == 3
        assert [mode.label for mode, _ in mode_map] == ["sigma-", "pi", "sigma+"]
        assert [label for _, label in mode_map] == ["e+", "e0", "e-"]

    def test_mode_map_optional(self, config_dir):
        _, mode_map = load_atomic_system(config_dir / "hydrogen_n2.json")
        assert mode_map is None

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_atomic_system(tmp_path / "missing.json")

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            load_atomic_system(bad)

    def test_unknown_mode_map_target(self, tmp_path):
        bad = tmp_path / "bad_map.json"
        bad.write_text(json.dumps({
            "ground": {"label": "g", "l": 0, "m": 0},
            "excited": [{"label": "e0", "l": 1, "m": 0}],
            "mode_map": {"pi": "nope"},
        }))
        with pytest.raises(ConfigError):
            load_atomic_system(bad)

    @pytest.mark.parametrize(
        "mode_map",
        [{"pi": "e0", "sigma+": "e0"}, {"pi": ["e0"]}, {"circular": "e0"}],
        ids=["repeated-level", "unhashable-level", "unknown-mode"],
    )
    def test_invalid_mode_map_is_config_error(self, tmp_path, mode_map):
        bad = tmp_path / "bad_map.json"
        bad.write_text(json.dumps({
            "ground": {"label": "g", "l": 0, "m": 0},
            "excited": [{"label": "e0", "l": 1, "m": 0}, {"label": "e+", "l": 1, "m": 1}],
            "mode_map": mode_map,
        }))
        with pytest.raises(ConfigError, match="mode_map"):
            load_atomic_system(bad)

    @pytest.mark.parametrize(
        "field,value", [("l", 1.7), ("l", True), ("l", "1"), ("l", 1.0), ("m", 0.5), ("m", False)]
    )
    def test_non_integer_quantum_number_is_config_error(self, tmp_path, field, value):
        excited = {"label": "e0", "l": 1, "m": 0}
        excited[field] = value
        bad = tmp_path / "bad_level.json"
        bad.write_text(json.dumps({"ground": {"label": "g", "l": 0, "m": 0}, "excited": [excited]}))
        with pytest.raises(ConfigError, match="must be integers"):
            load_atomic_system(bad)

    def test_forbidden_mode_map_pair_is_config_error(self, tmp_path):
        bad = tmp_path / "forbidden_pair.json"
        bad.write_text(json.dumps({**FULL_P_CONFIG, "mode_map": {"pi": "e0", "sigma+": "e+"}}))
        with pytest.raises(ConfigError, match="cannot emit"):
            load_atomic_system(bad)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), True, "1"], ids=["NaN", "Infinity", "true", "string"])
    def test_non_finite_or_non_numeric_radial_is_config_error(self, tmp_path, value):
        bad = tmp_path / "bad_radial.json"
        bad.write_text(json.dumps({**FULL_P_CONFIG, "radial_factors": {"e0": value}}))
        with pytest.raises(ConfigError, match="finite positive number"):
            load_atomic_system(bad)

    @pytest.mark.parametrize("excited", [5, None, "e0", {"label": "e0", "l": 1, "m": 0}],
                             ids=["int", "null", "string", "object"])
    def test_non_list_excited_is_config_error(self, tmp_path, excited):
        bad = tmp_path / "bad_excited.json"
        bad.write_text(json.dumps({"ground": FULL_P_CONFIG["ground"], "excited": excited}))
        with pytest.raises(ConfigError, match="'excited' .* must be a list"):
            load_atomic_system(bad)

    def test_non_utf8_config_is_config_error(self, tmp_path):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(json.dumps(FULL_P_CONFIG).replace('"g"', '"\u00e9"').encode("latin-1"))
        with pytest.raises(ConfigError, match="not UTF-8"):
            load_atomic_system(bad)

    @pytest.mark.parametrize("config", UNKNOWN_KEY_CONFIGS.values(), ids=UNKNOWN_KEY_CONFIGS.keys())
    def test_unknown_key_is_config_error(self, tmp_path, config):
        bad = tmp_path / "unknown_key.json"
        bad.write_text(json.dumps(config))
        with pytest.raises(ConfigError, match="unknown keys"):
            load_atomic_system(bad)


class TestConfigCache:
    def test_rewritten_file_is_parsed_again(self, tmp_path):
        config = tmp_path / "atom.json"
        config.write_text(json.dumps({**FULL_P_CONFIG, "radial_factors": {"e0": 2.0}}))
        first, _ = load_atomic_system(config)
        config.write_text(json.dumps({**FULL_P_CONFIG, "radial_factors": {"e0": 3.0}, "mode_map": {"pi": "e0"}}))
        second, mode_map = load_atomic_system(config)
        assert first.radial_factors["e0"] == 2.0 and second.radial_factors["e0"] == 3.0
        assert mode_map == [(PI, "e0")]

    def test_malformed_config_raises_on_every_call(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**FULL_P_CONFIG, "mode_map": {"pi": "e0", "sigma+": "e+"}}))
        messages = []
        for _ in range(3):
            with pytest.raises(ConfigError, match="cannot emit") as caught:
                load_atomic_system(bad)
            messages.append(str(caught.value))
        assert len(set(messages)) == 1 and str(bad) in messages[0]

    def test_returned_mode_map_is_the_callers_own(self, config_dir):
        _, mode_map = load_atomic_system(config_dir / "full_p_manifold.json")
        expected = list(mode_map)
        mode_map.reverse()
        mode_map.append((PI, None))
        assert load_atomic_system(config_dir / "full_p_manifold.json")[1] == expected

    @pytest.mark.parametrize("name", sorted(path.name for path in CONFIG_DIR.glob("*.json")))
    def test_warm_load_equals_cold_load(self, config_dir, name):
        warm, warm_map = load_atomic_system(config_dir / name)
        assert load_atomic_system(config_dir / name)[0] is warm  # parsed once
        experiments._parse_config.cache_clear()
        cold, cold_map = load_atomic_system(config_dir / name)
        assert cold is not warm
        assert [level.label for level in (cold.ground, *cold.excited)] == [
            level.label for level in (warm.ground, *warm.excited)
        ]
        assert cold.amplitudes.tobytes() == warm.amplitudes.tobytes()
        assert cold.allowed.tobytes() == warm.allowed.tobytes()
        assert cold_map == warm_map


class TestRunners:
    @pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
    def test_every_kind_runs_and_passes(self, kind, config_dir):
        report, _ = run(spec_for(kind, config_dir))
        assert report["kind"] == kind
        assert report["passed"] is True

    @pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
    def test_every_rendered_report_is_schema_valid(self, kind, config_dir):
        rendered = render_report(*run(spec_for(kind, config_dir)), "json")
        assert_schema_valid(json.loads(rendered))

    def test_clone_demo_equal_superposition(self, config_dir):
        report, _ = run(spec_for("clone-demo", config_dir))
        output = [re for re, _ in report["results"]["output"]]
        assert output == pytest.approx([0.5, 0.5, 0.5, 0.5], abs=1e-12)
        assert report["results"]["fidelity"] == pytest.approx(1.0, abs=1e-12)

    def test_fixed_ancilla_half_fidelity(self, config_dir):
        report, _ = run(spec_for("fixed-ancilla", config_dir))
        assert report["results"]["fidelity"] == pytest.approx(0.5, abs=1e-10)

    def test_witness_sweep_counts(self, config_dir):
        report, _ = run(spec_for("no-cloning-witness", config_dir))
        witnesses = report["results"]["witnesses"]
        assert len(witnesses) == 101
        contradictions = [w for w in witnesses if w["verdict"] == "CONTRADICTION"]
        assert len(contradictions) == 99

    def test_selection_rules_hydrogen_table(self, config_dir):
        report, _ = run(spec_for("selection-rules", config_dir))
        rows = report["results"]["transitions"]
        by_level = {}
        for row in rows:
            by_level.setdefault(row["excited"], []).append(row)
        assert all(not row["allowed"] for row in by_level["2s"])
        allowed_2p = [row for label in ("2p-", "2p0", "2p+") for row in by_level[label] if row["allowed"]]
        assert sorted(row["q"] for row in allowed_2p) == [-1, 0, 1]

    def test_domain_report(self, config_dir):
        report, _ = run(spec_for("domain", config_dir))
        assert report["results"]["allowed_modes"] == ["sigma-", "pi", "sigma+"]
        assert report["results"]["dimension"] == 3

    def test_stimulated_clone_report(self, config_dir):
        report, _ = run(spec_for("stimulated-clone", config_dir))
        results = report["results"]
        assert results["fidelity"] == pytest.approx(1.0, abs=1e-10)
        photon, output = (np.array(results[key]) @ [1, 1j] for key in ("photon", "output"))
        assert np.max(np.abs(output - np.kron(photon, photon))) <= 1e-12
        assert [check["name"] for check in report["checks"]] == ["fidelity-is-one"]

    def test_stimulated_clone_runs_no_abstract_copier(self, config_dir, monkeypatch):
        # The physical copy is compared with photon (x) photon, not with a run of clone().
        calls = []
        post_init = copying.CopyBasis.__post_init__
        monkeypatch.setattr(copying.CopyBasis, "__post_init__", lambda self: calls.append("CopyBasis") or post_init(self))
        for module in (copying, experiments):
            original = module.clone
            monkeypatch.setattr(module, "clone", lambda *args, f=original: calls.append("clone") or f(*args))
        report, _ = run(spec_for("stimulated-clone", config_dir))
        assert report["passed"] and calls == []
        run(spec_for("clone-demo", config_dir))
        assert calls == ["CopyBasis", "clone"]  # the patches see the abstract copier

    @pytest.mark.parametrize(
        "options",
        [
            pytest.param([config, "--seed", str(seed)], id=f"{config}-seed{seed}")
            for config in ("full_p_manifold.json", "pi_only.json")
            for seed in range(10)
        ]
        + [pytest.param(["pi_only.json", "--state", "1,1e-11"], id="pi_only.json-below-tolerance")],
    )
    def test_report_output_is_the_dense_hamiltonian_pair(self, capsys, options):
        # The reported pair is H|ancilla, 1_photon> on the ground level, from the report's own
        # ancilla and photon, normalized and without H's overall sign.
        config, *rest = options
        assert main(["stimulated-clone", "--config", str(CONFIG_DIR / config), *rest]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        photon, ancilla, output = (
            np.array(results[key]) @ [1, 1j] for key in ("photon", "adaptive_ancilla", "output")
        )
        system, mode_map = load_atomic_system(CONFIG_DIR / config)
        couplings = system.amplitudes[:, [mode.q + 1 for mode, _ in mode_map]]
        pair = stimulated_pair_by_hamiltonian(couplings, ancilla, photon)
        assert np.max(np.abs(output + pair / np.linalg.norm(pair))) < 1e-12
        assert results["fidelity"] == pytest.approx(abs(np.vdot(np.kron(photon, photon), output)) ** 2, abs=1e-12)

    def test_spontaneous_reports_isotropic_mixture(self, config_dir):
        report, _ = run(spec_for("spontaneous", config_dir))
        assert report["results"]["weights"] == pytest.approx([1 / 3] * 3, abs=1e-10)

    def test_spontaneous_two_mode_restriction(self, config_dir):
        report, _ = run(spec_for("spontaneous", config_dir, modes=("sigma-", "sigma+")))
        assert report["results"]["weights"] == pytest.approx([0.5, 0.5], abs=1e-10)


# Report-shaped values for the JSON writer: every leaf type json writes, and
# [re, im] pair lists both of the bulk kind and of kinds that must not be bulk.
json_floats = st.floats() | st.sampled_from([-0.0, 5e-324, 1e16, 1e22, float("nan"), float("inf"), float("-inf")])
json_leaves = (
    st.none() | st.booleans() | st.integers() | json_floats
    | st.text() | st.sampled_from(["é", "\u2192\u03c8", '"quoted"', "back\\slash", "line\nbreak\t\x00"])
)
pair_lists = st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=2), max_size=5)
odd_pair_lists = st.one_of(
    st.lists(st.lists(json_floats, min_size=2, max_size=2), min_size=1, max_size=4),
    st.lists(st.tuples(st.integers(), st.floats()).map(list), min_size=1, max_size=3),
    st.lists(st.lists(st.floats(allow_nan=False), min_size=3, max_size=3), min_size=1, max_size=3),
    st.lists(st.lists(st.floats(allow_nan=False).map(np.float64), min_size=2, max_size=2), min_size=1, max_size=3),
    st.lists(st.tuples(st.floats(), st.floats()), min_size=1, max_size=3),
    st.just([]),
)
json_values = st.recursive(
    json_leaves | pair_lists | odd_pair_lists,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=20,
)
# Pair lists that pin the edges of the bulk path: all but the last two must not
# be bulk-written (the int one may be, as %r of an int is what json writes).
fixed_pair_lists = [
    [[1, 2.0]], [[True, 2.0]], [[1.0, 2.0, 3.0]], [[np.float64(0.5), 2.0]], [(1.0, 2.0)], [],
    [[float("nan"), 1.0]], [[1e308, 1e308], [-1e308, 1.0]], [[-0.0, 5e-324], [1e16, 1e22]],
]


def with_fixed_pair_lists(test):
    for value in fixed_pair_lists:
        test = example(report={"results": {"pairs": value, "nested": [value, {"x": value}]}})(test)
    return test


class TestRendering:
    def test_json_determinism_modulo_timestamp(self, config_dir):
        for kind in EXPERIMENT_KINDS:
            first = render_report(*run(spec_for(kind, config_dir)), "json")
            second = render_report(*run(spec_for(kind, config_dir)), "json")
            assert strip_timestamp(first) == strip_timestamp(second)

    @pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
    def test_json_has_no_numpy_reprs(self, kind, config_dir):
        # pi_only.json leaves a photon component uncoupled.
        overrides = {"config_path": str(config_dir / "pi_only.json")} if kind == "stimulated-clone" else {}
        text = render_report(*run(spec_for(kind, config_dir, **overrides)), "json")
        assert "np." not in text

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @with_fixed_pair_lists
    @given(report=st.dictionaries(st.text(max_size=6), json_values, max_size=6))
    def test_json_writer_equals_stdlib_oracle(self, report):
        assert render_report(report, [], "json") == stdlib_json(report)

    @pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
    def test_golden_reports_render_as_stdlib(self, case, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        rendered = []

        def render_and_compare(report, rows, output_format):
            text = render_report(report, rows, output_format)
            assert text == stdlib_json(report)
            rendered.append(text)
            return text

        monkeypatch.setattr(cli, "render_report", render_and_compare)
        code, out, _ = run_cli(GOLDEN_CASES[case])
        assert rendered == ([out] if code in (0, 1) else [])

    def test_json_excludes_private_keys(self, config_dir):
        # the csv/table rows are passed beside the report, never written into it
        text = render_report(*run(spec_for("domain", config_dir)), "json")
        assert set(json.loads(text)) == REPORT_KEYS

    def test_csv_has_header_and_rows(self, config_dir):
        text = render_report(*run(spec_for("selection-rules", config_dir)), "csv")
        lines = text.strip().splitlines()
        assert lines[0].startswith("excited,")
        assert len(lines) == 1 + 4 * 3

    @pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
    def test_csv_and_table_columns_are_documented(self, kind, config_dir):
        report, rows = run(spec_for(kind, config_dir))
        columns = documented_columns()
        assert columns.keys() == set(EXPERIMENT_KINDS)
        assert render_report(report, rows, "csv").splitlines()[0].split(",") == columns[kind]
        assert render_report(report, rows, "table").splitlines()[1].split() == columns[kind]

    def test_table_is_aligned_text(self, config_dir):
        text = render_report(*run(spec_for("domain", config_dir)), "table")
        assert "mode" in text and "sigma-" in text


class TestCli:
    def test_clone_demo_stdout(self, capsys):
        code = main(["clone-demo", "--state", "plus"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["kind"] == "clone-demo"
        assert report["passed"] is True

    def test_out_file(self, tmp_path, config_dir):
        out = tmp_path / "report.json"
        code = main(["domain", "--config", str(config_dir / "full_p_manifold.json"), "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["results"]["dimension"] == 3

    def test_seeded_runs_identical(self, capsys, config_dir):
        main(["stimulated-clone", "--config", str(config_dir / "full_p_manifold.json"), "--seed", "5"])
        first = capsys.readouterr().out
        main(["stimulated-clone", "--config", str(config_dir / "full_p_manifold.json"), "--seed", "5"])
        second = capsys.readouterr().out
        assert strip_timestamp(first) == strip_timestamp(second)

    def test_wrong_clonable_domain_fails_the_domain_check(self, capsys, monkeypatch, config_dir):
        monkeypatch.setattr(experiments, "clonable_domain", lambda system: (SIGMA_MINUS, PI))
        assert main(["domain", "--config", str(config_dir / "full_p_manifold.json")]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["allowed_modes"] == ["sigma-", "pi"]
        assert [(check["name"], check["passed"]) for check in report["checks"]] == [
            ("domain-matches-selection-rules", False)
        ]

    @pytest.mark.parametrize("config", sorted(path.name for path in CONFIG_DIR.glob("*.json")))
    def test_domain_check_passes_on_every_config(self, capsys, config):
        assert main(["domain", "--config", str(CONFIG_DIR / config)]) == 0

    @pytest.mark.parametrize(
        "factors, populations",
        [((0.0, 0.5, -0.5), ["--excited-state", "1,0,0"]), ((0.0, 0.0, 0.0), [])],
        ids=["weight-on-a-forbidden-mode", "no-weight-on-an-admitted-mode"],
    )
    def test_wrong_dipole_table_fails_the_spontaneous_check(self, capsys, monkeypatch, tmp_path, factors, populations):
        # Level e- (m = -1) may emit only sigma+; the patched table says otherwise.
        config = tmp_path / "full_p.json"
        config.write_text(json.dumps(FULL_P_CONFIG))
        original = emission.dipole_angular_factors
        monkeypatch.setattr(
            emission, "dipole_angular_factors", lambda *lm: factors if lm == (1, -1, 0, 0) else original(*lm)
        )
        assert main(["spontaneous", "--config", str(config), *populations]) == 1
        report = json.loads(capsys.readouterr().out)
        assert [(check["name"], check["passed"]) for check in report["checks"]] == [
            ("weights-match-selection-rules", False)
        ]

    # Unpopulated levels, and a population that underflows to zero, give modes no weight.
    @pytest.mark.parametrize("populations", [["--excited-state", "1,0,0"], ["--excited-state", "0,1e-170,1"]])
    def test_spontaneous_check_passes_with_unweighted_modes(self, capsys, config_dir, populations):
        assert main(["spontaneous", "--config", str(config_dir / "full_p_manifold.json"), *populations]) == 0

    def test_spontaneous_weight_lost_to_underflow_exit_4(self, capsys, config_dir):
        # e- holds a subnormal population whose only channel, sigma+, underflows to weight 0.
        code = main(["spontaneous", "--config", str(config_dir / "full_p_manifold.json"),
                     "--excited-state", "2.3e-162,1,0"])
        assert code == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "an allowed decay weight underflows to zero" in captured.err

    def test_argparse_error_is_returned(self, capsys):
        # argparse reads "-1,0" as an option, so --state has no value; main returns 2 instead of raising.
        assert main(["clone-demo", "--state", "-1,0"]) == 2
        assert "argument --state: expected one argument" in capsys.readouterr().err
        assert main(["clone-demo", "--state=-1,0"]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["input"] == [[-1.0, 0.0], [0.0, 0.0]]

    def test_config_error_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["domain", "--config", str(bad)]) == 2
        assert main(["domain"]) == 2  # missing --config
        assert "config error" in capsys.readouterr().err

    def test_repeated_mode_map_level_exit_2(self, capsys, tmp_path):
        # docs/atomic_system_config.md: mode map values must be distinct.
        config = tmp_path / "repeated.json"
        config.write_text(json.dumps({
            "ground": {"label": "g", "l": 0, "m": 0},
            "excited": [{"label": "e0", "l": 1, "m": 0}],
            "mode_map": {"pi": "e0", "sigma+": "e0"},
        }))
        assert main(["stimulated-clone", "--config", str(config), "--state", "1,0"]) == 2
        assert main(["domain", "--config", str(config)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_fractional_l_exit_2(self, capsys, tmp_path):
        config = tmp_path / "fractional.json"
        config.write_text(json.dumps({
            "ground": {"label": "g", "l": 0, "m": 0},
            "excited": [{"label": "e0", "l": 1.7, "m": 0}],
        }))
        assert main(["selection-rules", "--config", str(config)]) == 2
        assert "must be integers" in capsys.readouterr().err

    def test_forbidden_mode_map_pair_exit_2(self, capsys, tmp_path):
        # docs/atomic_system_config.md: a mapped level must emit its polarization.
        config = tmp_path / "forbidden_pair.json"
        config.write_text(json.dumps({**FULL_P_CONFIG, "mode_map": {"pi": "e0", "sigma+": "e+"}}))
        assert main(["stimulated-clone", "--config", str(config), "--state", "1,0"]) == 2
        assert main(["domain", "--config", str(config)]) == 2
        assert "cannot emit" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "value",
        [float("nan"), float("inf"), True, "1", 1e-310, 10**400],
        ids=["NaN", "Infinity", "true", "string", "subnormal", "401-digit-integer"],
    )
    def test_bad_radial_factor_exit_2(self, capsys, tmp_path, value):
        config = tmp_path / "bad_radial.json"
        config.write_text(json.dumps({**FULL_P_CONFIG, "radial_factors": {"e0": value}}))
        for kind in ("domain", "spontaneous"):
            assert main([kind, "--config", str(config)]) == 2
            assert "config error" in capsys.readouterr().err

    def test_integer_longer_than_json_reads_exit_2(self, capsys, tmp_path):
        # json refuses an integer of more than 4300 digits with a plain ValueError.
        config = tmp_path / "long_integer.json"
        config.write_text(json.dumps(FULL_P_CONFIG)[:-1] + ', "radial_factors": {"e0": 1' + "0" * 5000 + "}}")
        assert main(["domain", "--config", str(config)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entry, key",
        [('"mode_map": {"pi": "e+", "pi": "e0"}', "pi"), ('"radial_factors": {"e0": -1, "e0": 2.0}', "e0")],
        ids=["mode-map", "radial-factors"],
    )
    def test_duplicate_key_exit_2(self, capsys, tmp_path, entry, key):
        # json keeps the last duplicate, which would hide the first value (here an invalid one).
        config = tmp_path / "duplicate.json"
        config.write_text(json.dumps(FULL_P_CONFIG)[:-1] + ", " + entry + "}")
        assert main(["domain", "--config", str(config)]) == 2
        assert f"duplicate key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [None, 5, ""], ids=["label-null", "label-int", "label-empty"])
    def test_level_fields_are_not_coerced_exit_2(self, capsys, tmp_path, value):
        config = tmp_path / "bad_level.json"
        config.write_text(json.dumps({**FULL_P_CONFIG, "excited": [{"label": value, "l": 1, "m": 0}]}))
        assert main(["selection-rules", "--config", str(config)]) == 2
        assert "must be a non-empty string" in capsys.readouterr().err

    def test_level_energy_is_an_unknown_key_exit_2(self, capsys, tmp_path):
        # Nothing in the model reads a level energy, so a config may not set one.
        config = tmp_path / "energy.json"
        config.write_text(json.dumps({**FULL_P_CONFIG, "ground": {"label": "g", "l": 0, "m": 0, "energy": 0.0}}))
        assert main(["selection-rules", "--config", str(config)]) == 2
        assert "unknown keys ['energy'] in ground level" in capsys.readouterr().err

    def test_spontaneous_channels_follow_the_allowed_mask(self, capsys, tmp_path, config_dir):
        # Radial factors of 1e-7 leave every sigma/pi amplitude allowed (|D| ~ 5.8e-8)
        # while the squared, population-weighted weights are ~1e-15.
        config = tmp_path / "weak.json"
        config.write_text(json.dumps({**FULL_P_CONFIG, "radial_factors": {"e-": 1e-7, "e0": 1e-7, "e+": 1e-7}}))
        assert main(["selection-rules", "--config", str(config)]) == 0
        assert sum(row["allowed"] for row in json.loads(capsys.readouterr().out)["results"]["transitions"]) == 3
        assert main(["spontaneous", "--config", str(config)]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["weights"] == pytest.approx([1 / 3] * 3, abs=1e-12)
        assert main(["spontaneous", "--config", str(config_dir / "s_to_s_forbidden.json")]) == 3
        assert "no allowed decay channel" in capsys.readouterr().err

    @pytest.mark.parametrize("radial", [1e-300, 1e-13, 1e-6, 2e10, 1e12, 1e200, 1.7e308])
    def test_stimulated_clone_is_independent_of_radial_scale(self, tmp_path, radial):
        # V holds 1 / D and the emitted photon scales as D, so both span the whole normal range.
        def results(scale):
            config = tmp_path / f"scale_{scale}.json"
            config.write_text(json.dumps({
                **FULL_P_CONFIG,
                "radial_factors": {"e-": scale, "e0": scale, "e+": scale},
                "mode_map": {"sigma-": "e+", "pi": "e0", "sigma+": "e-"},
            }))
            code, out, err = run_cli(["stimulated-clone", "--config", str(config), "--seed", "7"])
            assert (code, err) == (0, "")
            return json.loads(out)["results"]

        reference, scaled = results(1.0), results(radial)
        for key in ("photon", "adaptive_ancilla", "output"):
            assert max_abs(np.array(scaled[key]) - np.array(reference[key])) <= 1e-12
        assert scaled["fidelity"] == pytest.approx(reference["fidelity"], abs=1e-12)

    @pytest.mark.parametrize("radial", [1e-300, 1e-13])
    @pytest.mark.parametrize("name", ["full_p_manifold", "hydrogen_n2"])
    @pytest.mark.parametrize("kind", ["selection-rules", "domain", "spontaneous"])
    def test_tiny_radial_scale_keeps_every_allowed_transition(self, tmp_path, kind, name, radial):
        # The mask is the angular factor's exact zeros, so no radial scale makes a transition forbidden.
        raw = json.loads((CONFIG_DIR / f"{name}.json").read_text())
        raw["radial_factors"] = {level["label"]: radial for level in raw["excited"]}
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps(raw))
        reference = run_cli([kind, "--config", str(CONFIG_DIR / f"{name}.json")])
        code, out, err = run_cli([kind, "--config", str(config)])
        assert (code, err) == (0, "")
        results, expected = json.loads(out)["results"], json.loads(reference[1])["results"]
        if kind == "selection-rules":
            assert [row["allowed"] for row in results["transitions"]] == [
                row["allowed"] for row in expected["transitions"]
            ]
        elif kind == "domain":
            assert results == expected
        else:
            assert results["weights"] == pytest.approx(expected["weights"], abs=1e-15)

    def test_spontaneous_weights_at_a_huge_radial_scale(self, tmp_path):
        # Unless |D| is scaled first, |D|^2 overflows above r ~ 1e154; warnings are errors under pytest.
        config = tmp_path / "huge.json"
        config.write_text(json.dumps({**FULL_P_CONFIG, "radial_factors": {"e-": 1e200, "e0": 1e200, "e+": 1e200}}))
        code, out, err = run_cli(["spontaneous", "--config", str(config)])
        assert (code, err) == (0, "")
        assert json.loads(out)["results"]["weights"] == pytest.approx([1 / 3] * 3, abs=1e-12)

    @pytest.mark.parametrize("options", [[], ["--state", "1"]], ids=["seeded", "state"])
    def test_uncoupled_mode_map_exit_3(self, capsys, tmp_path, options):
        config = tmp_path / "uncoupled.json"
        config.write_text(json.dumps({**FULL_P_CONFIG, "mode_map": {"pi": None}}))
        assert main(["stimulated-clone", "--config", str(config), *options]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "domain violation" in captured.err

    def test_non_finite_state_exit_4(self, capsys):
        assert main(["clone-demo", "--state", "nan,1"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be finite" in captured.err

    @pytest.mark.parametrize("scale", ["1e200", "1e-160", "5e-324", "1.7e308"])
    @pytest.mark.parametrize(
        "kind, option, unit",
        [("clone-demo", "--state", "1,0"), ("fixed-ancilla", "--state", "1,0"),
         ("spontaneous", "--excited-state", "0,1,0")],
    )
    def test_state_scale_does_not_change_the_report(self, kind, option, unit, scale):
        # Normalization scales by an exact power of two first, so neither the norm's square
        # overflows nor a tiny norm is mistaken for the zero vector.
        config = ["--config", FULL_P] if kind == "spontaneous" else []
        scaled = unit.replace("1", scale)

        def report(state):
            code, out, err = run_cli([kind, *config, f"{option}={state}"])
            assert (code, err) == (0, "")
            body = json.loads(out)
            del body["generated_at"], body["parameters"][option.lstrip("-").replace("-", "_")]
            return body

        assert report(scaled) == report(unit)

    @pytest.mark.parametrize(
        "kind, option, zero", [("clone-demo", "--state", "0,0"), ("spontaneous", "--excited-state", "0,0,0")]
    )
    def test_zero_state_exit_4(self, capsys, kind, option, zero):
        config = ["--config", FULL_P] if kind == "spontaneous" else []
        assert main([kind, *config, f"{option}={zero}"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cannot normalize a zero vector" in captured.err

    def test_non_finite_overlap_exit_4(self, capsys):
        assert main(["no-cloning-witness", "--overlap", "nan"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be finite" in captured.err

    @pytest.mark.parametrize(
        "overlap, verdict",
        [("1e-13", "CONSISTENT"), (repr(1 - 1e-13), "CONSISTENT"), ("2e-12", "CONTRADICTION"), ("0.5", "CONTRADICTION"),
         ("-1", "CONTRADICTION")],
    )
    def test_witness_endpoints_within_witness_tolerance(self, capsys, overlap, verdict):
        # An overlap the witness calls CONSISTENT (within WITNESS_ATOL of 0 or 1) is an endpoint.
        assert main(["no-cloning-witness", "--overlap", overlap]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["witnesses"][0]["verdict"] == verdict
        interior = int(verdict == "CONTRADICTION")
        details = {check["name"]: check["detail"] for check in report["checks"]}
        assert details["interior-overlaps-contradict"] == f"{interior} interior overlaps checked"
        assert details["endpoint-overlaps-consistent"] == f"{1 - interior} endpoint overlaps checked"

    @pytest.mark.parametrize("kind", ["clone-demo", "fixed-ancilla"])
    @pytest.mark.parametrize("dim", ["257", "0"])
    def test_dim_out_of_bounds_exit_4(self, capsys, monkeypatch, kind, dim):
        # refused before any state is resolved or allocated
        monkeypatch.setattr(experiments, "resolve_state", lambda *args: pytest.fail("state resolved"))
        assert main([kind, "--dim", dim]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"dim must be between 1 and 256, got {dim}" in captured.err

    def test_dim_bound_is_inclusive(self, tmp_path):
        assert experiments.MAX_COPY_DIM == 256
        assert main(["clone-demo", "--dim", "256", "--format", "csv", "--out", str(tmp_path / "r.csv")]) == 0

    def test_failed_check_exit_1_after_writing_report(self, capsys, tmp_path, monkeypatch):
        def failing_runner(spec):
            return {"results": {}, "checks": [{"name": "always-fails", "passed": False, "detail": "forced"}]}, []

        monkeypatch.setitem(experiments._RUNNERS, "clone-demo", failing_runner)
        assert main(["clone-demo"]) == 1
        assert json.loads(capsys.readouterr().out)["passed"] is False
        out = tmp_path / "report.json"
        assert main(["clone-demo", "--out", str(out)]) == 1
        assert json.loads(out.read_text())["checks"][0]["name"] == "always-fails"

    @pytest.mark.parametrize("target", [".", "missing/report.json"], ids=["directory", "missing-parent"])
    def test_unwritable_out_exit_4(self, capsys, tmp_path, target):
        # docs/report_schema.md: an --out path that cannot be written exits 4, without a traceback.
        assert main(["clone-demo", "--out", str(tmp_path / target)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("clonesim: cannot write report: ")
        assert captured.err.count("\n") == 1
        assert [path.name for path in tmp_path.iterdir()] == []

    @pytest.mark.parametrize(
        "argv",
        [["clone-demo", "--dim", "12", "--state", "basis1_0"],
         ["clone-demo", "--state", "1_0,1"],
         ["spontaneous", "--config", str(CONFIG_DIR / "full_p_manifold.json"), "--excited-state", "1_0,0,1"]],
        ids=["basis-index", "state-amplitude", "excited-state-amplitude"],
    )
    def test_digit_group_underscore_exit_4(self, capsys, argv):
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("clonesim: invalid input: ")

    def test_spontaneous_repeated_modes_exit_4(self, capsys, config_dir):
        code = main(["spontaneous", "--config", str(config_dir / "full_p_manifold.json"), "--modes", "pi,pi"])
        assert code == 4
        assert "mode labels must be unique" in capsys.readouterr().err

    @pytest.mark.parametrize("excited", [5, None], ids=["int", "null"])
    def test_non_list_excited_exit_2(self, capsys, tmp_path, excited):
        # docs/report_schema.md: a malformed config exits 2, never 1 with a traceback.
        config = tmp_path / "bad_excited.json"
        config.write_text(json.dumps({"ground": FULL_P_CONFIG["ground"], "excited": excited}))
        assert main(["selection-rules", "--config", str(config)]) == 2
        assert "must be a list of levels" in capsys.readouterr().err

    @pytest.mark.parametrize("config", UNKNOWN_KEY_CONFIGS.values(), ids=UNKNOWN_KEY_CONFIGS.keys())
    def test_unknown_config_key_exit_2(self, capsys, tmp_path, config):
        path = tmp_path / "unknown_key.json"
        path.write_text(json.dumps(config))
        assert main(["selection-rules", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error: unknown keys" in captured.err

    def test_non_utf8_config_exit_2(self, capsys, tmp_path):
        config = tmp_path / "latin1.json"
        config.write_bytes(json.dumps(FULL_P_CONFIG).replace('"g"', '"\u00e9"').encode("latin-1"))
        assert main(["domain", "--config", str(config)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("modes", [["--modes", ""], ["--modes="], ["--modes", " , "]])
    def test_spontaneous_empty_modes_exit_4(self, capsys, config_dir, modes):
        code = main(["spontaneous", "--config", str(config_dir / "full_p_manifold.json"), *modes])
        assert code == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown polarization mode label ''" in captured.err

    def test_domain_violation_exit_3(self, capsys, config_dir):
        code = main([
            "stimulated-clone",
            "--config", str(config_dir / "pi_only.json"),
            "--state", "0.70710678,0.70710678",
        ])
        assert code == 3
        assert "domain violation" in capsys.readouterr().err

    def test_validation_error_exit_4(self, capsys, config_dir):
        code = main([
            "stimulated-clone",
            "--config", str(config_dir / "full_p_manifold.json"),
            "--state", "1,0",  # three components expected
        ])
        assert code == 4
        code = main(["clone-demo", "--state", "1,banana"])
        assert code == 4
        assert "invalid input" in capsys.readouterr().err

    def test_format_flags(self, capsys, config_dir):
        assert main(["selection-rules", "--config", str(config_dir / "hydrogen_n2.json"), "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("excited,")
        assert main(["no-cloning-witness", "--overlap", "0.5", "--format", "table"]) == 0
        assert "CONTRADICTION" in capsys.readouterr().out

    def test_pi_only_photon_in_domain(self, capsys, config_dir):
        code = main([
            "stimulated-clone",
            "--config", str(config_dir / "pi_only.json"),
            "--state", "1,0",
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["fidelity"] == pytest.approx(1.0, abs=1e-10)


def load_batch_script():
    spec = importlib.util.spec_from_file_location("run_all_experiments", REPO_ROOT / "scripts" / "run_all_experiments.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_run_all_experiments_script_writes_every_report(capsys, tmp_path):
    script = load_batch_script()
    assert script.main(["--out-dir", str(tmp_path)]) == 0
    assert len(list(tmp_path.iterdir())) == 12
    assert capsys.readouterr().out.count(" ok\n") == 12


@pytest.mark.parametrize("fmt, extension", [("json", "json"), ("csv", "csv"), ("table", "txt")])
def test_batch_reports_equal_cli_reports(capsys, tmp_path, fmt, extension):
    script = load_batch_script()
    assert script.main(["--out-dir", str(tmp_path / "batch"), "--format", fmt]) == 0
    seeds = {}
    for index, argv in enumerate(script.EXPERIMENTS):
        name = f"{index:02d}_{argv[0]}.{extension}"
        assert main(argv + ["--format", fmt, "--out", str(tmp_path / name)]) == 0
        batch, direct = (tmp_path / "batch" / name).read_text(), (tmp_path / name).read_text()
        if fmt == "json":
            batch, direct = strip_timestamp(batch), strip_timestamp(direct)
            seeds[name] = json.loads(batch)["parameters"]["seed"]
        assert batch == direct, name
    if fmt == "json":
        # Only the two experiments that draw a random state were given a seed.
        assert {name for name, seed in seeds.items() if seed == 7} == {
            "01_clone-demo.json", "07_stimulated-clone.json"}
        assert set(seeds.values()) == {0, 7}


# An ASCII-only locale without UTF-8 mode: stdout cannot encode a non-ASCII label.
ASCII_LOCALE_ENV = {
    **{key: value for key, value in os.environ.items() if key not in ("PYTHONUTF8", "PYTHONIOENCODING")},
    "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONPATH": str(REPO_ROOT / "src"),
}


@pytest.mark.parametrize("output_format", ["csv", "table"])
class TestNonAsciiLabelUnderAsciiLocale:
    @pytest.fixture
    def config(self, tmp_path):
        path = tmp_path / "accented.json"
        accented = {**FULL_P_CONFIG, "excited": [{"label": "e\u00e9", "l": 1, "m": 0}]}
        path.write_text(json.dumps(accented, ensure_ascii=False), encoding="utf-8")
        return path

    def run_ascii(self, tmp_path, *argv):
        return subprocess.run([sys.executable, "-X", "utf8=0", "-m", "clonesim.cli", *argv], cwd=tmp_path,
                              env=ASCII_LOCALE_ENV, capture_output=True, timeout=60)

    def test_out_is_utf8(self, tmp_path, config, output_format):
        done = self.run_ascii(tmp_path, "selection-rules", "--config", str(config), "--format", output_format,
                              "--out", "o.txt")
        assert (done.returncode, done.stdout, done.stderr) == (0, b"", b"")
        assert "e\u00e9" in (tmp_path / "o.txt").read_text(encoding="utf-8")

    def test_stdout_exit_4_with_one_line(self, tmp_path, config, output_format):
        done = self.run_ascii(tmp_path, "selection-rules", "--config", str(config), "--format", output_format)
        assert (done.returncode, done.stdout) == (4, b"")
        assert done.stderr.startswith(b"clonesim: cannot write report: ")
        assert done.stderr.count(b"\n") == 1


def test_batch_status_line_names_the_exit_code(capsys, tmp_path, monkeypatch):
    script = load_batch_script()
    codes = iter([0, 1, 3] + [0] * (len(script.EXPERIMENTS) - 3))
    monkeypatch.setattr(script.cli, "main", lambda argv: next(codes))
    assert script.main(["--out-dir", str(tmp_path)]) == 1
    statuses = [line.split("  ")[-1] for line in capsys.readouterr().out.splitlines()]
    assert statuses[:4] == ["ok", "CHECK FAILED", "exit 3", "ok"]


def without_timestamp(result: tuple[object, str, str]) -> tuple[object, str, str]:
    code, out, err = result
    if out.startswith("{"):
        report = json.loads(out)
        report.pop("generated_at")
        out = json.dumps(report, sort_keys=True)
    return code, out, err


FULL_P = str(CONFIG_DIR / "full_p_manifold.json")
HYDROGEN = str(CONFIG_DIR / "hydrogen_n2.json")


class TestSharedParser:
    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize(
        "first, second",
        [
            (["spontaneous", "--config", FULL_P, "--modes", "sigma-,pi", "--excited-state", "0.6,0.48i,0.64"],
             ["spontaneous", "--config", FULL_P]),
            (["fixed-ancilla", "--ancilla-index", "3", "--dim", "4"], ["fixed-ancilla", "--dim", "4"]),
            (["selection-rules", "--config", HYDROGEN, "--format", "csv"], ["selection-rules", "--config", HYDROGEN]),
            (["clone-demo", "--dim", "x"], ["clone-demo"]),
            (["clone-demo", "--dim", "3", "--seed", "7", "--state", "plus"], ["fixed-ancilla", "--bogus"]),
        ],
        ids=["spontaneous-options", "ancilla-index", "format", "argparse-error", "error-after-options"],
    )
    def test_no_option_carries_into_the_next_call(self, first, second):
        cli.build_parser.cache_clear()
        fresh = without_timestamp(run_cli(second))
        run_cli(first)
        assert without_timestamp(run_cli(second)) == fresh
        run_cli(first)
        run_cli(["clone-demo", "--format", "xml"])  # an argparse error in between
        assert without_timestamp(run_cli(second)) == fresh


# Edge values for every subcommand flag, and for two flags that no subcommand
# has.  FUZZ_DIR in an --out value stands for a fresh temporary directory.
FUZZ_DIR = "<fuzz-dir>"
FUZZ_VALUES = {
    "--out": st.sampled_from([f"{FUZZ_DIR}/report.out", FUZZ_DIR, f"{FUZZ_DIR}/missing/report.out"]),
    "--config": st.sampled_from([FULL_P, HYDROGEN, str(CONFIG_DIR / "pi_only.json"),
                                 str(CONFIG_DIR / "s_to_s_forbidden.json"), "missing.json", "", str(CONFIG_DIR)]),
    "--state": st.sampled_from(["plus", "basis0", "basis3", "basis-1", "basisx", "1,0", "0.6,0.8i", "1,0,0", "0,0",
                                "nan,1", "1,inf", "1,banana", "", ",", "1e308,1e308", "1e-320,0"]) | st.text(max_size=6),
    "--seed": st.sampled_from(["0", "3", "-1", "18446744073709551616", "1.5", "x", ""]),
    "--format": st.sampled_from(["json", "csv", "table", "xml", ""]),
    "--dim": st.sampled_from(["1", "2", "3", "7", "32", "256", "257", "0", "-1", "x", "1e3"]),
    "--ancilla-index": st.sampled_from(["0", "1", "-1", "-5", "3", "99", "x"]),
    "--overlap": st.sampled_from(["0", "1", "0.5", "1e-13", "-0.5", "2", "nan", "inf", "-inf", "1e400", "x"]),
    "--excited-state": st.sampled_from(["1,0,0", "0.6,0.48i,0.64", "0,0,0", "1,2", "1", "nan,0,0", "", "a"]),
    "--modes": st.sampled_from(["", " , ", "pi", "pi,pi", "sigma-,pi,sigma+", "sigma+,sigma-", "x", "pi,"]),
    "--bogus": st.sampled_from(["1", ""]),
    "-x": st.just("1"),
}
# The options each subcommand reads besides --format and --out.
KIND_FLAGS = {
    "clone-demo": ["--state", "--seed", "--dim"],
    "fixed-ancilla": ["--state", "--seed", "--dim", "--ancilla-index"],
    "no-cloning-witness": ["--overlap"],
    "selection-rules": ["--config"],
    "domain": ["--config"],
    "stimulated-clone": ["--config", "--state", "--seed"],
    "spontaneous": ["--config", "--excited-state", "--modes"],
}
# A value of each such option that every subcommand taking it runs with.
FLAG_VALUES = {"--config": FULL_P, "--state": "plus", "--seed": "1", "--dim": "3", "--ancilla-index": "1",
               "--overlap": "0.5", "--excited-state": "1,0,0", "--modes": "pi"}


@pytest.mark.parametrize("flag", sorted(FLAG_VALUES))
@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_subcommand_takes_exactly_the_flags_it_reads(kind, flag):
    config = ["--config", FULL_P] if "--config" in KIND_FLAGS[kind] else []
    code, out, err = run_cli([kind, *config, flag, FLAG_VALUES[flag]])
    if flag in KIND_FLAGS[kind]:
        assert code == 0, err
    else:
        assert (code, out) == (2, "")
        assert f"unrecognized arguments: {flag} " in err


def fuzz_option(flags: list[str]):
    """One ``--flag value`` or ``--flag=value`` option, as an argv fragment."""
    return st.tuples(st.sampled_from(flags), st.booleans()).flatmap(
        lambda pair: FUZZ_VALUES[pair[0]].map(lambda value: [f"{pair[0]}={value}"] if pair[1] else [pair[0], value])
    )


@st.composite
def fuzz_argv(draw) -> list[str]:
    """A subcommand (or an unknown one) with mostly its own options and at most one foreign flag."""
    kind = draw(st.sampled_from(EXPERIMENT_KINDS + ("nope",)))
    own = ["--format", "--out"] + KIND_FLAGS.get(kind, [])
    options = draw(st.lists(fuzz_option(own), max_size=4))
    if "--config" in KIND_FLAGS.get(kind, []):
        options.insert(0, draw(fuzz_option(["--config"])))
    if draw(st.sampled_from([False, False, False, True])):
        options.insert(draw(st.integers(0, len(options))), draw(fuzz_option(sorted(FUZZ_VALUES))))
    return [kind] + [token for option in options for token in option]


class TestCliFuzz:
    @settings(max_examples=200, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(argv=fuzz_argv())
    def test_exit_code_is_documented_and_no_traceback(self, argv):
        with tempfile.TemporaryDirectory() as fuzz_dir:
            code, out, err = run_cli([token.replace(FUZZ_DIR, fuzz_dir) for token in argv])
        assert code in {0, 1, 2, 3, 4}, (argv, code, err)
        assert "Traceback" not in err, (argv, err)
        if code in (2, 3, 4):
            assert out == "", argv
