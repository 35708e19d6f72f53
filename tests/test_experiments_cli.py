"""Tests for the experiment runner, report formats, and the CLI surface."""

import argparse
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import types
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import FrozenInstanceError
from enum import Enum, IntEnum
from fractions import Fraction
from typing import get_args

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from clonesim import cli, copying, emission, experiments, hilbert
from clonesim.cli import main
from clonesim.emission import PI, SIGMA_MINUS
from clonesim.errors import ConfigError
from clonesim.hilbert import max_abs
from clonesim.experiments import (
    EXPERIMENT_INPUTS,
    EXPERIMENT_KINDS,
    MAX_COPY_DIM,
    load_atomic_system,
    parse_amplitudes,
    render_report,
    resolve_state,
    run,
)
from oracles import stimulated_pair_by_hamiltonian, witness_by_fractions
from test_golden import CASES as GOLDEN_CASES
from test_golden import REPO_ROOT

CONFIG_DIR = REPO_ROOT / "configs"

# Complex overlaps drawn uniformly by area from the unit disc.
RANDOM_OVERLAPS = [complex(np.sqrt(r) * np.exp(2j * np.pi * t)) for r, t in np.random.default_rng(29).uniform(size=(8, 2))]

REPORT_KEYS = {"schema_version", "kind", "generated_at", "parameters", "results", "checks", "passed"}


def documented_table(heading: str) -> dict[str, list[str]]:
    """The backquoted names in each kind's row of a table in docs/report_schema.md."""
    text = (REPO_ROOT / "docs" / "report_schema.md").read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([a-z-]+)` +\| (.+) \|$", section, re.MULTILINE)
    return {kind: re.findall(r"`([^`]+)`", names) for kind, names in rows}


REPORT_PARAMETERS = documented_table("`parameters` per kind")


def assert_schema_valid(report: dict) -> None:
    """The report layout of docs/report_schema.md (version 3), key by key."""
    assert report.keys() == REPORT_KEYS
    assert type(report["schema_version"]) is int and report["schema_version"] == 3
    assert isinstance(report["kind"], str) and isinstance(report["generated_at"], str)
    assert isinstance(report["parameters"], dict)
    assert sorted(report["parameters"]) == sorted(REPORT_PARAMETERS[report["kind"]])
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


def strip_timestamp(text: str) -> str:
    report = json.loads(text)
    report.pop("generated_at")
    return json.dumps(report, indent=2, sort_keys=True)


def run_cli(argv: list[str]) -> tuple[object, str, str]:
    """Exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def spec_for(kind: str, config_dir, **overrides) -> dict:
    """The inputs ``run(kind, ...)`` takes in these tests, with ``overrides``."""
    defaults = {
        "clone-demo": {"state": "plus", "dim": 2},
        "fixed-ancilla": {"state": "plus", "dim": 2, "ancilla_index": 0},
        "no-cloning-witness": {},
        "selection-rules": {"config_path": str(config_dir / "hydrogen_n2.json")},
        "domain": {"config_path": str(config_dir / "full_p_manifold.json")},
        "stimulated-clone": {"config_path": str(config_dir / "full_p_manifold.json"), "seed": 11},
        "spontaneous": {"config_path": str(config_dir / "full_p_manifold.json")},
    }
    return {**defaults[kind], **overrides}


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

    @pytest.mark.parametrize("place", [0, 1, 2])
    @pytest.mark.parametrize(
        "token, message",
        [("", "empty amplitude in state spec"), (" \u2003", "empty amplitude in state spec"),
         ("1_0", "amplitude '1_0' holds an underscore"), (" 1i_ ", "amplitude '1i_' holds an underscore"),
         ("two", "cannot parse amplitude 'two'"), ("\u2003 1+ 2i\n", "cannot parse amplitude '1+ 2i'")],
    )
    def test_bad_token_message_in_any_place(self, token, message, place):
        tokens = ["0.6", " 0.8i", "0 "]
        tokens[place] = token
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_amplitudes(",".join(tokens))

    def test_first_bad_token_names_the_error(self):
        with pytest.raises(ValueError, match="^cannot parse amplitude 'two'$"):
            parse_amplitudes("1, two, , 1_0")
        with pytest.raises(ValueError, match="^empty amplitude in state spec$"):
            parse_amplitudes("1, , two, 1_0")

    def test_amplitudes_are_parsed_after_str_strip(self):
        # complex() strips Unicode spaces itself, but not U+001C to U+001F, which str.strip does.
        text = "\u20030.6+0.8i\u00a0,\t-1e-3\n,\x1c2i\x1f, (1-1j) "
        expected = [complex(token.strip().replace("i", "j")) for token in text.split(",")]
        assert parse_amplitudes(text).tolist() == expected
        assert parse_amplitudes(text).dtype == complex


class TestConfigLoading:
    def test_full_manifold_config(self, config_dir):
        system, mode_map = load_atomic_system(config_dir / "full_p_manifold.json")
        assert system.manifold_dim == 3
        assert mode_map.system is system
        assert [mode.label for mode, _ in mode_map.pairs] == ["sigma-", "pi", "sigma+"]
        assert [label for _, label in mode_map.pairs] == ["e+", "e0", "e-"]

    def test_mode_map_optional(self, config_dir):
        _, mode_map = load_atomic_system(config_dir / "hydrogen_n2.json")
        assert mode_map is None

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_atomic_system(tmp_path / "missing.json")

    def test_a_file_descriptor_is_not_a_config_path(self, config_dir):
        # open() takes an int as a descriptor to read and close; a config path is a str or path-like.
        with open(config_dir / "pi_only.json", encoding="utf-8") as handle:
            with pytest.raises(TypeError):
                load_atomic_system(handle.fileno())

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
        [{"pi": "e0", "sigma+": "e0"}, {"pi": ["e0"]}, {"circular": "e0"}, {}],
        ids=["repeated-level", "unhashable-level", "unknown-mode", "empty"],
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
        assert mode_map.pairs == ((PI, "e0"),)

    def test_malformed_config_raises_on_every_call(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**FULL_P_CONFIG, "mode_map": {"pi": "e0", "sigma+": "e+"}}))
        messages = []
        for _ in range(3):
            with pytest.raises(ConfigError, match="cannot emit") as caught:
                load_atomic_system(bad)
            messages.append(str(caught.value))
        assert len(set(messages)) == 1 and str(bad) in messages[0]

    def test_returned_mode_map_is_immutable_and_shared(self, config_dir):
        _, mode_map = load_atomic_system(config_dir / "full_p_manifold.json")
        assert type(mode_map.pairs) is tuple and all(type(pair) is tuple for pair in mode_map.pairs)
        with pytest.raises(FrozenInstanceError):
            mode_map.pairs = ((PI, None),)
        assert load_atomic_system(config_dir / "full_p_manifold.json")[1] is mode_map

    def test_one_mode_map_per_distinct_config(self, capsys, config_dir, monkeypatch):
        # The mode map is validated once, when its config is parsed; a run on cached content builds none.
        built = []
        post_init = emission.ModeMap.__post_init__
        monkeypatch.setattr(emission.ModeMap, "__post_init__", lambda self: built.append(self) or post_init(self))
        experiments._parse_config.cache_clear()
        counts = []
        for _ in range(2):
            before = len(built)
            assert main(["stimulated-clone", "--config", str(config_dir / "full_p_manifold.json")]) == 0
            counts.append(len(built) - before)
        assert counts == [1, 0]

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
        assert getattr(cold_map, "pairs", None) == getattr(warm_map, "pairs", None)
        assert cold_map is None or cold_map.system is cold


#: Each type an input's annotation may name: how a refusal names it, and values of other exact types.
WRONG_TYPE_VALUES = {
    int: ("an int", [True, 2.0, "2", np.int64(2)]),
    float: ("a float or an int", ["0.5", True, 0.5 + 0j, np.float64(0.5)]),
    str: ("a str", [5, b"plus", ["1", "0"], CONFIG_DIR / "full_p_manifold.json", np.str_("plus")]),
    tuple[str, ...]: ("a tuple of str", ["pi", ["pi"], (PI,)]),
}


def wrong_type_inputs() -> list:
    """(kind, name, value, refusal) for every input of every kind and each value of a type its annotation does not
    name: ``WRONG_TYPE_VALUES`` of the type besides None that it names, and None where it does not name None."""
    cases = []
    for kind, signature in EXPERIMENT_INPUTS.items():
        for name, parameter in signature.parameters.items():
            annotation = parameter.annotation
            members = get_args(annotation) if isinstance(annotation, types.UnionType) else (annotation,)
            (named_type,) = set(members) - {type(None)}
            named, values = WRONG_TYPE_VALUES[named_type]
            for value in values + ([] if type(None) in members else [None]):
                message = f"{name} must be {named}, got {type(value).__name__} {value!r}"
                cases.append(pytest.param(kind, name, value, message, id=f"{kind}-{name}-{type(value).__name__}"))
    return cases


class TestRunners:
    @pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
    def test_every_kind_runs_and_passes(self, kind, config_dir):
        report, _ = run(kind, **spec_for(kind, config_dir))
        assert report["kind"] == kind
        assert report["passed"] is True

    @pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
    def test_every_rendered_report_is_schema_valid(self, kind, config_dir):
        rendered = render_report(*run(kind, **spec_for(kind, config_dir)), "json")
        assert_schema_valid(json.loads(rendered))

    @pytest.mark.parametrize("kind", ["clone-demo", "fixed-ancilla", "stimulated-clone"])
    def test_seed_below_2_to_the_64_is_read_and_written(self, kind, config_dir):
        with pytest.raises(ValueError, match=r"^seed must be below 2\*\*64, got 18446744073709551616$"):
            run(kind, **spec_for(kind, config_dir, state=None, seed=2**64))
        report, rows = run(kind, **spec_for(kind, config_dir, state=None, seed=2**64 - 1))
        assert json.loads(render_report(report, rows, "json"))["parameters"]["seed"] == 2**64 - 1

    def test_clone_demo_equal_superposition(self, config_dir):
        report, _ = run("clone-demo", **spec_for("clone-demo", config_dir))
        output = [re for re, _ in report["results"]["output"]]
        assert output == pytest.approx([0.5, 0.5, 0.5, 0.5], abs=1e-12)
        assert report["results"]["fidelity"] == pytest.approx(1.0, abs=1e-12)

    def test_fixed_ancilla_half_fidelity(self, config_dir):
        report, _ = run("fixed-ancilla", **spec_for("fixed-ancilla", config_dir))
        assert report["results"]["fidelity"] == pytest.approx(0.5, abs=1e-10)

    @pytest.mark.parametrize("overlap", [None, 0.5, -1e-12, 1.0000000000001e-12, -0.0, 0, 1])
    def test_witness_rows_equal_the_rule_on_each_overlap(self, overlap):
        # The rule applied to one overlap at a time is the reference, bit for bit.
        report, rows = run("no-cloning-witness", overlap=overlap)
        overlaps = [k / 100.0 for k in range(101)] if overlap is None else [float(overlap)]
        reference = [copying._witness_rule(np.array([s])) for s in overlaps]
        assert rows == [{"overlap": s, "residual": float(residual[0]),
                         "verdict": "CONSISTENT" if consistent[0] else "CONTRADICTION"}
                        for s, (residual, consistent) in zip(overlaps, reference)]
        assert [(repr(row["overlap"]), repr(row["residual"])) for row in rows] == [
            (repr(s), repr(float(residual[0]))) for s, (residual, _) in zip(overlaps, reference)]
        assert {type(row[key]) for row in rows for key in row} <= {float, str}
        assert report["results"]["witnesses"] == rows

    @pytest.mark.parametrize("overlap", [None, 0.5])
    def test_one_rule_call_per_witness_report(self, monkeypatch, overlap):
        calls = []
        rule = copying._witness_rule
        for module in (copying, experiments):
            monkeypatch.setattr(module, "_witness_rule", lambda s: calls.append(s) or rule(s))
        run("no-cloning-witness", overlap=overlap)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "overlap",
        [0.6 + 0.8j, 1j, np.exp(1j * np.pi / 3), *RANDOM_OVERLAPS, 0.5 + 0j, np.complex128(0.5), np.float64(0.5),
         Fraction(1, 2), True, False, np.bool_(False), "0.5", "1", complex(np.nan, 0.0), complex(0.5, np.nan)],
    )
    def test_witness_overlap_must_be_a_float_or_an_int(self, overlap):
        # A report echoes its overlap, and the writer refuses a complex or numpy one.
        message = f"overlap must be a float or an int, got {type(overlap).__name__} {overlap!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run("no-cloning-witness", overlap=overlap)

    @pytest.mark.parametrize("overlap, message", [(1.5, "at most 1"), (-1.0000001, "at most 1"), (2, "at most 1"),
                                                  (float("nan"), "finite"), (float("inf"), "finite"),
                                                  *(pytest.param(s, r"^\|s\| >= 2\*\*1328 is not .* at most 1$", id=id)
                                                    for s, id in ((10**400, "10**400"), (-(10**400), "-10**400")))])
    def test_witness_overlap_beyond_a_state_overlap_is_refused(self, overlap, message):
        with pytest.raises(ValueError, match=message):
            run("no-cloning-witness", overlap=overlap)

    def test_witness_sweep_matches_exact_arithmetic(self):
        _, rows = run("no-cloning-witness")
        for row in rows:
            residual, verdict = witness_by_fractions(row["overlap"])
            assert row["verdict"] == verdict, row
            assert abs(Fraction(row["residual"]) - residual) <= 2.3e-16, row

    def test_witness_sweep_counts(self, config_dir):
        report, _ = run("no-cloning-witness", **spec_for("no-cloning-witness", config_dir))
        witnesses = report["results"]["witnesses"]
        assert len(witnesses) == 101
        contradictions = [w for w in witnesses if w["verdict"] == "CONTRADICTION"]
        assert len(contradictions) == 99

    def test_selection_rules_hydrogen_table(self, config_dir):
        report, _ = run("selection-rules", **spec_for("selection-rules", config_dir))
        rows = report["results"]["transitions"]
        by_level = {}
        for row in rows:
            by_level.setdefault(row["excited"], []).append(row)
        assert all(not row["allowed"] for row in by_level["2s"])
        allowed_2p = [row for label in ("2p-", "2p0", "2p+") for row in by_level[label] if row["allowed"]]
        assert sorted(row["q"] for row in allowed_2p) == [-1, 0, 1]

    def test_domain_report(self, config_dir):
        report, _ = run("domain", **spec_for("domain", config_dir))
        assert report["results"]["allowed_modes"] == ["sigma-", "pi", "sigma+"]
        assert report["results"]["dimension"] == 3

    def test_stimulated_clone_report(self, config_dir):
        report, _ = run("stimulated-clone", **spec_for("stimulated-clone", config_dir))
        results = report["results"]
        assert results["fidelity"] == pytest.approx(1.0, abs=1e-10)
        photon, output = (np.array(results[key]) @ [1, 1j] for key in ("photon", "output"))
        assert np.max(np.abs(output - np.kron(photon, photon))) <= 1e-12
        assert [check["name"] for check in report["checks"]] == ["fidelity-is-one"]

    def test_stimulated_clone_runs_no_abstract_copier(self, config_dir, monkeypatch):
        # The physical copy is compared with photon (x) photon, not with a run of clone().
        copying._computational_basis.cache_clear()  # so the clone-demo run below builds its basis
        calls = []
        post_init = copying.CopyBasis.__post_init__
        monkeypatch.setattr(copying.CopyBasis, "__post_init__", lambda self: calls.append("CopyBasis") or post_init(self))
        for module in (copying, experiments):
            original = module.clone
            monkeypatch.setattr(module, "clone", lambda *args, f=original: calls.append("clone") or f(*args))
        report, _ = run("stimulated-clone", **spec_for("stimulated-clone", config_dir))
        assert report["passed"] and calls == []
        run("clone-demo", **spec_for("clone-demo", config_dir))
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
        couplings = system.amplitudes[:, [mode.q + 1 for mode, _ in mode_map.pairs]]
        pair = stimulated_pair_by_hamiltonian(couplings, ancilla, photon)
        assert np.max(np.abs(output + pair / np.linalg.norm(pair))) < 1e-12
        assert results["fidelity"] == pytest.approx(abs(np.vdot(np.kron(photon, photon), output)) ** 2, abs=1e-12)

    def test_spontaneous_reports_isotropic_mixture(self, config_dir):
        report, _ = run("spontaneous", **spec_for("spontaneous", config_dir))
        assert report["results"]["weights"] == pytest.approx([1 / 3] * 3, abs=1e-10)

    def test_spontaneous_two_mode_restriction(self, config_dir):
        report, _ = run("spontaneous", **spec_for("spontaneous", config_dir, modes=("sigma-", "sigma+")))
        assert report["results"]["weights"] == pytest.approx([0.5, 0.5], abs=1e-10)

    @pytest.mark.parametrize("kind, name, value, message", wrong_type_inputs())
    def test_library_inputs_are_not_coerced(self, config_dir, kind, name, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run(kind, **spec_for(kind, config_dir, **{name: value}))

    def test_no_experiment_builds_a_dense_matrix(self, config_dir, monkeypatch):
        # Restated fields such as spontaneous's density_matrix are written from vectors.
        built = []
        for cls in (hilbert.DensityMatrix, hilbert.OperatorMatrix):
            post_init = cls.__post_init__
            monkeypatch.setattr(cls, "__post_init__", lambda self, f=post_init: built.append(type(self)) or f(self))
        for kind in EXPERIMENT_KINDS:
            run(kind, **spec_for(kind, config_dir))
        run("spontaneous", **spec_for("spontaneous", config_dir, excited_state="0.6,0.48i,0.64", modes=("sigma-", "pi")))
        assert built == []
        hilbert.DensityMatrix(np.eye(1))
        emission.build_interaction_hamiltonian(emission.p_manifold_system(), [PI], 1)
        assert built == [hilbert.DensityMatrix, hilbert.OperatorMatrix]  # the patches see constructions

    def test_selection_rule_tables_are_built_once_per_system(self, monkeypatch):
        tables = []
        admission = experiments._su2_admission
        monkeypatch.setattr(experiments, "_su2_admission", lambda system: tables.append(admission(system)) or tables[-1])
        config = str(CONFIG_DIR / "hydrogen_n2.json")
        for kind in ("selection-rules", "selection-rules", "domain", "spontaneous"):
            run(kind, config_path=config)
        (contained, admitted), *others = tables
        assert len(others) == 3
        assert all(again[0] is contained and again[1] is admitted for again in others)
        assert not contained.flags.writeable and not admitted.flags.writeable

    def test_domain_builds_no_ket(self, monkeypatch):
        built = []
        post_init = hilbert.Ket.__post_init__
        monkeypatch.setattr(hilbert.Ket, "__post_init__", lambda self: built.append(self) or post_init(self))
        for config in sorted(CONFIG_DIR.glob("*.json")):
            run("domain", config_path=str(config))
        assert built == []
        hilbert.Ket.basis_state(3, 0)
        assert len(built) == 1  # the patch sees a construction

    @pytest.mark.parametrize(
        "kind, state, kets",
        [
            # The parsed state, then the report's input, ancilla and output.
            ("clone-demo", {"state": "0.6,0.8i"}, 4),
            ("fixed-ancilla", {"state": "0.6,0.8i"}, 4),
            ("stimulated-clone", {"state": "0.6,0.48i,0.64"}, 4),
            # The seeded photon, then the same three.
            ("stimulated-clone", {"seed": 3}, 4),
            # The parsed populations only.
            ("spontaneous", {"excited_state": "0.6,0.48i,0.64"}, 1),
        ],
        ids=["clone-demo", "fixed-ancilla", "stimulated-clone", "stimulated-clone-seeded", "spontaneous"],
    )
    def test_each_ket_is_built_once(self, config_dir, monkeypatch, kind, state, kets):
        built = []
        post_init = hilbert.Ket.__post_init__
        monkeypatch.setattr(hilbert.Ket, "__post_init__", lambda self: built.append(self) or post_init(self))
        report, _ = run(kind, **spec_for(kind, config_dir, **state))
        assert report["passed"] and len(built) == kets


# Report-shaped values of the JSON types a report may hold: finite floats,
# ints within orjson's 64 bits, text, booleans, None, and lists, tuples and
# str-keyed dicts of them, with blocks of [re, im] pairs and lists of rows.
json_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 5e-324, 1e16, 1e22])
json_leaves = (
    st.none() | st.booleans() | st.integers(-(2**63), 2**64 - 1) | json_floats
    | st.text() | st.sampled_from(["é", "→ψ", '"quoted"', "back\\slash", "line\nbreak\t\x00", "del\x7f"])
)
pair_lists = st.lists(st.lists(json_floats, min_size=2, max_size=2), max_size=5)
# Lists of dicts with one key set, the shape of report rows and checks.
dict_rows = st.lists(st.text(max_size=3), min_size=1, max_size=3, unique=True).flatmap(
    lambda keys: st.lists(st.fixed_dictionaries({key: json_leaves for key in keys}), min_size=1, max_size=3)
)
json_values = st.recursive(
    json_leaves | pair_lists | dict_rows,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=20,
)
# The floats on the edges of repr's exponent notation (non-zero |x| < 1e-4 or
# |x| >= 1e16), which orjson writes without one or with a bare exponent.
REPR_EDGE_FLOATS = [
    sign * x
    for x in (1e-4, float(np.nextafter(1e-4, 0)), 1e16, float(np.nextafter(1e16, 0)))
    for sign in (1.0, -1.0)
] + [-0.0, 5e-324, 1.7976931348623157e308, 2.0164295512421898e-05]
# Fixed values on the edges of the text: those floats in blocks and rows,
# numbers beside true and false, ints at orjson's 64-bit edges, text that
# needs an escape or is not ASCII, in a leaf or a key, empty and nested lists.
FIXED_VALUES = [
    [[x, 0.5] for x in REPR_EDGE_FLOATS], [[-0.25, x] for x in reversed(REPR_EDGE_FLOATS)],
    [{"x": x, "s": "%s", "n": 1, "y": 0.75} for x in REPR_EDGE_FLOATS],
    [[True, 1e-07], [False, 1e16], [True, 0.5]], [[10.00001, -10.00001], [1e-05, -1e-05]],
    [[-(2**63), 2**64 - 1], [1.5e-05, 0]], [[1e308, 1e308], [-1e308, 1.0]], [[None, 1e-07]],
    [{"s": "café"}], [{"s": "del\x7f"}], [{"s": 'say "hi"'}], [{"s": "back\\slash"}], [{"s": "tab\t\x1f"}],
    [{"s": "unit\x1fseparator", "x": 0.5}], [{"café": 1.0}], [{"del\x7f": 1.0}], [{'"': 1.0, "\\": 2.0}],
    [{"b": 1.0, "a": 2.0, "c": "z"}, {"c": "y", "a": 0.5, "b": 3.0}], [{"b": True, "B": False, "a_": None, "a": 1}],
    [], [[]], [[], [[], []]], [{}, {}], [[[0.5, -1.5e-05]], [[1e-300, 2.0]]], ("tuple", 1.5e-05),
]


def float_draws() -> tuple[np.ndarray, ...]:
    """Five arrays of finite doubles, of 100k or 10k each: uniform bit
    patterns, so every exponent; amplitudes and products of amplitudes, as
    copies hold; uniforms over the 21 decades below 1e16; and values rounded
    to 0 to 7 decimals."""
    rng = np.random.default_rng(20240524)
    patterns = rng.integers(0, 2**64, size=100_500, dtype=np.uint64).view(np.float64)
    patterns = patterns[np.isfinite(patterns)][:100_000]
    amplitudes = rng.standard_normal(100_000) / 16
    products = rng.standard_normal(100_000) * rng.standard_normal(100_000) / 256
    uniforms = rng.uniform(-1e16, 1e16, 10_000) * 10.0 ** rng.integers(-20, 1, 10_000)
    rounded = np.array([round(x, k % 8) for k, x in enumerate(rng.uniform(-1e4, 1e4, 10_000).tolist())])
    return patterns, amplitudes, products, uniforms, rounded


def with_fixed_values(test):
    for value in FIXED_VALUES:
        test = example(report={"results": {"pairs": value, "nested": [value, {"x": value}]}})(test)
    return test


def assert_same_value(parsed, value, path: str = "$") -> None:
    """``parsed``, read back by ``json.loads``, is ``value`` value for value:
    the same JSON type (a tuple reads back as a list), and each float the
    same double bit for bit, ``-0.0`` included.  Equal reprs are a fast
    path for a list: repr tells the JSON types apart and writes each float
    as exactly its double."""
    if type(value) is list and repr(parsed) == repr(value):
        return
    if type(value) is float:
        assert type(parsed) is float and parsed.hex() == value.hex(), f"{path}: {parsed!r} != {value!r}"
    elif type(value) in (list, tuple):
        assert type(parsed) is list and len(parsed) == len(value), f"{path}: lengths differ"
        for index, (got, want) in enumerate(zip(parsed, value)):
            assert_same_value(got, want, f"{path}[{index}]")
    elif type(value) is dict:
        assert type(parsed) is dict and parsed.keys() == value.keys(), f"{path}: keys differ"
        for key in value:
            assert_same_value(parsed[key], value[key], f"{path}.{key}")
    else:
        assert type(parsed) is type(value) and parsed == value, f"{path}: {parsed!r} != {value!r}"


# A line of indented JSON that ends in a number: what stands before the
# number, the number, and a comma if one follows.
NUMBER_LINE = re.compile(r"(.*?)(-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)(,?)")


def assert_stdlib_layout(text: str, value) -> None:
    """``text`` is ``json.dumps(value, indent=2, sort_keys=True)`` and a
    newline, line for line, but for how a number is written: where two lines
    differ, each ends in a number, the two read as the same double, and the
    text around them is equal.  Text is compared unescaped, as orjson writes
    UTF-8 (``ensure_ascii=False``)."""
    expected = json.dumps(value, indent=2, sort_keys=True, ensure_ascii=False).split("\n")
    lines = text.split("\n")
    assert lines.pop() == "" and len(lines) == len(expected)
    for number, (got, want) in enumerate(zip(lines, expected)):
        if got != want:
            got_parts, want_parts = NUMBER_LINE.fullmatch(got), NUMBER_LINE.fullmatch(want)
            assert got_parts and want_parts, f"line {number}: {got!r} != {want!r}"
            assert got_parts[1] == want_parts[1] and got_parts[3] == want_parts[3], f"line {number}: {got!r} != {want!r}"
            assert float(got_parts[2]).hex() == float(want_parts[2]).hex(), f"line {number}: {got!r} != {want!r}"


def refuse_non_finite(token: str):
    """A ``parse_constant`` for ``json.loads``: a report holds no NaN or infinity."""
    raise ValueError(f"non-finite number {token}")


def assert_reads_back(report: dict, text: str) -> None:
    """The JSON contract of docs/report_schema.md, checked with the standard library alone."""
    assert_same_value(json.loads(text), report)
    assert_stdlib_layout(text, report)


def float_leaves(value):
    """Every float in a report value."""
    if type(value) is float:
        yield value
    elif type(value) in (list, tuple):
        for item in value:
            yield from float_leaves(item)
    elif type(value) is dict:
        for item in value.values():
            yield from float_leaves(item)


class Mode(Enum):
    A = 1.5


class Level(IntEnum):
    ONE = 1


class TestRendering:
    def test_json_determinism_modulo_timestamp(self, config_dir):
        for kind in EXPERIMENT_KINDS:
            first = render_report(*run(kind, **spec_for(kind, config_dir)), "json")
            second = render_report(*run(kind, **spec_for(kind, config_dir)), "json")
            assert strip_timestamp(first) == strip_timestamp(second)

    @pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
    def test_json_has_no_numpy_reprs(self, kind, config_dir):
        # pi_only.json leaves a photon component uncoupled.
        overrides = {"config_path": str(config_dir / "pi_only.json")} if kind == "stimulated-clone" else {}
        text = render_report(*run(kind, **spec_for(kind, config_dir, **overrides)), "json")
        assert "np." not in text

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @with_fixed_values
    @given(report=st.dictionaries(st.text(max_size=6), json_values, max_size=6))
    def test_json_text_reads_back_as_the_report(self, report):
        assert_reads_back(report, render_report(report, [], "json"))

    @pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
    def test_every_kind_reads_back(self, kind, config_dir):
        report, rows = run(kind, **spec_for(kind, config_dir))
        assert_reads_back(report, render_report(report, rows, "json"))

    def test_random_doubles_read_back_bit_for_bit(self):
        # Blocks of [re, im] pairs, and pairs of pairs, over doubles of every
        # exponent and of the sizes copies hold.
        draws = float_draws()
        assert draws[0].size == draws[1].size == 100_000
        for values in draws:
            for shape in ((-1, 2), (-1, 5, 2)):
                report = {"block": values.reshape(shape).tolist()}
                assert_reads_back(report, render_report(report, [], "json"))

    def test_largest_clone_report_reads_back(self):
        report, rows = run("clone-demo", dim=MAX_COPY_DIM)
        leaves = np.array(report["results"]["output"]).ravel()
        # About 5% of the leaves are non-zero |x| < 1e-4, which orjson writes without an exponent.
        assert np.count_nonzero((leaves != 0) & (np.abs(leaves) < 1e-4)) > 0.02 * leaves.size
        assert_reads_back(report, render_report(report, rows, "json"))

    @pytest.mark.parametrize(
        "leaf", [np.float64(0.5), 2**64, -(2**63) - 1, Mode.A, Level.ONE, 0.5 + 0j, np.int64(1), {1: 0.5}],
        ids=["float64", "2**64", "-2**63-1", "enum", "int-enum", "complex", "int64", "int-key"],
    )
    @pytest.mark.parametrize("where", ["scalar", "block", "row"])
    def test_a_value_of_no_json_type_is_refused(self, leaf, where):
        # Each is refused, never written as some other value; orjson alone would write an Enum member's value.
        value = {"scalar": leaf, "block": [[0.5, leaf], [1.0, 2.0]], "row": [{"x": 0.5, "v": leaf}]}[where]
        with pytest.raises(TypeError):
            render_report({"results": {where: value}}, [], "json")

    @pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
    def test_golden_reports_read_back(self, case, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        rendered = []

        def render_and_compare(report, rows, output_format):
            text = render_report(report, rows, output_format)
            assert_reads_back(report, text)
            rendered.append(text)
            return text

        monkeypatch.setattr(cli, "render_report", render_and_compare)
        code, out, _ = run_cli(GOLDEN_CASES[case])
        assert rendered == ([out] if code in (0, 1) else [])

    def test_reports_hold_only_finite_floats(self, config_dir, monkeypatch, tmp_path):
        # orjson writes NaN and the infinities as null, so no report may hold one:
        # every kind of the test matrix, every golden case and every batch report.
        reports = [run(kind, **spec_for(kind, config_dir))[0] for kind in EXPERIMENT_KINDS]
        rendered = []

        def render_and_keep(report, rows, output_format):
            rendered.append(report)
            return render_report(report, rows, output_format)

        monkeypatch.setattr(cli, "render_report", render_and_keep)
        monkeypatch.chdir(REPO_ROOT)
        for argv in GOLDEN_CASES.values():
            run_cli(argv)
        goldens = len(rendered)
        script = load_batch_script()
        assert script.main(["--out-dir", str(tmp_path)]) == 0
        assert goldens >= 10 and len(rendered) - goldens == len(script.EXPERIMENTS)
        floats = [x for report in reports + rendered for x in float_leaves(report)]
        assert np.isfinite(floats).all()

    def test_json_excludes_private_keys(self, config_dir):
        # the csv/table rows are passed beside the report, never written into it
        text = render_report(*run("domain", **spec_for("domain", config_dir)), "json")
        assert set(json.loads(text)) == REPORT_KEYS

    def test_csv_has_header_and_rows(self, config_dir):
        text = render_report(*run("selection-rules", **spec_for("selection-rules", config_dir)), "csv")
        lines = text.strip().splitlines()
        assert lines[0].startswith("excited,")
        assert len(lines) == 1 + 4 * 3

    @pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
    def test_csv_and_table_columns_are_documented(self, kind, config_dir):
        report, rows = run(kind, **spec_for(kind, config_dir))
        columns = documented_table("csv and table columns")
        assert columns.keys() == set(EXPERIMENT_KINDS)
        assert render_report(report, rows, "csv").splitlines()[0].split(",") == columns[kind]
        assert render_report(report, rows, "table").splitlines()[1].split() == columns[kind]

    def test_table_is_aligned_text(self, config_dir):
        text = render_report(*run("domain", **spec_for("domain", config_dir)), "table")
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

    @pytest.mark.parametrize(
        "wrong_rule, checks",
        [
            (lambda residuals, consistent: (residuals, ~consistent),
             [("interior-overlaps-contradict", False), ("endpoint-overlaps-consistent", False)]),
            (lambda residuals, consistent: (0 * residuals, consistent),
             [("interior-overlaps-contradict", False), ("endpoint-overlaps-consistent", True)]),
        ],
        ids=["flipped-verdicts", "zeroed-residuals"],
    )
    def test_wrong_witness_rule_fails_its_check(self, capsys, monkeypatch, wrong_rule, checks):
        # Each check holds the rule's verdicts against its residuals, so a rule
        # that breaks one against the other fails the check that reads it.
        rule = experiments._witness_rule
        monkeypatch.setattr(experiments, "_witness_rule", lambda s: wrong_rule(*rule(s)))
        assert main(["no-cloning-witness"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert [(check["name"], check["passed"]) for check in report["checks"]] == checks

    @pytest.mark.parametrize("state", [[], ["--state", "1,0"]], ids=["random-state", "given-state"])
    @pytest.mark.parametrize("kind", ["clone-demo", "fixed-ancilla", "stimulated-clone"])
    def test_negative_seed_exit_4(self, capsys, kind, state):
        config = ["--config", str(CONFIG_DIR / "pi_only.json")] if kind == "stimulated-clone" else []
        assert main([kind, *config, *state, "--seed", "-1"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid input: seed must be non-negative, got -1" in captured.err

    def test_seed_of_2_to_the_64_exit_4(self, capsys):
        # A report holds ints below 2**64, so a seed it cannot echo is refused before any run.
        assert main(["clone-demo", "--seed", str(2**70)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"invalid input: seed must be below 2**64, got {2**70}" in captured.err

    def test_wrong_clonable_domain_fails_the_domain_check(self, capsys, monkeypatch, config_dir):
        monkeypatch.setattr(experiments, "clonable_domain", lambda system: (SIGMA_MINUS, PI))
        assert main(["domain", "--config", str(config_dir / "full_p_manifold.json")]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["allowed_modes"] == ["sigma-", "pi"]
        assert [(check["name"], check["passed"]) for check in report["checks"]] == [
            ("domain-matches-selection-rules", False)
        ]

    @pytest.mark.parametrize(
        "excited, patched, factors, allowed_modes",
        [
            (FULL_P_CONFIG["excited"], (1, -1, 0, 0), (0.0, 0.0, 0.0), ["sigma-", "pi"]),
            ([{"label": "e0", "l": 1, "m": 0}], (1, 0, 0, 0), (0.5, 0.5, 0.0), ["sigma-", "pi"]),
        ],
        ids=["no-emission-of-an-admitted-mode", "emission-of-a-forbidden-mode"],
    )
    def test_wrong_dipole_table_fails_the_domain_check(
        self, capsys, monkeypatch, tmp_path, excited, patched, factors, allowed_modes
    ):
        config = tmp_path / "atom.json"
        config.write_text(json.dumps({**FULL_P_CONFIG, "excited": excited}))
        original = emission.dipole_angular_factors
        monkeypatch.setattr(
            emission, "dipole_angular_factors", lambda *lm: factors if lm == patched else original(*lm)
        )
        assert main(["domain", "--config", str(config)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["allowed_modes"] == allowed_modes
        assert [(check["name"], check["passed"]) for check in report["checks"]] == [
            ("domain-matches-selection-rules", False)
        ]

    @pytest.mark.parametrize(
        "factors", [(0.0, 0.5, -0.5), (0.0, 0.0, 0.0)], ids=["forbidden-component", "missing-component"]
    )
    def test_wrong_dipole_table_fails_the_containment_check(self, capsys, monkeypatch, tmp_path, factors):
        # Level e- (m = -1) may emit only sigma+; the patched table says otherwise in one component.
        config = tmp_path / "full_p.json"
        config.write_text(json.dumps(FULL_P_CONFIG))
        original = emission.dipole_angular_factors
        monkeypatch.setattr(
            emission, "dipole_angular_factors", lambda *lm: factors if lm == (1, -1, 0, 0) else original(*lm)
        )
        assert main(["selection-rules", "--config", str(config)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert [(check["name"], check["passed"], check["detail"]) for check in report["checks"]] == [
            ("amplitude-iff-containment", False, "1 mismatches over 9 transitions")
        ]

    def test_selection_rules_at_large_l(self, capsys, tmp_path):
        # These levels' Racah radicands lie beyond the float range; their coefficients do not.
        config = tmp_path / "large_l.json"
        config.write_text(json.dumps({
            "ground": {"label": "g", "l": 60, "m": 0},
            "excited": [{"label": "e0", "l": 61, "m": 0}],
        }))
        assert main(["selection-rules", "--config", str(config)]) == 0
        amplitudes = [row["amplitude"] for row in json.loads(capsys.readouterr().out)["results"]["transitions"]]
        assert amplitudes == [0.0, pytest.approx(61 / np.sqrt(4 * 61**2 - 1), rel=1e-12), 0.0]

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

    @pytest.mark.parametrize(
        "kind, form",
        [("clone-demo", "--state=-1,0"), ("no-cloning-witness", "--overlap=-1e-12"),
         ("spontaneous", "--excited-state=-0.6,0.8,0")],
    )
    def test_help_gives_the_equals_form_for_a_leading_minus(self, capsys, monkeypatch, kind, form):
        monkeypatch.setenv("COLUMNS", "200")  # no line break inside the form
        assert main([kind, "--help"]) == 0
        assert form in capsys.readouterr().out

    def test_excited_state_with_a_leading_minus(self, capsys, config_dir):
        config = str(config_dir / "full_p_manifold.json")
        assert main(["spontaneous", "--config", config, "--excited-state=-0.6,0.8,0"]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["weights"] == pytest.approx([0.0, 0.64, 0.36], abs=1e-15)

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

    @pytest.mark.parametrize(
        "argv",
        [["stimulated-clone"], ["stimulated-clone", "--state=1"], ["stimulated-clone", "--state=plus"], ["domain"]],
        ids=["stimulated-seeded", "stimulated-state-1", "stimulated-state-plus", "domain"],
    )
    def test_empty_mode_map_exit_2(self, capsys, tmp_path, argv):
        # An empty mode map pairs no photon component, so the config is refused for every kind.
        config = tmp_path / "empty_map.json"
        config.write_text(json.dumps({**FULL_P_CONFIG, "mode_map": {}}))
        kind, *options = argv
        assert main([kind, "--config", str(config), *options]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error" in captured.err and "mode_map" in captured.err

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

    def test_nesting_deeper_than_json_reads_exit_2(self, capsys, tmp_path):
        # json refuses nesting deeper than the interpreter's recursion limit with a RecursionError.
        config = tmp_path / "nested.json"
        config.write_text("[" * 100_000)
        assert main(["domain", "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error" in captured.err

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

    @pytest.mark.parametrize(
        "options, message",
        [([], "the mode map couples no photon component"),
         (["--state=1,0"], "photon has norm 1.000e+00 on modes ['pi', 'sigma+'], which no mapped level emits")],
        ids=["seeded", "state"],
    )
    def test_uncoupled_mode_map_exit_3(self, capsys, tmp_path, options, message):
        # docs/atomic_system_config.md: stimulated-clone exits 3 when every mode map value is
        # null, and the map is valid, so the same config's domain runs.
        config = tmp_path / "uncoupled.json"
        config.write_text(json.dumps({**FULL_P_CONFIG, "mode_map": {"pi": None, "sigma+": None}}))
        assert main(["stimulated-clone", "--config", str(config), *options]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"domain violation: {message}" in captured.err
        # The nulls restrict the map, not the domain: domain still lists the components they leave out.
        assert main(["domain", "--config", str(config)]) == 0
        assert {"pi", "sigma+"} <= set(json.loads(capsys.readouterr().out)["results"]["allowed_modes"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["clone-demo", "--state", "nan,1"],
            ["clone-demo", "--state=nan,0"],
            ["clone-demo", "--state=1,1e999"],
            ["fixed-ancilla", "--state=1,1e999"],
            ["stimulated-clone", "--config", str(CONFIG_DIR / "pi_only.json"), "--state=nan,0"],
            ["stimulated-clone", "--config", str(CONFIG_DIR / "pi_only.json"), "--state=1,1e999"],
            ["spontaneous", "--config", str(CONFIG_DIR / "full_p_manifold.json"), "--excited-state=nan,0,1"],
        ],
        ids=lambda argv: "_".join(arg for arg in argv if not arg.endswith(".json")),
    )
    def test_non_finite_state_exit_4(self, capsys, argv):
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Ket amplitudes must be finite" in captured.err

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
         ("-1", "CONTRADICTION"), ("-1e-12", "CONSISTENT"), ("1.0000000000001e-12", "CONTRADICTION")],
    )
    def test_witness_endpoints_within_witness_tolerance(self, capsys, overlap, verdict):
        # An overlap the witness calls CONSISTENT (within WITNESS_ATOL of 0 or 1) is an endpoint.
        assert main(["no-cloning-witness", f"--overlap={overlap}"]) == 0
        report = json.loads(capsys.readouterr().out)
        [row] = report["results"]["witnesses"]
        residual, exact_verdict = witness_by_fractions(float(overlap))
        assert row["verdict"] == exact_verdict == verdict
        assert abs(Fraction(row["residual"]) - residual) <= 2.3e-16
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
        def failing_runner(state=None, seed=0, dim=2):
            return {}, [{"name": "always-fails", "passed": False, "detail": "forced"}], []

        monkeypatch.setitem(experiments._RUNNERS, "clone-demo", failing_runner)
        assert main(["clone-demo"]) == 1
        assert json.loads(capsys.readouterr().out)["passed"] is False
        out = tmp_path / "report.json"
        assert main(["clone-demo", "--out", str(out)]) == 1
        assert json.loads(out.read_text())["checks"][0]["name"] == "always-fails"

    @pytest.mark.parametrize("target", [".", "missing/report.json", ""], ids=["directory", "missing-parent", "empty"])
    def test_unwritable_out_exit_4(self, capsys, tmp_path, target):
        # docs/report_schema.md: an --out path that cannot be written exits 4, without a traceback.
        assert main(["clone-demo", "--out", str(tmp_path / target) if target else ""]) == 4
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

    @pytest.mark.parametrize("seed", [0, 4, 7])
    def test_seeded_photon_is_zero_off_the_coupled_mask(self, config_dir, seed):
        config = config_dir / "pi_only.json"
        coupled = load_atomic_system(config)[1].coupled
        report, _ = run("stimulated-clone", config_path=str(config), seed=seed)
        photon = np.array(report["results"]["photon"])
        assert coupled.tolist() == [True, False]
        assert (photon[~coupled] == 0).all() and (photon[coupled] != 0).any()


def subcommand_parsers() -> dict[str, argparse.ArgumentParser]:
    """Each kind's parser: the choices of the top-level parser's subparsers action."""
    return next(action.choices for action in cli.build_parser()[0]._actions
                if isinstance(action, argparse._SubParsersAction))


def subcommand_options(kind: str) -> dict[str, argparse.Action]:
    """The options of ``kind``'s subcommand in ``cli.build_parser()`` by dest, bar -h, --format and --out."""
    return {action.dest: action for action in subcommand_parsers()[kind]._actions
            if action.dest not in ("help", "format", "out")}


def readme_options() -> dict[str, dict[str, str]]:
    """Each subcommand's options in README's option table, each with the N of
    the "(default N)" beside it, or "" where none is shown."""
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n| subcommand ", 1)[1].split("\n\n", 1)[0]
    rows = re.findall(r"^\| `([a-z-]+)` +\| (.+?) *\|$", section, re.MULTILINE)
    return {kind: dict(re.findall(r"`(--[a-z-]+)[^`]*`(?: \(default (-?\d+)\))?", cell)) for kind, cell in rows}


class TestInputsAreDeclaredOnce:
    """The runner's signature is the one statement of a kind's inputs."""

    @pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
    def test_report_parameters_are_the_subcommand_options(self, kind, config_dir):
        report, _ = run(kind, **spec_for(kind, config_dir))
        assert sorted(report["parameters"]) == sorted(subcommand_options(kind))

    @pytest.mark.parametrize(
        "kind, inputs",
        [("clone-demo", {"overlap": 0.5}), ("domain", {}), ("nope", {})],
        ids=["input-the-kind-does-not-read", "missing-config-path", "unknown-kind"],
    )
    def test_inputs_outside_the_signature_are_config_errors(self, kind, inputs):
        with pytest.raises(ConfigError):
            run(kind, **inputs)

    @pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
    def test_readme_option_table_matches_the_parser(self, kind):
        documented = readme_options()
        assert documented.keys() == set(EXPERIMENT_KINDS)
        options = subcommand_options(kind)
        assert sorted(documented[kind]) == sorted(action.option_strings[0] for action in options.values())
        for name, parameter in EXPERIMENT_INPUTS[kind].parameters.items():
            shown = parameter.default not in (None, parameter.empty)
            assert documented[kind][options[name].option_strings[0]] == (str(parameter.default) if shown else "")

    def test_report_schema_states_each_annotation_once(self):
        text = (REPO_ROOT / "docs" / "report_schema.md").read_text(encoding="utf-8")
        section = text.split("\n## `parameters` per kind\n", 1)[1].split("\n## ", 1)[0]
        documented = re.findall(r"^- `(.+)`$", section, re.MULTILINE)
        assert len({line.split(":")[0] for line in documented}) == len(documented)
        declared = {str(parameter) for signature in EXPERIMENT_INPUTS.values()
                    for parameter in signature.parameters.values()}
        assert sorted(documented) == sorted(declared)


def load_batch_script():
    spec = importlib.util.spec_from_file_location("run_all_experiments", REPO_ROOT / "scripts" / "run_all_experiments.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_run_all_experiments_script_writes_every_report(capsys, tmp_path):
    script = load_batch_script()
    assert script.main(["--out-dir", str(tmp_path)]) == 0
    assert len(list(tmp_path.iterdir())) == 14
    assert capsys.readouterr().out.count(" ok\n") == 14


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
            # Each report reads back with no NaN or infinity, laid out as the standard library writes it.
            assert_stdlib_layout(batch, json.loads(batch, parse_constant=refuse_non_finite))
            batch, direct = strip_timestamp(batch), strip_timestamp(direct)
            seeds[name] = json.loads(batch)["parameters"].get("seed")
        assert batch == direct, name
    if fmt == "json":
        # Only the two experiments that draw a random state were given a seed;
        # the kinds that read no seed echo none.
        assert {name for name, seed in seeds.items() if seed == 7} == {
            "01_clone-demo.json", "07_stimulated-clone.json"}
        assert set(seeds.values()) == {None, 0, 7}


# An ASCII-only locale without UTF-8 mode: stdout cannot encode a non-ASCII label.
ASCII_LOCALE_ENV = {
    **{key: value for key, value in os.environ.items() if key not in ("PYTHONUTF8", "PYTHONIOENCODING")},
    "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONPATH": str(REPO_ROOT / "src"),
}


@pytest.mark.parametrize("output_format", ["json", "csv", "table"])
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


#: The top-level parser's usage at 80 columns, which routing a kind to its own
#: parser leaves as it was.
TOP_USAGE = (
    "usage: clonesim [-h]\n"
    "                {clone-demo,fixed-ancilla,no-cloning-witness,selection-rules,domain,stimulated-clone,spontaneous}\n"
    "                ...\n"
)
KIND_CHOICES = ("(choose from 'clone-demo', 'fixed-ancilla', 'no-cloning-witness', 'selection-rules', 'domain', "
                "'stimulated-clone', 'spontaneous')")


def argparse_passes(monkeypatch) -> list[argparse.ArgumentParser]:
    """The parsers that run ``parse_known_args`` from here on, in call order."""
    parsed_by = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def spy(parser, *args, **kwargs):
        parsed_by.append(parser)
        return parse_known_args(parser, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", spy)
    return parsed_by


class TestRouting:
    @pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
    def test_a_well_formed_argv_runs_no_argparse_pass(self, kind, monkeypatch, tmp_path):
        parsed_by = argparse_passes(monkeypatch)
        config = ["--config", FULL_P] if "--config" in KIND_FLAGS[kind] else []
        out = tmp_path / "report.csv"
        code, stdout, err = run_cli([kind, *config, "--format", "csv", "--out", str(out)])
        assert (code, stdout) == (0, ""), err
        assert "," in out.read_text(encoding="utf-8").splitlines()[0]  # a csv header
        assert parsed_by == []

    @pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
    @pytest.mark.parametrize("refused", [["--form", "csv"], ["-h"], ["--dim", "x"]],
                             ids=["abbreviation", "help", "bad-dim"])
    def test_a_refused_argv_is_parsed_by_its_own_parser_alone(self, kind, refused, monkeypatch):
        sub = subcommand_parsers()[kind]
        config = ["--config", FULL_P] if "--config" in KIND_FLAGS[kind] else []
        assert cli._read_options(sub, [*config, *refused]) is None
        parsed_by = argparse_passes(monkeypatch)
        code, out, err = run_cli([kind, *config, *refused])
        assert parsed_by == [sub]  # once, and never the top-level parser
        assert code == (2 if refused[0] == "--dim" else 0), err

    @pytest.mark.parametrize(
        "argv, code, err",
        [([], 2, TOP_USAGE + "clonesim: error: the following arguments are required: kind\n"),
         (["nope"], 2, TOP_USAGE + f"clonesim: error: argument kind: invalid choice: 'nope' {KIND_CHOICES}\n"),
         (["--format", "json", "domain"], 2,
          TOP_USAGE + f"clonesim: error: argument kind: invalid choice: 'json' {KIND_CHOICES}\n"),
         (["-h"], 0, "")],
        ids=["empty", "unknown-kind", "option-before-kind", "help"],
    )
    def test_the_top_level_parser_routes_every_other_argv(self, monkeypatch, argv, code, err):
        monkeypatch.setenv("COLUMNS", "80")
        result = run_cli(argv)
        assert (result[0], result[2]) == (code, err)
        if code == 0:
            assert result[1].startswith(TOP_USAGE + "\nState-dependent quantum copying experiments\n")
        else:
            assert result[1] == ""

    def test_an_unread_option_is_reported_with_the_subcommands_usage(self):
        code, out, err = run_cli(["domain", "--config", FULL_P, "--dim", "3"])
        assert (code, out) == (2, "")
        assert err.startswith("usage: clonesim domain ")
        assert "clonesim domain: error: unrecognized arguments: --dim 3\n" in err

    def test_no_argv_reads_sys_argv(self, capsys, monkeypatch):
        # The console script calls main() with no argv.
        monkeypatch.setattr(sys, "argv", ["clonesim", "domain", "--config", FULL_P, "--format", "csv"])
        assert main() == 0
        assert capsys.readouterr().out.splitlines()[0] == "mode,q"

    @pytest.mark.parametrize("path", ["", str(CONFIG_DIR)], ids=["empty", "directory"])
    def test_an_unreadable_config_path_exit_2(self, path):
        code, out, err = run_cli(["domain", "--config", path])
        assert (code, out) == (2, "")
        assert err.startswith(f"clonesim: config error: cannot read config {path}: ")


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


#: Each subcommand with each option it takes.
KIND_OPTIONS = [(kind, flag) for kind in EXPERIMENT_KINDS for flag in [*KIND_FLAGS[kind], "--format", "--out"]]


class TestDashValue:
    """No option reads ``--flag=--``: whatever argparse makes of it is the subcommand's usage error."""

    @pytest.mark.parametrize("kind, flag", KIND_OPTIONS)
    def test_a_dash_value_is_a_usage_error(self, kind, flag, tmp_path, monkeypatch):
        # The message after "argument --flag: " depends on the version: 3.13's argparse refuses some values itself.
        monkeypatch.chdir(tmp_path)
        config = ["--config", FULL_P] if "--config" in KIND_FLAGS[kind] and flag != "--config" else []
        code, out, err = run_cli([kind, *config, f"{flag}=--"])
        assert (code, out) == (2, "")
        assert err.startswith(f"usage: clonesim {kind} ")
        assert f"\nclonesim {kind}: error: argument {flag}: " in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", [[], "--", ("--",)], ids=["list", "text", "tuple"])
    @pytest.mark.parametrize("kind, flag", KIND_OPTIONS)
    def test_a_listed_field_is_a_usage_error(self, kind, flag, value, tmp_path, monkeypatch):
        # The fields argparse gives for --flag=-- (a list on Python 3.10 to 3.12; on 3.13 the text, or the
        # tuple the --modes converter makes of it), fed to main on any version.
        monkeypatch.chdir(tmp_path)
        sub = subcommand_parsers()[kind]
        dest = next(action.dest for action in sub._actions if flag in action.option_strings)
        parse_args = argparse.ArgumentParser.parse_args
        monkeypatch.setattr(cli, "_read_options", lambda sub, args: None)
        monkeypatch.setattr(argparse.ArgumentParser, "parse_args",
                            lambda parser, args: argparse.Namespace(**{**vars(parse_args(parser, args)), dest: value}))
        config = ["--config", FULL_P] if "--config" in KIND_FLAGS[kind] and flag != "--config" else []
        code, out, err = run_cli([kind, *config, flag, {**FLAG_VALUES, "--format": "csv", "--out": "report.out"}[flag]])
        assert (code, out) == (2, "")
        assert err.startswith(f"usage: clonesim {kind} ")
        assert err.endswith(f"\nclonesim {kind}: error: argument {flag}: expected one argument\n")
        assert list(tmp_path.iterdir()) == []


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


#: Token runs that the direct read of a subcommand's options must refuse, or
#: read exactly as argparse does: abbreviations, help, "--" (Python 3.10 to
#: 3.12's argparse reads "--state=--" as an empty list, 3.13's as "--"), a
#: bare "-", a leading minus sign, and values that int() reads in more than
#: one spelling.
NOISE = [["--conf"], ["--stat"], ["-h"], ["--help"], ["--"], ["-"], ["--state", "-1,0"], ["--state=-1,0"],
         ["--state=--"], ["--dim=+3"], ["--dim= 3"], ["--dim=\u0663"], ["--seed=1_0"], ["--out="],
         ["--overlap", "nan"]]


@st.composite
def noisy_argv(draw) -> list[str]:
    """``fuzz_argv`` with noise runs inserted at random positions, and perhaps some of its tokens repeated."""
    argv = draw(fuzz_argv())
    for noise in draw(st.lists(st.sampled_from(NOISE), max_size=2)):
        at = draw(st.integers(1, len(argv)))
        argv[at:at] = noise
    if len(argv) > 1 and draw(st.booleans()):
        start = draw(st.integers(1, len(argv) - 1))
        argv += argv[start:start + 2]  # a repeated option, if this is one: a later one wins
    return argv


def same_fields(read: dict, parsed: dict) -> bool:
    """Equal fields, with each value of the same type; NaN equals NaN."""
    def same(a, b) -> bool:
        return type(a) is type(b) and (a == b or a != a and b != b)

    return read.keys() == parsed.keys() and all(same(read[name], parsed[name]) for name in read)


def run_cli_in(fuzz_dir: str, argv: list[str]) -> tuple:
    """``without_timestamp(run_cli(argv))`` plus the reports it wrote under ``fuzz_dir``, which it then removes."""
    result = without_timestamp(run_cli([token.replace(FUZZ_DIR, fuzz_dir) for token in argv]))
    written = {}
    for name in sorted(os.listdir(fuzz_dir)):
        path = os.path.join(fuzz_dir, name)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as handle:
                written[name] = without_timestamp((None, handle.read(), ""))[1]
            os.remove(path)
    return result, written


class TestDirectRead:
    """A subcommand argv read straight from its parser's actions reads as argparse reads it."""

    @settings(max_examples=1000, derandomize=True, database=None, deadline=None)
    @given(argv=noisy_argv())
    @example(argv=["no-cloning-witness", "--overlap", "nan"])
    @example(argv=["clone-demo", "--dim=\u0663", "--seed=1_0", "--dim= 3", "--format", "csv", "--format=table"])
    @example(argv=["clone-demo", "--help", "plus"])  # help takes no value
    @example(argv=["domain", "--format", "csv"])  # --config is required
    def test_read_fields_are_argparses(self, argv):
        sub = subcommand_parsers().get(argv[0])
        fields = None if sub is None else cli._read_options(sub, argv[1:])
        if fields is not None:
            parsed = vars(sub.parse_args(argv[1:]))
            assert same_fields(fields, parsed), (argv, fields, parsed)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(argv=noisy_argv())
    @example(argv=["clone-demo", "--help", "plus"])
    @example(argv=["domain", "--format", "csv"])
    def test_main_runs_as_with_argparse_alone(self, argv):
        with tempfile.TemporaryDirectory() as fuzz_dir:
            direct = run_cli_in(fuzz_dir, argv)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(cli, "_read_options", lambda sub, args: None)
                assert run_cli_in(fuzz_dir, argv) == direct, argv


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
