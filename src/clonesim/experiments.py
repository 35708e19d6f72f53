"""Canned experiment runners producing machine-readable reports.

Each experiment kind is one runner; the runner's signature is the only
statement of the inputs the kind reads and of their types and defaults,
and :func:`run` turns its results into a JSON-serializable report dict.
Reports are deterministic for fixed inputs except for the ``generated_at``
timestamp, which golden-file comparisons must exclude.  See
``docs/report_schema.md`` for the schema.
"""

from __future__ import annotations

import csv
import inspect
import io
import json
import marshal
import os
import types
from datetime import datetime, timezone
from functools import lru_cache
from typing import get_args

import numpy as np
import orjson

from .angular import PHOTON_IRREP, contains
from .copying import (
    VERDICT_CONSISTENT,
    VERDICT_CONTRADICTION,
    WITNESS_ATOL,
    CopyBasis,
    _witness_rule,
    clone,
    clone_with_fixed_ancilla,
)
from .emission import (
    SPHERICAL_MODES,
    AtomicLevel,
    AtomicSystem,
    ModeMap,
    clonable_domain,
    mode_for_label,
    spontaneous_emission_output,
    stimulated_clone,
)
from .errors import ConfigError, DimensionMismatchError, DomainViolationError
from .hilbert import Ket, _random_unit, _unit, random_ket

REPORT_SCHEMA_VERSION = 3

OUTPUT_FORMATS = ("json", "csv", "table")

#: Largest ``dim`` that ``clone-demo`` and ``fixed-ancilla`` accept; the
#: copy writes dim^2 output amplitudes (65,536 at the bound).
MAX_COPY_DIM = 256


# ---------------------------------------------------------------------------
# Atomic-system config files (see docs/atomic_system_config.md)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict, once no key repeats (``json`` keeps the last)."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ConfigError(f"duplicate key {next(key for key in keys if keys.count(key) > 1)!r} in a config object")
    return obj


#: The keys a config may hold at its top level and in a level; any other key
#: is refused rather than dropped, since a misspelt optional key is silent.
_CONFIG_KEYS = ("ground", "excited", "radial_factors", "mode_map")
_LEVEL_KEYS = ("label", "l", "m")


def _known_keys(raw, allowed: tuple[str, ...], context: str) -> None:
    unknown = sorted(set(raw) - set(allowed)) if isinstance(raw, dict) else []
    if unknown:
        raise ConfigError(f"unknown keys {unknown} in {context}; the keys are {list(allowed)}")


def _parse_level(raw: dict, context: str) -> AtomicLevel:
    _known_keys(raw, _LEVEL_KEYS, f"{context} level")
    try:
        return AtomicLevel(label=raw["label"], l=raw["l"], m=raw["m"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {context} level {raw!r}: {exc}") from exc


def load_atomic_system(path: str | os.PathLike[str]) -> tuple[AtomicSystem, ModeMap | None]:
    """Load an AtomicSystem plus optional mode map from a JSON config file.

    The mode map's photon basis order is the key order of the ``mode_map``
    object in the file; a key repeated in any object is a ``ConfigError``.
    The file is read on every call, and parsed and validated once per
    distinct (path, content) in a process; calls on the same content share
    the same immutable system and mode map.
    """
    try:  # fspath refuses an int, which open would take as a file descriptor
        with open(os.fspath(path), encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8: {exc}") from exc
    return _parse_config(str(path), text)


@lru_cache(maxsize=64)
def _parse_config(path: str, text: str) -> tuple[AtomicSystem, ModeMap | None]:
    """The system and mode map that config ``text`` read from ``path`` defines.

    Memoized on both arguments: the system and the mode map are immutable,
    so a cached result is shared safely, and an error, never cached, names
    ``path``.
    """
    try:
        raw = json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, an integer too long, or nesting too deep
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict) or "ground" not in raw or "excited" not in raw:
        raise ConfigError(f"config {path} must define 'ground' and 'excited'")
    _known_keys(raw, _CONFIG_KEYS, f"config {path}")
    if not isinstance(raw["excited"], list):
        raise ConfigError(f"'excited' in {path} must be a list of levels")

    ground = _parse_level(raw["ground"], "ground")
    excited = tuple(_parse_level(entry, "excited") for entry in raw["excited"])
    radial = raw.get("radial_factors", {})
    if not isinstance(radial, dict):
        raise ConfigError("'radial_factors' must map excited labels to positive numbers")
    try:
        system = AtomicSystem(
            ground=ground,
            excited=excited,
            radial_factors=radial,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid atomic system in {path}: {exc}") from exc

    mode_map_raw = raw.get("mode_map")
    if mode_map_raw is None:
        return system, None
    if not isinstance(mode_map_raw, dict):
        raise ConfigError("'mode_map' must map polarization labels to excited labels or null")
    try:
        return system, ModeMap(system, ((mode_for_label(mode), level) for mode, level in mode_map_raw.items()))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid mode_map in {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# State parsing and JSON encoding helpers


def parse_amplitudes(text: str) -> np.ndarray:
    """Parse a comma-separated amplitude list like ``0.7+0.7i, 0, 1i``.

    Digit-group underscores, which ``complex`` would drop (``1_0`` is 10),
    are refused.  A list with no underscore is parsed by one ``complex``
    call per raw token, as ``complex`` strips whitespace itself; the token
    loop below runs only where that fails, and raises its message or
    parses what ``complex`` does not strip (U+001C to U+001F).
    """
    if "_" not in text:
        try:
            return np.array(list(map(complex, text.replace("i", "j").split(","))), dtype=complex)
        except ValueError:
            pass
    tokens = [token.strip() for token in text.split(",")]
    values = []
    for token in tokens:
        if not token:
            raise ValueError("empty amplitude in state spec")
        if "_" in token:
            raise ValueError(f"amplitude {token!r} holds an underscore")
        try:
            values.append(complex(token.replace("i", "j")))
        except ValueError as exc:
            raise ValueError(f"cannot parse amplitude {token!r}") from exc
    return np.array(values, dtype=complex)


def resolve_state(spec: str | None, dim: int, seed: int) -> Ket:
    """Turn a state spec (amplitude list, preset name, or None) into a Ket.

    None draws a seeded random state; ``plus`` is the uniform
    superposition; ``basisK`` the K-th basis vector, K in ASCII digits only
    (``int`` would also take a sign, spaces or ``1_0``).
    """
    if spec is None:
        return random_ket(dim, np.random.default_rng(seed))
    name = spec.strip().lower()
    if name == "plus":
        return Ket(np.full(dim, 1.0 / np.sqrt(dim), dtype=complex))
    if name.startswith("basis"):
        index = name.removeprefix("basis")
        if not (index.isascii() and index.isdigit()):
            raise ValueError(f"basis index {index!r} is not a non-negative decimal integer")
        return Ket.basis_state(dim, int(index))
    amplitudes = parse_amplitudes(spec)
    if amplitudes.shape[0] != dim:
        raise DimensionMismatchError(f"state has {amplitudes.shape[0]} amplitudes, expected {dim}")
    return Ket(_unit(amplitudes))


def _matrix_json(m: np.ndarray) -> list:
    """``m`` as nested lists of ``[re, im]`` pairs of Python floats, in ``m``'s shape."""
    return np.ascontiguousarray(m, dtype=np.complex128).view(np.float64).reshape(*m.shape, 2).tolist()


def _check(name: str, passed: bool, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


# ---------------------------------------------------------------------------
# Experiment implementations: one runner per kind, whose parameters are the
# inputs the kind reads, with their defaults.

#: A runner's report results and checks, and the rows the csv and table formats render.
_Outcome = tuple[dict, list[dict], list[dict]]


def _copy_state(state: str | None, seed: int, dim: int) -> Ket:
    """The input state of a copy experiment, once ``dim`` is within 1..MAX_COPY_DIM."""
    if not 1 <= dim <= MAX_COPY_DIM:
        raise ValueError(f"dim must be between 1 and {MAX_COPY_DIM}, got {dim}")
    return resolve_state(state, dim, seed)


def _run_clone_demo(state: str | None = None, seed: int = 0, dim: int = 2) -> _Outcome:
    psi = _copy_state(state, seed, dim)
    basis = CopyBasis.computational(psi.dim)
    report = clone(psi, basis)
    results = {
        "input": _matrix_json(report.input.amplitudes),
        "output": _matrix_json(report.output.amplitudes),
        "fidelity": report.fidelity,
    }
    checks = [
        _check("fidelity-is-one", abs(report.fidelity - 1.0) <= 1e-10, f"fidelity={report.fidelity!r}")
    ]
    rows = [{"quantity": "fidelity", "value": report.fidelity}]
    return results, checks, rows


def _run_fixed_ancilla(state: str | None = None, seed: int = 0, dim: int = 2, ancilla_index: int = 0) -> _Outcome:
    psi = _copy_state(state, seed, dim)
    basis = CopyBasis.computational(psi.dim)
    report = clone_with_fixed_ancilla(psi, ancilla_index, basis)
    expected = float(abs(report.input.amplitudes[ancilla_index]) ** 2)
    results = {
        "input": _matrix_json(report.input.amplitudes),
        "output": _matrix_json(report.output.amplitudes),
        "fidelity": report.fidelity,
        "expected_fidelity": expected,
    }
    checks = [
        _check(
            "fidelity-equals-overlap-squared",
            abs(report.fidelity - expected) <= 1e-10,
            f"fidelity={report.fidelity!r} expected={expected!r}",
        )
    ]
    rows = [
        {"quantity": "fidelity", "value": report.fidelity},
        {"quantity": "expected_fidelity", "value": expected},
    ]
    return results, checks, rows


def _run_witness(overlap: float | None = None) -> _Outcome:
    if overlap is None:
        overlaps = np.arange(101) / 100.0
    elif not abs(overlap) <= 1 + WITNESS_ATOL:  # false for NaN too
        try:
            size = f"= {abs(overlap):.6g}"
        except OverflowError:  # an int beyond the float range, which only its bit length bounds here
            size = f">= 2**{abs(overlap).bit_length() - 1}"
        raise ValueError(f"|s| {size} is not a valid state overlap: it must be finite and at most 1")
    else:
        overlaps = np.array([float(overlap)])
    residuals, consistent = _witness_rule(overlaps)
    rows = [{"overlap": s, "residual": r, "verdict": VERDICT_CONSISTENT if c else VERDICT_CONTRADICTION}
            for s, r, c in zip(overlaps.tolist(), residuals.tolist(), consistent.tolist())]
    # Each verdict is held against the rule's residual: an interior overlap has s != s^2, and
    # an endpoint, within a = WITNESS_ATOL of 0 or 1, has |s - s^2| = |s| |1 - s| <= a (1 + a).
    endpoints = int(consistent.sum())
    checks = [
        _check("interior-overlaps-contradict", (residuals[~consistent] > 0).all(),
               f"{len(rows) - endpoints} interior overlaps checked"),
        _check("endpoint-overlaps-consistent", (residuals[consistent] <= 2 * WITNESS_ATOL).all(),
               f"{endpoints} endpoint overlaps checked"),
    ]
    return {"witnesses": rows}, checks, rows


@lru_cache(maxsize=64)
def _su2_admission(system: AtomicSystem) -> tuple[np.ndarray, np.ndarray]:
    """The SU(2) selection rules of ``system``, read from its levels' l, m and
    parity and never from its dipole table.

    Two read-only boolean tables laid out like ``system.allowed`` (excited
    levels x (sigma-, pi, sigma+)): ``contained``, whether the ground irrep
    lies in excited (x) photon, and ``admitted``, whether also m_g = m_e + q.
    Memoized like ``_parse_config``: a system is immutable and hashed by
    identity, and the tables are read-only, so one pair is shared safely.
    """
    ground, target = system.ground, system.ground.irrep
    contained = np.array(
        [[contains(target, (level.irrep, PHOTON_IRREP))] * len(SPHERICAL_MODES) for level in system.excited]
    )
    conserved = np.array([[ground.m == level.m + mode.q for mode in SPHERICAL_MODES] for level in system.excited])
    admitted = contained & conserved
    contained.setflags(write=False)
    admitted.setflags(write=False)
    return contained, admitted


def _run_transitions(config_path: str) -> _Outcome:
    system, _ = load_atomic_system(config_path)
    contained, admitted = _su2_admission(system)
    rows = [
        {
            "excited": level.label,
            "l": level.l,
            "m": level.m,
            "mode": mode.label,
            "q": mode.q,
            "amplitude": float(system.amplitudes[i, j].real),
            "allowed": bool(system.allowed[i, j]),
            "irrep_contained": bool(contained[i, j]),
        }
        for i, level in enumerate(system.excited)
        for j, mode in enumerate(SPHERICAL_MODES)
    ]
    mismatches = np.count_nonzero(system.allowed != admitted)
    results = {"ground": system.ground.label, "transitions": rows}
    checks = [
        _check(
            "amplitude-iff-containment",
            mismatches == 0,
            f"{mismatches} mismatches over {len(rows)} transitions",
        )
    ]
    return results, checks, rows


def _run_domain(config_path: str) -> _Outcome:
    system, _ = load_atomic_system(config_path)
    modes = clonable_domain(system)
    rows = [{"mode": mode.label, "q": mode.q} for mode in modes]
    results = {
        "allowed_modes": [mode.label for mode in modes],
        "dimension": len(modes),
        # The span's basis in the full polarization space ordered (sigma-, pi, sigma+).
        "basis": _matrix_json(np.eye(len(SPHERICAL_MODES), dtype=complex)[[mode.q + 1 for mode in modes]]),
    }
    admits = _su2_admission(system)[1].any(axis=0)
    admitted = [mode.label for mode in SPHERICAL_MODES if admits[mode.q + 1]]
    checks = [
        _check(
            "domain-matches-selection-rules",
            results["allowed_modes"] == admitted,
            f"selection rules admit {admitted}",
        )
    ]
    return results, checks, rows


def _stimulated_photon(state: str | None, seed: int, mode_map: ModeMap) -> Ket:
    dim = len(mode_map.pairs)
    if state is not None:
        return resolve_state(state, dim, seed)
    # Random photons are drawn inside the clonable components so the canned
    # experiment exercises the success path; use --state to probe violations.
    if not mode_map.coupled.any():
        raise DomainViolationError("the mode map couples no photon component")
    amplitudes = np.zeros(dim, dtype=complex)
    amplitudes[mode_map.coupled] = _random_unit(np.count_nonzero(mode_map.coupled), np.random.default_rng(seed))
    return Ket(amplitudes)


def _run_stimulated_clone(config_path: str, state: str | None = None, seed: int = 0) -> _Outcome:
    _, mode_map = load_atomic_system(config_path)
    if mode_map is None:
        raise ConfigError("stimulated-clone requires a 'mode_map' entry in the config")
    photon = _stimulated_photon(state, seed, mode_map)
    report = stimulated_clone(photon, mode_map)
    results = {
        "photon": _matrix_json(report.input.amplitudes),
        "photon_basis": [mode.label for mode, _ in mode_map.pairs],
        "adaptive_ancilla": _matrix_json(report.ancilla.amplitudes),
        "output": _matrix_json(report.output.amplitudes),
        "fidelity": report.fidelity,
    }
    checks = [
        _check("fidelity-is-one", abs(report.fidelity - 1.0) <= 1e-10, f"fidelity={report.fidelity!r}"),
    ]
    rows = [{"quantity": "fidelity", "value": report.fidelity}]
    return results, checks, rows


def _run_spontaneous(
    config_path: str, excited_state: str | None = None, modes: tuple[str, ...] | None = None
) -> _Outcome:
    system, _ = load_atomic_system(config_path)
    modes = (
        tuple(mode_for_label(label) for label in modes)
        if modes is not None
        else SPHERICAL_MODES
    )
    excited = None if excited_state is None else Ket(_unit(parse_amplitudes(excited_state)))
    weights = spontaneous_emission_output(system, excited, modes).tolist()
    results = {
        "modes": [mode.label for mode in modes],
        "weights": weights,
        "density_matrix": _matrix_json(np.diag(weights).astype(complex)),
    }
    # A mode gets weight exactly when a populated level may emit it by the
    # SU(2) rules alone, without reading the dipole table.
    populations = np.ones(system.manifold_dim) if excited is None else np.abs(excited.amplitudes) ** 2
    emitted = _su2_admission(system)[1][populations > 0].any(axis=0)
    mismatched = [mode.label for mode, weight in zip(modes, weights) if (weight != 0) != emitted[mode.q + 1]]
    checks = [
        _check(
            "weights-match-selection-rules",
            not mismatched,
            f"modes whose weight disagrees with the selection rules: {mismatched}",
        )
    ]
    rows = [
        {"mode": mode.label, "weight": weight} for mode, weight in zip(modes, weights)
    ]
    return results, checks, rows


_RUNNERS = {
    "clone-demo": _run_clone_demo,
    "fixed-ancilla": _run_fixed_ancilla,
    "no-cloning-witness": _run_witness,
    "selection-rules": _run_transitions,
    "domain": _run_domain,
    "stimulated-clone": _run_stimulated_clone,
    "spontaneous": _run_spontaneous,
}

EXPERIMENT_KINDS = tuple(_RUNNERS)

#: The inputs each kind reads, with their types and defaults: its runner's signature, annotations evaluated.
EXPERIMENT_INPUTS = {kind: inspect.signature(runner, eval_str=True) for kind, runner in _RUNNERS.items()}

#: Each type an input's annotation may name: whether a value's exact type is it (a float input also takes an int,
#: PEP 484's rule), how a refusal names it, and how the CLI reads it from text.
_INPUT_TYPES = {
    int: (lambda value: type(value) is int, "an int", int),
    float: (lambda value: type(value) in (float, int), "a float or an int", float),
    str: (lambda value: type(value) is str, "a str", str),
    tuple[str, ...]: (lambda value: type(value) is tuple and all(type(label) is str for label in value),
                      "a tuple of str", lambda text: tuple(label.strip() for label in text.split(","))),
}


@lru_cache
def _input_type(annotation) -> tuple:
    """The ``_INPUT_TYPES`` entry of the one type besides None that ``annotation`` names, and whether it names None."""
    members = get_args(annotation) if isinstance(annotation, types.UnionType) else (annotation,)
    (key,) = set(members) - {type(None)}
    return (*_INPUT_TYPES[key], type(None) in members)


def run(kind: str, **inputs) -> tuple[dict, list[dict]]:
    """Execute one experiment; return its report document, whose ``parameters``
    are the kind's inputs with their defaults applied, and the rows that the
    csv and table formats render.  An unknown ``kind``, an input the kind does
    not read, or a missing ``config_path`` is a ``ConfigError``.  The runner's
    annotation states each input's type: a value whose exact type it does not
    name, or a ``seed`` outside 0..2**64 - 1, is a ``ValueError``."""
    signature = EXPERIMENT_INPUTS.get(kind)
    if signature is None:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    declared = signature.parameters
    unread = sorted(inputs.keys() - declared.keys())
    if unread:
        raise ConfigError(f"experiment {kind!r} does not read {unread}; its inputs are {list(declared)}")
    missing = [name for name, parameter in declared.items()
               if parameter.default is parameter.empty and name not in inputs]
    if missing:
        raise ConfigError(f"experiment {kind!r} requires {missing}")
    for name, value in inputs.items():  # a report echoes each value as it was given
        admits, named, _, optional = _input_type(declared[name].annotation)
        if not (admits(value) or optional and value is None):
            raise ValueError(f"{name} must be {named}, got {type(value).__name__} {value!r}")
    if inputs.get("seed", 0) < 0:
        raise ValueError(f"seed must be non-negative, got {inputs['seed']}")
    if inputs.get("seed", 0) >= 2**64:  # the largest int a report holds is 2**64 - 1
        raise ValueError(f"seed must be below 2**64, got {inputs['seed']}")
    parameters = {name: inputs.get(name, parameter.default) for name, parameter in declared.items()}
    results, checks, rows = _RUNNERS[kind](**parameters)
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "kind": kind,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "parameters": parameters,
        "results": results,
        "checks": checks,
        "passed": all(check["passed"] for check in checks),
    }
    return report, rows


def render_report(report: dict, rows: list[dict], output_format: str) -> str:
    """Serialize a report as json (orjson's text, indented by 2, keys sorted), or its ``rows`` as csv or an aligned
    text table.  A report value of no JSON type, such as ``np.float64``, complex or an int of 2**64, is a TypeError."""
    if output_format == "json":
        text = orjson.dumps(report, option=orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS).decode()
        try:  # marshal writes exact built-in types only, so it refuses an Enum member, which orjson writes as its value
            marshal.dumps(report)
        except ValueError:
            raise TypeError("a report holds a value of no exact JSON type, such as an Enum member") from None
        return text + "\n"
    if output_format == "csv":
        buffer = io.StringIO()
        if rows:
            writer = csv.DictWriter(buffer, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
        return buffer.getvalue()
    if output_format == "table":
        return _render_table(rows, f"{report['kind']} (passed={report['passed']})")
    raise ConfigError(f"unknown output format {output_format!r}")


def _render_table(rows: list[dict], title: str) -> str:
    if not rows:
        return title + "\n"
    headers = list(rows[0].keys())
    cells = [[_format_cell(row.get(h, "")) for h in headers] for row in rows]
    widths = [max(len(h), *(len(row[i]) for row in cells)) for i, h in enumerate(headers)]
    lines = [
        title,
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
        *("  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in cells),
    ]
    return "\n".join(lines) + "\n"


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)
