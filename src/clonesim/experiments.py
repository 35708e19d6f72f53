"""Canned experiment runners producing machine-readable reports.

Every experiment is described by an :class:`ExperimentSpec` and produces a
JSON-serializable report dict.  Reports are deterministic for a fixed spec
and seed except for the ``generated_at`` timestamp, which golden-file
comparisons must exclude.  See ``docs/report_schema.md`` for the schema.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from functools import lru_cache
from pathlib import Path

import numpy as np

from .angular import PHOTON_IRREP, contains
from .copying import (
    WITNESS_ATOL,
    CopyBasis,
    clone,
    clone_with_fixed_ancilla,
    no_cloning_overlap_witness,
)
from .emission import (
    SPHERICAL_MODES,
    AtomicLevel,
    AtomicSystem,
    PolarizationMode,
    clonable_domain,
    mode_for_label,
    spontaneous_emission_output,
    stimulated_clone,
    validate_mode_map,
)
from .errors import ConfigError, DimensionMismatchError, DomainViolationError
from .hilbert import Ket, random_ket

REPORT_SCHEMA_VERSION = 2

OUTPUT_FORMATS = ("json", "csv", "table")

#: Largest ``dim`` that ``clone-demo`` and ``fixed-ancilla`` accept; the
#: copy writes dim^2 output amplitudes (65,536 at the bound).
MAX_COPY_DIM = 256


@dataclass
class ExperimentSpec:
    """Inputs of one experiment run; identical specs yield identical reports."""

    kind: str
    config_path: str | None = None
    state: str | None = None
    seed: int = 0
    dim: int = 2
    ancilla_index: int = 0
    overlap: float | None = None
    excited_state: str | None = None
    modes: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in _RUNNERS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")


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


def load_atomic_system(
    path: str | Path,
) -> tuple[AtomicSystem, list[tuple[PolarizationMode, str | None]] | None]:
    """Load an AtomicSystem plus optional mode map from a JSON config file.

    The mode map's photon basis order is the key order of the ``mode_map``
    object in the file; a key repeated in any object is a ``ConfigError``.
    The file is read on every call, and parsed and validated once per
    distinct (path, content) in a process; each call gets its own mode-map
    list.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8: {exc}") from exc
    system, mode_map = _parse_config(str(path), text)
    return system, None if mode_map is None else list(mode_map)


@lru_cache(maxsize=64)
def _parse_config(
    path: str, text: str
) -> tuple[AtomicSystem, tuple[tuple[PolarizationMode, str | None], ...] | None]:
    """The system and mode map that config ``text`` read from ``path`` defines.

    Memoized on both arguments: the system is immutable and the mode map a
    tuple, so a cached result is shared safely, and an error, never
    cached, names ``path``.
    """
    try:
        raw = json.loads(text, object_pairs_hook=_unique_keys)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
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
            radial_factors={str(k): v for k, v in radial.items()},
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid atomic system in {path}: {exc}") from exc

    mode_map_raw = raw.get("mode_map")
    if mode_map_raw is None:
        return system, None
    if not isinstance(mode_map_raw, dict):
        raise ConfigError("'mode_map' must map polarization labels to excited labels or null")
    try:
        mode_map = [(mode_for_label(str(mode)), level) for mode, level in mode_map_raw.items()]
        return system, tuple(validate_mode_map(system, mode_map))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid mode_map in {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# State parsing and JSON encoding helpers


def parse_amplitudes(text: str) -> np.ndarray:
    """Parse a comma-separated amplitude list like ``0.7+0.7i, 0, 1i``.

    Digit-group underscores, which ``complex`` would drop (``1_0`` is 10),
    are refused.
    """
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
    return Ket(amplitudes).normalize()


def _ket_json(k: Ket) -> list[list[float]]:
    return _matrix_json(k.amplitudes)


def _matrix_json(m: np.ndarray) -> list:
    """``m`` as nested lists of ``[re, im]`` pairs of Python floats, in ``m``'s shape."""
    return np.stack([m.real, m.imag], -1).tolist()


def _check(name: str, passed: bool, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


# ---------------------------------------------------------------------------
# Experiment implementations


def _copy_state(spec: ExperimentSpec) -> Ket:
    """The input state of a copy experiment, once ``dim`` is within 1..MAX_COPY_DIM."""
    if not 1 <= spec.dim <= MAX_COPY_DIM:
        raise ValueError(f"dim must be between 1 and {MAX_COPY_DIM}, got {spec.dim}")
    return resolve_state(spec.state, spec.dim, spec.seed)


def _run_clone_demo(spec: ExperimentSpec) -> tuple[dict, list[dict]]:
    state = _copy_state(spec)
    basis = CopyBasis.computational(state.dim)
    report = clone(state, basis)
    results = {
        "input": _ket_json(report.input),
        "ancilla": _ket_json(report.ancilla),
        "output": _ket_json(report.output),
        "fidelity": report.fidelity,
    }
    checks = [
        _check("fidelity-is-one", abs(report.fidelity - 1.0) <= 1e-10, f"fidelity={report.fidelity!r}")
    ]
    rows = [{"quantity": "fidelity", "value": report.fidelity}]
    return {"results": results, "checks": checks}, rows


def _run_fixed_ancilla(spec: ExperimentSpec) -> tuple[dict, list[dict]]:
    state = _copy_state(spec)
    basis = CopyBasis.computational(state.dim)
    report = clone_with_fixed_ancilla(state, spec.ancilla_index, basis)
    expected = float(abs(state.normalize().amplitudes[spec.ancilla_index]) ** 2)
    results = {
        "input": _ket_json(report.input),
        "output": _ket_json(report.output),
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
    return {"results": results, "checks": checks}, rows


def _run_witness(spec: ExperimentSpec) -> tuple[dict, list[dict]]:
    if spec.overlap is not None:
        overlaps = [spec.overlap]
    else:
        overlaps = [k / 100.0 for k in range(0, 101)]
    witnesses = [no_cloning_overlap_witness(s) for s in overlaps]
    rows = [
        {"overlap": float(np.real(w.overlap)), "residual": w.residual, "verdict": w.verdict}
        for w in witnesses
    ]
    results = {"witnesses": rows}
    # Endpoints are the overlaps the witness itself calls 0 or 1, within WITNESS_ATOL.
    endpoints = [w for w in witnesses if min(abs(w.overlap), abs(w.overlap - 1.0)) <= WITNESS_ATOL]
    interior = [w for w in witnesses if w not in endpoints]
    checks = [
        _check(
            "interior-overlaps-contradict",
            all(w.verdict == "CONTRADICTION" for w in interior),
            f"{len(interior)} interior overlaps checked",
        ),
        _check(
            "endpoint-overlaps-consistent",
            all(w.verdict == "CONSISTENT" for w in endpoints),
            f"{len(endpoints)} endpoint overlaps checked",
        ),
    ]
    return {"results": results, "checks": checks}, rows


def _require_config(spec: ExperimentSpec):
    if spec.config_path is None:
        raise ConfigError(f"experiment {spec.kind!r} requires --config")
    return load_atomic_system(spec.config_path)


def _selection_rule(ground: AtomicLevel, level: AtomicLevel, mode: PolarizationMode) -> tuple[bool, bool]:
    """Whether the ground irrep is contained in excited (x) photon, and
    whether the SU(2) selection rules admit the transition: containment
    and m_g = m_e + q.  Independent of the dipole table."""
    contained = contains(ground.irrep, (level.irrep, PHOTON_IRREP))
    return contained, contained and ground.m == level.m + mode.q


def _run_selection_rules(spec: ExperimentSpec) -> tuple[dict, list[dict]]:
    system, _ = _require_config(spec)
    rows = []
    mismatches = 0
    for level, amplitudes, allowed_row in zip(system.excited, system.amplitudes, system.allowed):
        for mode in SPHERICAL_MODES:
            amplitude = amplitudes[mode.q + 1]
            allowed = bool(allowed_row[mode.q + 1])
            irrep_ok, admitted = _selection_rule(system.ground, level, mode)
            if allowed != admitted:
                mismatches += 1
            rows.append(
                {
                    "excited": level.label,
                    "l": level.l,
                    "m": level.m,
                    "mode": mode.label,
                    "q": mode.q,
                    "amplitude": float(np.real(amplitude)),
                    "allowed": allowed,
                    "irrep_contained": irrep_ok,
                }
            )
    results = {"ground": system.ground.label, "transitions": rows}
    checks = [
        _check(
            "amplitude-iff-containment",
            mismatches == 0,
            f"{mismatches} mismatches over {len(rows)} transitions",
        )
    ]
    return {"results": results, "checks": checks}, rows


def _run_domain(spec: ExperimentSpec) -> tuple[dict, list[dict]]:
    system, _ = _require_config(spec)
    modes = clonable_domain(system)
    rows = [{"mode": mode.label, "q": mode.q} for mode in modes]
    results = {
        "allowed_modes": [mode.label for mode in modes],
        "dimension": len(modes),
        # The span's basis in the full polarization space ordered (sigma-, pi, sigma+).
        "basis": [_ket_json(Ket.basis_state(len(SPHERICAL_MODES), mode.q + 1)) for mode in modes],
    }
    admitted = [
        mode.label
        for mode in SPHERICAL_MODES
        if any(_selection_rule(system.ground, level, mode)[1] for level in system.excited)
    ]
    checks = [
        _check(
            "domain-matches-selection-rules",
            results["allowed_modes"] == admitted,
            f"selection rules admit {admitted}",
        )
    ]
    return {"results": results, "checks": checks}, rows


def _stimulated_photon(spec: ExperimentSpec, mode_map) -> Ket:
    dim = len(mode_map)
    if spec.state is not None:
        return resolve_state(spec.state, dim, spec.seed)
    # Random photons are drawn inside the clonable components so the canned
    # experiment exercises the success path; use --state to probe violations.
    coupled = [j for j, (_, label) in enumerate(mode_map) if label is not None]
    if not coupled:
        raise DomainViolationError("the mode map couples no photon component")
    inner = random_ket(len(coupled), np.random.default_rng(spec.seed))
    amplitudes = np.zeros(dim, dtype=complex)
    for c, j in enumerate(coupled):
        amplitudes[j] = inner.amplitudes[c]
    return Ket(amplitudes)


def _run_stimulated_clone(spec: ExperimentSpec) -> tuple[dict, list[dict]]:
    system, mode_map = _require_config(spec)
    if mode_map is None:
        raise ConfigError("stimulated-clone requires a 'mode_map' entry in the config")
    photon = _stimulated_photon(spec, mode_map)
    report = stimulated_clone(photon, system, mode_map)
    results = {
        "photon": _ket_json(report.input),
        "photon_basis": [mode.label for mode, _ in mode_map],
        "adaptive_ancilla": _ket_json(report.ancilla),
        "output": _ket_json(report.output),
        "fidelity": report.fidelity,
    }
    checks = [
        _check("fidelity-is-one", abs(report.fidelity - 1.0) <= 1e-10, f"fidelity={report.fidelity!r}"),
    ]
    rows = [{"quantity": "fidelity", "value": report.fidelity}]
    return {"results": results, "checks": checks}, rows


def _run_spontaneous(spec: ExperimentSpec) -> tuple[dict, list[dict]]:
    system, _ = _require_config(spec)
    modes = (
        tuple(mode_for_label(label) for label in spec.modes)
        if spec.modes is not None
        else SPHERICAL_MODES
    )
    excited = None if spec.excited_state is None else Ket(parse_amplitudes(spec.excited_state)).normalize()
    rho = spontaneous_emission_output(system, excited, modes)
    weights = [float(np.real(rho.entries[i, i])) for i in range(rho.dim)]
    results = {
        "modes": [mode.label for mode in modes],
        "weights": weights,
        "density_matrix": _matrix_json(rho.entries),
    }
    # A mode gets weight exactly when a populated level may emit it by the
    # SU(2) rules alone, without reading the dipole table.
    populations = np.ones(system.manifold_dim) if excited is None else np.abs(excited.amplitudes) ** 2
    populated = [level for level, population in zip(system.excited, populations) if population > 0]
    mismatched = [
        mode.label
        for mode, weight in zip(modes, weights)
        if (weight != 0) != any(_selection_rule(system.ground, level, mode)[1] for level in populated)
    ]
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
    return {"results": results, "checks": checks}, rows


_RUNNERS = {
    "clone-demo": _run_clone_demo,
    "fixed-ancilla": _run_fixed_ancilla,
    "no-cloning-witness": _run_witness,
    "selection-rules": _run_selection_rules,
    "domain": _run_domain,
    "stimulated-clone": _run_stimulated_clone,
    "spontaneous": _run_spontaneous,
}

EXPERIMENT_KINDS = tuple(_RUNNERS)


def run(spec: ExperimentSpec) -> tuple[dict, list[dict]]:
    """Execute one experiment; return its report document and the rows that
    the csv and table formats render."""
    body, rows = _RUNNERS[spec.kind](spec)
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "kind": spec.kind,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "parameters": {field.name: getattr(spec, field.name) for field in fields(spec) if field.name != "kind"},
        "results": body["results"],
        "checks": body["checks"],
        "passed": all(check["passed"] for check in body["checks"]),
    }
    return report, rows


def render_report(report: dict, rows: list[dict], output_format: str) -> str:
    """Serialize a report as json, or its ``rows`` as csv or an aligned text table."""
    if output_format == "json":
        return _json_text(report, "") + "\n"
    if output_format == "csv":
        buffer = io.StringIO()
        if rows:
            writer = csv.DictWriter(buffer, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
        return buffer.getvalue()
    if output_format == "table":
        return render_table(rows, title=f"{report['kind']} (passed={report['passed']})")
    raise ConfigError(f"unknown output format {output_format!r}")


def _holds_pair_lists(value) -> bool:
    """Whether ``value`` is a list of lists, or holds one through dicts with string keys."""
    if isinstance(value, dict):
        return all(type(key) is str for key in value) and any(_holds_pair_lists(item) for item in value.values())
    return isinstance(value, (list, tuple)) and bool(value) and all(isinstance(item, (list, tuple)) for item in value)


def _json_text(value, indent: str) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, written ``indent`` deep.

    Only the layout around lists of ``[re, im]`` pairs is written here: such
    a list, when its pairs are finite Python floats, by one ``%``-format
    call (``%r`` is ``float.__repr__``, as in ``json``), and the dicts and
    lists that hold it by recursion.  Every other value is written by
    ``json.dumps`` itself and shifted right (its strings never hold a raw
    newline).
    """
    if not _holds_pair_lists(value):
        return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + indent)
    inner = indent + "  "
    if isinstance(value, dict):
        items = (f"{inner}{json.dumps(key)}: {_json_text(item, inner)}" for key, item in sorted(value.items()))
        return "{\n" + ",\n".join(items) + "\n" + indent + "}"
    if all(type(p) is list and len(p) == 2 and type(p[0]) is float and type(p[1]) is float for p in value):
        flat = [x for p in value for x in p]
        if math.isfinite(sum(flat)):
            pair = f"{inner}[\n{inner}  %r,\n{inner}  %r\n{inner}]"
            return "[\n" + ",\n".join([pair] * len(value)) % tuple(flat) + "\n" + indent + "]"
    return "[\n" + ",\n".join(inner + _json_text(item, inner) for item in value) + "\n" + indent + "]"


def render_table(rows: list[dict], title: str = "") -> str:
    if not rows:
        return (title + "\n") if title else ""
    headers = list(rows[0].keys())
    cells = [[_format_cell(row.get(h, "")) for h in headers] for row in rows]
    widths = [max(len(h), *(len(row[i]) for row in cells)) for i, h in enumerate(headers)]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)
