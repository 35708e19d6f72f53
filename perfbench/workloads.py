"""Workloads of the clonesim benchmark: seeded inputs, operations and output checks.

A workload is a fixed list of operation slots (kinds, dimensions, configs,
formats); the seed only fills in the continuous inputs of each slot: state
amplitudes, photons, excited-state populations and radial factors. Cost per
cycle therefore does not depend on the seed, and neither do the call counts
a traced run reports.

Every check recomputes the expected physics with numpy from the benchmark's
own reading of the inputs. No check calls back into clonesim.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import re
from dataclasses import dataclass, replace
from math import sqrt
from pathlib import Path
from typing import Callable

import numpy as np

from clonesim import cli, emission, experiments

#: Entrywise tolerance for values a report or operator carries.
TOL = 1e-9

#: Expected CLI exit codes (see ``clonesim.cli``).
EXIT_OK = 0
EXIT_CONFIG_ERROR = 2
EXIT_DOMAIN_VIOLATION = 3

CONFIG_NAMES = ("full_p_manifold", "hydrogen_n2", "pi_only", "s_to_s_forbidden")

#: Spherical components q of the labels clonesim uses, in (sigma-, pi, sigma+) order.
MODE_Q = {"sigma-": -1, "pi": 0, "sigma+": 1}


class CheckFailed(Exception):
    """An operation returned something other than the expected physics."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    """One closed-loop operation: ``call`` is timed, ``check`` is not.

    ``check`` raises :class:`CheckFailed`; ``fingerprint`` digests the result
    so a traced run can prove it returns what an untraced run returns.
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], None]
    fingerprint: Callable[[object], str]


# ---------------------------------------------------------------------------
# Independent physics: ground l=0, m=0 below levels of l <= 1


@dataclass(frozen=True)
class Level:
    label: str
    l: int
    m: int
    radial: float


@dataclass(frozen=True)
class Atom:
    """The benchmark's own reading of an atomic-system config."""

    excited: tuple[Level, ...]

    def amplitude(self, level: Level, q: int) -> float:
        """<g|C^(1)_q|e> times the radial factor, for an s ground state.

        Only an l=1 level with m + q = 0 couples; the Condon-Shortley value
        of the angular factor is (-1)^m / sqrt(3).
        """
        if level.l == 1 and level.m + q == 0:
            return level.radial * (-1) ** level.m / sqrt(3.0)
        return 0.0

    def allowed_labels(self) -> list[str]:
        return [label for label, q in MODE_Q.items() if any(self.amplitude(e, q) for e in self.excited)]

    def emission_weights(self, populations: np.ndarray, labels: list[str]) -> np.ndarray:
        weights = np.array(
            [sum(p * self.amplitude(e, MODE_Q[label]) ** 2 for p, e in zip(populations, self.excited)) for label in labels]
        )
        return weights / weights.sum()


def read_atom(path: Path) -> Atom:
    raw = json.loads(path.read_text())
    ground = raw["ground"]
    if (ground["l"], ground["m"]) != (0, 0):
        raise ValueError(f"{path}: the benchmark's physics covers s ground states only")
    radial = raw.get("radial_factors", {})
    excited = tuple(
        Level(entry["label"], entry["l"], entry["m"], float(radial.get(entry["label"], 1.0)))
        for entry in raw["excited"]
    )
    return Atom(excited)


# ---------------------------------------------------------------------------
# Seeded inputs and report parsing


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return psi / np.linalg.norm(psi)


def state_arg(psi: np.ndarray) -> str:
    """Amplitudes as the CLI's ``a+bi`` list; repr keeps every digit."""
    return ",".join(f"{float(z.real)!r}{float(z.imag):+}i" for z in psi)


def ket(pairs) -> np.ndarray:
    return np.array([complex(re_, im) for re_, im in pairs])


def truth(value) -> bool:
    """A boolean as json (True), csv ("True") or table ("yes") renders it."""
    if isinstance(value, bool):
        return value
    if value in ("True", "yes"):
        return True
    if value in ("False", "no"):
        return False
    raise CheckFailed(f"not a boolean: {value!r}")


def table_rows(text: str) -> tuple[str, list[dict]]:
    """Parse an aligned text table: title, header, dashes, then rows."""
    lines = text.rstrip("\n").split("\n")
    if len(lines) < 3:
        return lines[0], []
    splitter = re.compile(r"\s{2,}")
    headers = splitter.split(lines[1].strip())
    return lines[0], [dict(zip(headers, splitter.split(line.strip()))) for line in lines[3:]]


def canonical(text: str, fmt: str) -> str:
    """Report text minus the nondeterministic ``generated_at`` field."""
    if fmt != "json":
        return text
    report = json.loads(text)
    report.pop("generated_at", None)
    return json.dumps(report, sort_keys=True)


def close(actual, expected, what: str) -> None:
    actual, expected = np.asarray(actual), np.asarray(expected)
    require(actual.shape == expected.shape, f"{what}: shape {actual.shape} != {expected.shape}")
    error = float(np.max(np.abs(actual - expected))) if actual.size else 0.0
    require(error <= TOL, f"{what}: off by {error:.3e}")


# ---------------------------------------------------------------------------
# CLI operations


def cli_op(label: str, argv: list[str], out: Path, fmt: str, expect_code: int, verify) -> Op:
    """``clonesim <argv> --format fmt --out out``; ``verify(results, rows)`` checks physics.

    ``results`` is the ``results`` object of a JSON report (None for csv and
    table); ``rows`` the parsed csv or table rows (None for json).
    """
    argv = argv + ["--format", fmt, "--out", str(out)]

    def call():
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, err.getvalue()

    def take_report() -> str | None:
        try:
            text = out.read_text()
        except FileNotFoundError:
            return None
        out.unlink()
        return text

    def check(result) -> None:
        code, err = result
        text = take_report()
        require(code == expect_code, f"exit code {code}, expected {expect_code}: {err.strip()}")
        if expect_code != EXIT_OK:
            require(text is None, "a refused run wrote a report")
            expected_words = "domain violation" if expect_code == EXIT_DOMAIN_VIOLATION else "config error"
            require(expected_words in err, f"refusal message {err.strip()!r}")
            return
        require(text is not None, "no report written")
        if fmt == "json":
            report = json.loads(text)
            require(report["passed"] is True, f"report says passed={report['passed']}")
            verify(report["results"], None)
        elif fmt == "csv":
            verify(None, list(csv.DictReader(io.StringIO(text))))
        else:
            title, rows = table_rows(text)
            require("passed=True" in title, f"table title {title!r}")
            verify(None, rows)

    def fingerprint(result) -> str:
        code, err = result
        text = out.read_text() if out.exists() else ""
        return hashlib.sha256(f"{code}\n{err}\n{canonical(text, fmt) if text else ''}".encode()).hexdigest()

    return Op(label, call, check, fingerprint)


def verify_clone(psi: np.ndarray):
    def verify(results, rows):
        close(ket(results["output"]), np.kron(psi, psi), "clone output vs kron(psi, psi)")
        close(results["fidelity"], 1.0, "clone fidelity")

    return verify


def verify_fixed_ancilla(psi: np.ndarray, k: int):
    def verify(results, rows):
        close(ket(results["output"]), np.kron(psi, np.eye(psi.size)[k]), "fixed-ancilla output vs psi (x) |k>")
        close(results["fidelity"], abs(psi[k]) ** 2, "fixed-ancilla fidelity vs |psi_k|^2")

    return verify


def verify_witness(results, rows):
    witnesses = results["witnesses"]
    require(len(witnesses) == 101, f"{len(witnesses)} overlaps swept, expected 101")
    for row, step in zip(witnesses, range(101)):
        s = row["overlap"]
        close(s, step / 100.0, "swept overlap")
        close(row["residual"], abs(s - s * s), f"residual at s={s}")
        expected = "CONSISTENT" if s in (0.0, 1.0) else "CONTRADICTION"
        require(row["verdict"] == expected, f"verdict {row['verdict']} at s={s}")


def verify_selection_rules(atom: Atom):
    def verify(results, rows):
        rows = results["transitions"] if rows is None else rows
        seen = set()
        for row in rows:
            level = next(e for e in atom.excited if e.label == row["excited"])
            expected = atom.amplitude(level, MODE_Q[row["mode"]])
            close(float(row["amplitude"]), expected, f"amplitude {row['excited']}/{row['mode']}")
            require(truth(row["allowed"]) == (expected != 0.0), f"allowed flag {row['excited']}/{row['mode']}")
            seen.add((row["excited"], row["mode"]))
        require(seen == {(e.label, m) for e in atom.excited for m in MODE_Q}, "transition table incomplete")

    return verify


def verify_domain(atom: Atom):
    def verify(results, rows):
        expected = atom.allowed_labels()
        if rows is not None:
            require([row["mode"] for row in rows] == expected, f"domain rows {rows}")
            return
        require(results["allowed_modes"] == expected, f"allowed modes {results['allowed_modes']}")
        require(results["dimension"] == len(expected), f"dimension {results['dimension']}")
        unit_vectors = np.eye(len(MODE_Q))[[MODE_Q[label] + 1 for label in expected]]
        basis = np.array([ket(vector) for vector in results["basis"]]).reshape(unit_vectors.shape)
        close(basis, unit_vectors, "domain basis")

    return verify


def verify_stimulated(photon: np.ndarray):
    def verify(results, rows):
        if rows is not None:
            fidelity = next(float(row["value"]) for row in rows if row["quantity"] == "fidelity")
            close(fidelity, 1.0, "stimulated fidelity")
            return
        close(ket(results["output"]), np.kron(photon, photon), "stimulated output vs kron(photon, photon)")
        close(results["fidelity"], 1.0, "stimulated fidelity")

    return verify


def verify_spontaneous(labels: list[str], weights: np.ndarray):
    def verify(results, rows):
        if rows is not None:
            require([row["mode"] for row in rows] == labels, f"modes {rows}")
            close([float(row["weight"]) for row in rows], weights, "emission weights")
            return
        require(results["modes"] == labels, f"modes {results['modes']}")
        close(results["weights"], weights, "emission weights")
        close(np.array([ket(row) for row in results["density_matrix"]]), np.diag(weights), "emission density matrix")

    return verify


def no_check(results, rows):
    """Refusals carry no report; the exit code and message are checked."""


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    """Builds the seeded operation list of each cycle; loads configs once."""

    def __init__(self, root: Path, seed: int, out_dir: Path):
        self.rng = np.random.default_rng(seed)
        self.out_dir = out_dir
        self.config_paths = {name: root / "configs" / f"{name}.json" for name in CONFIG_NAMES}
        self.atoms = {name: read_atom(path) for name, path in self.config_paths.items()}
        self.systems = {name: experiments.load_atomic_system(path)[0] for name, path in self.config_paths.items()}

    def cycle(self) -> list[Op]:
        raise NotImplementedError


class CopySweep(Workload):
    """clone-demo and fixed-ancilla at n = 2..32, plus no-cloning-witness sweeps.

    Per cycle of 20: the four n=32 calls are the top fifth. Three of them
    are clone-demo, which also builds V and so costs more than fixed-ancilla;
    p90 therefore sits inside the clone-demo n=32 latencies, not on the
    step between the two kinds. The small-n calls and sweeps are seven
    tenths, so p50 tracks per-call overhead.
    """

    CLONE_DIMS = (2, 2, 4, 4, 8, 16, 32, 32, 32)
    FIXED_DIMS = (2, 2, 4, 8, 8, 16, 32)
    SWEEPS = 4

    def cycle(self) -> list[Op]:
        ops = []
        for i, n in enumerate(self.CLONE_DIMS):
            psi = random_state(self.rng, n)
            argv = ["clone-demo", "--dim", str(n), f"--state={state_arg(psi)}"]
            ops.append(cli_op(f"clone-demo/n={n}", argv, self.out_dir / f"clone{i}.json", "json", EXIT_OK, verify_clone(psi)))
        for i, n in enumerate(self.FIXED_DIMS):
            psi = random_state(self.rng, n)
            k = int(self.rng.integers(n))
            argv = ["fixed-ancilla", "--dim", str(n), f"--state={state_arg(psi)}", "--ancilla-index", str(k)]
            ops.append(cli_op(f"fixed-ancilla/n={n}", argv, self.out_dir / f"fixed{i}.json", "json", EXIT_OK,
                              verify_fixed_ancilla(psi, k)))
        for i in range(self.SWEEPS):
            ops.append(cli_op("no-cloning-witness", ["no-cloning-witness"], self.out_dir / f"witness{i}.json", "json",
                              EXIT_OK, verify_witness))
        return ops


class AtomPipeline(Workload):
    """selection-rules, domain, stimulated-clone and spontaneous over all four configs.

    Formats rotate through json, csv and table. Four slots are expected
    refusals: a sigma+ photon on pi_only (exit 3), stimulated cloning on
    configs without a mode map (exit 2), and decay with no allowed channel
    (exit 3).
    """

    FORMATS = ("json", "csv", "table")

    def cycle(self) -> list[Op]:
        ops: list[Op] = []

        def add(kind: str, config: str, fmt: str, verify, extra=(), expect=EXIT_OK):
            argv = [kind, "--config", str(self.config_paths[config]), *extra]
            out = self.out_dir / f"atom{len(ops)}.{fmt}"
            ops.append(cli_op(f"{kind}/{config}/{fmt}", argv, out, fmt, expect, verify))

        for i, name in enumerate(CONFIG_NAMES):
            add("selection-rules", name, self.FORMATS[i % 3], verify_selection_rules(self.atoms[name]))
            add("domain", name, self.FORMATS[(i + 1) % 3], verify_domain(self.atoms[name]))

        for fmt in ("json", "json", "csv", "table"):
            photon = random_state(self.rng, 3)
            add("stimulated-clone", "full_p_manifold", fmt, verify_stimulated(photon), [f"--state={state_arg(photon)}"])
        phase = np.exp(2j * np.pi * self.rng.random())
        inside = np.array([phase, 0.0])
        add("stimulated-clone", "pi_only", "json", verify_stimulated(inside), [f"--state={state_arg(inside)}"])
        outside = random_state(self.rng, 2)
        add("stimulated-clone", "pi_only", "json", no_check, [f"--state={state_arg(outside)}"], EXIT_DOMAIN_VIOLATION)
        for name in ("hydrogen_n2", "s_to_s_forbidden"):
            add("stimulated-clone", name, "json", no_check, ["--seed", str(int(self.rng.integers(1000)))],
                EXIT_CONFIG_ERROR)

        all_modes = list(MODE_Q)
        for i, name in enumerate(("full_p_manifold", "hydrogen_n2", "pi_only")):
            atom = self.atoms[name]
            uniform = np.full(len(atom.excited), 1.0 / len(atom.excited))
            add("spontaneous", name, self.FORMATS[i], verify_spontaneous(all_modes, atom.emission_weights(uniform, all_modes)))
        full = self.atoms["full_p_manifold"]
        for fmt in ("json", "csv"):
            excited = random_state(self.rng, 3)
            populations = np.abs(excited) ** 2
            add("spontaneous", "full_p_manifold", fmt,
                verify_spontaneous(all_modes, full.emission_weights(populations, all_modes)),
                [f"--excited-state={state_arg(excited)}"])
        restricted = ["sigma-", "pi"]
        add("spontaneous", "full_p_manifold", "table",
            verify_spontaneous(restricted, full.emission_weights(np.full(3, 1 / 3), restricted)),
            ["--modes", ",".join(restricted)])
        add("spontaneous", "s_to_s_forbidden", "json", no_check, expect=EXIT_DOMAIN_VIOLATION)
        return ops


class HamiltonianBuild(Workload):
    """build_interaction_hamiltonian for the p-manifold and hydrogen_n2 atoms.

    Slots are (atom, modes, n_max, counter-rotating). Per cycle of 20,
    sorted by cost: eight partial-mode or n_max=2 builds, four identical
    mid-size builds holding p50, five large builds, two identical
    hydrogen n_max=6 builds holding p90, and the largest build on top.
    """

    FULL = tuple(MODE_Q)
    PAIR = ("sigma-", "pi")
    ONE = ("pi",)
    SLOTS = (
        ("p", ONE, 2, False), ("hydrogen", ONE, 6, True), ("p", PAIR, 2, True), ("hydrogen", PAIR, 3, False),
        ("p", PAIR, 4, True), ("hydrogen", PAIR, 5, False), ("p", FULL, 2, False), ("hydrogen", FULL, 2, True),
        ("hydrogen", FULL, 3, True), ("hydrogen", FULL, 3, True), ("hydrogen", FULL, 3, True), ("hydrogen", FULL, 3, True),
        ("p", FULL, 4, True), ("hydrogen", FULL, 4, True), ("p", FULL, 5, False), ("hydrogen", FULL, 5, True),
        ("p", FULL, 6, True),
        ("hydrogen", FULL, 6, False), ("hydrogen", FULL, 6, False),
        ("hydrogen", FULL, 6, True),
    )

    def __init__(self, root: Path, seed: int, out_dir: Path):
        super().__init__(root, seed, out_dir)
        self.modes = {mode.label: mode for mode in emission.SPHERICAL_MODES}

    def _atom(self, name: str) -> tuple[object, Atom]:
        """A seeded-radial copy of the atom, as clonesim and as the benchmark see it."""
        if name == "p":
            radial = float(self.rng.uniform(0.5, 2.0))
            atom = Atom(tuple(Level(label, 1, m, radial) for label, m in (("e-", -1), ("e0", 0), ("e+", 1))))
            return emission.p_manifold_system(radial), atom
        base = self.atoms["hydrogen_n2"]
        atom = replace(base, excited=tuple(replace(e, radial=float(self.rng.uniform(0.5, 2.0))) for e in base.excited))
        system = replace(self.systems["hydrogen_n2"], radial_factors={e.label: e.radial for e in atom.excited})
        return system, atom

    def cycle(self) -> list[Op]:
        ops = []
        for name, labels, n_max, counter in self.SLOTS:
            system, atom = self._atom(name)
            modes = [self.modes[label] for label in labels]
            ops.append(hamiltonian_op(system, atom, modes, n_max, counter))
        return ops


def expected_hamiltonian(atom: Atom, labels: list[str], n_max: int, counter: bool):
    """Rows, columns and values of every nonzero of the interaction Hamiltonian.

    Basis order: atom major (ground, then excited in config order), then the
    occupation of each mode in order. |e, n> couples to |g, n+1_k> with
    -amp sqrt(n_k+1); counter-rotating terms couple |e, n> to |g, n-1_k>
    with -amp sqrt(n_k); the conjugate entries make it hermitian.
    """
    levels = n_max + 1
    fock_dim = levels ** len(labels)
    fock = np.arange(fock_dim)
    rows, cols, values = [], [], []
    for level_index, level in enumerate(atom.excited):
        for mode_index, label in enumerate(labels):
            amp = atom.amplitude(level, MODE_Q[label])
            if amp == 0.0:
                continue
            stride = levels ** (len(labels) - 1 - mode_index)
            occupation = (fock // stride) % levels
            shifts = [(occupation < n_max, stride, np.sqrt(occupation + 1.0))]
            if counter:
                shifts.append((occupation > 0, -stride, np.sqrt(occupation.astype(float))))
            for mask, shift, ladder in shifts:
                row = fock[mask] + shift
                col = (1 + level_index) * fock_dim + fock[mask]
                value = -amp * ladder[mask]
                rows += [row, col]
                cols += [col, row]
                values += [value, np.conj(value)]
    if not rows:
        return np.zeros(0, int), np.zeros(0, int), np.zeros(0)
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(values)


def hamiltonian_op(system, atom: Atom, modes: list, n_max: int, counter: bool) -> Op:
    labels = [mode.label for mode in modes]
    dim = (1 + len(atom.excited)) * (n_max + 1) ** len(labels)
    rows, cols, values = expected_hamiltonian(atom, labels, n_max, counter)

    def call():
        return emission.build_interaction_hamiltonian(system, modes, n_max, include_counter_rotating=counter)

    def check(result) -> None:
        h = result.entries
        require(h.shape == (dim, dim), f"shape {h.shape}, expected {(dim, dim)}")
        nnz = int(np.count_nonzero(h))
        require(nnz == rows.size, f"{nnz} nonzeros, expected {rows.size}")
        close(h[rows, cols], values, "Hamiltonian entries -amp*sqrt(n+1)")
        close(h[cols, rows], np.conj(h[rows, cols]), "Hamiltonian hermiticity")

    def fingerprint(result) -> str:
        return hashlib.sha256(np.ascontiguousarray(result.entries).data).hexdigest()

    label = f"hamiltonian/{len(atom.excited)}-level/{'+'.join(labels)}/n_max={n_max}/{'cr' if counter else 'rwa'}"
    return Op(label, call, check, fingerprint)


WORKLOADS = {
    "copy-sweep": CopySweep,
    "atom-pipeline": AtomPipeline,
    "hamiltonian-build": HamiltonianBuild,
}
