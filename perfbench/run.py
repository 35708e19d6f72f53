"""clonesim benchmark: one workload, one closed-loop client, one process.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload copy-sweep --seed 1 --seconds 35 --trace 0

The workload's operations run back to back in whole cycles until
``--seconds`` have passed, and every result is checked (see workloads.py).
BLAS is pinned to one thread before numpy loads. The last stdout line is
the result; the line before it records provenance.

``--trace 0`` prints the end-to-end metrics, built from each operation
slot's fastest repetition in the run (see README.md). ``--trace 1`` runs
half the time untraced and half traced (see tracer.py) and prints the
per-layer metrics of one cycle plus the tracing overhead.
"""

from __future__ import annotations

import os

THREAD_PINNING = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINNING)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Iterator  # noqa: E402

from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh-interpreter starts whose median is ``setup_s``.
SETUP_SAMPLES = 9

#: Span names whose per-cycle self time is reported as ``<name>.self_ms``.
SELF_MS = (
    "cli.build_parser", "cli.main",
    "experiments.load_atomic_system", "experiments.render_report", "experiments.run",
    "copying.build_copy_unitary", "copying.clone", "copying.clone_with_fixed_ancilla", "copying.CopyBasis",
    "angular.clebsch_gordan",
    "emission.transition_amplitude", "emission.stimulated_clone", "emission.build_interaction_hamiltonian",
    "hilbert.OperatorMatrix", "hilbert.DensityMatrix",
)
#: Span names whose per-cycle call count is reported as ``<name>.calls``.
CALLS = (
    "experiments.load_atomic_system", "copying.build_copy_unitary", "angular.clebsch_gordan",
    "emission.transition_amplitude", "emission.clonable_domain",
)


class Runner:
    """Runs cycles of operations, timing each call and checking each result.

    ``latencies[c][k]`` is the wall time of slot ``k`` in cycle ``c``.
    """

    def __init__(self, tracer=None, fingerprints=None):
        self.tracer = tracer
        self.fingerprints = fingerprints  # list of per-cycle digest lists, or None
        self.latencies: list[list[float]] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run_op(self, op, op_id: int, latencies: list[float]) -> str | None:
        """Time one call, then check its result; return its digest if fingerprinting."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op_id = op_id
        start = time.perf_counter()
        try:
            result = op.call() if self.tracer is None else self.tracer.call("bench.op", op.call)
        except Exception as exc:  # a raising operation is a failed one; the run goes on
            latencies.append(time.perf_counter() - start)
            return self._fail(op, exc)
        latencies.append(time.perf_counter() - start)
        try:
            digest = op.fingerprint(result) if self.fingerprints is not None else None
            op.check(result)
        except Exception as exc:  # includes workloads.CheckFailed
            return self._fail(op, exc)
        return digest

    def _fail(self, op, exc: Exception) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"{op.label}: {type(exc).__name__}: {exc}")

    def run_cycle(self, ops) -> None:
        first_id = self.attempted
        latencies: list[float] = []
        digests = [self.run_op(op, first_id + i, latencies) for i, op in enumerate(ops)]
        self.latencies.append(latencies)
        if self.fingerprints is not None:
            self.fingerprints.append(digests)

    def best_latencies(self) -> list[float]:
        """Each slot's fastest repetition over the run's cycles."""
        return [min(slot) for slot in zip(*self.latencies)]

    @property
    def ops_per_s(self) -> float:
        """Operations per second of a cycle made of each slot's fastest repetition."""
        best = self.best_latencies()
        return len(best) / sum(best)

    @property
    def wall_ops_per_s(self) -> float:
        """Operations per second over all timed calls, contended ones included."""
        return sum(map(len, self.latencies)) / sum(map(sum, self.latencies))


class SetupProbe:
    """``setup_s``: wall time of a fresh interpreter reaching the first ready op.

    Samples are spread over the run, one between cycles every
    ``seconds / SETUP_SAMPLES``, so their median spans the machine's quiet
    and contended phases instead of the few seconds before the first cycle.
    """

    def __init__(self, workload: str, seed: int, seconds: float):
        self.command = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
        self.interval = seconds / SETUP_SAMPLES
        self.start = time.perf_counter()
        self.samples: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        subprocess.run(self.command, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        self.samples.append(time.perf_counter() - start)

    def between_cycles(self) -> None:
        due = len(self.samples) * self.interval
        if len(self.samples) < SETUP_SAMPLES and time.perf_counter() - self.start >= due:
            self.sample()

    def median(self) -> float:
        while len(self.samples) < SETUP_SAMPLES:
            self.sample()
        return statistics.median(self.samples)


def blas_info(np) -> dict:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, AttributeError):
        return {"name": None, "version": None}


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(np, clonesim) -> dict:
    source = hashlib.sha256()
    for path in sorted((SRC / "clonesim").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(np),
        "blas_threads": {name: os.environ.get(name) for name in THREAD_PINNING},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "clonesim_version": clonesim.__version__,
        "git_commit": git_commit(),
        "source_sha256": source.hexdigest(),
    }


def run_cycles(runner: Runner, cycles: Iterator[list], seconds: float, on_cycle=None) -> None:
    """Run whole cycles from ``cycles`` until ``seconds`` pass (at least one)."""
    start = time.perf_counter()
    for ops in cycles:
        runner.run_cycle(ops)
        if on_cycle is not None:
            on_cycle()
        if time.perf_counter() - start >= seconds:
            return


def recorded(cycles: Iterator[list], record: list) -> Iterator[list]:
    for ops in cycles:
        record.append(ops)
        yield ops


def traced_metrics(workload, seconds: float) -> tuple[Runner, Runner, dict]:
    """Run half of ``seconds`` untraced, then replay the same cycles traced."""
    played: list = []
    plain = Runner(fingerprints=[])
    run_cycles(plain, recorded(iter(workload.cycle, None), played), seconds / 2)

    tracer = Tracer()
    traced = Runner(tracer=tracer, fingerprints=[])
    stats = []
    tracer.install()
    try:
        replay = itertools.chain(played, iter(workload.cycle, None))
        run_cycles(traced, replay, seconds / 2, on_cycle=lambda: stats.append(tracer.end_cycle()))
    finally:
        tracer.uninstall()

    for cycle, (before, after) in enumerate(zip(plain.fingerprints, traced.fingerprints)):
        for slot, (a, b) in enumerate(zip(before, after)):
            if a is not None and b is not None and a != b:
                traced.failed += 1
                traced.failures.append(f"cycle {cycle} op {slot}: traced result differs from untraced")
    first = stats[0]
    for later in stats[1:]:
        if (later.calls, later.unique, later.counters) != (first.calls, first.unique, first.counters):
            traced.failed += 1
            traced.failures.append("per-cycle counts differ between cycles")
            break

    metrics = {}
    for name in SELF_MS:
        metrics[f"{name}.self_ms"] = (min(s.self_s[name] for s in stats) * 1e3, "ms")
    for name in CALLS:
        metrics[f"{name}.calls"] = (first.calls[name], "count")
    for name in ("angular.clebsch_gordan", "emission.transition_amplitude"):
        calls = first.calls[name]
        metrics[f"{name}.unique_ratio"] = (first.unique.get(name, 0) / calls if calls else 0.0, "ratio")
    counters = first.counters
    metrics["emission.hamiltonian_bytes"] = (counters["emission.hamiltonian_bytes"], "B")
    entries = counters["emission.hamiltonian_entries"]
    metrics["emission.hamiltonian_nnz_fraction"] = (
        counters["emission.hamiltonian_nnz"] / entries if entries else 0.0, "ratio")
    metrics["hilbert.operator_bytes"] = (counters["hilbert.operator_bytes"], "B")
    metrics["trace.untraced_ops_per_s"] = (plain.ops_per_s, "1/s")
    metrics["trace.traced_ops_per_s"] = (traced.ops_per_s, "1/s")
    metrics["trace.overhead_ratio"] = (plain.ops_per_s / traced.ops_per_s, "ratio")
    metrics["trace.cycle_ops"] = (len(played[0]), "count")
    metrics["trace.cycle_spans"] = (sum(first.calls.values()), "count")
    return plain, traced, metrics


def write_spans(path: Path, spans: list) -> None:
    path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "op_id"], "spans": spans}))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "clonesim" / "__init__.py").is_file():
        print(f"perfbench: no clonesim source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import numpy as np

    import clonesim
    import workloads

    if Path(clonesim.__file__).resolve().parent != (SRC / "clonesim").resolve():
        print(f"perfbench: imported clonesim from {clonesim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    out_dir = ROOT / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](ROOT, args.seed, out_dir)
        if args.trace:
            plain, runner, layer = traced_metrics(workload, args.seconds)
            attempted, failed = plain.attempted + runner.attempted, plain.failed + runner.failed
            failures = plain.failures + runner.failures
            metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}
            write_spans(out_dir.parent / f"spans-{args.workload}-seed{args.seed}.json", runner.tracer.spans)
        else:
            runner = Runner()
            setup = SetupProbe(args.workload, args.seed, args.seconds)
            run_cycles(runner, iter(workload.cycle, None), args.seconds, on_cycle=setup.between_cycles)
            attempted, failed, failures = runner.attempted, runner.failed, runner.failures
            deciles = statistics.quantiles(runner.best_latencies(), n=10, method="inclusive")
            metrics = {
                "ops_per_s": {"value": runner.ops_per_s, "unit": "1/s"},
                "op_p50_ms": {"value": deciles[4] * 1e3, "unit": "ms"},
                "op_p90_ms": {"value": deciles[8] * 1e3, "unit": "ms"},
                "setup_s": {"value": setup.median(), "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
                "success_ratio": {"value": (attempted - failed) / attempted, "unit": "ratio"},
            }
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    for failure in failures:
        print(f"perfbench: failed: {failure}", file=sys.stderr)
    info = provenance(np, clonesim)
    info.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace, clients=1,
                cycles=len(runner.latencies), slots=len(runner.latencies[0]),
                wall_ops_per_s=runner.wall_ops_per_s, failed_ratio=failed / attempted)
    print(json.dumps({"provenance": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
