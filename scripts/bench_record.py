#!/usr/bin/env python3
"""Record the benchmark's end-to-end metrics of one or more checkouts.

For every workload in ``BENCHMARK.json`` and each seed it runs the command
that ``BENCHMARK.json`` declares (``python3 perfbench/run.py``), at its
``run_seconds``, in each checkout's directory, as

    python3 perfbench/run.py --workload W --seed S --seconds N

one checkout after the other, so that several checkouts run in pairs on the
same machine; the order rotates by one checkout from seed to seed, so with k
checkouts each goes first once in every k seeds (two alternate).  Each
checkout's runs go to ``BENCH_<label>.json``: every run's provenance line and
end-to-end metrics, plus each metric's median and quartiles per workload.  Each
run also records ``tree_dirty``: whether ``git status --porcelain`` lists any
change in the checkout, or null where it has no ``.git``, since perfbench's
provenance gives the HEAD commit even when the tree differs from it, and
``probe_ms``: the best time of a fixed probe, timed just before the run, that
does not use clonesim, so that it shows how fast the machine ran then.  The
script pins BLAS to one thread before numpy loads, as perfbench pins the
workloads, so the probe's matmul runs on one CPU as they do; ``probe_ms``
values recorded before that pin were taken on all CPUs and do not compare
with later ones.  With two or more checkouts it also prints both checkouts'
``tree_dirty`` and probe medians and, per workload and metric, how often
each checkout beat the first one over the seeds, its median gap as a
signed share of the first one's median (positive when better), so that a
control checkout's gap reads beside the change's, and the first one's
quartile spread followed by its share of the first one's median, so that
spreads of metrics on different scales compare.  It warns first when one
compared checkout records no git commit and the other does: a copy without
``.git`` and a ``git clone`` of one commit have benchmarked a few percent
apart, so compare checkouts made the same way.  It also warns when the two
checkouts' probe medians differ by more than the first one's probe quartile
spread: the machine's speed moved between them.

A control is a checkout, not the first, whose runs all found a clean tree
at the commit the first one's runs all found clean: a second clone of the
baseline, a null change.  For each control the comparison ends with one line
per workload and metric for every checkout that is not a control: whether
it beats the control, that is, it is better than the baseline in the median
and both its wins and its median gap exceed the control's, since a gain
counts only if it beats what a null change gets.

Usage:
    python3 scripts/bench_record.py --checkout before=../parent --checkout after \\
        [--checkout control=../parent-control] [--seeds 1 2 ... 10] [--out-dir .]

A checkout given without ``=DIR`` is this repository.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_PINNING = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINNING)

import numpy as np  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
METRICS = {metric["name"]: metric["better"] for metric in BENCHMARK["end_to_end"]}


def run_argv(workload: str, seed) -> list[str]:
    """The benchmark command for one workload and seed, at ``BENCHMARK.json``'s run length."""
    return [*BENCHMARK["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(BENCHMARK["run_seconds"])]


def tree_dirty(root: Path) -> bool | None:
    """Whether ``git status --porcelain`` lists a change in ``root``; None without ``.git``."""
    if not (root / ".git").exists():
        return None
    done = subprocess.run(["git", "status", "--porcelain"], cwd=root, capture_output=True, text=True)
    return bool(done.stdout.strip()) if done.returncode == 0 else None


def probe_ms() -> float:
    """Best of five times, in ms, of a fixed probe: a pure-Python loop and 40
    products of a 256 x 256 matrix on one BLAS thread, about 0.1 s each on a
    2-vCPU Xeon, so about 0.5 s in all."""
    matrix = np.full((256, 256), 1 / 256)  # idempotent, so repeated products stay finite
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i * i
        product = matrix
        for _ in range(40):
            product = product @ matrix
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def run_once(root: Path, workload: str, seed: int) -> dict:
    """One benchmark run: its exit code, tree state, machine probe, provenance and end-to-end metric values."""
    argv = run_argv(workload, seed)
    dirty = tree_dirty(root)
    probe = probe_ms()
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    record = {"workload": workload, "seed": seed, "exit_code": done.returncode, "tree_dirty": dirty,
              "probe_ms": probe}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        record["stderr"] = done.stderr[-2000:]
        return record
    result = json.loads(lines[-1])
    record["provenance"] = json.loads(lines[-2])["provenance"]
    record.update({key: result[key] for key in ("correct", "attempted", "failed")})
    record["metrics"] = {name: value["value"] for name, value in result["metrics"].items()}
    return record


def quartiles(values: list[float]) -> dict:
    """The median and quartiles of ``values``, and how many there are."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "runs": len(values)}


def summary(runs: list[dict]) -> dict:
    """Median and quartiles of each end-to-end metric, per workload."""
    table: dict = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        measured = [run["metrics"] for run in runs if run["workload"] == workload and "metrics" in run]
        table[workload] = {}
        for name in METRICS:
            values = [metrics[name] for metrics in measured if name in metrics]
            if values:
                table[workload][name] = quartiles(values)
    return table


def without_git(label_runs: list[dict]) -> bool:
    """Whether a checkout's runs record no git commit, as a checkout without ``.git`` does."""
    return any(run["provenance"]["git_commit"] is None for run in label_runs if "provenance" in run)


def tree_state(label_runs: list[dict]) -> str:
    """A checkout's ``tree_dirty`` over its runs: ``true``, ``false`` or ``null``, or each that occurs."""
    return "/".join(sorted({json.dumps(run.get("tree_dirty")) for run in label_runs}))


def clean_commit(label_runs: list[dict]) -> str | None:
    """The one git commit a checkout's runs record, if every run found its tree clean; else None."""
    commits = {run["provenance"]["git_commit"] for run in label_runs if "provenance" in run}
    clean = all(run.get("tree_dirty") is False for run in label_runs)
    return commits.pop() if clean and len(commits) == 1 else None


def controls(labels: list[str], runs: dict[str, list[dict]]) -> list[str]:
    """The checkouts after the first that are clean clones of its clean commit."""
    commit = clean_commit(runs[labels[0]])
    return [label for label in labels[1:] if commit is not None and clean_commit(runs[label]) == commit]


def iqr_text(stats: dict) -> str:
    """A summary's quartile spread, followed by its share of the median where the median is not 0."""
    iqr = stats["q3"] - stats["q1"]
    share = f" ({iqr / abs(stats['median']):.1%})" if stats["median"] else ""
    return f"IQR {iqr:.3g}{share}"


def median_gap(base: dict, other: dict, better: str) -> float | None:
    """The other median's gap from the baseline median, as a signed share of
    the baseline median: positive when the other checkout is better; None
    where the baseline median is 0."""
    if not base["median"]:
        return None
    sign = 1 if better == "higher" else -1
    return sign * (other["median"] - base["median"]) / abs(base["median"])


def share_text(gap: float | None) -> str:
    """A :func:`median_gap` as a signed percentage, or ``n/a``."""
    return "n/a" if gap is None else f"{gap:+.1%}"


def gap_text(base: dict, other: dict, better: str) -> str:
    """:func:`median_gap` as text."""
    return f"median gap {share_text(median_gap(base, other, better))}"


def wins(base_runs: list[dict], other_runs: list[dict], workload: str, name: str) -> tuple[int, int]:
    """In how many of a workload's paired runs the other checkout beat the
    baseline on a metric, ties counting for neither, and how many pairs there are."""
    pairs = [
        (a["metrics"][name], b["metrics"][name])
        for a, b in zip(base_runs, other_runs)
        if a["workload"] == workload and "metrics" in a and "metrics" in b
    ]
    sign = 1 if METRICS[name] == "higher" else -1
    return sum(sign * (b - a) > 0 for a, b in pairs), len(pairs)


def print_comparison(labels: list[str], runs: dict[str, list[dict]], table: dict[str, dict]) -> None:
    """Both checkouts' ``tree_dirty`` and probe medians, then per workload and
    end-to-end metric: baseline median → each other median, pairwise wins,
    the median gap as a signed share of the baseline median (positive when
    better), baseline spread and its share of the baseline median.  Then, for
    each of the :func:`controls`, per workload and metric and each checkout
    that is not a control: whether it beats the control, that is, it is better
    than the baseline in the median and its wins and its median gap both
    exceed the control's."""
    base = labels[0]
    base_probe = quartiles([run["probe_ms"] for run in runs[base]])
    for other in labels[1:]:
        if without_git(runs[base]) != without_git(runs[other]):
            bare, cloned = (base, other) if without_git(runs[base]) else (other, base)
            print(f"warning: {bare} records no git commit (no .git) and {cloned} does; checkouts made in different"
                  " ways have benchmarked about 2.6% apart on atom-pipeline, so compare checkouts made the same way")
        other_probe = quartiles([run["probe_ms"] for run in runs[other]])
        gap, spread = abs(other_probe["median"] - base_probe["median"]), base_probe["q3"] - base_probe["q1"]
        if gap > spread:
            print(f"warning: probe medians of {base} and {other} differ by {gap:.3g} ms, more than {base}'s probe"
                  f" IQR {spread:.3g} ms; the machine ran at another speed for each, so their metrics do not"
                  " compare the code alone")
        print(f"tree_dirty: {base} {tree_state(runs[base])}, {other} {tree_state(runs[other])}"
              f"  probe_ms median: {base} {base_probe['median']:.4g}, {other} {other_probe['median']:.4g}")
        for workload, metrics in table[base].items():
            for name, stats in metrics.items():
                theirs = table[other].get(workload, {}).get(name)
                if theirs is None:
                    continue
                won, paired = wins(runs[base], runs[other], workload, name)
                print(f"{workload:18s} {name:14s} {base} {stats['median']:.4g} -> {other} {theirs['median']:.4g}"
                      f"  {other} better in {won}/{paired} pairs, {gap_text(stats, theirs, METRICS[name])};"
                      f" {base} {iqr_text(stats)}")
    nulls = controls(labels, runs)
    for control in nulls:
        for workload, metrics in table[base].items():
            for name, stats in metrics.items():
                null = table[control].get(workload, {}).get(name)
                if null is None:
                    continue
                null_won, null_paired = wins(runs[base], runs[control], workload, name)
                null_gap = median_gap(stats, null, METRICS[name])
                for other in labels[1:]:
                    theirs = table[other].get(workload, {}).get(name)
                    if other in nulls or theirs is None:
                        continue
                    won, paired = wins(runs[base], runs[other], workload, name)
                    gap = median_gap(stats, theirs, METRICS[name])
                    beats = (gap is not None and null_gap is not None
                             and gap > 0 and gap > null_gap and won > null_won)
                    print(f"{workload:18s} {name:14s} {other} {'beats' if beats else 'does not beat'}"
                          f" control {control}: wins {won}/{paired} against {null_won}/{null_paired},"
                          f" median gap {share_text(gap)} against {share_text(null_gap)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--checkout", action="append", required=True, metavar="LABEL[=DIR]",
                        help="a labelled source checkout to run (repeatable; the first is the baseline)")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)),
                        help="seeds to run, one pair of runs each (default 1 to 10)")
    parser.add_argument("--out-dir", type=Path, default=REPO_ROOT, help="where BENCH_<label>.json files go")
    args = parser.parse_args(argv)

    checkouts = {}
    for entry in args.checkout:
        label, _, directory = entry.partition("=")
        checkouts[label] = Path(directory).resolve() if directory else REPO_ROOT
    if len(checkouts) != len(args.checkout):
        parser.error("checkout labels must be distinct")
    workloads = [w["name"] for w in BENCHMARK["workloads"]]

    runs: dict[str, list[dict]] = {label: [] for label in checkouts}
    for workload in workloads:
        for index, seed in enumerate(args.seeds):
            order = list(checkouts.items())
            shift = index % len(order)
            for label, root in order[shift:] + order[:shift]:
                record = run_once(root, workload, seed)
                runs[label].append(record)
                shown = {name: round(value, 4) for name, value in record.get("metrics", {}).items()}
                print(f"{label} {workload} seed={seed} exit={record['exit_code']}"
                      f" correct={json.dumps(record.get('correct'))} {shown}", flush=True)

    table = {label: summary(label_runs) for label, label_runs in runs.items()}
    for label in checkouts:
        document = {
            "label": label,
            "command": run_argv("W", "S"),
            "seeds": args.seeds,
            "summary": table[label],
            "runs": runs[label],
        }
        (args.out_dir / f"BENCH_{label}.json").write_text(json.dumps(document, indent=2) + "\n")
    if len(checkouts) > 1:
        print_comparison(list(checkouts), runs, table)
    healthy = all(run["exit_code"] == 0 and run.get("correct") for label_runs in runs.values() for run in label_runs)
    return 0 if healthy else 1


if __name__ == "__main__":
    sys.exit(main())
