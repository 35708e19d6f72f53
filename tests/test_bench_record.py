"""``scripts/bench_record.py``: its comparison, on fabricated run records, and
its whole run, on a checkout whose benchmark command prints fixed records."""

import importlib.util
import json
import os
import statistics
import subprocess
import sys

import pytest

from test_golden import REPO_ROOT


def load_bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", REPO_ROOT / "scripts" / "bench_record.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


BENCH_RECORD = load_bench_record()


#: Fabricated machine-probe times: median 101 ms, IQR 1 ms.
PROBE_MS = (100.0, 102.0, 101.0)


def fabricated_runs(git_commit, ops_per_s: list[float], tree_dirty=None, probe_ms=PROBE_MS) -> list[dict]:
    """One atom-pipeline run record per value, as ``run_once`` writes it."""
    return [
        {
            "workload": "atom-pipeline",
            "seed": seed,
            "exit_code": 0,
            "tree_dirty": tree_dirty,
            "probe_ms": probe,
            "provenance": {"git_commit": git_commit},
            "correct": True,
            "metrics": {name: value for name in BENCH_RECORD.METRICS},
        }
        for seed, (value, probe) in enumerate(zip(ops_per_s, probe_ms), start=1)
    ]


def comparison(capsys, commits: dict[str, object], dirty: dict[str, bool] | None = None,
               probes: dict[str, tuple] | None = None) -> list[str]:
    runs = {label: fabricated_runs(commit, [100.0, 102.0, 101.0], (dirty or {}).get(label),
                                   (probes or {}).get(label, PROBE_MS))
            for label, commit in commits.items()}
    table = {label: BENCH_RECORD.summary(label_runs) for label, label_runs in runs.items()}
    BENCH_RECORD.print_comparison(list(commits), runs, table)
    return capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("commits", [{"parent": None, "change": "0" * 40}, {"parent": "0" * 40, "change": None}],
                         ids=["baseline-without-git", "other-without-git"])
def test_warns_before_comparing_a_checkout_without_git_to_one_with_it(capsys, commits):
    lines = comparison(capsys, commits)
    bare = next(label for label, commit in commits.items() if commit is None)
    assert lines[0].startswith(f"warning: {bare} records no git commit")
    assert not any(line.startswith("warning") for line in lines[1:])
    assert len(lines) == 2 + len(BENCH_RECORD.METRICS)


@pytest.mark.parametrize("commit", [None, "0" * 40], ids=["both-without-git", "both-with-git"])
def test_checkouts_made_alike_compare_without_warning(capsys, commit):
    lines = comparison(capsys, {"parent": commit, "change": commit})
    assert len(lines) == 1 + len(BENCH_RECORD.METRICS)
    assert not any(line.startswith("warning") for line in lines)


def test_prints_each_checkouts_tree_state_before_the_metrics(capsys):
    commits = {"parent": "0" * 40, "change": "0" * 40, "copy": None}
    lines = comparison(capsys, commits, dirty={"parent": False, "change": True})
    assert lines[0] == "tree_dirty: parent false, change true  probe_ms median: parent 101, change 101"
    assert "tree_dirty: parent false, copy null  probe_ms median: parent 101, copy 101" in lines
    assert not any(line.startswith("tree_dirty") for line in lines[1:1 + len(BENCH_RECORD.METRICS)])


def test_tree_state_names_each_value_its_runs_record():
    runs = fabricated_runs("0" * 40, [1.0, 2.0], True) + fabricated_runs("0" * 40, [3.0], False)
    assert BENCH_RECORD.tree_state(runs) == "false/true"


def test_tree_dirty_reads_git_status(tmp_path):
    assert BENCH_RECORD.tree_dirty(tmp_path) is None  # no .git
    subprocess.run(["git", "init", "-q", str(tmp_path)], check=True)
    assert BENCH_RECORD.tree_dirty(tmp_path) is False
    (tmp_path / "untracked.txt").write_text("x")
    assert BENCH_RECORD.tree_dirty(tmp_path) is True


@pytest.mark.parametrize("change_probes, warned", [((101.5, 101.0, 101.8), False), ((130.0, 131.0, 129.0), True)],
                         ids=["within-iqr", "beyond-iqr"])
def test_warns_when_probe_medians_differ_by_more_than_the_baseline_iqr(capsys, change_probes, warned):
    lines = comparison(capsys, {"parent": "0" * 40, "change": "0" * 40}, probes={"change": change_probes})
    warnings = [line for line in lines if line.startswith("warning")]
    if warned:
        assert warnings == [lines[0]]
        assert lines[0].startswith("warning: probe medians of parent and change differ by 29 ms, more than parent's"
                                   " probe IQR 1 ms")
    else:
        assert warnings == []
    assert lines[int(warned)].endswith(f"probe_ms median: parent 101, change {statistics.median(change_probes):.4g}")


def test_each_spread_is_followed_by_its_share_of_the_median(capsys):
    lines = comparison(capsys, {"parent": "0" * 40, "change": "0" * 40})
    ops_line = next(line for line in lines if " ops_per_s " in line)
    assert ops_line.endswith("parent IQR 1 (1.0%)")  # ops 100, 101, 102: IQR 1 on a median of 101


def test_a_spread_about_a_zero_median_has_no_share():
    assert BENCH_RECORD.iqr_text({"median": 0.0, "q1": -1.0, "q3": 2.0}) == "IQR 3"
    assert BENCH_RECORD.iqr_text({"median": -4.0, "q1": -5.0, "q3": -3.0}) == "IQR 2 (50.0%)"


#: A benchmark command that prints a provenance line and a result line with
#: every end-to-end metric, then exits with the given code.
FAKE_RUN = """import json, sys
print(json.dumps({{"provenance": {{"git_commit": None}}}}))
print(json.dumps({{"correct": {correct}, "attempted": 3, "failed": 0,
                  "metrics": {{name: {{"value": 1.0}} for name in {names!r}}}}}))
sys.exit({exit_code})
"""


WORKLOADS = [workload["name"] for workload in BENCH_RECORD.BENCHMARK["workloads"]]


def record_fake_checkout(tmp_path, monkeypatch, correct=True, exit_code=0, labels=("a",), seeds=("1",)) -> int:
    """Record each label, all on one fake checkout, over ``seeds``."""
    checkout, out_dir = tmp_path / "checkout", tmp_path / "out"
    (checkout / "perfbench").mkdir(parents=True)
    out_dir.mkdir()
    (checkout / "perfbench" / "run.py").write_text(
        FAKE_RUN.format(correct=correct, names=list(BENCH_RECORD.METRICS), exit_code=exit_code))
    monkeypatch.setattr(BENCH_RECORD, "probe_ms", lambda: 100.0)
    checkouts = [argument for label in labels for argument in ("--checkout", f"{label}={checkout}")]
    return BENCH_RECORD.main([*checkouts, "--seeds", *seeds, "--out-dir", str(out_dir)])


def test_a_record_summarizes_exactly_the_end_to_end_metrics(tmp_path, monkeypatch, capsys):
    assert record_fake_checkout(tmp_path, monkeypatch) == 0
    document = json.loads((tmp_path / "out" / "BENCH_a.json").read_text())
    end_to_end = [metric["name"] for metric in BENCH_RECORD.BENCHMARK["end_to_end"]]
    assert {workload: list(metrics) for workload, metrics in document["summary"].items()} == {
        workload: end_to_end for workload in WORKLOADS}
    assert [(run["workload"], run["probe_ms"], run["correct"]) for run in document["runs"]] == [
        (workload, 100.0, True) for workload in WORKLOADS]
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" {")[0] for line in lines] == [f"a {workload} seed=1 exit=0 correct=true"
                                                       for workload in WORKLOADS]


@pytest.mark.parametrize("correct, exit_code, shown", [("False", 0, "correct=false"), ("True", 3, "correct=null")],
                         ids=["incorrect", "non-zero-exit"])
def test_a_failed_run_fails_the_record(tmp_path, monkeypatch, capsys, correct, exit_code, shown):
    assert record_fake_checkout(tmp_path, monkeypatch, correct, exit_code) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" {")[0] for line in lines] == [f"a {workload} seed=1 exit={exit_code} {shown}"
                                                       for workload in WORKLOADS]


@pytest.mark.parametrize("labels, orders", [
    (("a", "b"), ["ab", "ba", "ab"]),  # two checkouts alternate
    (("a", "b", "c"), ["abc", "bca", "cab"]),  # each of three goes first once in three seeds
], ids=["two", "three"])
def test_the_order_rotates_by_seed(tmp_path, monkeypatch, capsys, labels, orders):
    assert record_fake_checkout(tmp_path, monkeypatch, labels=labels, seeds=("1", "2", "3")) == 0
    ran = [line.split()[:3] for line in capsys.readouterr().out.splitlines() if " seed=" in line]
    assert ran == [[label, workload, f"seed={seed}"] for workload in WORKLOADS
                   for seed, order in enumerate(orders, start=1) for label in order]


def test_the_probe_runs_on_one_thread():
    """In a fresh interpreter whose environment sets no BLAS thread count, the
    probe spends no more CPU time than wall time, as the single-threaded
    workloads do."""
    code = ("import importlib.util, sys, time\n"
            "spec = importlib.util.spec_from_file_location('bench_record', sys.argv[1])\n"
            "script = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(script)\n"
            "cpu, wall = time.process_time(), time.perf_counter()\n"
            "script.probe_ms()\n"
            "print((time.process_time() - cpu) / (time.perf_counter() - wall))\n")
    pins = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {key: value for key, value in os.environ.items() if key not in pins}
    done = subprocess.run([sys.executable, "-c", code, str(REPO_ROOT / "scripts" / "bench_record.py")],
                          env=env, capture_output=True, text=True, check=True)
    assert float(done.stdout) <= 1.2
