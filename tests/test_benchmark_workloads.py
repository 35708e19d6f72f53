"""One checked cycle of every benchmark workload runs against the library.

``perfbench/workloads.py`` drives the CLI and the library as a benchmark
run does, and checks every result with its own numpy physics.  It is
loaded from its file path and used as it is, so a change that breaks what
the benchmark calls fails here, not only when a benchmark run starts.
"""

import pytest

from test_golden import REPO_ROOT
from test_tracer_bindings import load_perfbench_module

WORKLOADS = load_perfbench_module("workloads")


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_one_cycle_passes_its_checks(name, tmp_path):
    workload = WORKLOADS.WORKLOADS[name](REPO_ROOT, 1, tmp_path)
    failures = []
    for op in workload.cycle():
        try:
            op.check(op.call())
        except WORKLOADS.CheckFailed as exc:
            failures.append(f"{op.label}: {exc}")
    assert not failures
