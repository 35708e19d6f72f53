#!/usr/bin/env python3
"""Run every canned experiment and write the reports into an output directory.

Prints one line per experiment: the report file, its wall time (run, render
and write) and ``ok`` or the failed checks.

Usage:
    python scripts/run_all_experiments.py [--out-dir out] [--seed 7] [--format json]
"""

import argparse
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = REPO_ROOT / "configs"

from clonesim.experiments import ExperimentSpec, render_report, run

EXPERIMENTS = [
    ExperimentSpec(kind="clone-demo", state="plus"),
    ExperimentSpec(kind="clone-demo", dim=5),
    ExperimentSpec(kind="fixed-ancilla", state="plus", ancilla_index=0),
    ExperimentSpec(kind="no-cloning-witness"),
    ExperimentSpec(kind="selection-rules", config_path=str(CONFIG_DIR / "hydrogen_n2.json")),
    ExperimentSpec(kind="domain", config_path=str(CONFIG_DIR / "full_p_manifold.json")),
    ExperimentSpec(kind="domain", config_path=str(CONFIG_DIR / "s_to_s_forbidden.json")),
    ExperimentSpec(kind="stimulated-clone", config_path=str(CONFIG_DIR / "full_p_manifold.json")),
    ExperimentSpec(kind="stimulated-clone", config_path=str(CONFIG_DIR / "pi_only.json"), state="1,0"),
    ExperimentSpec(kind="spontaneous", config_path=str(CONFIG_DIR / "full_p_manifold.json")),
    ExperimentSpec(
        kind="spontaneous",
        config_path=str(CONFIG_DIR / "full_p_manifold.json"),
        modes=("sigma-", "sigma+"),
    ),
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="out", help="directory for report files")
    parser.add_argument("--seed", type=int, default=7, help="seed applied to every experiment")
    parser.add_argument("--format", default="json", choices=("json", "csv", "table"))
    args = parser.parse_args(argv)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    extension = {"json": "json", "csv": "csv", "table": "txt"}[args.format]

    failures = 0
    for index, spec in enumerate(EXPERIMENTS):
        spec.seed = args.seed
        start = time.perf_counter()
        report, rows = run(spec)
        name = f"{index:02d}_{spec.kind}.{extension}"
        (out_dir / name).write_text(render_report(report, rows, args.format))
        elapsed_ms = (time.perf_counter() - start) * 1e3
        failed = [check["name"] for check in report["checks"] if not check["passed"]]
        status = f"CHECK FAILED: {', '.join(failed)}" if failed else "ok"
        print(f"{name:40s} {elapsed_ms:8.1f} ms  {status}")
        failures += 0 if report["passed"] else 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
