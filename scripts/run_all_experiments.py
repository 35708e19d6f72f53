#!/usr/bin/env python3
"""Run every canned experiment through the CLI and write the reports into a directory.

Each experiment is a ``clonesim`` command line, run as
``cli.main(argv + ["--format", FORMAT, "--out", PATH])``.  Prints one line
per experiment: the report file, its wall time and ``ok``, ``CHECK FAILED``
(exit 1), or the CLI's exit code.  Exits 1 unless every line is ``ok``.

Usage:
    python scripts/run_all_experiments.py [--out-dir out] [--format json]
"""

import argparse
import sys
import time
from pathlib import Path

from clonesim import cli

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
FULL_P = str(CONFIG_DIR / "full_p_manifold.json")

EXPERIMENTS = [
    ["clone-demo", "--state", "plus"],
    ["clone-demo", "--dim", "5", "--seed", "7"],
    ["fixed-ancilla", "--state", "plus", "--ancilla-index", "0"],
    ["no-cloning-witness"],
    ["selection-rules", "--config", str(CONFIG_DIR / "hydrogen_n2.json")],
    ["domain", "--config", FULL_P],
    ["domain", "--config", str(CONFIG_DIR / "s_to_s_forbidden.json")],
    ["stimulated-clone", "--config", FULL_P, "--seed", "7"],
    ["stimulated-clone", "--config", str(CONFIG_DIR / "pi_only.json"), "--state", "1,0"],
    ["spontaneous", "--config", FULL_P],
    ["spontaneous", "--config", FULL_P, "--modes", "sigma-,sigma+"],
    # A photon 1e-11 off the clonable domain: the stimulated pair differs from photon (x) photon
    # by a bosonic cross term of that order, which the fidelity check must not count as a failure.
    ["stimulated-clone", "--config", str(CONFIG_DIR / "pi_only.json"), "--state", "1,1e-11"],
    # Single overlaps, judged by the same rule as the default grid: an interior one, and a
    # CONSISTENT one just below 0, which only the endpoint check reads.
    ["no-cloning-witness", "--overlap", "0.5"],
    ["no-cloning-witness", "--overlap=-1e-12"],
]

STATUS = {cli.EXIT_OK: "ok", cli.EXIT_CHECK_FAILED: "CHECK FAILED"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="out", help="directory for report files")
    parser.add_argument("--format", default="json", choices=("json", "csv", "table"))
    args = parser.parse_args(argv)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    extension = {"json": "json", "csv": "csv", "table": "txt"}[args.format]

    failures = 0
    for index, experiment in enumerate(EXPERIMENTS):
        name = f"{index:02d}_{experiment[0]}.{extension}"
        start = time.perf_counter()
        code = cli.main(experiment + ["--format", args.format, "--out", str(out_dir / name)])
        elapsed_ms = (time.perf_counter() - start) * 1e3
        print(f"{name:40s} {elapsed_ms:8.1f} ms  {STATUS.get(code, f'exit {code}')}")
        failures += code != cli.EXIT_OK
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
