"""Start-up probe for ``setup_s``: a fresh interpreter imports clonesim,
loads the configs and builds the first cycle of a workload, then exits.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

if __name__ == "__main__":
    workload = workloads.WORKLOADS[sys.argv[1]](ROOT, int(sys.argv[2]), ROOT / ".perfbench_out")
    workload.cycle()
