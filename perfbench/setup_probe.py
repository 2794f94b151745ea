"""Time kanagg's set-up in a fresh interpreter and print it in seconds.

Set-up is importing the package and loading and validating the workload's
manifests and experiment config. Interpreter start-up is not included.

    python3 perfbench/setup_probe.py WORKLOAD SEED MANIFEST...
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

start = time.perf_counter()
import kanagg  # noqa: E402,F401  (the import is what is timed)
from workloads import experiment_config  # noqa: E402

experiment_config(sys.argv[1], int(sys.argv[2]), sys.argv[3:], out_dir="unused")
print(repr(time.perf_counter() - start))
