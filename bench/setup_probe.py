"""Set-up timing of one workload in a fresh interpreter.

    python3 bench/setup_probe.py WORKLOAD SEED INPUT_DIR

Times ``import critgraph`` (with its CLI module, the entry point the ops go
through) and the building of the workload's inputs, and prints both as one
JSON line.  bench/run.py starts this several times and reports the median
of the sums as ``setup_s``.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (the benchmark's own code is not timed)


def main() -> None:
    workload, seed, input_dir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    t0 = time.perf_counter()
    import critgraph  # noqa: F401
    import critgraph.cli  # noqa: F401
    t1 = time.perf_counter()
    workloads.build(workload, seed, input_dir)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "inputs_s": t2 - t1}))


if __name__ == "__main__":
    main()
