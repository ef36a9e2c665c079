"""Time one set-up of a workload in a fresh interpreter and print the
seconds taken: importing ring_gather from the checkout's `src/`, plus
making the workload's inputs from the seed.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import ring_gather.cli  # noqa: F401  (imports every module)

    imported = time.perf_counter() - t0
    import workloads  # the benchmark's own code, not timed

    wl = workloads.WORKLOADS[workload]()
    t1 = time.perf_counter()
    wl.setup(seed)
    print(imported + time.perf_counter() - t1)


if __name__ == "__main__":
    main()
