"""One set-up sample in a fresh interpreter.

    python3 bench/probe.py <workload> <seed> <work_dir>

Builds the workload up to its first timed op over inputs that run.py has
already generated in <work_dir>, tears it down, and prints the set-up split
as one JSON line.
"""
from time import perf_counter

T0 = perf_counter()   # before `import ambientd`

import json  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402


def main():
    name, seed, work_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    workloads.add_source_path()
    workload = workloads.WORKLOADS[name](seed, work_dir)
    try:
        timings = workload.setup(T0)
    finally:
        workload.close()
    print(json.dumps(timings))


if __name__ == "__main__":
    main()
