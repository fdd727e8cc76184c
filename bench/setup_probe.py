"""Time one benchmark set-up in a fresh interpreter.

Set-up is importing bcsim, building and validating a workload's configs,
and one warm-up operation per scenario. Prints the seconds it took and,
for scaling it to the reference host speed, the median seconds of the
reference loops run just before and just after it.

    python3 bench/setup_probe.py <workload> <seed>
"""
import statistics
import sys
import time

import reference

LOOPS = 3  # before and again after


def main() -> None:
    loops = [reference.loop_seconds() for _ in range(LOOPS)]
    started = time.perf_counter()
    import workloads  # imports bcsim

    workload = workloads.build(sys.argv[1], int(sys.argv[2]))
    workload.warm_up()
    elapsed = time.perf_counter() - started
    workload.close()
    loops += [reference.loop_seconds() for _ in range(LOOPS)]
    print(repr(elapsed), repr(statistics.median(loops)))


if __name__ == "__main__":
    main()
