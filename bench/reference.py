"""A fixed pure-Python loop that gauges how fast the host runs right now.

On a shared virtual machine the CPU switches between fast and slow states
for seconds at a time, and the same bcsim round takes 1.9 ms in one and
3.1 ms in another. This loop slows down with it by about the same factor,
because it does the same kind of work as bcsim's simulator: it builds a
map from integer labels to complex amplitudes, sums squared magnitudes
into a marginal keyed by tuples, and permutes and scales the map. A
latency timed next to one run of the loop is put at a fixed host speed by
multiplying it with ``REFERENCE_S / loop seconds``. Figures so scaled read
as the time the work takes when the loop takes ``REFERENCE_S``, which is
the loop's time in the fast state of the host the benchmark was written
on. The loop never calls bcsim, so a change to bcsim moves only the
numerator.
"""
from time import perf_counter

REFERENCE_S = 70e-6
LABELS = 64
PASSES = 2


def loop_seconds() -> float:
    """Time one run of the reference loop."""
    started = perf_counter()
    amps = {label: complex(label, 1) for label in range(LABELS)}
    marginal: dict[tuple[int, int], float] = {}
    for _ in range(PASSES):
        for label, amp in amps.items():
            key = (label >> 1, label & 1)
            marginal[key] = marginal.get(key, 0.0) + abs(amp) ** 2
        amps = {label ^ 5: amp * 0.5 for label, amp in amps.items()}
    sorted(marginal.items())
    "".join(str(label) for label in range(LABELS // 2))
    return perf_counter() - started
