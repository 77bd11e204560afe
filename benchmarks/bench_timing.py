"""Shared wall-clock measurement discipline for the speedup gates.

The gates compare two backends inside one pytest process, with every
previously-collected trace (and, in a full-suite run, every earlier
test's leftovers) resident on the heap.  Cyclic-GC passes scan that heap
and their cost lands on whichever run happens to trigger them — noise
that regularly flips a 4x engine speedup below a 3x gate.  So gate
timings follow the ``timeit`` discipline: collect once, hold the
collector off while the clock runs, and keep the best of a few repeats
(scheduler preemption and frequency scaling only ever add time).
"""

import gc
import time

#: Wall-clock repeats per timed backend; the minimum estimates true cost.
REPEATS = 2


def _timed(run):
    """Return ``(result, seconds)`` for one call to ``run()``, with the
    cyclic collector disabled while timing."""
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        result = run()
        return result, time.perf_counter() - start
    finally:
        gc.enable()


def best_of(run, repeats=REPEATS):
    """Return ``(result, seconds)`` for the fastest of ``repeats`` calls
    to ``run()``, with the cyclic collector disabled while timing."""
    best_result, best = None, None
    for _ in range(repeats):
        result, seconds = _timed(run)
        if best is None or seconds < best:
            best_result, best = result, seconds
    return best_result, best


def best_of_interleaved(first, second, repeats=REPEATS):
    """:func:`best_of` for two runs timed in alternation (first, second,
    first, ...), so that a burst of machine load lands on both sides of a
    ratio instead of on whichever side happened to be timed during it.
    Returns ``((first_result, seconds), (second_result, seconds))``."""
    best = [(None, None), (None, None)]
    for _ in range(repeats):
        for side, run in enumerate((first, second)):
            result, seconds = _timed(run)
            if best[side][1] is None or seconds < best[side][1]:
                best[side] = (result, seconds)
    return best[0], best[1]
