"""Set-up probe, started by run.py in a fresh interpreter with src/ on the
path.

Nothing but sys and time is imported before ``punctual.cli``, so the time
to ready is the program's own start-up.  argv[1] is the parent's
perf_counter just before it started this process.  Prints ``ready``, the
seconds since then and the time of the reference work, which is done only
after the clock is read.
"""

import sys
import time

import punctual.cli  # noqa: F401

ready = time.perf_counter() - float(sys.argv[1])

import statistics  # noqa: E402

from worker import reference_seconds  # noqa: E402

reference = statistics.median(reference_seconds() for _ in range(5))
print(f"ready {ready!r} {reference!r}", flush=True)
