"""How fast the machine runs during a run, and how much CPU time it lost.

On a virtual machine shared with other tenants the speed of identical code
drifts by a third and more between periods of a few minutes, with no time
stolen by the hypervisor (a fixed pure-Python loop took 14-23 ms from one
second to the next in one process).  ``reading()`` times a small fixed
workload of the kinds of work the program does (interpreter loop, string
building and splitting, dict churn, an SQLite scan with a Python function),
and ``factor()`` takes the median of a run's readings to the multiplier
that converts the run's times to a machine on which that workload takes
``REFERENCE_S``, as far as the program's times follow the reading.  The
program's code is not involved, so a change to the program cannot move
the readings.

While both CPUs are busy the hypervisor also steals CPU time, up to a
third of it; ``stolen_s()`` reads the guest's own count of it.
"""
from __future__ import annotations

import gc
import os
import sqlite3
import statistics
import time

REFERENCE_S = 0.004     # the reading on a calm period of the reference machine
ELASTICITY = 0.75       # how strongly the program's times follow the reading
REPEATS = 3

_db = sqlite3.connect(":memory:")
_db.create_function("lower_py", 1, lambda s: s.lower(), deterministic=True)
_db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, title TEXT)")
_db.executemany("INSERT INTO t VALUES (?, ?)",
                [(i, f"Title {i * 7919 % 1000} of Paper {i}") for i in range(600)])


def _work() -> int:
    words = [f"w{i % 97}-{i}" for i in range(4000)]
    text = " ".join(w.upper() for w in words)
    counts: dict[str, int] = {}
    for part in text.split():
        key = part[:3]
        counts[key] = counts.get(key, 0) + len(part)
    rows = _db.execute("SELECT id FROM t WHERE lower_py(title) LIKE '%of paper 1%'").fetchall()
    return len(counts) + len(rows)


def reading() -> float:
    """Median seconds of a few runs of the reference workload.

    Garbage collection is off while it runs, so that how much the program
    keeps alive cannot change the reading.
    """
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(REPEATS):
            started = time.perf_counter()
            _work()
            times.append(time.perf_counter() - started)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def factor(readings: list[float]) -> float:
    """Multiplier that takes a run's times to reference speed.

    The program's times follow the reading by different amounts: in some
    stretches the reading sped up by 40 % and the ``bulk-fixture`` crawls
    by 15-20 %; when the whole machine sped up twofold, every time followed
    the reading almost fully.  The speed ratio is therefore raised to
    ``ELASTICITY``, which keeps both kinds of change within the bounds.
    """
    return (REFERENCE_S / statistics.median(readings)) ** ELASTICITY


def stolen_s() -> float:
    """CPU seconds the hypervisor has stolen from this machine since boot,
    summed over its CPUs (``steal`` in ``/proc/stat``); 0 where unknown."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0
