"""Crash consistency: ``harvest`` killed by SIGKILL, or stopped by Ctrl-C
(SIGINT), leaves a consistent store.

Each case starts the CLI over a copy of the fixture corpus as a child
process, signals that child (and nothing else) once it has printed a seeded
number of progress lines, and then opens the store from this process.

A wider Ctrl-C sweep, 100 seeded points per worker count, is marked
``sweep`` and runs only when asked for: ``pytest -m sweep tests/test_kill.py``.
"""
import contextlib
import os
import queue
import random
import re
import shutil
import signal
import sqlite3
import subprocess
import sys
import threading
import time
from collections import Counter

import pytest

from conftest import REPO_ROOT

PROGRESS = re.compile(r"(\S+) (stored|unchanged|failed) (\d+) \d+")
KILL_POINTS = [(workers, after) for workers in (1, 2, 8)
               for after in sorted(random.Random(workers).sample(range(25), 5))]
# Ctrl-C comes once the CLI is running (one line printed) and while at least
# a group of tasks is left, so it always finds the crawl under way.
INTERRUPT_POINTS = [(workers, after) for workers in (1, 2, 8)
                    for after in sorted(random.Random(-workers).sample(range(1, 17), 2))]
SWEEP_POINTS = [pytest.param(workers, random.Random(f"{workers}:{i}").randint(1, 16),
                             marks=pytest.mark.sweep, id=f"sweep-{workers}w-{i:02d}")
                for workers in (1, 2, 8) for i in range(100)]
# A harvest of the corpus ends within seconds; one still running after this
# is hung, and its stack is wanted more than its end.
TIMEOUT_S = 60


def harvest(corpus, db, workers, kill_after=None,
            sig=signal.SIGKILL) -> dict[str, tuple[str, int]]:
    """Run ``harvest`` to its end, or send it ``sig`` after ``kill_after``
    progress lines; returns conf_id -> (status, papers) for each progress
    line read.  Stopped by SIGINT, it must exit 130 saying ``interrupted``.

    Every wait is bounded: a child still running TIMEOUT_S seconds after
    its start is sent SIGABRT, on which ``-X faulthandler`` prints every
    thread's stack, and the test fails showing that stderr."""
    proc = subprocess.Popen(
        [sys.executable, "-X", "faulthandler", "-m", "anthology_harvest.cli", "harvest",
         "--source", f"fixture:{corpus}", "--workers", str(workers)],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"), AAH_DB=str(db)))
    lines: queue.SimpleQueue[str] = queue.SimpleQueue()

    def read() -> None:  # stderr line by line, then "" at its end
        for line in proc.stderr:
            lines.put(line)
        lines.put("")

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    deadline = time.monotonic() + TIMEOUT_S
    printed, hung = {}, False
    try:
        while kill_after is None or len(printed) < kill_after:
            line = lines.get(timeout=max(deadline - time.monotonic(), 0))
            if not line:
                break
            match = PROGRESS.fullmatch(line.rstrip("\n"))
            if match:
                printed[match[1]] = (match[2], int(match[3]))
        if kill_after is not None:
            proc.send_signal(sig)
        proc.wait(timeout=max(deadline - time.monotonic(), 0))
    except (queue.Empty, subprocess.TimeoutExpired):
        proc.send_signal(signal.SIGABRT)
        hung = True
    finally:
        with contextlib.suppress(subprocess.TimeoutExpired):
            proc.wait(timeout=TIMEOUT_S)
        proc.kill()  # does nothing to a child that has ended
        returncode = proc.wait()
        reader.join()
        proc.stderr.close()
    rest = "".join(lines.get() for _ in range(lines.qsize()))
    if hung:
        pytest.fail(f"harvest still running after {TIMEOUT_S} s; its stderr:\n{rest}")
    if kill_after is None:
        assert returncode == 0
    elif sig == signal.SIGINT:
        assert returncode == 130, rest
        assert rest.endswith("interrupted\n") and "Traceback" not in rest, rest
    else:
        assert returncode in (0, -signal.SIGKILL)
    return printed


def rows(db) -> dict[str, list[tuple]]:
    """Every row of both tables, fetched_at left out, read in a fresh
    connection; a table the killed run did not create has none."""
    conn = sqlite3.connect(db / "aclanthology.db")
    try:
        assert conn.execute("PRAGMA integrity_check").fetchall() == [("ok",)]
        tables = {name for name, in conn.execute("SELECT name FROM sqlite_master")}
        out = {}
        for table in ("conference", "paper"):
            if table not in tables:
                out[table] = []
                continue
            cur = conn.execute(f"SELECT * FROM {table} ORDER BY 1")
            names = [column[0] for column in cur.description]
            out[table] = [tuple(v for n, v in zip(names, row) if n != "fetched_at")
                          for row in cur]
        return out
    finally:
        conn.close()


@pytest.fixture(scope="module")
def corpus(fixtures_root, tmp_path_factory):
    return shutil.copytree(fixtures_root, tmp_path_factory.mktemp("kill") / "corpus")


@pytest.fixture(scope="module")
def clean(corpus, tmp_path_factory):
    db = tmp_path_factory.mktemp("clean")
    printed = harvest(corpus, db, workers=2)
    assert Counter(status for status, _ in printed.values()) == {"stored": 25}
    return rows(db)


def assert_consistent(corpus, clean, db, workers, printed) -> None:
    if (db / "aclanthology.db").exists():
        left = rows(db)
        # conference: (conf_id, ..., status at 8, ..., paper_count at 11, ...);
        # paper: (anthology_id, ..., venue_key at 4, year at 5, ...).
        stored = {row[0]: row for row in left["conference"] if row[8] == "stored"}
        clean_papers = Counter((row[4], row[5]) for row in clean["paper"])
        papers = Counter((row[4], row[5]) for row in left["paper"])
        # Every conference printed as stored has its row and all its papers.
        for conf_id, (status, count) in printed.items():
            assert status == "stored"
            venue, year = conf_id.rsplit("-", 1)
            assert stored[conf_id][11] == count
            assert papers[(venue, int(year))] == clean_papers[(venue, int(year))] == count
        # No paper belongs to a conference without a stored row.
        for venue, year in papers:
            assert f"{venue}-{year}" in stored
        assert set(left["paper"]) <= set(clean["paper"])
    # An uninterrupted harvest afterwards leaves what one clean harvest does.
    harvest(corpus, db, workers)
    assert rows(db) == clean


@pytest.mark.parametrize("workers, kill_after", KILL_POINTS)
def test_killed_harvest_leaves_a_consistent_store(corpus, clean, tmp_path,
                                                  workers, kill_after):
    printed = harvest(corpus, tmp_path, workers, kill_after)
    assert_consistent(corpus, clean, tmp_path, workers, printed)


@pytest.mark.parametrize("workers, kill_after", INTERRUPT_POINTS + SWEEP_POINTS)
def test_interrupted_harvest_leaves_a_consistent_store(corpus, clean, tmp_path,
                                                       workers, kill_after):
    printed = harvest(corpus, tmp_path, workers, kill_after, sig=signal.SIGINT)
    assert_consistent(corpus, clean, tmp_path, workers, printed)
