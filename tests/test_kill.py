"""Crash consistency: ``harvest`` killed by SIGKILL leaves a consistent store.

Each case starts the CLI over a copy of the fixture corpus as a child
process, kills that child (and nothing else) once it has printed a seeded
number of progress lines, and then opens the store from this process.
"""
import os
import random
import re
import shutil
import signal
import sqlite3
import subprocess
import sys
from collections import Counter

import pytest

from conftest import REPO_ROOT

PROGRESS = re.compile(r"(\S+) (stored|unchanged|failed) (\d+) \d+")
KILL_POINTS = [(workers, after) for workers in (1, 2)
               for after in sorted(random.Random(workers).sample(range(25), 5))]


def harvest(corpus, db, workers, kill_after=None) -> dict[str, tuple[str, int]]:
    """Run ``harvest`` to its end, or SIGKILL it after ``kill_after`` progress
    lines; returns conf_id -> (status, papers) for each progress line read."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "anthology_harvest.cli", "harvest",
         "--source", f"fixture:{corpus}", "--workers", str(workers)],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"), AAH_DB=str(db)))
    printed = {}
    try:
        while kill_after is None or len(printed) < kill_after:
            line = proc.stderr.readline()
            if not line:
                break
            match = PROGRESS.fullmatch(line.rstrip("\n"))
            if match:
                printed[match[1]] = (match[2], int(match[3]))
        if kill_after is not None:
            proc.send_signal(signal.SIGKILL)
        proc.stderr.read()
    finally:
        proc.stderr.close()
        returncode = proc.wait(timeout=60)
    assert returncode in ((0,) if kill_after is None else (0, -signal.SIGKILL))
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


@pytest.mark.parametrize("workers, kill_after", KILL_POINTS)
def test_killed_harvest_leaves_a_consistent_store(corpus, clean, tmp_path,
                                                  workers, kill_after):
    printed = harvest(corpus, tmp_path, workers, kill_after)
    if (tmp_path / "aclanthology.db").exists():
        left = rows(tmp_path)
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
    harvest(corpus, tmp_path, workers)
    assert rows(tmp_path) == clean
