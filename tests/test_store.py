import hashlib
import json
import logging
import random
import sqlite3
import threading
import time
from collections import Counter

import pytest

from anthology_harvest import (
    CrawlConfig,
    CrawlLog,
    CrawlStatus,
    DuplicateInBatch,
    FetchPolicy,
    FixtureSource,
    StoreConfig,
    StoreUnavailable,
    init_schema,
    load_all_conferences,
    load_all_papers,
    run_crawl,
    upsert_conference,
    upsert_crawl_batch,
    upsert_papers,
)
from anthology_harvest import store as store_mod
from anthology_harvest.scheduler import CrawlSession
from conftest import make_conference, make_paper, random_papers

FAST_POLICY = FetchPolicy(max_attempts=2, base_backoff_ms=0, timeout_ms=3000,
                          min_interval_ms=0)


def crawl_fixtures(fixtures_root, handle):
    return run_crawl(CrawlConfig(workers=4, policy=FAST_POLICY,
                                 source=FixtureSource(root=fixtures_root)), handle)


def table_rows(execute) -> dict[str, list[tuple]]:
    """Every row of both tables, through ``execute(sql)``, in key order."""
    return {table: [tuple(row) for row in execute(f"SELECT * FROM {table} ORDER BY 1")]
            for table in ("conference", "paper")}


class TestInitSchema:
    def test_fresh_location(self, tmp_path):
        h = init_schema(StoreConfig(location=str(tmp_path)))
        assert (tmp_path / "aclanthology.db").exists()
        assert h.execute_scalar("SELECT COUNT(*) FROM paper") == 0
        assert h.execute_scalar("SELECT COUNT(*) FROM conference") == 0
        h.close()

    def test_idempotent_reinit(self, tmp_path):
        cfg = StoreConfig(location=str(tmp_path / "lit.db"))
        h = init_schema(cfg)
        upsert_papers(h, [make_paper()])
        h.close()
        h2 = init_schema(cfg)
        assert h2.execute_scalar("SELECT COUNT(*) FROM paper") == 1
        h2.close()

    def test_unreachable_location(self, tmp_path):
        with pytest.raises(StoreUnavailable):
            init_schema(StoreConfig(location=str(tmp_path / "no" / "dir" / "x.db")))

    def test_closed_handle(self, mem_store):
        mem_store.close()
        with pytest.raises(StoreUnavailable):
            load_all_papers(mem_store)

    def test_fresh_store_is_at_current_version(self, mem_store):
        assert mem_store.execute_scalar("PRAGMA user_version") == store_mod.SCHEMA_VERSION == 2

    def test_newer_schema_is_refused(self, tmp_path):
        path = tmp_path / "future.db"
        conn = sqlite3.connect(path)
        conn.execute("PRAGMA user_version = 3")
        conn.close()
        with pytest.raises(StoreUnavailable):
            init_schema(StoreConfig(location=str(path)))


# The paper table as version 0 created it; normalized names were joined by " | ".
V0_PAPER_DDL = """CREATE TABLE paper (
  anthology_id TEXT PRIMARY KEY, title TEXT NOT NULL, authors TEXT NOT NULL,
  authors_normalized TEXT NOT NULL, venue_key TEXT NOT NULL, year INTEGER NOT NULL,
  page_url TEXT NOT NULL, pdf_url TEXT, abstract TEXT, bibkey TEXT)"""


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestExecuteSql:
    """Rows come back as dicts keyed the way ``sqlite3.Row`` resolves names: a
    name reads the first column equal to it, ASCII letters compared
    case-insensitively."""

    @pytest.mark.parametrize("sql, rows", [
        ("SELECT 1 AS x, 2 AS x, 3 AS X", [{"x": 1, "X": 1}]),
        ("SELECT 1 AS a, 2 AS \"A\", 3 AS b", [{"a": 1, "A": 1, "b": 3}]),
        ("SELECT 1 AS \"É\", 2 AS \"é\", 3 AS \"É\"", [{"É": 1, "é": 2}]),
        ("SELECT 1 AS x, 2 AS y UNION ALL SELECT 3, 4", [{"x": 1, "y": 2}, {"x": 3, "y": 4}]),
        ("SELECT anthology_id FROM paper", []),
        ("CREATE TEMP TABLE scratch (x)", []),
    ])
    def test_rows_as_dicts(self, mem_store, sql, rows):
        result = mem_store.execute_sql(sql)
        assert result == rows
        assert [list(row) for row in result] == [list(row) for row in rows]


class TestMigration:
    def test_version0_store_migrates_once(self, tmp_path):
        path = tmp_path / "old.db"
        papers = [
            make_paper(aid="2021.acl-long.1", year=2021, authors=("Ann | Bo", "José  García")),
            make_paper(aid="2021.acl-long.2", year=2021, authors=()),
            make_paper(aid="2022.acl-long.1", authors=("A|B", "Wei Chen", "wei chen"),
                       abstract="An abstract.", bibkey="k1"),
        ]
        conn = sqlite3.connect(path)
        conn.execute(V0_PAPER_DDL)
        conn.executemany("INSERT INTO paper VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)", [
            (p.anthology_id, p.title, json.dumps([a.full for a in p.authors], ensure_ascii=False),
             " | ".join(a.normalized for a in p.authors), p.venue_key, p.year, p.page_url,
             p.pdf_url, p.abstract, p.bibkey)
            for p in papers])
        conn.commit()
        conn.close()

        with init_schema(StoreConfig(location=str(path))) as h:
            assert h.execute_scalar("PRAGMA user_version") == 2
            stored = [tuple(row.values()) for row in h.execute_sql(
                "SELECT authors_normalized FROM paper ORDER BY anthology_id")]
            assert [json.loads(r[0]) for r in stored] == [
                ["ann | bo", "jose garcia"], [], ["a|b", "wei chen", "wei chen"]]
            assert list(load_all_papers(h)) == papers
            assert h.execute_scalar("SELECT COUNT(*) FROM conference") == 0
        migrated = _digest(path)

        with init_schema(StoreConfig(location=str(path))) as h:
            assert list(load_all_papers(h)) == papers
        assert _digest(path) == migrated

    def test_disagreeing_author_arrays_raise(self):
        row = dict(zip(store_mod.PAPER_COLUMNS, (
            "x.1", "T", '["Ann", "Bo"]', '["ann"]', "acl", 2022,
            "https://anthology.test/x.1/", None, None, None)))
        with pytest.raises(ValueError):
            store_mod.paper_from_row(row)


class _NoWal:
    """Connection proxy on which switching to write-ahead-log mode fails, as
    on a location that cannot hold the log."""

    def __init__(self, conn):
        object.__setattr__(self, "_conn", conn)

    def execute(self, sql, params=()):
        if sql.startswith("PRAGMA journal_mode"):
            raise sqlite3.OperationalError("unable to open database file")
        return self._conn.execute(sql, params)

    def __getattr__(self, name):
        return getattr(self._conn, name)

    def __setattr__(self, name, value):
        setattr(self._conn, name, value)


class TestStoreFile:
    """Between runs the store is one .db file; the log lives beside it only
    while a handle is open."""

    def test_db_file_alone_holds_the_crawl(self, fixtures_root, tmp_path):
        with init_schema(StoreConfig(location=str(tmp_path))) as h:
            report = crawl_fixtures(fixtures_root, h)
            copy = tmp_path / "copy" / "aclanthology.db"
            copy.parent.mkdir()
            copy.write_bytes((tmp_path / "aclanthology.db").read_bytes())
            want = table_rows(lambda sql: [row.values() for row in h.execute_sql(sql)])
        assert report.tasks_failed == 0
        assert len(want["paper"]) == report.papers_stored > 0
        assert sorted(p.name for p in copy.parent.iterdir()) == ["aclanthology.db"]
        conn = sqlite3.connect(copy)
        try:
            assert table_rows(conn.execute) == want
        finally:
            conn.close()

    def test_close_leaves_only_the_db_file(self, fixtures_root, tmp_path):
        h = init_schema(StoreConfig(location=str(tmp_path)))
        crawl_fixtures(fixtures_root, h)
        assert h.execute_scalar("PRAGMA journal_mode") == "wal"
        assert (tmp_path / "aclanthology.db-wal").exists()
        h.close()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["aclanthology.db"]

    def test_memory_store_checkpoints_as_a_no_op(self, mem_store):
        assert mem_store.execute_scalar("PRAGMA journal_mode") == "memory"
        upsert_papers(mem_store, [make_paper()])
        mem_store.checkpoint()
        assert load_all_papers(mem_store).ids() == ("2022.acl-long.1",)

    def test_rollback_journal_store_switches_to_wal_once(self, tmp_path):
        path = tmp_path / "v2.db"
        cfg = StoreConfig(location=str(path))
        papers = [make_paper(aid=f"2022.acl-long.{i}") for i in range(3)]
        with init_schema(cfg) as h:
            upsert_crawl_batch(h, make_conference(), papers)
            conferences = load_all_conferences(h)
        # A version-2 store as a rollback-journal release of the package left it.
        conn = sqlite3.connect(path)
        assert conn.execute("PRAGMA journal_mode=DELETE").fetchone() == ("delete",)
        conn.close()

        with init_schema(cfg) as h:
            assert h.execute_scalar("PRAGMA journal_mode") == "wal"
            assert h.execute_scalar("PRAGMA user_version") == 2
            assert list(load_all_papers(h)) == papers
            assert load_all_conferences(h) == conferences
        switched = _digest(path)

        with init_schema(cfg) as h:
            assert list(load_all_papers(h)) == papers
        assert _digest(path) == switched

    def test_location_that_cannot_hold_the_log_is_unavailable(self, tmp_path, monkeypatch):
        real_connect = sqlite3.connect
        opened = []

        def connect(*args, **kwargs):
            opened.append(real_connect(*args, **kwargs))
            return _NoWal(opened[-1])

        monkeypatch.setattr(store_mod.sqlite3, "connect", connect)
        with pytest.raises(StoreUnavailable):
            init_schema(StoreConfig(location=str(tmp_path)))
        assert len(opened) == 1
        with pytest.raises(sqlite3.ProgrammingError):  # closed, not leaked
            opened[0].execute("SELECT 1")

    def test_blocked_checkpoint_keeps_the_report(self, fixtures_root, tmp_path, caplog):
        want = crawl_fixtures(fixtures_root, init_schema(StoreConfig(location=":memory:")))
        h = init_schema(StoreConfig(location=str(tmp_path)))
        h.execute_scalar("PRAGMA busy_timeout = 50")
        # A reader whose snapshot predates the crawl keeps the checkpoint
        # from copying any of the crawl's pages into the file.
        reader = sqlite3.connect(tmp_path / "aclanthology.db", isolation_level=None)
        reader.execute("BEGIN")
        assert reader.execute("SELECT COUNT(*) FROM paper").fetchone() == (0,)
        with caplog.at_level(logging.WARNING, logger="anthology_harvest.scheduler"):
            report = crawl_fixtures(fixtures_root, h)
        assert any("blocked by a reader" in r.getMessage() for r in caplog.records)

        def outcomes(r):
            return {cid: (log.status, log.attempts, log.paper_count)
                    for cid, log in r.per_conference.items()}

        assert (report.tasks_total, report.tasks_succeeded, report.tasks_failed,
                report.papers_stored) == (want.tasks_total, want.tasks_succeeded,
                                          want.tasks_failed, want.papers_stored)
        assert outcomes(report) == outcomes(want)
        assert h.execute_scalar("SELECT COUNT(*) FROM paper") == report.papers_stored
        assert reader.execute("SELECT COUNT(*) FROM paper").fetchone() == (0,)
        reader.execute("COMMIT")
        reader.close()
        h.close()
        # The log held the crawl; the last close checkpointed it into the file.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["aclanthology.db"]
        conn = sqlite3.connect(tmp_path / "aclanthology.db")
        try:
            assert conn.execute("SELECT COUNT(*) FROM paper").fetchone() == (
                report.papers_stored,)
        finally:
            conn.close()


def test_readers_and_the_crawl_do_not_block_each_other(fixtures_root, tmp_path,
                                                       monkeypatch):
    cfg = StoreConfig(location=str(tmp_path))
    writer, reader = init_schema(cfg), init_schema(cfg)
    reads, errors, finished = [], [], []
    real_commit, real_finish = writer.commit, CrawlSession._finish

    def commit_then_read():
        real_commit()
        try:
            papers = Counter((p.venue_key, p.year) for p in load_all_papers(reader))
            tree = store_mod.stats_stored(reader, ["venue_key", "year"])
            grouped = Counter({(venue, year): n for venue, years in tree.items()
                               for year, n in years.items()})
            # Under each store's lock: a worker may be about to write.
            with reader.lock:
                reader_in_tx = reader._conn.in_transaction
            with writer.lock:
                writer_in_tx = writer._conn.in_transaction
            reads.append((papers, grouped, reader_in_tx, writer_in_tx))
        except Exception as exc:  # recorded here: the crawl would swallow it
            errors.append(exc)

    def finish(session, conf, *args):
        finished.append(len(reads))  # the read after the commit of the task's group
        real_finish(session, conf, *args)

    monkeypatch.setattr(writer, "commit", commit_then_read)
    monkeypatch.setattr(CrawlSession, "_finish", finish)
    try:
        report = crawl_fixtures(fixtures_root, writer)
        final = {(c.venue_key, c.year): c.crawl_log.paper_count
                 for c in load_all_conferences(writer)}
    finally:
        reader.close()
        writer.close()
    assert errors == []
    assert report.tasks_failed == 0
    # The groups cover all 25 tasks, with one read after each group's commit
    # and one after the run's closing commit.
    groups = Counter(finished)
    assert sum(groups.values()) == report.tasks_total == 25
    assert sorted(groups) == list(range(1, len(reads)))
    for papers, grouped, reader_in_tx, writer_in_tx in reads:
        # Each read sees a conference with all of its papers or none of them.
        assert all(final[key] == n for key, n in papers.items())
        assert all(final[key] == n for key, n in grouped.items())
        assert not reader_in_tx and not writer_in_tx
    # The read after the last commit sees every conference.
    everything = Counter({key: n for key, n in final.items() if n})
    assert reads[-1][0] == reads[-1][1] == everything


class TestUpsertConference:
    def test_insert_then_update(self, mem_store):
        rec = make_conference(desc="first")
        upsert_conference(mem_store, rec)
        assert load_all_conferences(mem_store) == [rec]
        changed = make_conference(desc="second")
        upsert_conference(mem_store, changed)
        rows = load_all_conferences(mem_store)
        assert len(rows) == 1
        assert rows[0].desc == "second"

    def test_identical_reupsert_is_stable(self, mem_store):
        rec = make_conference()
        upsert_conference(mem_store, rec)
        upsert_conference(mem_store, rec)
        assert load_all_conferences(mem_store) == [rec]

    def test_concurrent_first_writes_insert_once(self, mem_store, monkeypatch):
        real_write = mem_store._write_batch

        def slow_write(*args):
            time.sleep(0.05)  # widens the window between the two writes
            real_write(*args)

        monkeypatch.setattr(mem_store, "_write_batch", slow_write)
        barrier = threading.Barrier(2)

        def write(desc):
            barrier.wait(timeout=5)
            upsert_conference(mem_store, make_conference(desc=desc))

        threads = [threading.Thread(target=write, args=(desc,)) for desc in ("a", "b")]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
        rows = load_all_conferences(mem_store)
        assert [row.desc in ("a", "b") for row in rows] == [True]

    def test_crawl_log_round_trip(self, mem_store):
        log = CrawlLog(status=CrawlStatus.STORED, attempts=2,
                       fetched_at="2024-05-01T10:00:00+00:00", paper_count=7)
        rec = make_conference(crawl_log=log)
        upsert_conference(mem_store, rec)
        assert load_all_conferences(mem_store)[0].crawl_log == log


class TestUpsertPapers:
    def test_insert_counts(self, mem_store):
        papers = [make_paper(aid=f"2022.acl-long.{i}") for i in range(5)]
        assert upsert_papers(mem_store, papers) == (5, 0)

    def test_reupsert_counts(self, mem_store):
        papers = [make_paper(aid=f"2022.acl-long.{i}") for i in range(5)]
        upsert_papers(mem_store, papers)
        assert upsert_papers(mem_store, papers) == (0, 5)
        assert mem_store.execute_scalar("SELECT COUNT(*) FROM paper") == 5

    def test_duplicate_in_batch_changes_nothing(self, mem_store):
        papers = [make_paper(aid="dup.1"), make_paper(aid="dup.1", title="Other")]
        with pytest.raises(DuplicateInBatch):
            upsert_papers(mem_store, papers)
        assert mem_store.execute_scalar("SELECT COUNT(*) FROM paper") == 0

    def test_midbatch_failure_rolls_back(self, mem_store, monkeypatch):
        before = [make_paper(aid="keep.1", title="Keep")]
        upsert_papers(mem_store, before)
        snapshot = mem_store.execute_sql("SELECT * FROM paper ORDER BY anthology_id")

        real_row = store_mod._paper_row

        def sabotaged(rec):
            if rec.anthology_id == "boom.3":
                raise RuntimeError("injected failure")
            return real_row(rec)

        monkeypatch.setattr(store_mod, "_paper_row", sabotaged)
        batch = [make_paper(aid=f"boom.{i}") for i in range(5)]
        with pytest.raises(RuntimeError):
            upsert_papers(mem_store, batch)
        after = mem_store.execute_sql("SELECT * FROM paper ORDER BY anthology_id")
        assert after == snapshot

    def test_crawl_batch_is_one_transaction(self, mem_store, monkeypatch):
        conf = make_conference()
        real_row = store_mod._paper_row
        monkeypatch.setattr(
            store_mod, "_paper_row",
            lambda rec: (_ for _ in ()).throw(RuntimeError("boom")))
        with pytest.raises(RuntimeError):
            upsert_crawl_batch(mem_store, conf, [make_paper()])
        monkeypatch.setattr(store_mod, "_paper_row", real_row)
        assert mem_store.execute_scalar("SELECT COUNT(*) FROM conference") == 0
        assert mem_store.execute_scalar("SELECT COUNT(*) FROM paper") == 0


class _FailingCommit:
    """Connection proxy whose COMMIT fails the way a busy database does."""

    def __init__(self, conn):
        self._conn = conn

    def execute(self, sql, params=()):
        if sql == "COMMIT":
            raise sqlite3.OperationalError("database is locked")
        return self._conn.execute(sql, params)

    def __getattr__(self, name):
        return getattr(self._conn, name)


class TestWriteBatch:
    def test_failed_commit_rolls_back_and_raises(self, mem_store, monkeypatch):
        conn = mem_store._conn
        monkeypatch.setattr(mem_store, "_conn", _FailingCommit(conn))
        with pytest.raises(StoreUnavailable):
            upsert_papers(mem_store, [make_paper(aid="c.1")])
        assert not conn.in_transaction
        monkeypatch.setattr(mem_store, "_conn", conn)
        assert upsert_papers(mem_store, [make_paper(aid="c.2")]) == (1, 0)
        assert load_all_papers(mem_store).ids() == ("c.2",)


class _FailingPaper:
    """Connection proxy on which writing paper ``aid`` fails; with ``rollback``
    SQLite is made to roll back the whole transaction first, as it may on a
    full disk."""

    def __init__(self, conn, aid, rollback=False):
        self._conn, self._aid, self._rollback = conn, aid, rollback

    def execute(self, sql, params=()):
        if params[:1] == (self._aid,):
            if self._rollback:
                self._conn.execute("ROLLBACK")
            raise sqlite3.OperationalError("database or disk is full")
        return self._conn.execute(sql, params)

    def __getattr__(self, name):
        return getattr(self._conn, name)


class TestGroupedWrites:
    """A batch written without a commit stays in the open transaction, in its
    own savepoint, until ``commit()``."""

    def test_batches_wait_for_the_commit(self, tmp_path):
        cfg = StoreConfig(location=str(tmp_path))
        with init_schema(cfg) as writer, init_schema(cfg) as reader:
            upsert_crawl_batch(writer, make_conference(), [make_paper()], commit=False)
            upsert_conference(writer, make_conference(year=2021), commit=False)
            # A committing write joins the open transaction and waits too.
            assert upsert_papers(writer, [make_paper(aid="x.1")]) == (1, 0)
            assert reader.execute_scalar("SELECT COUNT(*) FROM conference") == 0
            writer.commit()
            assert not writer._conn.in_transaction
            assert reader.execute_scalar("SELECT COUNT(*) FROM conference") == 2
            assert reader.execute_scalar("SELECT COUNT(*) FROM paper") == 2

    def test_failed_batch_undoes_only_its_savepoint(self, mem_store, monkeypatch):
        upsert_crawl_batch(mem_store, make_conference(year=2021), [make_paper(aid="a.1")],
                           commit=False)
        conn = mem_store._conn
        monkeypatch.setattr(mem_store, "_conn", _FailingPaper(conn, "b.2"))
        with pytest.raises(StoreUnavailable):
            upsert_crawl_batch(mem_store, make_conference(),
                               [make_paper(aid="b.1"), make_paper(aid="b.2")], commit=False)
        monkeypatch.setattr(mem_store, "_conn", conn)
        mem_store.commit()
        assert load_all_papers(mem_store).ids() == ("a.1",)
        assert [c.conf_id for c in load_all_conferences(mem_store)] == ["acl-2021"]

    def test_batch_rolled_back_by_sqlite_fails_the_next_commit(self, mem_store,
                                                               monkeypatch):
        upsert_crawl_batch(mem_store, make_conference(year=2021), [make_paper(aid="a.1")],
                           commit=False)
        conn = mem_store._conn
        monkeypatch.setattr(mem_store, "_conn", _FailingPaper(conn, "b.1", rollback=True))
        with pytest.raises(StoreUnavailable):
            upsert_crawl_batch(mem_store, make_conference(), [make_paper(aid="b.1")],
                               commit=False)
        monkeypatch.setattr(mem_store, "_conn", conn)
        upsert_crawl_batch(mem_store, make_conference(year=2020), [make_paper(aid="c.1")],
                           commit=False)
        # a.1 went with the rollback, so nothing since the last commit is stored.
        with pytest.raises(StoreUnavailable):
            mem_store.commit()
        assert not conn.in_transaction
        assert mem_store.execute_scalar("SELECT COUNT(*) FROM paper") == 0
        mem_store.commit()  # the loss is reported once
        assert upsert_papers(mem_store, [make_paper(aid="d.1")]) == (1, 0)


class TestLoadAll:
    def test_empty(self, mem_store):
        assert len(load_all_papers(mem_store)) == 0

    def test_order(self, mem_store):
        papers = [
            make_paper(aid="2022.acl-long.2", year=2022, venue="acl"),
            make_paper(aid="2021.emnlp-main.1", year=2021, venue="emnlp"),
            make_paper(aid="2021.acl-long.9", year=2021, venue="acl"),
            make_paper(aid="2021.acl-long.10", year=2021, venue="acl"),
        ]
        upsert_papers(mem_store, papers)
        assert load_all_papers(mem_store).ids() == (
            "2021.acl-long.10", "2021.acl-long.9", "2021.emnlp-main.1",
            "2022.acl-long.2")

    def test_round_trip_field_equality(self, mem_store):
        rec = make_paper(
            aid="2020.coling-1.7",
            title="Ünïcode & Entities — a Title",
            authors=("José García", "Nguyễn Văn An"),
            venue="coling", year=2020,
            pdf_url=None,
            abstract=None,
            bibkey="garcia-2020-unicode",
        )
        upsert_papers(mem_store, [rec])
        loaded = load_all_papers(mem_store)
        assert list(loaded) == [rec]

    def test_randomized_round_trip(self, mem_store):
        rng = random.Random(42)
        papers = random_papers(rng, 50)
        upsert_papers(mem_store, papers)
        loaded = {p.anthology_id: p for p in load_all_papers(mem_store)}
        assert len(loaded) == len(papers)
        for rec in papers:
            assert loaded[rec.anthology_id] == rec

    def test_hydration_error_names_the_row(self, mem_store):
        upsert_papers(mem_store, [make_paper(aid="x.1")])
        mem_store._conn.execute("UPDATE paper SET page_url = 'not-a-url'")
        with pytest.raises(ValueError,
                           match=r"^stored paper x\.1: page_url 'not-a-url' must be absolute$"):
            load_all_papers(mem_store)

    def test_key_uniqueness_is_enforced(self, mem_store):
        upsert_papers(mem_store, [make_paper(aid="x.1", title="One")])
        upsert_papers(mem_store, [make_paper(aid="x.1", title="Two")])
        rows = mem_store.execute_sql("SELECT title FROM paper WHERE anthology_id='x.1'")
        assert rows == [{"title": "Two"}]
