import hashlib
import json
import random
import sqlite3

import pytest

from anthology_harvest import (
    CrawlLog,
    CrawlStatus,
    DuplicateInBatch,
    StoreConfig,
    StoreUnavailable,
    init_schema,
    load_all_conferences,
    load_all_papers,
    upsert_conference,
    upsert_crawl_batch,
    upsert_papers,
)
from anthology_harvest import store as store_mod
from conftest import make_conference, make_paper, random_papers


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
            stored = h.execute_tuples(
                "SELECT authors_normalized FROM paper ORDER BY anthology_id")
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


class TestUpsertConference:
    def test_insert_then_update(self, mem_store):
        rec = make_conference(desc="first")
        assert upsert_conference(mem_store, rec) == "inserted"
        changed = make_conference(desc="second")
        assert upsert_conference(mem_store, changed) == "updated"
        rows = load_all_conferences(mem_store)
        assert len(rows) == 1
        assert rows[0].desc == "second"

    def test_identical_reupsert_is_stable(self, mem_store):
        rec = make_conference()
        upsert_conference(mem_store, rec)
        assert upsert_conference(mem_store, rec) == "updated"
        assert load_all_conferences(mem_store) == [rec]

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

    def test_key_uniqueness_is_enforced(self, mem_store):
        upsert_papers(mem_store, [make_paper(aid="x.1", title="One")])
        upsert_papers(mem_store, [make_paper(aid="x.1", title="Two")])
        rows = mem_store.execute_sql("SELECT title FROM paper WHERE anthology_id='x.1'")
        assert rows == [{"title": "Two"}]
