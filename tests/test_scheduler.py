import gc
import logging
import sqlite3
import sys
import threading
import time
import warnings
from pathlib import Path

import pytest

from anthology_harvest import (
    CrawlConfig,
    CrawlStatus,
    FetchPolicy,
    FixtureSource,
    HarvestError,
    MockSource,
    StoreConfig,
    init_schema,
    load_all_conferences,
    load_all_papers,
    parse_conf_id,
    parse_proceedings,
    plan_tasks,
    run_crawl,
)
from anthology_harvest.mockserver import ScriptedCorpusServer
from anthology_harvest.scheduler import CrawlSession
from conftest import copy_without_base, make_conference

FAST_POLICY = FetchPolicy(max_attempts=3, base_backoff_ms=1, timeout_ms=3000,
                          min_interval_ms=0)


def fixture_config(fixtures_root, workers=4, venues=(), years=(2019, 2023),
                   policy=FAST_POLICY):
    return CrawlConfig(venues=tuple(venues), year_range=years, workers=workers,
                       policy=policy, source=FixtureSource(root=fixtures_root))


def crawl_fixture(fixtures_root, **kwargs):
    handle = init_schema(StoreConfig(location=":memory:"))
    report = run_crawl(fixture_config(fixtures_root, **kwargs), handle)
    return handle, report


class TestPlanTasks:
    def _pages(self):
        return {"acl": [make_conference(venue="acl", year=y) for y in range(2019, 2024)]}

    def test_venue_and_year_filter(self):
        pages = {**self._pages(), "emnlp": [make_conference(venue="emnlp", year=2022)]}
        config = CrawlConfig(venues=("acl",), year_range=(2021, 2023), workers=1,
                             policy=FAST_POLICY, source=FixtureSource(root=Path(".")))
        plan = plan_tasks(config, pages)
        assert [c.conf_id for c in plan] == ["acl-2021", "acl-2022", "acl-2023"]

    def test_empty_intersection_raises(self):
        pages = self._pages()
        config = CrawlConfig(venues=(), year_range=(1951, 1952), workers=1,
                             policy=FAST_POLICY, source=FixtureSource(root=Path(".")))
        assert plan_tasks(config, pages) == []

    def test_duplicate_venues_deduplicate(self):
        pages = self._pages()
        config = CrawlConfig(venues=("acl", "acl"), year_range=(2019, 2023),
                             workers=1, policy=FAST_POLICY,
                             source=FixtureSource(root=Path(".")))
        plan = plan_tasks(config, pages)
        assert len(plan) == 5
        assert len({c.conf_id for c in plan}) == 5

    def test_venues_are_canonical_once_built(self):
        config = CrawlConfig(venues=("ACL", "acl", "Acl "), workers=1,
                             source=FixtureSource(root=Path(".")))
        assert config.venues == ("acl",)

    def test_ordering_across_venues(self):
        pages = {
            "emnlp": [make_conference(venue="emnlp", year=2021)],
            "acl": [make_conference(venue="acl", year=2022),
                    make_conference(venue="acl", year=2021)],
        }
        config = CrawlConfig(venues=(), year_range=(2019, 2023), workers=1,
                             policy=FAST_POLICY, source=FixtureSource(root=Path(".")))
        plan = plan_tasks(config, pages)
        assert [c.conf_id for c in plan] == ["acl-2021", "acl-2022", "emnlp-2021"]


class TestFixtureCrawl:
    def test_full_crawl_counts(self, fixtures_root, manifest):
        handle, report = crawl_fixture(fixtures_root)
        expected = sum(p["expected_records"] for p in manifest["pages"]
                       if p["kind"] == "proceedings")
        assert report.tasks_total == 25
        assert report.tasks_failed == 0
        assert report.papers_stored == expected
        assert len(load_all_papers(handle)) == expected
        assert report.tasks_total == report.tasks_succeeded + report.tasks_failed
        from anthology_harvest import execute, table
        assert execute(handle, table("paper").min("year").build()) == 2019
        handle.close()

    def test_parse_warnings_are_logged(self, fixtures_root, manifest, caplog):
        # Each proceedings page's parse warnings, as the parser reports them.
        expected = []
        for page in manifest["pages"]:
            if page["kind"] == "proceedings":
                conf_id = page["path"].removeprefix("proceedings/").removesuffix(".html")
                venue, year = parse_conf_id(conf_id)
                html = (fixtures_root / page["path"]).read_text(encoding="utf-8")
                _, _, report = parse_proceedings(html, make_conference(venue, year))
                expected += [f"{conf_id}: {w}" for w in report.warnings]
        assert "coling-2019: entry 3: no title, skipped" in expected
        with caplog.at_level(logging.WARNING, logger="anthology_harvest.scheduler"):
            handle, _ = crawl_fixture(fixtures_root)
        handle.close()
        logged = [r.getMessage() for r in caplog.records
                  if r.name == "anthology_harvest.scheduler"]
        assert sorted(logged) == sorted(expected)

    def test_worker_count_invariance(self, fixtures_root):
        results = {}
        for workers in (1, 8):
            handle, _ = crawl_fixture(fixtures_root, workers=workers)
            results[workers] = load_all_papers(handle).ids()
            handle.close()
        assert results[1] == results[8]

    def test_venue_scoped_crawl(self, fixtures_root, manifest):
        handle, report = crawl_fixture(fixtures_root, venues=("acl",),
                                       years=(2021, 2023))
        assert report.tasks_total == 3
        stored = load_all_papers(handle)
        assert {p.venue_key for p in stored} == {"acl"}
        assert {p.year for p in stored} == {2021, 2022, 2023}
        handle.close()

    def test_empty_plan_yields_zero_report(self, fixtures_root):
        handle, report = crawl_fixture(fixtures_root, years=(1960, 1961))
        assert (report.tasks_total, report.tasks_succeeded, report.tasks_failed) == (0, 0, 0)
        assert report.papers_stored == 0
        assert report.per_conference == {}
        handle.close()

    def test_conference_rows_carry_stored_logs(self, fixtures_root):
        handle, report = crawl_fixture(fixtures_root, venues=("tacl",))
        rows = load_all_conferences(handle)
        assert len(rows) == 5
        for rec in rows:
            assert rec.crawl_log.status is CrawlStatus.STORED
            assert rec.crawl_log.paper_count is not None
            assert rec.crawl_log.fetched_at is not None
        assert report.papers_stored == sum(r.crawl_log.paper_count for r in rows)
        handle.close()

    def test_page_without_base_resolves_against_its_url(self, fixtures_root, tmp_path):
        site = copy_without_base(fixtures_root, tmp_path / "site",
                                 "proceedings/acl-2021.html")
        handle, report = crawl_fixture(site, venues=("acl",), years=(2021, 2021))
        expected_handle, expected = crawl_fixture(fixtures_root, venues=("acl",),
                                                  years=(2021, 2021))
        assert report.tasks_failed == 0
        assert report.papers_stored == expected.papers_stored > 0
        assert list(load_all_papers(handle)) == list(load_all_papers(expected_handle))
        handle.close()
        expected_handle.close()

    def test_rerun_is_idempotent(self, fixtures_root):
        handle = init_schema(StoreConfig(location=":memory:"))
        config = fixture_config(fixtures_root)
        first = run_crawl(config, handle)
        ids_first = load_all_papers(handle).ids()
        second = run_crawl(config, handle)
        assert load_all_papers(handle).ids() == ids_first
        assert second.papers_stored == first.papers_stored
        handle.close()


class TestMockCrawl:
    def test_transient_failures_recover_and_permanent_ones_isolate(self, fixtures_root):
        with ScriptedCorpusServer(fixtures_root) as server:
            server.script("/proceedings/acl-2021.html", [503, 503, 200])
            server.script("/proceedings/emnlp-2022.html", [500])
            source = MockSource(endpoint=server.base_url)
            config = CrawlConfig(venues=(), year_range=(2019, 2023), workers=8,
                                 policy=FetchPolicy(max_attempts=3, base_backoff_ms=1,
                                                    timeout_ms=3000, min_interval_ms=1),
                                 source=source)
            handle = init_schema(StoreConfig(location=":memory:"))
            session = CrawlSession(config, handle)
            session.prepare()
            report = session.execute()

            assert report.tasks_total == 25
            assert report.tasks_failed == 1
            assert session.snapshot() == (24, 25, 1)
            failed = report.per_conference["emnlp-2022"]
            assert failed.status is CrawlStatus.FAILED
            assert failed.attempts == 3
            assert "Exhausted" in failed.last_error
            recovered = report.per_conference["acl-2021"]
            assert recovered.status is CrawlStatus.STORED
            assert recovered.attempts == 3

            counts = server.request_counts()
            assert counts["/proceedings/emnlp-2022.html"] == 3
            assert counts["/proceedings/acl-2021.html"] == 3
            assert all(v <= 3 for v in counts.values())

            stored = load_all_papers(handle)
            assert not any(p.venue_key == "emnlp" and p.year == 2022 for p in stored)
            handle.close()

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_report_counts_every_request(self, fixtures_root, workers):
        with ScriptedCorpusServer(fixtures_root) as server:
            server.script("/proceedings/acl-2021.html", [503, 503, 200])
            server.script("/proceedings/emnlp-2022.html", [500])
            config = CrawlConfig(venues=(), year_range=(2019, 2023), workers=workers,
                                 policy=FAST_POLICY,
                                 source=MockSource(endpoint=server.base_url))
            handle = init_schema(StoreConfig(location=":memory:"))
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)  # frequent thread switches expose a lost update
            try:
                report = run_crawl(config, handle)
            finally:
                sys.setswitchinterval(interval)
            handle.close()
            logged = len(server.request_log())
        # The index, 5 venue pages, 25 first pages and 4 retries.
        assert report.requests == logged == 35
        assert '"requests": 35' in report.to_json()

    def test_progress_snapshots_are_monotone(self, fixtures_root):
        with ScriptedCorpusServer(fixtures_root) as server:
            source = MockSource(endpoint=server.base_url)
            config = CrawlConfig(venues=(), year_range=(2019, 2023), workers=2,
                                 policy=FetchPolicy(max_attempts=2, base_backoff_ms=1,
                                                    timeout_ms=3000, min_interval_ms=5),
                                 source=source)
            handle = init_schema(StoreConfig(location=":memory:"))
            session = CrawlSession(config, handle)
            total = session.prepare()
            assert session.snapshot() == (0, total, 0)

            seen = []
            stop = threading.Event()

            def monitor():
                while not stop.is_set():
                    seen.append(session.snapshot())
                    time.sleep(0.002)

            t = threading.Thread(target=monitor)
            t.start()
            report = session.execute()
            stop.set()
            t.join()

            assert session.snapshot() == (total, total, 0)
            assert report.tasks_total == total
            for (d1, t1, f1), (d2, t2, f2) in zip(seen, seen[1:]):
                assert d2 >= d1 and f2 >= f1 and t1 == t2 == total
                assert d2 + f2 <= total
            handle.close()

    def test_cancel_drains_pending_as_failed(self, fixtures_root):
        with ScriptedCorpusServer(fixtures_root) as server:
            source = MockSource(endpoint=server.base_url)
            config = CrawlConfig(venues=(), year_range=(2019, 2023), workers=1,
                                 policy=FetchPolicy(max_attempts=1, base_backoff_ms=0,
                                                    timeout_ms=3000, min_interval_ms=40),
                                 source=source)
            handle = init_schema(StoreConfig(location=":memory:"))
            session = CrawlSession(config, handle)
            total = session.prepare()
            session.cancel()
            report = session.execute()
            assert report.tasks_total == total
            assert report.tasks_succeeded + report.tasks_failed == total
            cancelled = [log for log in report.per_conference.values()
                         if log.last_error == "cancelled"]
            assert cancelled, "expected at least one task drained as cancelled"
            handle.close()


def unclosed_sockets(action) -> list[str]:
    """The warnings for sockets left open once ``action`` ran and its
    garbage was collected."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        action()
        gc.collect()
    return [str(w.message) for w in caught
            if issubclass(w.category, ResourceWarning) and "socket" in str(w.message)]


class TestConnections:
    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_one_connection_per_worker(self, fixtures_root, workers):
        with ScriptedCorpusServer(fixtures_root) as server:
            config = CrawlConfig(venues=(), year_range=(2019, 2023), workers=workers,
                                 policy=FAST_POLICY,
                                 source=MockSource(endpoint=server.base_url))
            handle = init_schema(StoreConfig(location=":memory:"))
            report = run_crawl(config, handle)
            handle.close()
            connections = server.connection_count()
            counts = server.request_counts()
        assert report.tasks_succeeded == report.tasks_total == 25
        assert 1 <= connections <= workers
        # Every page of the corpus once: the index, 5 venues, 25 proceedings.
        assert counts == {"/" + page.relative_to(fixtures_root).as_posix(): 1
                          for page in fixtures_root.rglob("*.html")}

    def crawl_leaves_no_socket(self, fixtures_root, script=(), cancel=False):
        """Crawl the fixtures over the mock server, check that no socket is
        left open, and return the server's request counts."""
        with ScriptedCorpusServer(fixtures_root) as server:
            for path, statuses in script:
                server.script(path, statuses)
            handle = init_schema(StoreConfig(location=":memory:"))
            config = CrawlConfig(venues=(), year_range=(2019, 2023), workers=2,
                                 policy=FAST_POLICY,
                                 source=MockSource(endpoint=server.base_url))

            def crawl():
                try:
                    if not cancel:
                        run_crawl(config, handle)
                        return
                    session = CrawlSession(config, handle)
                    session.prepare()
                    session.cancel()
                    session.execute()
                except HarvestError:
                    pass

            assert unclosed_sockets(crawl) == []
            handle.close()
            return server.request_counts()

    def test_crawl_closes_its_connections(self, fixtures_root):
        assert len(self.crawl_leaves_no_socket(fixtures_root)) == 31

    def test_failed_discovery_closes_its_connections(self, fixtures_root):
        counts = self.crawl_leaves_no_socket(fixtures_root, [("/index.html", [500])])
        assert counts == {"/index.html": FAST_POLICY.max_attempts}

    def test_failed_venue_page_stops_the_crawl_in_discovery(self, fixtures_root):
        with ScriptedCorpusServer(fixtures_root) as server:
            server.script("/venues/emnlp.html", [500])
            handle = init_schema(StoreConfig(location=":memory:"))
            config = CrawlConfig(venues=(), year_range=(2019, 2023), workers=2,
                                 policy=FAST_POLICY,
                                 source=MockSource(endpoint=server.base_url))
            threads_left = []

            def prepare():
                with pytest.raises(HarvestError):
                    CrawlSession(config, handle).prepare()
                threads_left.extend(t.name for t in threading.enumerate()
                                    if t.name.startswith("crawl"))

            assert unclosed_sockets(prepare) == []
            handle.close()
            counts = server.request_counts()
        assert threads_left == []
        assert counts["/venues/emnlp.html"] == FAST_POLICY.max_attempts
        assert not any(path.startswith("/proceedings/") for path in counts)

    def test_cancelled_crawl_closes_its_connections(self, fixtures_root):
        counts = self.crawl_leaves_no_socket(fixtures_root, cancel=True)
        assert not any(path.startswith("/proceedings/") for path in counts)


def write_paginated_site(root: Path) -> None:
    """One venue, one conference, a proceedings page with one pagination hop."""
    venue_dir = root / "venues"
    proc_dir = root / "proceedings"
    venue_dir.mkdir()
    proc_dir.mkdir()
    head = '<html><head><base href="https://anthology.test/"></head><body>'
    (root / "index.html").write_text(
        head + '<section class="venue-index" data-category="acl-events">'
               '<a class="venue-link" href="/venues/xx.html">XX</a>'
               "</section></body></html>")
    (venue_dir / "xx.html").write_text(
        head + '<section class="venue-page"><h4 class="year-heading">2020</h4>'
               '<a class="proceedings-link" href="/proceedings/xx-2020.html">P</a>'
               "</section></body></html>")

    def entry(n):
        return (f'<div class="paper-entry"><a class="paper-title" '
                f'href="/2020.xx-1.{n}/">Paper {n}</a></div>')

    (proc_dir / "xx-2020.html").write_text(
        head + '<section class="proceedings-page"><div class="paper-list">'
               + entry(1) + entry(2) +
               '</div></section><nav class="pagination">'
               '<a href="/proceedings/xx-2020-p2.html">2</a></nav></body></html>')
    (proc_dir / "xx-2020-p2.html").write_text(
        head + '<section class="proceedings-page"><div class="paper-list">'
               + entry(3) + entry(2) +
               "</div></section></body></html>")


class TestPagination:
    def test_next_page_links_followed_within_task(self, tmp_path):
        # Each page is fetched once, also when the first page links to the
        # hop twice and the hop links back to it.
        for site, repeated in ((tmp_path / "once", False), (tmp_path / "repeated", True)):
            site.mkdir()
            write_paginated_site(site)
            if repeated:
                first, hop = (site / "proceedings" / name
                              for name in ("xx-2020.html", "xx-2020-p2.html"))
                first.write_text(first.read_text().replace(
                    "2</a></nav>", '2</a><a href="/proceedings/xx-2020-p2.html">next</a></nav>'))
                hop.write_text(hop.read_text().replace(
                    "</section></body>", '</section><nav class="pagination">'
                                         '<a href="/proceedings/xx-2020.html">1</a></nav></body>'))
            handle = init_schema(StoreConfig(location=":memory:"))
            config = CrawlConfig(venues=(), year_range=(2019, 2023), workers=2,
                                 policy=FAST_POLICY, source=FixtureSource(root=site))
            report = run_crawl(config, handle)
            assert report.tasks_total == 1
            assert report.papers_stored == 3
            assert load_all_papers(handle).ids() == (
                "2020.xx-1.1", "2020.xx-1.2", "2020.xx-1.3")
            handle.close()
            assert report.per_conference["xx-2020"].attempts == 2
            assert report.requests == 4  # the index, the venue page, the two pages

    def test_hop_parse_warnings_are_logged(self, tmp_path, caplog):
        write_paginated_site(tmp_path)
        hop = tmp_path / "proceedings" / "xx-2020-p2.html"
        hop.write_text(hop.read_text().replace(
            "</div></section>", '<div class="paper-entry"></div></div></section>'))
        handle = init_schema(StoreConfig(location=":memory:"))
        config = CrawlConfig(venues=(), year_range=(2019, 2023), workers=1,
                             policy=FAST_POLICY, source=FixtureSource(root=tmp_path))
        with caplog.at_level(logging.WARNING, logger="anthology_harvest.scheduler"):
            report = run_crawl(config, handle)
        handle.close()
        assert report.papers_stored == 3
        assert [r.getMessage() for r in caplog.records] == [
            "xx-2020: entry 3: no title, skipped",
            "xx-2020: duplicate id 2020.xx-1.2 on "
            "https://anthology.test/proceedings/xx-2020-p2.html, skipped"]

    def test_hop_that_fails_to_parse_counts_every_page(self, tmp_path):
        write_paginated_site(tmp_path)
        (tmp_path / "proceedings" / "xx-2020-p2.html").write_text("<html></html>")
        handle = init_schema(StoreConfig(location=":memory:"))
        config = CrawlConfig(venues=(), year_range=(2019, 2023), workers=1,
                             policy=FAST_POLICY, source=FixtureSource(root=tmp_path))
        report = run_crawl(config, handle)
        handle.close()
        log = report.per_conference["xx-2020"]
        assert log.status is CrawlStatus.FAILED
        assert log.last_error.startswith("StructureError")
        assert log.attempts == 2  # the first page and the hop

    @pytest.mark.parametrize("hop_statuses, status, attempts", [
        ([503, 200], CrawlStatus.STORED, 3),  # 1 first page + 2 on the hop
        ([503], CrawlStatus.FAILED, 4),       # 1 first page + 3 exhausted on the hop
    ])
    def test_attempts_count_every_hop(self, tmp_path, hop_statuses, status, attempts):
        write_paginated_site(tmp_path)
        with ScriptedCorpusServer(tmp_path) as server:
            server.script("/proceedings/xx-2020-p2.html", hop_statuses)
            config = CrawlConfig(venues=(), year_range=(2019, 2023), workers=1,
                                 policy=FAST_POLICY,
                                 source=MockSource(endpoint=server.base_url))
            handle = init_schema(StoreConfig(location=":memory:"))
            report = run_crawl(config, handle)
            handle.close()
            counts = server.request_counts()
        log = report.per_conference["xx-2020"]
        assert log.status is status
        assert log.attempts == attempts
        assert (counts["/proceedings/xx-2020.html"]
                + counts["/proceedings/xx-2020-p2.html"]) == attempts


class _FailingStatement:
    """Connection proxy on which the first statement ``fails(sql, params)``
    picks raises ``error``."""

    def __init__(self, conn, fails, error):
        self._conn, self._fails, self._error = conn, fails, error

    def execute(self, sql, params=()):
        if self._fails is not None and self._fails(sql, params):
            self._fails = None
            raise self._error
        return self._conn.execute(sql, params)

    def __getattr__(self, name):
        return getattr(self._conn, name)


def stored_outcome(handle):
    """conf_id -> paper_count of each stored conference row, after checking
    that each has all of its papers and that no paper is without one."""
    papers = {}
    for paper in load_all_papers(handle):
        key = f"{paper.venue_key}-{paper.year}"
        papers[key] = papers.get(key, 0) + 1
    stored = {c.conf_id: c.crawl_log.paper_count for c in load_all_conferences(handle)
              if c.crawl_log.status is CrawlStatus.STORED}
    assert {k: n for k, n in stored.items() if n} == papers
    return stored


class TestGroupCommit:
    """Workers write into one open transaction; the calling thread commits."""

    def test_failed_commit_fails_its_whole_group(self, fixtures_root, manifest):
        handle = init_schema(StoreConfig(location=":memory:"))
        conn = handle._conn
        handle._conn = _FailingStatement(conn, lambda sql, _: sql == "COMMIT",
                                         sqlite3.OperationalError("disk I/O error"))
        report = run_crawl(fixture_config(fixtures_root, workers=2), handle)
        assert not conn.in_transaction
        failed = {cid for cid, log in report.per_conference.items()
                  if log.status is CrawlStatus.FAILED}
        lost = {cid for cid in failed
                if report.per_conference[cid].last_error.startswith(
                    "StoreUnavailable: commit failed")}
        assert lost  # the first group; the crawl then drains the tasks not begun
        assert report.tasks_failed == len(failed)
        stored = stored_outcome(handle)
        assert set(stored) == set(report.per_conference) - failed
        assert report.tasks_succeeded == len(stored)
        handle.close()

    def test_failed_batch_fails_only_its_task(self, fixtures_root):
        handle = init_schema(StoreConfig(location=":memory:"))
        handle._conn = _FailingStatement(
            handle._conn, lambda _, params: params[:1] == ("2021.acl-long.500",),
            RuntimeError("injected"))
        report = run_crawl(fixture_config(fixtures_root, workers=2), handle)
        assert report.tasks_failed == 1
        assert report.per_conference["acl-2021"].last_error == "RuntimeError: injected"
        stored = stored_outcome(handle)
        assert set(stored) == set(report.per_conference) - {"acl-2021"}
        assert not handle._conn.in_transaction
        handle.close()

    def test_lost_store_cancels_the_tasks_left(self, fixtures_root):
        handle = init_schema(StoreConfig(location=":memory:"))
        handle._conn = _FailingStatement(
            handle._conn, lambda _, params: params[:1] == ("2021.acl-long.500",),
            sqlite3.OperationalError("disk I/O error"))
        report = run_crawl(fixture_config(fixtures_root, workers=1), handle)
        logs = report.per_conference
        assert logs["acl-2021"].last_error == "StoreUnavailable: write failed: disk I/O error"
        cancelled = {cid for cid, log in logs.items() if log.last_error == "cancelled"}
        assert cancelled == set(logs) - {"acl-2019", "acl-2020", "acl-2021"}
        assert report.tasks_total == 25 and report.tasks_failed == 23
        assert set(stored_outcome(handle)) == {"acl-2019", "acl-2020"}
        assert not handle._conn.in_transaction
        handle.close()

    def test_interrupted_crawl_commits_what_was_written(self, fixtures_root, monkeypatch):
        handle = init_schema(StoreConfig(location=":memory:"))
        real_finish = CrawlSession._finish

        def finish(session, *args):
            if sum(session.snapshot()[::2]) == 3:
                raise KeyboardInterrupt
            real_finish(session, *args)

        monkeypatch.setattr(CrawlSession, "_finish", finish)
        with pytest.raises(KeyboardInterrupt):
            run_crawl(fixture_config(fixtures_root, workers=2), handle)
        assert not handle._conn.in_transaction
        assert len(stored_outcome(handle)) >= 3
        assert not any(t.name.startswith("crawl") for t in threading.enumerate())
        handle.close()
