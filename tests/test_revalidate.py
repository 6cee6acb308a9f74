"""Re-harvesting by page digest equals a full re-harvest.

A generated site (one venue, two years, each a chain of pagination hops)
is harvested, edited and harvested again.  After every re-run, the store
must hold the same rows, ``fetched_at`` aside, as a full re-run (no stored
digests) from the same starting store, and exactly the conferences whose
pages did not change since their last successful parse are reported
unchanged.
"""
import hashlib
import shutil
import sqlite3
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import count
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from anthology_harvest import (
    CrawlConfig,
    CrawlStatus,
    FetchPolicy,
    FixtureSource,
    MockSource,
    StoreConfig,
    init_schema,
    run_crawl,
)
from anthology_harvest import parser, scheduler
from anthology_harvest import store as store_mod
from anthology_harvest.mockserver import ScriptedCorpusServer
from conftest import make_conference

POLICY = FetchPolicy(max_attempts=2, base_backoff_ms=0, timeout_ms=3000, min_interval_ms=0)
YEARS = (2020, 2021)
WORDS = ("Alpha", "Beta", "Gamma", "Delta")
DESCS = (None, "Hybrid", "Archival")

# --- a small editable site --------------------------------------------------


@dataclass
class Page:
    name: str                        # file name under proceedings/, without .html
    entries: list[tuple[int, str]]   # (entry number, title word)
    broken: str | None = None        # None, "missing" (404) or "malformed"


@dataclass
class Site:
    pages: dict[int, list[Page]]     # year -> first page, then its hops in chain order
    desc: dict[int, str | None]
    names: count = field(default_factory=lambda: count(1))

    def render_page(self, year: int, index: int) -> str | None:
        page = self.pages[year][index]
        if page.broken == "missing":
            return None
        items = "".join(
            f'<div class="paper-entry"><a class="paper-title" href="/{year}.xx-1.{n}/">'
            f"{title} {n}</a></div>" for n, title in page.entries)
        body = ("" if page.broken == "malformed"
                else f'<section class="proceedings-page"><div class="paper-list">{items}'
                     "</div></section>")
        if index + 1 < len(self.pages[year]):
            nxt = self.pages[year][index + 1].name
            body += f'<nav class="pagination"><a href="/proceedings/{nxt}.html">next</a></nav>'
        return f"<html><body>{body}</body></html>"

    def files(self) -> dict[str, str]:
        """Path under the site root -> contents; a missing page has no file."""
        out = {"index.html": (
            '<html><body><section class="venue-index" data-category="acl-events">'
            '<a class="venue-link" href="/venues/xx.html">XX</a></section></body></html>')}
        links = "".join(
            f'<h4 class="year-heading">{year}</h4><ul><li>'
            f'<a class="proceedings-link" href="/proceedings/xx-{year}.html">P {year}</a>'
            + (f' <span class="event-desc">{self.desc[year]}</span>' if self.desc[year] else "")
            + "</li></ul>" for year in YEARS)
        out["venues/xx.html"] = (
            f'<html><body><section class="venue-page">{links}</section></body></html>')
        for year in YEARS:
            for index, page in enumerate(self.pages[year]):
                html = self.render_page(year, index)
                if html is not None:
                    out[f"proceedings/{page.name}.html"] = html
        return out

    def conference_pages(self, year: int) -> tuple:
        """Everything a crawl of the year's conference can see."""
        return tuple((page.name, self.render_page(year, i))
                     for i, page in enumerate(self.pages[year]))

    def write(self, root: Path) -> None:
        shutil.rmtree(root, ignore_errors=True)
        for path, html in self.files().items():
            target = root / path
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(html, encoding="utf-8")


entries = st.lists(st.tuples(st.integers(1, 6), st.sampled_from(WORDS)), max_size=4)


@st.composite
def sites(draw) -> Site:
    site = Site(pages={}, desc={year: draw(st.sampled_from(DESCS)) for year in YEARS})
    for year in YEARS:
        site.pages[year] = [Page(f"xx-{year}", draw(entries))]
        site.pages[year] += [Page(f"xx-{year}-p{next(site.names)}", draw(entries))
                             for _ in range(draw(st.integers(0, 2)))]
    return site


EDITS = ("retitle", "add", "remove", "add_hop", "drop_hop", "desc", "fail", "none")


def apply_edit(site: Site, data) -> None:
    """Draw one edit and apply it to ``site``."""
    kind = data.draw(st.sampled_from(EDITS), label="edit")
    year = data.draw(st.sampled_from(YEARS), label="year")
    pages = site.pages[year]
    page = pages[data.draw(st.integers(0, len(pages) - 1), label="page")]
    if kind == "retitle" and page.entries:
        i = data.draw(st.integers(0, len(page.entries) - 1))
        page.entries[i] = (page.entries[i][0], data.draw(st.sampled_from(WORDS)))
    elif kind == "add":
        page.entries.insert(data.draw(st.integers(0, len(page.entries))),
                            (data.draw(st.integers(1, 6)), data.draw(st.sampled_from(WORDS))))
    elif kind == "remove" and page.entries:
        del page.entries[data.draw(st.integers(0, len(page.entries) - 1))]
    elif kind == "add_hop":
        pages.insert(data.draw(st.integers(1, len(pages))),
                     Page(f"xx-{year}-p{next(site.names)}", data.draw(entries)))
    elif kind == "drop_hop" and len(pages) > 1:
        # Its link goes and its file goes: a fetch of it would answer 404.
        del pages[data.draw(st.integers(1, len(pages) - 1))]
    elif kind == "desc":
        site.desc[year] = data.draw(st.sampled_from(DESCS))
    elif kind == "fail":
        page.broken = None if page.broken else data.draw(
            st.sampled_from(("missing", "malformed")))


# --- crawling and comparing stores -----------------------------------------


@contextmanager
def counting_parses():
    """Count ``parse_proceedings`` calls made by the scheduler."""
    calls = []
    original = parser.parse_proceedings

    def counted(*args, **kwargs):
        calls.append(args[1].conf_id)
        return original(*args, **kwargs)

    parser.parse_proceedings = counted
    try:
        yield calls
    finally:
        parser.parse_proceedings = original


def crawl(source, db: Path, workers: int, statements: list | None = None):
    """One harvest into the store at ``db``; the store is left outside any
    transaction.  ``statements`` collects the SQL the run executes."""
    handle = init_schema(StoreConfig(location=str(db)))
    if statements is not None:
        handle._conn.set_trace_callback(statements.append)
    try:
        report = run_crawl(CrawlConfig(workers=workers, policy=POLICY, source=source), handle)
        assert not handle._conn.in_transaction
    finally:
        handle.close()
    return report


def rows(db: Path) -> dict[str, list[tuple]]:
    """Every row of both tables, keyed order, without ``fetched_at``."""
    conn = sqlite3.connect(db)
    try:
        out = {}
        for table, key in (("paper", "anthology_id"), ("conference", "conf_id")):
            cur = conn.execute(f"SELECT * FROM {table} ORDER BY {key}")
            names = [d[0] for d in cur.description]
            out[table] = [tuple(v for n, v in zip(names, row) if n != "fetched_at")
                          for row in cur]
        return out
    finally:
        conn.close()


def copy_store(src: Path, dest: Path) -> None:
    a, b = sqlite3.connect(src), sqlite3.connect(dest)
    try:
        a.backup(b)
    finally:
        a.close()
        b.close()


def clear_digests(db: Path) -> None:
    conn = sqlite3.connect(db)
    with conn:
        conn.execute("UPDATE conference SET page_digests = NULL")
    conn.close()


def paper_writes(statements: list[str]) -> int:
    return sum(s.startswith("INSERT OR REPLACE INTO paper") for s in statements)


# --- the differential test --------------------------------------------------


@pytest.mark.parametrize("workers", [1, 2, 8])
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(site=sites(), data=st.data())
def test_reharvest_equals_full_reharvest(workers, site, data):
    with tempfile.TemporaryDirectory() as tmp:
        root, db, ref = Path(tmp) / "site", Path(tmp) / "live.db", Path(tmp) / "ref.db"
        source = FixtureSource(root=root)
        site.write(root)
        report = crawl(source, db, workers)
        # year -> the pages its last successful parse saw
        parsed = {year: site.conference_pages(year) for year in YEARS
                  if report.per_conference[f"xx-{year}"].status is CrawlStatus.STORED}
        for _ in range(data.draw(st.integers(1, 4), label="steps")):
            apply_edit(site, data)
            site.write(root)
            copy_store(db, ref)
            clear_digests(ref)
            expected_unchanged = sum(parsed.get(year) == site.conference_pages(year)
                                     for year in YEARS)
            statements: list[str] = []
            with counting_parses() as parses:
                report = crawl(source, db, workers, statements)
            full = crawl(source, ref, 1)
            assert rows(db) == rows(ref)
            assert report.papers_stored == full.papers_stored
            assert report.tasks_unchanged == expected_unchanged
            assert full.tasks_unchanged == 0
            if expected_unchanged == len(YEARS):
                assert parses == [] and paper_writes(statements) == 0
            for year in YEARS:
                if report.per_conference[f"xx-{year}"].status is CrawlStatus.STORED:
                    parsed[year] = site.conference_pages(year)
                else:
                    parsed.pop(year, None)


# --- fixed cases -------------------------------------------------------------


def test_unchanged_rerun_parses_and_writes_no_paper(fixtures_root, tmp_path):
    db = tmp_path / "s.db"
    source = FixtureSource(root=fixtures_root)
    first = crawl(source, db, 4)
    before = rows(db)
    statements: list[str] = []
    with counting_parses() as parses:
        second = crawl(source, db, 4, statements)
    assert parses == []
    assert paper_writes(statements) == 0
    assert sum(s.startswith("INSERT OR REPLACE INTO conference") for s in statements) == 25
    assert second.tasks_unchanged == second.tasks_succeeded == second.tasks_total == 25
    assert second.papers_stored == first.papers_stored
    assert rows(db) == before
    assert '"tasks_unchanged": 25' in second.to_json()


def test_unchanged_rerun_sends_the_same_requests(fixtures_root, tmp_path):
    db = tmp_path / "s.db"
    with ScriptedCorpusServer(fixtures_root) as server:
        source = MockSource(endpoint=server.base_url)
        runs = []
        for _ in range(2):
            server.script("/proceedings/acl-2021.html", [503, 200])
            server.script("/proceedings/emnlp-2022.html", [404])
            report = crawl(source, db, 4)
            runs.append((server.request_counts(), report))
            server.reset_log()
    (counts1, first), (counts2, second) = runs
    assert counts1 == counts2
    assert {c: log.attempts for c, log in first.per_conference.items()} == \
        {c: log.attempts for c, log in second.per_conference.items()}
    assert second.per_conference["acl-2021"].attempts == 2
    assert second.tasks_failed == 1
    assert second.tasks_unchanged == second.tasks_succeeded == 24


V1_CONFERENCE_DDL = """CREATE TABLE conference (
  conf_id TEXT PRIMARY KEY, venue_key TEXT NOT NULL, year INTEGER NOT NULL,
  title TEXT NOT NULL, "desc" TEXT, url TEXT NOT NULL, category TEXT NOT NULL,
  kind TEXT NOT NULL, status TEXT NOT NULL, attempts INTEGER NOT NULL,
  last_error TEXT, fetched_at TEXT, paper_count INTEGER)"""


def test_v1_store_migrates_and_first_rerun_fills_digests(fixtures_root, tmp_path):
    source = FixtureSource(root=fixtures_root)
    current, old = tmp_path / "v2.db", tmp_path / "v1.db"
    crawl(source, current, 4)
    # The same store as version 1 wrote it: no digest columns.
    conn = sqlite3.connect(old)
    conn.execute(V1_CONFERENCE_DDL)
    conn.execute(store_mod.DDL_PAPER)
    conn.execute("ATTACH DATABASE ? AS cur", (str(current),))
    conn.execute("INSERT INTO paper SELECT * FROM cur.paper")
    conn.execute("INSERT INTO conference SELECT conf_id, venue_key, year, title, \"desc\", "
                 "url, category, kind, status, attempts, last_error, fetched_at, "
                 "paper_count FROM cur.conference")
    conn.execute("PRAGMA user_version = 1")
    conn.commit()
    conn.close()

    with init_schema(StoreConfig(location=str(old))) as h:
        assert h.execute_scalar("PRAGMA user_version") == 2
        assert h.execute_scalar(
            "SELECT COUNT(*) FROM conference WHERE page_digests IS NULL") == 25
    assert crawl(source, old, 4).tasks_unchanged == 0
    assert rows(old) == rows(current)
    assert crawl(source, old, 4).tasks_unchanged == 25


def test_init_schema_on_current_store_writes_nothing(fixtures_root, tmp_path):
    db = tmp_path / "s.db"
    crawl(FixtureSource(root=fixtures_root), db, 2)
    before = hashlib.sha256(db.read_bytes()).hexdigest()
    init_schema(StoreConfig(location=str(db))).close()
    assert hashlib.sha256(db.read_bytes()).hexdigest() == before


def test_digest_key_covers_url_body_and_first_page_conference():
    conf = make_conference("acl", 2021)
    base = scheduler.page_digest("https://a.test/p.html", b"<p>", conf)
    assert len(base) == store_mod.PAGE_DIGEST_SIZE
    assert scheduler.page_digest("https://a.test/p.html", b"<p>", conf) == base
    for other in (scheduler.page_digest("https://a.test/q.html", b"<p>", conf),
                  scheduler.page_digest("https://a.test/p.html", b"<p> ", conf),
                  scheduler.page_digest("https://a.test/p.html", b"<p>",
                                        make_conference("acl", 2022)),
                  scheduler.page_digest("https://a.test/p.html", b"<p>")):
        assert other != base


def test_extractor_key_covers_python_version_and_source(tmp_path):
    key = scheduler._extractor_key()
    edited = tmp_path / "parser.py"
    edited.write_bytes(Path(parser.__file__).read_bytes() + b"\n")
    for owner, attr, value in ((sys, "version", sys.version + "+"),
                               (parser, "__file__", str(edited))):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(owner, attr, value)
            scheduler._extractor_key.cache_clear()
            assert scheduler._extractor_key() != key
        scheduler._extractor_key.cache_clear()
    assert scheduler._extractor_key() == key
