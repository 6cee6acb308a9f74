"""Crawl orchestration: planning, a bounded worker pool, synchronized
persistence, and progress monitoring.

A run fetches the venue index, then the venue pages it needs on a pool of
worker threads, plans one task per conference (proceedings page), and
executes the tasks on the same pool.  Each task is fetch -> parse -> persist;
pagination links found on a proceedings page are followed within the task.
The workers share only the fetcher's rate gate and connection pool, the
request count, and the store's serialized write path; everything else they
touch is immutable.  The connection pool holds at most one connection per
worker and origin, and is closed once the workers have stopped.

A worker writes each task's outcome as one batch, all or nothing, into the
store's open transaction, then hands the calling thread a token on a queue
and goes on; that thread commits in groups, and a task counts as stored once
its group is committed.  A permanently failing task is recorded as failed
and never blocks the others.  After the workers finish, the store's log is
checkpointed into its file; a checkpoint that a reader blocks is logged, and
the crawl's writes stay in the log.

Each stored conference keeps a digest of every page it was parsed from.  A
re-run still fetches every page, but while each page's digest matches the
stored one it neither parses the pages nor rewrites the papers: the
conference is unchanged, and only its row is written.  A page digest is
keyed by the extractor's own source and the Python version, so a changed
parser re-parses everything once.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import logging
import queue
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path

from . import htmldoc, model, parser, store as store_mod
from .errors import EmptyInput, FetchError, StoreUnavailable
from .fetcher import ConnectionPool, FetchPolicy, RateGate, Source, fetch
from .model import (
    Category,
    ConferenceRecord,
    CrawlLog,
    CrawlStatus,
    PaperRecord,
    canonical_venue,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class CrawlConfig:
    """What to crawl and how hard to push.  Once built, ``venues`` holds
    canonical venue keys, each once, in the order given."""

    venues: tuple[str, ...] = ()  # empty means every discovered venue
    year_range: tuple[int, int] = (model.YEAR_MIN, model.YEAR_MAX)
    workers: int = 8
    policy: FetchPolicy = field(default_factory=FetchPolicy)
    source: Source = field(kw_only=True)

    def __post_init__(self) -> None:
        try:
            venues = tuple(dict.fromkeys(map(canonical_venue, self.venues)))
        except EmptyInput as exc:
            raise ValueError(str(exc)) from None
        object.__setattr__(self, "venues", venues)
        start, end = self.year_range
        if start > end:
            raise ValueError(f"year_range start {start} > end {end}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass(frozen=True)
class CrawlReport:
    tasks_total: int
    tasks_succeeded: int
    tasks_failed: int
    papers_stored: int
    per_conference: dict[str, CrawlLog]
    wall_ms: int
    tasks_unchanged: int = 0  # succeeded without a parse: every page digest matched
    requests: int = 0  # every request attempt of the crawl, discovery included

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def plan_tasks(config: CrawlConfig, venue_pages: dict[str, list[ConferenceRecord]]
               ) -> list[ConferenceRecord]:
    """Select the conferences to crawl.

    Keeps the conferences whose venue is requested (all, when the config
    names none) and whose year falls in the range, deduplicated by conf_id
    and ordered by (venue_key, year); empty when nothing matches.
    """
    start, end = config.year_range
    picked: dict[str, ConferenceRecord] = {}
    for venue_key, records in venue_pages.items():
        if config.venues and venue_key not in config.venues:
            continue
        for rec in records:
            if start <= rec.year <= end and rec.conf_id not in picked:
                picked[rec.conf_id] = rec
    return sorted(picked.values(), key=lambda r: (r.venue_key, r.year))


@functools.cache
def _extractor_key() -> bytes:
    """A digest of the Python version and the source of the modules that
    turn a page into records: any change to either invalidates every
    stored page digest."""
    key = hashlib.blake2b(sys.version.encode())
    for module in (parser, htmldoc, model):
        key.update(Path(module.__file__).read_bytes())
    return key.digest()


def _failed_log(exc: Exception, attempts: int) -> CrawlLog:
    return CrawlLog(status=CrawlStatus.FAILED, attempts=max(attempts, 1),
                    last_error=f"{type(exc).__name__}: {exc}")


def page_digest(url: str, body: bytes, conf: ConferenceRecord | None = None) -> bytes:
    """The stored digest of one fetched page: its URL and body under the
    extractor key, plus the venue and year for a conference's first page."""
    digest = hashlib.blake2b(digest_size=store_mod.PAGE_DIGEST_SIZE, key=_extractor_key())
    if conf is not None:
        digest.update(f"{conf.venue_key}/{conf.year}\n".encode())
    encoded = url.encode()
    digest.update(b"%d:%s" % (len(encoded), encoded))
    digest.update(body)
    return digest.digest()


@dataclass
class _Pages:
    """What the task of ``conf`` has fetched so far: attempts, and the digest
    of every page and the URL of every pagination hop, in crawl order."""

    conf: ConferenceRecord
    attempts: int = 0
    digests: bytearray = field(default_factory=bytearray)
    hop_urls: list[str] = field(default_factory=list)


class CrawlSession:
    """One crawl run; exposes progress snapshots while it executes."""

    def __init__(self, config: CrawlConfig, handle: store_mod.Store):
        self.config = config
        self.handle = handle
        self._gate = RateGate(config.policy.min_interval_ms)
        self._pool = ConnectionPool()
        self._executor = ThreadPoolExecutor(config.workers, thread_name_prefix="crawl")
        self._lock = threading.Lock()
        self._cancel = threading.Event()
        # (conf, log, started, unchanged) of each task written since the last commit.
        self._written: list[tuple[ConferenceRecord, CrawlLog, float, bool]] = []
        self._tokens: queue.SimpleQueue[None] = queue.SimpleQueue()  # one per written task
        self._plan: list[ConferenceRecord] | None = None
        self._requests = 0
        self._unchanged = 0  # the one count a CrawlLog does not record
        self._per_conference: dict[str, CrawlLog] = {}
        self._stored: dict[str, store_mod.StoredPages] = {}

    # -- monitoring --------------------------------------------------------

    def snapshot(self) -> tuple[int, int, int]:
        """(done, total, failed); done counts tasks whose group is committed."""
        with self._lock:
            failed = sum(log.status is CrawlStatus.FAILED
                         for log in self._per_conference.values())
            return len(self._per_conference) - failed, len(self._plan or ()), failed

    def cancel(self) -> None:
        """Ask workers to drain: tasks not yet started finish as failed('cancelled')."""
        self._cancel.set()

    # -- fetching and discovery ----------------------------------------------

    def _fetch(self, url: str, pages: _Pages | None = None) -> bytes:
        """Fetch one page of the crawl; its attempts, a failed page's too, count in the
        report's requests and in ``pages``, with its digest (and URL, if a hop)."""
        attempts = 0
        try:
            page = fetch(url, self.config.policy, self.config.source,
                         gate=self._gate, pool=self._pool)
            attempts = page.attempts_used
        except FetchError as exc:
            attempts = exc.attempts_used
            raise
        finally:
            if pages is not None:
                pages.attempts += attempts
            with self._lock:
                self._requests += attempts
        if pages is not None:
            if pages.digests:
                pages.hop_urls.append(url)
            pages.digests += page_digest(url, page.body, None if pages.digests else pages.conf)
        return page.body

    def _discover(self) -> dict[str, list[ConferenceRecord]]:
        """Fetch the index, then the wanted venue pages on the worker pool."""
        start_url = self.config.source.start_url
        index = parser.parse_index(self._fetch(start_url).decode("utf-8", errors="replace"),
                                   base_url=start_url)
        wanted_links = []
        for category, name, url in index:
            try:
                venue_key = canonical_venue(name)
            except EmptyInput as exc:
                logger.warning("skipping venue link %s: %s", url, exc)
                continue
            if not self.config.venues or venue_key in self.config.venues:
                wanted_links.append((category, venue_key, url))
        return dict(self._executor.map(self._venue_page, wanted_links))

    def _venue_page(self, link: tuple[Category, str, str]
                    ) -> tuple[str, list[ConferenceRecord]]:
        category, venue_key, url = link
        body = self._fetch(url).decode("utf-8", errors="replace")
        return venue_key, parser.parse_venue_page(body, category, venue_key, base_url=url)

    # -- task execution ------------------------------------------------------

    def _fetch_and_parse(self, conf: ConferenceRecord, pages: _Pages
                         ) -> list[PaperRecord] | None:
        """Fetch the proceedings page plus pagination hops into ``pages``;
        returns the papers, or None when every page matched its stored digest.

        While the digests match, the stored crawl order is followed, which
        is the order a full crawl of the same pages takes.  From the first
        page that differs (or with nothing stored), the pages are parsed in
        order and the pagination links followed; a page already fetched is
        not fetched again.  Each page's parse warnings are logged as they
        come, prefixed with the conf_id, and so is a paper whose id an
        earlier page already gave (the first one is kept).

        Raises:
            FetchError: a page failed.
        """
        stored = self._stored.get(conf.conf_id)
        fetched: dict[str, bytes] = {}
        if stored is not None:
            for url in (conf.url, *stored.hop_urls):
                fetched[url] = self._fetch(url, pages)
                if stored.page_digests[:len(pages.digests)] != pages.digests:
                    break
            else:
                return None
        merged: dict[str, PaperRecord] = {}
        visited: set[str] = set()
        frontier = [conf.url]
        while frontier:
            url = frontier.pop(0)
            if url in visited:
                continue
            visited.add(url)
            body = fetched.pop(url, None)
            if body is None:
                body = self._fetch(url, pages)
            next_links, papers, report = parser.parse_proceedings(
                body.decode("utf-8", errors="replace"), conf, base_url=url)
            for warning in report.warnings:
                logger.warning("%s: %s", conf.conf_id, warning)
            for p in papers:
                if p.anthology_id in merged:
                    logger.warning("%s: duplicate id %s on %s, skipped",
                                   conf.conf_id, p.anthology_id, url)
                else:
                    merged[p.anthology_id] = p
            frontier.extend(u for u in next_links if u not in visited)
        return list(merged.values())

    def _run_task(self, conf: ConferenceRecord) -> None:
        started, pages, papers = time.monotonic(), _Pages(conf), None
        cancelled = self._cancel.is_set()
        log = CrawlLog(status=CrawlStatus.FAILED, attempts=1, last_error="cancelled")
        try:
            if not cancelled:
                papers = self._fetch_and_parse(conf, pages)
                count = (self._stored[conf.conf_id].paper_count if papers is None
                         else len(papers))
                now = datetime.now(timezone.utc).isoformat(timespec="seconds")
                log = CrawlLog(status=CrawlStatus.STORED, attempts=pages.attempts,
                               fetched_at=now, paper_count=count)
        except Exception as exc:  # failure isolation: record, never propagate
            log = _failed_log(exc, pages.attempts)
        # One step under the store's write lock: a commit holds the rows of
        # exactly the tasks handed over before it.  A failed task's row keeps
        # no papers and no page digests.
        with self.handle.lock:
            stored = log.status is CrawlStatus.STORED
            try:
                if not cancelled:
                    store_mod.upsert_crawl_batch(
                        self.handle, replace(conf, crawl_log=log), papers or [],
                        bytes(pages.digests) if stored else None,
                        pages.hop_urls if stored else (), commit=False)
            except Exception as exc:  # its own savepoint is rolled back
                if isinstance(exc, StoreUnavailable):
                    self._cancel.set()  # the store is gone: drain what's left
                if stored:
                    log = _failed_log(exc, log.attempts)
            self._written.append((conf, log, started, papers is None))
        self._tokens.put(None)

    def _finish(self, conf: ConferenceRecord, log: CrawlLog, started: float,
                unchanged: bool) -> None:
        elapsed_ms = int((time.monotonic() - started) * 1000)
        unchanged = unchanged and log.status is CrawlStatus.STORED
        with self._lock:
            self._per_conference[conf.conf_id] = log
            self._unchanged += unchanged
        status = "unchanged" if unchanged else log.status.value
        print(f"{conf.conf_id} {status} {log.paper_count or 0} {elapsed_ms}", file=sys.stderr)

    def prepare(self) -> int:
        """Discover and plan the tasks; returns the task count.

        Raises (after stopping the workers and closing the session's
        connections):
            StoreUnavailable: the store cannot accept writes at all.
            HarvestError: discovery failed (index or venue pages).
        """
        try:
            self._stored = store_mod.load_stored_pages(self.handle)  # probes the store too
            plan = plan_tasks(self.config, self._discover())
        except BaseException:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._pool.close()
            raise
        self._plan = plan
        return len(plan)

    def execute(self) -> CrawlReport:
        """Run the prepared tasks on the worker pool while this thread commits
        their writes, stop the workers and close the session's connections,
        then checkpoint the store, so that its file alone holds the crawl."""
        if self._plan is None:
            raise RuntimeError("call prepare() before execute()")
        t0 = time.monotonic()
        try:
            for conf in self._plan:
                self._executor.submit(self._run_task, conf)
            total, workers = len(self._plan), self.config.workers
            seen = done = 0  # tokens taken; tasks committed
            # Once as many tasks as there are workers (or all that are left)
            # are written, commit them as one group, then finish them.  Never
            # wait on a Condition here: Ctrl-C inside its Python code can leave
            # the store's lock held, and the shutdown below then waits forever
            # for a worker blocked on it.  SimpleQueue.get is C and holds none.
            while done < total:
                self._tokens.get()
                seen += 1
                if seen - done < min(workers, total - done):
                    continue
                with self.handle.lock:
                    group, self._written = self._written, []
                    try:
                        self.handle.commit()
                        error = None
                    except StoreUnavailable as exc:
                        self._cancel.set()
                        error = exc
                for conf, log, started, unchanged in group:
                    if error is not None and log.status is CrawlStatus.STORED:
                        log = _failed_log(error, log.attempts)
                    self._finish(conf, log, started, unchanged)
                done += len(group)
        finally:
            self._executor.shutdown(cancel_futures=True)
            self._pool.close()
            # An interrupted run commits what its workers wrote.
            with contextlib.suppress(StoreUnavailable):
                self.handle.commit()
        try:
            self.handle.checkpoint()
        except StoreUnavailable as exc:
            logger.warning("%s; the crawl's writes stay in the store's log", exc)
        return self._report(t0)

    def _report(self, t0: float) -> CrawlReport:
        """The report, counted from the task logs once the workers have stopped."""
        succeeded, total, failed = self.snapshot()
        logs = dict(self._per_conference)
        return CrawlReport(total, succeeded, failed,
                           sum(log.paper_count or 0 for log in logs.values()), logs,
                           int((time.monotonic() - t0) * 1000), self._unchanged,
                           self._requests)


def run_crawl(config: CrawlConfig, store_handle: store_mod.Store) -> CrawlReport:
    """Plan and execute a crawl; every planned task reaches a terminal state.

    Individual task failures are recorded in the report, not raised; an
    empty plan yields a report of no tasks.

    Raises:
        StoreUnavailable: the store cannot accept writes at all.
        HarvestError: discovery itself failed (index or venue pages).
    """
    session = CrawlSession(config, store_handle)
    session.prepare()
    return session.execute()

