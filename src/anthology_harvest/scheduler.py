"""Crawl orchestration: planning, a bounded worker pool, synchronized
persistence, and progress monitoring.

A run discovers the venue index, parses the venue pages it needs, plans one
task per conference (proceedings page), and executes the tasks on a pool of
worker threads.  Each task is fetch -> parse -> persist; pagination links
discovered on a proceedings page are followed within the same task.  The
workers share only the task queue, the fetcher's rate gate, and the store's
serialized write path; everything else they touch is immutable.

All writes for one task go to the store as a single atomic batch, so the
persisted record set is independent of the worker count.  A permanently
failing task is recorded as failed and never blocks the others.
"""
from __future__ import annotations

import json
import logging
import queue
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone

from . import parser, store as store_mod
from .errors import EmptyPlan, FetchError, HarvestError, StoreUnavailable
from .fetcher import FetchPolicy, RateGate, Source, fetch
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
    """What to crawl and how hard to push."""

    venues: tuple[str, ...] = ()  # empty means every discovered venue
    year_range: tuple[int, int] = (1950, 2100)
    workers: int = 8
    policy: FetchPolicy = field(default_factory=FetchPolicy)
    source: Source = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        start, end = self.year_range
        if start > end:
            raise ValueError(f"year_range start {start} > end {end}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.source is None:
            raise ValueError("source is required")


@dataclass(frozen=True)
class CrawlReport:
    tasks_total: int
    tasks_succeeded: int
    tasks_failed: int
    papers_stored: int
    per_conference: dict[str, CrawlLog]
    wall_ms: int

    def to_json(self) -> str:
        return json.dumps({
            "tasks_total": self.tasks_total,
            "tasks_succeeded": self.tasks_succeeded,
            "tasks_failed": self.tasks_failed,
            "papers_stored": self.papers_stored,
            "wall_ms": self.wall_ms,
            "per_conference": {
                conf_id: {
                    "status": log.status.value,
                    "attempts": log.attempts,
                    "last_error": log.last_error,
                    "fetched_at": log.fetched_at,
                    "paper_count": log.paper_count,
                }
                for conf_id, log in sorted(self.per_conference.items())
            },
        }, indent=2, sort_keys=True)


def plan_tasks(config: CrawlConfig,
               index: list[tuple[Category, str, str]],
               venue_pages: dict[str, list[ConferenceRecord]]
               ) -> list[ConferenceRecord]:
    """Select the conferences to crawl.

    Keeps the conferences whose venue is requested (all, when the config
    names none) and whose year falls in the range, deduplicated by conf_id
    and ordered by (venue_key, year).

    Raises:
        EmptyPlan: the filter matched nothing (callers treat as a warning).
    """
    wanted = {canonical_venue(v) for v in config.venues} if config.venues else None
    start, end = config.year_range
    picked: dict[str, ConferenceRecord] = {}
    for venue_key, records in venue_pages.items():
        if wanted is not None and venue_key not in wanted:
            continue
        for rec in records:
            if start <= rec.year <= end and rec.conf_id not in picked:
                picked[rec.conf_id] = rec
    if not picked:
        raise EmptyPlan(
            f"no conferences match venues={list(config.venues) or 'all'} "
            f"years={start}..{end}")
    return sorted(picked.values(), key=lambda r: (r.venue_key, r.year))


def _utc_now_iso() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


class CrawlSession:
    """One crawl run; exposes progress snapshots while it executes."""

    def __init__(self, config: CrawlConfig, handle: store_mod.Store):
        self.config = config
        self.handle = handle
        self._gate = RateGate(config.policy.min_interval_ms)
        self._lock = threading.Lock()
        self._queue: queue.Queue[ConferenceRecord] = queue.Queue()
        self._cancel = threading.Event()
        self._prepared = False
        self._total = 0
        self._succeeded = 0
        self._failed = 0
        self._in_flight = 0
        self._papers_stored = 0
        self._per_conference: dict[str, CrawlLog] = {}

    # -- monitoring --------------------------------------------------------

    def snapshot(self) -> tuple[int, int, int]:
        """(done, total, failed); done counts successfully stored tasks."""
        with self._lock:
            return self._succeeded, self._total, self._failed

    def cancel(self) -> None:
        """Ask workers to drain: queued tasks finish as failed('cancelled')."""
        self._cancel.set()

    # -- discovery -----------------------------------------------------------

    def _discover(self) -> tuple[list, dict[str, list[ConferenceRecord]]]:
        source = self.config.source
        res = fetch(source.start_url, self.config.policy, source, gate=self._gate)
        index = parser.parse_index(res.body.decode("utf-8", errors="replace"))
        wanted = ({canonical_venue(v) for v in self.config.venues}
                  if self.config.venues else None)
        venue_pages: dict[str, list[ConferenceRecord]] = {}
        for category, name, url in index:
            venue_key = canonical_venue(name)
            if wanted is not None and venue_key not in wanted:
                continue
            page = fetch(url, self.config.policy, source, gate=self._gate)
            records = parser.parse_venue_page(
                page.body.decode("utf-8", errors="replace"), category, venue_key)
            venue_pages[venue_key] = records
        return index, venue_pages

    # -- task execution ------------------------------------------------------

    def _fetch_and_parse(self, conf: ConferenceRecord
                         ) -> tuple[list[PaperRecord], int]:
        """Fetch the proceedings page plus pagination hops; returns
        (papers, attempts spent on every page).  Each page's parse warnings
        are logged as they come, prefixed with the conf_id, and so is a
        paper whose id an earlier page already gave (the first one is kept).

        Raises:
            FetchError: a page failed; its ``attempts_used`` includes the
                attempts spent on the pages fetched before it.
        """
        source = self.config.source
        policy = self.config.policy
        attempts = 0
        merged: dict[str, PaperRecord] = {}
        visited: set[str] = set()
        frontier = [conf.url]
        while frontier:
            url = frontier.pop(0)
            if url in visited:
                continue
            visited.add(url)
            try:
                page = fetch(url, policy, source, gate=self._gate)
            except FetchError as exc:
                exc.attempts_used += attempts
                raise
            attempts += page.attempts_used
            content, papers, report = parser.parse_proceedings(
                page.body.decode("utf-8", errors="replace"), conf)
            for warning in report.warnings:
                logger.warning("%s: %s", conf.conf_id, warning)
            for p in papers:
                if p.anthology_id in merged:
                    logger.warning("%s: duplicate id %s on %s, skipped",
                                   conf.conf_id, p.anthology_id, url)
                else:
                    merged[p.anthology_id] = p
            frontier.extend(u for u in content.next_page_links if u not in visited)
        return list(merged.values()), attempts

    def _run_task(self, conf: ConferenceRecord) -> None:
        started = time.monotonic()
        attempts = 1
        try:
            papers, attempts = self._fetch_and_parse(conf)
            log = CrawlLog(status=CrawlStatus.STORED, attempts=attempts,
                           fetched_at=_utc_now_iso(), paper_count=len(papers))
            store_mod.upsert_crawl_batch(self.handle, replace(conf, crawl_log=log), papers)
        except Exception as exc:  # failure isolation: record, never propagate
            if isinstance(exc, FetchError):
                attempts = exc.attempts_used
            if isinstance(exc, StoreUnavailable):
                # The store is gone: drain what's left instead of hammering it.
                self._cancel.set()
            log = CrawlLog(status=CrawlStatus.FAILED, attempts=max(attempts, 1),
                           last_error=f"{type(exc).__name__}: {exc}")
            try:
                store_mod.upsert_conference(self.handle, replace(conf, crawl_log=log))
            except HarvestError:
                pass
            self._finish(conf, log, started)
            return
        self._finish(conf, log, started)

    def _finish(self, conf: ConferenceRecord, log: CrawlLog, started: float) -> None:
        elapsed_ms = int((time.monotonic() - started) * 1000)
        with self._lock:
            self._in_flight -= 1
            self._per_conference[conf.conf_id] = log
            if log.status is CrawlStatus.STORED:
                self._succeeded += 1
                self._papers_stored += log.paper_count or 0
            else:
                self._failed += 1
        print(f"{conf.conf_id} {log.status.value} {log.paper_count or 0} {elapsed_ms}",
              file=sys.stderr)

    def _worker(self) -> None:
        while True:
            try:
                conf = self._queue.get_nowait()
            except queue.Empty:
                return
            with self._lock:
                self._in_flight += 1
            if self._cancel.is_set():
                log = CrawlLog(status=CrawlStatus.FAILED, attempts=1,
                               last_error="cancelled")
                self._finish(conf, log, time.monotonic())
            else:
                self._run_task(conf)
            self._queue.task_done()

    def prepare(self) -> int:
        """Discover, plan, and queue the tasks; returns the task count.

        Raises:
            StoreUnavailable: the store cannot accept writes at all.
            EmptyPlan: nothing matched the venue/year filter.
        """
        self.handle.execute_scalar("SELECT COUNT(*) FROM conference")  # probe
        index, venue_pages = self._discover()
        plan = plan_tasks(self.config, index, venue_pages)
        with self._lock:
            self._total = len(plan)
        for conf in plan:
            self._queue.put(conf)
        self._prepared = True
        return len(plan)

    def execute(self) -> CrawlReport:
        """Run the prepared tasks to completion on the worker pool."""
        if not self._prepared:
            raise RuntimeError("call prepare() before execute()")
        t0 = time.monotonic()
        threads = [threading.Thread(target=self._worker, daemon=True)
                   for _ in range(min(self.config.workers, max(self._total, 1)))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        with self._lock:
            return CrawlReport(
                tasks_total=self._total,
                tasks_succeeded=self._succeeded,
                tasks_failed=self._failed,
                papers_stored=self._papers_stored,
                per_conference=dict(self._per_conference),
                wall_ms=int((time.monotonic() - t0) * 1000),
            )

    def run(self) -> CrawlReport:
        """Prepare and execute; an empty plan yields an all-zero report."""
        t0 = time.monotonic()
        try:
            self.prepare()
        except EmptyPlan:
            return CrawlReport(0, 0, 0, 0, {}, int((time.monotonic() - t0) * 1000))
        return self.execute()


def run_crawl(config: CrawlConfig, store_handle: store_mod.Store) -> CrawlReport:
    """Plan and execute a crawl; every planned task reaches a terminal state.

    Individual task failures are recorded in the report, not raised; an
    empty plan yields an all-zero report.

    Raises:
        StoreUnavailable: the store cannot accept writes at all.
        HarvestError: discovery itself failed (index or venue pages).
    """
    return CrawlSession(config, store_handle).run()


def progress_snapshot(run_handle: CrawlSession) -> tuple[int, int, int]:
    """(done, total, failed) for an active or finished run; monotone."""
    return run_handle.snapshot()
