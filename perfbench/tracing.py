"""Span tracing for the traced run, installed from the benchmark's own files.

``Tracer.install`` replaces the public functions that callers look up on
each module (``scheduler.fetch``, ``parser.parse_proceedings``,
``htmldoc.parse_html``, ``Store.execute_sql``, ...) with wrappers that
record a span (name, start, end, parent) per call, plus a few counts taken
from arguments or results.  Spans stay in memory; ``write`` dumps them at
the end.  A span's self time is its duration minus the time covered by its
child spans.  While ``phase`` is None (the benchmark's own checks) nothing
is recorded.  ``uninstall`` restores the originals.
"""
from __future__ import annotations

import itertools
import json
import sqlite3
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "phase", "info")

    def __init__(self, sid: int, name: str, parent: int | None, phase: str):
        self.sid, self.name, self.parent, self.phase = sid, name, parent, phase
        self.start = self.end = 0
        self.info = None

    @property
    def ms(self) -> float:
        return (self.end - self.start) / 1e6


def _len(value):
    return len(value) if isinstance(value, list) else 0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase: str | None = None
        self.calls: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap_span(self, name, fn, info=None):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.phase is None:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            span = Span(next(tracer._ids), name, stack[-1] if stack else None, tracer.phase)
            stack.append(span.sid)
            span.start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.end = time.perf_counter_ns()
                if info is not None:
                    span.info = info(args, None, exc)
                raise
            finally:
                stack.pop()
                tracer.spans.append(span)
            span.end = time.perf_counter_ns()
            if info is not None:
                span.info = info(args, result, None)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_count(self, name, fn):
        tracer = self

        def counted(*args, **kwargs):
            if tracer.phase is None:
                return fn(*args, **kwargs)
            with tracer._lock:
                tracer.calls[(name, tracer.phase)] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _patch(self, owner, attr, wrapper) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        from anthology_harvest import (cli, htmldoc, model, paperlist, parser, query,
                                       scheduler, store)

        def fetch_info(args, result, exc):
            if exc is not None:
                return {"attempts": getattr(exc, "attempts_used", 1), "bytes": 0}
            return {"attempts": result.attempts_used, "bytes": len(result.body)}

        def html_info(args, result, exc):
            return {"bytes": len(args[0].encode("utf-8"))}

        def proceedings_info(args, result, exc):
            if exc is not None:
                return {"entries": 0, "warnings": 0}
            report = result[2]
            return {"entries": report.records_extracted, "warnings": len(report.warnings)}

        def batch_info(args, result, exc):
            return {"rows": 1 + len(args[2])}

        def rows_info(args, result, exc):
            return {"rows": _len(result)}

        def execute_info(args, result, exc):
            return {"rows": _len(result), "ast": args[1], "db": args[0].path}

        def hits_info(args, result, exc):
            return {"rows": len(result) if result is not None else 0}

        spans = [
            (scheduler, "run_crawl", "scheduler.run_crawl", None),
            (scheduler.CrawlSession, "prepare", "scheduler.prepare", None),
            (scheduler.CrawlSession, "execute", "scheduler.execute", None),
            (scheduler.CrawlSession, "_run_task", "scheduler.task", None),
            (scheduler, "fetch", "fetcher.fetch", fetch_info),
            (parser, "parse_proceedings", "parser.parse_proceedings", proceedings_info),
            (htmldoc, "parse_html", "htmldoc.parse_html", html_info),
            (store, "upsert_crawl_batch", "store.upsert_crawl_batch", batch_info),
            (store, "upsert_conference", "store.upsert_conference", None),
            (store, "load_all_papers", "store.load_all_papers", None),
            (store.Store, "execute_sql", "store.execute_sql", rows_info),
            (query, "execute", "query.execute", execute_info),
            (query, "_render", "query.render", None),
            (query, "hydrate_papers", "query.hydrate_papers", None),
            (paperlist, "filter_papers", "paperlist.filter_papers", hits_info),
            (paperlist, "stats", "paperlist.stats", None),
            (paperlist.PaperList, "to_bibtex", "paperlist.to_bibtex", None),
            (cli, "main", "cli.main", None),
        ]
        self._render = query._render
        for owner, attr, name, info in spans:
            self._patch(owner, attr, self._wrap_span(name, getattr(owner, attr), info))
        for module in (model, parser, store, paperlist):
            self._patch(module, "normalize_author",
                        self._wrap_count("normalize_author", module.normalize_author))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------------

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for s in sorted(self.spans, key=lambda s: s.start):
                info = {k: v for k, v in (s.info or {}).items() if k not in ("ast", "db")}
                out.write(json.dumps([s.sid, s.name, s.start, s.end, s.parent, s.phase, info])
                          + "\n")

    def metrics(self, rounds: int, requests: int, workers: int,
                report_attempts: int, tasks_failed: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per round (harvest + reharvest + one retrieval mix).

        ``requests``, ``report_attempts`` and ``tasks_failed`` are totals
        over the traced rounds, taken from the mock server's log and the
        crawl reports.
        """
        by_name: dict[str, list[Span]] = defaultdict(list)
        child_ms: dict[int, float] = defaultdict(float)
        for s in self.spans:
            by_name[s.name].append(s)
            if s.parent is not None:
                child_ms[s.parent] += s.ms

        def total(name):
            return sum(s.ms for s in by_name[name])

        def self_ms(name):
            return sum(s.ms - child_ms[s.sid] for s in by_name[name])

        def info_sum(name, key):
            return sum((s.info or {}).get(key, 0) for s in by_name[name])

        calls = len(by_name["fetcher.fetch"])
        attempts = info_sum("fetcher.fetch", "attempts")
        entries = info_sum("parser.parse_proceedings", "entries")
        writes = by_name["store.upsert_crawl_batch"] + by_name["store.upsert_conference"]
        returned = info_sum("query.execute", "rows")
        sums = {
            "htmldoc.parse_ms": (total("htmldoc.parse_html"), "ms"),
            "htmldoc.bytes": (info_sum("htmldoc.parse_html", "bytes"), "bytes"),
            "parser.proceedings_self_ms": (self_ms("parser.parse_proceedings"), "ms"),
            "parser.entries": (entries, "count"),
            "parser.warnings": (info_sum("parser.parse_proceedings", "warnings"), "count"),
            "fetcher.calls": (calls, "count"),
            "fetcher.attempts": (attempts, "count"),
            "fetcher.retries": (attempts - calls, "count"),
            "fetcher.bytes": (info_sum("fetcher.fetch", "bytes"), "bytes"),
            "fetcher.busy_ms": (total("fetcher.fetch"), "ms"),
            "mockserver.requests": (requests, "count"),
            "scheduler.discovery_ms": (total("scheduler.prepare"), "ms"),
            "scheduler.execute_ms": (total("scheduler.execute"), "ms"),
            "scheduler.tasks": (len(by_name["scheduler.task"]), "count"),
            "scheduler.tasks_failed": (tasks_failed, "count"),
            "scheduler.pool_idle_ms": (workers * total("scheduler.execute")
                                       - total("scheduler.task"), "ms"),
            "scheduler.report_attempts": (report_attempts, "count"),
            "store.write_batches": (len(writes), "count"),
            "store.rows_written": (info_sum("store.upsert_crawl_batch", "rows")
                                   + len(by_name["store.upsert_conference"]), "count"),
            "store.write_ms": (sum(s.ms for s in writes), "ms"),
            "store.select_ms": (total("store.execute_sql"), "ms"),
            "store.rows_read": (info_sum("store.execute_sql", "rows"), "count"),
            "store.hydrate_ms": (self_ms("store.load_all_papers")
                                 + self_ms("query.hydrate_papers"), "ms"),
            "query.render_ms": (total("query.render"), "ms"),
            "query.execute_ms": (total("query.execute"), "ms"),
            "query.rows_returned": (returned, "count"),
            "paperlist.filter_ms": (total("paperlist.filter_papers"), "ms"),
            "paperlist.stats_ms": (total("paperlist.stats"), "ms"),
            "paperlist.export_ms": (total("paperlist.to_bibtex"), "ms"),
            "paperlist.hits": (info_sum("paperlist.filter_papers", "rows"), "count"),
            "cli.self_ms": (self_ms("cli.main"), "ms"),
        }
        for phase in ("harvest", "reharvest", "retrieval"):
            sums[f"model.normalize_author_calls.{phase}"] = (
                self.calls[("normalize_author", phase)], "count")
        out = {k: (v / rounds, unit) for k, (v, unit) in sums.items()}
        out["parser.us_per_entry"] = (
            1000 * total("parser.parse_proceedings") / max(entries, 1), "us")
        out["fetcher.ms_per_call"] = (total("fetcher.fetch") / max(calls, 1), "ms")
        out["query.rows_examined_per_hit"] = (self.rows_examined() / max(returned, 1), "count")
        return out

    def rows_examined(self) -> int:
        """Rows the executed queries examined, estimated from SQLite's plan.

        A plan that scans the table examines every row of it; one that only
        searches an index examines the rows it returns.
        """
        plans: dict[tuple[str, str], int | None] = {}
        examined = 0
        for s in self.spans:
            if s.name != "query.execute" or s.info is None:
                continue
            ast, db = s.info["ast"], s.info["db"]
            params: list = []
            sql = self._render(ast, params, executed=True)
            if (db, sql) not in plans:
                conn = sqlite3.connect(f"file:{db}?mode=ro", uri=True)
                try:
                    plan = conn.execute("EXPLAIN QUERY PLAN " + sql, params).fetchall()
                    size = conn.execute(f"SELECT COUNT(*) FROM {ast.source}").fetchone()[0]
                finally:
                    conn.close()
                scans = any(str(row[-1]).startswith("SCAN") for row in plan)
                plans[(db, sql)] = size if scans else None
            rows = plans[(db, sql)]
            examined += rows if rows is not None else s.info["rows"]
        return examined

