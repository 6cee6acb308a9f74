"""Command-line front end: harvest, query, filter, stats.

Exit codes: 0 success (including empty results), 1 configuration or usage
errors, 2 a harvest that finished with some tasks failed.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import query as query_mod
from . import store as store_mod
from .config import ConfigError, ToolConfig, load_config
from .errors import EmptyRuleSet, HarvestError
from .paperlist import FilterRule, PaperList
from .store import INT_COLUMNS, PAPER_COLUMNS

_FORMATS = ("json", "csv", "bibtex", "table")
_STAT_DIM_FLAGS = {"year": "year", "venue": "venue_key", "author": "author"}


class UsageError(Exception):
    pass


def _parse_years(spec: str) -> tuple[int, int]:
    parts = spec.split("..")
    if len(parts) != 2:
        raise UsageError(f"--years wants A..B, got {spec!r}")
    try:
        start, end = int(parts[0]), int(parts[1])
    except ValueError:
        raise UsageError(f"--years wants integers, got {spec!r}") from None
    if start > end:
        raise UsageError(f"--years start {start} > end {end}")
    return start, end


def _coerce(column: str, raw: str):
    if column in INT_COLUMNS:
        try:
            return int(raw)
        except ValueError:
            raise UsageError(f"column {column!r} wants an integer, got {raw!r}") from None
    return raw


def _parse_where(spec: str) -> tuple[str, str, object]:
    """col:op:value with comma-separated lists for in/not_in/between."""
    parts = spec.split(":", 2)
    if len(parts) == 2 and parts[1] in ("is_null", "is_not_null"):
        return parts[0], parts[1], None
    if len(parts) != 3:
        raise UsageError(f"--where wants col:op:value, got {spec!r}")
    column, op, raw = parts
    if op not in query_mod.OPS:
        raise UsageError(f"unknown operator {op!r}; pick from {list(query_mod.OPS)}")
    if column not in PAPER_COLUMNS:
        raise UsageError(f"unknown column {column!r}; pick from {list(PAPER_COLUMNS)}")
    if op in ("in", "not_in", "between"):
        values = [_coerce(column, v) for v in raw.split(",") if v != ""]
        if op == "between" and len(values) != 2:
            raise UsageError(f"between wants two values, got {raw!r}")
        return column, op, values
    if op in ("is_null", "is_not_null"):
        return column, op, None
    return column, op, _coerce(column, raw)


def _serialize(papers: PaperList, fmt: str) -> str:
    if fmt == "json":
        return papers.to_jsonl()
    if fmt == "csv":
        return papers.to_csv()
    if fmt == "bibtex":
        return papers.to_bibtex()
    return _table(papers)


def _table(papers: PaperList) -> str:
    headers = ["anthology_id", "year", "venue_key", "title"]
    rows = [[p.anthology_id, str(p.year), p.venue_key, p.title] for p in papers]
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    out = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
    for r in rows:
        out.append("  ".join(r[i].ljust(widths[i]) for i in range(len(headers))))
    return "\n".join(out) + "\n"


def _open_store(cfg: ToolConfig) -> store_mod.Store:
    return store_mod.init_schema(cfg.store)


def cmd_harvest(args: argparse.Namespace, cfg: ToolConfig) -> int:
    # The only command that crawls, so the only one that loads the crawler.
    from . import scheduler
    from .fetcher import FixtureSource, parse_source_spec

    crawl = cfg.crawl
    years = _parse_years(args.years) if args.years else (crawl.year_start, crawl.year_end)
    venues = tuple(v for v in (args.venues or "").split(",") if v) or crawl.venues
    source_spec = args.source or crawl.source
    if source_spec == "fixture" and cfg.fixture_root:
        source: object = FixtureSource(root=cfg.fixture_root)
    else:
        try:
            source = parse_source_spec(source_spec)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    try:
        config = scheduler.CrawlConfig(
            venues=venues,
            year_range=years,
            workers=crawl.workers if args.workers is None else args.workers,
            policy=crawl.policy(),
            source=source,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    handle = _open_store(cfg)
    try:
        report = scheduler.run_crawl(config, handle)
    finally:
        handle.close()
    if report.tasks_total == 0:
        print("0 tasks matched the venue/year filter; nothing to do")
        return 0
    print(f"tasks: {report.tasks_total}  stored: {report.tasks_succeeded}  "
          f"unchanged: {report.tasks_unchanged}  "
          f"failed: {report.tasks_failed}  papers: {report.papers_stored}  "
          f"wall_ms: {report.wall_ms}")
    if args.report_json:
        text = report.to_json()
        if args.report_json == "-":
            print(text)
        else:
            Path(args.report_json).write_text(text + "\n", encoding="utf-8")
    return 2 if report.tasks_failed else 0


def cmd_query(args: argparse.Namespace, cfg: ToolConfig) -> int:
    handle = _open_store(cfg)
    try:
        builder = query_mod.table("paper", handle)
        for spec in args.where or []:
            builder = builder.where(*_parse_where(spec))
        if args.order:
            parts = args.order.split(":")
            direction = parts[1] if len(parts) > 1 else "asc"
            builder = builder.order(parts[0], direction)
        if args.limit is not None:
            builder = builder.limit(args.limit)
        papers = query_mod.hydrate_papers(builder.query())
    except (HarvestError, ValueError) as exc:  # ValueError: a stored row fails a check
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        handle.close()
    sys.stdout.write(_serialize(papers, args.format))
    return 0


def _filter_rules(args: argparse.Namespace) -> list[FilterRule]:
    rules: list[FilterRule] = []
    if args.years:
        start, end = _parse_years(args.years)
        rules.append(FilterRule.year_between(start, end))
    if args.venues:
        venues = [v for v in args.venues.split(",") if v]
        if venues:
            rules.append(FilterRule.venue_in(venues))
    for keyword in args.keyword_all or []:
        rules.append(FilterRule.keyword_all([keyword]))
    for keyword in args.keyword_any_groups or []:
        rules.append(FilterRule.keyword_any(keyword))
    for author in args.author or []:
        rules.append(FilterRule.author(author))
    if args.has_abstract:
        rules.append(FilterRule.has_abstract())
    return rules


def cmd_filter(args: argparse.Namespace, cfg: ToolConfig) -> int:
    # --keyword-any occurrences form ONE any-of rule; repeated --keyword-all
    # flags each add a must-have keyword.
    args.keyword_any_groups = [args.keyword_any] if args.keyword_any else []
    rules = _filter_rules(args)
    handle = _open_store(cfg)
    try:
        selected = store_mod.filter_stored(handle, rules, combine=args.combine)
    except EmptyRuleSet:
        print("error: no filter rules given "
              "(--keyword-all/--keyword-any/--author/--venues/--years)",
              file=sys.stderr)
        return 1
    except ValueError as exc:  # a stored row fails a check
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        handle.close()
    sys.stdout.write(_serialize(selected, args.format))
    return 0


def cmd_stats(args: argparse.Namespace, cfg: ToolConfig) -> int:
    dims = []
    for flag in args.by or []:
        if flag not in _STAT_DIM_FLAGS:
            print(f"error: unknown dimension {flag!r}; pick from "
                  f"{sorted(_STAT_DIM_FLAGS)}", file=sys.stderr)
            return 1
        dims.append(_STAT_DIM_FLAGS[flag])
    if not dims:
        print("error: pass at least one --by dimension", file=sys.stderr)
        return 1
    handle = _open_store(cfg)
    try:
        counts = store_mod.stats_stored(handle, dims)
    finally:
        handle.close()
    if args.format == "json":
        print(json.dumps(counts, sort_keys=True, ensure_ascii=False))
    else:
        for path, count in _flatten(counts):
            print(f"{'/'.join(str(p) for p in path)}\t{count}")
    return 0


def _flatten(tree: dict, prefix: tuple = ()) -> list[tuple[tuple, int]]:
    out: list[tuple[tuple, int]] = []
    for key in sorted(tree, key=str):
        value = tree[key]
        if isinstance(value, dict):
            out.extend(_flatten(value, prefix + (key,)))
        else:
            out.append((prefix + (key,), value))
    return out


def build_arg_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(
        prog="anthology-harvest",
        description="Harvest an anthology-style publication site into a local "
                    "store and slice the result.")
    root.add_argument("--config", type=Path, default=None,
                      help="settings file (TOML)")
    sub = root.add_subparsers(dest="command", required=True)

    harvest = sub.add_parser("harvest", help="crawl venues into the local store")
    harvest.add_argument("--venues", help="comma-separated venue keys (default: all)")
    harvest.add_argument("--years", help="inclusive range, e.g. 2021..2023")
    harvest.add_argument("--workers", type=int, default=None)
    harvest.add_argument("--source", help="live | fixture:<dir> | mock:<url>")
    harvest.add_argument("--report-json", dest="report_json", metavar="PATH",
                         help="write the machine-readable crawl report ('-' for stdout)")

    query = sub.add_parser("query", help="run a builder query over stored papers")
    query.add_argument("--where", action="append", metavar="COL:OP:VALUE",
                       help="repeatable; lists are comma-separated")
    query.add_argument("--order", metavar="COL:DIR")
    query.add_argument("--limit", type=int, default=None)
    query.add_argument("--format", choices=_FORMATS, default="table")

    filt = sub.add_parser("filter", help="rule-based filtering over stored papers")
    filt.add_argument("--keyword-all", action="append", dest="keyword_all",
                      metavar="KW", help="repeatable; every keyword must match")
    filt.add_argument("--keyword-any", action="append", dest="keyword_any",
                      metavar="KW", help="repeatable; at least one must match")
    filt.add_argument("--author", action="append", metavar="NAME")
    filt.add_argument("--venues", metavar="V1,V2")
    filt.add_argument("--years", metavar="A..B")
    filt.add_argument("--has-abstract", action="store_true", dest="has_abstract")
    filt.add_argument("--combine", choices=("all", "any"), default="all")
    filt.add_argument("--format", choices=_FORMATS, default="table")

    stats = sub.add_parser("stats", help="grouped counts over stored papers")
    stats.add_argument("--by", action="append", metavar="DIM",
                       help="year | venue | author (repeatable)")
    stats.add_argument("--format", choices=("json", "table"), default="json")
    return root


_COMMANDS = {
    "harvest": cmd_harvest,
    "query": cmd_query,
    "filter": cmd_filter,
    "stats": cmd_stats,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args, cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except HarvestError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
