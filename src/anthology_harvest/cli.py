"""Command-line front end: harvest, query, filter, stats.

Exit codes: 0 success (including empty results), 1 any error (a bad flag or
setting, a failed store or file operation, a closed stdout), 2 a harvest that
finished with some tasks failed, 130 interrupted (Ctrl-C).  Commands raise;
``main`` alone turns a failure into an exit code and one stderr line at most.

Settings come from a TOML file, read by ``tomllib``: ``anthology.toml`` in
the working directory, or the file ``--config`` names.  It may hold only the
sections and keys of ``_KEY_TYPES``, each key checked for its type.  CLI
flags override file values, and the ``AAH_DB`` environment variable
overrides the store location.  A setting neither gives takes the library's
own default (``StoreConfig``, ``CrawlConfig``, ``FetchPolicy``).
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
import tomllib
from pathlib import Path

from . import query as query_mod
from . import store as store_mod
from .errors import HarvestError
from .model import YEAR_MAX, YEAR_MIN
from .paperlist import FilterRule, PaperList
from .store import INT_COLUMNS, StoreConfig

DEFAULT_CONFIG_PATH = Path("anthology.toml")
ENV_DB = "AAH_DB"

# The known keys of each section, with their TOML types.
_KEY_TYPES = {
    "store": {"database_name": str, "location": str},
    "crawl": {"venues": list, "year_start": int, "year_end": int, "workers": int,
              "max_attempts": int, "base_backoff_ms": int, "timeout_ms": int,
              "min_interval_ms": int, "source": str},
}
_TYPE_NAMES = {str: "a string", int: "an integer", list: "an array of strings"}
_FORMATS = ("json", "csv", "bibtex", "table")
_STAT_DIM_FLAGS = {"year": "year", "venue": "venue_key", "author": "author"}
# What int() reads, less the digit-group underscores.
_INTEGER = re.compile(r"\s*[+-]?\d+\s*")


class UsageError(Exception):
    pass


def _section(data: dict, name: str) -> dict:
    """The ``[name]`` table of ``data``, each key checked to be known and of
    its type."""
    table = data.get(name, {})
    if not isinstance(table, dict):
        raise ValueError(f"{name} must be a table")
    for key, value in table.items():
        if key not in _KEY_TYPES[name]:
            raise ValueError(f"unknown setting {name}.{key}")
        kind = _KEY_TYPES[name][key]
        # bool is an int subclass, but `workers = true` is not a count.
        valid = (isinstance(value, kind) and not isinstance(value, bool)
                 and (kind is not list or all(isinstance(item, str) for item in value)))
        if not valid:
            raise ValueError(f"{name}.{key} must be {_TYPE_NAMES[kind]}, got {value!r}")
    return dict(table)


def load_settings(path: Path | None = None, env: dict[str, str] | None = None
                  ) -> tuple[StoreConfig, dict]:
    """Read the settings file (a missing default file sets nothing) and apply
    the environment override for the store location; the ``[crawl]`` table
    comes back holding only the keys the file sets."""
    env = os.environ if env is None else env
    target = path or DEFAULT_CONFIG_PATH
    data: dict = {}
    if Path(target).is_file():
        try:
            data = tomllib.loads(Path(target).read_text(encoding="utf-8"))
        except (tomllib.TOMLDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"{target}: {exc}") from None
    elif path is not None:
        raise ValueError(f"config file {path} not found")
    for name, table in data.items():
        if name not in _KEY_TYPES:
            raise ValueError(f"unknown section [{name}]" if isinstance(table, dict)
                             else f"unknown setting {name}")

    store = _section(data, "store")
    if env.get(ENV_DB):
        store["location"] = env[ENV_DB]
    crawl = _section(data, "crawl")
    try:
        return StoreConfig(**store), crawl
    except ValueError as exc:
        raise ValueError(f"store.{exc}") from None


def _int(raw: str, what: str) -> int:
    if not _INTEGER.fullmatch(raw):
        raise UsageError(f"{what} wants an integer, got {raw!r}")
    return int(raw)


def _parse_years(spec: str) -> tuple[int, int]:
    parts = spec.split("..")
    if len(parts) != 2:
        raise UsageError(f"--years wants A..B, got {spec!r}")
    start, end = (_int(part, "--years") for part in parts)
    if start > end:
        raise UsageError(f"--years start {start} > end {end}")
    return start, end


def _coerce(column: str, raw: str):
    return _int(raw, f"column {column!r}") if column in INT_COLUMNS else raw


def _parse_where(spec: str) -> tuple[str, str, object]:
    """col:op[:value], with comma-separated lists for in/not_in/between; the
    builder checks operator, column and arity."""
    parts = spec.split(":", 2)
    if len(parts) < 2:
        raise UsageError(f"--where wants col:op[:value], got {spec!r}")
    column, op, *rest = parts
    if not rest:
        return column, op, None
    if op in ("in", "not_in", "between"):
        return column, op, [_coerce(column, v) for v in rest[0].split(",")]
    # A like pattern stays a string, on an integer column too.
    return column, op, rest[0] if op == "like" else _coerce(column, rest[0])


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


def cmd_harvest(args: argparse.Namespace, store: StoreConfig, crawl: dict) -> int:
    # The only command that crawls, so the only one that loads the crawler.
    from . import scheduler
    from .fetcher import FetchPolicy, parse_source_spec

    given = {"workers": args.workers, "source": args.source or None,
             "venues": [v for v in (args.venues or "").split(",") if v] or None}
    if args.years:
        given["year_start"], given["year_end"] = _parse_years(args.years)
    crawl = {**crawl, **{key: value for key, value in given.items() if value is not None}}
    try:
        policy = FetchPolicy(**{k: crawl.pop(k) for k in FetchPolicy.__slots__ if k in crawl})
        config = scheduler.CrawlConfig(
            venues=tuple(crawl.pop("venues", ())),
            year_range=(crawl.pop("year_start", YEAR_MIN), crawl.pop("year_end", YEAR_MAX)),
            source=parse_source_spec(crawl.pop("source", "live")),
            policy=policy, **crawl)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    with store_mod.init_schema(store) as handle:
        report = scheduler.run_crawl(config, handle)
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


def cmd_query(args: argparse.Namespace, store: StoreConfig, crawl: dict) -> int:
    # The whole chain is checked before the store is opened or created.
    builder = query_mod.table("paper")
    for spec in args.where or []:
        builder = builder.where(*_parse_where(spec))
    if args.order:
        column, sep, direction = args.order.partition(":")
        builder = builder.order(column, direction if sep else "asc")
    if args.limit is not None:
        builder = builder.limit(args.limit)
    ast = builder.build()
    with store_mod.init_schema(store) as handle:
        papers = query_mod.hydrate_papers(query_mod.execute(handle, ast))
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
    # --keyword-any occurrences form ONE any-of rule.
    if args.keyword_any:
        rules.append(FilterRule.keyword_any(args.keyword_any))
    for author in args.author or []:
        rules.append(FilterRule.author(author))
    if args.has_abstract:
        rules.append(FilterRule.has_abstract())
    return rules


def cmd_filter(args: argparse.Namespace, store: StoreConfig, crawl: dict) -> int:
    rules = _filter_rules(args)
    if not rules:
        raise UsageError("no filter rules given (--keyword-all/--keyword-any/"
                         "--author/--venues/--years/--has-abstract)")
    with store_mod.init_schema(store) as handle:
        selected = store_mod.filter_stored(handle, rules, combine=args.combine)
    sys.stdout.write(_serialize(selected, args.format))
    return 0


def cmd_stats(args: argparse.Namespace, store: StoreConfig, crawl: dict) -> int:
    if not args.by:
        raise UsageError("pass at least one --by dimension")
    for flag in args.by:
        if flag not in _STAT_DIM_FLAGS:
            raise UsageError(f"unknown dimension {flag!r}; pick from {sorted(_STAT_DIM_FLAGS)}")
    with store_mod.init_schema(store) as handle:
        counts = store_mod.stats_stored(handle, [_STAT_DIM_FLAGS[flag] for flag in args.by])
    if args.format == "json":
        print(json.dumps(counts, ensure_ascii=False))
    else:
        for path, count in _flatten(counts):
            print(f"{'/'.join(str(p) for p in path)}\t{count}")
    return 0


def _flatten(tree: dict, prefix: tuple = ()) -> list[tuple[tuple, int]]:
    out: list[tuple[tuple, int]] = []
    for key, value in tree.items():
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
    args = build_arg_parser().parse_args(argv)
    try:
        code = _COMMANDS[args.command](args, *load_settings(args.config))
        # A closed stdout fails here, not in the flush at interpreter exit.
        sys.stdout.flush()
        return code
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
    except HarvestError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
    except BrokenPipeError:
        # Nothing reads stdout any more: what is left in its buffer goes to
        # the null device, so the flush at exit does not fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except (ValueError, OSError) as exc:  # a bad setting, a stored row failing a check
        print(f"error: {exc}", file=sys.stderr)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    return 1


if __name__ == "__main__":
    sys.exit(main())
