"""SQLite-backed persistence for the two-table conference/paper schema.

All mutations go through one serialized write path (``Store.lock``
around a single connection), which is the synchronization contract the
crawler relies on.  A crawl commits in groups: a worker writes each task's
batch into the one open transaction, in a savepoint, under ``Store.lock``,
and hands the crawl's calling thread a token; once that thread holds a
group's tokens, it takes the lock and commits them, one sync per group.

A file store runs in SQLite's write-ahead-log mode: a commit appends to
``<name>.db-wal`` and syncs it once (``synchronous`` stays ``FULL``), and
readers on other connections, in this process or another, see consistent
snapshots without blocking the writer or being blocked by it.
``Store.checkpoint`` copies the log into the ``.db`` file and empties it;
a crawl ends with one, so between runs the ``.db`` file alone holds the
store.

Authors are stored as two JSON arrays of equal length: ``authors`` holds
the display names and ``authors_normalized`` the matching forms, in the same
order -- two tables only, no join table.  Rows are hydrated from both arrays
without re-normalizing.  Timestamps are UTC ISO-8601 strings.

Each conference row also keeps what its papers were parsed from:
``page_digests``, the 16-byte digests of its pages concatenated in crawl
order, and ``hop_urls``, a JSON array of its pagination-hop URLs (NULL when
it has none).  A failed crawl leaves ``page_digests`` NULL.

The DDL below is the schema; every other column fact is read from it.  The
schema version lives in ``PRAGMA user_version``.  Version 0 stored the
normalized names joined by ``" | "``; version 1 had no page digests.
``init_schema`` migrates an older store in one transaction, adding each
declared column an older table lacks, and writes nothing to an up-to-date one.

``filter_stored`` evaluates filter rules in SQLite and ``stats_stored`` groups
there, but counts the author dimension in one scan in Python, where a paper
whose names are not a JSON array of strings fails as ``stored paper …``.  Both
equal ``paperlist.filter_papers`` and ``paperlist.stats`` on the hydrated table.
"""
from __future__ import annotations

import functools
import json
import re
import sqlite3
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import DuplicateInBatch, StoreUnavailable
from .model import (
    AuthorName,
    Category,
    ConferenceRecord,
    CrawlLog,
    CrawlStatus,
    Kind,
    PaperRecord,
    normalize_author,
)
from .paperlist import FilterRule, PaperList, check_dims, check_rules

SCHEMA_VERSION = 2
PAGE_DIGEST_SIZE = 16  # bytes of one page's digest in conference.page_digests

DDL_CONFERENCE = """\
CREATE TABLE IF NOT EXISTS conference (
  conf_id TEXT PRIMARY KEY,
  venue_key TEXT NOT NULL,
  year INTEGER NOT NULL,
  title TEXT NOT NULL,
  "desc" TEXT,
  url TEXT NOT NULL,
  category TEXT NOT NULL,
  kind TEXT NOT NULL,
  status TEXT NOT NULL,
  attempts INTEGER NOT NULL,
  last_error TEXT,
  fetched_at TEXT,
  paper_count INTEGER,
  page_digests BLOB,
  hop_urls TEXT
)"""

DDL_PAPER = """\
CREATE TABLE IF NOT EXISTS paper (
  anthology_id TEXT PRIMARY KEY,
  title TEXT NOT NULL,
  authors TEXT NOT NULL,
  authors_normalized TEXT NOT NULL,
  venue_key TEXT NOT NULL,
  year INTEGER NOT NULL,
  page_url TEXT NOT NULL,
  pdf_url TEXT,
  abstract TEXT,
  bibkey TEXT
)"""

# A column line of the DDL: its name, quoted where SQL needs it, and declaration.
_COLUMN_LINE = re.compile(r'^  ("?)(\w+)\1 ([^,\n]+),?$', re.M)
# table -> {column: declaration}, in DDL order
_DECLARED = {re.match(r"CREATE TABLE IF NOT EXISTS (\w+)", ddl)[1]:
             {m[2]: m[3] for m in _COLUMN_LINE.finditer(ddl)}
             for ddl in (DDL_CONFERENCE, DDL_PAPER)}
_QUOTED = frozenset(m[2] for m in _COLUMN_LINE.finditer(DDL_CONFERENCE + DDL_PAPER) if m[1])
# What a conference was parsed from: the crawl's own record, not queryable.
_PAGE_COLUMNS = {"page_digests", "hop_urls"}

TABLE_COLUMNS = {table: tuple(c for c in declared if c not in _PAGE_COLUMNS)
                 for table, declared in _DECLARED.items()}
PAPER_COLUMNS = TABLE_COLUMNS["paper"]
CONFERENCE_COLUMNS = TABLE_COLUMNS["conference"]
INT_COLUMNS = {column for declared in _DECLARED.values()
               for column, decl in declared.items() if decl.startswith("INTEGER")}
PRIMARY_KEYS = {table: column for table, declared in _DECLARED.items()
                for column, decl in declared.items() if "PRIMARY KEY" in decl}


def quote_name(column: str) -> str:
    """``column`` as SQL names it: in double quotes where the DDL writes it so."""
    return f'"{column}"' if column in _QUOTED else column


# table -> its INSERT OR REPLACE of every declared column, in DDL order
_UPSERT = {table: f"INSERT OR REPLACE INTO {table} ({', '.join(map(quote_name, declared))}) "
                  f"VALUES ({', '.join('?' * len(declared))})"
           for table, declared in _DECLARED.items()}
_decode_json = json.JSONDecoder().decode


@dataclass(frozen=True)
class StoreConfig:
    """Where the relational store lives.

    ``location`` may be ``:memory:``, a database file path, or a directory
    (the file is then ``<location>/<database_name>.db``).
    """

    database_name: str = "aclanthology"
    location: str = "."

    def __post_init__(self) -> None:
        if not self.database_name:
            raise ValueError("database_name must be non-empty")

    def database_path(self) -> str:
        if self.location == ":memory:":
            return ":memory:"
        loc = Path(self.location)
        if loc.suffix in (".db", ".sqlite", ".sqlite3"):
            return str(loc)
        return str(loc / f"{self.database_name}.db")


@functools.lru_cache(maxsize=256)
def _like_regex(pattern: str) -> re.Pattern:
    regex = []
    for ch in pattern.casefold():
        if ch == "%":
            regex.append(".*")
        elif ch == "_":
            regex.append(".")
        else:
            regex.append(re.escape(ch))
    return re.compile("".join(regex), re.DOTALL)


def _like_casefold(pattern, value) -> bool:
    """LIKE with %/_ wildcards, case-insensitive via Unicode casefold.

    Registered as SQLite's LIKE implementation so the rendered SQL stays
    standard while matching semantics stay identical to the in-memory
    reference used by the tests.
    """
    if pattern is None or value is None:
        return False
    return _like_regex(str(pattern)).fullmatch(str(value).casefold()) is not None


def _casefold(value):
    return None if value is None else value.casefold()


def _strip(value):
    return None if value is None else value.strip()


@functools.lru_cache(maxsize=64)
def _result_columns(description: tuple) -> tuple[tuple[str, ...], tuple[int, ...] | None]:
    """A result's column names and, when two are equal up to ASCII case, the
    position each name reads: the first column equal to it, as in ``sqlite3.Row``."""
    names = tuple(column[0] for column in description)
    if len({name.lower() for name in names}) == len(names):
        return names, None
    folded = [name.lower() if name.isascii() else name for name in names]
    return names, tuple(folded.index(name) for name in folded)


class Store:
    """Handle over one open database; create via init_schema()."""

    def __init__(self, conn: sqlite3.Connection, path: str):
        self._conn = conn
        self.lock = threading.RLock()
        self.path = path
        self._closed = False
        self._lost = False  # SQLite rolled back writes left for commit()

    def close(self) -> None:
        with self.lock:
            if not self._closed:
                self._conn.close()
                self._closed = True

    def __enter__(self) -> "Store":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def checkpoint(self) -> None:
        """Copy every page of the write-ahead log into the database file and
        empty the log; on ``:memory:`` this does nothing.

        Raises:
            StoreUnavailable: the checkpoint failed, or a reader holding an
                older snapshot kept it from finishing.  The log's pages are
                durable either way.
        """
        with self.lock:
            self._check_open()
            try:
                busy = self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)").fetchone()[0]
            except sqlite3.Error as exc:
                raise StoreUnavailable(f"checkpoint failed: {exc}") from exc
        if busy:
            raise StoreUnavailable(f"checkpoint of {self.path} blocked by a reader")

    def _check_open(self) -> None:
        if self._closed:
            raise StoreUnavailable(f"store at {self.path} is closed")

    def execute_sql(self, sql: str, params: Sequence = ()) -> list[dict]:
        """Run one read query; rows come back as column->value dicts.  A name
        reads the first column equal to it up to ASCII case, as in ``sqlite3.Row``."""
        with self.lock:
            self._check_open()
            try:
                cur = self._conn.execute(sql, tuple(params))
                rows = cur.fetchall()
            except sqlite3.Error as exc:
                raise StoreUnavailable(f"query failed: {exc}") from exc
        names, reads = _result_columns(cur.description or ())  # None: no result columns
        if reads is not None:
            rows = [[row[i] for i in reads] for row in rows]
        return [dict(zip(names, row)) for row in rows]

    def execute_scalar(self, sql: str, params: Sequence = ()):
        """The first value of ``execute_sql``'s first row; None without a row."""
        rows = self.execute_sql(sql, params)
        return next(iter(rows[0].values())) if rows else None

    # -- write path (serialized) --------------------------------------------

    def _write_batch(self, statements: Iterable[tuple[str, Sequence]],
                     commit: bool = True) -> None:
        """Apply statements all or nothing, in a savepoint; committed unless
        ``commit`` is false or they joined an open transaction (a crawl's),
        which is then left for ``commit()``."""
        with self.lock:
            self._check_open()
            began = not self._conn.in_transaction
            try:
                if began:
                    self._conn.execute("BEGIN IMMEDIATE")
                self._conn.execute("SAVEPOINT batch")
                for sql, params in statements:
                    self._conn.execute(sql, tuple(params))
                self._conn.execute("RELEASE batch")
                if began and commit:
                    self._conn.execute("COMMIT")
            except BaseException as exc:
                if not self._conn.in_transaction:  # SQLite rolled it all back
                    self._lost |= not began
                elif began:
                    self._conn.execute("ROLLBACK")
                else:
                    self._conn.execute("ROLLBACK TO batch")
                    self._conn.execute("RELEASE batch")
                if isinstance(exc, sqlite3.Error):
                    raise StoreUnavailable(f"write failed: {exc}") from exc
                raise

    def commit(self) -> None:
        """Commit the open transaction, if any.  If that fails, or SQLite
        rolled back a write since the last commit, nothing written since is
        stored, and StoreUnavailable is raised."""
        with self.lock:
            self._check_open()
            try:
                if self._lost:
                    raise StoreUnavailable("a failed write rolled the transaction back")
                if self._conn.in_transaction:
                    self._conn.execute("COMMIT")
            except (sqlite3.Error, StoreUnavailable) as exc:
                self._lost = False
                if self._conn.in_transaction:
                    self._conn.execute("ROLLBACK")
                raise StoreUnavailable(f"commit failed: {exc}") from exc


def init_schema(cfg: StoreConfig) -> Store:
    """Open (creating if needed) the database at the current schema version.

    Idempotent: a second call on the same location is a no-op that
    preserves data.  An older store is migrated in one transaction, and a
    store in rollback-journal mode is switched to write-ahead-log mode.

    Raises:
        StoreUnavailable: if the location cannot be opened or cannot hold
            the write-ahead log, or holds a schema newer than this version
            of the package.
    """
    path = cfg.database_path()
    try:
        conn = sqlite3.connect(path, check_same_thread=False)
    except sqlite3.Error as exc:
        raise StoreUnavailable(f"cannot open database at {path}: {exc}") from exc
    conn.isolation_level = None  # explicit transaction control
    conn.create_function("like", 2, _like_casefold, deterministic=True)
    conn.create_function("casefold", 1, _casefold, deterministic=True)
    conn.create_function("py_strip", 1, _strip, deterministic=True)
    try:
        _upgrade(conn)
        conn.execute("PRAGMA journal_mode=WAL")  # ":memory:" stays "memory"
    except BaseException as exc:
        conn.close()
        if isinstance(exc, sqlite3.Error):
            raise StoreUnavailable(f"cannot set up the store at {path}: {exc}") from exc
        raise
    return Store(conn, path)


def _user_version(conn: sqlite3.Connection) -> int:
    return conn.execute("PRAGMA user_version").fetchone()[0]


def _upgrade(conn: sqlite3.Connection) -> None:
    """Bring the schema to SCHEMA_VERSION; an up-to-date store is not written."""
    if _user_version(conn) == SCHEMA_VERSION:
        return
    conn.execute("BEGIN IMMEDIATE")
    try:
        version = _user_version(conn)  # another connection may have migrated
        if version > SCHEMA_VERSION:
            raise StoreUnavailable(
                f"store schema version {version} is newer than {SCHEMA_VERSION}")
        if version < SCHEMA_VERSION:
            conn.execute(DDL_CONFERENCE)
            conn.execute(DDL_PAPER)
            if version < 1:
                # Version 0 joined normalized names with " | "; re-derive them
                # from the display names rather than split that ambiguous string.
                rows = conn.execute("SELECT anthology_id, authors FROM paper").fetchall()
                conn.executemany(
                    "UPDATE paper SET authors_normalized = ? WHERE anthology_id = ?",
                    [(_json_list(normalize_author(a).normalized
                                 for a in json.loads(authors)), aid)
                     for aid, authors in rows])
            for table, declared in _DECLARED.items():
                have = {row[1] for row in conn.execute(f"PRAGMA table_info({table})")}
                for column, decl in declared.items():
                    if column not in have:  # an older table's; a new one has them all
                        conn.execute(f"ALTER TABLE {table} ADD COLUMN {quote_name(column)} {decl}")
            conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")
        conn.execute("COMMIT")
    except BaseException:
        if conn.in_transaction:
            conn.execute("ROLLBACK")
        raise


def _json_list(values: Iterable[str]) -> str:
    return json.dumps(list(values), ensure_ascii=False)


def _conference_row(rec: ConferenceRecord, page_digests: bytes | None = None,
                    hop_urls: Sequence[str] = ()) -> tuple:
    log = rec.crawl_log
    return (
        rec.conf_id, rec.venue_key, rec.year, rec.title, rec.desc, rec.url,
        rec.category.value, rec.kind.value, log.status.value, log.attempts,
        log.last_error, log.fetched_at, log.paper_count, page_digests,
        json.dumps(list(hop_urls), ensure_ascii=False, separators=(",", ":"))
        if hop_urls else None,
    )


def _paper_row(rec: PaperRecord) -> tuple:
    return (
        rec.anthology_id,
        rec.title,
        _json_list(a.full for a in rec.authors),
        _json_list(a.normalized for a in rec.authors),
        rec.venue_key,
        rec.year,
        rec.page_url,
        rec.pdf_url,
        rec.abstract,
        rec.bibkey,
    )


def upsert_conference(h: Store, rec: ConferenceRecord, commit: bool = True) -> None:
    """Insert or replace the row keyed by conf_id, with no page digests;
    ``commit`` as for ``Store._write_batch``."""
    h._write_batch([(_UPSERT["conference"], _conference_row(rec))], commit)


def _paper_upserts(papers: Sequence[PaperRecord]) -> list[tuple[str, tuple]]:
    """Raises DuplicateInBatch when two records share an anthology_id."""
    ids = [p.anthology_id for p in papers]
    if len(ids) != len(set(ids)):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise DuplicateInBatch(f"duplicate anthology_id in batch: {dupes}")
    return [(_UPSERT["paper"], _paper_row(p)) for p in papers]


def upsert_papers(h: Store, recs: Sequence[PaperRecord]) -> tuple[int, int]:
    """Write a batch of papers atomically; returns (inserted, updated).

    Either every row reflects its record or none does.

    Raises:
        DuplicateInBatch: two records share an anthology_id; nothing written.
    """
    recs = list(recs)
    statements = _paper_upserts(recs)
    with h.lock:
        existing = h.execute_scalar("SELECT COUNT(*) FROM paper WHERE anthology_id IN "
                                    f"({', '.join('?' * len(recs))})",
                                    [p.anthology_id for p in recs])
        h._write_batch(statements)
    return len(recs) - existing, existing


def upsert_crawl_batch(h: Store, conference: ConferenceRecord,
                       papers: Sequence[PaperRecord], page_digests: bytes | None = None,
                       hop_urls: Sequence[str] = (), commit: bool = True) -> None:
    """One crawl task's writes -- conference row, with the digests of the
    pages it was parsed from, plus its papers -- as one batch, all or
    nothing; ``commit`` as for ``Store._write_batch``."""
    row = _conference_row(conference, page_digests, hop_urls)
    h._write_batch([(_UPSERT["conference"], row), *_paper_upserts(papers)], commit)


class StoredPages(NamedTuple):
    """What a conference was last parsed from."""

    page_digests: bytes  # PAGE_DIGEST_SIZE bytes per page, in crawl order
    hop_urls: tuple[str, ...]
    paper_count: int


def load_stored_pages(h: Store) -> dict[str, StoredPages]:
    """conf_id -> StoredPages for every conference stored with page digests
    that match its hop count; one SELECT.  A row whose ``hop_urls`` is not a
    JSON array of strings, or its digests not a BLOB or its paper_count not an
    integer, is left out too."""
    rows = h.execute_sql("SELECT conf_id, page_digests, hop_urls, paper_count "
                         "FROM conference WHERE page_digests IS NOT NULL")
    out = {}
    for row in rows:
        digests = row["page_digests"]
        try:
            hops = _decode_json(row["hop_urls"] or "[]")
        except (TypeError, ValueError):  # not text, or not JSON
            continue
        if (type(hops) is list and all(type(url) is str for url in hops)
                and type(digests) is bytes and type(row["paper_count"]) is int
                and len(digests) == PAGE_DIGEST_SIZE * (1 + len(hops))):
            out[row["conf_id"]] = StoredPages(digests, tuple(hops), row["paper_count"])
    return out


def paper_from_row(row: Mapping) -> PaperRecord:
    """Hydrate one paper row from its stored display and normalized names.

    Raises:
        ValueError: ``stored paper <anthology_id repr>: <reason>``; the row fails a check.
    """
    try:
        full = _decode_json(row["authors"])
        normalized = _decode_json(row["authors_normalized"])
        if type(full) is not list or type(normalized) is not list:
            raise ValueError("authors and authors_normalized must be JSON arrays")
        if len(full) != len(normalized):
            raise ValueError(f"{len(full)} authors but {len(normalized)} normalized names")
        return PaperRecord(
            anthology_id=row["anthology_id"],
            title=row["title"],
            authors=tuple(map(AuthorName, full, normalized)),
            venue_key=row["venue_key"],
            year=row["year"],
            page_url=row["page_url"],
            pdf_url=row["pdf_url"],
            abstract=row["abstract"],
            bibkey=row["bibkey"],
        )
    except (TypeError, ValueError) as exc:  # a TypeError: a column holds another type
        raise ValueError(f"stored paper {row['anthology_id']!r}: {exc}") from exc


def conference_from_row(row: Mapping) -> ConferenceRecord:
    log = CrawlLog(status=CrawlStatus(row["status"]), attempts=row["attempts"],
                   last_error=row["last_error"], fetched_at=row["fetched_at"],
                   paper_count=row["paper_count"])
    return ConferenceRecord(
        conf_id=row["conf_id"], venue_key=row["venue_key"], year=row["year"],
        title=row["title"], desc=row["desc"], url=row["url"],
        category=Category(row["category"]), kind=Kind(row["kind"]), crawl_log=log)


_PAPER_ORDER = " ORDER BY year, venue_key, anthology_id"


def load_all_papers(h: Store) -> PaperList:
    """Every stored paper, in (year, venue_key, anthology_id) order."""
    rows = h.execute_sql("SELECT * FROM paper" + _PAPER_ORDER)
    return PaperList(items=tuple(paper_from_row(r) for r in rows))


# The keyword haystack of FilterRule.matches: title + " " + abstract, casefolded.
_HAYSTACK = "casefold(title || ' ' || coalesce(abstract, ''))"


def _rule_sql(rule: FilterRule, params: list) -> str:
    """One rule as a SQL predicate over ``paper``, matching FilterRule.matches."""
    if rule.kind in ("keyword_any", "keyword_all"):
        params.extend(kw.casefold() for kw in rule.payload)
        joiner = " OR " if rule.kind == "keyword_any" else " AND "
        return joiner.join(f"instr({_HAYSTACK}, ?) > 0" for _ in rule.payload)
    if rule.kind == "author":
        params.append(rule.payload)
        return ("EXISTS (SELECT 1 FROM json_each(authors_normalized) "
                "WHERE instr(value, ?) > 0)")
    if rule.kind == "venue_in":
        params.append(_json_list(sorted(rule.payload)))
        return "venue_key IN (SELECT value FROM json_each(?))"
    if rule.kind == "year_between":
        params.extend(rule.payload)
        return "year BETWEEN ? AND ?"
    return "abstract IS NOT NULL AND py_strip(abstract) != ''"


def filter_stored(h: Store, rules: Iterable[FilterRule], combine: str = "all") -> PaperList:
    """The stored papers satisfying the combined rules, evaluated in SQL.

    Equal to ``filter_papers(load_all_papers(h), rules, combine)``, in the
    same (year, venue_key, anthology_id) order; only the hits are hydrated.

    Raises:
        EmptyRuleSet: if no rules were given.
    """
    rule_list = check_rules(rules, combine)
    params: list = []
    joiner = " AND " if combine == "all" else " OR "
    where = joiner.join(f"({_rule_sql(r, params)})" for r in rule_list)
    rows = h.execute_sql(f"SELECT * FROM paper WHERE {where}" + _PAPER_ORDER, params)
    return PaperList(items=tuple(paper_from_row(r) for r in rows))


def stats_stored(h: Store, dims: Iterable[str]) -> dict:
    """Nested counts by the dimension tuple, from one query walked into one tree.

    SQLite counts each group; by author each paper is a row, counted once at
    each distinct normalized name (with none, only the branch above ``author``).
    Equal to ``paperlist.stats(load_all_papers(h), dims)``, key order included.

    Raises:
        BadDims: empty, duplicated, or unknown dimensions.
        ValueError: a grouped year or venue key is stored as a BLOB, or a
            paper's names are not a JSON array of strings (``stored paper …``).
    """
    dim_list = check_dims(dims)
    by_author = "author" in dim_list
    at = dim_list.index("author") if by_author else len(dim_list) - 1
    above, below = dim_list[:at], dim_list[at + 1:]
    columns = ", ".join([*above, *below, "authors_normalized", "anthology_id"] if by_author
                        else dim_list)
    sql = (f"SELECT {columns}, 1 AS n FROM paper" if by_author  # a row per paper
           else f"SELECT {columns}, COUNT(*) AS n FROM paper GROUP BY {columns}")  # per group
    tree: dict = {}
    for row in h.execute_sql(sql):
        node = tree
        for dim in above:
            node = node.setdefault(row[dim], {})
        for key in _distinct_names(row) if by_author else (row[dim_list[-1]],):
            leaf = node
            for dim in below:  # this key, then each value but the last, is a branch
                leaf, key = leaf.setdefault(key, {}), row[dim]
            leaf[key] = leaf.get(key, 0) + row["n"]
    return _ordered(tree, dim_list)


def _distinct_names(row: dict) -> dict:
    """The row's normalized names, each once, in stored order."""
    try:
        names = _decode_json(row["authors_normalized"])
        if type(names) is list:
            "".join(names)  # a TypeError: a name that is not a string
            return dict.fromkeys(names)
    except (TypeError, ValueError):  # not text, or not JSON
        pass
    raise ValueError(f"stored paper {row['anthology_id']!r}: authors_normalized "
                     "must be a JSON array of strings")


def _ordered(tree: dict, dims: list[str]) -> dict:
    """``tree`` with each level's keys in SQL's order: numbers, text by code point, BLOBs."""
    try:  # the plain sort first: a key call per name would slow each by-author level
        keys = sorted(tree)
    except TypeError:  # types mixed on one level, by a hand-written row
        keys = sorted(tree, key=lambda key: (type(key) is bytes, type(key) is str, key))
    if keys and type(keys[-1]) is bytes:  # written by hand: no output format takes it
        raise ValueError(f"stored {dims[0]} {keys[-1]!r} is a BLOB")
    rest = dims[1:]
    return {key: _ordered(tree[key], rest) if rest else tree[key] for key in keys}


def load_all_conferences(h: Store) -> list[ConferenceRecord]:
    rows = h.execute_sql("SELECT * FROM conference ORDER BY venue_key, year")
    return [conference_from_row(r) for r in rows]
