"""Reference implementations that tests compare the program against.

* A brute-force engine for query results: it evaluates a QueryAst over
  plain dict rows entirely in Python, independent of the SQL path: its own
  record->row mapping, its own LIKE matcher, its own three-valued
  comparison handling, and its own ordering/pagination.  Tests compare
  execute() output against this engine exactly.
* ``parse_proceedings`` as extraction over an ``htmldoc`` tree: the page is
  built into a Node tree from html.parser's own events (never ``scan``'s),
  then each field is the first match of a ``find`` walk, and every link is
  resolved by ``urljoin``.  Tests compare the single-pass
  ``parser.parse_proceedings`` against it on generated and fixture pages.
"""
from __future__ import annotations

import json
from urllib.parse import urljoin

from anthology_harvest import htmldoc
from anthology_harvest.errors import EmptyInput, StructureError
from anthology_harvest.model import (
    ConContent,
    ConferenceRecord,
    PaperRecord,
    normalize_author,
)
from anthology_harvest.parser import _AUTHOR_SPLIT_RE, ParseReport, anthology_id_from_url
from anthology_harvest.query import Condition, ConditionGroup, QueryAst

PK = {"paper": "anthology_id", "conference": "conf_id"}
ALL_COLUMNS = {
    "paper": ("anthology_id", "title", "authors", "authors_normalized",
              "venue_key", "year", "page_url", "pdf_url", "abstract", "bibkey"),
}


def paper_row(rec: PaperRecord) -> dict:
    """Independent record->row mapping mirroring the documented schema."""
    return {
        "anthology_id": rec.anthology_id,
        "title": rec.title,
        "authors": json.dumps([a.full for a in rec.authors], ensure_ascii=False),
        "authors_normalized": json.dumps([a.normalized for a in rec.authors],
                                         ensure_ascii=False),
        "venue_key": rec.venue_key,
        "year": rec.year,
        "page_url": rec.page_url,
        "pdf_url": rec.pdf_url,
        "abstract": rec.abstract,
        "bibkey": rec.bibkey,
    }


def like_match(pattern: str, value: str) -> bool:
    """%/_ wildcard matching, case-insensitive, via dynamic programming."""
    p = pattern.casefold()
    v = value.casefold()

    # dp[i] = True if p[:i] matches some prefix; walk value chars.
    prev = [True] + [False] * len(p)
    for i in range(1, len(p) + 1):
        prev[i] = prev[i - 1] and p[i - 1] == "%"
    for ch in v:
        cur = [False] * (len(p) + 1)
        for i in range(1, len(p) + 1):
            pc = p[i - 1]
            if pc == "%":
                cur[i] = cur[i - 1] or prev[i]
            elif pc == "_" or pc == ch:
                cur[i] = prev[i - 1]
        prev = cur
    return prev[len(p)]


def cond_matches(row: dict, cond: Condition) -> bool:
    value = row.get(cond.column)
    if cond.op == "is_null":
        return value is None
    if cond.op == "is_not_null":
        return value is not None
    if value is None:
        return False  # SQL three-valued logic: NULL never satisfies these
    if cond.op == "eq":
        return value == cond.value
    if cond.op == "neq":
        return value != cond.value
    if cond.op == "gt":
        return value > cond.value
    if cond.op == "gte":
        return value >= cond.value
    if cond.op == "lt":
        return value < cond.value
    if cond.op == "lte":
        return value <= cond.value
    if cond.op == "in":
        return value in cond.value
    if cond.op == "not_in":
        return value not in cond.value
    if cond.op == "like":
        return like_match(str(cond.value), str(value))
    if cond.op == "between":
        low, high = cond.value
        return low <= value <= high
    raise AssertionError(f"unhandled op {cond.op}")


def _item_matches(row: dict, item) -> bool:
    if isinstance(item, ConditionGroup):
        results = [cond_matches(row, c) for c in item.conditions]
        return all(results) if item.joiner == "and" else any(results)
    return cond_matches(row, item)


def where_matches(row: dict, terms) -> bool:
    """AND binds tighter than OR: the terms form an OR of AND-chains."""
    if not terms:
        return True
    chains: list[list] = [[]]
    for connector, item in terms:
        if connector == "or" and chains[-1]:
            chains.append([])
        chains[-1].append(item)
    return any(all(_item_matches(row, item) for item in chain) for chain in chains)


def _sort_rows(rows: list[dict], pairs: list[tuple[str, str]]) -> list[dict]:
    out = list(rows)
    for column, direction in reversed(pairs):
        def key(row, c=column):
            v = row.get(c)
            return (v is not None, 0 if v is None else v)
        out.sort(key=key, reverse=(direction == "desc"))
    return out


def _ordering(ast: QueryAst) -> list[tuple[str, str]]:
    pairs = list(ast.order_by)
    named = {c for c, _ in pairs}
    if ast.group_by is not None:
        tail = ast.group_by
    elif ast.distinct:
        tail = ast.projection or ALL_COLUMNS[ast.source]
    else:
        tail = (PK[ast.source],)
    pairs += [(c, "asc") for c in tail if c not in named]
    return pairs


def _aggregate(values: list, fn: str):
    if fn == "count":
        return len(values)
    if fn == "distinct_count":
        return len(set(values))
    if not values:
        return None
    if fn == "min":
        return min(values)
    if fn == "max":
        return max(values)
    if fn == "sum":
        return sum(values)
    if fn == "avg":
        return sum(values) / len(values)
    raise AssertionError(f"unhandled aggregate {fn}")


def _agg_over(rows: list[dict], aggregate: tuple[str, str | None]):
    fn, column = aggregate
    if fn == "count" and column is None:
        return len(rows)
    values = [r.get(column) for r in rows if r.get(column) is not None]
    return _aggregate(values, fn)


def _paginate(rows: list, ast: QueryAst) -> list:
    start = ast.offset or 0
    if ast.limit is not None:
        return rows[start:start + ast.limit]
    return rows[start:]


def eval_ast(rows: list[dict], ast: QueryAst):
    """Mirror of execute(): scalar, grouped tuples, or dict rows."""
    kept = [r for r in rows if where_matches(r, ast.conditions)]

    if ast.group_by is not None:
        buckets: dict[tuple, list[dict]] = {}
        for row in kept:
            key = tuple(row.get(c) for c in ast.group_by)
            buckets.setdefault(key, []).append(row)
        if ast.having is not None:
            min_rows = {}
            filtered = {}
            for key, group in buckets.items():
                if ast.having.column == "count":
                    probe = {"count": len(group)}
                    if cond_matches(probe, Condition("count", ast.having.op,
                                                     ast.having.value)):
                        filtered[key] = group
                else:
                    probe = {ast.having.column: key[ast.group_by.index(ast.having.column)]}
                    if cond_matches(probe, ast.having):
                        filtered[key] = group
            buckets = filtered
        group_rows = []
        for key, group in buckets.items():
            row = dict(zip(ast.group_by, key))
            if ast.aggregate is not None:
                row["__agg__"] = _agg_over(group, ast.aggregate)
            group_rows.append(row)
        ordered = _sort_rows(group_rows, _ordering(ast))
        ordered = _paginate(ordered, ast)
        out = []
        for row in ordered:
            values = [row[c] for c in ast.group_by]
            if ast.aggregate is not None:
                values.append(row["__agg__"])
            out.append(tuple(values))
        return out

    if ast.aggregate is not None:
        return _agg_over(kept, ast.aggregate)

    ordered = _sort_rows(kept, _ordering(ast))
    columns = ast.projection or ALL_COLUMNS[ast.source]
    projected = [{c: r.get(c) for c in columns} for r in ordered]
    if ast.distinct:
        seen = set()
        deduped = []
        for row in projected:
            key = tuple(row[c] for c in columns)
            if key not in seen:
                seen.add(key)
                deduped.append(row)
        projected = _sort_rows(deduped, _ordering(ast))
    return _paginate(projected, ast)


# -- proceedings pages over a Node tree --------------------------------------


def _resolve(root: htmldoc.Node, href: str, base_url: str | None) -> str:
    base = htmldoc.base_href(root) or base_url
    return urljoin(base, href) if base else href


def _split_authors(span: htmldoc.Node) -> list[str]:
    linked = span.find_all(tag="a")
    if linked:
        return [a.text() for a in linked if a.text()]
    text = span.text()
    if not text:
        return []
    return [part.strip() for part in _AUTHOR_SPLIT_RE.split(text) if part.strip()]


def parse_proceedings(html: str, conference: ConferenceRecord, *,
                      base_url: str | None = None
                      ) -> tuple[ConContent, list[PaperRecord], ParseReport]:
    """Extract the papers listed on a proceedings page.

    Each entry yields one PaperRecord inheriting ``venue_key`` and ``year``
    from ``conference``.  Entries missing a title are skipped with a
    warning; missing abstracts, PDF links, or bibkeys leave those fields
    absent.  The returned ConContent carries the per-paper landing links
    and any pagination links for the next crawl hop.

    Raises:
        StructureError: if the paper-list container is absent.
    """
    builder = htmldoc._TreeBuilder()
    builder.feed(html)
    builder.close()
    root = builder.root
    container = root.find(cls="paper-list")
    if container is None:
        raise StructureError(f"no paper-list container on {conference.conf_id}")

    warnings: list[str] = []
    papers: list[PaperRecord] = []
    landing_links: list[str] = []
    seen_ids: set[str] = set()

    for position, entry in enumerate(container.find_all(cls="paper-entry"), start=1):
        title_anchor = entry.find(tag="a", cls="paper-title")
        if title_anchor is None or not title_anchor.text():
            warnings.append(f"entry {position}: no title, skipped")
            continue
        href = title_anchor.attrs.get("href")
        if not href:
            warnings.append(f"entry {position}: title anchor has no href, skipped")
            continue
        page_url = _resolve(root, href, base_url)
        anthology_id = anthology_id_from_url(page_url)
        if not anthology_id:
            warnings.append(f"entry {position}: no id in {page_url}, skipped")
            continue
        if anthology_id in seen_ids:
            warnings.append(f"entry {position}: duplicate id {anthology_id}, skipped")
            continue

        author_span = entry.find(cls="paper-authors")
        authors = []
        if author_span is not None:
            for name in _split_authors(author_span):
                try:
                    authors.append(normalize_author(name))
                except EmptyInput:
                    continue

        abstract_node = entry.find(cls="paper-abstract")
        abstract = abstract_node.text() if abstract_node is not None else None
        if abstract == "":
            abstract = None
            warnings.append(f"entry {position}: empty abstract block")

        pdf_anchor = entry.find(tag="a", cls="pdf-link")
        pdf_url = None
        if pdf_anchor is not None and pdf_anchor.attrs.get("href"):
            pdf_url = _resolve(root, pdf_anchor.attrs["href"], base_url)

        bibkey_node = entry.find(cls="bibkey")
        bibkey = bibkey_node.text() if bibkey_node is not None else None

        seen_ids.add(anthology_id)
        landing_links.append(page_url)
        papers.append(PaperRecord(
            anthology_id=anthology_id,
            title=title_anchor.text(),
            authors=tuple(authors),
            venue_key=conference.venue_key,
            year=conference.year,
            page_url=page_url,
            pdf_url=pdf_url,
            abstract=abstract,
            bibkey=bibkey or None,
        ))

    next_links: list[str] = []
    nav = root.find(cls="pagination")
    if nav is not None:
        for anchor in nav.find_all(tag="a"):
            href = anchor.attrs.get("href")
            if href:
                next_links.append(_resolve(root, href, base_url))

    content = ConContent(
        conference=conference,
        paper_page_links=tuple(landing_links),
        next_page_links=tuple(next_links),
    )
    report = ParseReport(
        records_extracted=len(papers),
        warnings=tuple(warnings),
        source_url=conference.url,
    )
    return content, papers, report
