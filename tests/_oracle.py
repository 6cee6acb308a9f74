"""Reference implementations that tests compare the program against.

* A brute-force engine for query results: it evaluates a QueryAst over
  plain dict rows entirely in Python, independent of the SQL path: its own
  record->row mapping, its own LIKE matcher, its own three-valued
  comparison handling, and its own ordering/pagination.  Tests compare
  execute() output against this engine exactly.
* A DOM tree of ``Node`` objects built from html.parser's own events
  (never ``htmldoc.scan``'s) by the tolerant nesting rules: a void or
  self-closing tag never opens, an end tag closes back to the nearest open
  element of its name, a stray end tag is ignored.  Tests compare
  ``htmldoc.parse_html``'s flat ``Page`` against it (``flatten``).
* Every page reader as extraction over that tree: each marker is the first
  match of a ``find`` walk, and every link is resolved by ``urljoin``.
  Tests compare ``parse_proceedings``, ``parse_index``,
  ``parse_venue_page`` and ``classify_page`` against them on generated and
  fixture pages.
"""
from __future__ import annotations

import json
import logging
from dataclasses import replace
from html.parser import HTMLParser
from typing import Iterator
from urllib.parse import urljoin, urlparse

from anthology_harvest.errors import EmptyInput, StructureError, UnrecognizedPage
from anthology_harvest.htmldoc import VOID_TAGS
from anthology_harvest.model import (
    Category,
    ConContent,
    ConferenceRecord,
    CrawlLog,
    PaperRecord,
    make_conf_id,
    normalize_author,
)
from anthology_harvest.parser import (
    _AUTHOR_SPLIT_RE,
    _CATEGORY_TOKENS,
    PageKind,
    ParseReport,
    anthology_id_from_url,
)
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


# -- the DOM tree ------------------------------------------------------------------


class Node:
    __slots__ = ("tag", "attrs", "children")

    def __init__(self, tag: str, attrs: dict[str, str] | None = None):
        self.tag = tag
        self.attrs: dict[str, str] = attrs or {}
        self.children: list[Node | str] = []

    def classes(self) -> list[str]:
        return (self.attrs.get("class") or "").split()

    def has_class(self, name: str) -> bool:
        return name in self.classes()

    def walk(self) -> Iterator[tuple["Node", "Node"]]:
        """Depth-first iteration over (parent, element) pairs, document order.

        An explicit stack of child iterators keeps any nesting depth within
        the interpreter's recursion limit.
        """
        stack = [(self, iter(self.children))]
        while stack:
            parent, children = stack[-1]
            for child in children:
                if isinstance(child, Node):
                    yield parent, child
                    stack.append((child, iter(child.children)))
                    break
            else:
                stack.pop()

    def find_all(self, tag: str | None = None, cls: str | None = None) -> list["Node"]:
        return [node for _, node in self.walk()
                if (tag is None or node.tag == tag)
                and (cls is None or node.has_class(cls))]

    def find(self, tag: str | None = None, cls: str | None = None) -> "Node | None":
        for _, node in self.walk():
            if (tag is None or node.tag == tag) and (cls is None or node.has_class(cls)):
                return node
        return None

    def raw_text(self) -> str:
        """Concatenated descendant text as the tokenizer gave it."""
        parts: list[str] = []
        stack = [iter(self.children)]
        while stack:
            for child in stack[-1]:
                if isinstance(child, str):
                    parts.append(child)
                else:
                    stack.append(iter(child.children))
                    break
            else:
                stack.pop()
        return "".join(parts)

    def text(self) -> str:
        """Concatenated descendant text with whitespace collapsed."""
        return " ".join(self.raw_text().split())


class _TreeBuilder(HTMLParser):
    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.root = Node("#document")
        self._stack = [self.root]

    def handle_starttag(self, tag: str, attrs) -> None:
        node = Node(tag, {k: (v if v is not None else "") for k, v in attrs})
        self._stack[-1].children.append(node)
        if tag not in VOID_TAGS:
            self._stack.append(node)

    def handle_startendtag(self, tag: str, attrs) -> None:
        node = Node(tag, {k: (v if v is not None else "") for k, v in attrs})
        self._stack[-1].children.append(node)

    def handle_endtag(self, tag: str) -> None:
        for depth in range(len(self._stack) - 1, 0, -1):
            if self._stack[depth].tag == tag:
                del self._stack[depth:]
                return

    def handle_data(self, data: str) -> None:
        if data:
            self._stack[-1].children.append(data)


def parse_tree(html: str) -> Node:
    """``html`` read by html.parser into a Node tree under a document node."""
    builder = _TreeBuilder()
    builder.feed(html)
    builder.close()
    return builder.root


def base_href(root: Node) -> str | None:
    """The document's ``<base href>`` target, if declared."""
    base = root.find(tag="base")
    if base is None:
        return None
    return base.attrs.get("href") or None


def flatten(root: Node) -> list[tuple]:
    """Each element in document order as (tag, attributes, parent position,
    position of its last descendant, text length before it, raw text),
    the parent of a top-level element being -1; then the whole text."""
    out: list[list] = []
    position = {id(root): -1}
    before = 0
    stack = [iter(root.children)]
    owners = [root]
    while stack:
        for child in stack[-1]:
            if isinstance(child, str):
                before += len(child)
                continue
            position[id(child)] = len(out)
            out.append([child.tag, child.attrs, position[id(owners[-1])], None, before,
                        child.raw_text()])
            stack.append(iter(child.children))
            owners.append(child)
            break
        else:
            stack.pop()
            done = owners.pop()
            if done is not root:
                out[position[id(done)]][3] = len(out) - 1
    return [tuple(row) for row in out] + [root.raw_text()]


# -- page readers over the tree ------------------------------------------------------

logger = logging.getLogger("_oracle")


def _resolve(root: Node, href: str, base_url: str | None) -> str:
    base = base_href(root) or base_url
    return urljoin(base, href) if base else href


def _http_url(root: Node, href: str, base_url: str | None) -> str | None:
    """The resolved link, or None unless it is an absolute http(s) URL."""
    try:
        url = _resolve(root, href, base_url)
        parts = urlparse(url)
    except ValueError:
        return None
    return url if parts.scheme in ("http", "https") and parts.netloc else None


def classify_page(html: str, source_url: str = "") -> PageKind:
    if not html or not html.strip():
        raise EmptyInput("page body is empty")
    root = parse_tree(html)
    if root.find(cls="venue-index") is not None:
        return PageKind.INDEX
    if root.find(cls="venue-page") is not None:
        return PageKind.VENUE
    if root.find(cls="proceedings-page") is not None:
        return PageKind.PROCEEDINGS
    if root.find(cls="paper-detail") is not None:
        return PageKind.PAPER
    raise UnrecognizedPage(f"no marker set matches {source_url or '<page>'}")


def parse_index(html: str, *, base_url: str | None = None
                ) -> list[tuple[Category, str, str]]:
    root = parse_tree(html)
    sections = root.find_all(cls="venue-index")
    if not sections:
        raise StructureError("index page has no category sections")
    out: list[tuple[Category, str, str]] = []
    seen: set[str] = set()
    for section in sections:
        token = section.attrs.get("data-category", "")
        category = _CATEGORY_TOKENS.get(token)
        if category is None:
            logger.warning("skipping category section with unknown token %r", token)
            continue
        for anchor in section.find_all(tag="a", cls="venue-link"):
            href = anchor.attrs.get("href")
            name = anchor.text()
            if not href or not name:
                logger.warning("skipping venue link without href or name")
                continue
            url = _http_url(root, href, base_url)
            if url is None:
                logger.warning("skipping venue link %r: not http(s)", href)
                continue
            if url in seen:
                logger.warning("dropping duplicate venue link %s", url)
                continue
            seen.add(url)
            out.append((category, name, url))
    return out


def parse_venue_page(html: str, category: Category, venue_key: str, *,
                     base_url: str | None = None) -> list[ConferenceRecord]:
    root = parse_tree(html)
    section = root.find(cls="venue-page")
    records: list[ConferenceRecord] = []
    seen_years: set[int] = set()
    # The first event-desc after a proceedings link among the link's
    # parent's children, before that parent's next link, is the link's own.
    link_parent: Node | None = None
    claimant: int | None = None
    if section is not None:
        year: int | None = None
        for parent, node in section.walk():
            if node.has_class("year-heading"):
                text = node.text()
                try:
                    year = int(text)
                except ValueError:
                    logger.warning("skipping non-numeric year heading %r", text)
                    year = None
            elif node.tag == "a" and node.has_class("proceedings-link"):
                link_parent, claimant = parent, None
                if year is None:
                    logger.warning("skipping proceedings link outside a year group")
                    continue
                if year in seen_years:
                    logger.warning("dropping duplicate proceedings link for %s-%s",
                                   venue_key, year)
                    continue
                href = node.attrs.get("href")
                if not href:
                    continue
                try:
                    record = ConferenceRecord(
                        conf_id=make_conf_id(venue_key, year),
                        venue_key=venue_key,
                        year=year,
                        title=node.text(),
                        url=_resolve(root, href, base_url),
                        category=category,
                        crawl_log=CrawlLog(),
                    )
                except ValueError as exc:
                    logger.warning("skipping proceedings link for %s-%s: %s",
                                   venue_key, year, exc)
                    continue
                seen_years.add(year)
                if parent is not section:
                    claimant = len(records)
                records.append(record)
            elif node.has_class("event-desc") and parent is link_parent:
                if claimant is not None:
                    records[claimant] = replace(records[claimant],
                                                desc=node.text() or None)
                link_parent = claimant = None
    if not records:
        raise StructureError(f"venue page for {venue_key!r} has no year-grouped links")
    return records


def _split_authors(span: Node) -> list[str]:
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
    root = parse_tree(html)
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
        page_url = _http_url(root, href, base_url)
        if page_url is None:
            warnings.append(f"entry {position}: title link {href!r} is not http(s), skipped")
            continue
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
            pdf_url = _http_url(root, pdf_anchor.attrs["href"], base_url)
            if pdf_url is None:
                warnings.append(f"entry {position}: pdf link {pdf_anchor.attrs['href']!r}"
                                " is not http(s), dropped")

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
            if not href:
                continue
            url = _http_url(root, href, base_url)
            if url is None:
                warnings.append(f"pagination link {href!r} is not http(s), skipped")
            else:
                next_links.append(url)

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
