"""Heuristic extraction of structured records from anthology-style pages.

The supported page dialect is pinned by explicit structural markers so
extraction is testable against the bundled fixture corpus:

* **index** pages carry ``<section class="venue-index" data-category=...>``
  blocks, one per top-level category, whose ``venue-link`` anchors name the
  venues;
* **venue** pages carry a ``venue-page`` section in which ``year-heading``
  headings group ``proceedings-link`` anchors (one event per year), each
  optionally described by an ``event-desc`` span;
* **proceedings** pages carry a ``proceedings-page`` section holding a
  ``paper-list`` container of ``paper-entry`` blocks -- a ``paper-title``
  anchor (whose href's final path segment is the paper id), a
  ``paper-authors`` span, an optional ``paper-abstract`` block, an optional
  ``pdf-link`` anchor, an optional ``bibkey`` span -- plus an optional
  ``pagination`` nav of follow-up links;
* **paper** landing pages carry a ``paper-detail`` block.

Proceedings pages, the large ones, are read in one pass over the
tokenizer's events (``htmldoc.NestingParser.read``), keeping only the
marked elements' attributes and text; the other pages are built into an
``htmldoc`` tree and walked.  Both read the markup the same way: the same
events, the tree's tolerant open-element stack, and the first match in
document order wherever a marker is looked up.

Relative links resolve against the page's ``<base href>``, falling back to
the ``base_url`` keyword; a venue link's ``event-desc`` is the first one
after it among its parent's children, before the parent's next
proceedings link.  A thin adapter mapping a live site's markup onto
these markers keeps the extraction interface unchanged.

All operations are pure functions of their inputs; they are safe to call
concurrently.  Recoverable anomalies degrade per entry, never per page:
``parse_proceedings`` reports them in ``ParseReport.warnings``, the other
operations log them at warning level.
"""
from __future__ import annotations

import logging
import posixpath
import re
from dataclasses import dataclass, replace
from enum import Enum
from urllib.parse import urljoin, urlparse

from . import htmldoc
from .errors import EmptyInput, StructureError, UnrecognizedPage
from .model import (
    PLAIN_ORIGIN_RE,
    Category,
    ConContent,
    ConferenceRecord,
    CrawlLog,
    PaperRecord,
    make_conf_id,
    normalize_author,
)

logger = logging.getLogger(__name__)

_AUTHOR_SPLIT_RE = re.compile(r",|\band\b")

_CATEGORY_TOKENS = {
    "acl-events": Category.ACL_EVENT,
    "non-acl-events": Category.NON_ACL_EVENT,
}


class PageKind(str, Enum):
    INDEX = "index"
    VENUE = "venue"
    PROCEEDINGS = "proceedings"
    PAPER = "paper"


@dataclass(frozen=True)
class ParseReport:
    """Outcome bookkeeping for one parsed page."""

    records_extracted: int
    warnings: tuple[str, ...]
    source_url: str


def classify_page(html: str, source_url: str = "") -> PageKind:
    """Classify a page by its structural markers.

    Raises:
        EmptyInput: if ``html`` is empty or whitespace-only.
        UnrecognizedPage: if no marker set matches.
    """
    if not html or not html.strip():
        raise EmptyInput("page body is empty")
    root = htmldoc.parse_html(html)
    if root.find(cls="venue-index") is not None:
        return PageKind.INDEX
    if root.find(cls="venue-page") is not None:
        return PageKind.VENUE
    if root.find(cls="proceedings-page") is not None:
        return PageKind.PROCEEDINGS
    if root.find(cls="paper-detail") is not None:
        return PageKind.PAPER
    raise UnrecognizedPage(f"no marker set matches {source_url or '<page>'}")


# The common case of a link, resolved without urljoin: a base with a plain
# origin (``PLAIN_ORIGIN_RE``) and an href that is a plain absolute path (no
# query, fragment, params, "//", dot segment, whitespace, control or
# non-ASCII character).  urljoin gives such a pair origin + href.
_PLAIN_PATH_RE = re.compile(r"(?:/(?![./])[^\x00-\x20\x7f/?#;]*)+")


def _join(base: str | None, href: str) -> tuple[str, str | None]:
    """``href`` resolved against the page's base (its ``<base href>``, else
    the caller's ``base_url``; unchanged when there is none), with the
    resolved URL's path where it is known without parsing the URL."""
    if not base:
        return href, None
    origin = PLAIN_ORIGIN_RE.match(base)
    if origin is not None and href.isascii() and _PLAIN_PATH_RE.fullmatch(href):
        return origin.group() + href, href
    return urljoin(base, href), None


def _resolve(base: str | None, href: str) -> str:
    return _join(base, href)[0]


def parse_index(html: str, *, base_url: str | None = None
                ) -> list[tuple[Category, str, str]]:
    """Extract (category, venue_name, venue_url) tuples from the site index.

    Every venue link appears exactly once, in document order; duplicated
    links are dropped with a logged warning.

    Raises:
        StructureError: if neither category section is found.
    """
    root = htmldoc.parse_html(html)
    sections = root.find_all(cls="venue-index")
    if not sections:
        raise StructureError("index page has no category sections")
    base = htmldoc.base_href(root) or base_url
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
            url = _resolve(base, href)
            if url in seen:
                logger.warning("dropping duplicate venue link %s", url)
                continue
            seen.add(url)
            out.append((category, name, url))
    return out


def parse_venue_page(html: str, category: Category, venue_key: str, *,
                     base_url: str | None = None) -> list[ConferenceRecord]:
    """Extract one ConferenceRecord per (year, proceedings link) pair.

    Every record starts with a pending crawl log, and its kind is
    ``conference`` regardless of how the page labels the event.

    Raises:
        StructureError: if no year-grouped proceedings links are found.
    """
    root = htmldoc.parse_html(html)
    section = root.find(cls="venue-page")
    base = htmldoc.base_href(root) or base_url
    records: list[ConferenceRecord] = []
    seen_years: set[int] = set()
    # The parent of the last proceedings link walked, and the index of its
    # record while that record may still take a desc: the first event-desc
    # after a link among its parent's children, before the parent's next
    # proceedings link, is that link's alone.
    link_parent: htmldoc.Node | None = None
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
                seen_years.add(year)
                # A link placed directly in the section gets no desc: the
                # section holds every year's links, so a desc there is not
                # this link's own.
                if parent is not section:
                    claimant = len(records)
                records.append(ConferenceRecord(
                    conf_id=make_conf_id(venue_key, year),
                    venue_key=venue_key,
                    year=year,
                    title=node.text(),
                    url=_resolve(base, href),
                    category=category,
                    crawl_log=CrawlLog(),
                ))
            elif node.has_class("event-desc") and parent is link_parent:
                if claimant is not None:
                    records[claimant] = replace(records[claimant],
                                                desc=node.text() or None)
                link_parent = claimant = None
    if not records:
        raise StructureError(f"venue page for {venue_key!r} has no year-grouped links")
    return records


def anthology_id_from_url(url: str) -> str:
    """The paper identifier encoded as the final path segment of its URL."""
    return _id_from_path(urlparse(url).path)


def _id_from_path(path: str) -> str:
    return posixpath.basename(path.rstrip("/"))


# (entry key, marker class, anchors only) for the fields of a paper entry.
_ENTRY_FIELDS = (
    ("title", "paper-title", True),
    ("authors", "paper-authors", False),
    ("abstract", "paper-abstract", False),
    ("pdf", "pdf-link", True),
    ("bibkey", "bibkey", False),
)


class _Marked:
    """What the pass keeps of one marked element: its href, the text data
    inside it, and, for an author span, the anchors inside it."""

    __slots__ = ("href", "parts", "anchors")

    def __init__(self, href: str | None):
        self.href = href
        self.parts: list[str] = []
        self.anchors: list[_Marked] = []

    def text(self) -> str:
        """Concatenated descendant text with whitespace collapsed."""
        return " ".join("".join(self.parts).split())


class _ProceedingsPass(htmldoc.NestingParser):
    """One pass over a proceedings page, keeping only the marked elements.

    Elements nest as in the ``htmldoc`` tree.  An element is a descendant
    of every element open when it starts, so the first match of a marker
    inside an element is the first one to start while that element is
    open, as ``Node.find`` gives it.  Hrefs are kept raw: a ``<base>`` may
    come after the links it applies to.
    """

    def __init__(self) -> None:
        super().__init__()
        self.base_seen = False
        self.base: str | None = None    # href of the first <base>
        self.container_seen = False     # the first paper-list
        self.entries: list[dict[str, _Marked]] = []  # every entry inside it
        self.nav_seen = False           # the first pagination element
        self.nav_hrefs: list[str] = []  # hrefs of the anchors inside it
        # One (depth, list) per open marked element, by depth: closing
        # depth d and deeper pops these and the lists' tails.
        self._marks: list[tuple[int, list]] = []
        self._texts: list[list[str]] = []
        self._entries: list[dict[str, _Marked]] = []
        self._spans: list[_Marked] = []
        self._in_container: list[bool] = []
        self._in_nav: list[bool] = []

    def _open(self, stack: list, item, depth: int) -> None:
        stack.append(item)
        self._marks.append((depth, stack))

    def on_start(self, tag: str, attrs, depth: int, opened: bool) -> None:
        cls = href = None
        for name, value in attrs:  # the last duplicate wins, as in a dict
            if name == "class":
                cls = value
            elif name == "href":
                href = value or ""
        # Descendant checks come first: an element is not its own descendant.
        if tag == "a":
            if self._spans:
                anchor = _Marked(href)
                for span in self._spans:
                    span.anchors.append(anchor)
                if opened:
                    self._open(self._texts, anchor.parts, depth)
            if self._in_nav and href:
                self.nav_hrefs.append(href)
        elif tag == "base" and not self.base_seen:
            self.base_seen = True
            self.base = href or None
        if not cls:
            return
        classes = cls.split()
        if self._entries:
            marked = None
            is_span = False
            for key, marker, anchors_only in _ENTRY_FIELDS:
                if marker not in classes or (anchors_only and tag != "a"):
                    continue
                for entry in self._entries:
                    if key not in entry:
                        marked = marked or _Marked(href)
                        entry[key] = marked
                        is_span = is_span or key == "authors"
            if marked is not None and opened:
                self._open(self._texts, marked.parts, depth)
                if is_span:
                    self._open(self._spans, marked, depth)
        if "paper-entry" in classes and self._in_container:
            entry: dict[str, _Marked] = {}
            self.entries.append(entry)
            if opened:
                self._open(self._entries, entry, depth)
        if "paper-list" in classes and not self.container_seen:
            self.container_seen = True
            if opened:
                self._open(self._in_container, True, depth)
        if "pagination" in classes and not self.nav_seen:
            self.nav_seen = True
            if opened:
                self._open(self._in_nav, True, depth)

    def on_close(self, depth: int) -> None:
        marks = self._marks
        while marks and marks[-1][0] >= depth:
            marks.pop()[1].pop()

    def handle_data(self, data: str) -> None:
        for parts in self._texts:
            parts.append(data)


def _split_authors(span: _Marked) -> list[str]:
    if span.anchors:
        names = [a.text() for a in span.anchors]
        return [name for name in names if name]
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
    page = _ProceedingsPass.read(html)
    if not page.container_seen:
        raise StructureError(f"no paper-list container on {conference.conf_id}")
    base = page.base or base_url

    warnings: list[str] = []
    papers: list[PaperRecord] = []
    landing_links: list[str] = []
    seen_ids: set[str] = set()

    for position, entry in enumerate(page.entries, start=1):
        title_anchor = entry.get("title")
        title = title_anchor.text() if title_anchor is not None else ""
        if not title:
            warnings.append(f"entry {position}: no title, skipped")
            continue
        href = title_anchor.href
        if not href:
            warnings.append(f"entry {position}: title anchor has no href, skipped")
            continue
        page_url, path = _join(base, href)
        anthology_id = (_id_from_path(path) if path is not None
                        else anthology_id_from_url(page_url))
        if not anthology_id:
            warnings.append(f"entry {position}: no id in {page_url}, skipped")
            continue
        if anthology_id in seen_ids:
            warnings.append(f"entry {position}: duplicate id {anthology_id}, skipped")
            continue

        author_span = entry.get("authors")
        authors = []
        if author_span is not None:
            for name in _split_authors(author_span):
                try:
                    authors.append(normalize_author(name))
                except EmptyInput:
                    continue

        abstract_node = entry.get("abstract")
        abstract = abstract_node.text() if abstract_node is not None else None
        if abstract == "":
            abstract = None
            warnings.append(f"entry {position}: empty abstract block")

        pdf_anchor = entry.get("pdf")
        pdf_url = None
        if pdf_anchor is not None and pdf_anchor.href:
            pdf_url = _resolve(base, pdf_anchor.href)

        bibkey_node = entry.get("bibkey")
        bibkey = bibkey_node.text() if bibkey_node is not None else None

        seen_ids.add(anthology_id)
        landing_links.append(page_url)
        papers.append(PaperRecord(
            anthology_id=anthology_id,
            title=title,
            authors=tuple(authors),
            venue_key=conference.venue_key,
            year=conference.year,
            page_url=page_url,
            pdf_url=pdf_url,
            abstract=abstract,
            bibkey=bibkey or None,
        ))

    content = ConContent(
        conference=conference,
        paper_page_links=tuple(landing_links),
        next_page_links=tuple(_resolve(base, href) for href in page.nav_hrefs),
    )
    report = ParseReport(
        records_extracted=len(papers),
        warnings=tuple(warnings),
        source_url=conference.url,
    )
    return content, papers, report
