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

Every page kind is read by ``htmldoc.parse_html`` into one flat element
list, and each reader is a loop over it: wherever a marker is looked up
inside an element, the first match in document order among the elements
inside it counts.

Relative links resolve against the page's ``<base href>``, falling back to
the ``base_url`` keyword; a venue link's ``event-desc`` is the first one
after it among its parent's children, before the parent's next
proceedings link.  A thin adapter mapping a live site's markup onto
these markers keeps the extraction interface unchanged.

All operations are pure functions of their inputs; they are safe to call
concurrently.  Recoverable anomalies degrade per link or entry, never per
page.  A proceedings link that makes no valid ConferenceRecord (a year
outside 1950..2100, an empty title, a link that is not absolute http(s))
is skipped, and so is an index venue link, a pagination link or a paper
entry whose title link is not absolute http(s); a PDF link that is not is
dropped and its paper kept.
``parse_proceedings`` reports these in ``ParseReport.warnings``, the other
operations log them at warning level.  Discovery in ``scheduler`` likewise
skips an index link whose name has no letter or digit for a venue key.
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
    ConferenceRecord,
    PaperRecord,
    is_absolute_url,
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


# Each page kind's marker class, in the order ``classify_page`` tries them.
_PAGE_MARKERS = (
    ("venue-index", PageKind.INDEX),
    ("venue-page", PageKind.VENUE),
    ("proceedings-page", PageKind.PROCEEDINGS),
    ("paper-detail", PageKind.PAPER),
)


def classify_page(html: str, source_url: str = "") -> PageKind:
    """Classify a page by its structural markers.

    Raises:
        EmptyInput: if ``html`` is empty or whitespace-only.
        UnrecognizedPage: if no marker set matches.
    """
    if not html or not html.strip():
        raise EmptyInput("page body is empty")
    page = htmldoc.parse_html(html)
    for marker, kind in _PAGE_MARKERS:
        if page.find(marker) is not None:
            return kind
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


def _http_join(base: str | None, href: str) -> tuple[str, str | None] | None:
    """``_join(base, href)``, or None unless that is an absolute http(s) URL."""
    try:
        joined = _join(base, href)
        return joined if joined[1] is not None or is_absolute_url(joined[0]) else None
    except ValueError:  # urlparse rejects a malformed IPv6 netloc
        return None


def _base(page: htmldoc.Page, base_url: str | None) -> str | None:
    """The href of the page's first ``<base>``, else ``base_url``."""
    for element in page.elements:
        if element.tag == "base":
            return element.get("href") or base_url
    return base_url


def parse_index(html: str, *, base_url: str | None = None
                ) -> list[tuple[Category, str, str]]:
    """Extract (category, venue_name, venue_url) tuples from the site index.

    Every venue link appears exactly once, in document order; duplicated
    links are dropped with a logged warning.

    Raises:
        StructureError: if neither category section is found.
    """
    page = htmldoc.parse_html(html)
    sections = [element for element in page.elements
                if "venue-index" in element.classes]
    if not sections:
        raise StructureError("index page has no category sections")
    base = _base(page, base_url)
    out: list[tuple[Category, str, str]] = []
    seen: set[str] = set()
    for section in sections:
        token = section.get("data-category") or ""
        category = _CATEGORY_TOKENS.get(token)
        if category is None:
            logger.warning("skipping category section with unknown token %r", token)
            continue
        for anchor in page.inside(section):
            if anchor.tag != "a" or "venue-link" not in anchor.classes:
                continue
            href = anchor.get("href")
            name = page.text(anchor)
            if not href or not name:
                logger.warning("skipping venue link without href or name")
                continue
            joined = _http_join(base, href)
            if joined is None:
                logger.warning("skipping venue link %r: not http(s)", href)
                continue
            url = joined[0]
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
    page = htmldoc.parse_html(html)
    section = page.find("venue-page")
    base = _base(page, base_url)
    records: list[ConferenceRecord] = []
    seen_years: set[int] = set()
    # The parent position of the last proceedings link walked, and the
    # index of its record while that record may still take a desc: the
    # first event-desc after a link among its parent's children, before
    # the parent's next proceedings link, is that link's alone.
    link_parent: int | None = None
    claimant: int | None = None
    if section is not None:
        year: int | None = None
        for node in page.inside(section):
            if "year-heading" in node.classes:
                text = page.text(node)
                try:
                    year = int(text)
                except ValueError:
                    logger.warning("skipping non-numeric year heading %r", text)
                    year = None
            elif node.tag == "a" and "proceedings-link" in node.classes:
                link_parent, claimant = node.parent, None
                if year is None:
                    logger.warning("skipping proceedings link outside a year group")
                    continue
                if year in seen_years:
                    logger.warning("dropping duplicate proceedings link for %s-%s",
                                   venue_key, year)
                    continue
                href = node.get("href")
                if not href:
                    continue
                try:
                    record = ConferenceRecord(
                        make_conf_id(venue_key, year), venue_key, year,
                        page.text(node), _join(base, href)[0], category)
                except ValueError as exc:  # the year, title or URL is not valid
                    logger.warning("skipping proceedings link for %s-%s: %s",
                                   venue_key, year, exc)
                    continue
                seen_years.add(year)
                # A link placed directly in the section gets no desc: the
                # section holds every year's links, so a desc there is not
                # this link's own.
                if node.parent != section.pos:
                    claimant = len(records)
                records.append(record)
            elif "event-desc" in node.classes and node.parent == link_parent:
                if claimant is not None:
                    records[claimant] = replace(records[claimant],
                                                desc=page.text(node) or None)
                link_parent = claimant = None
    if not records:
        raise StructureError(f"venue page for {venue_key!r} has no year-grouped links")
    return records


def anthology_id_from_url(url: str) -> str:
    """The paper identifier encoded as the final path segment of its URL."""
    return _id_from_path(urlparse(url).path)


def _id_from_path(path: str) -> str:
    return posixpath.basename(path.rstrip("/"))


# Each entry field's marker class, and whether only an anchor counts.
_FIELD_MARKERS = {
    "paper-title": True,
    "paper-authors": False,
    "paper-abstract": False,
    "pdf-link": True,
    "bibkey": False,
}


def _fields(page: htmldoc.Page, entry: htmldoc.Element) -> dict[str, htmldoc.Element]:
    """The first element inside ``entry`` of each field marker, by marker."""
    fields: dict[str, htmldoc.Element] = {}
    for element in page.inside(entry):
        for cls in element.classes:
            anchors_only = _FIELD_MARKERS.get(cls)
            if (anchors_only is not None and cls not in fields
                    and (element.tag == "a" or not anchors_only)):
                fields[cls] = element
    return fields


def _split_authors(page: htmldoc.Page, span: htmldoc.Element) -> list[str]:
    anchors = [element for element in page.inside(span) if element.tag == "a"]
    if anchors:
        names = [page.text(anchor) for anchor in anchors]
        return [name for name in names if name]
    text = page.text(span)
    if not text:
        return []
    return [part.strip() for part in _AUTHOR_SPLIT_RE.split(text) if part.strip()]


def parse_proceedings(html: str, conference: ConferenceRecord, *,
                      base_url: str | None = None
                      ) -> tuple[list[str], list[PaperRecord], ParseReport]:
    """Extract the papers and pagination links listed on a proceedings page.

    Returns ``(next_page_links, papers, report)``: the page's pagination
    links, resolved, in document order; one PaperRecord per entry, inheriting
    ``venue_key`` and ``year`` from ``conference``; and the page's count of
    papers and its warnings.  Entries missing a title are skipped with a
    warning; missing abstracts, PDF links, or bibkeys leave those fields
    absent.

    Raises:
        StructureError: if the paper-list container is absent.
    """
    page = htmldoc.parse_html(html)
    container = page.find("paper-list")
    if container is None:
        raise StructureError(f"no paper-list container on {conference.conf_id}")
    base = _base(page, base_url)

    warnings: list[str] = []
    papers: list[PaperRecord] = []
    seen_ids: set[str] = set()

    entries = [element for element in page.inside(container)
               if "paper-entry" in element.classes]
    for position, entry in enumerate(entries, start=1):
        fields = _fields(page, entry)
        title_anchor = fields.get("paper-title")
        title = page.text(title_anchor) if title_anchor is not None else ""
        if not title:
            warnings.append(f"entry {position}: no title, skipped")
            continue
        href = title_anchor.get("href")
        if not href:
            warnings.append(f"entry {position}: title anchor has no href, skipped")
            continue
        joined = _http_join(base, href)
        if joined is None:
            warnings.append(f"entry {position}: title link {href!r} is not http(s), skipped")
            continue
        page_url, path = joined
        anthology_id = (_id_from_path(path) if path is not None
                        else anthology_id_from_url(page_url))
        if not anthology_id:
            warnings.append(f"entry {position}: no id in {page_url}, skipped")
            continue
        if anthology_id in seen_ids:
            warnings.append(f"entry {position}: duplicate id {anthology_id}, skipped")
            continue

        author_span = fields.get("paper-authors")
        authors = []
        if author_span is not None:
            for name in _split_authors(page, author_span):
                try:
                    authors.append(normalize_author(name))
                except EmptyInput:
                    warnings.append(f"entry {position}: author {name!r} is empty once "
                                    "normalized, skipped")

        abstract_node = fields.get("paper-abstract")
        abstract = page.text(abstract_node) if abstract_node is not None else None
        if abstract == "":
            abstract = None
            warnings.append(f"entry {position}: empty abstract block")

        pdf_anchor = fields.get("pdf-link")
        pdf_href = pdf_anchor.get("href") if pdf_anchor is not None else None
        joined = _http_join(base, pdf_href) if pdf_href else None
        pdf_url = joined[0] if joined else None
        if pdf_href and pdf_url is None:
            warnings.append(f"entry {position}: pdf link {pdf_href!r} is not http(s), dropped")

        bibkey_node = fields.get("bibkey")
        bibkey = page.text(bibkey_node) if bibkey_node is not None else None

        seen_ids.add(anthology_id)
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

    nav = page.find("pagination")
    next_links: list[str] = []
    for element in () if nav is None else page.inside(nav):
        href = element.get("href")
        if element.tag != "a" or not href:
            continue
        joined = _http_join(base, href)
        if joined is None:
            warnings.append(f"pagination link {href!r} is not http(s), skipped")
        else:
            next_links.append(joined[0])
    return next_links, papers, ParseReport(len(papers), tuple(warnings))
