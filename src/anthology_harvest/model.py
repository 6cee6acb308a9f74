"""Domain records and the canonicalization rules shared by every module.

All types here are immutable value objects: once constructed they are safe
to share between concurrent workers without synchronization.  Identity of a
paper is its ``anthology_id``; identity of a conference is its ``conf_id``
(``"<venue_key>-<year>"``).
"""
from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass, field
from enum import Enum
from urllib.parse import urlparse

from .errors import EmptyInput

VENUE_KEY_RE = re.compile(r"[a-z0-9_-]+")  # matched with fullmatch
YEAR_MIN = 1950
YEAR_MAX = 2100

_WS_RE = re.compile(r"\s+")
# The C0 control characters that are not whitespace.  SQLite's json_each
# cuts a decoded string at U+0000, so no stored normalized name may hold one.
_C0_RE = re.compile(r"[\x00-\x08\x0e-\x1b]")
_NON_TOKEN_RE = re.compile(r"[^a-z0-9]+")


class Category(str, Enum):
    """Top-level grouping of venues on the site index."""

    ACL_EVENT = "acl_event"
    NON_ACL_EVENT = "non_acl_event"


class Kind(str, Enum):
    """Publication format.

    Journals, tutorials, and workshops are all recorded under the single
    kind ``conference``: the venues share one web structure, so the crawler
    treats every publication format uniformly.
    """

    CONFERENCE = "conference"


class CrawlStatus(str, Enum):
    PENDING = "pending"
    STORED = "stored"
    FAILED = "failed"


def _strip_diacritics(text: str) -> str:
    # Compatibility decomposition, then drop combining marks: deterministic
    # and locale-independent.
    decomposed = unicodedata.normalize("NFKD", text)
    return "".join(ch for ch in decomposed if not unicodedata.combining(ch))


def canonical_venue(raw: str) -> str:
    """Collapse a printed venue name to its canonical lowercase token.

    Casefolds, strips diacritics, and replaces every run of whitespace or
    punctuation with ``-``.  Idempotent on its own output.

    Raises:
        EmptyInput: if ``raw`` is empty or no token characters survive.
    """
    if not raw or not raw.strip():
        raise EmptyInput("venue name is empty")
    folded = _strip_diacritics(raw.strip()).casefold()
    token = _NON_TOKEN_RE.sub("-", folded).strip("-")
    if not token:
        raise EmptyInput(f"no token characters in venue name {raw!r}")
    return token


@dataclass(frozen=True, slots=True)
class AuthorName:
    """An author as printed, plus the normalized form used for matching."""

    full: str
    normalized: str


def normalize_author(full: str) -> AuthorName:
    """Build an AuthorName from the display form.

    ``normalized`` is a pure function of ``full``:
    casefold(strip_diacritics(collapse_whitespace(trim(drop_controls(full))))),
    where drop_controls removes the C0 controls that are not whitespace
    (U+0000-U+0008, U+000E-U+001B); the display form is
    collapse_whitespace(trim(drop_controls(full))).

    Raises:
        EmptyInput: if ``full`` or ``normalized`` would be empty (``"´"``
            decomposes to a space and a combining mark).
    """
    trimmed = _C0_RE.sub("", full).strip() if full else ""
    if not trimmed:
        raise EmptyInput("author name is empty")
    collapsed = _WS_RE.sub(" ", trimmed)
    if collapsed.isascii():
        # Decomposition and mark removal leave ASCII as it is, and on ASCII
        # casefold() is lower().
        return AuthorName(full=collapsed, normalized=collapsed.lower())
    # Compatibility decomposition can itself introduce whitespace (e.g. a
    # spacing macron decomposes to space + combining mark), so collapse again.
    normalized = _WS_RE.sub(" ", _strip_diacritics(collapsed).casefold()).strip()
    if not normalized:
        raise EmptyInput(f"author name {full!r} is empty once normalized")
    return AuthorName(full=collapsed, normalized=normalized)


# The origin of a plain http(s) URL: a URL this matches at its start has,
# by urlparse, this scheme and netloc, for the netloc runs to the first "/",
# "?" or "#" and holds nothing urlparse checks or strips (brackets,
# non-ASCII, whitespace).
PLAIN_ORIGIN_RE = re.compile(r"https?://[A-Za-z0-9.-]+(?::[0-9]*)?(?=[/?#]|\Z)")


def is_absolute_url(url: str) -> bool:
    """Whether ``urlparse`` gives ``url`` scheme http(s) and a netloc.

    Raises:
        ValueError: where ``urlparse`` raises it (a malformed IPv6 netloc).
    """
    if PLAIN_ORIGIN_RE.match(url):
        return True
    parts = urlparse(url)
    return parts.scheme in ("http", "https") and bool(parts.netloc)


@dataclass(frozen=True, slots=True)
class PaperRecord:
    """One publication: the data unit recorded for literature retrieval.

    Two PaperRecords are the *same paper* for set purposes iff their
    ``anthology_id`` values are equal; dataclass equality stays full-field so
    round-trip tests can compare records exactly.
    """

    anthology_id: str
    title: str
    authors: tuple[AuthorName, ...]
    venue_key: str
    year: int
    page_url: str
    pdf_url: str | None = None
    abstract: str | None = None
    bibkey: str | None = None

    def __post_init__(self) -> None:
        if not self.anthology_id:
            raise ValueError("anthology_id must be non-empty")
        if not self.title:
            raise ValueError("title must be non-empty")
        for author in self.authors:
            if not author.normalized or author.normalized.isspace():
                raise ValueError(f"blank normalized name of author {author.full!r}")
        if VENUE_KEY_RE.fullmatch(self.venue_key) is None:
            raise ValueError(f"venue_key {self.venue_key!r} must match [a-z0-9_-]+")
        if not YEAR_MIN <= self.year <= YEAR_MAX:
            raise ValueError(f"year {self.year} outside [{YEAR_MIN}, {YEAR_MAX}]")
        if not is_absolute_url(self.page_url):
            raise ValueError(f"page_url {self.page_url!r} must be absolute")
        if self.pdf_url is not None and not is_absolute_url(self.pdf_url):
            raise ValueError(f"pdf_url {self.pdf_url!r} must be absolute")


@dataclass(frozen=True, slots=True)
class CrawlLog:
    """Bookkeeping recorded while crawling one conference."""

    status: CrawlStatus = CrawlStatus.PENDING
    attempts: int = 0
    last_error: str | None = None
    fetched_at: str | None = None  # UTC ISO-8601
    paper_count: int | None = None

    def __post_init__(self) -> None:
        if self.attempts < 0:
            raise ValueError("attempts must be non-negative")
        if self.status is CrawlStatus.STORED and self.paper_count is None:
            raise ValueError("stored log needs paper_count")
        if self.status is CrawlStatus.FAILED and not self.last_error:
            raise ValueError("failed log needs last_error")
        if self.status is not CrawlStatus.PENDING and self.attempts < 1:
            raise ValueError("non-pending log needs attempts >= 1")
        if self.paper_count is not None and self.paper_count < 0:
            raise ValueError("paper_count must be non-negative")


@dataclass(frozen=True, slots=True)
class ConferenceRecord:
    """One event entry (venue x year) acting as a crawl index unit."""

    conf_id: str
    venue_key: str
    year: int
    title: str
    url: str
    category: Category
    desc: str | None = None
    kind: Kind = Kind.CONFERENCE
    crawl_log: CrawlLog = field(default_factory=CrawlLog)

    def __post_init__(self) -> None:
        if VENUE_KEY_RE.fullmatch(self.venue_key) is None:
            raise ValueError(f"venue_key {self.venue_key!r} must match [a-z0-9_-]+")
        if not YEAR_MIN <= self.year <= YEAR_MAX:
            raise ValueError(f"year {self.year} outside [{YEAR_MIN}, {YEAR_MAX}]")
        if self.conf_id != make_conf_id(self.venue_key, self.year):
            raise ValueError(f"conf_id {self.conf_id!r} != {self.venue_key}-{self.year}")
        if not self.title:
            raise ValueError("title must be non-empty")
        if not is_absolute_url(self.url):
            raise ValueError(f"url {self.url!r} must be absolute")


@dataclass(frozen=True, slots=True)
class ConContent:
    """Transient crawl-hop payload: links discovered on a proceedings page.

    Never persisted -- the store has no operation accepting it.  It only
    carries what the next crawl hop needs.
    """

    conference: ConferenceRecord
    paper_page_links: tuple[str, ...]
    next_page_links: tuple[str, ...] = ()


def make_conf_id(venue_key: str, year: int) -> str:
    return f"{venue_key}-{year}"


def parse_conf_id(conf_id: str) -> tuple[str, int]:
    """Recover (venue_key, year) from a conf_id; exact round-trip."""
    venue_key, _, year_text = conf_id.rpartition("-")
    if not venue_key or not year_text.isdigit():
        raise ValueError(f"malformed conf_id {conf_id!r}")
    return venue_key, int(year_text)
