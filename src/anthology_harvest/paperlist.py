"""Set algebra, rule-based filtering, and statistics over groups of papers.

A PaperList is an ordered collection deduplicated by ``anthology_id``; that
id is the only identity used by the set operations, and when two equal-id
records disagree on other fields the left operand wins.  Every operation
returns a new list with a deterministic order, stated per operation, so
outputs are golden-testable.
"""
from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

from .errors import BadDims, EmptyRuleSet
from .model import PaperRecord, canonical_venue, normalize_author

STAT_DIMS = ("year", "venue_key", "author")

_RULE_KINDS = (
    "keyword_any", "keyword_all", "author", "venue_in", "year_between", "has_abstract",
)

_TITLE_WORD_RE = re.compile(r"[a-z0-9]+")


@dataclass(frozen=True)
class FilterRule:
    """One predicate over a paper; build via the class methods.

    Keyword rules match case-insensitively anywhere in title plus abstract;
    author rules match substrings of normalized author names.
    """

    kind: str
    payload: Any = None

    def __post_init__(self) -> None:
        if self.kind not in _RULE_KINDS:
            raise ValueError(f"unknown rule kind {self.kind!r}")
        if self.kind in ("keyword_any", "keyword_all") and not self.payload:
            raise ValueError(f"{self.kind} needs a non-empty keyword list")

    @classmethod
    def keyword_any(cls, keywords: Iterable[str]) -> "FilterRule":
        return cls("keyword_any", tuple(keywords))

    @classmethod
    def keyword_all(cls, keywords: Iterable[str]) -> "FilterRule":
        return cls("keyword_all", tuple(keywords))

    @classmethod
    def author(cls, name: str) -> "FilterRule":
        return cls("author", normalize_author(name).normalized)

    @classmethod
    def venue_in(cls, venues: Iterable[str]) -> "FilterRule":
        return cls("venue_in", frozenset(canonical_venue(v) for v in venues))

    @classmethod
    def year_between(cls, start: int, end: int) -> "FilterRule":
        if start > end:
            raise ValueError("year_between needs start <= end")
        return cls("year_between", (start, end))

    @classmethod
    def has_abstract(cls) -> "FilterRule":
        return cls("has_abstract")

    def matches(self, record: PaperRecord) -> bool:
        if self.kind in ("keyword_any", "keyword_all"):
            haystack = (record.title + " " + (record.abstract or "")).casefold()
            hits = (kw.casefold() in haystack for kw in self.payload)
            return any(hits) if self.kind == "keyword_any" else all(hits)
        if self.kind == "author":
            return any(self.payload in a.normalized for a in record.authors)
        if self.kind == "venue_in":
            return record.venue_key in self.payload
        if self.kind == "year_between":
            start, end = self.payload
            return start <= record.year <= end
        return bool(record.abstract and record.abstract.strip())


@dataclass(frozen=True)
class PaperList:
    """Ordered, identity-deduplicated collection of PaperRecords."""

    items: tuple[PaperRecord, ...] = ()

    def __post_init__(self) -> None:
        ids = [p.anthology_id for p in self.items]
        if len(ids) != len(set(ids)):
            raise ValueError("PaperList items must be unique by anthology_id")

    @classmethod
    def from_iterable(cls, records: Iterable[PaperRecord]) -> "PaperList":
        """Build a list, dropping later duplicates of the same id."""
        seen: set[str] = set()
        kept = []
        for rec in records:
            if rec.anthology_id not in seen:
                seen.add(rec.anthology_id)
                kept.append(rec)
        return cls(items=tuple(kept))

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[PaperRecord]:
        return iter(self.items)

    def ids(self) -> tuple[str, ...]:
        return tuple(p.anthology_id for p in self.items)

    # Thin method forms of the module-level set operations.
    def union(self, other: "PaperList") -> "PaperList":
        return union(self, other)

    def intersect(self, other: "PaperList") -> "PaperList":
        return intersect(self, other)

    def complement(self, universe: "PaperList") -> "PaperList":
        return complement(self, universe)

    def filter(self, rules: Iterable[FilterRule], combine: str = "all") -> "PaperList":
        return filter_papers(self, rules, combine)

    def stats(self, dims: Iterable[str]) -> dict:
        return stats(self, dims)

    def sort(self, key: str, direction: str = "asc") -> "PaperList":
        return sort_papers(self, key, direction)

    def top_k(self, k: int) -> "PaperList":
        return top_k(self, k)

    # -- serialization -----------------------------------------------------

    def to_jsonl(self) -> str:
        """One JSON object per line, fixed field order, absent fields null."""
        lines = []
        for p in self.items:
            lines.append(json.dumps({
                "anthology_id": p.anthology_id,
                "title": p.title,
                "authors": [a.full for a in p.authors],
                "venue_key": p.venue_key,
                "year": p.year,
                "page_url": p.page_url,
                "pdf_url": p.pdf_url,
                "abstract": p.abstract,
                "bibkey": p.bibkey,
            }, ensure_ascii=False))
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_jsonl(cls, text: str) -> "PaperList":
        records = []
        for line in text.splitlines():
            if not line.strip():
                continue
            raw = json.loads(line)
            records.append(PaperRecord(
                anthology_id=raw["anthology_id"],
                title=raw["title"],
                authors=tuple(normalize_author(a) for a in raw["authors"]),
                venue_key=raw["venue_key"],
                year=raw["year"],
                page_url=raw["page_url"],
                pdf_url=raw.get("pdf_url"),
                abstract=raw.get("abstract"),
                bibkey=raw.get("bibkey"),
            ))
        return cls.from_iterable(records)

    def to_csv(self) -> str:
        """RFC-4180 CSV with a header row; authors joined by '; '."""
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["anthology_id", "title", "authors", "venue_key", "year",
                         "page_url", "pdf_url", "abstract", "bibkey"])
        for p in self.items:
            writer.writerow([
                p.anthology_id, p.title, "; ".join(a.full for a in p.authors),
                p.venue_key, p.year, p.page_url,
                p.pdf_url or "", p.abstract or "", p.bibkey or "",
            ])
        return buf.getvalue()

    def to_bibtex(self) -> str:
        """@inproceedings entries; bibkey when present, else a generated key."""
        used: set[str] = set()
        chunks = []
        for p in self.items:
            key = p.bibkey or _generate_bibkey(p)
            base, n = key, 2
            while key in used:
                key = f"{base}-{n}"
                n += 1
            used.add(key)
            # Of the fields, only author can be empty (see PaperRecord's checks).
            author = " and ".join([a.full for a in p.authors])
            author = f"  author = {{{_bib_escape(author)}}},\n" if author else ""
            chunks.append(
                f"@inproceedings{{{key},\n{author}"
                f"  title = {{{_bib_escape(p.title)}}},\n"
                f"  year = {{{p.year}}},\n"
                f"  booktitle = {{Proceedings of "
                f"{_bib_escape(p.venue_key.upper())} {p.year}}},\n"
                f"  url = {{{_bib_escape(p.page_url)}}}\n}}")
        return "\n\n".join(chunks) + ("\n" if chunks else "")


def _bib_escape(value: str) -> str:
    return value.replace("{", "").replace("}", "").replace("\n", " ")


def _generate_bibkey(p: PaperRecord) -> str:
    surname = p.authors[0].normalized.split()[-1] if p.authors else "noauthor"
    match = _TITLE_WORD_RE.search(p.title.casefold())
    first_word = match.group(0) if match else "untitled"
    return f"{surname}{p.year}{first_word}".casefold()


def union(a: PaperList, b: PaperList) -> PaperList:
    """Identity-set union: a's order, then b's unseen items."""
    return PaperList.from_iterable(list(a.items) + list(b.items))


def intersect(a: PaperList, b: PaperList) -> PaperList:
    """Identity-set intersection; order follows a."""
    b_ids = set(b.ids())
    return PaperList(items=tuple(p for p in a.items if p.anthology_id in b_ids))


def complement(a: PaperList, universe: PaperList) -> PaperList:
    """Items of the universe not in a; order follows the universe."""
    a_ids = set(a.ids())
    return PaperList(items=tuple(p for p in universe.items if p.anthology_id not in a_ids))


def check_rules(rules: Iterable[FilterRule], combine: str) -> list[FilterRule]:
    """The rule list, once checked; shared by every filter implementation.

    Raises:
        EmptyRuleSet: if no rules were given.
    """
    rule_list = list(rules)
    if not rule_list:
        raise EmptyRuleSet("filter needs at least one rule")
    if combine not in ("all", "any"):
        raise ValueError(f"combine must be 'all' or 'any', got {combine!r}")
    return rule_list


def filter_papers(a: PaperList, rules: Iterable[FilterRule],
                  combine: str = "all") -> PaperList:
    """Keep the papers satisfying the combined rule set, order preserved.

    Raises:
        EmptyRuleSet: if no rules were given.
    """
    rule_list = check_rules(rules, combine)
    combiner: Callable[[Iterable[bool]], bool] = all if combine == "all" else any
    return PaperList(items=tuple(
        p for p in a.items if combiner(rule.matches(p) for rule in rule_list)
    ))


def _dim_keys(record: PaperRecord, dim: str) -> list:
    if dim == "year":
        return [record.year]
    if dim == "venue_key":
        return [record.venue_key]
    # One count per (paper, author) pair, keyed by normalized name.
    seen: set[str] = set()
    keys = []
    for a in record.authors:
        if a.normalized not in seen:
            seen.add(a.normalized)
            keys.append(a.normalized)
    return keys


def check_dims(dims: Iterable[str]) -> list[str]:
    """The dimension list, once checked; shared by every stats implementation.

    Raises:
        BadDims: empty, duplicated, or unknown dimensions.
    """
    dim_list = list(dims)
    if not dim_list:
        raise BadDims("stats needs at least one dimension")
    if len(dim_list) != len(set(dim_list)):
        raise BadDims(f"duplicate dimensions in {dim_list}")
    unknown = [d for d in dim_list if d not in STAT_DIMS]
    if unknown:
        raise BadDims(f"unknown dimensions {unknown}; pick from {list(STAT_DIMS)}")
    return dim_list


def stats(a: PaperList, dims: Iterable[str]) -> dict:
    """Nested counts grouped by the dimension tuple.

    For non-author dimensions the counts over the map sum to ``len(a)``;
    the author dimension counts one per (paper, author) pair.

    Raises:
        BadDims: empty, duplicated, or unknown dimensions.
    """
    dim_list = check_dims(dims)

    def count_into(records: list[PaperRecord], remaining: list[str]) -> dict | int:
        dim, rest = remaining[0], remaining[1:]
        buckets: dict[Any, list[PaperRecord]] = {}
        for rec in records:
            for key in _dim_keys(rec, dim):
                buckets.setdefault(key, []).append(rec)
        if rest:
            return {key: count_into(vals, rest) for key, vals in sorted(buckets.items(), key=lambda kv: str(kv[0]))}
        return {key: len(vals) for key, vals in sorted(buckets.items(), key=lambda kv: str(kv[0]))}

    result = count_into(list(a.items), dim_list)
    return result if isinstance(result, dict) else {}


_SORT_KEYS = {
    "year": lambda p: p.year,
    "title": lambda p: p.title,
    "venue_key": lambda p: p.venue_key,
}


def sort_papers(a: PaperList, key: str, direction: str = "asc") -> PaperList:
    """Stable sort by one field."""
    if key not in _SORT_KEYS:
        raise ValueError(f"sort key must be one of {sorted(_SORT_KEYS)}, got {key!r}")
    if direction not in ("asc", "desc"):
        raise ValueError(f"direction must be 'asc' or 'desc', got {direction!r}")
    ordered = sorted(a.items, key=_SORT_KEYS[key], reverse=(direction == "desc"))
    return PaperList(items=tuple(ordered))


def top_k(a: PaperList, k: int) -> PaperList:
    """The first min(k, len(a)) items."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return PaperList(items=a.items[:k])
