import json
import random
import re
import shutil
from pathlib import Path

import pytest

from anthology_harvest import (
    AuthorName,
    Category,
    ConferenceRecord,
    CrawlLog,
    PaperRecord,
    StoreConfig,
    init_schema,
    make_conf_id,
    normalize_author,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "fixtures"

VENUE_POOL = ("acl", "emnlp", "naacl", "coling", "tacl")

_TITLE_WORDS = (
    "neural", "graph", "sparse", "robust", "latent", "adaptive", "détente",
    "übersetzung", "parsing", "retrieval", "alignment", "decoding", "señal",
    "pruning", "fusion", "anchors", "spans", "windows", "curricula",
)
_AUTHOR_POOL = (
    "Wei Chen", "José García", "Zoë Müller", "Anna Schmidt", "Liang Zhao",
    "Chloé Dubois", "Søren Holm", "Nguyễn Văn An", "Priya Sharma",
    "Łukasz Kowalski", "Elif Yilmaz", "Björn Andersson",
)


@pytest.fixture(scope="session")
def fixtures_root() -> Path:
    assert FIXTURES.is_dir(), "run tools/make_fixtures.py first"
    return FIXTURES


def copy_without_base(root: Path, dest: Path, *pages: str) -> Path:
    """Copy the corpus at ``root`` to ``dest``, removing ``<base>`` from ``pages``."""
    shutil.copytree(root, dest)
    for page in pages:
        path = dest / page
        html, removed = re.subn(r"<base [^>]*>", "", path.read_text(encoding="utf-8"))
        assert removed == 1, page
        path.write_text(html, encoding="utf-8")
    return dest


@pytest.fixture(scope="session")
def manifest(fixtures_root) -> dict:
    return json.loads((fixtures_root / "manifest.json").read_text(encoding="utf-8"))


@pytest.fixture
def mem_store():
    handle = init_schema(StoreConfig(location=":memory:"))
    yield handle
    handle.close()


def make_paper(aid: str = "2022.acl-long.1", title: str = "A Title",
               authors: tuple[str, ...] = ("Wei Chen",), venue: str = "acl",
               year: int = 2022, **optionals) -> PaperRecord:
    return PaperRecord(
        anthology_id=aid,
        title=title,
        authors=tuple(normalize_author(a) for a in authors),
        venue_key=venue,
        year=year,
        page_url=f"https://anthology.test/{aid}/",
        **optionals,
    )


def make_conference(venue: str = "acl", year: int = 2022,
                    category: Category = Category.ACL_EVENT,
                    **kwargs) -> ConferenceRecord:
    return ConferenceRecord(
        conf_id=make_conf_id(venue, year),
        venue_key=venue,
        year=year,
        title=kwargs.pop("title", f"Proceedings of {venue.upper()} {year}"),
        url=kwargs.pop("url", f"https://anthology.test/proceedings/{venue}-{year}.html"),
        category=category,
        **kwargs,
    )


def random_paper(rng: random.Random, n: int) -> PaperRecord:
    venue = rng.choice(VENUE_POOL)
    year = rng.randint(2018, 2024)
    aid = f"{year}.{venue}-t.{n}"
    title = " ".join(rng.sample(_TITLE_WORDS, rng.randint(2, 5))).title()
    authors = tuple(
        normalize_author(a) for a in rng.sample(_AUTHOR_POOL, rng.randint(0, 4)))
    return PaperRecord(
        anthology_id=aid,
        title=title,
        authors=authors,
        venue_key=venue,
        year=year,
        page_url=f"https://anthology.test/{aid}/",
        pdf_url=f"https://anthology.test/{aid}.pdf" if rng.random() < 0.7 else None,
        abstract=(" ".join(rng.sample(_TITLE_WORDS, 6)) if rng.random() < 0.6 else None),
        bibkey=(f"key-{n}" if rng.random() < 0.5 else None),
    )


def random_papers(rng: random.Random, count: int, start: int = 0) -> list[PaperRecord]:
    return [random_paper(rng, start + i) for i in range(count)]
