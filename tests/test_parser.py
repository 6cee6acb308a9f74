import logging
import re

import pytest

from anthology_harvest import (
    Category,
    EmptyInput,
    Kind,
    PageKind,
    PaperList,
    StructureError,
    UnrecognizedPage,
    classify_page,
    parse_index,
    parse_proceedings,
    parse_venue_page,
)
from anthology_harvest.parser import anthology_id_from_url
from conftest import make_conference

BASE_HEAD = ('<html><head><base href="https://anthology.test/"></head><body>')


def wrap(body: str) -> str:
    return BASE_HEAD + body + "</body></html>"


@pytest.fixture(scope="module")
def corpus(fixtures_root):
    def read(rel):
        return (fixtures_root / rel).read_text(encoding="utf-8")
    return read


class TestClassify:
    def test_fixture_pages(self, corpus):
        assert classify_page(corpus("index.html"), "index.html") is PageKind.INDEX
        assert classify_page(corpus("venues/acl.html"), "acl") is PageKind.VENUE
        assert classify_page(corpus("proceedings/acl-2022.html"), "p") is PageKind.PROCEEDINGS

    def test_paper_marker(self):
        html = wrap('<div class="paper-detail">x</div>')
        assert classify_page(html, "paper") is PageKind.PAPER

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            classify_page("", "nothing")

    def test_unrecognized(self):
        with pytest.raises(UnrecognizedPage):
            classify_page("<html><body><p>hello</p></body></html>", "x")


class TestParseIndex:
    def test_corpus_index(self, corpus):
        rows = parse_index(corpus("index.html"))
        assert len(rows) == 5
        assert [c for c, _, _ in rows].count(Category.ACL_EVENT) == 3
        names = [name for _, name, _ in rows]
        assert names == ["ACL", "EMNLP", "NAACL", "COLING", "TACL"]
        for _, _, url in rows:
            assert url.startswith("https://anthology.test/venues/")

    def test_empty_non_acl_section(self):
        html = wrap(
            '<section class="venue-index" data-category="acl-events">'
            '<a class="venue-link" href="/venues/acl.html">ACL</a></section>'
            '<section class="venue-index" data-category="non-acl-events"></section>')
        rows = parse_index(html)
        assert [c for c, _, _ in rows] == [Category.ACL_EVENT]

    def test_duplicate_link_dropped_with_warning(self, caplog):
        html = wrap(
            '<section class="venue-index" data-category="acl-events">'
            '<a class="venue-link" href="/venues/acl.html">ACL</a>'
            '<a class="venue-link" href="/venues/acl.html">ACL</a></section>')
        with caplog.at_level(logging.WARNING, logger="anthology_harvest.parser"):
            rows = parse_index(html)
        assert len(rows) == 1
        assert sum("duplicate venue link" in r.message for r in caplog.records) == 1

    def test_no_sections_raises(self):
        with pytest.raises(StructureError):
            parse_index("<html><body></body></html>")

    def test_link_not_http_skipped_with_warning(self, caplog):
        html = wrap(
            '<section class="venue-index" data-category="acl-events">'
            '<a class="venue-link" href="mailto:x@anthology.test">Mail</a>'
            '<a class="venue-link" href="/venues/acl.html">ACL</a></section>')
        with caplog.at_level(logging.WARNING, logger="anthology_harvest.parser"):
            rows = parse_index(html)
        assert rows == [(Category.ACL_EVENT, "ACL", "https://anthology.test/venues/acl.html")]
        assert [r.getMessage() for r in caplog.records] == [
            "skipping venue link 'mailto:x@anthology.test': not http(s)"]


class TestParseVenuePage:
    def test_corpus_acl(self, corpus):
        records = parse_venue_page(corpus("venues/acl.html"),
                                   Category.ACL_EVENT, "acl")
        assert [r.conf_id for r in records] == [
            "acl-2023", "acl-2022", "acl-2021", "acl-2020", "acl-2019"]
        assert all(r.crawl_log.status.value == "pending" for r in records)
        assert all(r.kind is Kind.CONFERENCE for r in records)
        assert records[0].url == "https://anthology.test/proceedings/acl-2023.html"

    def test_tutorial_label_still_conference(self, corpus):
        records = parse_venue_page(corpus("venues/tacl.html"),
                                   Category.NON_ACL_EVENT, "tacl")
        tutorials = [r for r in records if r.title == "Tutorial Abstracts"]
        assert len(tutorials) == 1
        assert tutorials[0].kind is Kind.CONFERENCE
        assert tutorials[0].year == 2019

    def test_single_year(self):
        html = wrap(
            '<section class="venue-page"><h4 class="year-heading">2020</h4>'
            '<a class="proceedings-link" href="/proceedings/x-2020.html">P</a>'
            "</section>")
        records = parse_venue_page(html, Category.ACL_EVENT, "x")
        assert len(records) == 1
        assert records[0].conf_id == "x-2020"

    def test_no_year_links_raises(self):
        html = wrap('<section class="venue-page"><p>nothing</p></section>')
        with pytest.raises(StructureError):
            parse_venue_page(html, Category.ACL_EVENT, "x")

    def test_desc_captured(self, corpus):
        for venue in ("acl", "emnlp", "naacl", "coling", "tacl"):
            records = parse_venue_page(corpus(f"venues/{venue}.html"),
                                       Category.ACL_EVENT, venue)
            if any(r.desc for r in records):
                return
        pytest.fail("no venue page carries an event-desc span")

    def test_desc_belongs_to_the_link_it_follows(self):
        # Two years' links and one desc in one parent: the desc follows the
        # 2022 link only.  A desc before any link, or after a second desc,
        # is no link's.
        html = wrap(
            '<section class="venue-page"><div>'
            '<span class="event-desc">Before any link</span>'
            '<h4 class="year-heading">2023</h4>'
            '<a class="proceedings-link" href="/proceedings/x-2023.html">P 2023</a>'
            '<h4 class="year-heading">2022</h4>'
            '<a class="proceedings-link" href="/proceedings/x-2022.html">P 2022</a>'
            ' <span class="event-desc">Hybrid 2022</span>'
            ' <span class="event-desc">Second desc</span>'
            "</div></section>")
        records = parse_venue_page(html, Category.ACL_EVENT, "x")
        assert [(r.year, r.desc) for r in records] == [(2023, None), (2022, "Hybrid 2022")]


    def test_links_that_make_no_conference_skipped_with_warning(self, caplog):
        # A year outside 1950..2100, a link that is not http(s), an empty
        # title: each link is skipped and logged, the page's other link kept.
        html = wrap(
            '<section class="venue-page">'
            '<h4 class="year-heading">3000</h4>'
            '<a class="proceedings-link" href="/proceedings/x-3000.html">P 3000</a>'
            '<h4 class="year-heading">2021</h4>'
            '<a class="proceedings-link" href="mailto:chairs@x.test">P 2021</a>'
            '<a class="proceedings-link" href="/proceedings/x-2021.html">P 2021</a>'
            '<h4 class="year-heading">2020</h4>'
            '<a class="proceedings-link" href="javascript:void(0)">P 2020</a>'
            '<h4 class="year-heading">2019</h4>'
            '<a class="proceedings-link" href="/proceedings/x-2019.html"></a>'
            "</section>")
        with caplog.at_level(logging.WARNING, logger="anthology_harvest.parser"):
            records = parse_venue_page(html, Category.ACL_EVENT, "x")
        assert [(r.conf_id, r.url) for r in records] == [
            ("x-2021", "https://anthology.test/proceedings/x-2021.html")]
        skipped = [m for m in caplog.messages if m.startswith("skipping proceedings link")]
        assert skipped == [
            "skipping proceedings link for x-3000: year 3000 outside [1950, 2100]",
            "skipping proceedings link for x-2021: url 'mailto:chairs@x.test' must be absolute",
            "skipping proceedings link for x-2020: url 'javascript:void(0)' must be absolute",
            "skipping proceedings link for x-2019: title must be non-empty",
        ]


class TestParseProceedings:
    def test_bad_links_fail_one_entry(self):
        # A title link that is not http(s) skips its entry; a PDF link that
        # is not only loses the PDF.
        conf = make_conference()
        html = wrap(
            '<section class="proceedings-page"><div class="paper-list">'
            '<div class="paper-entry"><a class="paper-title" href="javascript:void(0)">A</a>'
            '</div><div class="paper-entry">'
            '<a class="paper-title" href="http://[::1/2022.acl-long.2/">B</a>'
            '</div><div class="paper-entry">'
            '<a class="paper-title" href="/2022.acl-long.3/">C</a>'
            '<a class="pdf-link" href="mailto:pdf@anthology.test">pdf</a>'
            '</div><div class="paper-entry">'
            '<a class="paper-title" href="/2022.acl-long.4/">D</a>'
            '<a class="pdf-link" href="/2022.acl-long.4.pdf">pdf</a>'
            '</div></div></section>')
        _, papers, report = parse_proceedings(html, conf)
        assert [(p.anthology_id, p.pdf_url) for p in papers] == [
            ("2022.acl-long.3", None),
            ("2022.acl-long.4", "https://anthology.test/2022.acl-long.4.pdf")]
        assert report.warnings == (
            "entry 1: title link 'javascript:void(0)' is not http(s), skipped",
            "entry 2: title link 'http://[::1/2022.acl-long.2/' is not http(s), skipped",
            "entry 3: pdf link 'mailto:pdf@anthology.test' is not http(s), dropped",
        )

    def test_relative_links_without_a_base(self):
        conf = make_conference()
        html = ('<section class="proceedings-page"><div class="paper-list">'
                '<div class="paper-entry"><a class="paper-title" href="2022.acl-long.1/">A</a>'
                '</div><div class="paper-entry">'
                '<a class="paper-title" href="https://anthology.test/2022.acl-long.2/">B</a>'
                '<a class="pdf-link" href="2022.acl-long.2.pdf">pdf</a>'
                '</div></div></section>')
        _, papers, report = parse_proceedings(html, conf)
        assert [(p.anthology_id, p.pdf_url) for p in papers] == [("2022.acl-long.2", None)]
        assert report.warnings == (
            "entry 1: title link '2022.acl-long.1/' is not http(s), skipped",
            "entry 2: pdf link '2022.acl-long.2.pdf' is not http(s), dropped",
        )

    def test_author_empty_once_normalized_skipped_with_warning(self):
        html = wrap(
            '<section class="proceedings-page"><div class="paper-list">'
            '<div class="paper-entry"><a class="paper-title" href="/2022.acl-long.1/">A</a>'
            '<span class="paper-authors"><a>´</a><a>Ada Lovelace</a><a>\x01</a></span>'
            '</div></div></section>')
        _, papers, report = parse_proceedings(html, make_conference())
        assert [a.full for a in papers[0].authors] == ["Ada Lovelace"]
        assert report.warnings == (
            "entry 1: author '´' is empty once normalized, skipped",
            "entry 1: author '\\x01' is empty once normalized, skipped",
        )

    def test_titleless_entry_skipped_with_warning(self, corpus, manifest):
        conf = make_conference(venue="coling", year=2019,
                               category=Category.NON_ACL_EVENT)
        _, papers, report = parse_proceedings(
            corpus("proceedings/coling-2019.html"), conf)
        page = next(p for p in manifest["pages"]
                    if p["path"] == "proceedings/coling-2019.html")
        assert len(papers) == page["expected_records"]
        assert report.records_extracted == len(papers)
        assert sum("no title" in w for w in report.warnings) == 1

    def test_plain_author_span_split(self, corpus):
        conf = make_conference(venue="acl", year=2019)
        _, papers, _ = parse_proceedings(corpus("proceedings/acl-2019.html"), conf)
        entry = next(p for p in papers if p.anthology_id == "2019.acl-long.900")
        assert [a.full for a in entry.authors] == [
            "Ann Alpha", "Bob Beta", "Carol Gamma"]

    def test_empty_container_is_not_an_error(self):
        conf = make_conference()
        html = wrap('<section class="proceedings-page">'
                    '<div class="paper-list"></div></section>')
        _, papers, report = parse_proceedings(html, conf)
        assert papers == []
        assert report.records_extracted == 0

    def test_missing_container_raises(self):
        conf = make_conference()
        with pytest.raises(StructureError):
            parse_proceedings(wrap("<p>no list here</p>"), conf)

    def test_inheritance(self, corpus):
        conf = make_conference(venue="emnlp", year=2022)
        _, papers, _ = parse_proceedings(corpus("proceedings/emnlp-2022.html"), conf)
        assert papers
        assert all((p.venue_key, p.year) == ("emnlp", 2022) for p in papers)

    def test_determinism(self, corpus):
        conf = make_conference(venue="naacl", year=2022)
        html = corpus("proceedings/naacl-2022.html")
        first = parse_proceedings(html, conf)
        second = parse_proceedings(html, conf)
        assert first[1] == second[1]
        assert first[0] == second[0]
        assert first[2] == second[2]
        one = PaperList(items=tuple(first[1])).to_jsonl()
        two = PaperList(items=tuple(second[1])).to_jsonl()
        assert one.encode() == two.encode()

    def test_optional_removal_only_touches_optionals(self, corpus):
        conf = make_conference(venue="acl", year=2021)
        html = corpus("proceedings/acl-2021.html")
        _, papers, _ = parse_proceedings(html, conf)
        stripped = re.sub(r'<div class="paper-abstract">.*?</div>\n', "", html)
        stripped = re.sub(r'<a class="pdf-link"[^>]*>pdf</a>\n', "", stripped)
        _, bare, _ = parse_proceedings(stripped, conf)
        assert len(bare) == len(papers)
        assert [p.anthology_id for p in bare] == [p.anthology_id for p in papers]
        assert all(p.abstract is None and p.pdf_url is None for p in bare)
        assert [p.title for p in bare] == [p.title for p in papers]

    def test_entity_decoding(self, corpus):
        conf = make_conference(venue="coling", year=2020,
                               category=Category.NON_ACL_EVENT)
        _, papers, _ = parse_proceedings(corpus("proceedings/coling-2020.html"), conf)
        entry = next(p for p in papers if p.anthology_id == "2020.coling-1.902")
        assert entry.title == "Parsing & Tagging for Low-Resource Morphology"

    def test_editorial_has_no_authors(self, corpus):
        conf = make_conference(venue="emnlp", year=2020)
        _, papers, _ = parse_proceedings(corpus("proceedings/emnlp-2020.html"), conf)
        entry = next(p for p in papers if p.anthology_id == "2020.emnlp-main.901")
        assert entry.authors == ()
        assert entry.pdf_url is None

    def test_pagination_links_carried(self):
        conf = make_conference()
        html = wrap(
            '<section class="proceedings-page"><div class="paper-list">'
            '<div class="paper-entry"><a class="paper-title" href="/2022.acl-long.7/">T</a></div>'
            '</div></section>'
            '<nav class="pagination"><a href="/proceedings/acl-2022-p2.html">next</a></nav>')
        next_links, papers, _ = parse_proceedings(html, conf)
        assert next_links == ["https://anthology.test/proceedings/acl-2022-p2.html"]
        assert [p.page_url for p in papers] == ["https://anthology.test/2022.acl-long.7/"]

    def test_pagination_link_not_http_skipped_with_warning(self):
        html = wrap(
            '<section class="proceedings-page"><div class="paper-list">'
            '<div class="paper-entry"><a class="paper-title" href="/2022.acl-long.7/">T</a></div>'
            '</div></section><nav class="pagination"><a href="javascript:void(0)">x</a>'
            '<a href="/proceedings/acl-2022-p2.html">next</a></nav>')
        next_links, papers, report = parse_proceedings(html, make_conference())
        assert next_links == ["https://anthology.test/proceedings/acl-2022-p2.html"]
        assert len(papers) == 1
        assert report.warnings == (
            "pagination link 'javascript:void(0)' is not http(s), skipped",)


def test_anthology_id_from_url():
    assert anthology_id_from_url("https://x.test/2022.coling-1.403/") == "2022.coling-1.403"
    assert anthology_id_from_url("https://x.test/a/b/2021.acl-long.9") == "2021.acl-long.9"


DEPTH = 5000


def nest(html: str) -> str:
    """``html`` with the body's content inside DEPTH nested ``div``s."""
    assert "<body>" in html and "</body>" in html
    return (html.replace("<body>", "<body>" + "<div>" * DEPTH)
            .replace("</body>", "</div>" * DEPTH + "</body>"))


class TestDeepPages:
    """Nesting depth beyond the recursion limit still parses fully."""

    def test_deep_index(self, corpus):
        html = corpus("index.html")
        assert len(parse_index(nest(html))) == 5
        assert parse_index(nest(html)) == parse_index(html)

    def test_deep_proceedings(self, corpus):
        conf = make_conference(venue="acl", year=2022)
        html = corpus("proceedings/acl-2022.html")
        title = "Event Extraction from Procedural Text"
        # One title's text also sits DEPTH spans deep inside its anchor.
        deep = nest(html).replace(f">{title}</a>",
                                  ">" + "<span>" * DEPTH + title + "</span>" * DEPTH + "</a>")
        assert deep.count("<span>") >= DEPTH
        next_links, papers, report = parse_proceedings(deep, conf)
        assert papers and title in [p.title for p in papers]
        assert (next_links, papers, report) == parse_proceedings(html, conf)
