"""One page reader for every page kind.

``htmldoc.parse_html`` reads a page into a flat ``Page``; it must hold
exactly the elements, nesting and text of the tree reference in
``_oracle``.  ``parse_index``, ``parse_venue_page`` and ``classify_page``
read that ``Page``; each must give what its tree-based reference gives:
the same result or exception, and the same logged warnings.
"""
import html as html_mod
import logging

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import _oracle
from anthology_harvest import Category, htmldoc
from anthology_harvest.parser import classify_page, parse_index, parse_venue_page
from conftest import FIXTURES
from test_parser_pass import pages as proceedings_pages

BASE_URLS = (None, "https://fallback.test/dir/page.html")


class _Recorder(logging.Handler):
    def __init__(self) -> None:
        super().__init__(logging.DEBUG)
        self.messages: list[tuple[str, str]] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.messages.append((record.levelname, record.getMessage()))


def outcome(read, logger_name: str, *args, **kwargs):
    """What ``read`` gives: its result or its exception, and its log."""
    logger = logging.getLogger(logger_name)
    recorder = _Recorder()
    level = logger.level
    logger.addHandler(recorder)
    logger.setLevel(logging.DEBUG)
    try:
        result = read(*args, **kwargs)
    except Exception as exc:  # the exception itself is part of the contract
        result = type(exc), str(exc)
    finally:
        logger.removeHandler(recorder)
        logger.setLevel(level)
    return result, recorder.messages


def assert_same(page: str) -> None:
    for base_url in BASE_URLS:
        assert (outcome(parse_index, "anthology_harvest.parser", page, base_url=base_url)
                == outcome(_oracle.parse_index, "_oracle", page, base_url=base_url))
        assert (outcome(parse_venue_page, "anthology_harvest.parser", page,
                        Category.ACL_EVENT, "acl", base_url=base_url)
                == outcome(_oracle.parse_venue_page, "_oracle", page,
                           Category.ACL_EVENT, "acl", base_url=base_url))
    assert (outcome(classify_page, "anthology_harvest.parser", page, "p.html")
            == outcome(_oracle.classify_page, "_oracle", page, "p.html"))


def flat(page: htmldoc.Page) -> list:
    """The ``Page`` in the form of ``_oracle.flatten``."""
    out = []
    before = 0
    chunk = 0
    for element in page.elements:
        before += sum(len(text) for text in page.chunks[chunk:element.start])
        chunk = element.start
        out.append((element.tag, {name: element.get(name) for name, _ in element.attrs},
                    element.parent, element.last, before,
                    "".join(page.chunks[element.start:element.end])))
    return out + ["".join(page.chunks)]


def assert_same_structure(page: str) -> None:
    assert flat(htmldoc.parse_html(page)) == _oracle.flatten(_oracle.parse_tree(page))


# -- generated index and venue pages ---------------------------------------------------

_TEXT = st.sampled_from([
    "", " ", "ACL", "  EMNLP\n\t2022 ", "2021", " 2022 ", "20x", "1999", "Findings &amp; more",
    "caf&eacute; &#233;", "x&nbsp;y", "AT&T", "Hybrid event",
])
_HREF = st.sampled_from([
    None, "", "/venues/acl.html", "/venues/emnlp.html", "venues/naacl.html",
    "https://other.test/v/coling.html", "/proceedings/acl-2022.html",
    "proceedings/acl-2021.html", "?year=2020", "../up/acl-2019.html", "#top",
])
_MARKERS = ("venue-index", "venue-link", "venue-page", "year-heading", "proceedings-link",
            "event-desc", "proceedings-page", "paper-detail")
_CLASS = st.one_of(
    st.none(),
    st.lists(st.sampled_from(_MARKERS + ("x",)), max_size=2).map(" ".join))
_CATEGORY = st.sampled_from([None, "", "acl-events", "non-acl-events", "bogus"])
_TAG = st.sampled_from(["a", "a", "div", "section", "ul", "li", "h4", "span", "p"])

# Markup a tree cannot nest into: void and self-closing tags, stray end
# tags, a comment, a late <base>; plus marked elements in each form.
_RAW = st.sampled_from([
    "<br>", "<br/>", "<hr>", '<hr class="venue-index">', '<img class="venue-link"/>',
    '<input class="year-heading">', "</section>", "</a>", "</li>", "</h4>", "</ul>",
    "<!-- <a class=venue-link href=/c.html>c</a> -->", '<base href="https://late.test/">',
    '<a class="venue-link" href="/venues/acl.html"/>', '<span class="event-desc"/>',
    '<a class="proceedings-link" href="/proceedings/acl-2023.html"/>',
    '<h4 class="year-heading">2020 <a class="proceedings-link" '
    'href="/proceedings/acl-2020.html">Inside the heading</a></h4>',
    '<h4 class="year-heading">2018</h4>', '<h4 class="year-heading">2018',
    '<span class="event-desc">Online</span>', '<span class="event-desc"> </span>',
    '<a class="venue-link" href="/venues/acl.html">Duplicate ACL</a>',
    '<a class="venue-link" href="/venues/tacl.html" class="x">Last class wins</a>',
    '<a class="venue-link" href="/venues/tacl.html" href="">Last href wins</a>',
    '<section class="venue-index" data-category>', '<div class="paper-detail">',
])


@st.composite
def _attrs(draw) -> str:
    out = []
    for _ in range(draw(st.integers(0, 3))):
        name = draw(st.sampled_from(["class", "class", "href", "data-category"]))
        value = draw(_CLASS if name == "class" else _HREF if name == "href" else _CATEGORY)
        out.append(f" {name}" if value is None else f' {name}="{html_mod.escape(value)}"')
    return "".join(out)


def _element(children):
    def render(tag, attrs, kids, end):
        if end == "self-closing":
            return f"<{tag}{attrs}/>"
        return f"<{tag}{attrs}>{''.join(kids)}" + (f"</{tag}>" if end == "closed" else "")
    return st.builds(render, _TAG, _attrs(), st.lists(children, max_size=4),
                     st.sampled_from(["closed", "closed", "closed", "unclosed", "self-closing"]))


def _year(children):
    def render(year, link, desc, kids, listed):
        group = f'{link}{desc}{"".join(kids)}'
        return f'<h4 class="year-heading">{year}</h4>' + (
            f"<ul><li>{group}</li></ul>" if listed else group)
    link = st.builds(
        lambda href, text: f'<a class="proceedings-link" href="{href}">{text}</a>',
        _HREF.filter(lambda h: h is not None), _TEXT)
    desc = st.sampled_from(["", ' <span class="event-desc">Hybrid &amp; online</span>',
                            '<span class="event-desc">Online</span>',
                            '<span class="event-desc"></span>'])
    year = st.sampled_from(["2021", " 2022 ", "2023", "2023", "20x", ""])
    return st.builds(render, year, link, desc, st.lists(children, max_size=2),
                     st.booleans())


def _section(children):
    def render(marker, category, kids, end):
        attrs = ("" if category is None else " data-category" if category == "valueless"
                 else f' data-category="{category}"')
        return f'<section class="{marker}"{attrs}>' + "".join(kids) + end
    return st.builds(render, st.sampled_from(["venue-index", "venue-page"]),
                     st.one_of(st.just("valueless"), _CATEGORY),
                     st.lists(children, max_size=5),
                     st.sampled_from(["</section>", "</section>", ""]))


_TREES = st.recursive(
    st.one_of(_TEXT, _RAW),
    lambda children: st.one_of(_element(children), _year(children), _section(children)),
    max_leaves=30)

_BASES = ('<base href="https://anthology.test/">', '<base href="https://mirror.test/site/">',
          '<base href="">', "<base>")


@st.composite
def small_pages(draw) -> str:
    base = draw(st.sampled_from(("",) + _BASES))
    base_at = draw(st.sampled_from(["head", "end"]))
    body = "".join(draw(st.lists(st.one_of(_section(_TREES), _TREES), max_size=5)))
    return ("<html><head>" + (base if base_at == "head" else "") + "</head><body>"
            + body + (base if base_at == "end" else "") + "</body></html>")


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_pages())
# A link placed directly in the section takes no desc.
@example('<section class="venue-page"><h4 class="year-heading">2022</h4>'
         '<a class="proceedings-link" href="/p/x-2022.html">P</a>'
         '<span class="event-desc">Shared</span></section>')
def test_generated_pages_match_the_tree_reference(page):
    assert_same(page)


@pytest.mark.parametrize("path", [FIXTURES / "index.html",
                                  *sorted((FIXTURES / "venues").glob("*.html"))],
                         ids=lambda p: p.name)
def test_fixture_pages_match_the_tree_reference(path):
    assert_same(path.read_text(encoding="utf-8"))


def test_generated_pages_reach_every_outcome():
    """The generator yields venues, conferences, descs and warnings, not only errors."""
    found = {"venues": False, "conferences": False, "desc": False, "warnings": False,
             "error": False}

    @settings(max_examples=200, deadline=None, database=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(small_pages())
    def probe(page):
        venues, log = outcome(parse_index, "anthology_harvest.parser", page,
                              base_url=BASE_URLS[1])
        records, venue_log = outcome(parse_venue_page, "anthology_harvest.parser", page,
                                     Category.ACL_EVENT, "acl", base_url=BASE_URLS[1])
        # A result is a list; an exception comes back as a (type, message) tuple.
        found["error"] |= isinstance(venues, tuple) or isinstance(records, tuple)
        found["venues"] |= isinstance(venues, list) and bool(venues)
        if isinstance(records, list):
            found["conferences"] |= bool(records)
            found["desc"] |= any(record.desc for record in records)
        found["warnings"] |= bool(log) or bool(venue_log)

    probe()
    assert all(found.values()), found


# -- the flat page against the tree ----------------------------------------------------

@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(small_pages(), proceedings_pages()))
def test_generated_pages_read_as_the_tree(page):
    assert_same_structure(page)


@pytest.mark.parametrize("path", sorted(FIXTURES.rglob("*.html")), ids=lambda p: p.name)
def test_fixture_pages_read_as_the_tree(path):
    assert_same_structure(path.read_text(encoding="utf-8"))
