"""Proceedings extraction over the flat page.

``parse_proceedings`` reads a page from ``htmldoc.parse_html``'s flat
element list; it must give exactly what the tree-based reference in
``_oracle`` gives: the same papers, links, report, or the same exception.
Venue pages take each link's description from the link's own parent.
"""
import html as html_mod

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import _oracle
from anthology_harvest import Category, parse_proceedings, parse_venue_page
from conftest import FIXTURES, make_conference

CONF = make_conference(venue="acl", year=2022)
BASE_URLS = (None, "https://fallback.test/dir/page.html")


def outcome(parse, page: str, base_url: str | None):
    try:
        return parse(page, CONF, base_url=base_url)
    except Exception as exc:  # the exception itself is part of the contract
        return type(exc), str(exc)


def assert_same(page: str) -> None:
    for base_url in BASE_URLS:
        got = outcome(parse_proceedings, page, base_url)
        want = outcome(_oracle.parse_proceedings, page, base_url)
        assert got == want


# -- generated pages ------------------------------------------------------------

_TEXT = st.sampled_from([
    "", " ", "Graph Parsing", "  Zoë\n\tMüller  ", "Ann Alpha, Bob Beta and Carol",
    "and", ",", "A &amp; B", "&lt;b&gt;", "caf&eacute; &#233;t&#xE9;", "x&nbsp;y",
    "AT&T", "&bogus; &", "José García",
])
_HREF = st.sampled_from([
    None, "", "/2022.acl-long.7/", "/2022.acl-long.8", "2022.acl-long.9/",
    "https://other.test/a/2021.x-1.3", "/", "#top", "/2022.acl-long.7.pdf",
    "/proceedings/acl-2022-p2.html", "?page=3", "../up/2020.y-2.1/", "/a&amp;b/9.z-1.1/",
])
_MARKERS = ("paper-title", "paper-authors", "paper-abstract", "pdf-link", "bibkey",
            "paper-entry", "paper-list", "pagination")
_CLASS = st.one_of(
    st.none(),
    st.lists(st.sampled_from(_MARKERS + ("x", "paper")), max_size=2).map(" ".join))
_TAG = st.sampled_from(["a", "a", "div", "span", "p", "li", "nav", "strong"])

# Markup fragments a tree cannot nest into: void and self-closing tags,
# stray end tags, comments, a raw-text element.
_RAW = st.sampled_from([
    "<br>", "<br/>", "<img src='x.png'/>", "<hr>", '<input class="paper-title">',
    '<hr class="paper-list">', '<br class="pagination">',
    "</span>", "</div>", "</a>", "</nav>", "</li>",
    "<!-- a <div> in a comment -->", '<script>"<a class=paper-title>"</script>',
    '<a class="paper-title" href="/2022.acl-long.2/"/>', '<span class="bibkey"/>',
    '<base href="https://late.test/">',
])

# Entry fields, well formed and broken.
_FIELD = st.sampled_from([
    '<a class="paper-title" href="/2022.acl-long.1/">Title One</a>',
    '<strong><a class="paper-title" href="/2022.acl-long.2/">Title\n  <em>Two</em></a></strong>',
    '<a class="paper-title" href="/2022.acl-long.1/">Duplicate of One</a>',
    '<a class="paper-title">No href</a>',
    '<a class="paper-title" href="/2022.acl-long.3/"> </a>',
    '<a class="paper-title" href="https://anthology.test/">No id</a>',
    '<a href="/2022.acl-long.4/" class="x paper-title" class="paper-title">Last class wins</a>',
    '<a class="paper-title" href="/2022.acl-long.5/" href="">Last href wins</a>',
    '<span class="paper-authors"><a href="/p/a">Ann Alpha</a>, '
    '<a href="/p/b">Bob &amp; Beta</a></span>',
    '<span class="paper-authors">Ann Alpha, Bob Beta and Carol Gamma</span>',
    '<span class="paper-authors"> , and </span>',
    '<span class="paper-authors"><a href="/p"> </a> and Dan</span>',
    '<span class="paper-authors"><a><a>Nested</a> Anchors</a></span>',
    '<div class="paper-abstract">Some <em>abstract</em>\n text &eacute;</div>',
    '<div class="paper-abstract">  </div>',
    '<a class="pdf-link" href="/2022.acl-long.1.pdf">pdf</a>',
    '<a class="pdf-link">pdf</a>',
    '<a class="pdf-link" href="pdf/two.pdf"/>',
    '<span class="bibkey"> key-1\t</span>',
    '<span class="bibkey"></span>',
    '<img class="paper-entry">', '<br class="paper-authors">', '<hr class="paper-abstract">',
])


@st.composite
def _attrs(draw) -> str:
    out = []
    for _ in range(draw(st.integers(0, 3))):
        name = draw(st.sampled_from(["class", "class", "href", "id"]))
        value = draw(_CLASS if name == "class" else _HREF if name == "href" else st.just("i"))
        out.append(f" {name}" if value is None else f' {name}="{html_mod.escape(value)}"')
    return "".join(out)


def _element(children):
    def render(tag, attrs, kids, end):
        if end == "self-closing":
            return f"<{tag}{attrs}/>"
        return f"<{tag}{attrs}>{''.join(kids)}" + (f"</{tag}>" if end == "closed" else "")
    return st.builds(render, _TAG, _attrs(), st.lists(children, max_size=4),
                     st.sampled_from(["closed", "closed", "closed", "unclosed", "self-closing"]))


def _entry(children):
    def render(kids, end):
        return '<div class="paper-entry">' + "".join(kids) + end
    return st.builds(render, st.lists(st.one_of(_FIELD, _FIELD, children), max_size=6),
                     st.sampled_from(["</div>", "</div>", "</div>", ""]))


_TREES = st.recursive(
    st.one_of(_TEXT, _RAW, _FIELD),
    lambda children: st.one_of(_element(children), _entry(children), _entry(children)),
    max_leaves=30)

_BASES = ('<base href="https://anthology.test/">', '<base href="https://mirror.test/site/">',
          '<base href="">', "<base>")
_NAVS = ('<nav class="pagination"><a href="/proceedings/acl-2022-p2.html">2</a>'
         '<a>no href</a><a href="">empty</a><span><a href="p3.html">3</a></span></nav>',
         '<nav class="pagination"/>',
         '<div class="pagination"><a href="p4.html">4</a>')


@st.composite
def pages(draw) -> str:
    base = draw(st.sampled_from(("",) + _BASES))
    base_at = draw(st.sampled_from(["head", "end"]))
    nav = draw(st.sampled_from(("",) + _NAVS))
    nav_at = draw(st.sampled_from(["before", "inside", "after"]))
    container = draw(st.sampled_from(["div", "ul", "absent", "self-closing", "unclosed"]))
    second_list = draw(st.sampled_from(["", '<div class="paper-list">'
                                        '<div class="paper-entry"><a class="paper-title" '
                                        'href="/2022.acl-long.99/">Second list</a></div></div>']))
    before = "".join(draw(st.lists(_TREES, max_size=2)))
    entries = "".join(draw(st.lists(st.one_of(_entry(_TREES), _TREES), max_size=6)))
    after = "".join(draw(st.lists(_TREES, max_size=2)))

    body = before + (nav if nav_at == "before" else "")
    inside = entries + (nav if nav_at == "inside" else "")
    if container in ("div", "ul"):
        body += f'<{container} class="paper-list">{inside}</{container}>'
    elif container == "self-closing":
        body += '<div class="paper-list"/>' + inside
    elif container == "unclosed":
        body += '<div class="paper-list">' + inside
    else:
        body += inside
    body += second_list + after + (nav if nav_at == "after" else "")
    return ("<html><head>" + (base if base_at == "head" else "") + "</head><body>"
            + body + (base if base_at == "end" else "") + "</body></html>")


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(pages())
def test_generated_pages_match_the_tree_reference(page):
    assert_same(page)


@pytest.mark.parametrize("path", sorted((FIXTURES / "proceedings").glob("*.html")),
                         ids=lambda p: p.name)
def test_fixture_pages_match_the_tree_reference(path):
    assert_same(path.read_text(encoding="utf-8"))


def test_generated_pages_reach_papers():
    """The generator yields pages with papers and warnings, not only errors."""
    found = {"papers": False, "warnings": False, "error": False, "links": False}

    @settings(max_examples=100, deadline=None, database=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(pages())
    def probe(page):
        result = outcome(parse_proceedings, page, BASE_URLS[1])
        if isinstance(result[0], type):
            found["error"] = True
            return
        content, papers, report = result
        found["papers"] |= bool(papers)
        found["warnings"] |= bool(report.warnings)
        found["links"] |= bool(content.next_page_links)

    probe()
    assert all(found.values()), found


# -- venue pages ------------------------------------------------------------------

def test_venue_desc_taken_from_the_links_own_parent():
    def year(y, desc=""):
        return (f'<h4 class="year-heading">{y}</h4><ul><li>'
                f'<a class="proceedings-link" href="/proceedings/x-{y}.html">P {y}</a>'
                f"{desc}</li></ul>")
    page = ('<html><head><base href="https://anthology.test/"></head><body>'
            '<section class="venue-page">' + year(2023)
            + year(2022, ' <span class="event-desc">Hybrid event</span>')
            + year(2021) + "</section></body></html>")
    records = parse_venue_page(page, Category.ACL_EVENT, "x")
    assert [(r.year, r.desc) for r in records] == [
        (2023, None), (2022, "Hybrid event"), (2021, None)]
