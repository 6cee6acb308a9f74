"""The regex scanner under every page reader, and the URL fast paths.

``htmldoc.scan`` must either decline a page or make exactly html.parser's
handler calls (adjacent data merged); a declined page is read again by
html.parser into a fresh reader.  Every fixture and benchmark page must
scan without declining.  The link-resolving and URL-checking fast paths
must answer as ``urljoin``/``urlparse`` do, raising where they raise.
"""
from urllib.parse import urljoin, urlparse

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from anthology_harvest.model import is_absolute_url
from anthology_harvest.parser import _id_from_path, _join, anthology_id_from_url
from conftest import FIXTURES
from scan_equivalence import check, generate_corpora, reference_events, scanned_events
from test_page_reader import assert_same_structure
from test_parser_pass import pages


def assert_scans_like_html_parser(html: str) -> bool:
    """Whether ``scan`` accepted ``html``; its events must then match."""
    got = scanned_events(html)
    if got is not None:
        assert got == reference_events(html)
    return got is not None


# -- generated markup ---------------------------------------------------------------

_SOUP = st.lists(st.sampled_from([
    "<", "</", ">", "/>", "'", '"', "=", "&", ";", "#", "a", "b", "P", "x1", "-", "/",
    " ", "\n", "\t", "\v", "\f", "\xa0", "\x00", "é", "amp", "&amp;", "&#233;", "&lt",
    "<!--", "-->", "--!>", "-- >", "<!-->", "<!", "<!doctype html>", "<?", "<![CDATA[",
    "<script>", "</script>", "<style>", "<title>", "</title>", "<textarea/>",
    "<a ", "<br/>", "</a>", ' href="/x"', " class=y", " id", "<div>", "</div >", "</ a>",
]), max_size=30).map("".join)

_NAMES = st.sampled_from(["a", "A", "div", "Span", "h4", "x-y", "br", "title", "base"])
_ATTR = st.builds(
    lambda name, sep, value: f"{name}{sep}{value}" if value is not None else name,
    st.sampled_from(["href", "CLASS", "data-x", "id", "x:y", "_z", "hRef"]),
    st.sampled_from(["=", " = ", "\n=\t"]),
    st.one_of(st.none(), st.sampled_from([
        '""', "''", '"a b"', "'it''", "'&amp;&lt;'", '"x&#62;y"', "bare", "/p/q/",
        "a&amp;b", '"</a>"', "'\"'", '"caf&eacute;"', "&bogus;", "x/",
    ])))
_TAG = st.builds(
    lambda name, attrs, space, end: f"<{name}{''.join(' ' + a for a in attrs)}{space}{end}",
    _NAMES, st.lists(_ATTR, max_size=3), st.sampled_from(["", " ", "\n"]),
    st.sampled_from([">", ">", "/>"]))
_MARKUP = st.lists(st.one_of(
    _TAG, _TAG,
    _NAMES.map(lambda name: f"</{name}>"),
    st.sampled_from(["text", " ", "a &amp; b", "&#x41;&#0;&#1;", "AT&T", "&nbsp;",
                     "<!-- c -->", "<!---->", "<!-- a -- b -->", "<!DOCTYPE html>",
                     "\n", "x > y", "ü"]),
), max_size=25).map("".join)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(_SOUP, _MARKUP))
def test_generated_markup_scans_as_html_parser_reads_it(html):
    assert_scans_like_html_parser(html)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(pages())
def test_generated_pages_scan_as_html_parser_reads_them(page):
    assert_scans_like_html_parser(page)


def test_generated_markup_is_both_accepted_and_declined():
    """The generators reach both outcomes, so neither test is vacuous."""
    seen = set()

    @settings(max_examples=100, deadline=None, database=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.one_of(_SOUP, _MARKUP, pages()))
    def probe(html):
        seen.add(scanned_events(html) is not None)

    probe()
    assert seen == {True, False}


@pytest.mark.parametrize("html", [
    "<script>x</script>", "<style></style>", "<SCRIPT/>", "<?xml ?>", "<![CDATA[x]]>",
    "<!x>", "</>", "</ a>", "</a b>", "< a>", "a < b", "<a", "<a href='x", "<!-- x",
    "<!-->", "<!--->", "<!-->x-->", "<!--->x-->", "<!-- a --!> b -->", "<!-- a -- > b -->", "<a\vb=1>",
    "<a\xa0b=1>", "<a b=1\xa0>", "<a b==1>", "<a b=>", '<a b="1"c>', "<a/b>",
    "<br / >", "<title><b>x</b></title>", "<title>x", "<title/>", "<textarea>a<b</textarea>",
])
def test_outside_the_grammar_is_declined(html):
    assert scanned_events(html) is None


def test_a_declined_page_is_read_again_from_scratch():
    # Declined at the very end, after every other event was handed out.
    page = ('<div class="a"><p>one &amp; two</p><br/><a href="/x">x</a></div>'
            "<script>var s = '<b>';</script>")
    assert scanned_events(page) is None
    assert_same_structure(page)


# -- no decline on real pages ---------------------------------------------------------

def test_fixture_pages_scan_without_declining():
    pages_checked, faults = check([FIXTURES])
    assert pages_checked == 31
    assert faults == []


def test_benchmark_pages_scan_without_declining(tmp_path):
    pages_checked, faults = check(generate_corpora(tmp_path, seed=1))
    assert pages_checked > 400
    assert faults == []


# -- URL fast paths ------------------------------------------------------------------------

_URL_PART = st.sampled_from([
    "http", "https", "HTTP", "hTtPs", "ftp", "", "://", ":/", ":", "//", ":///", "@", "u:p@",
    "anthology.test", "Anthology.TEST", "127.0.0.1", "x-y.z", "[::1]", "[::1", "::1]",
    "[v1.x]", "[x]", "bücher.de", "ex℀ample", "h＃x", ":8080", ":", ":80a",
    "/", "/a/b", "/2022.acl-long.7/", "/a/../b", "/./x", "/..", "/.", "//x", "/a//b",
    "/a;p", "?q=1", "#f", "/é", " ", "\t", "\n", "\r", "\x00", "\x1f", "\x7f", "\\",
    "..", ".", "x", "%2e%2e", "&", "/a.pdf",
])
_URL = st.one_of(st.lists(_URL_PART, max_size=8).map("".join), st.text(max_size=12))
_HTTP_BASE = st.builds("".join, st.tuples(
    st.sampled_from(["http://", "https://"] * 3 + ["HTTP://", " http://", "\thttps://",
                                                   "http:/"]),
    st.sampled_from(["anthology.test", "A.test:8080", "h:", "a.test", "1.2.3.4:80"] * 2
                    + ["", "u@h.test", "[::1]", "[::1", "ü.test", "h\tx", "h.test:8a"]),
    st.sampled_from(["", "/", "/dir/page.html", "?q", "#f", ";p", "/a b", "\n"])))
_PLAIN_HREF = st.builds(
    lambda segments, slash: "/" + "/".join(segments) + slash,
    st.lists(st.from_regex(r"[-a-z0-9_~%!$&'()*+,:=@][-a-z0-9._~%!$&'()*+,:=@]{0,5}",
                           fullmatch=True), max_size=4),
    st.sampled_from(["", "/"]))
# A plain href with at most one thing inserted that may take it off the
# fast path.
_NEAR_PLAIN_HREF = st.builds(
    lambda href, extra, at: href[:at] + extra + href[at:], _PLAIN_HREF,
    st.sampled_from([""] * 12 + ["?", "#", ";", "/", "//", "/./", "/../", "/.", " ", "\t",
                     "\n", "\x00", "\x7f", "é", "\u3000", "[", "\\"]),
    st.integers(0, 12))
_NEAR_PAIR = st.tuples(_HTTP_BASE, _NEAR_PLAIN_HREF)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError:
        return ValueError


def _reference_absolute(url):
    parts = urlparse(url)
    return parts.scheme in ("http", "https") and bool(parts.netloc)


@settings(max_examples=600, deadline=None)
# Weighted toward pairs near the fast path, which arbitrary strings rarely are.
@given(st.one_of(st.tuples(st.one_of(_URL, _HTTP_BASE, st.none()),
                           st.one_of(_URL, _NEAR_PLAIN_HREF)),
                 _NEAR_PAIR, _NEAR_PAIR))
@example(("https://anthology.test/", "/2022.acl-long.7/"))
@example(("https://a.test", "/x?q"))
@example(("https://a.test", "/x#f"))
@example(("https://a.test", "/x;p/"))
@example(("https://a.test", "/a/../b"))
@example(("https://a.test", "/a/./b"))
@example(("https://a.test", "//h.test/x"))
@example(("https://a.test", "/a b/"))
@example(("https://a.test", "/é/"))
@example(("https://[::1", "/x"))
@example(("http:///x", "/y"))
@example(("https://a.test", "//[x/y"))
def test_join_answers_as_urljoin(pair):
    base, href = pair
    got = _outcome(_join, base, href)
    want = _outcome(lambda: urljoin(base, href) if base else href)
    if got is ValueError or want is ValueError:
        assert got is want
        return
    url, path = got
    assert url == want
    if path is not None:
        assert path == urlparse(url).path
        assert _id_from_path(path) == anthology_id_from_url(url)


@settings(max_examples=600, deadline=None)
@given(st.one_of(_URL, _HTTP_BASE,
                 st.builds(str.__add__, _HTTP_BASE, st.one_of(_URL, _PLAIN_HREF))))
@example("http:///x")
@example("https://[::1")
@example("https://[x]/")
@example("https://u:p@h.test:8080/p?q#f")
@example("http://a.test\n")
def test_is_absolute_url_answers_as_urlparse(url):
    assert _outcome(is_absolute_url, url) == _outcome(_reference_absolute, url)


def test_join_fast_path_is_taken_for_plain_links_only():
    assert _join("https://anthology.test/dir/", "/2022.acl-long.7/") == (
        "https://anthology.test/2022.acl-long.7/", "/2022.acl-long.7/")
    assert _join("https://anthology.test/", "/a/../b")[1] is None
    assert _join("HTTPS://anthology.test/", "/x")[1] is None
