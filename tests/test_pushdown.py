"""The store's SQL filter and stats against the in-memory reference.

``filter_stored`` and ``stats_stored`` evaluate rules and dimensions inside
SQLite; ``filter_papers`` and ``stats`` over ``load_all_papers`` are the
reference.  Results must be equal, order included.
"""
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anthology_harvest import (
    EmptyInput,
    FilterRule,
    StoreConfig,
    filter_papers,
    init_schema,
    load_all_papers,
    normalize_author,
    stats,
    upsert_papers,
)
from anthology_harvest.paperlist import STAT_DIMS
from anthology_harvest.store import filter_stored, stats_stored
from conftest import make_paper

VENUES = ("acl", "emnlp", "x_y")
# Display names whose normalized forms collide, contain the old " | "
# separator, or fold differently under Unicode casefold than under ASCII.
AUTHORS = ("Wei Chen", "wei  CHEN", "José García", "Jose Garcia", "Ann | Bo",
           "a|b", "Straße", "STRASSE", "Zoë Müller", "İlker Σίσυφος")
# Characters on which Python's casefold()/strip() and SQLite's ASCII-only
# lower()/trim() disagree, plus the haystack's own separator.
TRICKY = "aAzZ ßẞſKİıΣσςﬁÅ|  　\u0085\t\n\x00"

text = st.text(alphabet=st.sampled_from(TRICKY) | st.characters(blacklist_categories=("Cs",)),
               max_size=10)


def is_author_name(raw: str) -> bool:
    try:
        normalize_author(raw)
    except EmptyInput:
        return False
    return True


names = st.sampled_from(AUTHORS) | st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)),
    min_size=1, max_size=8).filter(is_author_name)


@st.composite
def stored_papers(draw):
    papers = []
    for i in range(draw(st.integers(0, 10))):
        papers.append(make_paper(
            aid=f"p.{i}",
            title=draw(text.filter(bool)),
            authors=tuple(draw(st.lists(names, max_size=4))),
            venue=draw(st.sampled_from(VENUES)),
            year=draw(st.integers(2019, 2022)),
            abstract=draw(st.none() | text),
        ))
    return papers


def substrings(s: str):
    return st.tuples(st.integers(0, len(s)), st.integers(0, len(s))).map(
        lambda ij: s[min(ij):max(ij)])


def rules_over(papers):
    """Rules whose keywords and author fragments often hit the given papers."""
    haystacks = [p.title + " " + (p.abstract or "") for p in papers] or ["graph"]
    found = st.sampled_from(haystacks).flatmap(substrings)
    keywords = st.lists(found | found.map(str.upper) | text, min_size=1, max_size=3)
    fragment = st.sampled_from(AUTHORS).flatmap(substrings).filter(str.strip)
    years = st.tuples(st.integers(2018, 2023), st.integers(2018, 2023)).map(sorted)
    return st.one_of(
        keywords.map(FilterRule.keyword_any),
        keywords.map(FilterRule.keyword_all),
        (fragment | names).map(FilterRule.author),
        st.lists(st.sampled_from(VENUES + ("tacl",)), max_size=3).map(FilterRule.venue_in),
        years.map(lambda ab: FilterRule.year_between(*ab)),
        st.just(FilterRule.has_abstract()),
    )


DIM_ORDERS = [dims for k in (1, 2, 3) for dims in itertools.permutations(STAT_DIMS, k)]


def nested_items(tree):
    """A stats tree as nested (key, value) lists, so order is compared too."""
    return [(k, nested_items(v) if isinstance(v, dict) else v) for k, v in tree.items()]


def open_with(papers):
    handle = init_schema(StoreConfig(location=":memory:"))
    upsert_papers(handle, papers)
    return handle


def check_filter(papers, rules, combine="all"):
    handle = open_with(papers)
    try:
        want = filter_papers(load_all_papers(handle), rules, combine)
        assert filter_stored(handle, rules, combine) == want
    finally:
        handle.close()
    return want.ids()


def check_stats(papers, dims):
    handle = open_with(papers)
    try:
        want = stats(load_all_papers(handle), dims)
        assert nested_items(stats_stored(handle, dims)) == nested_items(want)
    finally:
        handle.close()
    return want


class TestFilterEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_random_rule_sets(self, data):
        papers = data.draw(stored_papers())
        rules = data.draw(st.lists(rules_over(papers), min_size=1, max_size=3))
        check_filter(papers, rules, data.draw(st.sampled_from(["all", "any"])))

    def test_keywords_casefold_beyond_ascii(self):
        papers = [make_paper(aid="a.1", title="STRASSE"), make_paper(aid="a.2", title="Straße"),
                  make_paper(aid="a.3", title="ΣΊΣΥΦΟΣ")]
        assert check_filter(papers, [FilterRule.keyword_all(["straße"])]) == ("a.1", "a.2")
        assert check_filter(papers, [FilterRule.keyword_any(["σίσυφος"])]) == ("a.3",)

    def test_keyword_spans_title_abstract_boundary(self):
        papers = [make_paper(aid="b.1", title="Sparse Graph", abstract="Neural decoding"),
                  make_paper(aid="b.2", title="Sparse Graph")]
        assert check_filter(papers, [FilterRule.keyword_all(["graph neural"])]) == ("b.1",)
        # Without an abstract the haystack still ends in the separator.
        assert check_filter(papers, [FilterRule.keyword_all(["graph "])]) == ("b.1", "b.2")
        assert check_filter(papers, [FilterRule.keyword_all(["graph  "])]) == ()

    def test_has_abstract_strips_unicode_whitespace(self):
        abstracts = [None, "", " ", " \n", "　\u0085", " x "]
        papers = [make_paper(aid=f"c.{i}", abstract=a) for i, a in enumerate(abstracts)]
        assert check_filter(papers, [FilterRule.has_abstract()]) == ("c.5",)

    def test_author_is_a_substring_of_one_normalized_name(self):
        papers = [make_paper(aid="d.1", authors=("Ann | Bo",)),
                  make_paper(aid="d.2", authors=("Ann", "Bo")),
                  make_paper(aid="d.3", authors=("José García",)),
                  make_paper(aid="d.4", authors=())]
        assert check_filter(papers, [FilterRule.author("ann | bo")]) == ("d.1",)
        assert check_filter(papers, [FilterRule.author("Garc")]) == ("d.3",)
        assert check_filter(papers, [FilterRule.author("a")]) == ("d.1", "d.2", "d.3")

    def test_combine_any_and_empty_venue_list(self):
        papers = [make_paper(aid="e.1", venue="acl", year=2019),
                  make_paper(aid="e.2", venue="emnlp", year=2022)]
        rules = [FilterRule.venue_in([]), FilterRule.year_between(2021, 2023)]
        assert check_filter(papers, rules, "any") == ("e.2",)
        assert check_filter(papers, rules, "all") == ()


class TestStatsEquivalence:
    @pytest.mark.parametrize("dims", DIM_ORDERS, ids="/".join)
    @settings(max_examples=25, deadline=None)
    @given(papers=stored_papers())
    def test_random_stores(self, dims, papers):
        check_stats(papers, list(dims))

    def test_empty_store(self):
        for dims in DIM_ORDERS:
            assert check_stats([], list(dims)) == {}

    def test_authorless_papers_and_duplicate_names(self):
        papers = [make_paper(aid="f.1", authors=("José García", "Jose  Garcia", "Ann | Bo")),
                  make_paper(aid="f.2", year=2020, authors=()),
                  make_paper(aid="f.3", authors=("jose garcia",))]
        assert check_stats(papers, ["author"]) == {"ann | bo": 1, "jose garcia": 2}
        # The year survives as an empty branch when none of its papers has authors.
        assert check_stats(papers, ["year", "author"]) == {
            2020: {}, 2022: {"ann | bo": 1, "jose garcia": 2}}
        assert check_stats(papers, ["author", "year"]) == {
            "ann | bo": {2022: 1}, "jose garcia": {2022: 2}}


def test_nul_in_author_name():
    # SQLite's json_each cuts a decoded string at U+0000; normalized names hold none.
    check_stats([make_paper(aid="h.1", authors=("Ann\x00Bo",))], ["author"])
