import csv
import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anthology_harvest import (
    BadDims,
    EmptyRuleSet,
    FilterRule,
    PaperList,
    PaperRecord,
    complement,
    filter_papers,
    intersect,
    sort_papers,
    stats,
    top_k,
    union,
)
from conftest import make_paper, random_papers


def plist(*aids: str) -> PaperList:
    return PaperList.from_iterable(make_paper(aid=a, title=f"T {a}") for a in aids)


def ids(pl: PaperList) -> list[str]:
    return list(pl.ids())


# Three reusable lists drawn from one universe of ids.
@st.composite
def paper_lists(draw, universe_size=40):
    pool = [f"p.{i}" for i in range(universe_size)]
    subset = draw(st.lists(st.sampled_from(pool), max_size=25, unique=True))
    return plist(*subset)


class TestUnion:
    def test_identity_element(self):
        x = plist("a", "b")
        assert ids(union(x, PaperList())) == ["a", "b"]

    def test_idempotence(self):
        x = plist("a", "b")
        assert ids(union(x, x)) == ["a", "b"]

    def test_order_left_then_unseen(self):
        assert ids(union(plist("a", "b"), plist("b", "c"))) == ["a", "b", "c"]

    @settings(max_examples=60)
    @given(paper_lists(), paper_lists())
    def test_inclusion_exclusion(self, a, b):
        # Brute-force set oracle keyed by anthology_id.
        sa, sb = set(a.ids()), set(b.ids())
        assert len(union(a, b)) == len(sa) + len(sb) - len(sa & sb)


class TestIntersect:
    def test_self(self):
        x = plist("a", "b")
        assert ids(intersect(x, x)) == ["a", "b"]

    def test_empty(self):
        assert len(intersect(plist("a"), PaperList())) == 0

    def test_disjoint(self):
        assert len(intersect(plist("a", "b"), plist("c", "d"))) == 0

    def test_left_operand_wins_on_field_conflicts(self):
        left = PaperList.from_iterable([make_paper(aid="x", title="Left")])
        right = PaperList.from_iterable([make_paper(aid="x", title="Right")])
        assert intersect(left, right).items[0].title == "Left"
        assert union(left, right).items[0].title == "Left"


class TestComplement:
    def test_empty_a(self):
        u = plist("a", "b")
        assert ids(complement(PaperList(), u)) == ["a", "b"]

    def test_full_a(self):
        u = plist("a", "b")
        assert len(complement(u, u)) == 0

    @settings(max_examples=60)
    @given(paper_lists())
    def test_partition_property(self, a):
        universe = plist(*[f"p.{i}" for i in range(40)])
        inside = intersect(a, universe)
        outside = complement(a, universe)
        assert set(union(inside, outside).ids()) == set(universe.ids())
        assert not set(inside.ids()) & set(outside.ids())


class TestAlgebraLaws:
    @settings(max_examples=60)
    @given(paper_lists(), paper_lists())
    def test_commutativity_as_sets(self, a, b):
        assert set(union(a, b).ids()) == set(union(b, a).ids())
        assert set(intersect(a, b).ids()) == set(intersect(b, a).ids())

    @settings(max_examples=60)
    @given(paper_lists(), paper_lists(), paper_lists())
    def test_associativity_and_distributivity(self, a, b, c):
        assert (set(union(union(a, b), c).ids())
                == set(union(a, union(b, c)).ids()))
        assert (set(intersect(intersect(a, b), c).ids())
                == set(intersect(a, intersect(b, c)).ids()))
        assert (set(intersect(a, union(b, c)).ids())
                == set(union(intersect(a, b), intersect(a, c)).ids()))

    @settings(max_examples=60)
    @given(paper_lists(), paper_lists())
    def test_de_morgan_within_universe(self, a, b):
        universe = plist(*[f"p.{i}" for i in range(40)])
        lhs = complement(union(a, b), universe)
        rhs = intersect(complement(a, universe), complement(b, universe))
        assert set(lhs.ids()) == set(rhs.ids())


class TestFilter:
    def test_empty_rules_rejected(self):
        with pytest.raises(EmptyRuleSet):
            filter_papers(plist("a"), [])

    def test_has_abstract(self):
        no_abs = make_paper(aid="n.1")
        with_abs = make_paper(aid="y.1", abstract="Some text")
        papers = PaperList.from_iterable([no_abs, with_abs])
        kept = filter_papers(papers, [FilterRule.has_abstract()])
        assert ids(kept) == ["y.1"]

    def test_keywords_match_title_and_abstract(self):
        rec = make_paper(aid="k.1", title="On Parsing",
                         abstract="We study story generation at length.")
        papers = PaperList.from_iterable([rec])
        assert len(filter_papers(papers, [FilterRule.keyword_all(["story generation"])])) == 1
        assert len(filter_papers(papers, [FilterRule.keyword_all(["PARSING"])])) == 1
        assert len(filter_papers(papers, [FilterRule.keyword_all(["nonexistent"])])) == 0

    def test_author_rule_uses_normalized_names(self):
        rec = make_paper(aid="a.1", authors=("José García",))
        papers = PaperList.from_iterable([rec])
        assert len(filter_papers(papers, [FilterRule.author("jose garcia")])) == 1
        assert len(filter_papers(papers, [FilterRule.author("garcía")])) == 1
        assert len(filter_papers(papers, [FilterRule.author("smith")])) == 0

    def test_combine_any(self):
        papers = PaperList.from_iterable([
            make_paper(aid="1", year=2020),
            make_paper(aid="2", year=2023),
            make_paper(aid="3", venue="emnlp", year=2020),
        ])
        rules = [FilterRule.year_between(2022, 2024), FilterRule.venue_in(["emnlp"])]
        assert ids(filter_papers(papers, rules, combine="any")) == ["2", "3"]
        assert ids(filter_papers(papers, rules, combine="all")) == []

    def test_subset_and_order_preserved(self):
        rng = random.Random(7)
        papers = PaperList.from_iterable(random_papers(rng, 40))
        rules = [FilterRule.year_between(2019, 2022),
                 FilterRule.venue_in(["acl", "emnlp"])]
        kept = filter_papers(papers, rules)
        kept_ids = ids(kept)
        assert set(kept_ids) <= set(papers.ids())
        positions = [papers.ids().index(i) for i in kept_ids]
        assert positions == sorted(positions)


class TestStats:
    def test_empty(self):
        assert stats(PaperList(), ["year"]) == {}

    def test_conservation(self):
        rng = random.Random(11)
        papers = PaperList.from_iterable(random_papers(rng, 60))
        by_year = stats(papers, ["year"])
        assert sum(by_year.values()) == len(papers)
        nested = stats(papers, ["venue_key", "year"])
        assert sum(c for years in nested.values() for c in years.values()) == len(papers)

    def test_author_counts_pairs(self):
        papers = PaperList.from_iterable([
            make_paper(aid="1", authors=("A One", "B Two")),
            make_paper(aid="2", authors=("A One",)),
        ])
        counts = stats(papers, ["author"])
        assert counts == {"a one": 2, "b two": 1}

    def test_bad_dims(self):
        with pytest.raises(BadDims):
            stats(PaperList(), [])
        with pytest.raises(BadDims):
            stats(PaperList(), ["year", "year"])
        with pytest.raises(BadDims):
            stats(PaperList(), ["colour"])


class TestSortTopK:
    def test_top_k_zero_and_clamp(self):
        papers = plist("a", "b", "c")
        assert len(top_k(sort_papers(papers, "title"), 0)) == 0
        assert ids(top_k(papers, 8)) == ["a", "b", "c"]

    def test_sort_by_year_is_monotone_and_stable(self):
        papers = PaperList.from_iterable([
            make_paper(aid="1", year=2022), make_paper(aid="2", year=2020),
            make_paper(aid="3", year=2022), make_paper(aid="4", year=2021),
        ])
        asc = sort_papers(papers, "year")
        years = [p.year for p in asc]
        assert years == sorted(years)
        assert ids(asc) == ["2", "4", "1", "3"]  # stable among equal years
        desc = sort_papers(papers, "year", "desc")
        assert [p.year for p in desc] == sorted(years, reverse=True)


class TestSerialization:
    def test_jsonl_round_trip(self):
        rng = random.Random(5)
        papers = PaperList.from_iterable(random_papers(rng, 25))
        again = PaperList.from_jsonl(papers.to_jsonl())
        assert list(again) == list(papers)

    def test_jsonl_one_line_per_record(self):
        papers = plist("a", "b", "c")
        lines = papers.to_jsonl().splitlines()
        assert len(lines) == 3

    def test_csv_parses_back(self):
        papers = PaperList.from_iterable([
            make_paper(aid="c.1", title='Comma, "quoted" title',
                       authors=("A One", "B Two"), abstract="x\ny"),
        ])
        reader = csv.DictReader(io.StringIO(papers.to_csv()))
        rows = list(reader)
        assert rows[0]["title"] == 'Comma, "quoted" title'
        assert rows[0]["authors"] == "A One; B Two"
        assert rows[0]["abstract"] == "x\ny"

    def test_bibtex_uses_bibkey_or_generates(self):
        papers = PaperList.from_iterable([
            make_paper(aid="b.1", bibkey="chen-2022-alpha", title="Alpha"),
            make_paper(aid="b.2", title="EtriCA: Something",
                       authors=("Chen Tang",), year=2022),
            make_paper(aid="b.3", title="No Authors Here", authors=()),
        ])
        text = papers.to_bibtex()
        assert "@inproceedings{chen-2022-alpha," in text
        assert "@inproceedings{tang2022etrica," in text
        assert "@inproceedings{noauthor2022no," in text
        assert "author = {Chen Tang}" in text
        assert text.count("@inproceedings{") == 3

    def test_bibtex_key_collisions_get_suffixes(self):
        papers = PaperList.from_iterable([
            make_paper(aid="k.1", bibkey="same"),
            make_paper(aid="k.2", bibkey="same"),
        ])
        text = papers.to_bibtex()
        assert "@inproceedings{same," in text
        assert "@inproceedings{same-2," in text

    def test_bibtex_bytes(self):
        # Braces dropped and newlines made spaces in every field; an empty
        # author list leaves the author field out.
        papers = PaperList.from_iterable([
            make_paper(aid="e.1", title="{Braces} in\na title", authors=("Ann {B}", "Cy"),
                       bibkey="k"),
            make_paper(aid="e.2", title="No Authors", authors=(), venue="x_y-1", year=1999),
            PaperRecord("e.3", "}", (), "acl", 2020, "https://a.test/{x}\n", bibkey="z"),
            make_paper(aid="e.4", bibkey="k"),
        ])
        assert papers.to_bibtex() == (
            "@inproceedings{k,\n  author = {Ann B and Cy},\n  title = {Braces in a title},\n"
            "  year = {2022},\n  booktitle = {Proceedings of ACL 2022},\n"
            "  url = {https://anthology.test/e.1/}\n}\n\n"
            "@inproceedings{noauthor1999no,\n  title = {No Authors},\n  year = {1999},\n"
            "  booktitle = {Proceedings of X_Y-1 1999},\n"
            "  url = {https://anthology.test/e.2/}\n}\n\n"
            "@inproceedings{z,\n  title = {},\n  year = {2020},\n"
            "  booktitle = {Proceedings of ACL 2020},\n  url = {https://a.test/x }\n}\n\n"
            "@inproceedings{k-2,\n  author = {Wei Chen},\n  title = {A Title},\n"
            "  year = {2022},\n  booktitle = {Proceedings of ACL 2022},\n"
            "  url = {https://anthology.test/e.4/}\n}\n")
        assert PaperList().to_bibtex() == ""


def test_duplicate_ids_rejected_at_construction():
    with pytest.raises(ValueError):
        PaperList(items=(make_paper(aid="d"), make_paper(aid="d")))
    deduped = PaperList.from_iterable([make_paper(aid="d"), make_paper(aid="d")])
    assert len(deduped) == 1
