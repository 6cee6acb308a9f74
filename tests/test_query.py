import random
from dataclasses import replace

import pytest

import _astgen
import _oracle
from anthology_harvest import (
    InvalidChain,
    MissingColumn,
    UnknownColumn,
    execute,
    hydrate_papers,
    load_all_papers,
    render_sql,
    table,
    upsert_papers,
)
from anthology_harvest.errors import BadArity
from anthology_harvest.query import Builder, QueryAst, bind_params
from conftest import make_paper, random_papers


@pytest.fixture
def small_store(mem_store):
    papers = [
        make_paper(aid="2021.acl-long.1", title="Alpha Story", venue="acl", year=2021),
        make_paper(aid="2021.emnlp-main.2", title="Beta Parsing", venue="emnlp",
                   year=2021, abstract="on parsing"),
        make_paper(aid="2022.acl-long.3", title="Gamma Graphs", venue="acl",
                   year=2022, bibkey="g-2022"),
        make_paper(aid="2022.naacl-main.4", title="delta STORY time", venue="naacl",
                   year=2022),
        make_paper(aid="2023.coling-1.5", title="Epsilon", venue="coling", year=2023),
    ]
    upsert_papers(mem_store, papers)
    return mem_store, papers


class TestBuilderChaining:
    def test_prefix_reuse_is_pure(self):
        prefix = table("paper").where("year", "eq", 2021)
        a = prefix.order("title").limit(5)
        b = prefix.count()
        ast_a, ast_b = a.build(), b.build()
        assert ast_a.limit == 5 and ast_a.aggregate is None
        assert ast_b.aggregate == ("count", None) and ast_b.limit is None
        # The shared prefix is untouched.
        assert prefix.build().order_by == ()

    def test_table_must_come_first(self):
        with pytest.raises(InvalidChain):
            Builder().where("year", "eq", 2021)

    def test_having_without_group(self):
        with pytest.raises(InvalidChain):
            table("paper").having("count", "gt", 3).build()

    def test_group_columns_must_be_distinct(self):
        # A grouped row maps column names to values, so a repeated column
        # would drop out of the result tuples.
        with pytest.raises(InvalidChain):
            table("paper").group("year", "year")

    def test_offset_without_limit(self):
        with pytest.raises(InvalidChain):
            table("paper").offset(10).build()

    def test_unknown_column(self):
        with pytest.raises(UnknownColumn):
            table("paper").where("colour", "eq", "red")
        with pytest.raises(UnknownColumn):
            table("paper").order("colour")

    def test_bad_arity(self):
        with pytest.raises(BadArity):
            table("paper").where("year", "in", [])
        with pytest.raises(BadArity):
            table("paper").where("year", "between", [2022])
        with pytest.raises(BadArity):
            table("paper").where("year", "between", (2023, 2020))
        with pytest.raises(BadArity):
            table("paper").where("year", "badop", 5)

    def test_field_and_aggregate_conflict(self):
        with pytest.raises(InvalidChain):
            table("paper").field("title").count().build()

    def test_mapping_form_conjoins_in_order(self):
        ast = (table("paper")
               .where({"year": ["in", [2021, 2022, 2023]]})
               .where({"venue_key": ["in", ["acl", "emnlp", "naacl"]]})
               .build())
        assert len(ast.conditions) == 2
        assert all(connector == "and" for connector, _ in ast.conditions)
        assert ast.conditions[0][1].op == "in"


class TestRenderSql:
    def test_select_all(self):
        assert render_sql(table("paper").build()) == "SELECT * FROM paper"

    def test_chained_in_conditions(self):
        ast = (table("paper")
               .where({"year": ["in", [2021, 2022, 2023]]})
               .where({"venue_key": ["in", ["acl", "emnlp", "naacl"]]})
               .build())
        assert render_sql(ast) == ("SELECT * FROM paper WHERE year IN (?, ?, ?) "
                                   "AND venue_key IN (?, ?, ?)")
        assert bind_params(ast) == [2021, 2022, 2023, "acl", "emnlp", "naacl"]

    def test_order_limit_suffix(self):
        ast = table("paper").order("year", "desc").limit(10).build()
        assert render_sql(ast).endswith("ORDER BY year DESC LIMIT 10")

    def test_determinism(self):
        def build():
            return (table("paper").where("title", "like", "%x%")
                    .order("year", "desc").limit(3).build())
        assert render_sql(build()) == render_sql(build())
        assert build() == build()

    def test_reserved_identifier_quoting(self):
        ast = table("conference").where("desc", "is_not_null").build()
        assert render_sql(ast) == 'SELECT * FROM conference WHERE "desc" IS NOT NULL'


class TestExecute:
    def test_count_on_empty_store(self, mem_store):
        assert execute(mem_store, table("paper").count().build()) == 0

    def test_min_year(self, small_store):
        handle, _ = small_store
        assert execute(handle, table("paper").min("year").build()) == 2021

    def test_listing_chain_matches_oracle(self, small_store):
        handle, papers = small_store
        builder = (table("paper", handle)
                   .where({"year": ["in", [2021, 2022, 2023]]})
                   .where({"venue_key": ["in", ["acl", "emnlp", "naacl"]]}))
        rows = builder.query()
        oracle_rows = _oracle.eval_ast([_oracle.paper_row(p) for p in papers],
                                       builder.build())
        assert rows == oracle_rows
        assert len(rows) == 4

    def test_like_is_case_insensitive(self, small_store):
        handle, _ = small_store
        rows = table("paper", handle).where("title", "like", "%story%").query()
        assert {r["anthology_id"] for r in rows} == {
            "2021.acl-long.1", "2022.naacl-main.4"}

    def test_where_order_irrelevant_for_conjunction(self, small_store):
        handle, _ = small_store
        a = (table("paper", handle).where("year", "gte", 2021)
             .where("venue_key", "eq", "acl").query())
        b = (table("paper", handle).where("venue_key", "eq", "acl")
             .where("year", "gte", 2021).query())
        assert {r["anthology_id"] for r in a} == {r["anthology_id"] for r in b}

    def test_find_one_and_exists(self, small_store):
        handle, _ = small_store
        row = table("paper", handle).where("venue_key", "eq", "acl") \
            .order("year", "desc").find_one()
        assert row["anthology_id"] == "2022.acl-long.3"
        assert table("paper", handle).where("venue_key", "eq", "tacl").find_one() is None
        assert table("paper", handle).where("year", "eq", 2023).exists()
        assert not table("paper", handle).where("year", "eq", 1999).exists()

    def test_grouped_rows(self, small_store):
        handle, papers = small_store
        builder = table("paper", handle).group("venue_key").count()
        rows = builder.query()
        oracle_rows = _oracle.eval_ast([_oracle.paper_row(p) for p in papers],
                                       builder.build())
        assert rows == oracle_rows
        assert ("acl", 2) in rows


class TestHydrate:
    def test_empty(self):
        assert len(hydrate_papers([])) == 0

    def test_select_all_equals_load_all(self, small_store):
        handle, _ = small_store
        rows = table("paper", handle).query()
        assert list(hydrate_papers(rows)) == list(load_all_papers(handle))

    def test_partial_projection_rejected(self, small_store):
        handle, _ = small_store
        rows = table("paper", handle).field("anthology_id", "title").query()
        with pytest.raises(MissingColumn):
            hydrate_papers(rows)


class TestOracleEquivalence:
    def test_randomized_chains(self, mem_store):
        rng = random.Random(2024)
        papers = random_papers(rng, 120)
        upsert_papers(mem_store, papers)
        rows = [_oracle.paper_row(p) for p in papers]
        ids = [p.anthology_id for p in papers]
        for i in range(150):
            builder = _astgen.random_chain(rng, ids)
            ast = builder.build()
            got = execute(mem_store, ast)
            want = _oracle.eval_ast(rows, ast)
            assert got == want, f"chain {i}: {render_sql(ast)}"
            bound = replace(builder, handle=mem_store)
            matched = _oracle.eval_ast(rows, QueryAst(ast.source, ast.conditions))
            assert bound.exists() == bool(matched), f"chain {i}: {render_sql(ast)}"
            if isinstance(want, list):
                first = want[0] if want else None
                assert bound.find_one() == first, f"chain {i}: {render_sql(ast)}"
