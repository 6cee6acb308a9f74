import json
import random
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

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
from anthology_harvest.errors import BadArity, HarvestError, StoreUnavailable
from anthology_harvest.query import (OPS, Builder, Condition, ConditionGroup, QueryAst,
                                     _render, bind_params)
from anthology_harvest.store import PAPER_COLUMNS, Store
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


_YEAR = Condition("year", "eq", 2021)


@pytest.mark.parametrize("make, error, message", [
    (lambda h: Condition("year", "badop", 5), BadArity,
     f"unknown operator 'badop'; pick from {list(OPS)}"),
    (lambda h: Condition("year", "in", []), BadArity, "in needs a non-empty list"),
    (lambda h: Condition("year", "not_in", 2021), BadArity, "not_in needs a non-empty list"),
    (lambda h: Condition("year", "between", [2021]), BadArity, "between needs a (low, high) pair"),
    (lambda h: Condition("year", "between", (2023, 2021)), BadArity,
     "between pair must be ordered, got (2023, 2021)"),
    (lambda h: Condition("abstract", "is_null", "x"), BadArity, "is_null takes no value"),
    (lambda h: Condition("year", "eq"), BadArity, "eq needs a single scalar value"),
    (lambda h: Condition("year", "gt", [2021]), BadArity, "gt needs a single scalar value"),
    (lambda h: ConditionGroup("xor", (_YEAR,)), InvalidChain,
     "group joiner must be and/or, got 'xor'"),
    (lambda h: ConditionGroup("and", ()), InvalidChain, "condition group must be non-empty"),
    (lambda h: table("paper").where(year=2021), BadArity,
     "conditions are positional; use where('col', 'op', value)"),
    (lambda h: table("paper").where({}), BadArity, "empty condition mapping"),
    (lambda h: table("paper").where("year", "eq", 2021, 2022), BadArity,
     "cannot build a condition from ('year', 'eq', 2021, 2022)"),
    (lambda h: table("paper").having("count", "gt", 3).build(), InvalidChain,
     "having() requires group()"),
    (lambda h: table("paper").offset(10).build(), InvalidChain, "offset() requires limit()"),
    (lambda h: table("paper").field("title").count().build(), InvalidChain,
     "aggregates cannot be combined with field()"),
    (lambda h: table("paper").distinct().count().build(), InvalidChain,
     "use distinct_count() instead of distinct() + aggregate"),
    (lambda h: table("paper").group("year").field("year").build(), InvalidChain,
     "group() fixes the select list; drop field()"),
    (lambda h: table("paper").group("year").distinct().build(), InvalidChain,
     "group() already deduplicates; drop distinct()"),
    (lambda h: table("paper").group("year").order("title").build(), InvalidChain,
     "order column 'title' must be grouped"),
    (lambda h: table("paper").field("year").distinct().order("title").build(), InvalidChain,
     "order column 'title' must be projected under distinct()"),
    (lambda h: table("paper").group("year").having("title", "eq", "x").build(), InvalidChain,
     "having() may reference 'count' or a grouped column"),
    (lambda h: table("venue"), UnknownColumn,
     "unknown table 'venue'; pick from ['conference', 'paper']"),
    (lambda h: table("paper").field(), InvalidChain, "field() needs at least one column"),
    (lambda h: table("paper").group(), InvalidChain, "group() needs at least one column"),
    (lambda h: table("paper").group("year").having({"year": 2021, "venue_key": "acl"}),
     InvalidChain, "having() takes exactly one condition"),
    (lambda h: table("paper").limit(5).offset(-1), InvalidChain, "offset must be non-negative"),
    (lambda h: table("paper").query(), InvalidChain,
     "builder has no store bound; pass Builder(handle)"),
    (lambda h: table("paper", h).count().find_one(), InvalidChain,
     "find_one() applies to row queries, not aggregates"),
    (lambda h: table("paper").limit("3"), InvalidChain, "limit takes an int, got '3'"),
    (lambda h: table("paper").limit(2.5), InvalidChain, "limit takes an int, got 2.5"),
    (lambda h: table("paper").limit(True), InvalidChain, "limit takes an int, got True"),
    (lambda h: table("paper").limit(5).offset(1.5), InvalidChain,
     "offset takes an int, got 1.5"),
    (lambda h: table("paper").limit(2**63), InvalidChain,
     "limit must be at most 9223372036854775807"),
    (lambda h: Condition("year", "in", [2021, [1]]), BadArity,
     "cannot bind [1]; a value is None, a 64-bit int, a float, a str or bytes"),
    (lambda h: Condition("year", "eq", {"a": 1}), BadArity,
     "cannot bind {'a': 1}; a value is None, a 64-bit int, a float, a str or bytes"),
    (lambda h: Condition("year", "eq", 2**63), BadArity,
     "cannot bind 9223372036854775808; a value is None, a 64-bit int, a float, a str or bytes"),
    (lambda h: Condition("title", "like", "\ud800"), BadArity,
     "cannot bind '\\ud800'; a value is None, a 64-bit int, a float, a str or bytes"),
    (lambda h: Condition("year", "between", [2020, "x"]), BadArity,
     "between pair must be ordered, got (2020, 'x')"),
    (lambda h: table("paper").and_group(5), BadArity,
     "a condition group needs a list of conditions, got 5"),
    (lambda h: table(["paper"]), UnknownColumn,
     "unknown table ['paper']; pick from ['conference', 'paper']"),
    (lambda h: table("paper").group(["year"]), UnknownColumn,
     "column ['year'] not in table 'paper'"),
    (lambda h: table("paper").min(None), UnknownColumn, "column None not in table 'paper'"),
], ids=["unknown-op", "in-empty", "not-in-scalar", "between-one", "between-unordered",
        "null-test-value", "eq-no-value", "gt-list", "group-joiner", "group-empty",
        "keyword-condition", "empty-mapping", "four-arguments", "having-no-group",
        "offset-no-limit", "field-aggregate", "distinct-aggregate", "group-field",
        "group-distinct", "order-not-grouped", "order-not-projected", "having-column",
        "unknown-table", "field-none", "group-none", "having-two", "negative-offset",
        "no-store", "find-one-aggregate", "limit-str", "limit-float", "limit-bool",
        "offset-float", "limit-too-large", "in-nested-list", "eq-dict", "eq-too-large",
        "like-surrogate", "between-mixed-types", "group-of-scalar", "table-list",
        "group-unhashable", "min-no-column"])
def test_rejection_names_its_type_and_reason(mem_store, make, error, message):
    with pytest.raises(error) as info:
        make(mem_store)
    assert type(info.value) is error and str(info.value) == message


def test_short_spellings_equal_the_explicit_eq_form(small_store):
    handle, _ = small_store
    pairs = [
        (table("paper").where({"venue_key": "acl"}),
         table("paper").where("venue_key", "eq", "acl")),
        (table("paper").where("anthology_id", "2022.acl-long.3"),
         table("paper").where("anthology_id", "eq", "2022.acl-long.3")),
        (table("paper").where(Condition("venue_key", "eq", "acl")),
         table("paper").where("venue_key", "eq", "acl")),
    ]
    for short, explicit in pairs:
        assert short.build() == explicit.build()
        assert execute(handle, short.build()) == execute(handle, explicit.build())
    assert [row["anthology_id"] for row in execute(handle, pairs[1][0].build())] == [
        "2022.acl-long.3"]


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


RENDER_GOLDEN = Path(__file__).resolve().parent / "golden" / "render_sql.jsonl"


def rendered_chains(count: int = 200) -> list[str]:
    """One JSON line per seeded ``_astgen`` chain: its ``render_sql`` text,
    its ``bind_params`` and the SQL that ``execute`` runs for it."""
    rng = random.Random(1729)
    ids = [f"2021.acl-long.{n}" for n in range(1, 40)]
    lines = []
    for _ in range(count):
        ast = _astgen.random_chain(rng, ids).build()
        params: list = []
        executed = _render(ast, params, executed=True)
        assert params == bind_params(ast)
        lines.append(json.dumps([render_sql(ast), params, executed], ensure_ascii=False))
    return lines


def test_rendered_sql_matches_golden():
    """The builder renders the same SQL and parameters for the same chains.
    Rewrite the file only for a deliberate change of SQL text:
    ``PYTHONPATH=src:tests python -c "import test_query as t; t.write_render_golden()"``."""
    golden = RENDER_GOLDEN.read_text(encoding="utf-8").splitlines()
    assert len(golden) == 200
    for i, (got, want) in enumerate(zip(rendered_chains(), golden)):
        assert got == want, f"chain {i}"


def write_render_golden() -> None:
    RENDER_GOLDEN.write_text("\n".join(rendered_chains()) + "\n", encoding="utf-8")


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

    def test_exists_probes_one_unordered_row(self, small_store, monkeypatch):
        """exists() stops at the first match: no COUNT, no ORDER BY, and the
        chain's order, limit and projection are left out of the probe."""
        handle, _ = small_store
        seen = []
        run = Store.execute_sql

        def spy(self, sql, params=()):
            seen.append((sql, list(params)))
            return run(self, sql, params)

        monkeypatch.setattr(Store, "execute_sql", spy)
        chain = table("paper", handle).where("title", "like", "%story%").field("title")
        assert chain.order("year", "desc").limit(0).exists()
        assert not chain.where("year", "eq", 1999).exists()
        assert seen == [
            ("SELECT anthology_id FROM paper WHERE title LIKE ? LIMIT 1", ["%story%"]),
            ("SELECT anthology_id FROM paper WHERE title LIKE ? AND year = ? LIMIT 1",
             ["%story%", 1999]),
        ]

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


# Values of every type a caller might pass, SQLite-bindable or not.
_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.binary(max_size=3)
    | st.text(max_size=3) | st.sampled_from(["acl", "%a%", "\ud800", "is_null", "asc"]),
    lambda inner: (st.lists(inner, max_size=3) | st.tuples(inner, inner)
                   | st.dictionaries(st.sampled_from(PAPER_COLUMNS), inner, max_size=2)),
    max_leaves=4)
_COLUMNS = st.sampled_from([*PAPER_COLUMNS, "count", "colour"]) | _VALUES
_OPERATORS = st.sampled_from([*OPS, "badop"]) | _VALUES
_CONDITION = st.tuples(_COLUMNS, _OPERATORS, _VALUES) | st.tuples(_COLUMNS, _VALUES)
_CALLS = st.one_of(
    st.tuples(st.sampled_from(["where", "or_where", "having"]), _CONDITION),
    st.tuples(st.sampled_from(["where", "or_where"]),
              st.tuples(st.dictionaries(st.sampled_from(PAPER_COLUMNS),
                                        st.tuples(_OPERATORS, _VALUES) | _VALUES,
                                        max_size=2))),
    st.tuples(st.sampled_from(["and_group", "or_group"]),
              st.tuples(st.lists(_CONDITION | _VALUES, max_size=3) | _VALUES,
                        st.sampled_from(["and", "or"]) | _VALUES)),
    st.tuples(st.sampled_from(["field", "group"]), st.lists(_COLUMNS, max_size=3).map(tuple)),
    st.tuples(st.just("order"), st.tuples(_COLUMNS, st.sampled_from(["asc", "desc"]) | _VALUES)),
    st.tuples(st.sampled_from(["limit", "offset"]), st.tuples(st.integers(0, 3) | _VALUES)),
    st.tuples(st.sampled_from(["count", "min", "max", "avg", "sum", "distinct_count"]),
              st.tuples(_COLUMNS)),
    st.tuples(st.just("distinct"), st.just(())),
    st.tuples(st.just("table"), st.tuples(st.sampled_from(["paper", "conference"]) | _VALUES)),
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(calls=st.lists(_CALLS, min_size=1, max_size=4))
@example(calls=[("where", ("year", "in", [2021, [1]]))])
@example(calls=[("where", ("year", "eq", {"a": 1}))])
@example(calls=[("where", ("year", "between", [2020, "x"]))])
@example(calls=[("limit", ("3",))])
@example(calls=[("limit", (2.5,))])
@example(calls=[("limit", (1,)), ("offset", (1.5,))])
def test_any_call_returns_or_raises_a_harvest_error(small_store, calls):
    """A builder call either returns or raises a HarvestError, and a chain
    of accepted calls runs: the store never rejects what the builder took."""
    handle, _ = small_store
    builder = table("paper", handle)
    for name, args in calls:
        try:
            builder = getattr(builder, name)(*args)
        except HarvestError:
            pass  # go on from the last accepted chain
    for terminal in (Builder.query, Builder.exists, Builder.find_one):
        try:
            terminal(builder)
        except StoreUnavailable:
            raise
        except HarvestError:
            pass
