"""The retriever: a chainable query builder over the relational store.

A chain starts at ``table()`` and every subsequent call returns a *new*
builder value holding a new QueryAst, so a prefix can be reused for several
different suffixes.  ``build()`` validates the chain and returns its own
QueryAst; ``render_sql()`` turns an AST into deterministic standard SQL with
positional placeholders; and ``execute()`` runs it, returning rows for plain
selects, tuples for grouped selects, or a scalar for bare aggregates.
``exists()`` answers for the where-conditions alone: order, limit, offset,
projection and grouping are ignored, and the probe stops at the first
matching row.

Builder operations: table, where, or_where, and_group, or_group, field,
group, having, order, limit, offset, distinct, count, min, max, avg, sum,
distinct_count, build, query, find_one, exists.

Conditions accept two spellings::

    .where("year", "in", [2021, 2022])      # column, op, value
    .where({"year": ["in", [2021, 2022]]})  # mapping form
    .where({"venue_key": "acl"})            # bare value means eq

Determinism: executed row order always ends with the primary key ascending
as a final tiebreaker (grouped queries tiebreak on the group tuple,
distinct queries on the projected tuple), so pagination is repeatable.
``render_sql`` itself renders the AST verbatim, without the implicit
tiebreaker.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, NamedTuple, Sequence, Union

from .errors import BadArity, InvalidChain, MissingColumn, UnknownColumn
from .paperlist import PaperList
from .store import PAPER_COLUMNS, PRIMARY_KEYS, TABLE_COLUMNS, Store, paper_from_row

OPS = ("eq", "neq", "gt", "gte", "lt", "lte", "in", "not_in", "like",
       "between", "is_null", "is_not_null")

_OP_SQL = {
    "eq": "=", "neq": "!=", "gt": ">", "gte": ">=", "lt": "<", "lte": "<=",
}

AGGREGATES = ("count", "min", "max", "avg", "sum", "distinct_count")

# Identifiers that collide with SQL keywords get quoted when rendered.
_RESERVED_IDENTIFIERS = {"desc"}

COUNT_PSEUDO_COLUMN = "count"
_PAPER_COLUMN_SET = frozenset(PAPER_COLUMNS)
_INT64_MAX = 2**63 - 1
_SURROGATE = re.compile("[\ud800-\udfff]")


def _ident(name: str) -> str:
    return f'"{name}"' if name in _RESERVED_IDENTIFIERS else name


def _check_bindable(value: Any) -> None:
    """Raise BadArity unless sqlite3 can bind ``value``: None, an int that
    fits in 64 bits, a float, bytes, or a str without lone surrogates."""
    if isinstance(value, int):
        ok = -_INT64_MAX - 1 <= value <= _INT64_MAX
    elif isinstance(value, str):
        ok = value.isascii() or not _SURROGATE.search(value)
    else:
        ok = value is None or isinstance(value, (float, bytes))
    if not ok:
        raise BadArity(f"cannot bind {value!r}; a value is None, "
                       "a 64-bit int, a float, a str or bytes")


def _check_limit(name: str, n: Any) -> None:
    """A LIMIT or OFFSET is an int (not a bool) from 0 to SQLite's largest."""
    if type(n) is not int:
        raise InvalidChain(f"{name} takes an int, got {n!r}")
    if n < 0:
        raise InvalidChain(f"{name} must be non-negative")
    if n > _INT64_MAX:
        raise InvalidChain(f"{name} must be at most {_INT64_MAX}")


@dataclass(frozen=True)
class Condition:
    column: str
    op: str
    value: Any = None

    def __post_init__(self) -> None:
        if self.op not in OPS:
            raise BadArity(f"unknown operator {self.op!r}; pick from {list(OPS)}")
        if self.op in ("in", "not_in"):
            if not isinstance(self.value, (list, tuple)) or len(self.value) == 0:
                raise BadArity(f"{self.op} needs a non-empty list")
            for item in self.value:
                _check_bindable(item)
        elif self.op == "between":
            ok = isinstance(self.value, (list, tuple)) and len(self.value) == 2
            if not ok:
                raise BadArity("between needs a (low, high) pair")
            low, high = self.value
            _check_bindable(low)
            _check_bindable(high)
            try:
                ordered = not low > high
            except TypeError:
                ordered = False
            if not ordered:
                raise BadArity(f"between pair must be ordered, got ({low!r}, {high!r})")
        elif self.op in ("is_null", "is_not_null"):
            if self.value is not None:
                raise BadArity(f"{self.op} takes no value")
        elif self.value is None or isinstance(self.value, (list, tuple)):
            raise BadArity(f"{self.op} needs a single scalar value")
        else:
            _check_bindable(self.value)


@dataclass(frozen=True)
class ConditionGroup:
    """Parenthesized conditions joined by one connective."""

    joiner: str  # "and" | "or"
    conditions: tuple[Condition, ...]

    def __post_init__(self) -> None:
        if self.joiner not in ("and", "or"):
            raise InvalidChain(f"group joiner must be and/or, got {self.joiner!r}")
        if not self.conditions:
            raise InvalidChain("condition group must be non-empty")


WhereItem = Union[Condition, ConditionGroup]
# (connector, item); the first connector is ignored when rendering.
WhereTerm = tuple[str, WhereItem]


class QueryAst(NamedTuple):
    """Normalized representation of one chainable query; a tuple, so a
    changed copy is ``ast._replace(limit=5)``."""

    source: str
    conditions: tuple[WhereTerm, ...] = ()
    group_by: tuple[str, ...] | None = None
    having: Condition | None = None
    order_by: tuple[tuple[str, str], ...] = ()
    limit: int | None = None
    offset: int | None = None
    projection: tuple[str, ...] | None = None
    aggregate: tuple[str, str | None] | None = None
    distinct: bool = False


def _coerce_conditions(args: tuple, kwargs: Mapping[str, Any]) -> list[Condition]:
    """Accept ('col', 'op', value), ('col', value), or a mapping form."""
    if kwargs:
        raise BadArity("conditions are positional; use where('col', 'op', value)")
    if len(args) == 3:
        return [Condition(*args)]
    if len(args) == 2:
        column, value = args
        if value in ("is_null", "is_not_null"):
            return [Condition(column, value)]
        return [Condition(column, "eq", value)]
    if len(args) == 1 and isinstance(args[0], Condition):
        return [args[0]]
    if (len(args) == 1 and isinstance(args[0], (list, tuple))
            and 2 <= len(args[0]) <= 3 and isinstance(args[0][0], str)):
        return _coerce_conditions(tuple(args[0]), {})
    if len(args) == 1 and isinstance(args[0], Mapping):
        out = []
        for column, spec in args[0].items():
            if isinstance(spec, (list, tuple)) and len(spec) == 2 and spec[0] in OPS:
                out.append(Condition(column, spec[0], spec[1]))
            else:
                out.append(Condition(column, "eq", spec))
        if not out:
            raise BadArity("empty condition mapping")
        return out
    raise BadArity(f"cannot build a condition from {args!r}")


def _check_columns(source: str, columns: Iterable) -> None:
    known = TABLE_COLUMNS[source]
    for column in columns:
        if column not in known:
            raise UnknownColumn(f"column {column!r} not in table {source!r}")


@dataclass(frozen=True, slots=True)
class Builder:
    """Immutable chainable builder; start with .table(), which sets ``ast``."""

    handle: Store | None = None
    ast: QueryAst | None = None

    # -- chain entry ---------------------------------------------------------

    def table(self, source: str) -> "Builder":
        return table(source, self.handle)

    def _require_ast(self) -> QueryAst:
        if self.ast is None:
            raise InvalidChain("call table() first")
        return self.ast

    def _with(self, **changes) -> "Builder":
        return Builder(self.handle, self._require_ast()._replace(**changes))

    # -- conditions ----------------------------------------------------------

    def _append(self, connector: str, conds: list[Condition],
                joiner: str | None = None) -> "Builder":
        """Attach ``conds`` with ``connector``, as one group when ``joiner`` is given."""
        ast = self._require_ast()
        _check_columns(ast.source, [cond.column for cond in conds])
        items = conds if joiner is None else [ConditionGroup(joiner, tuple(conds))]
        terms = tuple([(connector, item) for item in items])
        return Builder(self.handle, ast._replace(conditions=ast.conditions + terms))

    def where(self, *args, **kwargs) -> "Builder":
        """Conjoin one or more conditions (repeated calls AND together)."""
        return self._append("and", _coerce_conditions(args, kwargs))

    def or_where(self, *args, **kwargs) -> "Builder":
        """Attach one or more conditions with OR."""
        return self._append("or", _coerce_conditions(args, kwargs))

    def _group_terms(self, connector: str, joiner: str, specs: Iterable) -> "Builder":
        if not isinstance(specs, Iterable):
            raise BadArity(f"a condition group needs a list of conditions, got {specs!r}")
        conds = [cond for spec in specs for cond in _coerce_conditions((spec,), {})]
        return self._append(connector, conds, joiner)

    def and_group(self, specs: Iterable, joiner: str = "or") -> "Builder":
        """AND a parenthesized group (disjunctive by default) onto the chain."""
        return self._group_terms("and", joiner, specs)

    def or_group(self, specs: Iterable, joiner: str = "and") -> "Builder":
        """OR a parenthesized group (conjunctive by default) onto the chain."""
        return self._group_terms("or", joiner, specs)

    # -- shaping  --------------------------------------------------------

    def field(self, *columns: str) -> "Builder":
        ast = self._require_ast()
        if not columns:
            raise InvalidChain("field() needs at least one column")
        _check_columns(ast.source, columns)
        return Builder(self.handle, ast._replace(projection=columns))

    def group(self, *columns: str) -> "Builder":
        ast = self._require_ast()
        if not columns:
            raise InvalidChain("group() needs at least one column")
        _check_columns(ast.source, columns)
        if len(set(columns)) < len(columns):
            raise InvalidChain("group() columns must be distinct")
        return Builder(self.handle, ast._replace(group_by=columns))

    def having(self, *args, **kwargs) -> "Builder":
        conds = _coerce_conditions(args, kwargs)
        if len(conds) != 1:
            raise InvalidChain("having() takes exactly one condition")
        cond = conds[0]
        ast = self._require_ast()
        if cond.column != COUNT_PSEUDO_COLUMN:
            _check_columns(ast.source, (cond.column,))
        return Builder(self.handle, ast._replace(having=cond))

    def order(self, column: str, direction: str = "asc") -> "Builder":
        ast = self._require_ast()
        _check_columns(ast.source, (column,))
        if direction not in ("asc", "desc"):
            raise InvalidChain(f"direction must be asc/desc, got {direction!r}")
        return Builder(self.handle, ast._replace(order_by=ast.order_by + ((column, direction),)))

    def limit(self, n: int) -> "Builder":
        _check_limit("limit", n)
        return self._with(limit=n)

    def offset(self, n: int) -> "Builder":
        _check_limit("offset", n)
        return self._with(offset=n)

    def distinct(self) -> "Builder":
        return self._with(distinct=True)

    # -- aggregates ------------------------------------------------------

    def _agg(self, fn: str, column: str | None) -> "Builder":
        ast = self._require_ast()
        if column is not None or fn != "count":  # only count() may count rows
            _check_columns(ast.source, (column,))
        return Builder(self.handle, ast._replace(aggregate=(fn, column)))

    def count(self, column: str | None = None) -> "Builder":
        return self._agg("count", column)

    def min(self, column: str) -> "Builder":
        return self._agg("min", column)

    def max(self, column: str) -> "Builder":
        return self._agg("max", column)

    def avg(self, column: str) -> "Builder":
        return self._agg("avg", column)

    def sum(self, column: str) -> "Builder":
        return self._agg("sum", column)

    def distinct_count(self, column: str) -> "Builder":
        return self._agg("distinct_count", column)

    # -- terminals -------------------------------------------------------

    def build(self) -> QueryAst:
        """Validate the chain and return its AST.

        Raises:
            InvalidChain: structural misuse (having without group, offset
                without limit, projection mixed with grouping, ...).
        """
        ast = self._require_ast()
        if ast.having is not None and ast.group_by is None:
            raise InvalidChain("having() requires group()")
        if ast.offset is not None and ast.limit is None:
            raise InvalidChain("offset() requires limit()")
        if ast.aggregate is not None and ast.projection is not None:
            raise InvalidChain("aggregates cannot be combined with field()")
        if ast.aggregate is not None and ast.distinct:
            raise InvalidChain("use distinct_count() instead of distinct() + aggregate")
        if ast.group_by is not None and ast.projection is not None:
            raise InvalidChain("group() fixes the select list; drop field()")
        if ast.group_by is not None and ast.distinct:
            raise InvalidChain("group() already deduplicates; drop distinct()")
        if ast.group_by is not None:
            for column, _ in ast.order_by:
                if column not in ast.group_by:
                    raise InvalidChain(
                        f"order column {column!r} must be grouped")
        elif ast.distinct and ast.projection is not None:
            for column, _ in ast.order_by:
                if column not in ast.projection:
                    raise InvalidChain(
                        f"order column {column!r} must be projected under distinct()")
        if ast.having is not None and ast.having.column != COUNT_PSEUDO_COLUMN:
            if ast.having.column not in (ast.group_by or ()):
                raise InvalidChain("having() may reference 'count' or a grouped column")
        return ast

    def _store(self) -> Store:
        if self.handle is None:
            raise InvalidChain("builder has no store bound; pass Builder(handle)")
        return self.handle

    def query(self):
        """Build and execute against the bound store."""
        return execute(self._store(), self.build())

    def find_one(self):
        """First row of the (deterministically ordered) result, or None."""
        rows = self.limit(0 if self._require_ast().limit == 0 else 1).query()
        if not isinstance(rows, list):
            raise InvalidChain("find_one() applies to row queries, not aggregates")
        return rows[0] if rows else None

    def exists(self) -> bool:
        """Whether any row matches the chain's where-conditions; the probe
        reads one row's primary key, unordered, and stops there."""
        ast = self._require_ast()
        probe = QueryAst(ast.source, ast.conditions, limit=1,
                         projection=(PRIMARY_KEYS[ast.source],))
        return bool(execute(self._store(), probe, ordered=False))


def table(source: str, handle: Store | None = None) -> Builder:
    """Start a chain: ``table("paper").where(...)``."""
    if not isinstance(source, str) or source not in TABLE_COLUMNS:
        raise UnknownColumn(f"unknown table {source!r}; pick from {sorted(TABLE_COLUMNS)}")
    return Builder(handle, QueryAst(source))


# -- rendering ---------------------------------------------------------------


def _render_condition(cond: Condition, params: list, col: str | None = None) -> str:
    # ``col`` is the left-hand SQL: HAVING passes COUNT(*) or a grouped column.
    col = col or _ident(cond.column)
    if cond.op in _OP_SQL:
        params.append(cond.value)
        return f"{col} {_OP_SQL[cond.op]} ?"
    if cond.op == "like":
        params.append(cond.value)
        return f"{col} LIKE ?"
    if cond.op in ("in", "not_in"):
        placeholders = ", ".join("?" for _ in cond.value)
        params.extend(cond.value)
        keyword = "IN" if cond.op == "in" else "NOT IN"
        return f"{col} {keyword} ({placeholders})"
    if cond.op == "between":
        params.extend(cond.value)
        return f"{col} BETWEEN ? AND ?"
    if cond.op == "is_null":
        return f"{col} IS NULL"
    return f"{col} IS NOT NULL"


def _render_where(terms: Sequence[WhereTerm], params: list) -> str:
    parts: list[str] = []
    for connector, item in terms:
        if isinstance(item, ConditionGroup):
            inner = f" {item.joiner.upper()} ".join(
                [_render_condition(c, params) for c in item.conditions])
            rendered = f"({inner})"
        else:
            rendered = _render_condition(item, params)
        parts.append(f"{connector.upper()} {rendered}" if parts else rendered)
    return " ".join(parts)


def _render_aggregate(aggregate: tuple[str, str | None]) -> str:
    fn, column = aggregate
    if fn == "count":
        return f"COUNT({_ident(column)})" if column else "COUNT(*)"
    if fn == "distinct_count":
        return f"COUNT(DISTINCT {_ident(column)})"
    return f"{fn.upper()}({_ident(column)})"


def _render(ast: QueryAst, params: list, *, executed: bool = False) -> str:
    if ast.group_by is not None:
        select_list = ", ".join(_ident(c) for c in ast.group_by)
        if ast.aggregate is not None:
            select_list += f", {_render_aggregate(ast.aggregate)}"
    elif ast.aggregate is not None:
        select_list = _render_aggregate(ast.aggregate)
    elif ast.projection is not None:
        select_list = ", ".join(_ident(c) for c in ast.projection)
    else:
        select_list = "*"
    if ast.distinct:
        select_list = f"DISTINCT {select_list}"

    sql = f"SELECT {select_list} FROM {ast.source}"
    if ast.conditions:
        sql += f" WHERE {_render_where(ast.conditions, params)}"
    if ast.group_by is not None:
        sql += f" GROUP BY {', '.join(_ident(c) for c in ast.group_by)}"
    if ast.having is not None:
        lhs = ("COUNT(*)" if ast.having.column == COUNT_PSEUDO_COLUMN
               else _ident(ast.having.column))
        sql += f" HAVING {_render_condition(ast.having, params, lhs)}"

    order_pairs = list(ast.order_by)
    if executed:
        order_pairs += _implicit_order(ast, order_pairs)
    if order_pairs:
        rendered = ", ".join([f"{_ident(c)} {d.upper()}" for c, d in order_pairs])
        sql += f" ORDER BY {rendered}"
    if ast.limit is not None:
        sql += f" LIMIT {ast.limit}"
    if ast.offset is not None:
        sql += f" OFFSET {ast.offset}"
    return sql


def _implicit_order(ast: QueryAst,
                    explicit: Sequence[tuple[str, str]]) -> list[tuple[str, str]]:
    """The deterministic tiebreaker appended at execution time."""
    if ast.group_by is not None:
        tail = ast.group_by
    elif ast.aggregate is not None:
        return []
    elif ast.distinct:
        tail = ast.projection or TABLE_COLUMNS[ast.source]
    else:
        tail = (PRIMARY_KEYS[ast.source],)
    named = {c for c, _ in explicit}
    return [(c, "asc") for c in tail if c not in named]


def render_sql(ast: QueryAst) -> str:
    """Deterministic standard-SQL text with positional placeholders."""
    return _render(ast, [])


def bind_params(ast: QueryAst) -> list:
    """The positional parameter values matching render_sql's placeholders."""
    params: list = []
    _render(ast, params)
    return params


def execute(h: Store, ast: QueryAst, *, ordered: bool = True):
    """Run the query and return its result.

    Bare aggregates return a scalar; grouped queries return a list of
    tuples (group values, then the aggregate when present); row queries
    return a list of column->value dicts.  ``ordered=False`` leaves out the
    implicit tiebreaker, for a probe that does not care which rows it gets.
    """
    params: list = []
    sql = _render(ast, params, executed=ordered)
    if ast.aggregate is not None and ast.group_by is None:
        return h.execute_scalar(sql, params)
    if ast.group_by is not None:
        return [tuple(row.values()) for row in h.execute_sql(sql, params)]
    return h.execute_sql(sql, params)


def hydrate_papers(rows: Sequence[Mapping]) -> PaperList:
    """Turn full-projection paper rows into a PaperList, order preserved.

    Raises:
        MissingColumn: if the rows carry only a partial projection.
    """
    for row in rows:
        if not _PAPER_COLUMN_SET <= row.keys():
            missing = [c for c in PAPER_COLUMNS if c not in row.keys()]
            raise MissingColumn(f"rows lack columns {missing}; select the full row")
    return PaperList.from_iterable(map(paper_from_row, rows))
