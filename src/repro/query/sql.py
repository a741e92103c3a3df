"""A small SQL dialect covering the paper's query classes (Section 7.2).

Supported statements::

    SELECT SUM_S(*) FROM Segment WHERE Tid IN (1, 2, 3) GROUP BY Tid
    SELECT Tid, CUBE_SUM_HOUR(*) FROM Segment WHERE Tid = 1 GROUP BY Tid
    SELECT Category, CUBE_AVG_MONTH(*) FROM Segment
        WHERE Category = 'Production' GROUP BY Category
    SELECT TS, Value FROM DataPoint WHERE Tid = 2 AND TS >= 1000 AND TS <= 2000
    SELECT COUNT(*) FROM DataPoint WHERE Tid = 1
    SELECT FORECAST(TS, 10) FROM DataPoint WHERE Tid = 1
    SELECT * FROM Segment SIMILAR TO (1.0, 2.0, 3.0) LIMIT 5
    SELECT Tid, StartTime, Anomaly FROM Segment WHERE Anomaly = 1

Conditions are AND-combined equality/range predicates over ``Tid``,
``TS`` and denormalised dimension columns, plus ``Tid IN (...)``. This is
deliberately the subset the evaluation workloads exercise — S-AGG, L-AGG,
M-AGG and P/R all parse with it — plus the model-native analytics
surface of :mod:`repro.query.analytics`.

:data:`GRAMMAR` is the authoritative EBNF of everything this parser
accepts; ``docs/QUERYING.md`` is asserted equal to it by
``scripts/check_docs.py``, so the SQL reference cannot drift.
"""

from __future__ import annotations

import datetime as dt
import re
from dataclasses import dataclass, replace

from ..core.errors import QueryError


def parse_timestamp(value: object) -> int:
    """A TS literal: epoch milliseconds, or an ISO-ish UTC date string."""
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        return int(value)
    if isinstance(value, str):
        for pattern in ("%Y-%m-%d %H:%M:%S", "%Y-%m-%d %H:%M", "%Y-%m-%d"):
            try:
                moment = dt.datetime.strptime(value, pattern)
            except ValueError:
                continue
            moment = moment.replace(tzinfo=dt.timezone.utc)
            return int(moment.timestamp() * 1000)
    raise QueryError(f"cannot interpret {value!r} as a timestamp")

_TOKEN = re.compile(
    r"""
    \s*(
        '(?:[^']*)'            # single-quoted string
      | "(?:[^"]*)"            # double-quoted string
      | [A-Za-z_][\w.]*        # identifier (dots allow Dimension.Level)
      | -?\d+(?:\.\d+)?[eE][-+]?\d+  # float with an exponent
      | -?\d+\.\d+             # float
      | -?\d+                  # int
      | <=|>=|<>|!=|[(),*=<>]  # symbols
    )
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Star:
    """The ``*`` select item."""


@dataclass(frozen=True)
class Column:
    name: str


@dataclass(frozen=True)
class Call:
    function: str
    argument: str  # "*" or a column name


@dataclass(frozen=True)
class Forecast:
    """The ``FORECAST(TS, horizon)`` select item.

    Extrapolates every selected series ``horizon`` steps past its last
    stored point, from model parameters alone (see
    :mod:`repro.query.analytics`).
    """

    horizon: int


SelectItem = Star | Column | Call | Forecast


@dataclass(frozen=True)
class Condition:
    column: str
    operator: str  # '=', '<', '<=', '>', '>=', 'IN'
    value: object  # literal, or tuple of literals for IN


def tid_values(condition: Condition) -> frozenset[int]:
    """The Tids a ``Tid = v`` or ``Tid IN (...)`` predicate names.

    The one Tid-predicate parser: the engine's planner and the cluster
    router both call it, so a malformed literal is a :class:`QueryError`
    on every path rather than a bare ``ValueError`` on some.
    """
    if condition.operator == "=":
        literals: tuple[object, ...] = (condition.value,)
    elif condition.operator == "IN" and isinstance(condition.value, tuple):
        literals = condition.value
    else:
        raise QueryError(
            f"Tid predicates support '=' and 'IN', got {condition.operator!r}"
        )
    numbers = [v for v in literals if isinstance(v, (int, float, str))]
    if len(numbers) == len(literals):
        try:
            return frozenset(int(number) for number in numbers)
        except ValueError:
            pass
    raise QueryError(
        f"Tid predicates require integer values, got {condition.value!r}"
    )


@dataclass(frozen=True)
class Query:
    view: str  # 'segment' or 'datapoint'
    select: tuple[SelectItem, ...]
    where: tuple[Condition, ...] = ()
    group_by: tuple[str, ...] = ()
    #: The ``SIMILAR TO (...)`` search pattern, or None.
    similar_to: tuple[float, ...] | None = None
    #: The ``LIMIT`` row bound (similarity's k), or None.
    limit: int | None = None
    #: The ``AS OF <knowledge-time>`` bound: read the store as it was
    #: known at that knowledge tick. None reads the latest-known state.
    as_of: int | None = None

    @property
    def is_aggregate(self) -> bool:
        return any(isinstance(item, Call) for item in self.select)

    @property
    def has_forecast(self) -> bool:
        return any(isinstance(item, Forecast) for item in self.select)


def tokenize(text: str) -> list[str]:
    tokens = []
    position = 0
    while position < len(text):
        match = _TOKEN.match(text, position)
        if match is None:
            if text[position:].strip():
                raise QueryError(
                    f"cannot tokenize query near {text[position:position+20]!r}"
                )
            break
        tokens.append(match.group(1))
        position = match.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[str]) -> None:
        self._tokens = tokens
        self._index = 0

    def peek(self) -> str | None:
        if self._index < len(self._tokens):
            return self._tokens[self._index]
        return None

    def next(self) -> str:
        token = self.peek()
        if token is None:
            raise QueryError("unexpected end of query")
        self._index += 1
        return token

    def expect_keyword(self, keyword: str) -> None:
        token = self.next()
        if token.upper() != keyword:
            raise QueryError(f"expected {keyword}, got {token!r}")

    def at_keyword(self, keyword: str) -> bool:
        token = self.peek()
        return token is not None and token.upper() == keyword

    # ------------------------------------------------------------------
    def parse(self) -> Query:
        self.expect_keyword("SELECT")
        select = self._parse_select_list()
        self.expect_keyword("FROM")
        view = self.next().lower()
        if view not in ("segment", "datapoint"):
            raise QueryError(
                f"unknown view {view!r}; expected Segment or DataPoint"
            )
        where: tuple[Condition, ...] = ()
        group_by: tuple[str, ...] = ()
        similar_to: tuple[float, ...] | None = None
        limit: int | None = None
        as_of: int | None = None
        if self.at_keyword("AS"):
            self.next()
            self.expect_keyword("OF")
            as_of = self._parse_as_of()
        if self.at_keyword("WHERE"):
            self.next()
            where = self._parse_conditions()
        if self.at_keyword("GROUP"):
            self.next()
            self.expect_keyword("BY")
            group_by = self._parse_identifier_list()
        if self.at_keyword("SIMILAR"):
            self.next()
            self.expect_keyword("TO")
            similar_to = self._parse_pattern()
        if self.at_keyword("LIMIT"):
            self.next()
            limit = self._parse_limit()
        if self.peek() is not None:
            raise QueryError(f"unexpected trailing token {self.peek()!r}")
        return Query(view, select, where, group_by, similar_to, limit, as_of)

    def _parse_select_list(self) -> tuple[SelectItem, ...]:
        items: list[SelectItem] = [self._parse_select_item()]
        while self.peek() == ",":
            self.next()
            items.append(self._parse_select_item())
        return tuple(items)

    def _parse_select_item(self) -> SelectItem:
        token = self.next()
        if token == "*":
            return Star()
        if not _is_identifier(token):
            raise QueryError(f"invalid select item {token!r}")
        if token.upper() == "FORECAST" and self.peek() == "(":
            return self._parse_forecast()
        if self.peek() == "(":
            self.next()
            argument = self.next()
            if argument != "*" and not _is_identifier(argument):
                raise QueryError(f"invalid aggregate argument {argument!r}")
            if self.next() != ")":
                raise QueryError("expected ')' after aggregate argument")
            return Call(token.upper(), argument)
        return Column(token)

    def _parse_forecast(self) -> Forecast:
        self.next()  # '('
        column = self.next()
        if column.upper() != "TS":
            raise QueryError(
                f"FORECAST extrapolates the TS axis; got {column!r}"
            )
        if self.next() != ",":
            raise QueryError("expected ',' after FORECAST(TS")
        horizon_token = self.next()
        try:
            horizon = int(horizon_token)
        except ValueError:
            raise QueryError(
                f"FORECAST horizon must be an integer, got {horizon_token!r}"
            ) from None
        if horizon < 1:
            raise QueryError("FORECAST horizon must be at least 1")
        if self.next() != ")":
            raise QueryError("expected ')' after the FORECAST horizon")
        return Forecast(horizon)

    def _parse_pattern(self) -> tuple[float, ...]:
        if self.next() != "(":
            raise QueryError("expected '(' after SIMILAR TO")
        values = [self._parse_number()]
        while self.peek() == ",":
            self.next()
            values.append(self._parse_number())
        if self.next() != ")":
            raise QueryError("expected ')' to close the SIMILAR TO pattern")
        return tuple(values)

    def _parse_number(self) -> float:
        token = self.next()
        try:
            return float(token)
        except ValueError:
            raise QueryError(
                f"SIMILAR TO patterns take numbers, got {token!r}"
            ) from None

    def _parse_as_of(self) -> int:
        token = self.next()
        try:
            as_of = int(token)
        except ValueError:
            raise QueryError(
                f"AS OF takes an integer knowledge time, got {token!r}"
            ) from None
        if as_of < 0:
            raise QueryError("AS OF knowledge time must be non-negative")
        return as_of

    def _parse_limit(self) -> int:
        token = self.next()
        try:
            limit = int(token)
        except ValueError:
            raise QueryError(
                f"LIMIT must be an integer, got {token!r}"
            ) from None
        if limit < 1:
            raise QueryError("LIMIT must be at least 1")
        return limit

    def _parse_conditions(self) -> tuple[Condition, ...]:
        conditions = [self._parse_condition()]
        while self.at_keyword("AND"):
            self.next()
            conditions.append(self._parse_condition())
        return tuple(conditions)

    def _parse_condition(self) -> Condition:
        column = self.next()
        if not _is_identifier(column):
            raise QueryError(f"invalid column name {column!r}")
        operator = self.next()
        if operator.upper() == "IN":
            if self.next() != "(":
                raise QueryError("expected '(' after IN")
            values = [self._parse_literal()]
            while self.peek() == ",":
                self.next()
                values.append(self._parse_literal())
            if self.next() != ")":
                raise QueryError("expected ')' to close IN list")
            return Condition(column, "IN", tuple(values))
        if operator not in ("=", "<", "<=", ">", ">="):
            raise QueryError(f"unsupported operator {operator!r}")
        return Condition(column, operator, self._parse_literal())

    def _parse_identifier_list(self) -> tuple[str, ...]:
        names = [self.next()]
        while self.peek() == ",":
            self.next()
            names.append(self.next())
        for name in names:
            if not _is_identifier(name):
                raise QueryError(f"invalid GROUP BY column {name!r}")
        return tuple(names)

    def _parse_literal(self) -> str | int | float:
        token = self.next()
        if token.startswith(("'", '"')):
            return token[1:-1]
        try:
            return int(token)
        except ValueError:
            pass
        try:
            return float(token)
        except ValueError:
            raise QueryError(f"invalid literal {token!r}") from None


def _is_identifier(token: str) -> bool:
    return bool(re.fullmatch(r"[A-Za-z_][\w.]*", token))


#: The authoritative grammar of this dialect, one production per line.
#: ``docs/QUERYING.md`` must quote it verbatim (``check_querying()`` in
#: ``scripts/check_docs.py`` asserts equality), so changing the parser
#: without updating the SQL reference fails CI.
GRAMMAR = (
    "statement   = [ 'EXPLAIN' 'ANALYZE' ] select",
    "select      = 'SELECT' select_list 'FROM' view"
    " [ 'AS' 'OF' integer ] [ 'WHERE' conditions ]",
    "              [ 'GROUP' 'BY' identifier { ',' identifier } ]",
    "              [ 'SIMILAR' 'TO' pattern ] [ 'LIMIT' integer ]",
    "view        = 'Segment' | 'DataPoint'",
    "select_list = select_item { ',' select_item }",
    "select_item = '*' | identifier | aggregate | forecast",
    "aggregate   = function '(' ( '*' | identifier ) ')'",
    "forecast    = 'FORECAST' '(' 'TS' ',' integer ')'",
    "conditions  = condition { 'AND' condition }",
    "condition   = identifier operator literal",
    "            | identifier 'IN' '(' literal { ',' literal } ')'",
    "operator    = '=' | '<' | '<=' | '>' | '>='",
    "pattern     = '(' number { ',' number } ')'",
    "literal     = number | integer | string | timestamp",
)


def parse(text: str) -> Query:
    """Parse one SQL statement into a :class:`Query`."""
    return _Parser(tokenize(text)).parse()


def apply_as_of(query: Query, as_of: int | None) -> Query:
    """Combine a parsed query with an ``as_of`` keyword argument.

    The statement's own ``AS OF`` clause and the API-level ``as_of``
    parameter must agree when both are given — silently preferring one
    would make the same statement mean different things at different
    call sites.
    """
    if as_of is None:
        return query
    if as_of < 0:
        raise QueryError("AS OF knowledge time must be non-negative")
    if query.as_of is not None and query.as_of != as_of:
        raise QueryError(
            f"conflicting AS OF bounds: statement says {query.as_of}, "
            f"as_of argument says {as_of}"
        )
    return replace(query, as_of=as_of)
