"""The SQL dialect parser (Section 7.2's query classes)."""

import pytest

from repro.core.errors import QueryError
from repro.query.sql import (
    Call,
    Column,
    Condition,
    Forecast,
    Query,
    Star,
    parse,
)


class TestSelect:
    def test_paper_example_query(self):
        # Fig. 11's query.
        query = parse(
            "SELECT Tid, SUM_S(*) FROM Segment WHERE Tid IN (1, 2, 3) "
            "GROUP BY Tid"
        )
        assert query.view == "segment"
        assert query.select == (Column("Tid"), Call("SUM_S", "*"))
        assert query.where == (Condition("Tid", "IN", (1, 2, 3)),)
        assert query.group_by == ("Tid",)
        assert query.is_aggregate

    def test_cube_function(self):
        # Fig. 12's query.
        query = parse(
            "SELECT Tid, CUBE_SUM_HOUR(*) FROM Segment WHERE Tid IN (1, 2, 3) "
            "GROUP BY Tid"
        )
        assert Call("CUBE_SUM_HOUR", "*") in query.select

    def test_star_selection(self):
        query = parse("SELECT * FROM DataPoint")
        assert query.select == (Star(),)
        assert not query.is_aggregate

    def test_plain_columns(self):
        query = parse("SELECT TS, Value FROM DataPoint WHERE Tid = 2")
        assert query.select == (Column("TS"), Column("Value"))

    def test_aggregate_with_column_argument(self):
        query = parse("SELECT COUNT(Value) FROM DataPoint")
        assert query.select == (Call("COUNT", "Value"),)

    def test_view_names_case_insensitive(self):
        assert parse("select sum_s(*) from SEGMENT").view == "segment"
        assert parse("SELECT COUNT(*) FROM datapoint").view == "datapoint"

    def test_function_name_uppercased(self):
        query = parse("SELECT sum_s(*) FROM Segment")
        assert query.select == (Call("SUM_S", "*"),)


class TestWhere:
    def test_comparison_operators(self):
        query = parse(
            "SELECT Value FROM DataPoint WHERE TS >= 100 AND TS <= 200 "
            "AND Value > 1.5"
        )
        assert query.where == (
            Condition("TS", ">=", 100),
            Condition("TS", "<=", 200),
            Condition("Value", ">", 1.5),
        )

    def test_string_literals(self):
        query = parse(
            "SELECT SUM_S(*) FROM Segment WHERE Category = 'Production'"
        )
        assert query.where == (Condition("Category", "=", "Production"),)

    def test_double_quoted_strings(self):
        query = parse('SELECT SUM_S(*) FROM Segment WHERE Park = "Aalborg"')
        assert query.where == (Condition("Park", "=", "Aalborg"),)

    def test_qualified_column(self):
        query = parse(
            "SELECT SUM_S(*) FROM Segment WHERE Location.Park = 'Aalborg'"
        )
        assert query.where[0].column == "Location.Park"

    def test_in_list(self):
        query = parse("SELECT COUNT_S(*) FROM Segment WHERE Tid IN (4)")
        assert query.where == (Condition("Tid", "IN", (4,)),)

    def test_negative_numbers(self):
        query = parse("SELECT Value FROM DataPoint WHERE Value >= -3.5")
        assert query.where == (Condition("Value", ">=", -3.5),)

    @pytest.mark.parametrize("x", (1e-05, -2.5e-07, 1.5e16, 0.1, 3.0))
    def test_float_literals_round_trip_through_repr(self, x):
        # repr writes values below 1e-4 or from 1e16 up with an exponent.
        query = parse(f"SELECT Value FROM DataPoint WHERE Value > {x!r}")
        (condition,) = query.where
        assert type(condition.value) is float and condition.value == x


class TestErrors:
    def test_missing_from(self):
        with pytest.raises(QueryError):
            parse("SELECT SUM_S(*) Segment")

    def test_unknown_view(self):
        with pytest.raises(QueryError):
            parse("SELECT SUM_S(*) FROM Points")

    def test_unsupported_operator(self):
        with pytest.raises(QueryError):
            parse("SELECT Value FROM DataPoint WHERE Tid <> 1")

    def test_unclosed_in_list(self):
        with pytest.raises(QueryError):
            parse("SELECT COUNT_S(*) FROM Segment WHERE Tid IN (1, 2")

    def test_trailing_tokens(self):
        # LIMIT itself is grammar now (similarity's k); anything after
        # the LIMIT clause is still trailing garbage.
        with pytest.raises(QueryError):
            parse("SELECT COUNT_S(*) FROM Segment LIMIT 5 extra")

    def test_unclosed_call(self):
        with pytest.raises(QueryError):
            parse("SELECT SUM_S(* FROM Segment")

    def test_empty_query(self):
        with pytest.raises(QueryError):
            parse("")

    def test_garbage_token(self):
        with pytest.raises(QueryError):
            parse("SELECT SUM_S(*) FROM Segment WHERE Tid = ;")


class TestAnalytics:
    def test_forecast(self):
        query = parse("SELECT FORECAST(TS, 10) FROM DataPoint WHERE Tid = 1")
        assert query.select == (Forecast(10),)
        assert query.has_forecast
        assert not query.is_aggregate
        assert query.where == (Condition("Tid", "=", 1),)

    def test_forecast_keyword_case_insensitive(self):
        query = parse("select forecast(ts, 3) from datapoint")
        assert query.select == (Forecast(3),)

    def test_similar_to_pattern_and_limit(self):
        query = parse(
            "SELECT * FROM DataPoint SIMILAR TO (1.0, -2.5, 3) LIMIT 5"
        )
        assert query.similar_to == (1.0, -2.5, 3.0)
        assert query.limit == 5
        assert query.select == (Star(),)

    def test_similar_to_without_limit(self):
        query = parse("SELECT * FROM Segment SIMILAR TO (4.5)")
        assert query.similar_to == (4.5,)
        assert query.limit is None

    @pytest.mark.parametrize(
        "sql",
        [
            # FORECAST extrapolates the TS axis only, with an integer
            # horizon of at least 1.
            "SELECT FORECAST(Value, 5) FROM DataPoint",
            "SELECT FORECAST(TS, 0) FROM DataPoint",
            "SELECT FORECAST(TS, -3) FROM DataPoint",
            "SELECT FORECAST(TS, 2.5) FROM DataPoint",
            "SELECT FORECAST(TS, x) FROM DataPoint",
            "SELECT FORECAST(TS 5) FROM DataPoint",
            "SELECT FORECAST(TS, 5 FROM DataPoint",
            # SIMILAR TO takes a parenthesized numeric pattern.
            "SELECT * FROM DataPoint SIMILAR TO 1.0",
            "SELECT * FROM DataPoint SIMILAR TO ()",
            "SELECT * FROM DataPoint SIMILAR TO (1.0, x)",
            "SELECT * FROM DataPoint SIMILAR TO (1.0, 2.0",
            # LIMIT takes an integer of at least 1.
            "SELECT * FROM DataPoint SIMILAR TO (1.0) LIMIT 0",
            "SELECT * FROM DataPoint SIMILAR TO (1.0) LIMIT -1",
            "SELECT * FROM DataPoint SIMILAR TO (1.0) LIMIT many",
        ],
    )
    def test_malformed_analytics(self, sql):
        with pytest.raises(QueryError):
            parse(sql)
