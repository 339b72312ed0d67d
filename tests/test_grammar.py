from fractions import Fraction

import pytest

import opideals as op
from opideals.grammar import ParseError, parse_ideal, parse_seq, render_ideal, render_seq
from opideals.ideals import IdealProduct, KH, Principal

from conftest import random_expr


def test_parse_basic_sequences():
    assert parse_seq("amp(2,pow(1))") == op.ampliate(op.power_log(1), 2)
    assert parse_seq("pow(1,2)") == op.power_log(1, 2)
    assert parse_seq("geo(1/2)") == op.geometric(Fraction(1, 2))
    assert parse_seq("fin(4,2,1)") == op.finite([4, 2, 1])
    assert parse_seq("scale(3/2,pow(2))") == op.scale(Fraction(3, 2), op.power_log(2))
    assert parse_seq("sum(pow(1),max(geo(1/3),pow(2)))") == op.seq_sum(
        op.power_log(1), op.seq_max(op.geometric(Fraction(1, 3)), op.power_log(2))
    )


def test_parse_decimals_are_exact():
    assert parse_seq("geo(0.25)") == op.geometric(Fraction(1, 4))
    assert parse_seq("scale(0.1,pow(1))") == op.scale(Fraction(1, 10), op.power_log(1))


def test_parse_basic_ideals():
    assert parse_ideal("prod(prin(pow(1)),KH)") == IdealProduct(Principal(op.power_log(1)), KH())
    assert parse_ideal("KH") == KH()
    assert render_ideal(parse_ideal("pow(prin(pow(1)),3)")) == "pow(prin(pow(1)),3)"


def test_domain_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse_seq("geo(3/2)")
    assert "position" in str(err.value)
    with pytest.raises(ParseError):
        parse_seq("pow(0)")
    with pytest.raises(ParseError):
        parse_seq("fin(1,2)")


def test_syntax_errors():
    for text in ("pow(1", "pow()", "geo(1/2))", "amp(x,pow(1))", "prin(pow(1))", "wave(1)"):
        with pytest.raises(ParseError):
            parse_seq(text)
    for text in ("prin", "prod(KH)", "pow(KH,0)", "pow(1)"):
        with pytest.raises(ParseError):
            parse_ideal(text)


def test_a_bad_character_is_named_where_it_stands():
    for text, at in (("pow(1) #", 7), ("pow(1)#", 6), ("  #", 2)):
        with pytest.raises(ParseError) as err:
            parse_seq(text)
        assert str(err.value) == f"unexpected character '#' (at position {at})" and err.value.position == at


def test_render_parse_round_trip_random(rng):
    for _ in range(80):
        e = random_expr(rng, depth=3)
        assert parse_seq(render_seq(e)) == e


def test_render_parse_round_trip_corpus():
    corpus = [
        "pow(1)",
        "pow(1,2)",
        "pow(3/2)",
        "geo(1/2)",
        "fin(4,2,1)",
        "scale(2,pow(1))",
        "amp(3,geo(1/2))",
        "dec(2,pow(1))",
        "sum(pow(1),pow(2))",
        "max(geo(1/2),pow(5))",
        "prod(pow(1),pow(1,1))",
    ]
    for text in corpus:
        assert render_seq(parse_seq(text)) == text
    ideal_corpus = [
        "prin(pow(1))",
        "KH",
        "FH",
        "prod(prin(pow(1)),KH)",
        "sum(prin(geo(1/2)),prin(pow(2)))",
        "pow(prin(pow(1)),3)",
    ]
    for text in ideal_corpus:
        assert render_ideal(parse_ideal(text)) == text


def test_render_reduced_forms_are_parseable():
    from opideals.ideals import SoftInterior, ZeroIdeal, reduce_ideal

    soft = SoftInterior(op.power_log(1))
    again = parse_ideal(render_ideal(soft))
    assert reduce_ideal(again) == soft
    zero = ZeroIdeal()
    assert reduce_ideal(parse_ideal(render_ideal(zero))) == zero
