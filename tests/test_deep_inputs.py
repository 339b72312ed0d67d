"""Library questions on expression trees far deeper than the recursion limit.

Every pass over a sequence tree or an ideal description is
``sequences.fold`` or the index walk of the evaluators, both with explicit
stacks: profiles, supports, log envelopes, reduction, exact and log values,
streams, parsing, rendering, and ``==``, ``hash`` and ``repr`` never recurse
into the tree.
"""

from __future__ import annotations

import dataclasses
import math
import random
import sys
import time
from fractions import Fraction

import pytest

import opideals as op
from opideals.growth import profile
from opideals.sequences import head

SCALES = (Fraction(2), Fraction(1, 3), Fraction(3, 2))


def chain(seed: int, depth: int, slow: tuple[Fraction, Fraction]) -> op.SeqExpr:
    """``depth`` sum/max/scale/amp levels over ``pow(*slow)`` and faster power-log atoms.

    The tree has the growth class of ``pow(*slow)``.
    """
    rng = random.Random(seed)
    atoms = [op.power_log(slow[0] + dp, q) for dp in (Fraction(1, 2), Fraction(1)) for q in (0, 1)]
    e = op.power_log(*slow)
    for level in range(depth):
        kind = level % 4
        if kind == 0:
            e = op.seq_sum(e, rng.choice(atoms))
        elif kind == 1:
            e = op.seq_max(rng.choice(atoms), e)
        elif kind == 2:
            e = op.scale(rng.choice(SCALES), e)
        else:
            e = op.ampliate(e, rng.choice((2, 3)))
    return e


@pytest.fixture(autouse=True)
def default_recursion_limit():
    assert sys.getrecursionlimit() <= 1000


def test_ten_thousand_levels_answer_no_and_reduce():
    a = chain(1, 10_000, (Fraction(1), Fraction(0)))
    b = chain(2, 10_000, (Fraction(2), Fraction(1, 2)))
    assert op.member(a, op.Principal(b)).is_no
    assert op.big_o(a, b).is_no
    assert op.little_o(a, b).is_no
    assert op.support(a) is None and op.support(op.seq_product(b, op.finite([1, 1]))) == 2
    g = profile(a).growth
    assert (g.rate, g.power, g.logpower) == ((), 1, 0)
    red = op.reduce_ideal(op.IdealSum(op.IdealProduct(op.Principal(b), op.KH()), op.Principal(a)))
    assert isinstance(red, op.Principal) and red.generator is a
    logs = op.eval_log_many(a, (1, 2, 1000))
    assert len(logs) == 3 and all(x > -float("inf") for x in logs)


def test_fresh_thousand_levels_and_a_repeat_on_an_equal_copy():
    slow_a, slow_b = (Fraction(1), Fraction(1, 1000)), (Fraction(2), Fraction(1, 1000))
    assert op.member(chain(3, 1000, slow_a), op.Principal(chain(4, 1000, slow_b))).is_no
    first = chain(5, 340, slow_a), chain(6, 340, slow_b)
    copy = chain(5, 340, slow_a), chain(6, 340, slow_b)
    assert op.member(first[0], op.Principal(first[1])).is_no
    assert op.member(copy[0], op.Principal(copy[1])).is_no


def test_the_memo_leaves_equality_hash_and_text_alone():
    e, fresh = chain(7, 200, (Fraction(1, 2), Fraction(1))), chain(7, 200, (Fraction(1, 2), Fraction(1)))
    before = hash(e), repr(e), op.render_seq(e)
    assert profile(e) == profile(fresh)
    assert e == fresh and (hash(e), repr(e), op.render_seq(e)) == before
    assert hash(fresh) == before[0] and repr(fresh) == before[1]
    assert "_profile" not in {f.name for f in dataclasses.fields(e)}


def test_ten_thousand_levels_answer_yes_with_a_certified_constant():
    a = chain(8, 10_000, (Fraction(2), Fraction(0)))
    b = chain(9, 10_000, (Fraction(1), Fraction(1, 2)))
    start = time.perf_counter()
    v = op.big_o(a, b)
    assert time.perf_counter() - start < 1.0
    c = v.witness.constant
    assert v.is_yes and c >= 1
    log_c = math.log(c.numerator) - math.log(c.denominator)
    la, lb = op.eval_log_many(a, (1, 2, 1000, 10**6)), op.eval_log_many(b, (1, 2, 1000, 10**6))
    assert all(x - y <= log_c for x, y in zip(la, lb))
    assert op.member(a, op.Principal(b)).is_yes


def test_ten_thousand_levels_parse_render_evaluate_and_stream():
    e = chain(10, 10_000, (Fraction(1), Fraction(1, 2)))
    text = op.render_seq(e)
    assert op.render_seq(op.parse_seq(text)) == text
    values = [op.evaluate(e, n) for n in (1, 2, 1000)]
    logs = op.eval_log_many(e, (1, 2, 1000))
    assert all(math.isclose(math.log(v), x, rel_tol=1e-9) for v, x in zip(values, logs))
    assert head(e, 64) == [op.evaluate(e, n) for n in range(1, 65)]


def test_ten_thousand_levels_compare_hash_and_print():
    slow = (Fraction(1), Fraction(1, 2))
    a, b = chain(11, 10_000, slow), chain(11, 10_000, slow)
    assert a is not b and a == b and hash(a) == hash(b)
    assert repr(a) == repr(b) == f"{type(a).__name__}({op.render_seq(a)})"
    other = chain(12, 10_000, slow)
    assert a != other and op.Principal(a) == op.Principal(b) and op.Principal(a) != op.Principal(other)
