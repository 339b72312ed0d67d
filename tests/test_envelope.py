"""The log envelopes and the class suprema behind certified witness constants."""

from __future__ import annotations

import dataclasses
import math
import random
from fractions import Fraction

import pytest

import opideals as op
from opideals.envelope import MAX_CONSTANT_BITS, _log_sup, constant_from_log, envelope
from opideals.growth import profile

from conftest import random_expr

INDICES = tuple(range(1, 2049)) + tuple(int(1.5**k) for k in range(19, 60))


def log_phi(e, ns):
    """log of the class representative rate^n n^-p log(n+1)^-q at each n."""
    c = profile(e).growth
    rate = sum(float(x) * (math.log(r.numerator) - math.log(r.denominator)) for r, x in c.rate)
    p, q = float(c.power), float(c.logpower)
    return [n * rate - p * math.log(n) - q * math.log(math.log(n + 1)) for n in ns]


def test_envelopes_enclose_every_value(rng):
    checked = 0
    for _ in range(400):
        e = random_expr(rng, depth=3)
        if op.support(e) is not None:
            continue
        lo, hi = envelope(e)
        for n, x, f in zip(INDICES, op.eval_log_many(e, INDICES), log_phi(e, INDICES)):
            tol = 1e-12 * (1 + abs(x) + abs(f))
            assert lo - tol <= x - f <= hi + tol, (op.render_seq(e), n, lo, x - f, hi)
        checked += 1
    assert checked >= 200


def test_log_sup_bounds_the_integer_maximum():
    rng = random.Random(5)
    ns = range(1, 20001)
    logs = [(n, math.log(n), math.log(math.log(n + 1))) for n in ns]
    for _ in range(300):
        lam = rng.choice([None, rng.uniform(-10, 1)])
        P, Q = rng.choice([0.0, rng.uniform(-3, 3)]), rng.choice([0.0, rng.uniform(-3, 3)])
        if lam is None and (P < 0 or (P == 0 and Q < 0)):
            continue
        L = 0.0 if lam is None else -math.exp(lam)
        values = [n * L - P * y - Q * ll for n, y, ll in logs]
        best, bound = max(values), _log_sup(lam, P, Q)
        assert bound >= best - 1e-12, (lam, P, Q)
        if values[-1] < best - 1:  # the peak lies well inside the scan
            assert bound <= best + 0.05, (lam, P, Q)


def test_no_answer_builds_no_envelope_and_the_slot_is_no_field():
    a = op.seq_sum(op.power_log(1), op.ampliate(op.power_log(2), 3))
    b = op.seq_max(op.power_log(2), op.scale(3, op.geometric(Fraction(1, 2))))
    assert op.big_o(a, b).is_no and op.member(a, op.Principal(b)).is_no
    assert a._envelope is None and b._envelope is None
    before = hash(b), repr(b)
    assert op.big_o(b, a).is_yes and b._envelope is not None
    assert (hash(b), repr(b)) == before
    assert "_envelope" not in {f.name for f in dataclasses.fields(b)}


def test_constants_cover_their_bound_up_to_the_printable_limit():
    for x in (-50.0, 0.0, 27.7, 30.0, 690.0, 699.9, 700.0, 700.1, 9000.0):
        c = constant_from_log(x)
        assert math.log(c.numerator) - math.log(c.denominator) >= x
        if x > 700:
            assert c.denominator == 1 and c.numerator & (c.numerator - 1) == 0  # a power of two
    assert constant_from_log(-math.inf) == 1
    # exp underflows to 0 far below zero, and a witness constant of 0 bounds nothing
    assert constant_from_log(-1e8) == Fraction(1, 2**24)
    v = op.big_o(op.parse_seq("dec(1000,geo(1/3))"), op.geometric(Fraction(1, 2)))
    assert v.is_yes and v.witness.constant > 0
    with pytest.raises(OverflowError):
        constant_from_log((MAX_CONSTANT_BITS + 1) * math.log(2))
