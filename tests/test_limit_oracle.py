"""Independent cross-check of the comparison engine against symbolic limits.

sympy computes lim a(n)/b(n) by an entirely different algorithm; a zero
limit must coincide with little-o (hence big-O), a finite nonzero limit
with big-O but not little-o, an infinite limit with neither.  Ampliation is
modelled by the continuous surrogate n -> n/m, which preserves the
zero/finite/infinite trichotomy.  The classes a symbolic No prints are
checked the same way: each side over its printed class has a finite nonzero
limit.
"""

import math
import random
import re
from fractions import Fraction

import pytest
import sympy

import opideals as op
from opideals.compare import big_o, little_o
from opideals.envelope import log_sup_ratio
from opideals.sequences import Ampliate, Decimate, Geometric, PowerLog, Product, Scale

N = sympy.symbols("n", positive=True)


def to_sympy(e):
    if isinstance(e, PowerLog):
        return N ** (-sympy.Rational(e.p)) * sympy.log(N + 1) ** (-sympy.Rational(e.q))
    if isinstance(e, Geometric):
        return sympy.Rational(e.ratio) ** N
    if isinstance(e, Scale):
        return sympy.Rational(e.factor) * to_sympy(e.inner)
    if isinstance(e, Product):
        return to_sympy(e.left) * to_sympy(e.right)
    if isinstance(e, Ampliate):
        return to_sympy(e.inner).subs(N, N / e.order)
    if isinstance(e, Decimate):
        return to_sympy(e.inner).subs(N, e.step * N)
    raise ValueError(f"outside the oracle's domain: {e!r}")


def limit_class(a, b):
    """'zero' | 'finite' | 'infinite' for lim a/b, or None if sympy bails."""
    try:
        lim = sympy.limit(to_sympy(a) / to_sympy(b), N, sympy.oo)
    except Exception:
        return None
    if lim == sympy.oo:
        return "infinite"
    if lim == 0:
        return "zero"
    if lim.is_finite and lim.is_positive:
        return "finite"
    return None


def check_against_limit(a, b):
    cls = limit_class(a, b)
    if cls is None:
        return False
    o_verdict = little_o(a, b)
    big_verdict = big_o(a, b)
    if cls == "zero":
        assert o_verdict.is_yes and big_verdict.is_yes, (op.render_seq(a), op.render_seq(b))
    elif cls == "finite":
        assert o_verdict.is_no and big_verdict.is_yes, (op.render_seq(a), op.render_seq(b))
    else:
        assert o_verdict.is_no and big_verdict.is_no, (op.render_seq(a), op.render_seq(b))
    return True


def random_oracle_expr(rng):
    def atom():
        if rng.random() < 0.6:
            return op.power_log(Fraction(rng.randrange(1, 9), 2), Fraction(rng.randrange(0, 5), 2))
        return op.geometric(Fraction(1, rng.randrange(2, 7)))

    e = atom()
    for _ in range(rng.randrange(0, 3)):
        roll = rng.random()
        if roll < 0.4:
            e = op.seq_product(e, atom())
        elif roll < 0.6:
            e = op.ampliate(e, rng.randrange(2, 5))
        elif roll < 0.8:
            e = op.decimate(e, rng.randrange(2, 5))
        else:
            e = op.scale(Fraction(rng.randrange(1, 6), rng.randrange(1, 4)), e)
    return e


def test_named_pairs_match_symbolic_limits():
    g = op.geometric(Fraction(1, 2))
    pairs = [
        (op.power_log(3), op.power_log(2)),
        (op.power_log(2), op.power_log(3)),
        (op.decimate(g, 2), g),
        (op.decimate(op.power_log(1), 2), op.power_log(1)),
        (g, op.power_log(50)),
        (op.power_log(1, 2), op.power_log(1)),
        (op.ampliate(g, 3), g),
        (op.seq_product(op.power_log(1), op.power_log(2)), op.power_log(3)),
    ]
    for a, b in pairs:
        assert check_against_limit(a, b)


def test_random_pairs_match_symbolic_limits():
    rng = random.Random(0x0AC1E)
    decided = 0
    for _ in range(40):
        a, b = random_oracle_expr(rng), random_oracle_expr(rng)
        if check_against_limit(a, b):
            decided += 1
    assert decided >= 25  # sympy must settle a solid majority of the draws


def test_certified_constants_reach_the_symbolic_limit():
    # along n divisible by every ampliation order the surrogate is exact, so
    # sup a_n/b_n is at least the limit sympy finds
    g, p1 = op.geometric(Fraction(1, 2)), op.power_log(1)
    pairs = [
        (op.scale(3, op.power_log(2)), op.power_log(2)),
        (op.decimate(p1, 2), p1),
        (p1, op.ampliate(p1, 2)),
        (op.seq_product(p1, op.power_log(1, 1)), op.power_log(2, 1)),
        (op.ampliate(op.geometric(Fraction(1, 4)), 2), g),
        (op.scale(Fraction(5, 2), op.decimate(op.power_log(Fraction(3, 2), 1), 3)), op.power_log(Fraction(3, 2), 1)),
        (
            op.seq_product(op.ampliate(g, 3), op.decimate(op.power_log(2), 2)),
            op.scale(7, op.ampliate(op.seq_product(g, op.power_log(2)), 3)),
        ),
        (op.decimate(op.ampliate(op.geometric(Fraction(1, 3)), 4), 2), op.ampliate(op.geometric(Fraction(1, 9)), 4)),
    ]
    for a, b in pairs:
        lim = float(sympy.limit(to_sympy(a) / to_sympy(b), N, sympy.oo))
        assert 0 < lim < float("inf")
        v = big_o(a, b)
        assert v.is_yes and v.witness.constant >= 2 * lim * (1 - 1e-12), (op.render_seq(a), lim)
        assert log_sup_ratio(a, b) >= math.log(lim) - 1e-12, (op.render_seq(a), lim)


def class_to_sympy(text):
    """The representative of a class printed by ``growth.render_class``."""
    out = sympy.Integer(1)
    for factor in text.split(" "):
        rate = re.fullmatch(r"\((\d+/\d+)\)\^(?:n|\((\d*)n(?:/(\d+))?\))", factor)
        if rate:
            exponent = sympy.Rational(int(rate[2] or 1), int(rate[3] or 1))
            out *= sympy.Rational(rate[1]) ** (exponent * N)
            continue
        base, _, power = factor.rpartition("^")
        if factor != "1":
            out *= {"n": N, "log(n+1)": sympy.log(N + 1)}[base] ** sympy.Rational(power.strip("()"))
    return out


def test_printed_classes_match_symbolic_limits():
    # each side of a symbolic No, divided by the representative of the class
    # its certificate prints, tends to a finite nonzero limit
    rng = random.Random(0x0AC1E)
    pairs = [(random_oracle_expr(rng), random_oracle_expr(rng)) for _ in range(40)]
    checked = {}
    for a, b in pairs:
        for v in (big_o(a, b), little_o(a, b), op.member(a, op.Principal(b))):
            if not v.is_no:
                continue
            classes = re.search(r"left class (.+), right class (.+)$", v.certificate.note)
            for side, text in zip((a, b), classes.groups()):
                if (side, text) not in checked:
                    lim = sympy.limit(to_sympy(side) / class_to_sympy(text), N, sympy.oo)
                    checked[side, text] = lim
                    assert lim.is_finite and lim.is_positive, (op.render_seq(side), text, lim)
    assert len(checked) >= 30
