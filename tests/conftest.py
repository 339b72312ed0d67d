"""Shared corpus builders for the test suite.

Random expressions are drawn from a lattice of quarter-integer exponents
and small rational ratios; the coarse lattice keeps growth gaps large
enough that windowed numeric trends stay resolvable.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

import opideals as op

POWERS = [Fraction(n, 4) for n in (1, 2, 3, 4, 5, 6, 8, 12)]
LOGS = [Fraction(0), Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2)]
RATIOS = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 4), Fraction(3, 4), Fraction(1, 5)]


def random_atom(rng: random.Random) -> op.SeqExpr:
    if rng.random() < 0.6:
        return op.power_log(rng.choice(POWERS), rng.choice(LOGS))
    return op.geometric(rng.choice(RATIOS))


def random_expr(rng: random.Random, depth: int = 2) -> op.SeqExpr:
    if depth <= 0 or rng.random() < 0.35:
        roll = rng.random()
        if roll < 0.75:
            return random_atom(rng)
        if roll < 0.9:
            vals = sorted((rng.randrange(1, 9) for _ in range(rng.randrange(1, 5))), reverse=True)
            return op.finite(vals)
        return op.scale(Fraction(rng.randrange(1, 7), rng.randrange(1, 4)), random_atom(rng))
    kind = rng.randrange(6)
    if kind == 0:
        return op.ampliate(random_expr(rng, depth - 1), rng.randrange(1, 5))
    if kind == 1:
        return op.decimate(random_expr(rng, depth - 1), rng.randrange(1, 5))
    if kind == 2:
        return op.seq_sum(random_expr(rng, depth - 1), random_expr(rng, depth - 1))
    if kind == 3:
        return op.seq_max(random_expr(rng, depth - 1), random_expr(rng, depth - 1))
    if kind == 4:
        return op.seq_product(random_expr(rng, depth - 1), random_expr(rng, depth - 1))
    return op.scale(Fraction(rng.randrange(1, 5)), random_expr(rng, depth - 1))


def rate_power_cmp(a, b, k: int = 1) -> int:
    """The sign of rate(a)^k - rate(b) for two growth classes, by exact powers.

    Both sides are raised to the least common denominator D of the
    exponents, so that rate^D is the exact rational prod r^(e*D); affordable
    on small orders only.
    """
    sides = [(r, k * e) for r, e in a.rate], list(b.rate)
    d = math.lcm(*(e.denominator for side in sides for _, e in side))
    lhs, rhs = (math.prod((r ** int(e * d) for r, e in side), start=Fraction(1)) for side in sides)
    return (lhs > rhs) - (lhs < rhs)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0x5EED)
