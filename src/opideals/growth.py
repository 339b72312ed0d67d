"""Asymptotic normal forms for sequence expressions.

Every expression in the grammar is either eventually zero or is, up to
bounded constants, of the shape

    base^(n/root) * n^(-power) * log(n)^(-logpower)

with a rational base in (0, 1].  These classes are totally ordered under
eventual domination (compare rates first, then power, then log exponents),
which is what makes big-O and little-o questions decidable across the whole
grammar without touching a single limit numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from math import gcd, lcm

from .sequences import (
    Ampliate,
    Decimate,
    Finite,
    Geometric,
    Max,
    PowerLog,
    Product,
    Scale,
    SeqExpr,
    Sum,
)

ONE = Fraction(1)


@dataclass(frozen=True)
class GrowthClass:
    base: Fraction  # rate = base^(1/root), base in (0, 1]
    root: int
    power: Fraction
    logpower: Fraction

    @property
    def rate_is_one(self) -> bool:
        return self.base == 1


def _mk(base: Fraction, root: int, power: Fraction, logpower: Fraction) -> GrowthClass:
    if base == 1:
        return GrowthClass(ONE, 1, power, logpower)
    return GrowthClass(base, root, power, logpower)


@dataclass(frozen=True)
class Profile:
    """Support size (None = infinite) plus the growth class of the tail."""

    support: int | None
    growth: GrowthClass | None  # None exactly when support is finite

    @property
    def is_finite(self) -> bool:
        return self.support is not None

    @property
    def is_zero(self) -> bool:
        return self.support == 0


def rate_cmp(a: GrowthClass, b: GrowthClass) -> int:
    """Compare decay rates base^(1/root) exactly, without powers of the bases.

    Equal roots compare their bases.  Otherwise the ratio of the log rates is
    bracketed (``_ratio_bracket``), so the cost does not grow with the roots,
    that is with ampliation and decimation orders.
    """
    if a.base == 1 and b.base == 1:
        return 0
    if a.root == b.root or a.base == 1 or b.base == 1:
        return (a.base > b.base) - (a.base < b.base)
    bracket = _ratio_bracket(a, b)
    if bracket is None:
        return 0
    return 1 if bracket[0] > 1 else -1


def _ratio_bracket(a: GrowthClass, b: GrowthClass):
    """Bounds (lo, hi) on t = log rate(b) / log rate(a) that exclude 1, or None on a tie.

    Both rates lie below one, so t > 0, and t > 1 exactly when rate(a) >
    rate(b).  The bracket of ``_order_bracket`` is taken in floats and then
    in ever more decimal digits until it leaves 1 out, or holds 1 and the
    rates tie exactly (``_rates_tie`` at order 1).  Unequal rates make t != 1,
    so the loop ends.
    """
    prec = 0
    while True:
        bracket = _order_bracket(a, b, prec)
        prec = 2 * prec if prec else 40
        if bracket is None:
            continue
        if bracket[0] > 1 or bracket[1] < 1:
            return bracket
        if _rates_tie(a, b, 1):
            return None


def class_big_o(a: GrowthClass, b: GrowthClass) -> bool:
    """Does every sequence of class a satisfy a_n = O(b_n)?"""
    r = rate_cmp(a, b)
    return r < 0 if r else _power_log_dominated(a, b, strict=False)


def class_little_o(a: GrowthClass, b: GrowthClass) -> bool:
    r = rate_cmp(a, b)
    return r < 0 if r else _power_log_dominated(a, b, strict=True)


def _power_log_dominated(a: GrowthClass, b: GrowthClass, strict: bool) -> bool:
    """Domination of a by b (o when strict, else O) for classes of equal rate."""
    if a.power != b.power:
        return a.power > b.power
    return a.logpower > b.logpower if strict else a.logpower >= b.logpower


def amp_class(c: GrowthClass, m: int) -> GrowthClass:
    """Class of the m-fold ampliation: the rate takes an m-th root."""
    if m == 1 or c.base == 1:
        return c
    return _mk(c.base, c.root * m, c.power, c.logpower)


def dec_class(c: GrowthClass, k: int) -> GrowthClass:
    if k == 1 or c.base == 1:
        return c
    g = gcd(k, c.root)
    return _mk(c.base ** (k // g), c.root // g, c.power, c.logpower)


def mul_class(a: GrowthClass, b: GrowthClass) -> GrowthClass:
    power = a.power + b.power
    logpower = a.logpower + b.logpower
    if a.base == 1 and b.base == 1:
        return _mk(ONE, 1, power, logpower)
    root = lcm(a.root, b.root)
    base = (a.base ** (root // a.root)) * (b.base ** (root // b.root))
    return _mk(base, root, power, logpower)


def dominant(a: GrowthClass, b: GrowthClass) -> GrowthClass:
    """The class of a pointwise sum or max: whichever decays more slowly."""
    if class_big_o(a, b):
        return b
    if class_big_o(b, a):
        return a
    raise AssertionError("growth classes are totally ordered")


def profile(e: SeqExpr) -> Profile:
    """Support size and growth class of the sequence ``e`` denotes.

    One post-order walk with an explicit stack fills the ``_profile`` slot of
    each node that lacks one, so depth is bounded only by memory.  A global
    cache keyed by the tree would rehash the whole subtree on every lookup
    (frozen dataclasses do not cache their hash), compare it recursively on a
    hit, and keep every tree it has seen alive; the memo on the node costs
    none of that and dies with it.  Threads that fill one memo at once store
    equal values.
    """
    try:
        return e._profile
    except AttributeError:
        pass
    todo = [e]
    while todo:
        node = todo[-1]
        kids = _children(node)
        missing = [k for k in kids if not hasattr(k, "_profile")]
        if missing:
            todo += missing
            continue
        todo.pop()
        if not hasattr(node, "_profile"):  # a shared subtree may be pushed twice
            object.__setattr__(node, "_profile", _node_profile(node, *[k._profile for k in kids]))
    return e._profile


def _children(e: SeqExpr) -> tuple[SeqExpr, ...]:
    if isinstance(e, (Scale, Ampliate, Decimate)):
        return (e.inner,)
    if isinstance(e, (Sum, Max, Product)):
        return (e.left, e.right)
    return ()


def _node_profile(e: SeqExpr, *kids: Profile) -> Profile:
    """The profile of one node, from its children's profiles."""
    if isinstance(e, PowerLog):
        return Profile(None, _mk(ONE, 1, e.p, e.q))
    if isinstance(e, Geometric):
        return Profile(None, _mk(e.ratio, 1, Fraction(0), Fraction(0)))
    if isinstance(e, Finite):
        return Profile(len(e.values), None)
    if isinstance(e, Scale):
        return kids[0]
    if isinstance(e, Ampliate):
        p = kids[0]
        if p.support is not None:
            return Profile(e.order * p.support, None)
        return Profile(None, amp_class(p.growth, e.order))
    if isinstance(e, Decimate):
        p = kids[0]
        if p.support is not None:
            return Profile(p.support // e.step, None)
        return Profile(None, dec_class(p.growth, e.step))
    if isinstance(e, (Sum, Max)):
        pa, pb = kids
        if pa.support is not None and pb.support is not None:
            return Profile(max(pa.support, pb.support), None)
        if pa.support is not None:
            return pb
        if pb.support is not None:
            return pa
        return Profile(None, dominant(pa.growth, pb.growth))
    if isinstance(e, Product):
        pa, pb = kids
        if pa.support is None and pb.support is None:
            return Profile(None, mul_class(pa.growth, pb.growth))
        return Profile(min(s for s in (pa.support, pb.support) if s is not None), None)
    raise TypeError(f"not a sequence expression: {e!r}")


def min_ampliation_order(eta: Profile, gen: Profile, strict: bool) -> int | None:
    """Smallest m with eta dominated by the m-fold ampliation of gen.

    Non-strict domination is O, strict is o.  Returns None when no finite
    ampliation order works.  Finite supports are handled exactly; infinite
    classes reduce to exact rational rate comparisons, so the answer holds
    for the denoted sequences themselves, not for a sampled window.
    """
    if eta.is_zero:
        return 1
    if gen.is_zero:
        return None
    if gen.support is not None:
        if eta.support is None:
            return None
        if strict:
            # beyond both supports the ratio is 0/0; a finitely supported
            # sequence is never treated as o() of another one
            return None
        return -(-eta.support // gen.support)
    if eta.support is not None:
        return 1  # finitely supported = o(any strictly positive class)
    a, g = eta.growth, gen.growth
    if g.base == 1:
        if a.base != 1:
            return 1  # a genuinely geometric-type rate beats any power/log class
        ok = class_little_o(a, g) if strict else class_big_o(a, g)
        return 1 if ok else None
    if a.base == 1:
        return None  # rate-one class never dominated by ampliated sub-one rates
    # both rates below one: the least m with rate(a) <=/< rate(g)^(1/m), i.e.
    # a.base^(g.root * m) <=/< g.base^(a.root).  Taking logs, the rates are
    # strictly ordered on either side of t = a.root*log(g.base) / (g.root*log(a.base)),
    # so the answer is the least integer above t, unless t is an integer at
    # which the rates tie exactly and the power/log parts decide.  t is
    # bracketed in floats first and in ever more decimal digits until the
    # bracket holds no integer, or a single one at which the rates tie.
    prec = 0
    while True:
        bracket = _order_bracket(a, g, prec)
        prec = 2 * prec if prec else 40
        if bracket is None:
            continue
        lo, hi = bracket
        k = max(1, math.ceil(lo))
        if k > hi:
            return math.floor(hi) + 1
        if k + 1 > hi and _rates_tie(a, g, k):
            return k if _power_log_dominated(a, g, strict) else k + 1


def _order_bracket(a: GrowthClass, g: GrowthClass, prec: int):
    """Bounds (lo, hi) on t = a.root*log(g.base) / (g.root*log(a.base)).

    Computed in floats when ``prec`` is 0 and in ``decimal`` with ``prec``
    digits otherwise; None when that precision cannot bound t.
    """
    if not prec:
        try:
            (la, ra), (lg, rg) = _float_log(a.base), _float_log(g.base)
            t = a.root * lg / (g.root * la)
        except (OverflowError, ZeroDivisionError):
            return None
        rel = 2 * (ra + rg) + 2.0**-48
        if not (rel < 0.25 and math.isfinite(t)):
            return None
        return t - t * rel, t + t * rel
    with localcontext() as ctx:
        ctx.prec = prec
        (la, ra), (lg, rg) = _decimal_log(a.base, prec), _decimal_log(g.base, prec)
        rel = 2 * (ra + rg) + Decimal(10) ** (3 - prec)
        if not rel < Decimal("0.25"):
            return None
        t = a.root * lg / (g.root * la)
        return t - t * rel, t + t * rel


def _float_log(base: Fraction) -> tuple[float, float]:
    """log(base) for 0 < base < 1, with a bound on its relative error.

    Near 1, ``log1p`` of the exact difference keeps full relative accuracy
    (log(num) - log(den) would cancel) until the difference leaves the normal
    float range; below 1/2 the difference of logs loses little.  The bounds
    allow 2^-48, far above the few ulp the library functions are off by.
    """
    if base > Fraction(1, 2):
        v = math.log1p(float(base - 1))
        return v, (2.0**-48 if v < -(2.0**-1000) else math.inf)
    ln, ld = math.log(base.numerator), math.log(base.denominator)
    return ln - ld, (ln + ld) / (ld - ln) * 2.0**-48


def _decimal_log(base: Fraction, prec: int) -> tuple[Decimal, Decimal]:
    """log(base) for 0 < base < 1 in the current decimal context of ``prec``
    digits, with a bound on its relative error (infinite when it cancels to 0).

    ``ln`` is correctly rounded, so each log and their difference are within
    half a unit in the last digit.
    """
    ln, ld = Decimal(base.numerator).ln(), Decimal(base.denominator).ln()
    v = ln - ld
    if not v:
        return v, Decimal("Infinity")
    return v, (ln + ld) / -v * Decimal(10) ** (1 - prec)


def _rates_tie(a: GrowthClass, g: GrowthClass, m: int) -> bool:
    """Whether a.base^(g.root * m) == g.base^(a.root), without forming huge powers.

    With x and y those exponents divided by their gcd, a tie makes a.base the
    y-th and g.base the x-th power of one rational below 1, whose denominator
    is at least 2.  So x and y stay below the bit lengths of the denominators,
    and the reduced powers compared here are no longer than the product of
    the two bases' sizes.
    """
    x, y = g.root * m, a.root
    d = gcd(x, y)
    x, y = x // d, y // d
    if x >= g.base.denominator.bit_length() or y >= a.base.denominator.bit_length():
        return False
    return a.base**x == g.base**y
