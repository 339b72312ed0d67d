"""Asymptotic normal forms for sequence expressions.

Every expression in the grammar is either eventually zero or is, up to
bounded constants, rate^n * n^(-power) * log(n)^(-logpower), where log rate
is the sum of e * log r over pairs of a geometric ratio r the expression
writes and a positive rational exponent e.  Ampliation, decimation and
product scale or add exponents, so no power of a rate is ever formed.  The
classes are totally ordered under eventual domination (rates first, then
power, then log exponents), which decides big-O and little-o questions
across the grammar without touching a single limit numerically.

Rates are compared through linear forms in the logs of the ratios,
bracketed in floats and then in ``decimal`` at doubling precision.  Only a
bracket that cannot leave out zero asks whether the form vanishes: over a
coprime base of the numerators and denominators (Bernstein, Factoring into
coprimes in essentially linear time, J. Algorithms 54, 2005) the logs are
linearly independent over Q, so it vanishes exactly when its vector over
that base does.  A nonzero form is bracketed away from zero at some
precision (Baker-Wustholz, J. reine angew. Math. 442, 1993), so every loop
here ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd

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
    fold,
)

ONE = Fraction(1)
ZERO = Fraction(0)

Rate = tuple[tuple[Fraction, Fraction], ...]


@dataclass(frozen=True, slots=True)
class GrowthClass:
    """The class rate^n n^-power log(n+1)^-logpower of a sequence of infinite support.

    ``rate`` holds one (ratio, exponent) pair per written geometric ratio,
    sorted by ratio, with a positive rational exponent; ``()`` is rate one.
    Equal tuples are equal rates, but two spellings of one rate, such as
    ((1/4, 1),) and ((1/2, 2),), tie too: ``rate_cmp`` decides.
    """

    rate: Rate
    power: Fraction
    logpower: Fraction

    @property
    def rate_is_one(self) -> bool:
        return not self.rate


@dataclass(frozen=True, slots=True)
class Profile:
    """Support size (None = infinite) plus the growth class of the tail."""

    support: int | None
    growth: GrowthClass | None  # None exactly when support is finite

    @property
    def is_zero(self) -> bool:
        return self.support == 0


def render_class(c: GrowthClass) -> str:
    """Canonical text of a class, as in ``(1/2)^(n/3) n^-1 log(n+1)^-2``; ``1`` for the constants.

    A rate pair (r, k/d) is ``(r)^(kn/d)``, k and d left out when 1; a fractional exponent reads ``n^(-3/2)``.
    """
    parts = []
    for r, e in c.rate:
        k, d = ("" if e.numerator == 1 else e.numerator), ("" if e.denominator == 1 else f"/{e.denominator}")
        parts.append(f"({r})^n" if e == 1 else f"({r})^({k}n{d})")
    for base, x in (("n", -c.power), ("log(n+1)", -c.logpower)):
        if x:
            parts.append(f"{base}^{x}" if x.denominator == 1 else f"{base}^({x})")
    return " ".join(parts) or "1"


def rate_cmp(a: GrowthClass, b: GrowthClass) -> int:
    """Compare the rates of a and b exactly: the sign of log rate(a) - log rate(b)."""
    if a.rate == b.rate:
        return 0
    if not a.rate or not b.rate:  # every exponent is positive, so a nonempty rate is below one
        return 1 if not a.rate else -1
    bracket = _gap(a.rate, b.rate)
    return 0 if bracket is None else 1 if bracket[0] > 0 else -1


def _gap(x: Rate, y: Rate, tight: bool = False):
    """Bounds (lo, hi) on log rate(x) - log rate(y) that leave out 0, or None on a tie.

    With ``tight``, a positive bracket is also refined to a relative 2^-30.
    """
    if x == y:
        return None
    prec, tie_checked = 0, False
    while True:
        bracket = _bracket(x, y, prec)
        prec = 2 * prec if prec else 40
        if bracket is None:
            continue
        lo, hi = bracket
        if hi < 0 or (lo > 0 and (not tight or hi - lo <= lo / 2**30)):
            return bracket
        if lo <= 0 and not tie_checked:
            if _vanishes(x, y, 1):
                return None
            tie_checked = True


def class_big_o(a: GrowthClass, b: GrowthClass) -> bool:
    """Does every sequence of class a satisfy a_n = O(b_n)?"""
    r = rate_cmp(a, b)
    return r < 0 if r else _power_log_dominated(a, b, strict=False)


def class_little_o(a: GrowthClass, b: GrowthClass) -> bool:
    r = rate_cmp(a, b)
    return r < 0 if r else _power_log_dominated(a, b, strict=True)


def _power_log_dominated(a: GrowthClass, b: GrowthClass, strict: bool) -> bool:
    """Domination of a by b (o when strict, else O) for classes of equal rate.

    The exponents are compared by cross-multiplying numerators and
    denominators (a denominator is always positive), which answers as
    ``Fraction`` comparison does without its generic operator dispatch.
    """
    x, y = a.power, b.power
    u, v = x.numerator * y.denominator, y.numerator * x.denominator
    if u != v:
        return u > v
    x, y = a.logpower, b.logpower
    u, v = x.numerator * y.denominator, y.numerator * x.denominator
    return u > v if strict else u >= v


def amp_class(c: GrowthClass, m: int) -> GrowthClass:
    """Class of the m-fold ampliation: the rate takes an m-th root."""
    if m == 1 or not c.rate:
        return c
    return GrowthClass(tuple((r, e / m) for r, e in c.rate), c.power, c.logpower)


def dec_class(c: GrowthClass, k: int) -> GrowthClass:
    """Class of the k-fold decimation: the rate takes a k-th power."""
    if k == 1 or not c.rate:
        return c
    return GrowthClass(tuple((r, e * k) for r, e in c.rate), c.power, c.logpower)


def mul_class(a: GrowthClass, b: GrowthClass) -> GrowthClass:
    exps = dict(a.rate)
    for r, e in b.rate:
        exps[r] = exps.get(r, 0) + e
    return GrowthClass(tuple(sorted(exps.items())), a.power + b.power, a.logpower + b.logpower)


def rate_class(c: GrowthClass) -> GrowthClass:
    """The class of c's rate alone: power and log exponents zero."""
    return GrowthClass(c.rate, ZERO, ZERO)


def profile(e: SeqExpr) -> Profile:
    """Support size and growth class of the sequence ``e`` denotes.

    ``sequences.fold`` with the rules ``_PROFILE`` fills the ``_profile``
    slot of each node that holds None, so depth is bounded only by memory.
    A global cache keyed by the tree would hash the tree on every lookup,
    compare it on a hit, and keep every tree it has seen alive; the memo on
    the node costs none of that and dies with it.

    A node whose profile equals a child's shares the child's frozen
    ``Profile`` object instead of a copy: a scale always, a sum or max its
    dominant child's, an ampliation or decimation whose class does not
    change (order or step 1, or rate one) its child's, a product with a
    finite side the one of the smaller support.  So a chain of such nodes
    holds one ``Profile`` per distinct class, not one per node.
    """
    p = e._profile
    return fold(e, _PROFILE, "_profile") if p is None else p


def _ampliate_profile(e: Ampliate, p: Profile) -> Profile:
    if p.support is not None:
        return p if e.order == 1 else Profile(e.order * p.support, None)
    c = amp_class(p.growth, e.order)
    return p if c is p.growth else Profile(None, c)  # an unchanged class shares the child's Profile


def _decimate_profile(e: Decimate, p: Profile) -> Profile:
    if p.support is not None:
        return p if e.step == 1 else Profile(p.support // e.step, None)
    c = dec_class(p.growth, e.step)
    return p if c is p.growth else Profile(None, c)


def _join_profile(e: Sum | Max, pa: Profile, pb: Profile) -> Profile:
    """The profile of the child that dominates, itself (not a copy): the right one on a tie."""
    if pa.support is not None and pb.support is not None:
        return pa if pa.support > pb.support else pb
    if pa.support is not None:
        return pb
    if pb.support is not None:
        return pa
    # the classes are totally ordered: the one that decays more slowly; two of rate one compare directly
    a, b = pa.growth, pb.growth
    return pb if (class_big_o(a, b) if a.rate or b.rate else _power_log_dominated(a, b, False)) else pa


def _product_profile(e: Product, pa: Profile, pb: Profile) -> Profile:
    if pa.support is None and pb.support is None:
        return Profile(None, mul_class(pa.growth, pb.growth))
    if pa.support is None or (pb.support is not None and pb.support < pa.support):
        return pb  # the smaller support, shared
    return pa


# node type -> the profile of such a node, from its children's profiles
_PROFILE = {
    PowerLog: lambda e: Profile(None, GrowthClass((), e.p, e.q)),
    Geometric: lambda e: Profile(None, GrowthClass(((e.ratio, ONE),), ZERO, ZERO)),
    Finite: lambda e: Profile(len(e.values), None),
    Scale: lambda e, p: p,
    Ampliate: _ampliate_profile,
    Decimate: _decimate_profile,
    Sum: _join_profile,
    Max: _join_profile,
    Product: _product_profile,
}


def min_ampliation_order(eta: Profile, gen: Profile, strict: bool) -> int | None:
    """Smallest m with eta dominated by the m-fold ampliation of gen.

    Non-strict domination is O, strict is o.  Returns None when no finite
    ampliation order works.  Finite supports are handled exactly; infinite
    classes reduce to exact rate comparisons, so the answer holds for the
    denoted sequences themselves, not for a sampled window.
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
    if not g.rate:
        if a.rate:
            return 1  # a genuinely geometric-type rate beats any power/log class
        ok = class_little_o(a, g) if strict else class_big_o(a, g)
        return 1 if ok else None
    if not a.rate:
        return None  # rate-one class never dominated by ampliated sub-one rates
    # both rates below one: the least m with m * l_a <=/< l_g for the log
    # rates l < 0.  The rates are strictly ordered on either side of
    # t = l_g / l_a, so the answer is the least integer above t, unless t is
    # an integer k at which the rates tie exactly, and the power/log parts
    # decide.  A tie at k means proportional vectors: k * v_a = v_g over a
    # coprime base.  t is bracketed in floats first and in ever more decimal
    # digits until the bracket holds no integer, or a single one at which
    # the rates tie.
    prec, checked = 0, None
    while True:
        bracket = _order_bracket(a.rate, g.rate, prec)
        prec = 2 * prec if prec else 40
        if bracket is None:
            continue
        lo, hi = bracket
        k = max(1, math.ceil(lo))
        if k > hi:
            return math.floor(hi) + 1
        if k + 1 > hi and k != checked:
            checked = k
            if _vanishes(a.rate, g.rate, k):
                return k if _power_log_dominated(a, g, strict) else k + 1


def log_rate_gap(a: GrowthClass, d: GrowthClass | None = None) -> tuple[float, float] | None:
    """Bounds (lo, hi) on log(l_d - l_a) for the log rates l of two classes, or None on a tie.

    ``d=None`` stands for rate one (l_d = 0), which makes these bounds on
    log|l_a|.  On the log scale, huge orders and rates within 2^-1000 of one
    neither overflow nor underflow.  Raises ValueError when rate(a) >
    rate(d).
    """
    bracket = _gap(d.rate if d is not None else (), a.rate, tight=True)
    if bracket is None:
        return None
    lo, hi = bracket
    if hi < 0:
        raise ValueError("the left class decays more slowly than the right one")
    if isinstance(lo, Decimal):
        with localcontext() as ctx:
            ctx.prec = 40
            lo, hi = float(lo.ln()), float(hi.ln())
    else:
        lo, hi = math.log(lo), math.log(hi)
    return lo - 2.0**-40 * (1 + abs(lo)), hi + 2.0**-40 * (1 + abs(hi))


def _order_bracket(x: Rate, y: Rate, prec: int):
    """Bounds (lo, hi) on t = log rate(y) / log rate(x) for rates below one, or None.

    Both logs are sums of negative terms, so their brackets stay tight.
    """
    bx, by = _bracket(x, (), prec), _bracket(y, (), prec)
    if bx is None or by is None or bx[1] >= 0 or by[1] >= 0:
        return None
    slack = Decimal(10) ** (2 - prec) if prec else 2.0**-50
    with localcontext() as ctx:  # floats ignore it
        ctx.prec = prec or ctx.prec
        lo, hi = by[1] / bx[0] * (1 - slack), by[0] / bx[1] * (1 + slack)
    return (lo, hi) if prec or math.isfinite(hi) else None


def _bracket(x: Rate, y: Rate, prec: int):
    """Bounds (lo, hi) on log rate(x) - log rate(y).

    In floats when ``prec`` is 0 (None when a term leaves the normal float
    range or a log cancels): each term is off by its log's relative error
    plus a few roundings, and the sum by one rounding per term.  In
    ``decimal`` with ``prec`` digits otherwise: ``ln`` is correctly rounded,
    so the term of a pair (n/d, e) is within 2 e (log n + log d) units of
    10^(1-prec), and each sum, as well as the final widening, adds half a
    unit of the magnitude.
    """
    terms = [(r, 1, e) for r, e in x] + [(r, -1, e) for r, e in y]  # sum of j e log r
    if not prec:
        s = err = 0.0
        tiny = (len(terms) + 3) * 2.0**-52
        try:
            for r, j, e in terms:
                v, rel = _float_log(r)
                t = j * (e.numerator / e.denominator) * v
                if not abs(t) >= 2.0**-1000:  # also a NaN from an infinite rel
                    return None
                s += t
                err += abs(t) * (rel + tiny)
        except OverflowError:
            return None
        return (s - err, s + err) if math.isfinite(s + err) else None
    with localcontext() as ctx:
        ctx.prec = prec
        s = w = Decimal(0)
        for r, j, e in terms:
            ln, ld = _decimal_ln(r.numerator, prec), _decimal_ln(r.denominator, prec)
            s += (ln - ld) * (j * e.numerator) / e.denominator
            w += (ln + ld) * abs(j * e.numerator) / e.denominator
        err = w * (len(terms) + 4) * Decimal(10) ** (1 - prec)
        return s - err, s + err


@lru_cache(maxsize=256)
def _decimal_ln(n: int, prec: int) -> Decimal:
    """ln n, correctly rounded to ``prec`` digits.

    Cached because every bracket step, and every question on the same rate,
    asks again for the logs of the same integers at the same precisions.
    """
    with localcontext() as ctx:
        ctx.prec = prec
        return Decimal(n).ln()


def _float_log(r: Fraction) -> tuple[float, float]:
    """log(r) for 0 < r < 1, with a bound on its relative error.

    Near 1, ``log1p`` of the exact difference keeps full relative accuracy
    (log(num) - log(den) would cancel) until the difference leaves the normal
    float range; below 1/2 the difference of logs loses little.  The bounds
    allow 2^-48, far above the few ulp the library functions are off by.
    """
    n, d = r.numerator, r.denominator
    if 2 * n > d:
        v = math.log1p((n - d) / d)  # correctly rounded, like float(r - 1)
        return v, (2.0**-48 if v < -(2.0**-1000) else math.inf)
    ln, ld = math.log(n), math.log(d)
    return ln - ld, (ln + ld) / (ld - ln) * 2.0**-48


def _vanishes(x: Rate, y: Rate, k: int) -> bool:
    """Whether k log rate(x) = log rate(y) exactly: the vector over a coprime base is zero."""
    terms = [(r, k * e) for r, e in x] + [(r, -e) for r, e in y]
    base = _coprime_base({n for r, _ in terms for n in (r.numerator, r.denominator) if n > 1})
    vec = dict.fromkeys(base, 0)
    for r, c in terms:
        for n, sign in ((r.numerator, 1), (r.denominator, -1)):
            for b in base:
                while n % b == 0:
                    n //= b
                    vec[b] += sign * c
    return not any(vec.values())


def _coprime_base(nums: set[int]) -> set[int]:
    """Pairwise coprime integers above one, each of ``nums`` a product of their powers.

    Naive gcd refinement, enough for a handful of integers: x, y with
    g = gcd(x, y) > 1 become g, x/g and y/g, so the product of the set falls.
    """
    base = set(nums)
    while True:
        for x, y in combinations(base, 2):
            g = gcd(x, y)
            if g > 1:
                base -= {x, y}
                base |= {v for v in (g, x // g, y // g) if v > 1}
                break
        else:
            return base
