"""Certified witness constants: proven bounds on sup a_n/b_n, with no sampling.

Every node e of infinite support has a growth class of ``growth.profile``,
with the log rate l = sum of e * log r <= 0 over its (ratio, exponent) pairs
(r, e), power p and log exponent q, whose representative is

    phi(n) = exp(n l) * n^(-p) * log(n+1)^(-q)        (n >= 1),

and a log envelope [lo, hi] with lo <= log e_n - log phi(n) <= hi for every
n >= 1.  Bounds on l and on gaps between log rates come from
``growth.log_rate_gap``, on the log scale.  ``envelope`` fills the
node's ``_envelope`` slot (not a dataclass field, like ``_profile``) through
``sequences.fold``, which folds the tree children first with an explicit
stack, one rule per node type:

* atoms: phi is the atom itself, so [0, 0];
* scale by c: both ends move by log c;
* product: phi is the product of the children's representatives, so the
  envelopes add;
* ampliation by m (log rate l/m): with j = ceil(n/m),
  log phi(j) - log phi'(n) = (j - n/m) l + p log(n/j)
  + q (log log(n+1) - log log(j+1)), where j - n/m lies in [0, 1 - 1/m],
  n/j in [1, m] and the last difference in [0, D_m] by the lemma below; so
  the envelope gains [(1 - 1/m) l + min(0, q D_m), p log m + max(0, q D_m)];
* decimation by k (class of log rate k l): log phi(kn) - log phi'(n) =
  -p log k - q (log log(kn+1) - log log(n+1)), so the envelope gains
  -p log k + [min(0, -q E_k), max(0, -q E_k)];
* sum and max of two infinite children: the node has the class of the
  dominant child d, and d_n <= e_n gives lo = lo_d.  The other child o is at
  most phi_d(n) exp(hi_o + S(o, d)), where S(o, d) = log sup_n phi_o/phi_d
  (``class_log_sup``), which bounds hi;
* sum and max with a finite child f of support s: f_n <= f_1 for n <= s and
  f_n = 0 beyond, so f adds at most f_1 / min over 1..s of phi_d.

Lemma (D_m and E_k).  For m >= 1, log(mx+1)/log(x+1) is non-increasing on
x >= 1: its derivative has the sign of G(x) = (mx+1) log(mx+1) -
m(x+1) log(x+1), and G(0) = 0, G'(x) = m log((mx+1)/(x+1)) >= 0.  As
n+1 <= m ceil(n/m) + 1, the sup over n of log(log(n+1)/log(ceil(n/m)+1)) is
D_m = log(log(m+1)/log 2), and that of log(log(kn+1)/log(n+1)) is
E_k = log(log(k+1)/log 2).

The minimum of phi over 1..s is min(phi(1), phi(s)).  With y(x) = -log phi(x),
x y'(x) = -l x + p + q u(x), where u(x) = x/((x+1) log(x+1)) decreases
(d log u/dx = (log(x+1) - x)/(x(x+1) log(x+1)) < 0) and -l, p >= 0.  For
q >= 0 every term is non-negative, so phi is non-increasing; for q < 0 the
sum increases with x, so y' changes sign at most once, from - to +, and y
peaks at an end.  (Every representative is in fact non-increasing on the
integers, since its atoms are: the rate factor is, the power-log factor is a
product of the atoms' power-log factors, and ``pow(p, q)`` with q < 0 is
admitted only when it is non-increasing, by the exact test of
``sequences._decreasing_head``.  Taking the smaller end needs no such
argument.)

A Yes constant for a = O(b) is ``constant_factor * exp(hi_a - lo_b +
S(class_a, class_b))``.  A finitely supported a is instead compared piece by
piece (``_piece_log_sup``): both sides are piecewise constant on the pieces
of their finite parts, every sequence of the grammar is non-increasing, so on
a piece [u, v] the ratio is at most a_u / b_v, with equality when both are
constant there.

Floats.  Every rule works in binary64 and moves each end outward by
``SLACK * (1 + the magnitudes of the terms it combined)``; SLACK = 2^-36 is
2^16 times the error of the few correctly rounded or few-ulp operations a
rule makes, so the float ends enclose the exact ones.  A bound above e^700
becomes an exact power of two; none is capped.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction

from .growth import GrowthClass, log_rate_gap, profile
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
    _log_fraction,
    eval_log_many,
    fold,
)

SLACK = 2.0**-36
LOG_LOG_2 = math.log(math.log(2.0))
LN2 = math.log(2.0)
MAX_CONSTANT_BITS = 14_000  # 2^14000 has 4,215 digits, within the 4,300 Python prints by default
FINITE = ()  # the envelope memo of a node of finite support: not None, and falsy unlike (lo, hi)


def _out(lo: float, hi: float, scale: float) -> tuple[float, float]:
    """[lo, hi] widened by the float slack of terms of total magnitude ``scale``."""
    s = SLACK * (1.0 + scale)
    return lo - s, hi + s


# ---------------------------------------------------------------------------
# the log rate of a class


def _log_rate_lo(c: GrowthClass, log_n: float) -> float:
    """A lower bound on n*l, the rate part of log phi(n), given log n."""
    gap = log_rate_gap(c)
    return 0.0 if gap is None else -math.exp(log_n + gap[1] + SLACK * (1.0 + abs(gap[1])))


def _log_phi_lo(c: GrowthClass, n: int) -> float:
    """A lower bound on log phi(n) for the representative of c."""
    y, ll = math.log(n), math.log(math.log(n + 1))
    rate = _log_rate_lo(c, y)
    p, q = float(c.power), float(c.logpower)
    return rate - p * y - q * ll - SLACK * (1.0 + abs(rate) + abs(p * y) + abs(q * ll))


# ---------------------------------------------------------------------------
# S(a, d) = log sup_n phi_a(n)/phi_d(n)


def class_log_sup(a: GrowthClass, d: GrowthClass) -> float:
    """An upper bound on log sup over n >= 1 of phi_a(n)/phi_d(n), for a = O(d).

    Raises ValueError when class a is not O(class d), where the sup is infinite.
    """
    P, Q = a.power - d.power, a.logpower - d.logpower
    gap = log_rate_gap(a, d)
    if gap is None and (P < 0 or (P == 0 and Q < 0)):
        raise ValueError("the left class is not dominated by the right one")
    lam = None if gap is None else gap[0] - SLACK * (1.0 + abs(gap[0]))
    return _log_sup(lam, float(P), float(Q))


def _log_sup(lam: float | None, P: float, Q: float) -> float:
    """An upper bound on sup over n >= 1 of g(n) = nL - P log n - Q log log(n+1).

    L = -exp(lam) < 0, or L = 0 when ``lam`` is None (then P > 0, or P = 0
    and Q >= 0).  With y = log n, write G(y) = g(e^y) and
    H(y) = G'(y) = n g'(n) = Ln - P - Q u(n), u as in the module docstring.

    * P, Q >= 0: H <= 0, so the sup is G(0).
    * Q <= 0: H decreases (Ln and -Q u do), so g is unimodal.  Bisecting the
      sign of H brackets the peak; once the bracket is narrower than one
      index (below n = 2^50) the integers around it decide, otherwise the
      bracket's own bound does (``_rise``).  A float sign can be wrong only
      where |H| is within its rounding error, below 2^-44 (1 + |P| + |Q|)
      near the peak; G moves by at most that much per unit of y there, and
      ``fudge`` adds 2^4 times that over the whole range of y.
    * Q > 0 and P < 0 (so L < 0): g = g1 + g2 with g1 = nL - P log n,
      unimodal with peak y1 = log(-P) - lam, and g2 = -Q log log(n+1),
      decreasing.  Past y1 both decrease, so G(y1) bounds them; on [0, y1]
      g1 increases and g2 decreases, so on a piece [y, z] G <= G1(z) + G2(y),
      refined where that bound is not yet tight (``_split_bound``).
    """
    if P >= 0 and Q >= 0:
        return _up(_G(lam, P, Q, 0.0), P, Q, 0.0, lam)
    if Q > 0:
        return _split_bound(lam, P, Q)
    # Q <= 0: unimodal; past y_max the derivative is surely negative
    if lam is None:
        y_max = -Q / P + 1.0  # u(e^y) <= 1/y
    else:
        top = -Q / (2 * LN2) - P  # u <= u(1) = 1/(2 log 2)
        if top <= 0:
            return _up(_G(lam, P, Q, 0.0), P, Q, 0.0, lam)
        y_max = math.log(top) - lam + 1.0
    yl, yr = 0.0, max(y_max, 1.0)
    hl, hr = _H(lam, P, Q, yl), _H(lam, P, Q, yr)
    if hl <= 0:
        return _up(_G(lam, P, Q, 0.0), P, Q, yr, lam)
    fudge = 2.0**-40 * (1.0 + abs(P) + abs(Q)) * yr
    tol = 2.0**-40 * (1.0 + abs(P) * yr + abs(Q))
    for _ in range(200):
        if yr < 50 * LN2 and math.exp(yr) - math.exp(yl) < 1:
            lo_n, hi_n = max(1, math.floor(math.exp(yl)) - 1), math.ceil(math.exp(yr)) + 1
            best = max(_G(lam, P, Q, math.log(n)) for n in range(lo_n, hi_n + 1))
            return _up(best + fudge, P, Q, yr, lam)
        if _rise(yl, yr, hl, hr) < tol:
            break
        mid = 0.5 * (yl + yr)
        hm = _H(lam, P, Q, mid)
        if hm > 0:
            yl, hl = mid, hm
        else:
            yr, hr = mid, hm
    best = max(_G(lam, P, Q, yl), _G(lam, P, Q, yr)) + _rise(yl, yr, hl, hr)
    return _up(best + fudge, P, Q, yr, lam)


def _rise(yl: float, yr: float, hl: float, hr: float) -> float:
    """How far G can rise on [yl, yr] above its larger end, when H(yl) = hl > 0 >= hr = H(yr).

    H decreases, so G(y) <= G(yl) + (y - yl) a and G(y) <= G(yr) + (yr - y) b
    with a = hl, b = -hr; the two lines cross at most w ab/(a+b) above the
    higher end, w = yr - yl.
    """
    a, b = max(hl, 0.0), max(-hr, 0.0)
    return 0.0 if a + b == 0 else (yr - yl) * a * b / (a + b)


def _G(lam: float | None, P: float, Q: float, y: float) -> float:
    # log(n+1) = y + log1p(e^-y), finite for every y >= 0
    g = -P * y - Q * math.log(y + math.log1p(math.exp(-y)))
    return g if lam is None else g - math.exp(lam + y)


def _H(lam: float | None, P: float, Q: float, y: float) -> float:
    e = math.exp(-y)
    h = -P - Q / ((1.0 + e) * (y + math.log1p(e)))
    return h if lam is None else h - math.exp(lam + y)


def _split_bound(lam: float, P: float, Q: float, budget: int = 48) -> float:
    """The Q > 0, P < 0 case of ``_log_sup``: piecewise G1(z) + G2(y) on [0, y1]."""
    y1 = max(math.log(-P) - lam, 0.0)

    def g1(y):
        return -math.exp(lam + y) - P * y

    def g2(y):
        return -Q * math.log(y + math.log1p(math.exp(-y)))

    best = max(g1(0.0) + g2(0.0), g1(y1) + g2(y1))
    heap = [(-(g1(y1) + g2(0.0)), 0.0, y1)]
    for _ in range(budget):
        neg, y, z = heap[0]
        if -neg - best < 2.0**-30 * (1.0 + abs(best)):
            break
        heapq.heappop(heap)
        mid = 0.5 * (y + z)
        best = max(best, g1(mid) + g2(mid))
        heapq.heappush(heap, (-(g1(mid) + g2(y)), y, mid))
        heapq.heappush(heap, (-(g1(z) + g2(mid)), mid, z))
    return _up(max(best, -heap[0][0]), P, Q, y1, lam)


def _up(x: float, P: float, Q: float, y: float, lam: float | None) -> float:
    """x plus the float slack of G's terms up to y = log n."""
    rate = 0.0 if lam is None else math.exp(min(lam + y, 700.0))
    return x + SLACK * (1.0 + abs(x) + abs(P) * y + abs(Q) * math.log1p(y) + rate)


# ---------------------------------------------------------------------------
# the envelope walk


def envelope(e: SeqExpr) -> tuple[float, float]:
    """The log envelope (lo, hi) of a node of infinite support (module docstring).

    ``sequences.fold`` with the rules ``_ENVELOPE`` fills the ``_envelope``
    slot of every node below e that holds None, with ``FINITE`` (not None:
    they too are folded once) for the nodes of finite support.
    """
    if profile(e).support is not None:
        raise ValueError("only sequences of infinite support have an envelope")
    env = e._envelope
    return fold(e, _ENVELOPE, "_envelope") if env is None else env


def _shift(env, add_lo: float, add_hi: float) -> tuple[float, float]:
    lo, hi = env
    return _out(lo + add_lo, hi + add_hi, abs(lo) + abs(hi) + abs(add_lo) + abs(add_hi))


def _scale_envelope(e: Scale, env):
    if not env:
        return FINITE
    (lo, hi), lf = env, _log_fraction(e.factor)
    return _out(lo + lf, hi + lf, abs(lo) + abs(hi) + abs(lf))


def _product_envelope(e: Product, a, b):
    if not a or not b:
        return FINITE
    (la, ha), (lb, hb) = a, b
    return _out(la + lb, ha + hb, abs(la) + abs(lb) + abs(ha) + abs(hb))


def _ampliate_envelope(e: Ampliate, env):
    if not env:
        return FINITE
    c, m = e.inner._profile.growth, e.order
    p, q, D = float(c.power), float(c.logpower), math.log(math.log(m + 1)) - LOG_LOG_2
    rate = (1 - 1 / m) * _log_rate_lo(c, 0.0)
    return _shift(env, rate + min(0.0, q * D), p * math.log(m) + max(0.0, q * D))


def _decimate_envelope(e: Decimate, env):
    if not env:
        return FINITE
    c, k = e.inner._profile.growth, e.step
    p, q, E = float(c.power), float(c.logpower), math.log(math.log(k + 1)) - LOG_LOG_2
    return _shift(env, -p * math.log(k) + min(0.0, -q * E), -p * math.log(k) + max(0.0, -q * E))


def _join_envelope(e: Sum | Max, kids: tuple, summed: bool):
    if e._profile.support is not None:
        return FINITE
    node = e._profile.growth
    dom_lo, parts = -math.inf, []
    for kid, env in zip((e.left, e.right), kids):
        kp = kid._profile
        if kp.support == 0:
            continue
        if kp.support is not None:
            # f_n <= f_1 on 1..s: at most f_1 / min(phi(1), phi(s)) times phi
            f1 = eval_log_many(kid, (1,))[0]
            floor = min(_log_phi_lo(node, 1), _log_phi_lo(node, kp.support))
            parts.append(f1 - floor + SLACK * (1.0 + abs(f1) + abs(floor)))
            continue
        lo, hi = env
        if kp.growth == node:
            dom_lo = max(dom_lo, lo)
            parts.append(hi)
        else:
            s = class_log_sup(kp.growth, node)
            parts.append(hi + s + SLACK * (1.0 + abs(hi) + abs(s)))
    hi = max(parts)
    if summed and len(parts) == 2:
        hi += math.log1p(math.exp(min(parts) - hi))
    return _out(dom_lo, hi, abs(dom_lo) + abs(hi))


# node type -> the envelope of such a node from its children's, FINITE for a finite support
_ENVELOPE = {
    PowerLog: lambda e: (0.0, 0.0),
    Geometric: lambda e: (0.0, 0.0),
    Finite: lambda e: FINITE,
    Scale: _scale_envelope,
    Ampliate: _ampliate_envelope,
    Decimate: _decimate_envelope,
    Sum: lambda e, *kids: _join_envelope(e, kids, True),
    Max: lambda e, *kids: _join_envelope(e, kids, False),
    Product: _product_envelope,
}


# ---------------------------------------------------------------------------
# finitely supported left sides, piece by piece


def _piece_starts(e: SeqExpr) -> set[int]:
    """The indices in 1..support(e) at which a piece of e's finite parts starts.

    A fold (``_STARTS``) over e: a ``Finite`` starts a piece at every
    entry; ampliation by m maps a start j to (j-1)m + 1, decimation by k
    maps it to ceil(j/k); scale keeps the starts, and sum, max and product
    take the union.  Children of infinite support add none (in a product
    they are non-increasing within a piece).
    """
    size = profile(e).support
    return {j for j in fold(e, _STARTS) | {1} if j <= size}


def _union_starts(e: SeqExpr, *kids: frozenset[int]) -> frozenset[int]:
    return frozenset() if e._profile.support is None else frozenset().union(*kids)


# node type -> the starts of such a node, from its children's; a node of
# infinite support has none, so neither has an ampliation or decimation of it
_STARTS = {
    PowerLog: lambda e: frozenset(),
    Geometric: lambda e: frozenset(),
    Finite: lambda e: frozenset(range(1, len(e.values) + 1)),
    Ampliate: lambda e, starts: frozenset((j - 1) * e.order + 1 for j in starts),
    Decimate: lambda e, starts: frozenset(-(-j // e.step) for j in starts),
    Scale: _union_starts,
    Sum: _union_starts,
    Max: _union_starts,
    Product: _union_starts,
}


def _piece_log_sup(a: SeqExpr, b: SeqExpr, size: int) -> float:
    """An upper bound on log max a_n/b_n over 1..size, the support of a."""
    starts = _piece_starts(a)
    if profile(b).support is not None:
        starts |= {j for j in _piece_starts(b) if j <= size}
    starts = sorted(starts)
    ends = [j - 1 for j in starts[1:]] + [size]
    best = -math.inf
    for la, lb in zip(eval_log_many(a, starts), eval_log_many(b, ends)):
        if la == -math.inf:
            continue
        if lb == -math.inf:
            return math.inf
        best = max(best, la - lb + SLACK * (1.0 + abs(la) + abs(lb)))
    return best


# ---------------------------------------------------------------------------
# the constant


def log_sup_ratio(a: SeqExpr, b: SeqExpr) -> float:
    """An upper bound on log sup over n >= 1 of a_n / b_n (0/0 counts as 0).

    Needs a = O(b): a finite support within that of b, or b of infinite
    support and class a = O(class b).
    """
    pa, pb = profile(a), profile(b)
    if pa.is_zero:
        return -math.inf
    if pa.support is not None:
        return _piece_log_sup(a, b, pa.support)
    if pb.support is not None:
        raise ValueError("an infinite support is not bounded by a finite one")
    hi_a, lo_b, s = envelope(a)[1], envelope(b)[0], class_log_sup(pa.growth, pb.growth)
    return hi_a - lo_b + s + SLACK * (1.0 + abs(hi_a) + abs(lo_b) + abs(s))


def constant_from_log(x: float) -> Fraction:
    """A positive rational at least exp(x): a multiple of 2^-24, or a power of two above e^700.

    Raises OverflowError when that power of two would need more than
    ``MAX_CONSTANT_BITS`` bits.
    """
    if x == -math.inf:
        return Fraction(1)
    if x <= 700:
        v = math.exp(x) * (1 + 2.0**-40)
        return Fraction(max(1, math.ceil(v * (1 << 24))), 1 << 24) if v < 2**40 else Fraction(math.ceil(v))
    bits = x / LN2 * (1 + 2.0**-40) + 1
    if not bits <= MAX_CONSTANT_BITS:
        raise OverflowError(f"the witness constant exceeds 2^{MAX_CONSTANT_BITS}")
    return Fraction(1 << math.ceil(bits))
