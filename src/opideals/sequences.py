"""Expression trees for non-negative, non-increasing null sequences.

Singular-value sequences of compact operators live in the cone c0* of
non-negative sequences decreasing to zero.  This module builds a closed
grammar of such sequences: power/log atoms n^(-p) * log(n+1)^(-q),
geometric atoms r^n, finitely supported sequences, and the combinators
(positive scaling, ampliation, decimation, pointwise sum/max/product)
under which the cone is closed.

Evaluation is exact rational wherever the value is rational (integer power
exponents, geometric atoms, finite sequences and their combinations) and
IEEE binary64 where logarithms or fractional powers force it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable, Iterator, Union

RationalLike = Union[int, float, str, Fraction]
Value = Union[Fraction, float]


class DomainError(ValueError):
    """A construction would leave the cone of non-increasing null sequences."""


def as_fraction(x: RationalLike, what: str = "value") -> Fraction:
    try:
        if isinstance(x, float):
            return Fraction(x).limit_denominator(10**12) if not x.is_integer() else Fraction(int(x))
        return Fraction(x)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise DomainError(f"{what} is not a rational number: {x!r}") from exc


class SeqExpr:
    """Base class for sequence expressions; all nodes are immutable.

    The slots ``_profile`` and ``_envelope`` are not fields: ``growth.profile``
    memoises the node's profile in the first and ``envelope.envelope`` its log
    envelope in the second, so equality, hashing and ``repr`` never see them.
    """

    __slots__ = ("_profile", "_envelope")


@dataclass(frozen=True, slots=True)
class PowerLog(SeqExpr):
    """n |-> n^(-p) * log(n+1)^(-q).  Uses log(n+1) so every term is positive."""

    p: Fraction
    q: Fraction = Fraction(0)

    def __post_init__(self):
        if self.p < 0:
            raise DomainError(f"power exponent must be >= 0, got {self.p}")
        if self.p == 0 and self.q <= 0:
            raise DomainError("pow(0, q) needs q > 0 to decrease to zero")
        if self.q < 0 and not _decreasing_head(self.p, self.q):
            raise DomainError(
                f"pow({self.p},{self.q}) increases near n = 1; not a valid non-increasing sequence"
            )


@dataclass(frozen=True, slots=True)
class Geometric(SeqExpr):
    """n |-> r^n with 0 < r < 1."""

    ratio: Fraction

    def __post_init__(self):
        if not (0 < self.ratio < 1):
            raise DomainError(f"geometric ratio must lie in (0,1), got {self.ratio}")


@dataclass(frozen=True, slots=True)
class Finite(SeqExpr):
    """A finitely supported sequence; zero beyond its stored values.

    Trailing zeros are stripped, so ``len(values)`` is the support size and
    every stored entry is positive.
    """

    values: tuple[Fraction, ...]

    def __post_init__(self):
        vals = self.values
        for a, b in zip(vals, vals[1:]):
            if a < b:
                raise DomainError(f"finite sequence must be non-increasing, got {vals}")
        if vals and vals[-1] < 0:
            raise DomainError("finite sequence entries must be non-negative")
        while vals and vals[-1] == 0:
            vals = vals[:-1]
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True, slots=True)
class Scale(SeqExpr):
    factor: Fraction
    inner: SeqExpr

    def __post_init__(self):
        if self.factor <= 0:
            raise DomainError(f"scale factor must be positive, got {self.factor}")


@dataclass(frozen=True, slots=True)
class Ampliate(SeqExpr):
    """Repeat every entry of the inner sequence ``order`` times."""

    order: int
    inner: SeqExpr

    def __post_init__(self):
        if self.order < 1:
            raise DomainError("ampliation order must be a positive integer")


@dataclass(frozen=True, slots=True)
class Decimate(SeqExpr):
    """n |-> inner(step * n)."""

    step: int
    inner: SeqExpr

    def __post_init__(self):
        if self.step < 1:
            raise DomainError("decimation step must be a positive integer")


@dataclass(frozen=True, slots=True)
class Sum(SeqExpr):
    left: SeqExpr
    right: SeqExpr


@dataclass(frozen=True, slots=True)
class Max(SeqExpr):
    left: SeqExpr
    right: SeqExpr


@dataclass(frozen=True, slots=True)
class Product(SeqExpr):
    left: SeqExpr
    right: SeqExpr


# a rational within 10^-29 below log 2 / log(log 3 / log 2) = 1.50500706643...
_HEAD_LO = Fraction("1.50500706643243309175791113445")


def _decreasing_head(p: Fraction, q: Fraction) -> bool:
    """Whether n^-p log(n+1)^-q with p > 0 > q is non-increasing on n >= 1.

    Its log f(x) = -p log x - q log log(x+1) has x f'(x) = -p + |q| u(x)
    with u(x) = x/((x+1) log(x+1)) decreasing, so f rises, then falls.  If
    f(2) <= f(1), the peak lies before 2 (else f rises on all of [1, 2]), so
    the atom is non-increasing; otherwise it rises at once.  f(2) <= f(1)
    reads |q|/p <= log 2 / log(log 3 / log 2); a ratio between that constant
    and the rational just below it is rejected too.
    """
    return -q / p <= _HEAD_LO


# ---------------------------------------------------------------------------
# constructors (the public way to build expressions; they normalize)


def power_log(p: RationalLike, q: RationalLike = 0) -> SeqExpr:
    return PowerLog(as_fraction(p, "power exponent"), as_fraction(q, "log exponent"))


def geometric(ratio: RationalLike) -> SeqExpr:
    return Geometric(as_fraction(ratio, "geometric ratio"))


def finite(values) -> SeqExpr:
    return Finite(tuple(as_fraction(v, "finite entry") for v in values))


def scale(factor: RationalLike, e: SeqExpr) -> SeqExpr:
    c = as_fraction(factor, "scale factor")
    if c <= 0:
        raise DomainError(f"scale factor must be positive, got {c}")
    if c == 1:
        return e
    if isinstance(e, Scale):
        return Scale(c * e.factor, e.inner)
    if isinstance(e, Finite):
        return Finite(tuple(c * v for v in e.values))
    return Scale(c, e)


def ampliate(e: SeqExpr, m: int) -> SeqExpr:
    """m-fold ampliation: every entry repeated m times.

    Normalizes so that 1-fold ampliation is the identity and nested
    ampliations compose multiplicatively.
    """
    if m < 1:
        raise DomainError("ampliation order must be a positive integer")
    if m == 1:
        return e
    if isinstance(e, Ampliate):
        return Ampliate(m * e.order, e.inner)
    return Ampliate(m, e)


def decimate(e: SeqExpr, k: int) -> SeqExpr:
    """k-step decimation n |-> e(k*n); inverts ampliation by the same order."""
    if k < 1:
        raise DomainError("decimation step must be a positive integer")
    if k == 1:
        return e
    if isinstance(e, Decimate):
        return decimate(e.inner, k * e.step)
    if isinstance(e, Ampliate):
        g = gcd(k, e.order)
        k2, m2 = k // g, e.order // g
        if k2 == 1:
            return ampliate(e.inner, m2)
        if m2 == 1:
            return decimate(e.inner, k2)
        return Decimate(k2, ampliate(e.inner, m2))
    return Decimate(k, e)


def seq_sum(a: SeqExpr, b: SeqExpr) -> SeqExpr:
    return Sum(a, b)


def seq_max(a: SeqExpr, b: SeqExpr) -> SeqExpr:
    return Max(a, b)


def seq_product(a: SeqExpr, b: SeqExpr) -> SeqExpr:
    return Product(a, b)


ZERO = Finite(())


# ---------------------------------------------------------------------------
# evaluation


def evaluate(e: SeqExpr, n: int) -> Value:
    """Value of the denoted sequence at index n >= 1.

    Returns an exact ``Fraction`` whenever the value is rational, a float
    otherwise.
    """
    if n < 1:
        raise ValueError(f"sequence indices start at 1, got {n}")
    if isinstance(e, PowerLog):
        if e.q == 0 and e.p.denominator == 1:
            return Fraction(1, n ** e.p.numerator)
        return math.exp(-float(e.p) * math.log(n) - float(e.q) * math.log(math.log(n + 1.0)))
    if isinstance(e, Geometric):
        return e.ratio**n
    if isinstance(e, Finite):
        return e.values[n - 1] if n <= len(e.values) else Fraction(0)
    if isinstance(e, Scale):
        return e.factor * evaluate(e.inner, n)
    if isinstance(e, Ampliate):
        return evaluate(e.inner, -(-n // e.order))
    if isinstance(e, Decimate):
        return evaluate(e.inner, e.step * n)
    if isinstance(e, Sum):
        return evaluate(e.left, n) + evaluate(e.right, n)
    if isinstance(e, Max):
        return max(evaluate(e.left, n), evaluate(e.right, n))
    if isinstance(e, Product):
        return evaluate(e.left, n) * evaluate(e.right, n)
    raise TypeError(f"not a sequence expression: {e!r}")


def _log_fraction(v: Fraction) -> float:
    if v == 0:
        return -math.inf
    return math.log(v.numerator) - math.log(v.denominator)


def eval_log(e: SeqExpr, n: int) -> float:
    """Natural log of the value at index n (-inf for zero entries)."""
    return eval_log_many(e, (n,))[0]


def eval_log_many(e: SeqExpr, ns: Iterable[int]) -> list[float]:
    """Natural logs of the values at every index in ``ns`` (-inf for zero entries).

    Walks each node once for the whole index list; ampliation and decimation
    map the list once per node.  Every value is computed with the same float
    operations, in the same order, as a walk for that index alone, so the
    result does not depend on which other indices share the list.  Works in
    log space throughout, so geometric atoms at huge indices never touch big
    integers and never underflow.
    """
    ns = tuple(ns)
    if ns and min(ns) < 1:
        raise ValueError(f"sequence indices start at 1, got {min(ns)}")
    return _log_many(e, ns)


@lru_cache(maxsize=4)
def _log_columns(ns: tuple[int, ...]) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """log(n) and log(log(n+1)) per index: the two columns of every power/log atom.

    Cached across calls because witness constants sample every question on
    the same few index lists (the head 1..1024 plus the window samples, and
    their images under ampliation and decimation), and these logs are most of
    a power/log atom's cost.  A memo local to one call saves nothing.
    """
    return tuple(map(math.log, ns)), tuple([math.log(math.log(n + 1.0)) for n in ns])


def _log_sum(la: float, lb: float) -> float:
    if la < lb:
        la, lb = lb, la
    if lb == -math.inf:
        return la
    return la + math.log1p(math.exp(lb - la))


def _log_product(la: float, lb: float) -> float:
    if la == -math.inf or lb == -math.inf:
        return -math.inf
    return la + lb


def _log_many(e: SeqExpr, ns: tuple[int, ...]) -> list[float]:
    # post-order with an explicit stack, so depth is bounded only by memory;
    # a (node, None) entry combines the node's children's finished columns
    todo: list[tuple[SeqExpr, tuple[int, ...] | None]] = [(e, ns)]
    done: list[list[float]] = []
    while todo:
        e, ns = todo.pop()
        if ns is None:
            if isinstance(e, Scale):
                lf = _log_fraction(e.factor)
                done.append([lf + x for x in done.pop()])
                continue
            right, left = done.pop(), done.pop()
            combine = _log_sum if isinstance(e, Sum) else max if isinstance(e, Max) else _log_product
            done.append(list(map(combine, left, right)))
        elif isinstance(e, PowerLog):
            fp, fq = -float(e.p), float(e.q)
            logs, loglogs = _log_columns(ns)
            done.append([fp * x - fq * y for x, y in zip(logs, loglogs)])
        elif isinstance(e, Geometric):
            lr = _log_fraction(e.ratio)
            done.append([n * lr for n in ns])
        elif isinstance(e, Finite):
            vals, size = e.values, len(e.values)
            done.append([_log_fraction(vals[n - 1]) if n <= size else -math.inf for n in ns])
        elif isinstance(e, Scale):
            todo += [(e, None), (e.inner, ns)]
        elif isinstance(e, Ampliate):
            m = e.order
            todo.append((e.inner, tuple([-(-n // m) for n in ns])))
        elif isinstance(e, Decimate):
            k = e.step
            todo.append((e.inner, tuple([k * n for n in ns])))
        elif isinstance(e, (Sum, Max, Product)):
            todo += [(e, None), (e.right, ns), (e.left, ns)]
        else:
            raise TypeError(f"not a sequence expression: {e!r}")
    return done[0]


def support(e: SeqExpr) -> int | None:
    """Number of nonzero entries, or None when the sequence never vanishes."""
    from .growth import profile  # growth imports this module

    return profile(e).support


def is_zero(e: SeqExpr) -> bool:
    return support(e) == 0


def value_stream(e: SeqExpr) -> Iterator[Value]:
    """Yield e(1), e(2), ... with amortized O(1) work per step.

    Geometric atoms advance by one multiplication per index, which keeps
    dense exact scans over large windows affordable.
    """
    if isinstance(e, PowerLog):
        if e.q == 0 and e.p.denominator == 1:
            k = e.p.numerator
            return (Fraction(1, n**k) for n in itertools.count(1))
        return (evaluate(e, n) for n in itertools.count(1))
    if isinstance(e, Geometric):

        def geo() -> Iterator[Value]:
            v = e.ratio
            while True:
                yield v
                v *= e.ratio

        return geo()
    if isinstance(e, Finite):
        return itertools.chain(iter(e.values), itertools.repeat(Fraction(0)))
    if isinstance(e, Scale):
        return (e.factor * v for v in value_stream(e.inner))
    if isinstance(e, Ampliate):
        inner = value_stream(e.inner)
        return itertools.chain.from_iterable(itertools.repeat(v, e.order) for v in inner)
    if isinstance(e, Decimate):
        return itertools.islice(value_stream(e.inner), e.step - 1, None, e.step)
    if isinstance(e, Sum):
        return (a + b for a, b in zip(value_stream(e.left), value_stream(e.right)))
    if isinstance(e, Max):
        return (max(a, b) for a, b in zip(value_stream(e.left), value_stream(e.right)))
    if isinstance(e, Product):
        return (a * b for a, b in zip(value_stream(e.left), value_stream(e.right)))
    raise TypeError(f"not a sequence expression: {e!r}")


def head(e: SeqExpr, count: int) -> list[Value]:
    return list(itertools.islice(value_stream(e), count))
