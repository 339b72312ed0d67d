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

Every pass over a tree goes through one of two walks with explicit stacks,
so the depth of a tree is bounded only by memory.  ``fold`` computes a value
per distinct node from its children's values, children first, with one rule
table per pass: the growth profile, the log envelope, the pieces of finite
parts, the oracle's closed forms, the hash, the length of the text and the
reduction of ideal descriptions are its rules.  ``_walk_indices`` evaluates:
ampliation and decimation map an index list down the tree, and a log or an
exact arithmetic combines the columns of values up; ``evaluate``,
``eval_log_many``, ``value_stream`` and ``head`` take their values from it.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Callable, Iterable, Iterator, TypeVar, Union

RationalLike = Union[int, float, str, Fraction]
Value = Union[Fraction, float]
T = TypeVar("T")


class DomainError(ValueError):
    """A construction would leave the cone of non-increasing null sequences."""


def as_fraction(x: RationalLike, what: str = "value") -> Fraction:
    if type(x) is Fraction:
        return x  # immutable; ``Fraction(x)`` would copy it after a slow check against the numbers ABCs
    try:
        if isinstance(x, float):
            return Fraction(x).limit_denominator(10**12) if not x.is_integer() else Fraction(int(x))
        return Fraction(x)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise DomainError(f"{what} is not a rational number: {x!r}") from exc


class Node:
    """Base of every expression node: the sequences here, the ideal descriptions in ``ideals``.

    Nodes are frozen: assigning or deleting an attribute raises
    ``FrozenInstanceError`` (an ``AttributeError``), so only a slot's
    descriptor writes a field or a memo slot (``_memos``).  ``pickle`` and
    ``copy`` rebuild a node with its kind's ``__init__``, from a state that
    holds the fields only, so the memo slots start at None there too.

    ``==``, ``hash`` and ``repr`` never recurse.  ``==`` compares each
    distinct pair of nodes once, with a stack; ``hash`` is a ``fold`` that
    hashes each distinct node once per call, from its children's hashes and
    its other fields, and keeps nothing on the node; ``repr`` is the kind
    and the canonical text.  Memo slots are not fields, so none of them
    enters ``==``, ``hash``, ``repr`` or the pickled state.
    """

    __slots__ = ()
    _memos: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __getstate__(self):
        return [getattr(self, name) for name in self.__match_args__]

    def __setstate__(self, state):
        self.__init__(*state)  # the fields, checked again, and the memo slots at None

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        todo, seen = [(self, other)], set()
        while todo:
            a, b = todo.pop()
            if a is b or (id(a), id(b)) in seen:
                continue
            if type(a) is not type(b):
                return False
            seen.add((id(a), id(b)))
            for name in a.__match_args__:
                x, y = getattr(a, name), getattr(b, name)
                if isinstance(x, Node):
                    todo.append((x, y))
                elif x != y:
                    return False
        return True

    def __hash__(self):
        return fold(self, _HASH)

    def __repr__(self):
        from .grammar import node_repr  # grammar imports this module

        return node_repr(self)


class SeqExpr(Node):
    """Base class for sequence expressions; all nodes are immutable.

    The slots ``_profile`` and ``_envelope`` are not fields: ``growth.profile``
    memoises the node's profile in the first and ``envelope.envelope`` its log
    envelope in the second.  Both start at None, before the first fold.
    """

    __slots__ = _memos = ("_profile", "_envelope")


# node type -> its fold children, left to right, and its hash rule; ``node`` fills both
_CHILDREN: dict[type, Callable[[Node], tuple]] = {}
_HASH: dict[type, Callable[..., int]] = {}


def node(*children: str):
    """Class decorator of a node kind: a slotted dataclass whose fields ``children`` are its fold children.

    ``fold`` does not enter a node held by another field (an ideal's generator).

    ``dataclass`` only records the fields, their ``__match_args__`` and the
    slots; it generates no method.  The one generated method is ``__init__``,
    which writes each field and then None to each memo slot through the
    slot's own descriptor, bound once per kind (``Node`` refuses any other
    write), and then calls ``__post_init__`` if the kind has one.
    """

    def make(cls):
        names = list(cls.__dict__.get("__annotations__", {}))
        defaults = [cls.__dict__[name] for name in names if name in cls.__dict__]
        body = [f"    set{n}(self, {n})" for n in names] + [f"    set{m}(self, None)" for m in cls._memos]
        if getattr(cls, "__post_init__", None):
            body.append("    self.__post_init__()")
        namespace = {}  # the globals of __init__: its slot setters, bound once the slotted class exists
        exec(f"def __init__(self, {', '.join(names)}):\n" + "\n".join(body or ["    pass"]), namespace)
        cls.__init__ = init = namespace["__init__"]
        init.__defaults__ = tuple(defaults) or None
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        cls = dataclass(init=False, slots=True, eq=False, repr=False)(cls)
        namespace.update({f"set{name}": getattr(cls, name).__set__ for name in (*names, *cls._memos)})
        get = operator.attrgetter(*children) if children else None
        _CHILDREN[cls] = get if len(children) > 1 else (lambda e: (get(e),)) if children else (lambda e: ())
        others = [name for name in cls.__match_args__ if name not in children]
        # a child enters by its hash, which fold has computed: hashing the child itself would recurse
        _HASH[cls] = lambda e, *kids: hash((*kids, *[getattr(e, name) for name in others]))
        return cls

    return make


@node()
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


@node()
class Geometric(SeqExpr):
    """n |-> r^n with 0 < r < 1."""

    ratio: Fraction

    def __post_init__(self):
        if not (0 < self.ratio < 1):
            raise DomainError(f"geometric ratio must lie in (0,1), got {self.ratio}")


@node()
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


@node("inner")
class Scale(SeqExpr):
    """n |-> factor * inner(n), with factor > 0."""

    factor: Fraction
    inner: SeqExpr

    def __post_init__(self):
        if self.factor <= 0:
            raise DomainError(f"scale factor must be positive, got {self.factor}")


@node("inner")
class Ampliate(SeqExpr):
    """Repeat every entry of the inner sequence ``order`` times."""

    order: int
    inner: SeqExpr

    def __post_init__(self):
        if self.order < 1:
            raise DomainError("ampliation order must be a positive integer")


@node("inner")
class Decimate(SeqExpr):
    """n |-> inner(step * n)."""

    step: int
    inner: SeqExpr

    def __post_init__(self):
        if self.step < 1:
            raise DomainError("decimation step must be a positive integer")


@node("left", "right")
class Sum(SeqExpr):
    """n |-> left(n) + right(n)."""

    left: SeqExpr
    right: SeqExpr


@node("left", "right")
class Max(SeqExpr):
    """n |-> max(left(n), right(n))."""

    left: SeqExpr
    right: SeqExpr


@node("left", "right")
class Product(SeqExpr):
    """n |-> left(n) * right(n)."""

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
    while k > 1:
        if isinstance(e, Decimate):
            k, e = k * e.step, e.inner
        elif isinstance(e, Ampliate):
            g = gcd(k, e.order)
            k2, m2 = k // g, e.order // g
            if k2 == 1:
                return ampliate(e.inner, m2)
            if m2 > 1:
                return Decimate(k2, ampliate(e.inner, m2))
            k, e = k2, e.inner
        else:
            return Decimate(k, e)
    return e


def seq_sum(a: SeqExpr, b: SeqExpr) -> SeqExpr:
    return Sum(a, b)


def seq_max(a: SeqExpr, b: SeqExpr) -> SeqExpr:
    return Max(a, b)


def seq_product(a: SeqExpr, b: SeqExpr) -> SeqExpr:
    return Product(a, b)


ZERO = Finite(())


# ---------------------------------------------------------------------------
# walking the tree


def fold(e: Node, rules: dict[type, Callable[..., T]], slot: str | None = None) -> T:
    """``rules[type(node)](node, *values of its fold children)`` at e, computed children first.

    One post-order walk with an explicit stack, so depth is bounded only by
    memory: a node is pushed to enter it, ``(node, kids)`` to leave it.
    With ``slot`` (``"_profile"`` or ``"_envelope"``) every node keeps its
    value in that slot across calls, and None there means "not folded", so
    these rules never return None; otherwise (the hash, or the oracle's
    rules that may return None) the values live in a dict keyed by ``id``
    for this call.  Either way a node shared by several parents, such as
    the squares that reduce ``pow(I, n)``, is folded once, so a fold costs
    one rule call per distinct node.  Threads that fill one slot at once
    store equal values.
    """
    memo: dict[int, T] = {}
    value_of = (lambda n: memo[id(n)]) if slot is None else operator.attrgetter(slot)
    store = None if slot is None else getattr(type(e), slot).__set__
    todo: list = [e]
    while todo:
        node = todo.pop()
        if type(node) is tuple:  # leaving: its children are folded
            node, kids = node
        elif (id(node) in memo) if slot is None else value_of(node) is not None:
            continue  # folded already, or a shared node pushed twice
        elif type(node) not in rules:
            raise TypeError(f"not a node this fold knows: {node!r}")
        elif kids := _CHILDREN[type(node)](node):  # the children come first
            todo.append((node, kids))
            todo += reversed(kids)
            continue
        value = rules[type(node)](node, *map(value_of, kids))
        if slot is None:
            memo[id(node)] = value
        else:
            store(node, value)
    return value_of(e)


# ---------------------------------------------------------------------------
# evaluation


def evaluate(e: SeqExpr, n: int) -> Value:
    """Value of the denoted sequence at index n >= 1.

    Returns an exact ``Fraction`` whenever the value is rational, a float
    otherwise.
    """
    if n < 1:
        raise ValueError(f"sequence indices start at 1, got {n}")
    return _walk_indices(e, (n,), _EXACT)[0]


def _log_fraction(v: Fraction) -> float:
    if v == 0:
        return -math.inf
    return math.log(v.numerator) - math.log(v.denominator)


def eval_log(e: SeqExpr, n: int) -> float:
    """Natural log of the value at index n (-inf for zero entries)."""
    return eval_log_many(e, (n,))[0]


def eval_log_many(e: SeqExpr, ns: Iterable[int]) -> list[float]:
    """Natural logs of the values at every index in ``ns`` (-inf for zero entries).

    Walks each node once for the whole index list (``_walk_indices``).
    Every value is computed with the same float operations, in the same
    order, as a walk for that index alone, so the result does not depend on
    which other indices share the list.  Works in log space throughout, so
    geometric atoms at huge indices never touch big integers and never
    underflow.
    """
    ns = tuple(ns)
    if ns and min(ns) < 1:
        raise ValueError(f"sequence indices start at 1, got {min(ns)}")
    return _walk_indices(e, ns, _LOGS)


def _walk_indices(e: SeqExpr, ns: tuple[int, ...], rules: dict) -> list:
    """The values of e at the indices ns, with an explicit stack.

    Going down, ampliation and decimation map the index list (an ampliation
    walks its child once per distinct index).  Coming up, ``rules``
    (``_LOGS`` or ``_EXACT``) make a leaf's column of values from its
    indices, scale a column, or combine two columns pointwise.  A binary
    node whose two children are one node, as in the squares that reduce
    ``pow(I, n)``, walks it once and combines its column with itself; any
    other shared node is walked once per path, as each path may reach it
    with other indices.
    """
    todo: list[tuple[SeqExpr, tuple[int, ...] | None]] = [(e, ns)]  # (node, None) combines
    done: list[list] = []  # finished columns; an ampliation's slots lie under its child's column
    while todo:
        node, ns = todo.pop()
        kind = type(node)
        if ns is None:
            if kind is Ampliate:
                column = done.pop()
                done.append([column[i] for i in done.pop()])
            elif kind is Scale:
                done.append(rules[Scale](node.factor, done.pop()))
            else:
                right = done.pop()
                left = right if node.left is node.right else done.pop()
                done.append(list(map(rules[kind], left, right)))
        elif kind in _LEAVES:
            done.append(rules[kind](node, ns))
        elif kind in _BINARY:
            todo.append((node, None))
            if node.left is not node.right:
                todo.append((node.right, ns))
            todo.append((node.left, ns))
        elif kind is Scale:
            todo += [(node, None), (node.inner, ns)]
        elif kind is Ampliate:
            m = node.order
            mapped = [-(-n // m) for n in ns]
            distinct = tuple(dict.fromkeys(mapped))
            if len(distinct) < len(mapped):
                slot = {j: i for i, j in enumerate(distinct)}
                done.append([slot[j] for j in mapped])
                todo.append((node, None))
            todo.append((node.inner, distinct))
        elif kind is Decimate:
            k = node.step
            todo.append((node.inner, tuple([k * n for n in ns])))
        else:
            raise TypeError(f"not a sequence expression: {node!r}")
    return done[0]


_LEAVES = frozenset((PowerLog, Geometric, Finite))
_BINARY = frozenset((Sum, Max, Product))


@lru_cache(maxsize=4)
def _log_columns(ns: tuple[int, ...]) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """log(n) and log(log(n+1)) per index: the two columns of every power/log atom.

    Cached across calls because the numeric fallback and the oracle sample every question on
    the same few index lists (the head 1..1024 plus the window's geometric grid, and their
    images under ampliation and decimation), and these logs are most of a power/log atom's
    cost.  A memo local to one call saves nothing.
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


def _log_power_log(e: PowerLog, ns: tuple[int, ...]) -> list[float]:
    fp, fq = -float(e.p), float(e.q)
    logs, loglogs = _log_columns(ns)
    return [fp * x - fq * y for x, y in zip(logs, loglogs)]


def _log_geometric(e: Geometric, ns: tuple[int, ...]) -> list[float]:
    lr = _log_fraction(e.ratio)
    return [n * lr for n in ns]


def _log_finite(e: Finite, ns: tuple[int, ...]) -> list[float]:
    vals, size = e.values, len(e.values)
    return [_log_fraction(vals[n - 1]) if n <= size else -math.inf for n in ns]


def _log_scaled(c: Fraction, column: list[float]) -> list[float]:
    lc = _log_fraction(c)
    return [lc + x for x in column]


def _exact_power_log(e: PowerLog, ns: tuple[int, ...]) -> list[Value]:
    if e.q or e.p.denominator != 1:
        # the float operations of _log_power_log, without its cache of index lists
        fp, fq = -float(e.p), float(e.q)
        return [math.exp(fp * math.log(n) - fq * math.log(math.log(n + 1.0))) for n in ns]
    k = e.p.numerator
    return [Fraction(1, n**k) for n in ns]


def _exact_geometric(e: Geometric, ns: tuple[int, ...], known: tuple[int, Fraction | None] = (0, None)) -> list:
    """r^n at the indices ns; ``known`` is an earlier index m with r^m, to step from."""
    r, step = e.ratio, ns[1] - ns[0] if len(ns) > 1 else 0
    if step > 0 and ns == tuple(range(ns[0], ns[-1] + 1, step)):
        # a run with one step, as in a dense scan: one multiplication per index
        m, value = known
        first = value * r ** (ns[0] - m) if m and ns[0] > m else r ** ns[0]
        return list(itertools.accumulate(itertools.repeat(r**step, len(ns) - 1), operator.mul, initial=first))
    return [r**n for n in ns]


def _exact_finite(e: Finite, ns: tuple[int, ...]) -> list[Fraction]:
    vals, size, zero = e.values, len(e.values), Fraction(0)
    return [vals[n - 1] if n <= size else zero for n in ns]


# node type -> rule: a leaf's makes its column from its indices, Scale's
# scales its child's column, and a binary node's applies pointwise
_LOGS = {
    PowerLog: _log_power_log,
    Geometric: _log_geometric,
    Finite: _log_finite,
    Scale: _log_scaled,
    Sum: _log_sum,
    Max: max,
    Product: _log_product,
}
_EXACT = {
    PowerLog: _exact_power_log,
    Geometric: _exact_geometric,
    Finite: _exact_finite,
    Scale: lambda c, column: [c * v for v in column],
    Sum: operator.add,
    Max: max,
    Product: operator.mul,
}


def support(e: SeqExpr) -> int | None:
    """Number of nonzero entries, or None when the sequence never vanishes."""
    from .growth import profile  # growth imports this module

    return profile(e).support


def value_stream(e: SeqExpr) -> Iterator[Value]:
    """Yield e(1), e(2), ... exactly, with amortized O(1) work per step and node."""
    return itertools.chain.from_iterable(_columns(e))


def head(e: SeqExpr, count: int) -> list[Value]:
    return list(itertools.chain.from_iterable(_columns(e, count + 1)))


def _columns(e: SeqExpr, stop: int | None = None) -> Iterator[list[Value]]:
    """e's exact values at 1, 2, ... (up to ``stop``), one column per block of ``_BLOCK`` indices.

    A geometric leaf goes on from the last value it gave, so a dense scan
    costs it one multiplication per index.
    """
    last: dict[int, tuple[int, Fraction]] = {}  # id of a geometric leaf -> its last index and value

    def geometric(leaf: Geometric, ns: tuple[int, ...]) -> list[Fraction]:
        values = _exact_geometric(leaf, ns, last.get(id(leaf), (0, None)))
        last[id(leaf)] = ns[-1], values[-1]
        return values

    rules, start = {**_EXACT, Geometric: geometric}, 1
    while stop is None or start < stop:
        end = start + _BLOCK if stop is None else min(start + _BLOCK, stop)
        yield _walk_indices(e, tuple(range(start, end)), rules)
        start = end


# Blocks keep the columns of exact values that a dense walk holds at once
# small enough to stay in cache.
_BLOCK = 128
