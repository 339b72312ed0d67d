"""Textual grammar for sequence expressions and ideal descriptions.

Sequences:  pow(p) | pow(p,q) | geo(r) | fin(v1,...,vk) | scale(c,E)
            | amp(m,E) | dec(k,E) | sum(E,E) | max(E,E) | prod(E,E)
Ideals:     prin(E) | KH | FH | prod(I,I) | sum(I,I) | pow(I,n)

Numbers are integers, fractions a/b, or decimals; decimals parse to exact
rationals.  ``render_seq``/``render_ideal`` emit the canonical spelling, and
parsing a rendered expression reproduces it exactly.  They refuse, with a
ValueError, a text longer than ``MAX_TEXT`` characters, which only a node
shared by many paths can denote.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from .ideals import (
    FH,
    IdealDesc,
    IdealPower,
    IdealProduct,
    IdealSum,
    KH,
    Principal,
    SoftInterior,
    ZeroIdeal,
)
from .sequences import (
    Ampliate,
    Decimate,
    DomainError,
    Finite,
    Geometric,
    Max,
    PowerLog,
    Product,
    Scale,
    SeqExpr,
    Sum,
    ampliate,
    decimate,
    finite,
    fold,
    geometric,
    power_log,
    scale,
    seq_max,
    seq_product,
    seq_sum,
)


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


# after optional blanks, one token; any other character is "bad"
_TOKEN = re.compile(
    r"\s*(?:(?P<number>-?\d+(?:\.\d+)?(?:/\d+)?)|(?P<name>[A-Za-z_]\w*)|(?P<punct>[(),])|(?P<bad>\S))"
)


class _Tok(NamedTuple):
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Tok]:
    out = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group(kind)!r}", m.start(kind))
        out.append(_Tok(kind, m.group(kind), m.start(kind)))
    return out


def _ideal_power(base: IdealDesc, exponent: tuple[Fraction, int]) -> IdealDesc:
    n, pos = exponent
    if n.denominator != 1 or n < 1:
        raise ParseError("ideal powers need a positive integer exponent", pos)
    return IdealPower(base, int(n))


# grammar -> constructor name -> (argument kinds, constructor).  The kinds of
# arguments are "sequence" and "ideal" nodes, and numbers: "num", "order" (a
# positive integer, checked when read) and "exponent" (with its position, for
# the constructor's check).  A pair (lo, hi) instead is a list of lo..hi numbers,
# hi None meaning no bound; no kinds at all is a bare name.
_CONSTRUCTORS = {
    "sequence": {
        "pow": ((1, 2), power_log),
        "geo": ((1, 1), geometric),
        "fin": ((1, None), lambda *values: finite(values)),
        "scale": (("num", "sequence"), scale),
        "amp": (("order", "sequence"), lambda m, e: ampliate(e, int(m))),
        "dec": (("order", "sequence"), lambda k, e: decimate(e, int(k))),
        "sum": (("sequence", "sequence"), seq_sum),
        "max": (("sequence", "sequence"), seq_max),
        "prod": (("sequence", "sequence"), seq_product),
    },
    "ideal": {
        "KH": ((), KH),
        "FH": ((), FH),
        "prin": (("sequence",), Principal),
        "prod": (("ideal", "ideal"), IdealProduct),
        "sum": (("ideal", "ideal"), IdealSum),
        "pow": (("ideal", "exponent"), _ideal_power),
    },
}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self) -> _Tok | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self, kind: str | None = None, text: str | None = None) -> _Tok:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        if kind and tok.kind != kind:
            raise ParseError(f"expected {kind}, found {tok.text!r}", tok.pos)
        if text and tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.pos)
        self.i += 1
        return tok

    def done(self):
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"trailing input starting with {tok.text!r}", tok.pos)

    def number(self) -> tuple[Fraction, int]:
        tok = self.next("number")
        try:
            return Fraction(tok.text), tok.pos
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad number {tok.text!r}", tok.pos) from exc

    def numbers(self, minimum: int, maximum: int | None, pos: int) -> list[Fraction]:
        self.next("punct", "(")
        items = [self.number()[0]]
        while self.peek() and self.peek().text == ",":
            self.next("punct", ",")
            items.append(self.number()[0])
        self.next("punct", ")")
        if len(items) < minimum or (maximum is not None and len(items) > maximum):
            want = str(minimum) if maximum == minimum else f"{minimum}..{maximum or 'n'}"
            raise ParseError(f"wrong number of arguments (expected {want}, got {len(items)})", pos)
        return items

    def argument(self, kind: str, name: str):
        """A numeric argument of the kind "num", "order" or "exponent"."""
        value, pos = self.number()
        if kind == "order" and (value.denominator != 1 or value < 1):
            raise ParseError(f"{name} needs a positive integer order", pos)
        return (value, pos) if kind == "exponent" else value

    def parse(self, grammar: str):
        """The whole text as one node of ``grammar`` ("sequence" or "ideal").

        An explicit stack holds one frame per open constructor: its name
        token, its argument kinds, its constructor and the arguments read so far.
        """
        frames: list[tuple[_Tok, tuple, object, list]] = []
        while True:
            tok = self.next("name")
            try:
                kinds, make = _CONSTRUCTORS[grammar][tok.text]
            except KeyError:
                raise ParseError(f"unknown {grammar} constructor {tok.text!r}", tok.pos) from None
            if kinds and not isinstance(kinds[0], int):
                self.next("punct", "(")
                frames.append((tok, kinds, make, []))
                value = None
            else:  # a bare name or a list of numbers
                value = _construct(tok, make, self.numbers(*kinds, tok.pos) if kinds else ())
            # read arguments into the open frames until one is a nested node,
            # whose grammar the next round reads
            while frames:
                top, kinds, make, args = frames[-1]
                if value is not None:  # None: the frame has just opened
                    args.append(value)
                if len(args) == len(kinds):
                    self.next("punct", ")")
                    frames.pop()
                    value = _construct(top, make, args)
                    continue
                if args:
                    self.next("punct", ",")
                grammar = kinds[len(args)]
                if grammar in _CONSTRUCTORS:
                    break
                value = self.argument(grammar, top.text)
            else:
                self.done()
                return value


def _construct(tok: _Tok, make, args):
    try:
        return make(*args)
    except DomainError as exc:
        raise ParseError(str(exc), tok.pos) from exc


def parse_seq(text: str) -> SeqExpr:
    return _Parser(text).parse("sequence")


def parse_ideal(text: str) -> IdealDesc:
    return _Parser(text).parse("ideal")


def _num(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# node type -> its text as strings and child nodes, left to right
_PIECES = {
    PowerLog: lambda x: (f"pow({_num(x.p)})" if x.q == 0 else f"pow({_num(x.p)},{_num(x.q)})",),
    Geometric: lambda x: (f"geo({_num(x.ratio)})",),
    Finite: lambda x: ("fin(" + ",".join(map(_num, x.values)) + ")" if x.values else "fin(0)",),
    Scale: lambda x: (f"scale({_num(x.factor)},", x.inner, ")"),
    Ampliate: lambda x: (f"amp({x.order},", x.inner, ")"),
    Decimate: lambda x: (f"dec({x.step},", x.inner, ")"),
    Sum: lambda x: ("sum(", x.left, ",", x.right, ")"),
    Max: lambda x: ("max(", x.left, ",", x.right, ")"),
    Product: lambda x: ("prod(", x.left, ",", x.right, ")"),
    Principal: lambda x: ("prin(", x.generator, ")"),
    KH: lambda x: ("KH",),
    FH: lambda x: ("FH",),
    ZeroIdeal: lambda x: ("prin(fin(0))",),
    SoftInterior: lambda x: ("prod(prin(", x.generator, "),KH)"),
    IdealProduct: lambda x: ("prod(", x.left, ",", x.right, ")"),
    IdealSum: lambda x: ("sum(", x.left, ",", x.right, ")"),
    IdealPower: lambda x: ("pow(", x.base, f",{x.exponent})"),
}


# A shared node is rendered once per path, so the text of a reduced
# ``pow(I, n)`` is exponential in the depth of its nodes.  No text longer
# than this many characters is built.
MAX_TEXT = 1 << 24


def _measure(x, *kids: int) -> int:
    """The length of x's text, from the lengths of the texts of its fold children.

    A node with fold children has no other node among its pieces; the node
    piece of a leaf, an ideal's generator, is measured by a fold of its own.
    """
    size = sum(kids)
    for p in _PIECES[type(x)](x):
        if type(p) is str:
            size += len(p)
        elif not kids:
            size += fold(p, _LENGTH)
    return size


_LENGTH = dict.fromkeys(_PIECES, _measure)


def _render(x) -> str:
    """The canonical text of a sequence or an ideal; ValueError when it would exceed ``MAX_TEXT``."""
    size = fold(x, _LENGTH)
    if size > MAX_TEXT:
        raise ValueError(f"the text would have {size} characters, more than the {MAX_TEXT} rendered")
    return _build(x)


def _build(x) -> str:
    """The canonical text of a sequence or an ideal, emitted from an explicit stack."""
    out: list[str] = []
    todo = [x]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
        else:
            todo += reversed(_PIECES[type(item)](item))
    return "".join(out)


def node_repr(x) -> str:
    """``repr`` of a node: its kind and its text, or the length of a text above ``MAX_TEXT``."""
    size = fold(x, _LENGTH)
    return f"{type(x).__name__}({_build(x) if size <= MAX_TEXT else f'<{size} characters>'})"


def render_seq(e: SeqExpr) -> str:
    if not isinstance(e, SeqExpr):
        raise TypeError(f"not a sequence expression: {e!r}")
    return _render(e)


def render_ideal(d: IdealDesc) -> str:
    if not isinstance(d, IdealDesc):
        raise TypeError(f"not an ideal description: {d!r}")
    return _render(d)
