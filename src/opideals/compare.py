"""Three-valued big-O / little-o comparison of sequence expressions.

The symbolic path decides every comparison inside the grammar exactly, via
the total order on growth classes, and is never Unknown; a No names the two
classes that prove it (``growth.render_class``) and samples nothing.  A
numeric fallback (``mode="numeric"``, in ``opideals.numeric``) samples the
ratio a_n/b_n on a geometric index grid; numeric evidence can never prove an
asymptotic statement, so the fallback answers Yes/No only on unambiguous
trends and returns Unknown otherwise.  Its sampled constants,
``observed_supremum``, ``observed_constant`` and ``rational_ceiling``, are
served from here too, and load ``opideals.numeric`` on first access.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .envelope import constant_from_log, log_sup_ratio
from .growth import class_big_o, class_little_o, profile, render_class
from .sequences import SeqExpr


class Outcome(str, Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Witness:
    """Evidence attached to a Yes verdict."""

    k: int | None = None
    m: int | None = None
    constant: Fraction | None = None
    window: tuple[int, int] | None = None
    note: str = ""


@dataclass(frozen=True)
class Certificate:
    """Evidence attached to a No verdict: where and how the bound fails; only a numeric No has samples."""

    window: tuple[int, int] | None = None
    note: str = ""
    samples: tuple[tuple[int, float], ...] = ()


@dataclass(frozen=True)
class Verdict:
    """A three-valued answer: a Yes carries a witness, a No a certificate, an Unknown a reason."""

    outcome: Outcome
    witness: Witness | None = None
    certificate: Certificate | None = None
    reason: str | None = None

    def __post_init__(self):
        if self.outcome is Outcome.YES and self.witness is None:
            raise ValueError("Yes verdicts carry a witness")
        if self.outcome is Outcome.NO and self.certificate is None:
            raise ValueError("No verdicts carry a certificate")
        if self.outcome is Outcome.UNKNOWN and not self.reason:
            raise ValueError("Unknown verdicts carry a reason")

    @classmethod
    def yes(cls, witness: Witness) -> "Verdict":
        return cls(Outcome.YES, witness=witness)

    @classmethod
    def no(cls, certificate: Certificate) -> "Verdict":
        return cls(Outcome.NO, certificate=certificate)

    @classmethod
    def unknown(cls, reason: str) -> "Verdict":
        return cls(Outcome.UNKNOWN, reason=reason)

    @property
    def is_yes(self) -> bool:
        return self.outcome is Outcome.YES

    @property
    def is_no(self) -> bool:
        return self.outcome is Outcome.NO

    @property
    def is_unknown(self) -> bool:
        return self.outcome is Outcome.UNKNOWN


@dataclass(frozen=True)
class Settings:
    """Tunables for the numeric fallback and witness searches.

    The window is sampled on a geometric grid; a bounded ratio yields Yes
    with constant = twice the observed supremum, a monotone blow-up past
    ``divergence_threshold`` yields No, a ratio stuck above
    ``vanishing_threshold`` refutes little-o, and anything else is Unknown.

    Symbolic Yes verdicts carry a proven constant instead (see
    ``certified_constant``): ``constant_factor`` times a bound on the
    supremum of a_n/b_n over every n >= 1, derived from the expressions
    without sampling, so the window and the sample count leave it unchanged.
    A factor of at least one keeps it a bound.

    ``grid_k`` and ``grid_m`` bound the sampled witness searches only:
    softness and membership in numeric mode, and the oracle's factor check.
    The symbolic path finds its orders in closed form.
    """

    window_lo: int = 16
    window_hi: int = 1 << 20
    sample_count: int = 64
    divergence_threshold: float = 1e3
    vanishing_threshold: float = 1e-3
    bounded_slack: float = 1.05
    flat_floor: float = 0.9
    constant_factor: float = 2.0
    grid_k: int = 32
    grid_m: int = 32

    def window(self) -> tuple[int, int]:
        return (self.window_lo, self.window_hi)


DEFAULT_SETTINGS = Settings()


# the index grid of the numeric fallback and the oracle; the symbolic path samples nothing
def sample_indices(lo: int, hi: int, count: int) -> list[int]:
    """About ``count`` integers spread geometrically over [lo, hi], sorted, ending at hi."""
    return list(_sample_indices(lo, hi, count))


@lru_cache(maxsize=32)
def _sample_indices(lo: int, hi: int, count: int) -> tuple[int, ...]:
    # sampled constants and comparisons ask for the same few (lo, hi, count), so the list is built once per key
    if hi < lo:
        lo, hi = hi, lo
    if lo < 1:
        lo = 1
    if count < 2 or lo == hi:
        return (hi,)
    ratio = (hi / lo) ** (1.0 / (count - 1))
    out: set[int] = set()
    x = float(lo)
    for _ in range(count):
        out.add(min(hi, max(lo, round(x))))
        x *= ratio
    out.add(hi)
    return tuple(sorted(out))


# the sampled constants of the numeric fallback, served from opideals.numeric,
# which loads on the first access to one of them
def __getattr__(name: str):
    if name not in ("observed_supremum", "observed_constant", "rational_ceiling"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import numeric

    return getattr(numeric, name)


def certified_constant(a: SeqExpr, b: SeqExpr, settings: Settings) -> Fraction:
    """The witness constant of a symbolic Yes: a_n <= C b_n for every n >= 1, proven.

    C is ``constant_factor`` times an upper bound on sup a_n/b_n from the log
    envelopes of ``opideals.envelope`` (piece by piece when a is finitely
    supported).  Needs a = O(b).  Nothing is sampled, so no window or sample
    count enters.
    """
    return constant_from_log(log_sup_ratio(a, b) + math.log(settings.constant_factor))


def _finite_supports(a: SeqExpr, b: SeqExpr, sa: int, sb: int, strict: bool, settings: Settings) -> Verdict:
    """Both sides finitely supported (sizes sa, sb): decided by the supports.

    The constant compares the two sides at the starts and ends of their
    pieces (``certified_constant``), never index by index.
    """
    if strict:
        # the tail ratio is 0/0, which never witnesses little-o
        return Verdict.no(Certificate(note="both sides are finitely supported; the ratio does not vanish"))
    if sa > sb:
        return Verdict.no(Certificate(window=(sb + 1, sa), note="left support exceeds right support"))
    return Verdict.yes(
        Witness(
            constant=certified_constant(a, b, settings),
            window=(1, sa),
            note="finite supports compared pointwise",
        )
    )


def _symbolic(a: SeqExpr, b: SeqExpr, strict: bool, settings: Settings) -> Verdict:
    pa, pb = profile(a), profile(b)
    window = (1, settings.window_hi)
    if pa.is_zero:
        return Verdict.yes(Witness(constant=Fraction(1), window=window, note="left side is zero"))
    if pb.support is not None:
        if pa.support is None:
            note = "right side vanishes beyond its support while the left side stays positive"
            return Verdict.no(Certificate(window=(pb.support + 1, pb.support + 2), note=note))
        return _finite_supports(a, b, pa.support, pb.support, strict, settings)
    if pa.support is not None:
        if strict:
            return Verdict.yes(
                Witness(
                    constant=Fraction(1),
                    window=(pa.support + 1, settings.window_hi),
                    note="finitely supported left side vanishes under a positive class",
                )
            )
        return Verdict.yes(
            Witness(
                constant=certified_constant(a, b, settings),
                window=window,
                note="finitely supported left side",
            )
        )
    ok = class_little_o(pa.growth, pb.growth) if strict else class_big_o(pa.growth, pb.growth)
    if ok:
        return Verdict.yes(
            Witness(constant=certified_constant(a, b, settings), window=window, note="growth-class domination")
        )
    # the classes are totally ordered, so the two classes alone prove the No
    kind = "does not vanish" if strict and class_big_o(pa.growth, pb.growth) else "grows without bound"
    classes = f"left class {render_class(pa.growth)}, right class {render_class(pb.growth)}"
    return Verdict.no(Certificate(note=f"growth classes refute the bound: the ratio {kind}: {classes}"))


def _decide(a: SeqExpr, b: SeqExpr, strict: bool, settings: Settings, mode: str) -> Verdict:
    if mode == "numeric":
        from .numeric import sampled_compare  # loaded only for the numeric fallback

        return sampled_compare(a, b, strict, settings)
    if mode in ("auto", "symbolic"):
        return _symbolic(a, b, strict=strict, settings=settings)
    raise ValueError(f"unknown comparison mode: {mode!r}")


def big_o(
    a: SeqExpr,
    b: SeqExpr,
    *,
    settings: Settings = DEFAULT_SETTINGS,
    mode: str = "auto",
) -> Verdict:
    """Decide a_n = O(b_n).

    ``mode='auto'`` (or 'symbolic') uses the exact growth-class order and
    always returns Yes or No; ``mode='numeric'`` forces the sampled
    fallback, whose honest third answer is Unknown.
    """
    return _decide(a, b, False, settings, mode)


def little_o(
    a: SeqExpr,
    b: SeqExpr,
    *,
    settings: Settings = DEFAULT_SETTINGS,
    mode: str = "auto",
) -> Verdict:
    """Decide a_n = o(b_n); strict analogue of :func:`big_o`."""
    return _decide(a, b, True, settings, mode)
