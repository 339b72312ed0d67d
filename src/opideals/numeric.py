"""The sampled numeric fallback: ``mode="numeric"`` comparisons, membership and softness.

The symbolic path (``compare``, ``ideals``) decides exactly and never loads
this module; it is imported inside their ``mode == "numeric"`` branches.
Here a comparison samples the ratio a_n/b_n on a geometric index grid of the
window (``sampled_compare``), membership tries the ampliation orders
m <= ``grid_m`` (``sampled_member``) and softness searches the witness grid
k <= ``grid_k``, m <= ``grid_m`` (``sampled_soft``).  Numeric evidence never
proves an asymptotic statement: a Yes carries a sampled constant
(``observed_constant``), and an unclear trend is Unknown.  When a side is
zero or finitely supported, the fallback answers as the symbolic path does,
since the window could sample only zeros there.
"""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction

from .compare import (
    Certificate,
    Settings,
    Verdict,
    Witness,
    _finite_supports,
    _symbolic,
    big_o,
    little_o,
    sample_indices,
)
from .growth import profile
from .ideals import IdealDesc, KH, SoftInterior, SoftnessResult, _generator_witness, _soft_t_for_compacts
from .sequences import SeqExpr, ampliate, decimate, eval_log_many, seq_product, support


def _ratio_logs(a: SeqExpr, b: SeqExpr, ns: list[int], both_zero: float) -> list[float]:
    """log(a_n / b_n) for every n in ns; ``both_zero`` supplies the 0/0 convention.

    Each side is walked once for the whole index list.
    """
    return [
        la - lb if lb > -math.inf else (both_zero if la == -math.inf else math.inf)
        for la, lb in zip(eval_log_many(a, ns), eval_log_many(b, ns))
    ]


def observed_supremum(a: SeqExpr, b: SeqExpr, settings: Settings) -> float:
    """sup of a_n/b_n over a dense head plus the sampled window (as a float).

    The head is 1..1024 (extended to the support of a when that is finite);
    the window adds ``2 * sample_count`` geometric samples.  The maximum is
    taken on the log scale, so ``exp`` runs once.
    """
    hi = settings.window_hi
    head = min(hi, 1024)
    sup_a = support(a)
    if sup_a is not None:
        head = min(hi, max(head, sup_a))
    idx = list(range(1, head + 1))
    idx += sample_indices(settings.window_lo, hi, 2 * settings.sample_count)
    best = max(_ratio_logs(a, b, sorted(set(idx)), both_zero=-math.inf))
    if best == -math.inf:
        return 0.0
    return math.inf if best == math.inf else math.exp(min(best, 700.0))


def rational_ceiling(x: float) -> Fraction:
    """Smallest convenient rational upper bound for a positive float."""
    if x <= 0:
        return Fraction(1)
    if x == math.inf:
        raise ValueError("no rational bound for an infinite supremum")
    scaled = math.ceil(x * (1 << 24))
    return Fraction(scaled, 1 << 24)


def observed_constant(a: SeqExpr, b: SeqExpr, settings: Settings) -> Fraction:
    """A sampled witness constant, for ``mode="numeric"`` only.

    ``constant_factor`` times the supremum of a_n/b_n over the head 1..1024
    plus ``2 * sample_count`` geometric samples of the window.  It is not a
    proven bound: for ``pow(1)`` against ``sum(pow(1),scale(1000,pow(1,1/4)))``
    it is about 0.00385, while the ratio tends to 1.  The symbolic path uses
    ``certified_constant``.
    """
    sup = observed_supremum(a, b, settings)
    return rational_ceiling(settings.constant_factor * max(sup, 1e-30))


def sampled_compare(a: SeqExpr, b: SeqExpr, strict: bool, settings: Settings) -> Verdict:
    pa, pb = profile(a), profile(b)
    if pa.is_zero:
        return Verdict.yes(Witness(constant=Fraction(1), window=settings.window(), note="left side is zero"))
    if pb.support is not None and pa.support is None:
        return Verdict.no(
            Certificate(
                window=(pb.support + 1, pb.support + 2),
                note="right side eventually zero while the left side is not",
            )
        )
    if pb.support is not None:
        # the sampled window starts past both supports, where the ratio is 0/0; a No names that part
        v = _finite_supports(a, b, pa.support, pb.support, strict, settings)
        if strict:
            v = Verdict.no(replace(v.certificate, window=(max(pa.support, pb.support) + 1, settings.window_hi)))
        return v
    if pa.support is not None:
        # the window may start past the left support and sample only zeros
        return _symbolic(a, b, strict, settings)
    ns = sample_indices(settings.window_lo, settings.window_hi, settings.sample_count)
    ratios: list[tuple[int, float]] = []
    for n, r in zip(ns, _ratio_logs(a, b, ns, both_zero=0.0)):
        if r == math.inf:
            return Verdict.no(
                Certificate(window=(n, n), note=f"right side vanishes at index {n} with nonzero left side")
            )
        ratios.append((n, math.exp(min(r, 700.0)) if r > -math.inf else 0.0))
    vals = [v for _, v in ratios]
    if len(vals) < 8:
        return Verdict.unknown("too few distinct sample indices in the window to read a trend")
    half = len(vals) // 2
    h1, h2 = vals[:half], vals[half:]
    tail = vals[-max(1, len(vals) // 4):]
    sup = max(vals)
    diverging = (
        vals[-1] >= settings.divergence_threshold
        and all(h2[i + 1] >= h2[i] * 0.999 for i in range(len(h2) - 1))
    )
    if diverging:
        return Verdict.no(
            Certificate(
                window=settings.window(),
                note="sampled ratio climbs monotonically past the divergence threshold",
                samples=tuple(ratios[-4:]),
            )
        )
    bounded = max(tail) <= max(max(h1), 1e-300) * settings.bounded_slack
    if not strict:
        if bounded:
            return Verdict.yes(
                Witness(
                    constant=rational_ceiling(settings.constant_factor * sup),
                    window=settings.window(),
                    note="sampled ratio shows no sustained growth",
                )
            )
        return Verdict.unknown(
            "sampled ratio still grows at the window end but has not crossed the divergence threshold"
        )
    if bounded and max(tail) < settings.vanishing_threshold:
        return Verdict.yes(
            Witness(
                constant=rational_ceiling(settings.constant_factor * sup),
                window=settings.window(),
                note="sampled ratio falls below the vanishing threshold",
            )
        )
    stabilized = (
        bounded
        and max(tail) >= settings.vanishing_threshold
        and vals[-1] >= settings.flat_floor * max(h2)
    )
    if stabilized:
        return Verdict.no(
            Certificate(
                window=settings.window(),
                note="sampled ratio stabilizes above the vanishing threshold",
                samples=tuple(ratios[-4:]),
            )
        )
    return Verdict.unknown("sampled ratio trend is inconclusive over the window")


def sampled_member(eta: SeqExpr, gen: SeqExpr, strict: bool, settings: Settings) -> Verdict:
    compare = little_o if strict else big_o
    saw_unknown = False
    last_no = None
    for m in range(1, settings.grid_m + 1):
        v = compare(eta, ampliate(gen, m), settings=settings, mode="numeric")
        if v.is_yes:
            w = v.witness
            return Verdict.yes(Witness(m=m, constant=w.constant, window=w.window, note=w.note))
        if v.is_unknown:
            saw_unknown = True
        else:
            last_no = v
    if saw_unknown:
        return Verdict.unknown("numeric sampling left some ampliation orders undecided")
    cert = last_no.certificate if last_no else Certificate(note="no ampliation order within the grid")
    return Verdict.no(replace(cert, note=f"no ampliation order up to {settings.grid_m} dominates: {cert.note}"))


def _soft_no(note: str, base: Verdict, fallback: str) -> SoftnessResult:
    """A No of the witness grid: the certificate of the sampled comparison ``base``, after ``note``."""
    cert = base.certificate or Certificate(note=fallback)
    return SoftnessResult(verdict=Verdict.no(replace(cert, note=f"{note}: {cert.note}")))


def sampled_soft(s_expr: SeqExpr, red: IdealDesc, settings: Settings) -> SoftnessResult:
    """The witness grid of ``is_soft`` for numeric mode: sampled comparisons up to (grid_k, grid_m)."""
    if isinstance(red, KH):
        saw_unknown = None
        for k in range(2, settings.grid_k + 1):
            v = little_o(decimate(s_expr, k), s_expr, settings=settings, mode="numeric")
            if v.is_yes:
                t = _soft_t_for_compacts(s_expr, k)
                constant = (
                    observed_constant(s_expr, seq_product(ampliate(s_expr, k), t), settings)
                    if t is not None
                    else v.witness.constant
                )
                verdict = Verdict.yes(
                    Witness(k=k, constant=constant, window=(1, settings.window_hi),
                            note="decimated tail vanishes against the sequence")
                )
                return SoftnessResult(verdict=verdict, k=k, m=None, t_witness=t)
            if v.is_unknown and saw_unknown is None:
                saw_unknown = v.reason
        if saw_unknown is not None:
            return SoftnessResult(verdict=Verdict.unknown(saw_unknown))
        base = little_o(decimate(s_expr, 2), s_expr, settings=settings, mode="numeric")
        return _soft_no(f"no decimation step up to {settings.grid_k} vanishes", base,
                        "decimated tails stay comparable to the sequence")

    gen, damped = red.generator, isinstance(red, SoftInterior)
    saw_unknown = None
    for k in range(1, settings.grid_k + 1):
        for m in range(1, settings.grid_m + 1):
            t = _generator_witness(gen, m, damped)
            v = big_o(s_expr, seq_product(ampliate(s_expr, k), t), settings=settings, mode="numeric")
            if v.is_yes:
                verdict = Verdict.yes(
                    Witness(k=k, m=m, constant=v.witness.constant, window=v.witness.window,
                            note="structured witness: ampliated self times ampliated generator")
                )
                return SoftnessResult(verdict=verdict, k=k, m=m, t_witness=t)
            if v.is_unknown and saw_unknown is None:
                saw_unknown = v.reason
    if saw_unknown is not None:
        return SoftnessResult(verdict=Verdict.unknown(saw_unknown))
    base = big_o(s_expr, seq_product(ampliate(s_expr, 2), _generator_witness(gen, 1, damped)),
                 settings=settings, mode="numeric")
    return _soft_no(f"no structured witness within the {settings.grid_k}x{settings.grid_m} grid", base,
                    "no structured witness dominates")
