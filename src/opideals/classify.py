"""Classification of the subideals generated inside an ideal J.

Given an operator S in J, three principal-type objects live inside J: the
smallest plain ideal of J containing S, the smallest real-linear one, and
the smallest complex-linear one.  They sit in the chain

    J(S)J <= JS+SJ+J(S)J <= <S>_J <= (S)_J^R <= (S)_J <= (S)

and two bits decide every link.  When the principal ideal (S) equals its
product with J (softness), everything from the nucleus up collapses onto
(S); when it does not, every link is strict but the first, which is equal
exactly when J is idempotent, and <S>_J is not even closed under scalars.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from .compare import DEFAULT_SETTINGS, Certificate, Settings, Verdict, Witness, big_o
from .grammar import render_seq
from .growth import profile, render_class
from .ideals import (
    FH,
    IdealDesc,
    PreconditionError,
    Principal,
    SoftInterior,
    SoftnessResult,
    _require_member_reduced,
    _soft_reduced,
    is_soft,
    reduce_ideal,
)
from .sequences import SeqExpr, power_log, seq_sum, support

CHAIN_POSITIONS = (
    "J(S)J",
    "JS+SJ+J(S)J",
    "<S>_J",
    "(S)_J^R",
    "(S)_J",
    "(S)",
)

EQUAL = "equal"
STRICT = "strict"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class ChainLink:
    lower: str
    upper: str
    relation: str  # equal | strict | unknown


@dataclass(frozen=True)
class SubidealReport:
    softness: SoftnessResult
    is_bh_ideal: Verdict
    collapse_target: IdealDesc | None
    chain: tuple[ChainLink, ...]
    generators: tuple[SeqExpr, ...]
    ideal: IdealDesc


def _links(relations: Sequence[str]) -> tuple[ChainLink, ...]:
    return tuple(
        ChainLink(CHAIN_POSITIONS[i], CHAIN_POSITIONS[i + 1], rel) for i, rel in enumerate(relations)
    )


def classify_principal(
    s_expr: SeqExpr,
    ideal: IdealDesc,
    *,
    settings: Settings = DEFAULT_SETTINGS,
    mode: str = "auto",
) -> SubidealReport:
    """Full report for the three principal subideals generated by S inside J.

    The members-of-J precondition is checked, and J reduced, once.  A soft
    generator collapses the chain onto the principal ideal (S); otherwise the
    last four links are strict and the first is equal exactly when J is
    idempotent.  Only ``mode="numeric"`` leaves softness, and links, Unknown.
    """
    red = reduce_ideal(ideal)
    _require_member_reduced(s_expr, red, "classification needs S in J; membership verdict", settings, mode)
    softness = _soft_reduced(s_expr, red, settings, mode)
    verdict = softness.verdict
    collapse: IdealDesc | None = None
    if verdict.is_yes:
        collapse = FH() if support(s_expr) is not None else Principal(s_expr)
        relations = [EQUAL] * 5
        bh = Verdict.yes(verdict.witness)
    else:
        first = EQUAL if _idempotent(red) else STRICT if verdict.is_no else UNKNOWN
        # S = AS + SB + sum A_i S B_i would make (S) soft, so the second link
        # is strict exactly when softness fails
        relations = [first] + [STRICT if verdict.is_no else UNKNOWN] * 4
        bh = Verdict.no(verdict.certificate) if verdict.is_no else Verdict.unknown(verdict.reason)
    return SubidealReport(
        softness=softness,
        is_bh_ideal=bh,
        collapse_target=collapse,
        chain=_links(relations),
        generators=(s_expr,),
        ideal=ideal,
    )


def classify_finitely_generated(
    generators: Sequence[SeqExpr],
    ideal: IdealDesc,
    *,
    settings: Settings = DEFAULT_SETTINGS,
    mode: str = "auto",
) -> SubidealReport:
    """Classify the subideals generated by finitely many operators.

    The combined generator is the pointwise sum of the singular-value
    sequences; the whole question then reduces to the principal case.
    """
    gens = tuple(generators)
    if not gens:
        raise PreconditionError("at least one generator is required")
    red = reduce_ideal(ideal)
    for g in gens:
        _require_member_reduced(g, red, "every generator must lie in J; a membership verdict", settings, mode)
    combined = gens[0]
    for g in gens[1:]:
        combined = seq_sum(combined, g)
    report = classify_principal(combined, ideal, settings=settings, mode=mode)
    return replace(report, generators=gens)


def two_generator_principality(
    s_expr: SeqExpr,
    t_expr: SeqExpr,
    ideal: IdealDesc,
    *,
    disjoint_supports: bool = True,
    settings: Settings = DEFAULT_SETTINGS,
    mode: str = "auto",
) -> Verdict:
    """Is the two-generator subideal principal inside J?

    Applies to simultaneously diagonalizable generators with disjoint
    supports (the caller asserts disjointness; the engine checks only that
    the two singular-value sequences dominate each other).  The answer
    coincides with softness of the combined generator.
    """
    if not disjoint_supports:
        raise PreconditionError("the principality criterion needs disjointly supported generators")
    fwd = big_o(s_expr, t_expr, settings=settings, mode=mode)
    bwd = big_o(t_expr, s_expr, settings=settings, mode=mode)
    if not (fwd.is_yes and bwd.is_yes):
        raise PreconditionError(
            "the two generators must have equivalent singular-value sequences "
            f"(forward {fwd.outcome.value}, backward {bwd.outcome.value})"
        )
    softness = is_soft(seq_sum(s_expr, t_expr), ideal, settings=settings, mode=mode)
    return softness.verdict


def probe_chain_link(
    s_expr: SeqExpr,
    ideal: IdealDesc,
    *,
    settings: Settings = DEFAULT_SETTINGS,
    mode: str = "auto",
) -> Verdict:
    """Does J(S)J already swallow JS + SJ?

    Yes exactly when J is idempotent or (S) is J-soft.  A reduced J is
    idempotent exactly when it is 0, F(H) or K(H), or its generator g has
    finite support or rate rho < 1 (then g = O(D_3 g^2), of rate rho^(2/3),
    so (g) = (g^2) = (g)K(H)).  Unknown only under ``mode="numeric"``.

    Proof, equal.  Ideals of B(H) commute under products.  If S is soft,
    (S) = (S)J, so J(S)J = (S)J^2 = (S), which contains JS + SJ.  If J is
    idempotent, JS lies in J(S) = J^2(S) = J(S)J, and so does SJ.

    Proof, strict.  Else s and g have rate one, and g has class n^-p
    log(n+1)^-q with (p, q) != (0, 0).  Let r = 1 for J = (g), and for
    J = (g)K(H) let r = n^(-p/2) when p > 0 and log(n+1)^(-q/2) otherwise;
    then g*r lies in J.  SA, with A = diag(g*r) in the eigenbasis of |S|,
    lies in SJ with singular values g*r*s.  J(S)J is (g^2 s), or (g^2 s)K(H)
    for J = (g)K(H) (Calkin 1941; Dykema, Figiel, Weiss and Wodzicki, Adv.
    Math. 185, 2004).  At rate one an ampliation changes only constants, so
    g*r*s in J(S)J needs r/g bounded; but r/g -> infinity.
    """
    red = reduce_ideal(ideal)
    _require_member_reduced(s_expr, red, "the chain probe needs S in J; membership verdict", settings, mode)
    if _idempotent(red):
        return Verdict.yes(Witness(note="J is idempotent, so JS and SJ lie inside J(S)J"))
    soft = _soft_reduced(s_expr, red, settings, mode).verdict
    if soft.is_yes:
        return Verdict.yes(Witness(note="(S) is J-soft, so JS and SJ lie inside (S) = J(S)J"))
    if soft.is_unknown:
        return Verdict.unknown(soft.reason)
    c = profile(red.generator).growth
    half = power_log(c.power / 2) if c.power > 0 else power_log(0, c.logpower / 2)
    r = render_seq(half) if isinstance(red, SoftInterior) else "1"
    # gen(J) is named, not rendered: the reduced generator of pow(J, n) has a text exponential in n's bits
    note = (f"witness gen(J)*{r}*{render_seq(s_expr)} lies in JS but not in J(S)J: "
            f"gen(J) has class {render_class(c)}, so {r}/gen(J) is unbounded")
    return Verdict.no(Certificate(note=note))


def _idempotent(red: IdealDesc) -> bool:
    """Is the reduced ideal equal to its square?  See ``probe_chain_link``."""
    if not isinstance(red, (Principal, SoftInterior)):
        return True
    p = profile(red.generator)
    return p.support is not None or not p.growth.rate_is_one


def nonlinearity_witness(
    s_expr: SeqExpr,
    ideal: IdealDesc,
    *,
    settings: Settings = DEFAULT_SETTINGS,
    mode: str = "auto",
) -> Verdict:
    """Is the plain principal subideal generated by S non-linear?

    Yes exactly when softness fails: closing <S>_J under scalars would put
    S inside (S)J.  No (all three types coincide and are linear) when the
    generator is soft.  Unknown only under ``mode="numeric"``.
    """
    softness = is_soft(s_expr, ideal, settings=settings, mode=mode)
    v = softness.verdict
    if v.is_no:
        return Verdict.yes(
            Witness(
                window=v.certificate.window if v.certificate else None,
                note="scalar multiples of S escape JS+SJ+J(S)J because (S) is not J-soft",
            )
        )
    if v.is_yes:
        return Verdict.no(
            Certificate(
                window=v.witness.window,
                note="the subideal collapses onto the principal ideal (S), which is linear",
            )
        )
    return Verdict.unknown(v.reason)
