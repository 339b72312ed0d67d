"""Classification of the subideals generated inside an ideal J.

Given an operator S in J, three principal-type objects live inside J: the
smallest plain ideal of J containing S, the smallest real-linear one, and
the smallest complex-linear one.  They sit in the chain

    J(S)J <= JS+SJ+J(S)J <= <S>_J <= (S)_J^R <= (S)_J <= (S)

and a single softness bit controls the whole picture: when the principal
ideal (S) equals its product with J, everything from the nucleus up
collapses onto (S); when it does not, the last four positions are pairwise
strict and the plain-ideal object is not even closed under scalars.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from .compare import DEFAULT_SETTINGS, Certificate, Settings, Verdict, Witness, big_o
from .ideals import (
    FH,
    IdealDesc,
    IdealProduct,
    PreconditionError,
    Principal,
    SoftInterior,
    SoftnessResult,
    _equal_reduced,
    _member_reduced,
    _require_member_reduced,
    _soft_reduced,
    is_soft,
    reduce_ideal,
)
from .sequences import SeqExpr, power_log, seq_product, seq_sum, support

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

    The members-of-J precondition is enforced.  A soft generator collapses
    the entire chain onto the principal ideal (S); a non-soft one makes the
    last four positions pairwise strict and leaves only the innermost link
    to a dedicated probe.  J is reduced, and S checked against it, once.
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
        probe = _probe_reduced(s_expr, red, settings, mode)
        first = EQUAL if probe.is_yes else STRICT if probe.is_no else UNKNOWN
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

    Yes for idempotent J (then JS, SJ sit inside J(S) = J(S)J); No when the
    canonical witness gen(J)*S escapes the reduced J(S)J; Unknown when
    neither test is conclusive.
    """
    red = reduce_ideal(ideal)
    _require_member_reduced(s_expr, red, "the chain probe needs S in J; membership verdict", settings, mode)
    return _probe_reduced(s_expr, red, settings, mode)


def _probe_reduced(s_expr: SeqExpr, red: IdealDesc, settings: Settings, mode: str) -> Verdict:
    """``probe_chain_link`` for S already known to lie in J, given in reduced form."""
    squared = reduce_ideal(IdealProduct(red, red))
    idem = _equal_reduced(red, squared, settings, mode)
    if idem.is_yes:
        return Verdict.yes(Witness(note="J is idempotent, so JS and SJ lie inside J(S)J"))
    gen = _ideal_witness_sequence(red)
    if gen is None:
        return Verdict.unknown("no canonical witness sequence for this ideal form")
    witness_seq = seq_product(gen, s_expr)
    nucleus = reduce_ideal(IdealProduct(red, IdealProduct(Principal(s_expr), red)))
    inside = _member_reduced(witness_seq, nucleus, settings, mode)
    if inside.is_no:
        from .grammar import render_seq

        # gen(J) is named, not rendered: the reduced generator of pow(J, n) has a text exponential in n's bits
        note = f"witness gen(J)*{render_seq(s_expr)} lies in JS but not in J(S)J"
        return Verdict.no(replace(inside.certificate, note=note))
    if inside.is_yes:
        return Verdict.unknown(
            "the canonical witness is absorbed by J(S)J and J is not provably idempotent"
        )
    return Verdict.unknown(inside.reason)


def _ideal_witness_sequence(red: IdealDesc) -> SeqExpr | None:
    if isinstance(red, Principal):
        return red.generator
    if isinstance(red, SoftInterior):
        # a member of (g)K(H) close to its boundary: the generator damped by a log
        return seq_product(red.generator, power_log(0, 1))
    return None


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
    generator is soft.
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
