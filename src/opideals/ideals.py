"""Ideals of B(H) through their characteristic sets.

An ideal of the bounded operators on a separable Hilbert space is captured
exactly by the set of non-increasing null sequences that occur as singular
values of its members.  On that coordinate system, membership in a
principal ideal is a big-O question against an ampliated generator,
products of principal ideals multiply their generators pointwise, the sum
of principal ideals is generated by the pointwise sum, the compacts have
every null sequence, and the finite-rank ideal has exactly the finitely
supported ones.

Every description built from those pieces reduces to one of five normal
forms: the zero ideal, the finite-rank ideal, the compacts, a principal
ideal, or a soft interior (a principal ideal multiplied by the compacts,
whose membership test is little-o instead of big-O).

``is_soft`` decides the collapse question: the principal ideal generated by
S equals its product with J exactly when s(S) is dominated by an ampliation
of itself times some member of J.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .compare import (
    DEFAULT_SETTINGS,
    Certificate,
    Outcome,
    Settings,
    Verdict,
    Witness,
    big_o,
    certified_constant,
    little_o,
)
from .growth import (
    Profile,
    amp_class,
    class_big_o,
    min_ampliation_order,
    mul_class,
    profile,
    rate_class,
    render_class,
)
from .sequences import (
    Node,
    SeqExpr,
    ampliate,
    decimate,
    finite,
    fold,
    node,
    power_log,
    seq_product,
    seq_sum,
    support,
)


class PreconditionError(ValueError):
    """An operation was applied outside its stated hypotheses."""


class IdealDesc(Node):
    """Base class for ideal descriptions; immutable like sequence expressions.

    The five normal forms are leaves for ``sequences.fold``, so a fold over
    an ideal description never enters a generator.
    """

    __slots__ = ()


@node()
class Principal(IdealDesc):
    """The smallest ideal containing an operator with the given singular values."""

    generator: SeqExpr


@node()
class KH(IdealDesc):
    """The compact operators: every null sequence belongs."""


@node()
class FH(IdealDesc):
    """The finite-rank operators: exactly the finitely supported sequences."""


@node()
class ZeroIdeal(IdealDesc):
    """The zero ideal (reduced form of a principal ideal with zero generator)."""


@node()
class SoftInterior(IdealDesc):
    """Reduced form of Principal(g) * KH; membership is little-o against g."""

    generator: SeqExpr


@node("left", "right")
class IdealProduct(IdealDesc):
    """The product of two ideals: generated by the products of their members."""

    left: IdealDesc
    right: IdealDesc


@node("left", "right")
class IdealSum(IdealDesc):
    """The sum of two ideals: the sums of a member of each."""

    left: IdealDesc
    right: IdealDesc


@node("base")
class IdealPower(IdealDesc):
    """The product of ``exponent`` copies of the base ideal."""

    base: IdealDesc
    exponent: int

    def __post_init__(self):
        if self.exponent < 1:
            raise ValueError("ideal powers need a positive integer exponent")


@dataclass(frozen=True)
class SoftnessResult:
    """Outcome of the softness decision with its structured witness.

    A Yes verdict carries the ampliation order ``k`` applied to the
    generator's own singular values, the order ``m`` applied to the ideal's
    generator (when J is principal-like), and the witness sequence
    ``t_witness``, which itself belongs to J.
    """

    verdict: Verdict
    k: int | None = None
    m: int | None = None
    t_witness: SeqExpr | None = None


def reduce_ideal(desc: IdealDesc) -> IdealDesc:
    """Rewrite a description into one of the five normal forms.

    Products of principal ideals multiply generators; a product with the
    compacts becomes a soft interior; sums collapse onto whichever summand
    dominates (the sum of two principal ideals is principal, generated by
    the pointwise sum).  ``pow(I, n)`` squares the reduced base from the
    leading bit of n down and multiplies the base in at each set bit, over
    shared nodes: its generator has O(log n) distinct ``Product`` nodes, and
    n = 2 and n = 3 give ``prod(g,g)`` and ``prod(prod(g,g),g)``.  A fold
    over the description (``sequences.fold``), so depth is bounded only by
    memory.  Idempotent on its own output.
    """
    return fold(desc, _REDUCE)


def _reduce_principal(desc: Principal) -> IdealDesc:
    return ZeroIdeal() if support(desc.generator) == 0 else desc


def _reduce_soft(desc: SoftInterior) -> IdealDesc:
    s = support(desc.generator)
    if s == 0:
        return ZeroIdeal()
    if s is not None:
        return FH()  # F(H) absorbs: a finite-rank generator times the compacts
    return desc


def _reduce_power(base: IdealDesc, exponent: int) -> IdealDesc:
    out = base
    for bit in bin(exponent)[3:]:
        out = _reduce_product(out, out)
        if bit == "1":
            out = _reduce_product(out, base)
    return out


def _reduce_product(a: IdealDesc, b: IdealDesc) -> IdealDesc:
    if isinstance(a, ZeroIdeal) or isinstance(b, ZeroIdeal):
        return ZeroIdeal()
    if isinstance(a, FH) or isinstance(b, FH):
        return FH()
    if isinstance(b, KH):
        a, b = b, a
    if isinstance(a, KH):
        if isinstance(b, KH):
            return KH()
        return _reduce_soft(SoftInterior(b.generator))  # b is Principal or SoftInterior
    gen = seq_product(a.generator, b.generator)
    if isinstance(a, SoftInterior) or isinstance(b, SoftInterior):
        return _reduce_soft(SoftInterior(gen))
    return _reduce_principal(Principal(gen))


def _reduce_sum(a: IdealDesc, b: IdealDesc) -> IdealDesc:
    if isinstance(a, ZeroIdeal):
        return b
    if isinstance(b, ZeroIdeal):
        return a
    if isinstance(a, KH) or isinstance(b, KH):
        return KH()
    if isinstance(a, FH):
        return b
    if isinstance(b, FH):
        return a
    if isinstance(a, Principal) and isinstance(b, Principal):
        return _reduce_principal(Principal(seq_sum(a.generator, b.generator)))
    if isinstance(a, SoftInterior) and isinstance(b, SoftInterior):
        return _reduce_soft(SoftInterior(seq_sum(a.generator, b.generator)))
    # mixed principal + soft interior: the growth-class order is total, so
    # one side always swallows the other
    if isinstance(a, SoftInterior):
        a, b = b, a
    pa, pb = profile(a.generator), profile(b.generator)
    if min_ampliation_order(pb, pa, strict=False) is not None:
        return a  # (b)K(H) sits inside (b) which sits inside (a)
    if min_ampliation_order(pa, pb, strict=True) is not None:
        return b  # (a) sits inside the soft interior of (b)
    raise AssertionError("total class order left a sum unreduced")


# node type -> the reduced form of such a node, from its children's reduced forms
_REDUCE = {
    Principal: _reduce_principal,
    SoftInterior: _reduce_soft,
    KH: lambda desc: desc,
    FH: lambda desc: desc,
    ZeroIdeal: lambda desc: desc,
    IdealProduct: lambda desc, a, b: _reduce_product(a, b),
    IdealSum: lambda desc, a, b: _reduce_sum(a, b),
    IdealPower: lambda desc, base: _reduce_power(base, desc.exponent),
}


def _member_order(eta: SeqExpr, red: IdealDesc) -> int | None:
    """The least ampliation order m with eta in the reduced ideal, or None when eta lies outside.

    Exact, and it samples nothing.  Ideals without a generator (zero, finite
    rank, the compacts) answer 1 for every member.
    """
    p_eta = profile(eta)
    if isinstance(red, ZeroIdeal):
        return 1 if p_eta.is_zero else None
    if isinstance(red, KH):
        return 1
    if isinstance(red, FH):
        return 1 if p_eta.support is not None else None
    return min_ampliation_order(p_eta, profile(red.generator), strict=isinstance(red, SoftInterior))


def _member_reduced(eta: SeqExpr, red: IdealDesc, settings: Settings, mode: str) -> Verdict:
    if mode == "numeric" and isinstance(red, (Principal, SoftInterior)):
        from .numeric import sampled_member  # loaded only for the numeric fallback

        return sampled_member(eta, red.generator, isinstance(red, SoftInterior), settings)
    m = _member_order(eta, red)
    if isinstance(red, ZeroIdeal):
        if m is not None:
            return Verdict.yes(Witness(constant=Fraction(1), note="zero sequence in the zero ideal"))
        return Verdict.no(Certificate(note="nonzero sequence against the zero ideal"))
    if isinstance(red, KH):
        return Verdict.yes(Witness(m=1, constant=Fraction(1), note="every expression denotes a null sequence"))
    if isinstance(red, FH):
        if m is not None:
            return Verdict.yes(
                Witness(m=1, constant=Fraction(1), note=f"finite support of size {profile(eta).support}")
            )
        return Verdict.no(Certificate(note="infinite support cannot be finite rank"))
    gen = red.generator
    strict = isinstance(red, SoftInterior)
    if m is None:
        # no order works, so the comparison with the generator is a No, which names both classes
        base = (little_o if strict else big_o)(eta, gen, settings=settings)
        note = (
            "the sequence never vanishes against an ampliated generator"
            if strict
            else "no ampliation of the generator dominates the sequence"
        )
        cert = base.certificate or Certificate(note=note)
        return Verdict.no(replace(cert, note=f"{note}: {cert.note}"))
    target = ampliate(gen, m)
    constant = certified_constant(eta, target, settings)
    return Verdict.yes(
        Witness(m=m, constant=constant, window=(1, settings.window_hi), note="ampliated generator dominates")
    )


def member(
    eta: SeqExpr,
    ideal: IdealDesc,
    *,
    settings: Settings = DEFAULT_SETTINGS,
    mode: str = "auto",
) -> Verdict:
    """Does a diagonal operator with singular values ``eta`` belong to the ideal?

    Principal ideals test big-O domination by some ampliation of the
    generator (the witness records the order); soft interiors test
    little-o; the compacts accept everything; finite rank demands finite
    support.  Composite descriptions are reduced first.
    """
    return _member_reduced(eta, reduce_ideal(ideal), settings, mode)


def require_member(
    eta: SeqExpr,
    ideal: IdealDesc,
    what: str,
    *,
    settings: Settings = DEFAULT_SETTINGS,
    mode: str = "auto",
) -> None:
    """Raise ``PreconditionError("<what> was <outcome>")`` unless eta lies in the ideal.

    The symbolic path decides membership exactly and samples no witness
    constant, since a precondition discards it; numeric mode asks ``member``.
    """
    _require_member_reduced(eta, reduce_ideal(ideal), what, settings, mode)


def _require_member_reduced(eta: SeqExpr, red: IdealDesc, what: str, settings: Settings, mode: str) -> None:
    """``require_member`` against an ideal already in reduced form."""
    if mode == "numeric":
        outcome = _member_reduced(eta, red, settings, mode).outcome
    else:
        outcome = Outcome.YES if _member_order(eta, red) is not None else Outcome.NO
    if outcome is not Outcome.YES:
        raise PreconditionError(f"{what} was {outcome.value}")


def ideal_equal(
    left: IdealDesc,
    right: IdealDesc,
    *,
    settings: Settings = DEFAULT_SETTINGS,
    mode: str = "auto",
) -> Verdict:
    """Mutual-inclusion test on reduced forms.

    Yes verdicts pair the two inclusion witnesses; No verdicts name the
    failing direction and exhibit a separating sequence when one is handy.
    """
    return _equal_reduced(reduce_ideal(left), reduce_ideal(right), settings, mode)


def _equal_reduced(a: IdealDesc, b: IdealDesc, settings: Settings, mode: str) -> Verdict:
    """``ideal_equal`` on two ideals already in reduced form."""
    if type(a) is type(b) and not isinstance(a, (Principal, SoftInterior)):
        return Verdict.yes(Witness(note=f"identical reduced forms ({a.__class__.__name__})"))

    inc_ab = _included(a, b, settings, mode)
    if inc_ab.is_no:
        c = inc_ab.certificate
        return Verdict.no(replace(c, note=f"left not included in right: {c.note}"))
    inc_ba = _included(b, a, settings, mode)
    if inc_ba.is_no:
        c = inc_ba.certificate
        return Verdict.no(replace(c, note=f"right not included in left: {c.note}"))
    if inc_ab.is_yes and inc_ba.is_yes:
        return Verdict.yes(Witness(note="mutual inclusion of reduced generators"))
    return Verdict.unknown("one of the inclusion tests was inconclusive")


def _strictly_slower_seq(gen: SeqExpr) -> SeqExpr:
    """A compact sequence outside every ampliation of (gen): halve its decay."""
    p = profile(gen)
    if p.support is not None or not p.growth.rate_is_one:
        return power_log(1)
    g = p.growth
    if g.power > 0:
        return power_log(g.power / 2)
    return power_log(0, g.logpower / 2)


def _included(a: IdealDesc, b: IdealDesc, settings: Settings, mode: str) -> Verdict:
    """Is the reduced ideal a contained in the reduced ideal b?"""
    if isinstance(a, ZeroIdeal):
        return Verdict.yes(Witness(note="zero ideal included everywhere"))
    if isinstance(b, ZeroIdeal):
        return Verdict.no(Certificate(note="nonzero ideal against the zero ideal"))
    if isinstance(a, FH):
        return Verdict.yes(Witness(note="finite rank lies in every nonzero ideal"))
    if isinstance(b, KH):
        return Verdict.yes(Witness(note="every ideal here lies in the compacts"))
    if isinstance(a, KH):
        if isinstance(b, (Principal, SoftInterior)):
            from .grammar import render_seq

            sep = _strictly_slower_seq(b.generator)
            return Verdict.no(
                Certificate(note=f"compact sequence {render_seq(sep)} escapes every ampliation of the generator")
            )
        return Verdict.no(Certificate(note="the compacts strictly contain the finite-rank ideal"))
    if isinstance(b, FH):
        gen = a.generator
        if support(gen) is not None:
            return Verdict.yes(Witness(note="finitely supported generator"))
        return Verdict.no(Certificate(note="generator has infinite support, so the ideal exceeds finite rank"))
    # a is Principal or SoftInterior, b is Principal or SoftInterior; soft
    # interiors compare at generator level: (g)K(H) <= (h)K(H) and
    # (g)K(H) <= (h) both reduce to g belonging to (h) up to ampliation
    target = b if isinstance(a, Principal) and isinstance(b, SoftInterior) else Principal(b.generator)
    if mode != "numeric":
        # ideal_equal keeps only the outcome of a Yes, so none is sampled;
        # member runs only for the certificate of a No
        m = _member_order(a.generator, target)  # reduced, since b is
        if m is not None:
            return Verdict.yes(Witness(m=m, note="the generator lies in the other ideal"))
    return member(a.generator, target, settings=settings, mode=mode)


def _finite_soft_result(s_expr: SeqExpr) -> SoftnessResult:
    sup = support(s_expr)
    # the indicator of the support, as an ampliation: its size never matters
    t = ampliate(finite([1]), sup) if sup else finite([])
    verdict = Verdict.yes(
        Witness(k=1, m=None, constant=Fraction(1), window=(1, max(sup, 1)), note="finite rank is soft in every ideal")
    )
    return SoftnessResult(verdict=verdict, k=1, m=None, t_witness=t)


def _soft_t_for_compacts(s_expr: SeqExpr, k: int) -> SeqExpr | None:
    """A compact T with s = O((k-ampliation of s) * T), chosen on growth classes.

    The k-ampliation of s itself works when the power/log part allows it;
    the ampliate-then-decimate candidate has rate exponent (k-1)/(2k), which
    keeps the product's rate strictly slower than s and absorbs any
    power/log factors.
    """
    c = profile(s_expr).growth
    amp_k = amp_class(c, k)
    candidates = [ampliate(s_expr, k)]
    if k >= 2:
        candidates.append(decimate(ampliate(s_expr, 4 * k), 2 * k - 2))
    for t in candidates:
        if class_big_o(c, mul_class(amp_k, profile(t).growth)):
            return t
    return None


def _generator_witness(gen: SeqExpr, m: int, damped: bool) -> SeqExpr:
    """The m-fold ampliation of J's generator, log-damped so that it stays in a soft interior."""
    t = ampliate(gen, m)
    return seq_product(t, power_log(0, 1)) if damped else t


def is_soft(
    s_expr: SeqExpr,
    ideal: IdealDesc,
    *,
    settings: Settings = DEFAULT_SETTINGS,
    mode: str = "auto",
) -> SoftnessResult:
    """Is the principal ideal generated by s_expr equal to its product with J?

    Requires S in J.  Write s for its singular values, D_k for k-fold
    ampliation and Sigma(J) for the sequences of J.  (S)J holds exactly the
    sequences O(D_k s * t) with k >= 1 and t in Sigma(J), so (S) = (S)J
    exactly when s = O(D_k s * t) for some such k and t.  A finitely
    supported s is soft in every J (k = 1, t the indicator of its support).

    For s of infinite support with growth class (rho, p, q), that is s_n
    within constant factors of rho^n n^-p log(n+1)^-q,
    the symbolic path decides in closed form (compare the decimation
    criterion of Kaftal-Weiss, Soft ideals and arithmetic mean ideals, IEOT
    58, 2007):

    * rho = 1: never soft.  (D_k s)_n = s_ceil(n/k) and n/ceil(n/k) -> k, so
      s_n / (D_k s)_n stays above a positive constant (about k^-p) for every
      k.  Then s <= C D_k s * t forces t to stay bounded below, so t is not
      null; but every ideal here lies in the compacts, whose sequences are.
    * rho < 1: soft with k = 2.  s_n / (D_2 s)_n is within constant factors
      of rho^(n/2), since the power and log factors at n and n/2 differ by
      bounded factors: the quotient has the class of rho alone, ampliated
      by 2 (``amp_class(rate_class(c), 2)``).  Any t in
      Sigma(J) that dominates it is a witness:
      - J = K(H): t = D_2 s when s = O(D_2 s * D_2 s) on classes (the rates
        tie, so the power/log part decides), otherwise t = D_4 s (written
        dec(2, amp(8, s))), whose product with D_2 s has rate rho^(3/4) >
        rho.  Both are null.
      - J principal-like with generator g: t = D_m g', with g' = g, or
        g * log(n+1)^-1 when J is the soft interior (g)K(H) (then
        D_m g' = o(D_m g) lies in J), and m the least order with the
        quotient class O(D_m g') (``min_ampliation_order``).  It exists: D_m g'
        has rate one, or rate rho_g^(1/m) -> 1, which eventually beats
        rho^(1/2) < 1.

    A Yes carries one certified witness constant, for s against D_2 s * t; a No names
    the rate-one fact and the class of s, and samples nothing.
    With ``mode="numeric"`` the engine instead searches the witness grid of
    the settings (k up to ``grid_k``, m up to ``grid_m``) with sampled
    comparisons.
    """
    red = reduce_ideal(ideal)
    _require_member_reduced(
        s_expr, red, "softness of (S) in J is only defined for S in J; membership verdict", settings, mode
    )
    return _soft_reduced(s_expr, red, settings, mode)


def _soft_reduced(s_expr: SeqExpr, red: IdealDesc, settings: Settings, mode: str) -> SoftnessResult:
    """``is_soft`` for S already known to lie in J, given in reduced form."""
    if support(s_expr) is not None:
        return _finite_soft_result(s_expr)
    # s has infinite support; J = zero or finite rank would have failed membership
    if mode == "numeric":
        from .numeric import sampled_soft  # loaded only for the numeric fallback

        return sampled_soft(s_expr, red, settings)
    c = profile(s_expr).growth
    if c.rate_is_one:
        note = "rate one: s/D_k s stays bounded below for every k, so no null witness exists"
        return SoftnessResult(verdict=Verdict.no(Certificate(note=f"{note}: s has class {render_class(c)}")))
    if isinstance(red, KH):
        m, t = None, _soft_t_for_compacts(s_expr, 2)
    else:
        gen, damped = red.generator, isinstance(red, SoftInterior)
        quotient = Profile(None, amp_class(rate_class(c), 2))
        m = min_ampliation_order(quotient, profile(_generator_witness(gen, 1, damped)), strict=False)
        t = _generator_witness(gen, m, damped)
    constant = certified_constant(s_expr, seq_product(ampliate(s_expr, 2), t), settings)
    note = "rate below one: s/D_2 s decays like the square root of the rate, and a witness in J absorbs it"
    verdict = Verdict.yes(Witness(k=2, m=m, constant=constant, window=(1, settings.window_hi), note=note))
    return SoftnessResult(verdict=verdict, k=2, m=m, t_witness=t)
