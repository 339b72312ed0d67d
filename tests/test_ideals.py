import math
import random
import time
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

import opideals as op
from opideals import compare, ideals, numeric, oracle
from opideals.compare import Settings, big_o
from opideals.growth import amp_class, class_big_o, class_little_o, min_ampliation_order, profile
from opideals.ideals import (
    FH,
    IdealPower,
    IdealProduct,
    IdealSum,
    KH,
    PreconditionError,
    Principal,
    SoftInterior,
    ZeroIdeal,
    ideal_equal,
    is_soft,
    member,
    reduce_ideal,
)

from conftest import random_atom, random_expr, rate_power_cmp

P1 = op.power_log(1)
P2 = op.power_log(2)
P3 = op.power_log(3)
G2 = op.geometric(Fraction(1, 2))


def test_member_power_gap_is_refuted():
    assert member(P2, Principal(P3)).is_no


def test_member_compacts_accepts_everything(rng):
    for _ in range(20):
        assert member(random_atom(rng), KH()).is_yes


def test_member_finite_rank_everywhere():
    v = member(op.finite([3, 1]), Principal(G2))
    assert v.is_yes
    assert member(op.finite([3, 1]), FH()).is_yes
    assert member(P1, FH()).is_no
    assert member(op.finite([1] * 12), Principal(op.finite([2]))).is_yes


def test_member_numeric_finite_supports_match_symbolic():
    eta, ideal = op.finite([5, 4, 3]), Principal(op.finite([2]))
    assert member(eta, ideal).witness.m == 3
    assert member(eta, ideal, mode="numeric").witness.m == 3


def test_member_records_ampliation_witness():
    # (1/2)^n needs a 2-fold ampliation of (1/4)^n before it dominates
    v = member(G2, Principal(op.geometric(Fraction(1, 4))))
    assert v.is_yes
    assert v.witness.m == 2


def test_member_far_ampliation_beyond_default_grid():
    eta = op.geometric(Fraction(99, 100))
    gen = op.geometric(Fraction(1, 100))
    v = member(eta, Principal(gen))
    assert v.is_yes
    assert v.witness.m >= 100  # honest witness, not a grid-truncated refusal


def test_member_near_rate_one_order_is_minimal():
    # (999999/10^6)^m < 1/2 first holds at m = 693147, by a log margin of
    # only -1.7e-7; 40-digit decimal logs confirm the neighbours
    half = Principal(op.geometric(Fraction(1, 2)))
    v = member(op.geometric(Fraction(999999, 10**6)), half)
    assert v.is_yes and v.witness.m == 693147
    with localcontext() as ctx:
        ctx.prec = 40
        rate, log_half = (Decimal(999999) / Decimal(10**6)).ln(), Decimal(1 / 2).ln()
    assert 693146 * rate > log_half > 693147 * rate
    # at 1 - 10^-12, log(num) - log(den) would lose all but three digits
    m = member(op.geometric(1 - Fraction(1, 10**12)), half).witness.m
    with localcontext() as ctx:
        ctx.prec = 50
        rate = (1 - Decimal(1) / Decimal(10**12)).ln()
    assert (m - 1) * rate > log_half > m * rate


def test_member_ampliation_order_is_minimal_across_roots():
    # the generator's class has root 1, the sequence's root 4: (1/4)^(n/4)
    # against ampliations of (1/8)^n, whose rates tie exactly at m = 6
    eta = op.ampliate(op.geometric(Fraction(1, 4)), 4)
    gen = op.decimate(op.geometric(Fraction(1, 2)), 3)
    assert member(eta, Principal(gen)).witness.m == 6
    assert big_o(eta, op.ampliate(gen, 5)).is_no
    assert big_o(eta, op.ampliate(gen, 6)).is_yes


def test_member_huge_ampliation_orders_are_exact_and_quick():
    # orders near 10^15 lie far past any exact power the scan could form
    half, third = Principal(op.geometric(Fraction(1, 2))), Principal(op.geometric(Fraction(1, 3)))
    n = 10**15
    v = member(op.ampliate(op.geometric(Fraction(1, 2)), n), third)
    with localcontext() as ctx:
        ctx.prec = 50
        t = n * Decimal(3).ln() / Decimal(2).ln()
    assert v.is_yes and v.witness.m == math.floor(t) + 1
    # (1/4)^(n/(2*10^15)) and (1/2)^(n/10^15) tie exactly; the tie is found
    # from the reduced exponents, not from the powers themselves
    pa, pg = profile(op.ampliate(op.geometric(Fraction(1, 4)), 2 * n)), profile(half.generator)
    assert min_ampliation_order(pa, pg, strict=False) == n
    assert min_ampliation_order(pa, pg, strict=True) == n + 1
    # a rate within 10^-400 of one: float logs underflow, decimal ones do not
    m = member(op.geometric(1 - Fraction(1, 10**400)), half).witness.m
    with localcontext() as ctx:
        ctx.prec = 1000
        rate, log_half = (1 - Decimal(10) ** -400).ln(), Decimal(1 / 2).ln()
        assert (m - 1) * rate > log_half > m * rate


def test_min_ampliation_order_is_least_by_exact_powers():
    rng = random.Random(0x5EED)
    ratios = [Fraction(1, k) for k in (2, 3, 8)] + [Fraction(2, 3), Fraction(3, 4), Fraction(7, 8)]

    def expr():
        e = op.geometric(rng.choice(ratios))
        if rng.random() < 0.5:
            e = op.seq_product(e, op.power_log(rng.randrange(1, 3)))
        return op.decimate(op.ampliate(e, rng.randrange(1, 5)), rng.randrange(1, 4))

    for _ in range(300):
        strict = rng.random() < 0.5
        pa, pg = profile(expr()), profile(expr())
        a, g = pa.growth, pg.growth
        m = min_ampliation_order(pa, pg, strict)

        def dominated(k):
            sign = rate_power_cmp(a, g, k)
            if sign:
                return sign < 0
            return (class_little_o if strict else class_big_o)(a, amp_class(g, k))

        assert dominated(m) and (m == 1 or not dominated(m - 1)), (a, g, strict, m)


def test_member_zero_ideal():
    zero = Principal(op.finite([0]))
    assert member(op.finite([0]), zero).is_yes
    assert member(op.finite([1]), zero).is_no


def test_reduce_power_of_principal():
    r = reduce_ideal(IdealPower(Principal(P1), 3))
    assert isinstance(r, Principal)
    assert ideal_equal(r, Principal(P3)).is_yes


def test_powers_by_squaring_match_the_linear_chain():
    g = op.seq_product(op.scale(Fraction(3, 2), G2), op.ampliate(op.power_log(Fraction(1, 2), 1), 2))
    ns = (1, 2, 7, 1000, 10**6)
    chain = g
    for n in range(1, 65):
        gen = reduce_ideal(IdealPower(Principal(g), n)).generator
        assert profile(gen) == profile(chain)
        for x, y in zip(op.eval_log_many(gen, ns), op.eval_log_many(chain, ns)):
            assert math.isclose(x, y, rel_tol=1e-12)
        chain = op.seq_product(chain, g)
    square, cube = (reduce_ideal(IdealPower(Principal(g), n)).generator for n in (2, 3))
    assert square.left is g and square.right is g
    assert cube == op.seq_product(op.seq_product(g, g), g) and cube.right is g


def test_huge_powers_reduce_compare_and_hash_at_once():
    start = time.perf_counter()
    a, b = (reduce_ideal(IdealPower(Principal(P1), 2**40)) for _ in range(2))
    assert a is not b and a == b and hash(a) == hash(b)
    assert profile(a.generator).growth.power == 2**40
    assert time.perf_counter() - start < 0.1
    with pytest.raises(ValueError, match="characters"):
        op.render_ideal(a)
    # prin( and ), 2^40 times pow(1), and 2^40 - 1 times prod( , and )
    assert repr(a) == f"Principal(<{6 + 6 * 2**40 + 7 * (2**40 - 1)} characters>)"


def test_reduce_product_commutes_up_to_membership(rng):
    for _ in range(20):
        a, b = random_atom(rng), random_atom(rng)
        lhs = reduce_ideal(IdealProduct(Principal(a), Principal(b)))
        rhs = reduce_ideal(IdealProduct(Principal(b), Principal(a)))
        assert ideal_equal(lhs, rhs).is_yes


def test_reduce_is_idempotent(rng):
    for _ in range(20):
        desc = IdealProduct(
            Principal(random_atom(rng)),
            IdealSum(Principal(random_atom(rng)), KH() if rng.random() < 0.3 else Principal(random_atom(rng))),
        )
        once = reduce_ideal(desc)
        assert reduce_ideal(once) == once


def test_reduce_fixed_points():
    assert reduce_ideal(Principal(P1)) == Principal(P1)
    assert reduce_ideal(KH()) == KH()
    assert reduce_ideal(FH()) == FH()


def test_reduce_product_with_compacts_is_soft_interior():
    r = reduce_ideal(IdealProduct(Principal(P1), KH()))
    assert r == SoftInterior(P1)
    assert reduce_ideal(IdealProduct(KH(), KH())) == KH()
    assert reduce_ideal(IdealProduct(FH(), Principal(P1))) == FH()
    assert reduce_ideal(IdealProduct(Principal(op.finite([1])), KH())) == FH()


def test_reduce_mixed_sum_collapses():
    # (geo) + (pow1)K(H): the soft interior of the slower class swallows the geometric
    r = reduce_ideal(IdealSum(Principal(G2), IdealProduct(Principal(P1), KH())))
    assert r == SoftInterior(P1)
    # (pow1) + (pow1)K(H) collapses onto the principal side
    r2 = reduce_ideal(IdealSum(Principal(P1), IdealProduct(Principal(P1), KH())))
    assert r2 == Principal(P1)


def test_semiring_laws_on_membership(rng):
    probes = [P1, P2, G2, op.finite([2, 1])]
    for _ in range(30):
        i, j, k = (Principal(random_atom(rng)) for _ in range(3))
        comm_l = reduce_ideal(IdealProduct(i, j))
        comm_r = reduce_ideal(IdealProduct(j, i))
        assoc_l = reduce_ideal(IdealProduct(i, IdealProduct(j, k)))
        assoc_r = reduce_ideal(IdealProduct(IdealProduct(i, j), k))
        dist_l = reduce_ideal(IdealProduct(i, IdealSum(j, k)))
        dist_r = reduce_ideal(IdealSum(IdealProduct(i, j), IdealProduct(i, k)))
        for x in probes:
            assert member(x, comm_l).outcome == member(x, comm_r).outcome
            assert member(x, assoc_l).outcome == member(x, assoc_r).outcome
            assert member(x, dist_l).outcome == member(x, dist_r).outcome


def test_soft_geometric_in_compacts():
    res = is_soft(G2, KH())
    assert res.verdict.is_yes
    assert res.k == 2
    assert res.t_witness is not None
    assert member(res.t_witness, KH()).is_yes


def test_soft_harmonic_in_compacts_fails():
    res = is_soft(P1, KH())
    assert res.verdict.is_no
    assert res.verdict.certificate is not None


def test_soft_finite_rank_everywhere():
    for ideal in (KH(), FH(), Principal(G2), Principal(P1)):
        res = is_soft(op.finite([1]), ideal)
        assert res.verdict.is_yes
        assert member(res.t_witness, ideal).is_yes


def test_soft_requires_membership():
    with pytest.raises(PreconditionError):
        is_soft(P1, Principal(G2))


def test_soft_verdict_matches_soft_interior_membership(rng):
    # the product formulation (S) = (S)J and the little-o formulation agree
    for _ in range(25):
        s = random_atom(rng)
        left = is_soft(s, KH()).verdict
        right = member(s, IdealProduct(Principal(s), KH()))
        assert left.outcome == right.outcome


def test_softness_monotone_under_larger_ideal(rng):
    # J = (gen) inside J' = KH: softness can only improve
    for _ in range(20):
        gen = random_atom(rng)
        s = op.seq_product(gen, random_atom(rng))
        if not member(s, Principal(gen)).is_yes:
            continue
        if is_soft(s, Principal(gen)).verdict.is_yes:
            assert is_soft(s, KH()).verdict.is_yes


def test_soft_witness_structure_principal_case():
    res = is_soft(G2, Principal(G2))
    assert res.verdict.is_yes
    assert res.k is not None and res.m is not None
    assert member(res.t_witness, Principal(G2)).is_yes
    # a power-log generator is never soft relative to a power-log ideal
    res2 = is_soft(P2, Principal(P1))
    assert res2.verdict.is_no


def test_soft_geometric_inside_harmonic_principal():
    res = is_soft(G2, Principal(P1))
    assert res.verdict.is_yes
    assert member(res.t_witness, Principal(P1)).is_yes


def test_soft_in_soft_interior_ideal():
    j = IdealProduct(Principal(P1), KH())
    res = is_soft(G2, j)
    assert res.verdict.is_yes
    assert member(res.t_witness, j).is_yes


def test_ideal_equal_basics():
    assert ideal_equal(Principal(P1), Principal(P1)).is_yes
    assert ideal_equal(KH(), KH()).is_yes
    assert ideal_equal(FH(), KH()).is_no
    assert ideal_equal(Principal(op.finite([7, 1])), FH()).is_yes
    assert ideal_equal(Principal(P1), KH()).is_no


def test_ideal_equal_soft_interior_split():
    soft = IdealProduct(Principal(P1), KH())
    v = ideal_equal(Principal(P1), soft)
    assert v.is_no
    assert "included" in v.certificate.note
    assert ideal_equal(Principal(G2), IdealProduct(Principal(G2), KH())).is_yes


def test_ideal_equal_ampliation_invariance():
    assert ideal_equal(Principal(P1), Principal(op.ampliate(P1, 5))).is_yes
    assert ideal_equal(Principal(G2), Principal(op.geometric(Fraction(1, 4)))).is_yes
    assert ideal_equal(Principal(G2), Principal(P1)).is_no


def test_finite_rank_minimality(rng):
    for _ in range(15):
        ideal = Principal(random_atom(rng))
        assert member(op.finite([5, 3, 1]), ideal).is_yes
    assert member(op.finite([5]), ZeroIdeal()).is_no


def test_softness_monotone_on_geometric_family():
    # (S) soft in (gen) and gen in J' forces softness in J' as well
    for r, u in ((Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 4), Fraction(1, 2))):
        gen = op.geometric(r)
        s = op.geometric(r * u)
        assert member(s, Principal(gen)).is_yes
        assert is_soft(s, Principal(gen)).verdict.is_yes
        for bigger in (KH(), Principal(op.power_log(1))):
            assert member(gen, bigger).is_yes
            assert is_soft(s, bigger).verdict.is_yes


def test_member_with_max_combinator():
    eta = op.seq_max(G2, P3)
    assert member(eta, Principal(P2)).is_yes
    assert member(eta, Principal(op.power_log(4))).is_no


def test_witness_orders_at_exact_rate_ties():
    quarter = op.geometric(Fraction(1, 4))
    # (1/2)^n against ampliations of (1/4)^n: rates tie exactly at m = 2
    v = member(G2, Principal(quarter))
    assert v.is_yes and v.witness.m == 2
    # the little-o form needs one more ampliation step past the tie
    v2 = member(G2, SoftInterior(quarter))
    assert v2.is_yes and v2.witness.m == 3
    # a decaying polynomial factor resolves the tie without the extra step
    damped = op.seq_product(G2, op.power_log(1))
    v3 = member(damped, SoftInterior(quarter))
    assert v3.is_yes and v3.witness.m == 2


def test_soft_rates_near_one_need_orders_past_the_grid():
    # the witness order m exceeds the 32x32 grid; the closed form finds it
    for s, g, m in (("49/50", "1/2", 69), ("99/100", "1/1000", 1375)):
        res = is_soft(op.geometric(Fraction(s)), Principal(op.geometric(Fraction(g))))
        assert res.verdict.is_yes and (res.k, res.m) == (2, m)
        assert res.t_witness == op.ampliate(op.geometric(Fraction(g)), m)
        assert member(res.t_witness, Principal(op.geometric(Fraction(g)))).is_yes


def test_soft_rate_within_a_billionth_of_one():
    start = time.perf_counter()
    s = op.geometric(Fraction(999999999, 10**9))
    res = is_soft(s, Principal(G2))
    # the witness product's class merges exponents, so it is profiled at once
    v = big_o(s, op.seq_product(op.ampliate(s, 2), res.t_witness))
    elapsed = time.perf_counter() - start
    assert res.verdict.is_yes and (res.k, res.m) == (2, 1386294361)
    assert v.is_yes and v.witness.constant == res.verdict.witness.constant
    assert elapsed < 0.1


def test_soft_huge_finite_support_answers_at_once():
    s = op.ampliate(op.finite([1]), 10**12)
    start = time.perf_counter()
    for ideal in (KH(), Principal(G2)):
        res = is_soft(s, ideal)
        assert res.verdict.is_yes and res.k == 1
        assert res.t_witness == s
    assert time.perf_counter() - start < 0.1


def _soft_corpus(rng, count):
    """S in J, with J cycling through the compacts, principal, soft-interior and power ideals."""
    out = []
    while len(out) < count:
        kind = len(out) % 4
        gen = random_expr(rng, 1)
        ideal = (KH(), Principal(gen), IdealProduct(Principal(gen), KH()), IdealPower(Principal(gen), 2))[kind]
        s = random_expr(rng, 2)
        if kind and rng.random() < 0.5:
            s = op.seq_product(op.ampliate(gen, rng.randrange(1, 4)), s)
        if member(s, ideal).is_yes:
            out.append((s, ideal))
    return out


def test_symbolic_softness_does_not_depend_on_the_grid(rng):
    tiny = Settings(grid_k=1, grid_m=1)
    verdicts = set()
    for s, ideal in _soft_corpus(rng, 80):
        res = is_soft(s, ideal)
        assert is_soft(s, ideal, settings=tiny) == res
        verdicts.add(res.verdict.outcome)
    assert len(verdicts) == 2


def test_every_soft_yes_carries_a_checked_witness(rng):
    yes = 0
    for s, ideal in _soft_corpus(rng, 80):
        res = is_soft(s, ideal)
        if not res.verdict.is_yes:
            continue
        yes += 1
        assert big_o(s, op.seq_product(op.ampliate(s, res.k), res.t_witness)).is_yes
        assert member(res.t_witness, ideal).is_yes
        if yes % 4 == 1:
            rep = oracle.verify_softness_witness(s, res, n_max=10**4)
            assert rep.passed, (op.render_seq(s), rep.detail)
    assert yes >= 20


def _count_constants(monkeypatch) -> list:
    """Count certified witness constants; a sampled one fails the test."""
    calls = []
    certified = compare.certified_constant

    def counting(a, b, settings):
        calls.append(a)
        return certified(a, b, settings)

    def sampled(a, b, settings):
        raise AssertionError("the symbolic path sampled a witness constant")

    for module in (compare, ideals):
        monkeypatch.setattr(module, "certified_constant", counting)
    monkeypatch.setattr(numeric, "observed_constant", sampled)  # the one caller of a sampled constant is there
    return calls


def test_softness_samples_one_constant_per_yes_and_none_per_no(monkeypatch):
    calls = _count_constants(monkeypatch)
    for s, ideal, yes in ((G2, Principal(P1), True), (G2, KH(), True), (P2, Principal(P1), False),
                          (P1, KH(), False), (op.geometric(Fraction(1, 3)), IdealProduct(Principal(G2), KH()), True)):
        calls.clear()
        res = op.classify_principal(s, ideal)
        assert res.softness.verdict.is_yes is yes
        if yes:
            assert len(calls) == 1
        calls.clear()
        is_soft(s, ideal)
        assert len(calls) == (1 if yes else 0)


def test_ideal_equal_samples_no_constant(monkeypatch, rng):
    calls = _count_constants(monkeypatch)
    soft = IdealProduct(Principal(G2), KH())
    v = ideal_equal(Principal(G2), soft)
    assert v.is_yes and v.witness.note == "mutual inclusion of reduced generators"
    v = ideal_equal(Principal(P1), IdealProduct(Principal(P1), KH()))
    assert v.is_no and v.certificate.note.startswith("left not included in right: ")
    assert ideal_equal(Principal(op.ampliate(G2, 3)), Principal(G2)).is_yes
    assert calls == []
    # the outcome is still that of the two memberships
    for _ in range(40):
        a, b = random_expr(rng), random_expr(rng)
        want = member(a, Principal(b)).is_yes and member(b, Principal(a)).is_yes
        assert ideal_equal(Principal(a), Principal(b)).is_yes is want


def test_preconditions_keep_their_messages():
    with pytest.raises(PreconditionError, match="only defined for S in J; membership verdict was no"):
        is_soft(P1, Principal(G2))
    with pytest.raises(PreconditionError, match="classification needs S in J; membership verdict was no"):
        op.classify_principal(P1, Principal(G2))
    with pytest.raises(PreconditionError, match="a membership verdict was no"):
        op.classify_finitely_generated([G2, P1], Principal(G2))
    with pytest.raises(PreconditionError, match="the chain probe needs S in J; membership verdict was no"):
        op.probe_chain_link(P1, Principal(G2))
    with pytest.raises(PreconditionError, match="product ideal; verdict was no"):
        oracle.verify_product_split(P1, Principal(P1), Principal(P1), n_max=100)


def test_ideal_equal_no_names_a_compact_sequence_outside_the_generator(rng):
    """The No of ideal_equal(KH, J) names a sequence in K(H) that lies outside (g)."""
    gens = [random_expr(rng) for _ in range(150)]
    # log-type generators (power zero), which the random corpus never draws
    gens += [op.power_log(0, q) for q in (Fraction(1, 2), Fraction(1), Fraction(3))]
    gens += [op.seq_product(op.power_log(0, 1), op.power_log(0, 2)), op.ampliate(op.power_log(0, 1), 3)]
    checked = 0
    for g in gens:
        for ideal in (Principal(g), IdealProduct(Principal(g), KH())):
            red = reduce_ideal(ideal)
            if not isinstance(red, (Principal, SoftInterior)):
                continue
            v = ideal_equal(KH(), ideal)
            assert v.is_no
            named = v.certificate.note.partition("compact sequence ")[2].partition(" escapes every ampliation")[0]
            sep = op.parse_seq(named)
            assert sep == ideals._strictly_slower_seq(red.generator)
            assert member(sep, KH()).is_yes
            assert member(sep, Principal(red.generator)).is_no, (op.render_seq(g), named)
            checked += 1
    assert checked > 200
