from fractions import Fraction

import pytest

import opideals as op
from opideals.classify import (
    CHAIN_POSITIONS,
    classify_finitely_generated,
    classify_principal,
    nonlinearity_witness,
    probe_chain_link,
    two_generator_principality,
)
from opideals.ideals import (
    IdealProduct,
    KH,
    PreconditionError,
    Principal,
    ideal_equal,
    member,
)

from conftest import random_atom

P1 = op.power_log(1)
G2 = op.geometric(Fraction(1, 2))


def chain_relations(report):
    return [link.relation for link in report.chain]


def test_collapse_for_geometric_generator():
    rep = classify_principal(G2, KH())
    assert rep.is_bh_ideal.is_yes
    assert ideal_equal(rep.collapse_target, Principal(G2)).is_yes
    assert chain_relations(rep) == ["equal"] * 5


def test_strict_chain_for_harmonic_generator():
    rep = classify_principal(P1, KH())
    assert rep.is_bh_ideal.is_no
    assert rep.collapse_target is None
    # the compacts are idempotent, so the innermost link still closes
    assert chain_relations(rep) == ["equal", "strict", "strict", "strict", "strict"]


def test_finite_generator_collapses_to_finite_rank():
    rep = classify_principal(op.finite([1, 1]), KH())
    assert rep.is_bh_ideal.is_yes
    assert op.render_ideal(rep.collapse_target) == "FH"


def test_report_coherence_on_random_corpus(rng):
    for _ in range(50):
        s = random_atom(rng)
        rep = classify_principal(s, KH())
        soft = rep.softness.verdict
        assert rep.is_bh_ideal.outcome == soft.outcome
        last_four = chain_relations(rep)[1:]
        if soft.is_yes:
            assert chain_relations(rep) == ["equal"] * 5
            assert rep.collapse_target is not None
        elif soft.is_no:
            assert last_four == ["strict"] * 4
            assert rep.collapse_target is None


def test_chain_positions_are_labelled():
    assert CHAIN_POSITIONS[0] == "J(S)J"
    assert CHAIN_POSITIONS[-1] == "(S)"


def test_requires_membership():
    with pytest.raises(PreconditionError):
        classify_principal(P1, Principal(G2))


def test_finitely_generated_interleaved_harmonic():
    rep = classify_finitely_generated([P1, P1], KH())
    assert rep.is_bh_ideal.is_no
    assert rep.generators == (P1, P1)


def test_finitely_generated_geometric_pair():
    rep = classify_finitely_generated([G2, op.geometric(Fraction(1, 4))], KH())
    assert rep.is_bh_ideal.is_yes
    assert ideal_equal(rep.collapse_target, Principal(G2)).is_yes


def test_finitely_generated_singleton_matches_principal(rng):
    for _ in range(20):
        s = random_atom(rng)
        a = classify_finitely_generated([s], KH())
        b = classify_principal(s, KH())
        assert a.is_bh_ideal.outcome == b.is_bh_ideal.outcome
        assert chain_relations(a) == chain_relations(b)
        assert a.generators == b.generators


def test_two_generator_principality_cases():
    assert two_generator_principality(P1, P1, KH()).is_no
    assert two_generator_principality(G2, G2, KH()).is_yes
    fin = op.finite([2, 1])
    softened = IdealProduct(Principal(fin), KH())
    assert two_generator_principality(fin, op.scale(2, fin), softened).is_yes


def test_two_generator_preconditions():
    with pytest.raises(PreconditionError):
        two_generator_principality(P1, G2, KH())  # sequences not equivalent
    with pytest.raises(PreconditionError):
        two_generator_principality(P1, P1, KH(), disjoint_supports=False)


def test_probe_chain_link_strict_witness():
    v = probe_chain_link(P1, Principal(P1))
    assert v.is_no
    assert "witness" in v.certificate.note


def test_probe_chain_link_idempotent_cases():
    assert probe_chain_link(P1, KH()).is_yes
    assert probe_chain_link(G2, KH()).is_yes
    # geometric principal ideals are idempotent under ampliation invariance
    assert probe_chain_link(G2, Principal(G2)).is_yes


def test_probe_chain_link_soft_interior_strict():
    j = IdealProduct(Principal(P1), KH())
    s = op.power_log(2)  # a genuine member of (1/n)K(H)
    v = probe_chain_link(s, j)
    assert v.is_no  # J is not idempotent (its generator has rate one) and S is not soft, so the link is strict


def test_nonlinearity_witness_cases():
    assert nonlinearity_witness(P1, KH()).is_yes
    assert nonlinearity_witness(G2, KH()).is_no
    assert nonlinearity_witness(op.finite([1]), KH()).is_no


def test_odd_index_class_escapes_softened_harmonic():
    # the sequence 1/(2n) is equivalent to 1/(2n-1); neither lies in (1/n)K(H)
    half = op.decimate(P1, 2)
    v = member(half, IdealProduct(Principal(P1), KH()))
    assert v.is_no


def test_unknown_softness_leaves_chain_open():
    # log-only classes drift too slowly for the sampled window to decide
    s = op.power_log(0, 2)
    j = Principal(op.power_log(0, 1))
    rep = classify_principal(s, j, mode="numeric")
    assert rep.is_bh_ideal.is_unknown
    assert [link.relation for link in rep.chain] == ["unknown"] * 5
    assert rep.collapse_target is None
    # the exact path settles the same question
    assert classify_principal(s, j).is_bh_ideal.is_no


def test_classification_over_composite_ambient_ideal():
    j = IdealProduct(Principal(P1), KH())
    rep = classify_principal(op.power_log(2), j)
    assert rep.is_bh_ideal.is_no
    assert [link.relation for link in rep.chain] == ["strict"] * 5
    rep2 = classify_principal(G2, j)
    assert rep2.is_bh_ideal.is_yes
    assert [link.relation for link in rep2.chain] == ["equal"] * 5


def test_numeric_mode_through_high_level_operations():
    rep = classify_finitely_generated([G2, op.geometric(Fraction(1, 4))], KH(), mode="numeric")
    assert rep.is_bh_ideal.is_yes
    assert ideal_equal(
        Principal(G2), Principal(op.geometric(Fraction(1, 4))), mode="numeric"
    ).is_yes
    assert two_generator_principality(P1, P1, KH(), mode="numeric").is_no


def test_each_question_reduces_j_and_checks_s_once(monkeypatch):
    from opideals import classify, ideals

    reduced, checked = [], []
    reduce_ideal, member_order = ideals.reduce_ideal, ideals._member_order

    def counting_reduce(desc):
        reduced.append(desc)
        return reduce_ideal(desc)

    def counting_order(eta, red):
        checked.append(eta)
        return member_order(eta, red)

    monkeypatch.setattr(ideals, "reduce_ideal", counting_reduce)
    monkeypatch.setattr(classify, "reduce_ideal", counting_reduce)
    monkeypatch.setattr(ideals, "_member_order", counting_order)
    # non-soft S (so the probe runs too) and a soft one; J reduced or not, S never J's generator itself
    cases = ((op.power_log(2), Principal(P1)), (op.power_log(1), KH()),
             (op.power_log(2), IdealProduct(Principal(P1), KH())), (op.geometric(Fraction(1, 3)), Principal(P1)),
             (op.power_log(3), IdealProduct(Principal(op.power_log(1)), Principal(op.power_log(1)))))
    for question in (classify_principal, op.is_soft, probe_chain_link):
        for s, ideal in cases:
            reduced.clear()
            checked.clear()
            question(s, ideal)
            assert sum(desc is ideal for desc in reduced) == 1, (question.__name__, s, ideal)
            assert sum(eta is s for eta in checked) == 1, (question.__name__, s, ideal)


def test_s_outside_j_keeps_its_messages_in_both_modes():
    outside = {"auto": [(P1, Principal(G2), "no"), (P1, op.FH(), "no"), (P1, op.ZeroIdeal(), "no")],
               "numeric": [(P1, Principal(G2), "no"), (P1, op.FH(), "no"), (P1, op.ZeroIdeal(), "no"),
                           (op.power_log(1, 1), IdealProduct(Principal(P1), KH()), "unknown")]}
    questions = ((classify_principal, "classification needs S in J; membership verdict"),
                 (op.is_soft, "softness of (S) in J is only defined for S in J; membership verdict"),
                 (probe_chain_link, "the chain probe needs S in J; membership verdict"))
    for mode, cases in outside.items():
        for s, ideal, outcome in cases:
            for question, what in questions:
                with pytest.raises(PreconditionError) as info:
                    question(s, ideal, mode=mode)
                assert str(info.value) == f"{what} was {outcome}"
