from fractions import Fraction

import pytest

import opideals as op
from opideals.compare import Outcome, Settings, Verdict, Witness, big_o, little_o

from conftest import random_atom, random_expr


def test_power_exponent_rule_direction():
    # 1/n^3 is dominated by 1/n^2, not the other way around
    assert big_o(op.power_log(3), op.power_log(2)).is_yes
    assert big_o(op.power_log(2), op.power_log(3)).is_no


def test_ampliation_cannot_rescue_a_power_gap():
    a = op.power_log(2)
    for m in (1, 2, 3, 8, 32):
        v = big_o(a, op.ampliate(op.power_log(3), m))
        assert v.is_no, m


def test_geometric_beats_any_power():
    assert big_o(op.geometric(Fraction(1, 2)), op.power_log(100)).is_yes
    assert big_o(op.power_log(100), op.geometric(Fraction(1, 2))).is_no


def test_log_refinement_rules():
    base = op.power_log(1)
    finer = op.power_log(1, 1)
    assert big_o(finer, base).is_yes
    assert big_o(base, finer).is_no
    assert little_o(finer, base).is_yes
    assert little_o(base, base).is_no


def test_little_o_of_decimated_geometric():
    g = op.geometric(Fraction(1, 2))
    v = little_o(op.decimate(g, 2), g)
    assert v.is_yes
    assert v.witness is not None


def test_little_o_decimated_harmonic_fails_every_step():
    p = op.power_log(1)
    for k in (2, 3, 5, 11):
        assert little_o(op.decimate(p, k), p).is_no


def test_little_o_irreflexive_on_nonzero(rng):
    for _ in range(25):
        e = random_expr(rng, depth=2)
        if op.support(e) == 0:
            continue
        assert little_o(e, e).is_no


def test_big_o_reflexive_and_transitive(rng):
    exprs = [random_expr(rng, depth=2) for _ in range(12)]
    for e in exprs:
        assert big_o(e, e).is_yes
    for a in exprs:
        for b in exprs:
            for c in exprs:
                if big_o(a, b).is_yes and big_o(b, c).is_yes:
                    assert big_o(a, c).is_yes


def test_little_o_implies_big_o(rng):
    for _ in range(60):
        a, b = random_expr(rng, depth=2), random_expr(rng, depth=2)
        if little_o(a, b).is_yes:
            assert big_o(a, b).is_yes


def test_symbolic_never_unknown(rng):
    for _ in range(80):
        a, b = random_expr(rng, depth=3), random_expr(rng, depth=3)
        assert not big_o(a, b).is_unknown
        assert not little_o(a, b).is_unknown


def test_symbolic_numeric_agreement(rng):
    disagreements = []
    for _ in range(100):
        a, b = random_atom(rng), random_atom(rng)
        for sym, num in (
            (big_o(a, b), big_o(a, b, mode="numeric")),
            (little_o(a, b), little_o(a, b, mode="numeric")),
        ):
            if not num.is_unknown and num.outcome != sym.outcome:
                disagreements.append((op.render_seq(a), op.render_seq(b), sym.outcome, num.outcome))
    assert not disagreements, disagreements


def test_eventually_zero_right_side_is_refuted():
    v = big_o(op.power_log(1), op.finite([5, 1]))
    assert v.is_no
    v2 = big_o(op.finite([5, 1]), op.power_log(1))
    assert v2.is_yes


def test_zero_left_side_always_dominated():
    zero = op.finite([0])
    assert big_o(zero, op.finite([1])).is_yes
    assert little_o(zero, zero).is_yes


def test_verdict_invariants():
    with pytest.raises(ValueError):
        Verdict(Outcome.YES)
    with pytest.raises(ValueError):
        Verdict(Outcome.NO)
    with pytest.raises(ValueError):
        Verdict(Outcome.UNKNOWN)
    v = Verdict.yes(Witness(constant=Fraction(2)))
    assert v.is_yes and v.witness.constant == 2


def test_numeric_mode_decides_finite_supports_exactly():
    # the sampled window starts past both supports, where it would only see 0/0
    a, b = op.finite([5, 4, 3]), op.finite([2])
    assert big_o(a, b).is_no
    assert big_o(a, b, mode="numeric").is_no
    assert big_o(b, a, mode="numeric") == big_o(b, a)
    assert little_o(b, a, mode="numeric").is_no


def test_numeric_unknown_on_log_gap():
    # a log-order gap cannot cross the divergence threshold inside the window
    v = big_o(op.power_log(1), op.power_log(1, 1), mode="numeric")
    assert v.is_unknown


def test_numeric_window_is_configurable():
    tight = Settings(window_lo=4, window_hi=256, sample_count=16)
    v = big_o(op.power_log(1), op.power_log(2), mode="numeric", settings=tight)
    assert v.is_unknown  # too short a window to witness divergence
    wide = Settings(window_lo=16, window_hi=1 << 21, sample_count=64)
    assert big_o(op.power_log(1), op.power_log(2), mode="numeric", settings=wide).is_no


def test_witness_constant_covers_observed_ratio():
    a, b = op.power_log(1), op.power_log(1)
    v = big_o(a, op.scale(Fraction(1, 3), b))
    assert v.is_yes
    # ratio is identically 3; the recorded constant is twice the supremum
    assert v.witness.constant >= 6


def test_operations_are_pure_under_concurrency(rng):
    # expressions are immutable and comparisons deterministic, so parallel
    # evaluation must reproduce the serial verdicts exactly
    from concurrent.futures import ThreadPoolExecutor

    pairs = [(random_expr(rng, 2), random_expr(rng, 2)) for _ in range(24)]
    serial = [(big_o(a, b).outcome, little_o(a, b).outcome) for a, b in pairs]
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(lambda ab: (big_o(*ab).outcome, little_o(*ab).outcome), pairs))
    assert parallel == serial


def test_numeric_mode_decides_a_short_finite_left_side_exactly():
    # the window starts at index 16, past the support of fin(1000), where it
    # would sample only zeros; a_1/b_1 = 1000
    v = big_o(op.finite([1000]), op.power_log(1), mode="numeric")
    assert v.is_yes and v.witness.constant >= 1000
    assert v == big_o(op.finite([1000]), op.power_log(1))
    assert little_o(op.finite([1000]), op.power_log(1), mode="numeric").is_yes
