import math
import time
from fractions import Fraction
from pathlib import Path

import pytest

import opideals as op
from opideals.compare import (
    DEFAULT_SETTINGS,
    Outcome,
    Settings,
    Verdict,
    Witness,
    big_o,
    little_o,
    observed_supremum,
    sample_indices,
)
from opideals.envelope import log_sup_ratio
from opideals.growth import GrowthClass, profile, rate_cmp

from conftest import random_atom, random_expr, rate_power_cmp


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


# ---------------------------------------------------------------------------
# certified witness constants

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "compare_reference.tsv"
DENSE = tuple(range(1, 4097)) + tuple(sample_indices(4096, 1 << 40, 256))


def reference_pairs():
    """The sympy-settled pairs of the benchmark, oriented so that lim a/b is finite."""
    for line in REFERENCE.read_text().splitlines():
        a_text, b_text, cls = line.split("\t")
        a, b = op.parse_seq(a_text), op.parse_seq(b_text)
        yield (b, a) if cls == "infinite" else (a, b)


def dense_log_sup(a, b) -> float:
    """max of log(a_n/b_n) over 1..4096 and 256 geometric indices up to 2^40.

    Less the scan's own rounding error: at n = 2^40 a log is about 10^12.
    """
    la, lb = op.eval_log_many(a, DENSE), op.eval_log_many(b, DENSE)
    return max((x - y - 1e-12 * (abs(x) + abs(y)) for x, y in zip(la, lb) if x > -math.inf), default=-math.inf)


def assert_certified(a, b) -> float:
    """The certified log sup is at least the sampled one and a dense scan; returns the scan."""
    bound, dense = log_sup_ratio(a, b), dense_log_sup(a, b)
    sampled = observed_supremum(a, b, DEFAULT_SETTINGS)
    assert bound >= (math.log(sampled) if sampled else -math.inf), (op.render_seq(a), op.render_seq(b))
    assert bound >= dense - 1e-9, (op.render_seq(a), op.render_seq(b))
    return dense


def test_certified_constant_is_a_bound_where_sampling_fell_short():
    # the sampled constant was about 0.00385, while a_n/b_n tends to 1
    a, b = op.power_log(1), op.parse_seq("sum(pow(1),scale(1000,pow(1,1/4)))")
    v = big_o(a, b)
    assert v.is_yes and v.witness.constant >= 1
    assert v.witness.constant <= 2 * (1 + 1e-6)


def test_certified_constants_cover_the_reference_pairs_and_a_dense_scan():
    pairs = list(reference_pairs())
    assert len(pairs) == 673
    for i, (a, b) in enumerate(pairs):
        dense = assert_certified(a, b)
        v = big_o(a, b)
        assert v.is_yes and math.log(v.witness.constant) >= math.log(2) + dense - 1e-9
        if i % 4 == 0:
            w = op.member(a, op.Principal(b)).witness
            assert_certified(a, op.ampliate(b, w.m))


def test_certified_constants_cover_the_random_corpus(rng):
    checked = 0
    for _ in range(300):
        a, b = random_expr(rng), random_expr(rng)
        for x, y in ((a, b), (b, a)):
            if big_o(x, y).is_yes:
                assert_certified(x, y)
                checked += 1
    assert checked >= 250


def test_symbolic_constants_ignore_the_window(rng):
    short = Settings(window_hi=2**10)

    def constant(v):
        return v.witness.constant if v.is_yes else v.outcome

    s = op.geometric(Fraction(1, 2))
    for _ in range(60):
        a, b = random_expr(rng), random_expr(rng)
        assert constant(big_o(a, b, settings=short)) == constant(big_o(a, b))
        assert constant(little_o(a, b, settings=short)) == constant(little_o(a, b))
        ideal = op.Principal(b)
        assert constant(op.member(a, ideal, settings=short)) == constant(op.member(a, ideal))
        if op.support(b) is None and op.member(s, ideal).is_yes:
            assert constant(op.is_soft(s, ideal, settings=short).verdict) == constant(op.is_soft(s, ideal).verdict)


def test_finite_supports_are_compared_by_piece():
    for n in (10**8, 10**12):
        start = time.perf_counter()
        v = big_o(op.ampliate(op.finite([1]), n), op.ampliate(op.finite([2]), n))
        w = big_o(op.ampliate(op.finite([3, 1]), n), op.power_log(1))
        assert time.perf_counter() - start < 0.1
        assert v.is_yes and 1 <= v.witness.constant <= 1 + 1e-6
        # sup is 3 / b(n) at the end of the first piece
        assert w.is_yes and 6 * n <= w.witness.constant <= 6 * n * (1 + 1e-6)
        assert big_o(op.ampliate(op.finite([2]), n + 1), op.ampliate(op.finite([2]), n)).is_no


def test_finite_piece_constants_are_exact(rng):
    checked = 0
    for _ in range(400):
        a, b = random_expr(rng), random_expr(rng)
        sa, sb = op.support(a), op.support(b)
        if sa is None or not sa or (sb is not None and sb < sa):
            continue
        n_max = sa
        want = max(float(op.evaluate(a, n)) / float(op.evaluate(b, n)) for n in range(1, n_max + 1))
        got = float(big_o(a, b).witness.constant) / 2
        assert want * (1 - 1e-9) <= got, (op.render_seq(a), op.render_seq(b))
        if sb is not None:  # both piecewise constant: the pieces give the maximum itself
            assert got <= want * (1 + 1e-6), (op.render_seq(a), op.render_seq(b))
        checked += 1
    assert checked >= 20


def old_rate_cmp(a: GrowthClass, b: GrowthClass) -> int:
    """The exact cross-power comparison that ``rate_cmp`` replaced."""
    return rate_power_cmp(a, b)


def test_rate_cmp_matches_cross_powers_on_small_orders(rng):
    classes = []
    for _ in range(200):
        e = random_expr(rng)
        if op.support(e) is None:
            classes.append(profile(e).growth)
        classes.append(profile(op.ampliate(op.geometric(Fraction(1, 2)), rng.randrange(1, 9))).growth)
        classes.append(profile(op.decimate(op.geometric(Fraction(1, 4)), rng.randrange(1, 5))).growth)
    ties = 0
    for _ in range(3000):
        a, b = rng.choice(classes), rng.choice(classes)
        assert rate_cmp(a, b) == old_rate_cmp(a, b), (a, b)
        ties += rate_cmp(a, b) == 0 and bool(a.rate)
    assert ties >= 20


def test_rate_cmp_answers_huge_orders_at_once():
    start = time.perf_counter()
    third, half = op.geometric(Fraction(1, 3)), op.geometric(Fraction(1, 2))
    assert big_o(op.ampliate(third, 10**15), half).is_no
    assert big_o(half, op.ampliate(third, 10**15)).is_yes
    # (1/4)^(1/(2*10^15)) and (1/2)^(1/10^15) tie exactly
    tie = profile(op.ampliate(op.geometric(Fraction(1, 4)), 2 * 10**15)).growth
    assert rate_cmp(tie, profile(op.ampliate(half, 10**15)).growth) == 0
    assert time.perf_counter() - start < 0.1


def test_huge_orders_profile_at_once():
    start = time.perf_counter()
    assert profile(op.parse_seq("dec(100000000,geo(1/3))")).growth.rate == ((Fraction(1, 3), Fraction(10**8)),)
    prod = op.parse_seq("prod(amp(2,geo(999/1000)),amp(1000001,geo(1/2)))")
    half = op.geometric(Fraction(1, 2))
    assert profile(prod).support is None
    assert big_o(prod, half).is_no and big_o(half, prod).is_yes
    assert time.perf_counter() - start < 0.1


def test_softness_after_membership_reuses_the_decimal_logs_of_a_rate_near_one():
    near_one, ideal = op.geometric(1 - Fraction(1, 10**400)), op.Principal(op.geometric(Fraction(1, 2)))
    assert op.member(near_one, ideal).is_yes
    start = time.perf_counter()
    assert op.is_soft(near_one, ideal).verdict.is_yes
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize(
    "left,right",
    [
        ("prod(geo(1/2),geo(1/3))", "geo(1/6)"),
        ("prod(geo(1/2),geo(1/2))", "geo(1/4)"),
        ("amp(2000000000000000,geo(1/4))", "amp(1000000000000000,geo(1/2))"),
    ],
)
def test_rates_written_two_ways_tie(left, right):
    a, b = op.parse_seq(left), op.parse_seq(right)
    ca, cb = profile(a).growth, profile(b).growth
    assert ca.rate != cb.rate and rate_cmp(ca, cb) == 0 and rate_cmp(cb, ca) == 0
    assert big_o(a, b).is_yes and big_o(b, a).is_yes
    both = op.seq_sum(a, b)
    for x, y in ((both, a), (a, both), (both, b)):
        v = big_o(x, y)
        assert v.is_yes and v.witness.constant < 2**20, (left, right)
        assert_certified(x, y)
