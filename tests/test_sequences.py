import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

import opideals as op
from opideals.compare import DEFAULT_SETTINGS, observed_constant, observed_supremum, rational_ceiling, sample_indices
from opideals.sequences import _HEAD_LO, DomainError, eval_log, eval_log_many, evaluate, head, support

from conftest import random_expr


def test_eval_power_log_harmonic():
    assert evaluate(op.power_log(1), 5) == Fraction(1, 5)


def test_eval_ampliation_repeats_entries():
    assert evaluate(op.ampliate(op.power_log(1), 2), 3) == Fraction(1, 2)


def test_eval_geometric_exact():
    assert evaluate(op.geometric(Fraction(1, 2)), 10) == Fraction(1, 1024)


def test_ampliate_finite_layout():
    e = op.ampliate(op.finite([4, 2, 1]), 2)
    assert head(e, 8) == [4, 4, 2, 2, 1, 1, 0, 0]


def test_ampliate_identity_and_composition():
    e = op.power_log(2)
    assert op.ampliate(e, 1) is e
    composed = op.ampliate(op.ampliate(e, 2), 3)
    direct = op.ampliate(e, 6)
    assert composed == direct
    # independent oracle: pointwise evaluation across the stated range
    for n in range(1, 10**4 + 1):
        assert evaluate(composed, n) == evaluate(direct, n)


def test_decimate_identity_and_definition():
    e = op.geometric(Fraction(1, 3))
    assert op.decimate(e, 1) is e
    assert evaluate(op.decimate(op.power_log(1), 2), 7) == Fraction(1, 14)


def test_decimate_inverts_ampliate():
    for e in (op.power_log(1), op.geometric(Fraction(2, 3)), op.finite([3, 2, 2, 1])):
        round_trip = op.decimate(op.ampliate(e, 3), 3)
        for n in range(1, 10**3 + 1):
            assert evaluate(round_trip, n) == evaluate(e, n)


def test_constructor_rejections():
    with pytest.raises(DomainError):
        op.geometric(Fraction(3, 2))
    with pytest.raises(DomainError):
        op.geometric(1)
    with pytest.raises(DomainError):
        op.power_log(0, 0)
    with pytest.raises(DomainError):
        op.power_log(0, -1)
    with pytest.raises(DomainError):
        op.power_log(-1)
    with pytest.raises(DomainError):
        # the log factor grows too fast against the power for a monotone head
        op.power_log(1, -5)
    with pytest.raises(DomainError):
        op.finite([1, 2])
    with pytest.raises(DomainError):
        op.scale(0, op.power_log(1))
    with pytest.raises(DomainError):
        op.ampliate(op.power_log(1), 0)


def test_mild_log_numerator_is_monotone():
    e = op.power_log(1, -1)  # log(n+1)/n decreases from the first step
    vals = head(e, 500)
    assert all(vals[i] >= vals[i + 1] for i in range(len(vals) - 1))


def test_finite_strips_trailing_zeros_and_support():
    e = op.finite([3, 1, 0, 0])
    assert e.values == (Fraction(3), Fraction(1))
    assert support(e) == 2
    assert support(op.finite([0])) == 0
    assert support(op.power_log(1)) is None
    assert support(op.ampliate(op.finite([1, 1]), 3)) == 6
    assert support(op.decimate(op.finite([1] * 7), 2)) == 3
    assert support(op.seq_product(op.finite([5, 5]), op.power_log(1))) == 2


def test_monotone_nonnegative_on_random_expressions(rng):
    for _ in range(60):
        e = random_expr(rng, depth=3)
        vals = head(e, 120)
        assert all(v >= 0 for v in vals)
        assert all(vals[i] >= vals[i + 1] for i in range(len(vals) - 1)), op.render_seq(e)


def test_value_stream_matches_evaluate(rng):
    for _ in range(40):
        e = random_expr(rng, depth=3)
        stream = head(e, 50)
        for n, v in enumerate(stream, start=1):
            assert v == evaluate(e, n)


def test_eval_log_consistent_with_evaluate(rng):
    for _ in range(40):
        e = random_expr(rng, depth=3)
        for n in (1, 2, 5, 17, 100, 1234):
            v = evaluate(e, n)
            lv = eval_log(e, n)
            if isinstance(v, Fraction):
                if v == 0:
                    assert lv == -math.inf
                else:
                    expected = math.log(v.numerator) - math.log(v.denominator)
                    assert math.isclose(lv, expected, rel_tol=1e-9, abs_tol=1e-9)
            elif v > 0:
                assert math.isclose(lv, math.log(v), rel_tol=1e-9, abs_tol=1e-9)
            else:
                assert lv < -700  # the float path underflowed; the log path does not


def test_eval_log_geometric_huge_index_no_underflow():
    lv = eval_log(op.geometric(Fraction(1, 2)), 1 << 20)
    assert lv == pytest.approx((1 << 20) * math.log(0.5))


def test_scale_normalization():
    e = op.power_log(1)
    assert op.scale(1, e) is e
    nested = op.scale(2, op.scale(3, e))
    assert evaluate(nested, 4) == Fraction(6, 4)
    assert op.scale(Fraction(1, 2), op.finite([4, 2])) == op.finite([2, 1])


def test_partial_gcd_normalization_of_decimated_ampliation():
    e = op.power_log(1)
    lhs = op.decimate(op.ampliate(e, 4), 6)
    assert lhs == op.decimate(op.ampliate(e, 2), 3)
    for n in range(1, 500):
        assert evaluate(lhs, n) == evaluate(op.ampliate(e, 4), 6 * n)


def test_log_numerator_head_check_matches_brute_force():
    # the constructor's accept/reject decision must agree with a long scan
    from opideals.sequences import PowerLog as PL

    for p_num in (1, 2, 3, 5, 8):
        for m_num in (1, 2, 3, 4, 6, 9):
            p, q = Fraction(p_num, 2), Fraction(-m_num, 2)
            try:
                e = op.power_log(p, q)
                accepted = True
            except DomainError:
                accepted = False
            vals = [
                math.exp(float(-p) * math.log(n) + float(-q) * math.log(math.log(n + 1)))
                for n in range(1, 3000)
            ]
            monotone = all(vals[i + 1] <= vals[i] * (1 + 1e-9) for i in range(len(vals) - 1))
            assert accepted == monotone, (p, q)


def test_log_numerator_head_check_is_exact():
    # its log rises by about 1.7e-13 from n = 1 to n = 22,000; a float check with slack admitted it
    with pytest.raises(DomainError):
        op.power_log(Fraction(1, 10**14), Fraction(-1, 10**13))
    assert op.power_log(2, -3).q == -3  # |q|/p = 1.5, just below the threshold
    with pytest.raises(DomainError):
        op.power_log(2, Fraction(-31, 10))  # |q|/p = 1.55, above it
    vals = head(op.power_log(2, -3), 3000)
    assert all(vals[i + 1] <= vals[i] for i in range(len(vals) - 1))
    with localcontext() as ctx:
        ctx.prec = 60
        c = Decimal(2).ln() / (Decimal(3).ln() / Decimal(2).ln()).ln()
        assert 0 < c - Decimal(_HEAD_LO.numerator) / _HEAD_LO.denominator < Decimal(10) ** -29


def _log_fraction(v: Fraction) -> float:
    return -math.inf if v == 0 else math.log(v.numerator) - math.log(v.denominator)


def reference_eval_log(e, n: int) -> float:
    """The per-index recursive walk that ``eval_log_many`` replaced, kept as the reference."""
    if isinstance(e, op.PowerLog):
        return -float(e.p) * math.log(n) - float(e.q) * math.log(math.log(n + 1.0))
    if isinstance(e, op.Geometric):
        return n * _log_fraction(e.ratio)
    if isinstance(e, op.Finite):
        return _log_fraction(e.values[n - 1]) if n <= len(e.values) else -math.inf
    if isinstance(e, op.Scale):
        return _log_fraction(e.factor) + reference_eval_log(e.inner, n)
    if isinstance(e, op.Ampliate):
        return reference_eval_log(e.inner, -(-n // e.order))
    if isinstance(e, op.Decimate):
        return reference_eval_log(e.inner, e.step * n)
    if isinstance(e, op.Sum):
        la, lb = reference_eval_log(e.left, n), reference_eval_log(e.right, n)
        hi, lo = max(la, lb), min(la, lb)
        if hi == -math.inf:
            return -math.inf
        return hi + math.log1p(math.exp(lo - hi)) if lo > -math.inf else hi
    if isinstance(e, op.Max):
        return max(reference_eval_log(e.left, n), reference_eval_log(e.right, n))
    if isinstance(e, op.Product):
        la, lb = reference_eval_log(e.left, n), reference_eval_log(e.right, n)
        if -math.inf in (la, lb):
            return -math.inf
        return la + lb
    raise TypeError(e)


def reference_observed_supremum(a, b, settings=DEFAULT_SETTINGS) -> float:
    """The per-index supremum loop that ``observed_supremum`` replaced."""
    hi = settings.window_hi
    head_end = min(hi, 1024)
    if support(a) is not None:
        head_end = min(hi, max(head_end, support(a)))
    idx = list(range(1, head_end + 1)) + sample_indices(settings.window_lo, hi, 2 * settings.sample_count)
    best = 0.0
    for n in sorted(set(idx)):
        la, lb = reference_eval_log(a, n), reference_eval_log(b, n)
        if lb == -math.inf:
            if la > -math.inf:
                return math.inf
            continue
        if la > -math.inf:
            best = max(best, math.exp(min(la - lb, 700.0)))
    return best


# unsorted, with repeats, from the head through a huge geometric index
INDICES = [3, 1, 2, 3, *range(4, 200), *sample_indices(16, 1 << 20, 128), 1 << 20, 1 << 40, 7]
EDGE_CASES = [
    op.finite([5, 4, 3]),
    op.ampliate(op.finite([3, 1]), 3),
    op.decimate(op.finite([9, 8, 7, 6, 5, 4, 3]), 2),
    op.scale(3, op.ampliate(op.geometric(Fraction(1, 2)), 2)),
    op.seq_product(op.finite([4, 2]), op.power_log(1)),  # -inf beyond the support
    op.seq_sum(op.finite([2]), op.finite([3, 1])),  # both sides -inf in the tail
    op.seq_max(op.finite([1]), op.power_log(Fraction(1, 2), 1)),
    op.seq_sum(op.power_log(1), op.power_log(1)),  # exact ties inside the log-sum
    op.power_log(0, 1),
    op.power_log(2, Fraction(-1, 2)),
    op.decimate(op.ampliate(op.power_log(1, 2), 4), 3),
    op.geometric(Fraction(1, 10**30)),
]


def test_eval_log_many_bit_identical_to_reference_walk(rng):
    corpus = [random_expr(rng, depth=3) for _ in range(60)] + EDGE_CASES
    for e in corpus:
        got = eval_log_many(e, INDICES)
        want = [reference_eval_log(e, n) for n in INDICES]
        assert [v.hex() for v in got] == [v.hex() for v in want], op.render_seq(e)
        assert eval_log(e, 5).hex() == want[INDICES.index(5)].hex()


def test_eval_log_many_rejects_index_zero():
    with pytest.raises(ValueError):
        eval_log_many(op.power_log(1), [3, 0])
    assert eval_log_many(op.power_log(1), []) == []


def test_observed_constant_unchanged_by_batched_evaluation(rng):
    checked = 0
    for _ in range(60):
        a, b = random_expr(rng, depth=2), random_expr(rng, depth=2)
        if op.big_o(b, a).is_yes:
            a, b = b, a
        want = reference_observed_supremum(a, b)
        assert observed_supremum(a, b, DEFAULT_SETTINGS).hex() == want.hex(), (op.render_seq(a), op.render_seq(b))
        if want < 1e290:
            assert observed_constant(a, b, DEFAULT_SETTINGS) == rational_ceiling(2 * max(want, 1e-30))
            checked += 1
    assert checked >= 30


def test_sample_indices_returns_a_fresh_list_each_call():
    first = sample_indices(16, 1 << 20, 64)
    assert isinstance(first, list) and first == sorted(set(first)) and first[-1] == 1 << 20
    first.append(0)
    assert sample_indices(16, 1 << 20, 64) == first[:-1]
    assert sample_indices(5, 5, 10) == [5]
