import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import opideals as op
from opideals.ideals import KH, PreconditionError, Principal, is_soft
from opideals.oracle import (
    verify_ampliation_ratio,
    verify_power_gap_divergence,
    verify_product_split,
    verify_softness_witness,
)
from opideals.sequences import evaluate, head, value_stream

P1 = op.power_log(1)
G2 = op.geometric(Fraction(1, 2))


def test_singular_values_of_truncated_sequence_exact():
    n = 64
    assert head(P1, n) == [Fraction(1, k) for k in range(1, n + 1)]


def test_ampliation_semantics_exact():
    m, n = 3, 60
    amp = op.ampliate(G2, m)
    diag = [next(iter_v) for iter_v in [value_stream(amp)] for _ in range(n)]
    expected = []
    for i in range(1, n + 1):
        expected.append(evaluate(G2, -(-i // m)))
    assert diag == expected
    assert head(amp, n) == expected


def test_ratio_limit_converges_for_small_orders():
    for m in (2, 3):
        rep = verify_ampliation_ratio(m, n_max=10**6, tolerance=1e-3)
        assert rep.passed
        tail = [v for n, v in rep.observed if n >= rep.window[0]]
        assert all(abs(v - 1 / m) <= 1e-3 for v in tail)


def test_ratio_limit_identity_order():
    rep = verify_ampliation_ratio(1, n_max=10**4)
    assert rep.target == 1.0
    assert rep.passed


def test_divergence_check_passes_and_window_sensitivity():
    assert verify_power_gap_divergence(1, n_max=10**6).passed
    assert verify_power_gap_divergence(4, n_max=10**6).passed
    short = verify_power_gap_divergence(1, n_max=10)
    assert not short.passed  # window far too short to clear the threshold


def test_product_split_geometric_square_root():
    rep = verify_product_split(op.geometric(Fraction(1, 4)), Principal(G2), Principal(G2), n_max=10**5)
    assert rep.passed
    assert rep.tolerance == 0.0
    assert all(err == 0.0 for _, err in rep.observed)


def test_product_split_power_cascade():
    rep = verify_product_split(op.power_log(3), Principal(P1), Principal(op.power_log(2)), n_max=10**5)
    assert rep.passed
    assert all(err == 0.0 for _, err in rep.observed)


def test_product_split_compacts_square_root():
    rep = verify_product_split(P1, KH(), KH(), n_max=10**5)
    assert rep.passed
    assert all(err == 0.0 for _, err in rep.observed)


def test_product_split_requires_membership():
    with pytest.raises(PreconditionError):
        verify_product_split(P1, Principal(P1), Principal(P1), n_max=100)


def test_softness_witness_check_passes_for_engine_witnesses():
    res = is_soft(G2, KH())
    rep = verify_softness_witness(G2, res, n_max=10**5)
    assert rep.passed
    assert rep.target >= 2  # the constant must absorb the odd-index step


def test_softness_witness_principal_ideal_case():
    res = is_soft(G2, Principal(P1))
    rep = verify_softness_witness(G2, res, n_max=10**4)
    assert rep.passed


def test_softness_witness_requires_yes():
    res = is_soft(P1, KH())
    with pytest.raises(PreconditionError):
        verify_softness_witness(P1, res)


def test_no_verdict_backed_by_divergence_oracle():
    # the engine's refusal of member(pow2, prin(pow3)) matches the blow-up check
    assert op.member(op.power_log(2), Principal(op.power_log(3))).is_no
    assert verify_power_gap_divergence(1, n_max=10**6).passed


def test_engine_witnesses_verify_on_random_corpus(rng):
    from conftest import random_atom

    checked = 0
    for _ in range(40):
        s = random_atom(rng)
        res = is_soft(s, KH())
        if not res.verdict.is_yes:
            continue
        rep = verify_softness_witness(s, res, n_max=10**4)
        assert rep.passed, (op.render_seq(s), rep.detail)
        checked += 1
    assert checked >= 5


def test_softness_witness_finite_rank_trivial():
    fin = op.finite([1])
    res = is_soft(fin, KH())
    rep = verify_softness_witness(fin, res, n_max=10**4)
    assert rep.passed


def test_no_runtime_dependency_is_imported():
    code = "import sys, opideals, opideals.oracle, opideals.cli; assert 'numpy' not in sys.modules"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_checks_over_no_indices_are_refused():
    res = is_soft(G2, KH())
    for n_max in (0, -5):
        with pytest.raises(ValueError, match="at least 1"):
            verify_ampliation_ratio(2, n_max=n_max)
        with pytest.raises(ValueError, match="at least 1"):
            verify_power_gap_divergence(2, n_max=n_max)
        with pytest.raises(ValueError, match="at least 1"):
            verify_product_split(op.power_log(2), Principal(P1), Principal(P1), n_max=n_max)
        with pytest.raises(ValueError, match="at least 1"):
            verify_softness_witness(G2, res, n_max=n_max)
    assert verify_ampliation_ratio(2, n_max=1).window == (1, 1)
