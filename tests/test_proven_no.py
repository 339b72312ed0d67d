"""A symbolic No is its two growth classes: nothing on the symbolic path samples.

The classes are totally ordered, so a class comparison alone proves a No.
Its certificate names the rule and the classes, written by
``growth.render_class``; it has no samples, and no window unless the
supports fix one.  So ``--window``, ``--tol`` and ``--grid`` leave every
symbolic No unchanged, down to its ``repr``.
"""

import json
from fractions import Fraction as F
from pathlib import Path

import pytest

import opideals as op
from opideals.compare import Settings
from opideals.growth import GrowthClass, render_class

CORPUS = json.loads((Path(__file__).with_name("numeric_golden.json")).read_text(encoding="utf-8"))


@pytest.mark.parametrize("cls, text", [
    (GrowthClass((), F(2), F(0)), "n^-2"),
    (GrowthClass(((F(1, 2), F(1, 3)),), F(1), F(2)), "(1/2)^(n/3) n^-1 log(n+1)^-2"),
    (GrowthClass(((F(1, 3), F(1)),), F(0), F(1)), "(1/3)^n log(n+1)^-1"),
    (GrowthClass(((F(1, 2), F(2, 3)), (F(2, 3), F(2))), F(3, 2), F(-1, 2)),
     "(1/2)^(2n/3) (2/3)^(2n) n^(-3/2) log(n+1)^(1/2)"),
    (GrowthClass(((F(1, 2), F(10**9)),), F(0), F(0)), "(1/2)^(1000000000n)"),
    (GrowthClass((), F(0), F(0)), "1"),
])
def test_render_class(cls, text):
    assert render_class(cls) == text


def _answers(a, b, ideal, settings):
    def answer(f, *args):
        try:
            return repr(f(*args, settings=settings))
        except Exception as exc:
            return f"raises {type(exc).__name__}: {exc}"

    return {
        "big_o": answer(op.big_o, a, b),
        "little_o": answer(op.little_o, a, b),
        "member": answer(op.member, a, op.Principal(b)),
        "is_soft": answer(op.is_soft, a, ideal),
    }


@pytest.mark.parametrize("knobs", [
    Settings(window_lo=4, window_hi=64),
    Settings(window_lo=100, window_hi=1 << 40, sample_count=8, vanishing_threshold=0.5, grid_k=2, grid_m=1),
], ids=["window 4:64", "window, tol and grid"])
def test_no_answers_do_not_depend_on_the_numeric_knobs(knobs):
    # the 0x5EED corpus of numeric_golden.json, asked on the symbolic path
    nos = 0
    for case in CORPUS:
        a, b, ideal = op.parse_seq(case["a"]), op.parse_seq(case["b"]), op.parse_ideal(case["ideal"])
        default, moved = _answers(a, b, ideal, op.DEFAULT_SETTINGS), _answers(a, b, ideal, knobs)
        for key, text in default.items():
            if "Outcome.NO" in text:
                nos += 1
                assert "samples=()" in text, (key, text)
                assert moved[key] == text, (key, case["a"], case["b"])
    assert nos >= 100


def test_a_class_no_names_both_classes_and_nothing_else():
    v = op.big_o(op.power_log(1), op.seq_product(op.ampliate(op.geometric(F(1, 2)), 3), op.power_log(1, 2)))
    assert v.is_no
    assert v.certificate == op.Certificate(
        note="growth classes refute the bound: the ratio grows without bound: "
        "left class n^-1, right class (1/2)^(n/3) n^-1 log(n+1)^-2"
    )
    v = op.little_o(op.scale(3, op.power_log(2)), op.seq_sum(op.power_log(2), op.power_log(3)))
    assert v.certificate.note.endswith("the ratio does not vanish: left class n^-2, right class n^-2")
    soft = op.is_soft(op.ampliate(op.power_log(1, 1), 2), op.KH()).verdict
    assert soft.is_no and soft.certificate.window is None and soft.certificate.samples == ()
    assert soft.certificate.note.endswith("no null witness exists: s has class n^-1 log(n+1)^-1")
