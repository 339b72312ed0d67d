"""Tests of the benchmark itself: every workload's checker must count a
deliberately wrong answer as failed, and must pass the program's real answer.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checkers.py
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import opideals as op  # noqa: E402
import opideals.cli as cli  # noqa: E402
import pytest  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

WRONG_NO = op.Verdict.no(op.Certificate(note="deliberately wrong"))
WRONG_YES = op.Verdict.yes(op.Witness(constant=Fraction(1), window=(1, 1 << 20)))


def first_of(questions, kind: str):
    return next(q for q in questions if q.kind == kind and not q.fault)


def assert_counted_failed(q, wrong) -> None:
    """The real answer passes; the wrong one is one failure, not a kept fault."""
    assert wl.passes(q, q.ask())
    correct, failed, _ = run.summarize([q], [wl.passes(q, wrong)])
    assert (correct, failed) == (False, 1)


@pytest.fixture(scope="module")
def compare_plan():
    return wl.compare_yes(seed=3, rounds=1)


@pytest.mark.parametrize("kind", ["big_o", "little_o", "member"])
def test_compare_yes_counts_a_no_as_failed(compare_plan, kind):
    assert_counted_failed(first_of(compare_plan.timed, kind), WRONG_NO)


def test_compare_yes_counts_a_constant_that_is_no_bound_as_failed(compare_plan):
    q = first_of(compare_plan.timed, "big_o")
    w = q.ask().witness
    tiny = op.Verdict.yes(dataclasses.replace(w, constant=w.constant / 10**9))
    assert_counted_failed(q, tiny)


def test_compare_yes_trichotomy_catches_a_contradiction(compare_plan, monkeypatch):
    q = compare_plan.timed[0]  # the first question of a round also checks the trichotomy
    answer = q.ask()
    assert wl.passes(q, answer)
    # a little_o that says Yes both ways contradicts the trichotomy
    monkeypatch.setattr(wl.op, "little_o", lambda a, b: WRONG_YES)
    assert not wl.passes(q, answer)


@pytest.fixture(scope="module")
def deep_plan():
    return wl.deep_exact(seed=3, rounds=1)


@pytest.mark.parametrize("kind", ["big_o", "little_o", "member"])
def test_deep_exact_counts_a_yes_as_failed(deep_plan, kind):
    assert_counted_failed(first_of(deep_plan.timed, kind), WRONG_YES)


def test_deep_exact_counts_a_wrong_reduction_as_failed(deep_plan):
    assert_counted_failed(first_of(deep_plan.timed, "reduce"), op.KH())


def test_deep_exact_kept_faults_fail_without_making_the_run_incorrect(deep_plan):
    faults = [q for q in deep_plan.timed if q.fault]
    assert {q.fault for q in faults} == {"repeat-340", "fresh-1000"}
    verdicts = [wl.passes(q, a) for q, a in zip(faults, run.time_library(faults, wl.Raised)[2])]
    assert run.summarize(faults, verdicts)[:2] == (True, 2)


@pytest.fixture(scope="module")
def soft_plan():
    return wl.softness(seed=3, rounds=1)


def test_softness_counts_a_flipped_verdict_as_failed(soft_plan):
    q = first_of(soft_plan.timed, "is_soft")
    real = q.ask()
    flipped = op.SoftnessResult(WRONG_NO if real.verdict.is_yes else WRONG_YES)
    assert_counted_failed(q, flipped)


def test_softness_counts_a_broken_chain_as_failed(soft_plan):
    q = first_of(soft_plan.timed, "classify")
    real = q.ask()
    links = tuple(dataclasses.replace(link, relation="unknown") for link in real.chain)
    assert_counted_failed(q, dataclasses.replace(real, chain=links))


def cli_answer(q) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(q.argv)
    return code, buf.getvalue()


def flip(out: str) -> str:
    """The same text report with every yes/no and pass/fail answer swapped."""
    swapped = out.replace(": yes", ": @").replace(": no", ": yes").replace(": @", ": no")
    return swapped.replace("passed: true", "passed: false")


@pytest.fixture(scope="module")
def cli_questions():
    return wl.cli_oneshot(seed=3, rounds=1)


@pytest.mark.parametrize("kind", ["member", "soft", "classify", "equal", "principality2", "oracle-split"])
def test_cli_counts_a_wrong_output_as_failed(cli_questions, kind):
    for q in (q for q in cli_questions if q.kind == kind and not q.fault):
        code, out = cli_answer(q)
        assert wl.passes(q, (code, out)), q.argv
        if "--json" in q.argv:
            doc = json.loads(out)
            doc["schema"] = "opideals-report/0"
            wrong = json.dumps(doc)
        else:
            wrong = flip(out)
        assert not wl.passes(q, (code, wrong)), q.argv
        assert not wl.passes(q, (1, out)), q.argv
