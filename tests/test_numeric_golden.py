"""Exact ``mode="numeric"`` answers: ``big_o``, ``little_o``, ``member`` and ``is_soft``.

``numeric_golden.json`` holds 80 pairs (a, b) drawn from ``random_expr`` with
the seed 0x5EED, and an ideal J that cycles through K(H), (b) and (b)K(H); in
two of three cases of a principal-like J, a is multiplied by an ampliation of
b so that it often lies in J.  For each pair it records the ``repr`` of
``big_o(a, b)``, ``little_o(a, b)``, ``member(a, (b))`` and ``is_soft(a, J)``,
all with ``mode="numeric"``, or the exception raised (``raises <type>: <text>``).
The record pins every sampled constant, window, evidence sample and note of
the numeric fallback, whichever module holds it.
"""

import json
from pathlib import Path

import pytest

import opideals as op

CASES = json.loads((Path(__file__).with_name("numeric_golden.json")).read_text(encoding="utf-8"))


def _answer(f, *args) -> str:
    try:
        return repr(f(*args, mode="numeric"))
    except Exception as exc:
        return f"raises {type(exc).__name__}: {exc}"


def test_the_record_covers_every_outcome():
    assert len(CASES) == 80
    for key in ("big_o", "little_o", "member", "is_soft"):
        seen = {word for case in CASES for word in ("YES", "NO", "UNKNOWN", "raises") if word in case[key]}
        assert seen >= {"YES", "NO", "UNKNOWN"}, key


@pytest.mark.parametrize("case", CASES, ids=[f"{c['a']} vs {c['b']}" for c in CASES])
def test_numeric_answers_match_the_record(case):
    a, b, ideal = op.parse_seq(case["a"]), op.parse_seq(case["b"]), op.parse_ideal(case["ideal"])
    got = {
        "big_o": _answer(op.big_o, a, b),
        "little_o": _answer(op.little_o, a, b),
        "member": _answer(op.member, a, op.Principal(b)),
        "is_soft": _answer(op.is_soft, a, ideal),
    }
    assert got == {key: case[key] for key in got}
