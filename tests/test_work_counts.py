"""A guard on the work the engine does: calls into ``opideals`` functions on a fixed corpus.

Wall time on a shared host is noisy; the number of Python-level calls into
the package is not.  The corpus holds 40 No questions on trees 20 to 77
levels deep (``member``, ``big_o`` and ``little_o``), 30 softness Yes
questions and 23 softness No questions.  Every tree is built afresh and the
package's three ``lru_cache``s are cleared, so the count does not depend on
the tests that ran before.  The count is the same under every hash seed.
It was 39,045 while each symbolic No sampled four ratios as evidence,
25,040 once a No named its two classes instead, and 17,446 once memo
slots started at None, so that ``fold`` probes a slot in one C call, and a
join of two rate-one classes compared their exponents directly; the
ceiling is 10% above the latter.  A change that needs more raises it and
says why.  An accidental quadratic walk, a tree walked twice, or evidence
sampled again on a No, shows in the count.

    PYTHONPATH=src python3 tests/test_work_counts.py    # prints the count
"""

import random
import sys
from fractions import Fraction as F
from pathlib import Path

import opideals as op
from opideals import compare, growth, sequences

PACKAGE = str(Path(op.__file__).resolve().parent)
COUNT = 17_446
CEILING = int(COUNT * 1.1)

SLOW = [(p, q) for p in (F(1, 2), F(1), F(3, 2)) for q in (F(0), F(1, 2), F(1))]


def deep_tree(rng: random.Random, depth: int, slow: tuple[F, F]) -> op.SeqExpr:
    """``depth`` sum, max, scale and ampliation levels over ``pow(*slow)``; every other atom decays faster."""
    e = op.power_log(*slow)
    for _ in range(depth):
        kind = rng.randrange(4)
        if kind == 2:
            e = op.scale(rng.choice((F(2), F(1, 3), F(3, 2))), e)
        elif kind == 3:
            e = op.ampliate(e, rng.choice((2, 3)))
        else:
            side = op.power_log(slow[0] + rng.choice((F(1, 4), F(1), F(2))), rng.choice((F(0), F(1))))
            e = (op.seq_sum if kind == 0 else op.seq_max)(e, side)
    return e


def corpus() -> list:
    """The questions, as (ask, expected outcome) pairs; every tree is new."""
    rng = random.Random(19)
    out = []
    for i in range(40):
        slow_a, slow_b = sorted(rng.sample(SLOW, 2))  # a decays strictly more slowly than b
        depth = 20 + (i * 3) % 60
        a, b = deep_tree(rng, depth, slow_a), deep_tree(rng, depth, slow_b)
        ask = (lambda a=a, b=b: op.member(a, op.Principal(b)), lambda a=a, b=b: op.big_o(a, b),
               lambda a=a, b=b: op.little_o(a, b))[i % 3]
        out.append((ask, "no"))
    for i in range(30):
        g = op.power_log(rng.choice((F(1, 2), F(1))), rng.choice((F(0), F(1))))
        ideal = (op.KH(), op.Principal(g), op.IdealProduct(op.Principal(g), op.KH()),
                 op.Principal(op.geometric(rng.choice((F(1, 3), F(2, 3))))))[i % 4]
        rate = op.geometric(rng.choice((F(1, 2), F(3, 4))))
        soft_s = op.seq_product(rate, op.power_log(rng.choice((F(1), F(2)))))
        out.append((lambda s=soft_s, j=ideal: op.is_soft(s, j).verdict, "yes"))
        if i % 4 == 3:
            continue  # a rate-one s lies in no geometric ideal
        hard_s = op.seq_sum(op.power_log(F(3), rng.choice((F(0), F(1)))), op.ampliate(op.power_log(F(4)), 2))
        out.append((lambda s=hard_s, j=ideal: op.is_soft(s, j).verdict, "no"))
    return out


def count_calls() -> tuple[int, int]:
    """(calls into the package, questions) over the corpus, checking every answer."""
    questions = corpus()
    for cache in (growth._decimal_ln, compare._sample_indices, sequences._log_columns):
        cache.cache_clear()
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            calls += 1

    answers = []
    sys.setprofile(hook)
    try:
        for ask, _ in questions:
            answers.append(ask().outcome.value)
    finally:
        sys.setprofile(None)
    assert answers == [want for _, want in questions]
    return calls, len(questions)


def test_calls_stay_under_the_ceiling():
    calls, questions = count_calls()
    assert 90 <= questions <= 110
    assert calls <= CEILING, f"{calls} calls into opideals on the work-count corpus, ceiling {CEILING}"


if __name__ == "__main__":
    print("calls %d over %d questions" % count_calls())
