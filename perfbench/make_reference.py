"""Write the sympy reference answers for the ``compare-yes`` workload.

    PYTHONPATH=src python3 perfbench/make_reference.py

Draws candidate pairs from the depth-2 expression grammar of the test suite
(seed 0x5EED), computes lim a_n/b_n with ``sympy.limit`` on the continuous
surrogate that ``tests/test_limit_oracle.py`` uses (ampliation by m becomes
n -> n/m), and writes one line per pair that sympy settles:

    <a>\t<b>\t<zero|finite|infinite>

Pairs with a finitely supported part, and pairs on which sympy raises or
returns no verdict, are left out.  The benchmark never imports sympy; it
reads this file.  Running the script again rewrites the file identically.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import sympy  # noqa: E402

import opideals as op  # noqa: E402
from opideals.sequences import (  # noqa: E402
    Ampliate,
    Decimate,
    Geometric,
    Max,
    PowerLog,
    Product,
    Scale,
    Sum,
)

REFERENCE = HERE / "compare_reference.tsv"
POOL_SEED = 0x5EED
CANDIDATES = 1600

POWERS = [Fraction(n, 4) for n in (1, 2, 3, 4, 5, 6, 8, 12)]
LOGS = [Fraction(0), Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2)]
RATIOS = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 4), Fraction(3, 4), Fraction(1, 5)]

N = sympy.symbols("n", positive=True)


# The two generators below draw exactly as tests/conftest.py does, so the
# pool is the suite's depth-2 corpus continued past its first pairs.
def random_atom(rng: random.Random) -> op.SeqExpr:
    if rng.random() < 0.6:
        return op.power_log(rng.choice(POWERS), rng.choice(LOGS))
    return op.geometric(rng.choice(RATIOS))


def random_expr(rng: random.Random, depth: int = 2) -> op.SeqExpr:
    if depth <= 0 or rng.random() < 0.35:
        roll = rng.random()
        if roll < 0.75:
            return random_atom(rng)
        if roll < 0.9:
            vals = sorted((rng.randrange(1, 9) for _ in range(rng.randrange(1, 5))), reverse=True)
            return op.finite(vals)
        return op.scale(Fraction(rng.randrange(1, 7), rng.randrange(1, 4)), random_atom(rng))
    kind = rng.randrange(6)
    if kind == 0:
        return op.ampliate(random_expr(rng, depth - 1), rng.randrange(1, 5))
    if kind == 1:
        return op.decimate(random_expr(rng, depth - 1), rng.randrange(1, 5))
    if kind == 2:
        return op.seq_sum(random_expr(rng, depth - 1), random_expr(rng, depth - 1))
    if kind == 3:
        return op.seq_max(random_expr(rng, depth - 1), random_expr(rng, depth - 1))
    if kind == 4:
        return op.seq_product(random_expr(rng, depth - 1), random_expr(rng, depth - 1))
    return op.scale(Fraction(rng.randrange(1, 5)), random_expr(rng, depth - 1))


def to_sympy(e):
    """Continuous surrogate of a sequence; None outside its domain."""
    if isinstance(e, PowerLog):
        return N ** (-sympy.Rational(e.p)) * sympy.log(N + 1) ** (-sympy.Rational(e.q))
    if isinstance(e, Geometric):
        return sympy.Rational(e.ratio) ** N
    if isinstance(e, (Scale, Ampliate, Decimate)):
        inner = to_sympy(e.inner)
        if inner is None:
            return None
        if isinstance(e, Scale):
            return sympy.Rational(e.factor) * inner
        if isinstance(e, Ampliate):
            return inner.subs(N, N / e.order)
        return inner.subs(N, e.step * N)
    if isinstance(e, (Sum, Max, Product)):
        a, b = to_sympy(e.left), to_sympy(e.right)
        if a is None or b is None:
            return None
        if isinstance(e, Sum):
            return a + b
        if isinstance(e, Max):
            return sympy.Max(a, b)
        return a * b
    return None  # finitely supported


def limit_class(a, b) -> str | None:
    sa, sb = to_sympy(a), to_sympy(b)
    if sa is None or sb is None:
        return None
    try:
        lim = sympy.limit(sa / sb, N, sympy.oo)
    except Exception:  # sympy gives up on some Max forms; those pairs are skipped
        return None
    if lim == sympy.oo:
        return "infinite"
    if lim == 0:
        return "zero"
    if lim.is_finite and lim.is_positive:
        return "finite"
    return None


def main() -> int:
    rng = random.Random(POOL_SEED)
    lines = []
    for _ in range(CANDIDATES):
        a, b = random_expr(rng), random_expr(rng)
        cls = limit_class(a, b)
        if cls is not None:
            lines.append(f"{op.render_seq(a)}\t{op.render_seq(b)}\t{cls}\n")
    REFERENCE.write_text("".join(lines))
    print(f"{len(lines)} of {CANDIDATES} pairs settled; wrote {REFERENCE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
