"""The benchmark's workloads: seeded question lists and their checkers.

A workload is built from ``(seed, rounds)``.  Every round has the same make-up
(the same number of questions of each kind, the same kept faults), so the
share of failed questions is the same in every run, whatever the seed and the
number of rounds.  Warm-up questions are drawn apart from the timed ones and
never repeat them.

Reference answers never come from the program under test:

* ``compare-yes``: ``sympy.limit`` on a continuous surrogate, precomputed by
  ``make_reference.py`` into ``compare_reference.tsv``;
* ``deep-exact``: by construction; a power-log tree has the class of its
  slowest atom, and every other atom is built strictly faster;
* ``softness`` and ``cli-oneshot``: by construction; an S of infinite
  support is soft in J (J inside the compacts) exactly when its rate is
  below one (Kaftal-Weiss decimation test).
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path
from typing import Callable

import opideals as op

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "compare_reference.tsv"
SCHEMA = "opideals-report/1"


@dataclass
class Question:
    """One timed call into the program and the test its answer must pass.

    ``fault`` names a kept fault: a question the program is known to get
    wrong on every run.  It is counted in ``failed`` like any other failure.
    """

    kind: str
    ask: Callable[[], object]
    check: Callable[[object], bool]
    fault: str = ""


@dataclass
class Plan:
    warmup: list[Question]
    timed: list[Question]


class Raised:
    """Stands in for the answer of a question whose call raised."""

    def __init__(self, exc: BaseException):
        self.exc = exc

    def __repr__(self) -> str:
        return f"raised {type(self.exc).__name__}"


def passes(q: Question, answer) -> bool:
    if isinstance(answer, Raised):
        return False
    try:
        return bool(q.check(answer))
    except Exception:  # a malformed answer is a failed answer
        return False


def rng_for(workload: str, seed: int, stream: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{stream}")


def log_value(v) -> float:
    """Natural log of an exact or float sequence value; -inf at zero."""
    if v == 0:
        return -math.inf
    if isinstance(v, F):
        return math.log(v.numerator) - math.log(v.denominator)
    return math.log(v)


# ---------------------------------------------------------------------------
# compare-yes: sampled witness constants on the depth-2 corpus


def load_reference() -> list[tuple[op.SeqExpr, op.SeqExpr, str]]:
    """Pairs oriented so that lim a/b is zero or finite (every answer Yes)."""
    pairs = []
    for line in REFERENCE.read_text().splitlines():
        a_text, b_text, cls = line.split("\t")
        a, b = op.parse_seq(a_text), op.parse_seq(b_text)
        if cls == "infinite":
            a, b, cls = b, a, "zero"
        pairs.append((a, b, cls))
    return pairs


def witness_bounds(a, b, verdict, indices, ampliated: bool) -> bool:
    """a_n <= C * b_n (b ampliated by the witness order) at the given n."""
    w = verdict.witness
    lo, hi = w.window
    m = (w.m or 1) if ampliated else 1
    log_c = log_value(w.constant)
    for n in indices:
        if not lo <= n <= hi:
            continue
        la = log_value(op.evaluate(a, n))
        lb = log_value(op.evaluate(b, -(-n // m)))
        if la > log_c + lb + 1e-9:
            return False
    return True


def trichotomy_holds(a, b) -> bool:
    """Exactly one of a=o(b), b=o(a), or big-O both ways (infinite supports)."""
    ab, ba = op.little_o(a, b).is_yes, op.little_o(b, a).is_yes
    both = op.big_o(a, b).is_yes and op.big_o(b, a).is_yes
    return (ab + ba + both) == 1


def _compare_question(kind: str, a, b, indices, trichotomy: bool) -> Question:
    if kind == "member":
        ideal = op.Principal(b)

        def ask():
            return op.member(a, ideal)
    elif kind == "big_o":
        def ask():
            return op.big_o(a, b)
    else:
        def ask():
            return op.little_o(a, b)

    def check(v) -> bool:
        if not v.is_yes or not witness_bounds(a, b, v, indices, kind == "member"):
            return False
        return trichotomy_holds(a, b) if trichotomy else True

    return Question(kind, ask, check)


COMPARE_ROUND = 100
TRICHOTOMY_EVERY = 25


def compare_yes(seed: int, rounds: int) -> Plan:
    pool: list[tuple[str, int]] = []
    warm: list[tuple[str, int]] = []
    pairs = load_reference()
    for i, (_, _, cls) in enumerate(pairs):
        kinds = ("big_o", "member") + (("little_o",) if cls == "zero" else ())
        (warm if i % 10 == 0 else pool).extend((k, i) for k in kinds)
    rng = rng_for("compare-yes", seed, 0)

    def build(picks) -> list[Question]:
        out = []
        for kind, i in picks:
            a, b, _ = pairs[i]
            indices = rng.sample(range(16, 49), 3)
            out.append(_compare_question(kind, a, b, indices, len(out) % TRICHOTOMY_EVERY == 0))
        return out

    timed = []
    for _ in range(rounds):
        timed += build(rng.sample(pool, COMPARE_ROUND))
    warmup = build(rng.sample(warm, 30))
    return Plan(warmup, timed)


# ---------------------------------------------------------------------------
# deep-exact: growth-class decisions on deep trees, every answer No


SCALE_FACTORS = (F(2), F(3), F(1, 2), F(1, 3), F(3, 2), F(5, 4))


@functools.lru_cache(maxsize=None)
def _side_atoms(p0: F) -> tuple[op.SeqExpr, ...]:
    """Leaf atoms strictly faster than every class with power exponent p0.

    Trees share these leaves; every inner node is built afresh."""
    return tuple(op.power_log(p0 + dp, q) for dp in (F(1, 4), F(1, 2), F(1), F(3, 2))
                 for q in (F(0), F(1, 2), F(1)))


def deep_tree(seed: int, depth: int, slow: tuple[F, F]) -> op.SeqExpr:
    """A chain of ``depth`` sum/max/scale/amp levels over power-log atoms.

    The slowest atom is ``pow(*slow)``; every side atom has a strictly larger
    power exponent, so the tree's growth class is that of ``pow(*slow)``.
    About a quarter of the side branches are small sums or maxes of atoms.
    """
    rng = random.Random(seed)
    e = op.power_log(*slow)
    atoms = _side_atoms(slow[0])
    last = None
    for _ in range(depth):
        kind = rng.randrange(4)
        if kind >= 2 and kind == last:
            kind = rng.randrange(2)
        last = kind
        if kind == 2:
            e = op.scale(rng.choice(SCALE_FACTORS), e)
            continue
        if kind == 3:
            e = op.ampliate(e, rng.choice((2, 3)))
            continue
        side = rng.choice(atoms)
        if rng.random() < 0.25:
            side = (op.seq_sum if rng.random() < 0.5 else op.seq_max)(side, rng.choice(atoms))
        combine = op.seq_sum if kind == 0 else op.seq_max
        e = combine(e, side) if rng.random() < 0.5 else combine(side, e)
    return e


SLOW_POWERS = (F(1, 2), F(1), F(3, 2))
SLOW_LOGS = (F(0), F(1, 2), F(1))
# depth strata; each tree adds a seeded 0..DEPTH_JITTER-1 levels, so depths
# cover 16..239 evenly and no percentile sits at a gap between strata
DEEP_DEPTHS = (16, 44, 72, 100, 128, 156, 184, 212)
DEPTH_JITTER = 28
DEEP_OPS = ("member", "big_o", "little_o")
REPEAT_EVERY = 4  # every fourth first question is asked again on an equal copy
REDUCE_FORMS = ("prod", "sum", "soft", "pow", "mixed")
# A fresh tree this deep overflows the interpreter's recursion limit.
FAULT_FRESH_DEPTH = 1000
# A tree this deep is decided once, but asking again on an equal copy makes
# the profile cache compare keys with the recursive dataclass __eq__.
FAULT_REPEAT_DEPTH = 340


def _slow_pair(rng: random.Random) -> tuple[tuple[F, F], tuple[F, F]]:
    """Two slowest-atom classes, the first strictly slower than the second."""
    classes = [(p, q) for p in SLOW_POWERS for q in SLOW_LOGS]
    i, j = sorted(rng.sample(range(len(classes)), 2))
    return classes[i], classes[j]


def _deep_question(kind: str, a, b) -> Question:
    if kind == "member":
        ideal = op.Principal(b)

        def ask():
            return op.member(a, ideal)
    elif kind == "big_o":
        def ask():
            return op.big_o(a, b)
    else:
        def ask():
            return op.little_o(a, b)
    return Question(kind, ask, lambda v: v.is_no)


def _reduce_question(form: str, a, b) -> Question:
    """``a`` decays strictly slower than ``b``; the reduced form is known."""
    pa, pb = op.Principal(a), op.Principal(b)
    if form == "prod":
        desc, expected = op.IdealProduct(pa, pb), op.Principal(op.seq_product(a, b))
    elif form == "sum":
        desc, expected = op.IdealSum(pa, pb), op.Principal(op.seq_sum(a, b))
    elif form == "soft":
        desc, expected = op.IdealProduct(pa, op.KH()), op.SoftInterior(a)
    elif form == "pow":
        desc, expected = op.IdealPower(pa, 2), op.Principal(op.seq_product(a, a))
    else:  # (b)K(H) lies in (b), which lies in (a)
        desc, expected = op.IdealSum(op.IdealProduct(pb, op.KH()), pa), pa

    def check(red) -> bool:
        return red == expected and op.reduce_ideal(red) == red

    return Question("reduce", lambda: op.reduce_ideal(desc), check)


def _fault_trees(r: int, depth: int) -> tuple[op.SeqExpr, op.SeqExpr]:
    """Fixed trees (independent of the seed); round r shifts one log exponent
    so that no round finds the previous round's trees in the profile cache."""
    q = F(r + 1, 1000)
    return deep_tree(depth, depth, (F(1), q)), deep_tree(depth + 1, depth, (F(2), q))


def _repeat_fault(r: int) -> Question:
    """member asked on a tree, then on an equal copy; the answer is the second.

    Both asks belong to one question, so the question fails whichever of the
    two raises (tracing wrappers deepen the recursion of the first)."""
    first, copy = _fault_trees(r, FAULT_REPEAT_DEPTH), _fault_trees(r, FAULT_REPEAT_DEPTH)

    def ask():
        op.member(first[0], op.Principal(first[1]))
        return op.member(copy[0], op.Principal(copy[1]))

    return Question("member-repeat", ask, lambda v: v.is_no, fault=f"repeat-{FAULT_REPEAT_DEPTH}")


def _fresh_fault(r: int) -> Question:
    q = _deep_question("member", *_fault_trees(r, FAULT_FRESH_DEPTH))
    q.fault = f"fresh-{FAULT_FRESH_DEPTH}"
    return q


def deep_exact(seed: int, rounds: int) -> Plan:
    rng = rng_for("deep-exact", seed, 0)

    def trees(depth: int):
        slow_a, slow_b = _slow_pair(rng)
        sa, sb = rng.getrandbits(32), rng.getrandbits(32)
        return lambda: (deep_tree(sa, depth, slow_a), deep_tree(sb, depth, slow_b))

    def reduce_q(form: str) -> Question:
        depth = rng.choice(DEEP_DEPTHS) + rng.randrange(DEPTH_JITTER)
        slow_a, slow_b = _slow_pair(rng)
        return _reduce_question(
            form,
            deep_tree(rng.getrandbits(32), depth, slow_a),
            deep_tree(rng.getrandbits(32), depth, slow_b),
        )

    timed: list[Question] = []
    for r in range(rounds):
        firsts, repeats = [], []
        slots = [(k, d) for d in DEEP_DEPTHS for k in DEEP_OPS]
        rng.shuffle(slots)
        for i, (kind, depth) in enumerate(slots):
            build = trees(depth + rng.randrange(DEPTH_JITTER))
            firsts.append(_deep_question(kind, *build()))
            if i % REPEAT_EVERY == 0:
                repeats.append(_deep_question(kind, *build()))  # a structurally equal copy
        firsts += [reduce_q(form) for form in REDUCE_FORMS]
        rng.shuffle(firsts)
        timed += firsts + repeats
        timed += [_repeat_fault(r), _fresh_fault(r)]

    warm_rng = rng_for("deep-exact", seed, 1)
    warmup = []
    for kind in DEEP_OPS:
        slow_a, slow_b = _slow_pair(warm_rng)
        depth = warm_rng.choice(DEEP_DEPTHS[:4])
        warmup.append(_deep_question(kind, deep_tree(warm_rng.getrandbits(32), depth, slow_a),
                                     deep_tree(warm_rng.getrandbits(32), depth, slow_b)))
    return Plan(warmup, timed)


# ---------------------------------------------------------------------------
# softness: the witness grid search, Yes and No


GEN_POWERS = (F(1, 2), F(1), F(3, 2), F(2))
GEN_LOGS = (F(0), F(1, 2), F(1))
GEN_RATIOS = (F(1, 2), F(1, 3), F(1, 5), F(2, 3))
S_RATIOS = (F(1, 2), F(1, 3), F(1, 4), F(2, 3), F(3, 4))
# is_soft searches ampliation orders m <= 32; a witness needs
# m >= 2 log(rate J) / log(rate S).  Seeded rate<1 questions keep well inside
# the grid so that only the kept faults reach the broken extension past it.
MAX_NEEDED_M = 24


@dataclass
class SoftCase:
    """S inside J, with the reference softness answer."""

    s: op.SeqExpr
    ideal: op.IdealDesc
    soft: bool


def _ideal_of(kind: str, g: op.SeqExpr, n: int) -> op.IdealDesc:
    if kind == "KH":
        return op.KH()
    if kind == "prin":
        return op.Principal(g)
    if kind == "soft":
        return op.IdealProduct(op.Principal(g), op.KH())
    return op.IdealPower(op.Principal(g), n)


def _rate_one_s(rng: random.Random, p: F, q: F, strict: bool) -> op.SeqExpr:
    """A power-log S whose class (p_s, q_s) lies at or past (p, q)."""
    dp = rng.choice((F(0), F(1, 4), F(1, 2), F(1)))
    dq = F(0) if dp else rng.choice((F(1, 2), F(1))) if strict else rng.choice((F(0), F(1, 2)))
    ps, qs = p + dp, q + dq
    faster = op.power_log(ps + F(1, 2), qs)
    shape = rng.randrange(5)
    if shape == 0:
        return op.power_log(ps, qs)
    if shape == 1:
        return op.seq_sum(op.power_log(ps, qs), faster)
    if shape == 2:
        return op.scale(rng.choice((F(2), F(1, 3), F(5, 2))), op.power_log(ps, qs))
    if shape == 3 and ps > 0:
        half = ps / 2
        return op.seq_product(op.power_log(half, qs), op.power_log(ps - half))
    return op.seq_max(faster, op.ampliate(op.power_log(ps, qs), 2))


def _geometric_s(rng: random.Random) -> tuple[op.SeqExpr, float]:
    r = rng.choice(S_RATIOS)
    lr = math.log(r)
    shape = rng.randrange(5)
    if shape == 0:
        return op.geometric(r), lr
    if shape == 1:
        return op.seq_product(op.geometric(r), op.power_log(rng.choice((F(1), F(2))))), lr
    if shape == 2:
        r2 = r * rng.choice((F(1, 2), F(1, 3)))
        return op.seq_sum(op.geometric(r), op.scale(F(3), op.geometric(r2))), lr
    if shape == 3:
        return op.ampliate(op.geometric(r), 2), lr / 2
    return op.decimate(op.geometric(r), 2), 2 * lr


def soft_case(rng: random.Random, j_kind: str, gen_kind: str, s_kind: str) -> SoftCase:
    """Draw S in J of the given kinds (gen_kind is 'pl', 'geo' or 'any')."""
    while True:
        n = rng.choice((2, 3))
        kind = rng.choice(("pl", "geo")) if gen_kind == "any" else gen_kind
        if kind == "geo":
            r = rng.choice(GEN_RATIOS)
            g, p, q = op.geometric(r), None, None
            j_rate = math.log(r) * (n if j_kind == "pow" else 1)
        else:
            p, q = rng.choice(GEN_POWERS), rng.choice(GEN_LOGS)
            g, j_rate = op.power_log(p, q), 0.0
        ideal = _ideal_of(j_kind, g, n)
        if j_kind == "KH":
            j_rate = 0.0
        if s_kind == "one":
            if j_kind == "KH":
                p, q = rng.choice(GEN_POWERS), rng.choice(GEN_LOGS)
            elif p is None:
                continue  # a rate-one S never lies in a geometric principal ideal
            k = n if j_kind == "pow" else 1
            s = _rate_one_s(rng, p * k, q * k, strict=(j_kind == "soft"))
            return SoftCase(s, ideal, False)
        s, s_rate = _geometric_s(rng)
        if j_rate and 2 * j_rate / s_rate > MAX_NEEDED_M:
            continue
        return SoftCase(s, ideal, True)


# one round: (J kind, generator kind, S kind).  In cost, the cheap KH No
# (10%) and the Yes answers (20%) come first, then the grid-exhausting No
# answers (60%) and the kept faults (10%), so the median and the p90 fall
# well inside the slow mode.
SOFT_ROUND = (
    [("KH", "any", "one")] * 2
    + [("KH", "any", "geo"), ("prin", "geo", "geo"), ("soft", "any", "geo"), ("pow", "any", "geo")]
    + [("prin", "pl", "one")] * 4
    + [("soft", "pl", "one")] * 4
    + [("pow", "pl", "one")] * 4
)
SOFT_FAULTS = (
    ("is_soft", "geo(49/50)", "prin(geo(1/2))"),
    ("classify", "geo(99/100)", "prin(geo(1/1000))"),
)


def softness_verdict_ok(verdict, soft: bool) -> bool:
    return verdict.is_yes if soft else verdict.is_no


def chain_ok(relations: list[str], soft: bool) -> bool:
    """All links equal exactly on a Yes; otherwise the last four are strict."""
    if soft:
        return relations == ["equal"] * 5
    return len(relations) == 5 and relations[1:] == ["strict"] * 4


def _soft_question(kind: str, case: SoftCase) -> Question:
    s, ideal, soft = case.s, case.ideal, case.soft
    if kind == "is_soft":
        return Question(kind, lambda: op.is_soft(s, ideal),
                        lambda res: softness_verdict_ok(res.verdict, soft))

    def check(rep) -> bool:
        return (softness_verdict_ok(rep.softness.verdict, soft)
                and softness_verdict_ok(rep.is_bh_ideal, soft)
                and chain_ok([link.relation for link in rep.chain], soft))

    return Question(kind, lambda: op.classify_principal(s, ideal), check)


def softness(seed: int, rounds: int) -> Plan:
    rng = rng_for("softness", seed, 0)
    timed: list[Question] = []
    for r in range(rounds):
        round_qs = []
        for i, (j_kind, gen_kind, s_kind) in enumerate(SOFT_ROUND):
            kind = ("is_soft", "classify")[(i + r) % 2]
            round_qs.append(_soft_question(kind, soft_case(rng, j_kind, gen_kind, s_kind)))
        for kind, s_text, j_text in SOFT_FAULTS:
            case = SoftCase(op.parse_seq(s_text), op.parse_ideal(j_text), True)
            q = _soft_question(kind, case)
            q.fault = f"{s_text} in {j_text}"
            round_qs.append(q)
        rng.shuffle(round_qs)
        timed += round_qs
    warm_rng = rng_for("softness", seed, 1)
    warmup = [_soft_question("is_soft", soft_case(warm_rng, "KH", "any", "geo")),
              _soft_question("classify", soft_case(warm_rng, "prin", "pl", "one"))]
    return Plan(warmup, timed)


# ---------------------------------------------------------------------------
# cli-oneshot: one interpreter per question


@dataclass
class CliQuestion:
    """A command line and the test its output must pass."""

    kind: str
    argv: list[str]
    check: Callable[[tuple[int, str]], bool]  # on (exit code, output)
    fault: str = ""


def _text_field(out: str, prefix: str) -> str | None:
    for line in out.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    return None


def _json_doc(out: str) -> dict:
    doc = json.loads(out)
    if doc.get("schema") != SCHEMA:
        raise ValueError("wrong schema")
    return doc


def _verdict_check(json_mode: bool, expected: str, path: tuple[str, ...]):
    def check(answer: tuple[int, str]) -> bool:
        code, out = answer
        if code != 0:
            return False
        if not json_mode:
            return _text_field(out, "verdict:") == expected
        node = _json_doc(out)
        for key in path:
            node = node[key]
        return node["outcome"] == expected
    return check


def _report_check(json_mode: bool, soft: bool):
    want = "yes" if soft else "no"

    def check(answer: tuple[int, str]) -> bool:
        code, out = answer
        if code != 0:
            return False
        if json_mode:
            rep = _json_doc(out)["report"]
            relations = [link["relation"] for link in rep["chain"]]
            bh = rep["is_bh_ideal"]["outcome"]
        else:
            relations = [{"=": "equal", "<": "strict", "?": "unknown"}[line.split()[2]]
                         for line in out.splitlines() if line.startswith("chain:")]
            bh = _text_field(out, "is a B(H)-ideal:")
        return bh == want and chain_ok(relations, soft)
    return check


def _oracle_check(json_mode: bool):
    def check(answer: tuple[int, str]) -> bool:
        code, out = answer
        if code != 0:
            return False
        if json_mode:
            return _json_doc(out)["oracle"]["passed"] is True
        return _text_field(out, "passed:") == "true"
    return check


ORACLE_N = 5000
SPLITS = (
    ("geo(1/4)", "prin(geo(1/2))", "prin(geo(1/2))"),
    ("geo(1/6)", "prin(geo(1/2))", "prin(geo(1/3))"),
    ("pow(3)", "prin(pow(1))", "prin(pow(2))"),
    ("pow(4)", "prin(pow(2))", "prin(pow(2))"),
)
# One round asks each command in text and in --json form on each of three
# fixed variants; the variants that exhaust the softness grid (a rate-one S
# in a principal J) are a fixed fifth of the round, so the p90 falls inside
# that slow mode on every seed.  variant -> (J kind, generator kind, S kind)
CLI_VARIANTS = {
    "member": (("prin", "any", "geo"), ("pow", "pl", "one"), ("no", "pl", "one")),
    "soft": (("KH", "any", "one"), ("prin", "pl", "one"), ("soft", "any", "geo")),
    "classify": (("KH", "any", "geo"), ("prin", "pl", "one"), ("pow", "any", "geo")),
    "classify-fg": (("KH", "any", "geo"), ("prin", "pl", "one"), ("prin", "pl", "geo")),
    "equal": (("KH", "any", "one"), ("KH", "any", "geo"), ("product", "any", "geo")),
    "principality2": (("KH", "any", "one"), ("prin", "pl", "one"), ("prin", "pl", "geo")),
}


def _deep_cli_expression(depth: int) -> str:
    e = "pow(1)"
    for i in range(depth):
        e = f"amp(2,{e})" if i % 2 else f"sum(pow(2),{e})"
    return e


def _cli_question(rng: random.Random, command: str, variant: tuple[str, str, str], json_mode: bool) -> CliQuestion:
    R, RI = op.render_seq, op.render_ideal
    flag = ["--json"] if json_mode else []
    j_kind, gen_kind, s_kind = variant
    if command == "member":
        if j_kind == "no":  # a power-log S strictly slower than a power-log generator
            p = rng.choice(GEN_POWERS)
            argv, want = [R(op.power_log(p / 2)), RI(op.Principal(op.power_log(p, rng.choice(GEN_LOGS))))], "no"
        else:
            case = soft_case(rng, j_kind, gen_kind, s_kind)
            argv, want = [R(case.s), RI(case.ideal)], "yes"
        return CliQuestion(command, ["member", *argv, *flag], _verdict_check(json_mode, want, ("verdict",)))
    if command == "equal":
        if j_kind == "product":
            a, b = _geometric_s(rng)[0], op.power_log(rng.choice(GEN_POWERS))
            left, right = op.IdealProduct(op.Principal(a), op.Principal(b)), op.Principal(op.seq_product(a, b))
            want = "yes"
        else:  # (S) equals (S)K(H) exactly when S is soft in K(H)
            case = soft_case(rng, j_kind, gen_kind, s_kind)
            left, right = op.Principal(case.s), op.IdealProduct(op.Principal(case.s), op.KH())
            want = "yes" if case.soft else "no"
        argv = ["equal", RI(left), RI(right), *flag]
        return CliQuestion(command, argv, _verdict_check(json_mode, want, ("verdict",)))
    case = soft_case(rng, j_kind, gen_kind, s_kind)
    if command == "soft":
        argv = ["soft", R(case.s), RI(case.ideal), *flag]
        want = "yes" if case.soft else "no"
        return CliQuestion(command, argv, _verdict_check(json_mode, want, ("softness", "verdict")))
    if command == "classify":
        return CliQuestion(command, ["classify", R(case.s), RI(case.ideal), *flag], _report_check(json_mode, case.soft))
    if command == "classify-fg":  # the second generator is geometric, so the first decides
        argv = ["classify-fg", R(case.s), R(_geometric_s(rng)[0]), RI(case.ideal), *flag]
        return CliQuestion(command, argv, _report_check(json_mode, case.soft))
    t = op.scale(rng.choice((F(2), F(1, 2), F(3))), case.s)  # equivalent to S
    want = "yes" if case.soft else "no"
    argv = ["principality2", R(case.s), R(t), RI(case.ideal), *flag]
    return CliQuestion(command, argv, _verdict_check(json_mode, want, ("verdict",)))


def cli_round(rng: random.Random, r: int) -> list[CliQuestion]:
    qs = [_cli_question(rng, command, variant, json_mode)
          for command, variants in CLI_VARIANTS.items() for variant in variants for json_mode in (False, True)]
    case = soft_case(rng, rng.choice(("KH", "prin")), "pl", "geo")
    json_mode = r % 2 == 1
    flag = ["--json"] if json_mode else []
    qs.append(CliQuestion("oracle-witness", ["oracle", "witness", op.render_seq(case.s), op.render_ideal(case.ideal),
                                             "--n", str(ORACLE_N), *flag], _oracle_check(json_mode)))
    qs.append(CliQuestion("oracle-split", ["oracle", "split", *rng.choice(SPLITS), "--n", str(ORACLE_N), *flag],
                          _oracle_check(json_mode)))
    rng.shuffle(qs)
    qs.append(CliQuestion("soft", ["soft", "geo(1/2)", "KH", "--grid", "1,1"],
                          _verdict_check(False, "yes", ()), fault="soft geo(1/2) KH --grid 1,1"))
    qs.append(CliQuestion("member", ["member", _deep_cli_expression(FAULT_FRESH_DEPTH), "prin(pow(3))"],
                          _verdict_check(False, "no", ()), fault=f"member on a {FAULT_FRESH_DEPTH}-level expression"))
    return qs


def cli_oneshot(seed: int, rounds: int) -> list[CliQuestion]:
    rng = rng_for("cli-oneshot", seed, 0)
    out = []
    for r in range(rounds):
        out += cli_round(rng, r)
    return out


def cli_warmup(seed: int) -> list[CliQuestion]:
    rng = rng_for("cli-oneshot", seed, 1)
    return [_cli_question(rng, "member", CLI_VARIANTS["member"][0], False),
            _cli_question(rng, "soft", CLI_VARIANTS["soft"][2], True)]


LIBRARY_WORKLOADS = {"compare-yes": compare_yes, "deep-exact": deep_exact, "softness": softness}
