"""The profile fold: memo slots, shared ``Profile`` memos, integer exponent comparison, bounded memory.

Every node starts with its memo slots at None, which ``sequences.fold``
reads as "not folded yet", and a clone made by ``pickle`` or ``copy``
starts the same way.  A fold calls one rule per distinct node, ever: a
slot fold leaves no slot None (a node of finite support keeps a marker as
its envelope), and a fold whose rules may return None keeps its values
in a dict.  A node whose class is a child's keeps the child's own frozen
``Profile`` object, so a deep chain holds one per distinct class.  The
power and log exponents are compared by integer cross-multiplication;
these tests hold it to ``Fraction`` comparison.  And a long-lived process
that keeps asking fresh questions keeps its memory bounded.
"""

from __future__ import annotations

import copy
import gc
import pickle
import random
import tracemalloc
from fractions import Fraction

import opideals as op
from opideals import envelope as envelope_module
from opideals import growth, oracle
from opideals.envelope import envelope
from opideals.growth import GrowthClass, Profile, class_big_o, class_little_o, min_ampliation_order, profile
from opideals.sequences import Node

from conftest import random_atom

ATOMS = (op.power_log(Fraction(3, 2)), op.power_log(Fraction(1, 2), 1), op.power_log(Fraction(1, 2), 2),
         op.power_log(2, Fraction(1, 2)))


def _nodes(root: Node) -> dict[int, Node]:
    """The distinct nodes below root (root included), by id."""
    todo, seen = [root], {}
    while todo:
        x = todo.pop()
        if id(x) not in seen:
            seen[id(x)] = x
            todo += [getattr(x, name) for name in x.__match_args__ if isinstance(getattr(x, name), Node)]
    return seen


def _counting(rules: dict, calls: list) -> dict:
    """``rules`` with each rule appending the id of the node it is called on to ``calls``."""

    def wrap(rule):
        def counted(e, *kids):
            calls.append(id(e))
            return rule(e, *kids)

        return counted

    return {kind: wrap(rule) for kind, rule in rules.items()}


def test_clones_start_with_empty_memo_slots_and_fold_alike():
    e = op.parse_seq("sum(max(scale(3,amp(2,pow(1,1/2))),dec(3,geo(1/2))),prod(fin(3,2,1),pow(1/2)))")
    assert e._profile is None and e._envelope is None
    assert op.big_o(e, op.power_log(Fraction(1, 4))).is_yes  # a certified constant: both slots filled
    assert all(n._profile is not None and n._envelope is not None for n in _nodes(e).values())
    for clone in (pickle.loads(pickle.dumps(e)), copy.copy(e), copy.deepcopy(e)):
        new = [n for i, n in _nodes(clone).items() if i not in _nodes(e)]  # copy.copy shares the children
        assert clone in new
        assert all(n._profile is None and n._envelope is None for n in new)
        assert profile(clone) == profile(e) and envelope(clone) == envelope(e)


def test_finite_children_keep_their_envelope(monkeypatch):
    t = op.parse_seq("sum(max(amp(2,fin(3,2,1)),pow(1)),sum(prod(fin(2,1),geo(1/2)),fin(5)))")
    envelope(t)
    finite = [n for n in _nodes(t).values() if profile(n).support is not None]
    assert len(finite) == 6 and all(n._envelope == envelope_module.FINITE for n in finite)
    calls = []
    monkeypatch.setattr(envelope_module, "_ENVELOPE", _counting(envelope_module._ENVELOPE, calls))
    envelope(t)
    assert calls == []
    # new parents over the finite children: their own rules only, none below them
    u = op.seq_sum(op.seq_max(t.right, t.left.left), op.power_log(2))
    envelope(u)
    assert sorted(calls) == sorted(map(id, (u, u.left, u.right)))


def test_a_reduced_power_folds_each_distinct_node_once(monkeypatch):
    calls = []
    monkeypatch.setattr(growth, "_PROFILE", _counting(growth._PROFILE, calls))
    reduced = op.reduce_ideal(op.parse_ideal("pow(prin(pow(1)),1099511627776)"))  # 2^40
    gen = reduced.generator
    assert profile(gen) == Profile(None, GrowthClass((), Fraction(2**40), Fraction(0)))
    distinct = _nodes(gen)
    assert len(distinct) == 41  # the atom and 40 squares
    assert sorted(calls) == sorted(distinct)
    profile(gen)
    assert len(calls) == 41


def test_folds_whose_rules_return_none_call_each_rule_once(monkeypatch):
    x = op.seq_sum(op.power_log(1), op.geometric(Fraction(1, 2)))
    y = op.seq_product(x, x)
    z = op.seq_product(y, op.seq_product(y, y))
    assert len(_nodes(z)) == 6
    for name, ask in (("_SQRT", oracle._exact_sqrt_expr), ("_RATIO", oracle._constant_ratio)):
        calls = []
        monkeypatch.setattr(oracle, name, _counting(getattr(oracle, name), calls))
        assert ask(z) is None
        assert sorted(calls) == sorted(_nodes(z)), name


def _chain(levels: int) -> op.SeqExpr:
    """A chain of sum, max, scale and ampliation nodes over the four shared atoms."""
    e = ATOMS[0]
    for i in range(1, levels + 1):
        atom = ATOMS[(i // 4) % len(ATOMS)]
        kind = i % 4
        if kind == 0:
            e = op.seq_sum(e, atom)
        elif kind == 1:
            e = op.seq_max(atom, e)
        elif kind == 2:
            e = op.scale(Fraction(3, 2), e)
        else:
            e = op.ampliate(e, 2 + i % 3)
    return e


def _spine(e: op.SeqExpr) -> list[op.SeqExpr]:
    """The chain's nodes from the root down, each followed by the atoms it joins in."""
    out = []
    while True:
        out.append(e)
        if isinstance(e, (op.Sum, op.Max)):
            inner, atom = (e.left, e.right) if isinstance(e, op.Sum) else (e.right, e.left)
            out.append(atom)
            e = inner
        elif isinstance(e, (op.Scale, op.Ampliate)):
            e = e.inner
        else:
            return out


def test_a_deep_chain_shares_one_profile_per_atom():
    levels = 10_000
    root = _chain(levels)
    profile(root)
    nodes = _spine(root)
    assert len(nodes) > levels
    assert len({id(n._profile) for n in nodes}) <= len(ATOMS)
    # the same values as a fold over a fresh equal tree, and as the slowest class joined in
    fresh = _chain(levels)
    assert fresh == root and fresh is not root
    profile(fresh)
    for a, b in zip(nodes, _spine(fresh)):
        assert a._profile == b._profile
    slowest = min(ATOMS, key=lambda atom: (atom.p, atom.q))
    assert root._profile == Profile(None, GrowthClass((), slowest.p, slowest.q))


def _reference_dominated(a: GrowthClass, b: GrowthClass, strict: bool) -> bool:
    """Domination on equal rates, written with ``Fraction`` operators."""
    if a.power != b.power:
        return a.power > b.power
    return a.logpower > b.logpower if strict else a.logpower >= b.logpower


BIG = 10**400


def _exponent(rng: random.Random) -> Fraction:
    roll = rng.random()
    if roll < 0.15:
        return Fraction(0)
    if roll < 0.6:
        return Fraction(rng.randrange(-12, 13), rng.randrange(1, 7))
    # numerators and denominators near 10^400, a few units apart
    return Fraction(rng.choice((1, -1)) * (BIG + rng.randrange(-3, 4)), BIG + rng.randrange(-3, 4))


def _exponent_pair(rng: random.Random) -> tuple[Fraction, Fraction]:
    x = _exponent(rng)
    return (x, x) if rng.random() < 0.3 else (x, _exponent(rng))


def test_integer_comparison_agrees_with_fractions():
    rng = random.Random(0x5EED)
    half, quarter = ((Fraction(1, 2), Fraction(1)),), ((Fraction(1, 4), Fraction(1)),)
    for _ in range(2500):
        (pa, pb), (qa, qb) = _exponent_pair(rng), _exponent_pair(rng)
        for rate in ((), half):
            a, b = GrowthClass(rate, pa, qa), GrowthClass(rate, pb, qb)
            assert class_big_o(a, b) is _reference_dominated(a, b, strict=False)
            assert class_little_o(a, b) is _reference_dominated(a, b, strict=True)
        # rate 1/2 against the 2-fold ampliation of rate 1/4: the rates tie at m = 2
        a, g = GrowthClass(half, pa, qa), GrowthClass(quarter, pb, qb)
        for strict in (False, True):
            want = 2 if _reference_dominated(a, g, strict) else 3
            assert min_ampliation_order(Profile(None, a), Profile(None, g), strict) == want


def _fresh_question(rng: random.Random):
    a, b = random_atom(rng), random_atom(rng)
    kind = rng.randrange(3)
    if kind == 0:
        return op.big_o(op.ampliate(a, rng.randrange(1, 4)), op.seq_sum(a, b))
    if kind == 1:
        return op.member(op.seq_max(a, b), op.Principal(op.ampliate(b, rng.randrange(1, 4))))
    return op.is_soft(op.geometric(Fraction(1, rng.randrange(2, 6))), op.Principal(op.seq_sum(a, b)))


def test_memory_stays_flat_over_rounds_of_fresh_questions():
    rng = random.Random(0x5EED)
    tracemalloc.start()
    try:
        sizes = []
        for _ in range(3):
            for _ in range(1000):
                _fresh_question(rng)
            gc.collect()
            sizes.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert abs(sizes[2] - sizes[0]) <= 64 * 1024, sizes
