"""What every node kind keeps, whatever builds its class.

A node kind is a slotted dataclass made by ``sequences.node``: its fields,
``__match_args__`` and slots are the dataclass ones, its ``__init__`` checks
its arguments in ``__post_init__``, it refuses assignment and deletion, and
``pickle`` and ``copy`` rebuild it.  Sequences and ideal descriptions alike.
"""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest

import opideals as op
from opideals.sequences import DomainError, Node

P1, G2 = op.power_log(1), op.geometric(Fraction(1, 2))

FIELDS = {
    op.PowerLog: ("p", "q"),
    op.Geometric: ("ratio",),
    op.Finite: ("values",),
    op.Scale: ("factor", "inner"),
    op.Ampliate: ("order", "inner"),
    op.Decimate: ("step", "inner"),
    op.Sum: ("left", "right"),
    op.Max: ("left", "right"),
    op.Product: ("left", "right"),
    op.Principal: ("generator",),
    op.KH: (),
    op.FH: (),
    op.ZeroIdeal: (),
    op.SoftInterior: ("generator",),
    op.IdealProduct: ("left", "right"),
    op.IdealSum: ("left", "right"),
    op.IdealPower: ("base", "exponent"),
}

# one node of every kind, nested: every sequence kind sits in SEQ, every ideal kind in IDEAL
SEQ = op.parse_seq("sum(max(scale(3,amp(2,pow(1,1/2))),dec(3,geo(1/2))),prod(fin(3,2,1),pow(1/2)))")
IDEAL = op.IdealSum(
    op.IdealPower(op.IdealProduct(op.Principal(SEQ), op.KH()), 3),
    op.IdealSum(op.IdealSum(op.FH(), op.ZeroIdeal()), op.SoftInterior(G2)),
)


def _every_node(root):
    todo, out = [root], []
    while todo:
        x = todo.pop()
        out.append(x)
        todo += [getattr(x, name) for name in x.__match_args__ if isinstance(getattr(x, name), Node)]
    return out


def test_the_samples_hold_every_kind():
    assert {type(x) for x in _every_node(SEQ) + _every_node(IDEAL)} == set(FIELDS)


@pytest.mark.parametrize("kind", list(FIELDS), ids=lambda k: k.__name__)
def test_fields_match_args_and_slots_are_unchanged(kind):
    names = FIELDS[kind]
    assert tuple(f.name for f in dataclasses.fields(kind)) == names
    assert kind.__match_args__ == names
    assert dataclasses.is_dataclass(kind)
    sample = next(x for x in _every_node(SEQ) + _every_node(IDEAL) if type(x) is kind)
    assert not hasattr(sample, "__dict__")
    assert set(names) <= set(kind.__slots__)


@pytest.mark.parametrize("root", [SEQ, IDEAL], ids=["sequence", "ideal"])
def test_pickle_and_copy_round_trips(root):
    op.reduce_ideal(IDEAL)  # fills the memo slots of the generators; they are not part of the state
    for clone in (pickle.loads(pickle.dumps(root)), copy.deepcopy(root), copy.copy(root)):
        assert type(clone) is type(root)
        assert clone == root and hash(clone) == hash(root)
        assert repr(clone) == repr(root)
    rebuilt = pickle.loads(pickle.dumps(SEQ))
    assert rebuilt is not SEQ and rebuilt.left is not SEQ.left
    assert rebuilt._profile is None
    assert op.member(rebuilt, op.Principal(P1)) == op.member(SEQ, op.Principal(P1))


@pytest.mark.parametrize("x", [SEQ, P1, IDEAL, op.KH()], ids=["sum", "pow", "ideal sum", "KH"])
def test_assignment_and_deletion_raise(x):
    for name in (*x.__match_args__, "_profile", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, 1)
        with pytest.raises(AttributeError):
            delattr(x, name)
    with pytest.raises(dataclasses.FrozenInstanceError, match="cannot assign to field 'other'"):
        x.other = 1


def test_positional_and_keyword_construction():
    one, half = Fraction(1), Fraction(1, 2)
    assert op.PowerLog(one) == op.PowerLog(p=one) == op.PowerLog(one, Fraction(0)) == P1
    assert op.PowerLog(one).q == Fraction(0) and type(op.PowerLog(one).q) is Fraction
    assert op.PowerLog(q=half, p=one) == op.PowerLog(one, half)
    assert op.Sum(left=P1, right=G2) == op.Sum(P1, G2)
    assert op.Ampliate(order=2, inner=P1) == op.Ampliate(2, P1)
    assert op.Finite(values=(one, Fraction(0))).values == (one,)  # __post_init__ runs for keywords too
    assert op.Principal(generator=P1) == op.Principal(P1)
    assert op.IdealPower(base=op.KH(), exponent=2) == op.IdealPower(op.KH(), 2)
    assert op.KH() == op.KH()
    with pytest.raises(TypeError):
        op.KH(1)
    with pytest.raises(TypeError):
        op.Sum(P1)
    with pytest.raises(TypeError):
        op.Geometric(ratio=half, other=1)


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: op.Geometric(Fraction(2)), DomainError),
        (lambda: op.PowerLog(Fraction(-1)), DomainError),
        (lambda: op.PowerLog(p=Fraction(0)), DomainError),
        (lambda: op.Ampliate(0, P1), DomainError),
        (lambda: op.Decimate(0, P1), DomainError),
        (lambda: op.Scale(Fraction(0), P1), DomainError),
        (lambda: op.Finite((Fraction(1), Fraction(2))), DomainError),
        (lambda: op.IdealPower(op.Principal(P1), 0), ValueError),
    ],
    ids=["geo(2)", "pow(-1)", "pow(0)", "amp(0,.)", "dec(0,.)", "scale(0,.)", "fin(1,2)", "pow(I,0)"],
)
def test_post_init_still_rejects(build, error):
    with pytest.raises(error):
        build()
