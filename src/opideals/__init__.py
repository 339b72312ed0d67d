"""Singular-sequence calculus for ideals of bounded operators.

The package decides membership, products, softness, and the classification
of principal and finitely generated subideals, working on the sequence
coordinates that characterize an operator ideal.  All values are immutable
and all operations are pure, so everything here is safe to share across
threads.  The only writes, an expression node memoising its own profile and
log envelope, store the same value whichever thread makes them: a memo slot
holds None until a thread that reads None folds the node.  A node's profile
memo may be the (frozen) ``Profile`` of one of its children, which no one
ever writes to.  A node's hash is computed afresh on each call and kept nowhere.

Importing the package loads the layers every question uses: ``sequences``,
``growth``, ``envelope``, ``compare``, ``ideals`` and ``grammar``.  The
classification names (``classify_principal`` and the rest of
``opideals.classify``) are served on first use through the module
``__getattr__`` (PEP 562); ``opideals.numeric`` (the sampled fallback of
``mode="numeric"``) and ``opideals.oracle`` load when they are called for.
"""

from .compare import (
    DEFAULT_SETTINGS,
    Certificate,
    Outcome,
    Settings,
    Verdict,
    Witness,
    big_o,
    little_o,
)
from .grammar import ParseError, parse_ideal, parse_seq, render_ideal, render_seq
from .ideals import (
    FH,
    IdealDesc,
    IdealPower,
    IdealProduct,
    IdealSum,
    KH,
    PreconditionError,
    Principal,
    SoftInterior,
    SoftnessResult,
    ZeroIdeal,
    ideal_equal,
    is_soft,
    member,
    reduce_ideal,
)
from .sequences import (
    Ampliate,
    Decimate,
    DomainError,
    Finite,
    Geometric,
    Max,
    PowerLog,
    Product,
    Scale,
    SeqExpr,
    Sum,
    ampliate,
    decimate,
    eval_log,
    eval_log_many,
    evaluate,
    finite,
    geometric,
    power_log,
    scale,
    seq_max,
    seq_product,
    seq_sum,
    support,
    value_stream,
)

__version__ = "0.1.0"

# the names of opideals.classify, which loads on the first access to one of them
_CLASSIFY = (
    "CHAIN_POSITIONS",
    "ChainLink",
    "SubidealReport",
    "classify_finitely_generated",
    "classify_principal",
    "nonlinearity_witness",
    "probe_chain_link",
    "two_generator_principality",
)


def __getattr__(name: str):
    if name not in _CLASSIFY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import classify

    value = globals()[name] = getattr(classify, name)  # later lookups find it directly
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_CLASSIFY})


# the names imported above, the submodules they loaded, and the classify names with their module
__all__ = sorted([name for name in globals() if not name.startswith("_")] + [*_CLASSIFY, "classify"])
