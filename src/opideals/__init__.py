"""Singular-sequence calculus for ideals of bounded operators.

The package decides membership, products, softness, and the classification
of principal and finitely generated subideals, working on the sequence
coordinates that characterize an operator ideal.  All values are immutable
and all operations are pure, so everything here is safe to share across
threads.  The only writes, an expression node memoising its own profile and
log envelope, store the same value whichever thread makes them; a node's
hash is computed afresh on each call and kept nowhere.
"""

from .classify import (
    CHAIN_POSITIONS,
    ChainLink,
    SubidealReport,
    classify_finitely_generated,
    classify_principal,
    nonlinearity_witness,
    probe_chain_link,
    two_generator_principality,
)
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

__all__ = [name for name in dir() if not name.startswith("_")]
