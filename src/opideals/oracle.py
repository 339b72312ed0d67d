"""Desk-scale numeric verification against truncated diagonal operators.

Every symbolic verdict the engine issues has a finite-dimensional shadow:
ratios of harmonic-type sequences against their ampliations converge to
1/m, square-versus-cube ratios blow up, membership witnesses dominate over
long windows, and products of ideals split into genuine operator factors.
The checks here recompute those shadows directly so a verdict never rests
on the symbolic path alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .compare import DEFAULT_SETTINGS, Settings, sample_indices
from .ideals import (
    FH,
    IdealDesc,
    IdealProduct,
    KH,
    PreconditionError,
    Principal,
    SoftInterior,
    SoftnessResult,
    ZeroIdeal,
    reduce_ideal,
    require_member,
)
from . import sequences as sq
from .sequences import (
    SeqExpr,
    ampliate,
    eval_log_many,
    evaluate,
    seq_product,
    value_stream,
)


@dataclass(frozen=True)
class OracleReport:
    """Record of one numeric check.

    ``observed`` holds sampled (index, value) pairs across the whole
    approach; ``window`` is the tail range on which the criterion is
    enforced, and ``passed`` holds exactly when every observed value inside
    that window meets the target within the tolerance (or beyond the
    threshold, for divergence-style checks).
    """

    check: str
    window: tuple[int, int]
    observed: tuple[tuple[int, float], ...]
    target: float
    tolerance: float
    passed: bool
    detail: str = ""


def _enforce_limit(report_name: str, observed, window, target, tolerance, detail="") -> OracleReport:
    lo, hi = window
    passed = all(abs(v - target) <= tolerance for n, v in observed if lo <= n <= hi)
    return OracleReport(report_name, window, tuple(observed), target, tolerance, passed, detail)


def _require_window(n_max: int) -> None:
    if n_max < 1:  # a check over no indices would pass vacuously
        raise ValueError(f"the window end n_max must be at least 1, got {n_max}")


def verify_ampliation_ratio(
    m: int, n_max: int = 10**6, tolerance: float = 1e-3, samples: int = 96
) -> OracleReport:
    """Ratio of the harmonic sequence to its m-fold ampliation.

    At index k = m*j + r the ampliated sequence holds 1/(j+1), so the ratio
    (j+1)/k approaches 1/m; the check asserts the tail sits within the
    tolerance of that limit.
    """
    _require_window(n_max)
    if m < 1:
        raise ValueError("ampliation order must be positive")
    obs = []
    for k in sample_indices(1, n_max, samples):
        j = (k - 1) // m
        obs.append((k, (j + 1) / k))
    window = (max(1, n_max // 10), n_max)
    return _enforce_limit(
        f"ampliation-ratio m={m}", obs, window, 1.0 / m, tolerance,
        detail="ratio of 1/k to its m-fold ampliation",
    )


def verify_power_gap_divergence(
    m: int, n_max: int = 10**6, threshold: float = 1e3, samples: int = 96
) -> OracleReport:
    """Square-vs-cube ratio: 1/k^2 against the m-fold ampliation of 1/k^3.

    The ratio (j+1)^3 / k^2 with j = (k-1)//m grows like k/m^3, so the
    check asserts it exceeds the divergence threshold by the window end.
    """
    _require_window(n_max)
    if m < 1:
        raise ValueError("ampliation order must be positive")
    obs = []
    for k in sample_indices(1, n_max, samples):
        j = (k - 1) // m
        obs.append((k, (j + 1) ** 3 / k**2))
    window = (n_max, n_max)
    lo, hi = window
    passed = all(v >= threshold for n, v in obs if lo <= n <= hi)
    return OracleReport(
        f"power-gap-divergence m={m}", window, tuple(obs), threshold, 0.0, passed,
        detail="ratio of 1/k^2 to the m-fold ampliation of 1/k^3 must exceed the threshold",
    )


def _approx_sqrt(v: Fraction, scale: int = 1 << 20) -> Fraction:
    """A rational close to sqrt(v) from above (exact when v is a square)."""
    num, den = v.numerator, v.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    target = num * scale * scale
    root = math.isqrt((target + den - 1) // den)
    return Fraction(root + 1, scale)


def _frac_sqrt(v: Fraction) -> Fraction | None:
    rn, rd = math.isqrt(v.numerator), math.isqrt(v.denominator)
    if rn * rn == v.numerator and rd * rd == v.denominator:
        return Fraction(rn, rd)
    return None


def _exact_sqrt_expr(e: SeqExpr) -> SeqExpr | None:
    """An expression with exact rational values whose pointwise square is e."""
    return sq.fold(e, _SQRT)


def _sqrt_geometric(e: sq.Geometric) -> SeqExpr | None:
    r = _frac_sqrt(e.ratio)
    return sq.Geometric(r) if r is not None else None


def _sqrt_power_log(e: sq.PowerLog) -> SeqExpr | None:
    if e.q == 0 and e.p.denominator == 1 and e.p.numerator % 2 == 0 and e.p > 0:
        return sq.PowerLog(e.p / 2)
    return None


def _sqrt_finite(e: sq.Finite) -> SeqExpr | None:
    values = [_frac_sqrt(v) for v in e.values]
    return sq.Finite(tuple(values)) if None not in values else None


def _sqrt_scale(e: sq.Scale, root: SeqExpr | None) -> SeqExpr | None:
    c = _frac_sqrt(e.factor)
    return sq.scale(c, root) if c is not None and root is not None else None


# node type -> a square root of such a node from its children's, or None
_SQRT = {
    sq.Geometric: _sqrt_geometric,
    sq.PowerLog: _sqrt_power_log,
    sq.Finite: _sqrt_finite,
    sq.Scale: _sqrt_scale,
    sq.Ampliate: lambda e, root: None if root is None else sq.ampliate(root, e.order),
    sq.Decimate: lambda e, root: None if root is None else sq.decimate(root, e.step),
    sq.Sum: lambda e, a, b: None,
    sq.Max: lambda e, a, b: None,
    sq.Product: lambda e, a, b: None if a is None or b is None else seq_product(a, b),
}


def _constant_ratio(e: SeqExpr) -> Fraction | None:
    """The step ratio e(n+1)/e(n) when it is the same rational at every n."""
    return sq.fold(e, _RATIO)


# node type -> the constant step ratio of such a node from its children's, or None
_RATIO = dict.fromkeys((sq.PowerLog, sq.Finite, sq.Ampliate, sq.Decimate, sq.Sum, sq.Max), lambda e, *ratios: None)
_RATIO |= {
    sq.Geometric: lambda e: e.ratio,
    sq.Scale: lambda e, r: r,
    sq.Product: lambda e, a, b: None if a is None or b is None else a * b,
}


def verify_product_split(
    c_expr: SeqExpr,
    left: IdealDesc,
    right: IdealDesc,
    n_max: int = 10**5,
    settings: Settings = DEFAULT_SETTINGS,
) -> OracleReport:
    """Split a member of a product ideal into two diagonal factors.

    Builds diagonal X, Y with X*Y reconstructing diag(c) entry for entry in
    exact rational arithmetic, and checks each factor against its ideal over
    the window: domination by an ampliated generator for principal factors,
    decay to zero for compact ones.

    Constant-step (geometric-type) streams are proved exact by induction
    (base entry plus one step-ratio identity) and spot-checked on the
    sampled grid, which keeps million-bit integers out of the dense loop.
    """
    _require_window(n_max)
    prod = reduce_ideal(IdealProduct(left, right))
    require_member(c_expr, prod, "the sequence must belong to the product ideal; verdict", settings=settings)
    rl, rr = reduce_ideal(left), reduce_ideal(right)
    gen_l = rl.generator if isinstance(rl, (Principal, SoftInterior)) else None
    gen_r = rr.generator if isinstance(rr, (Principal, SoftInterior)) else None
    if rl == rr or (gen_l is None and gen_r is None):
        driver = "sqrt"  # symmetric factors: x_n = y_n ~ sqrt(c_n)
    elif gen_l is not None:
        driver = "left"  # x from the left generator, y the exact cofactor
    else:
        driver = "right"

    probe = sorted(set(sample_indices(1, n_max, 64)) | set(range(1, min(n_max, 64) + 1)))
    x_expr, y_expr = _split_expressions(c_expr, gen_l, gen_r, driver)

    proven = False
    if x_expr is not None and y_expr is not None:
        rc = _constant_ratio(c_expr)
        rx, ry = _constant_ratio(x_expr), _constant_ratio(y_expr)
        if rc is not None and rx is not None and ry is not None:
            base_ok = evaluate(x_expr, 1) * evaluate(y_expr, 1) == evaluate(c_expr, 1)
            step_ok = rx * ry == rc
            proven = base_ok and step_ok

    observed: list[tuple[int, float]] = []
    xs: list[tuple[int, float]] = []
    ys: list[tuple[int, float]] = []
    max_err = 0.0
    exact = True

    if proven:
        # induction gives zero error at every index; confirm on the grid
        for n in probe:
            x_n, y_n, c_n = evaluate(x_expr, n), evaluate(y_expr, n), evaluate(c_expr, n)
            err = 0.0 if x_n * y_n == c_n else float(abs(x_n * y_n - c_n) / c_n)
            max_err = max(max_err, err)
            observed.append((n, err))
            xs.append((n, float(x_n)))
            ys.append((n, float(y_n)))
        mode_note = "constant-ratio induction, grid-confirmed"
    else:
        # dense scan; cap it when geometric growth would drag huge integers in
        dense_hi = n_max if _constant_ratio(c_expr) is None else min(n_max, 4096)
        if driver == "sqrt":
            g_expr = x_expr  # None means per-index approximate square roots
        else:
            g_expr = gen_l if driver == "left" else gen_r
        beyond = [p for p in probe if p > dense_hi]

        def values(e):  # the dense head streamed, then the probes beyond it
            return itertools.chain(itertools.islice(value_stream(e), dense_hi), (evaluate(e, n) for n in beyond))

        g_values = values(g_expr) if g_expr is not None else itertools.repeat(None)
        probe_set = set(probe)
        for n, c_n, g_n in zip([*range(1, dense_hi + 1), *beyond], values(c_expr), g_values):
            x_n, y_n, err, is_exact = _split_entry(c_n, g_n, driver)
            exact = exact and is_exact
            max_err = max(max_err, err)
            if n in probe_set or n <= 8:
                observed.append((n, err))
                xs.append((n, float(x_n)))
                ys.append((n, float(y_n)))
        mode_note = (
            "dense exact scan" if dense_hi == n_max else f"dense scan to {dense_hi}, grid beyond"
        )

    tolerance = 0.0 if exact else 1e-12
    ok_x = _factor_membership(xs, rl, gen_l, settings, n_max)
    ok_y = _factor_membership(ys, rr, gen_r, settings, n_max)
    ok = max_err <= tolerance and ok_x and ok_y
    detail = (
        f"max relative reconstruction error {max_err!r} ({mode_note}); "
        f"factor membership checks {'passed' if ok_x and ok_y else 'FAILED'}"
    )
    return OracleReport("product-split", (1, n_max), tuple(observed), 0.0, tolerance, ok, detail)


def _split_expressions(c_expr, gen_l, gen_r, driver):
    """Closed forms for the two factors, where a closed form exists."""
    if driver == "sqrt":
        root = _exact_sqrt_expr(c_expr)
        return root, root
    gen = gen_l if driver == "left" else gen_r
    rc, rg = _constant_ratio(c_expr), _constant_ratio(gen)
    other = None
    if rc is not None and rg is not None:
        ratio = rc / rg
        first = evaluate(c_expr, 1) / evaluate(gen, 1)
        if 0 < ratio < 1 and first > 0:
            other = sq.scale(first / ratio, sq.geometric(ratio))
    if driver == "left":
        return gen, other
    return other, gen


def _split_entry(c_n, g_n, driver):
    """One reconstruction step: (x_n, y_n, relative error, exact arithmetic?)."""
    zero = Fraction(0)
    if c_n == 0:
        if driver == "left":
            return (g_n if g_n is not None else zero), zero, 0.0, True
        if driver == "right":
            return zero, (g_n if g_n is not None else zero), 0.0, True
        return zero, zero, 0.0, True
    if driver == "sqrt":
        if g_n is None:
            g_n = _approx_sqrt(c_n) if isinstance(c_n, Fraction) else math.sqrt(float(c_n))
        x_n, y_n = g_n, c_n / g_n
    elif driver == "left":
        if not g_n:
            raise PreconditionError("left factor vanishes where the product does not")
        x_n, y_n = g_n, c_n / g_n
    else:
        if not g_n:
            raise PreconditionError("right factor vanishes where the product does not")
        x_n, y_n = c_n / g_n, g_n
    if isinstance(x_n, Fraction) and isinstance(y_n, Fraction) and isinstance(c_n, Fraction):
        err = 0.0 if x_n * y_n == c_n else float(abs(x_n * y_n - c_n) / c_n)
        return x_n, y_n, err, True
    err = abs(float(x_n) * float(y_n) - float(c_n)) / float(c_n)
    return x_n, y_n, err, False


def _factor_membership(
    samples: list, red: IdealDesc, gen: SeqExpr | None, settings: Settings, n_max: int
) -> bool:
    """Windowed membership evidence for one diagonal factor."""
    if isinstance(red, (KH, FH, ZeroIdeal)) or gen is None:
        # compact-style factor: the sampled entries must decay to a small
        # fraction of their starting size by the window end
        vals = [float(v) for _, v in samples]
        if not vals:
            return True
        head = max(vals[: max(1, len(vals) // 8)])
        tail = max(vals[-max(1, len(vals) // 8):])
        return head == 0 or tail <= head * 0.05
    nonzero = [(n, math.log(float(v))) for n, v in samples if float(v) != 0.0]
    ns = [n for n, _ in nonzero]
    best = math.inf
    for m in range(1, settings.grid_m + 1):
        tls = eval_log_many(ampliate(gen, m), ns)
        if -math.inf in tls:
            worst = math.inf
        else:
            worst = max((math.exp(min(lv - tl, 700.0)) for (_, lv), tl in zip(nonzero, tls)), default=0.0)
        best = min(best, worst)
        if best <= 4.0:
            return True
    return best < math.inf


def verify_softness_witness(
    s_expr: SeqExpr,
    result: SoftnessResult,
    n_max: int = 10**5,
    settings: Settings = DEFAULT_SETTINGS,
) -> OracleReport:
    """Check a Yes softness witness numerically: s <= C * D_k(s) * T.

    Samples a dense head plus a geometric grid across the window and
    requires the witnessed constant to dominate everywhere.
    """
    _require_window(n_max)
    if not result.verdict.is_yes:
        raise PreconditionError("only Yes softness results carry a checkable witness")
    if result.t_witness is None:
        raise PreconditionError("softness result lacks a witness sequence")
    k = result.k or 1
    witness = result.verdict.witness
    exact = witness.constant if witness and witness.constant is not None else 2
    constant = float(exact) if exact < 1e300 else math.inf  # a certified constant can pass the float range
    bound_expr = seq_product(ampliate(s_expr, k), result.t_witness)
    idx = sorted(set(range(1, min(n_max, 2048) + 1)) | set(sample_indices(1, n_max, 96)))
    observed = []
    worst = 0.0
    for n, ls, lb in zip(idx, eval_log_many(s_expr, idx), eval_log_many(bound_expr, idx)):
        if ls == -math.inf:
            observed.append((n, 0.0))
            continue
        ratio = math.inf if lb == -math.inf else math.exp(min(ls - lb, 700.0))
        worst = max(worst, ratio)
        observed.append((n, ratio))
    passed = worst <= constant * (1 + 1e-9)
    return OracleReport(
        "softness-witness",
        (1, n_max),
        tuple(observed[:: max(1, len(observed) // 96)]),
        constant,
        constant * 1e-9,
        passed,
        detail=f"worst ratio {worst:.6g} against witnessed constant {constant:.6g} (k={k})",
    )
