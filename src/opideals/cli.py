"""Command-line front end: one-shot queries against the ideal calculus.

Exit codes: 0 when a Yes/No verdict or a report was delivered, 2 when the
verdict is Unknown, 1 for usage, parse, or domain errors.  ``--json`` emits
a single machine-readable document; identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from fractions import Fraction

from .classify import SubidealReport, classify_finitely_generated, classify_principal, two_generator_principality
from .compare import DEFAULT_SETTINGS, Certificate, Settings, Verdict, Witness
from .grammar import ParseError, parse_ideal, parse_seq, render_ideal, render_seq
from .ideals import PreconditionError, SoftnessResult, ideal_equal, is_soft, member
from .sequences import DomainError

SCHEMA = "opideals-report/1"


def _num_str(x) -> str | float | None:
    if x is None:
        return None
    if isinstance(x, Fraction):
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    return float(x)


def witness_to_dict(w: Witness | None):
    if w is None:
        return None
    return {
        "k": w.k,
        "m": w.m,
        "constant": _num_str(w.constant),
        "window": list(w.window) if w.window else None,
        "note": w.note,
    }


def certificate_to_dict(c: Certificate | None):
    if c is None:
        return None
    return {
        "window": list(c.window) if c.window else None,
        "note": c.note,
        "samples": [[n, v] for n, v in c.samples],
    }


def verdict_to_dict(v: Verdict):
    return {
        "outcome": v.outcome.value,
        "witness": witness_to_dict(v.witness),
        "certificate": certificate_to_dict(v.certificate),
        "reason": v.reason,
    }


def softness_to_dict(res: SoftnessResult):
    return {
        "verdict": verdict_to_dict(res.verdict),
        "k": res.k,
        "m": res.m,
        "t_witness": render_seq(res.t_witness) if res.t_witness is not None else None,
    }


def report_to_dict(rep: SubidealReport):
    return {
        "softness": softness_to_dict(rep.softness),
        "is_bh_ideal": verdict_to_dict(rep.is_bh_ideal),
        "collapse_target": render_ideal(rep.collapse_target) if rep.collapse_target else None,
        "chain": [
            {"lower": link.lower, "upper": link.upper, "relation": link.relation}
            for link in rep.chain
        ],
        "generators": [render_seq(g) for g in rep.generators],
        "ideal": render_ideal(rep.ideal),
    }


def oracle_to_dict(rep):
    return {
        "check": rep.check,
        "window": list(rep.window),
        "observed": [[n, v] for n, v in rep.observed],
        "target": rep.target,
        "tolerance": rep.tolerance,
        "passed": rep.passed,
        "detail": rep.detail,
    }


def settings_to_dict(s: Settings):
    return {k: v for k, v in dataclasses.asdict(s).items()}


def _parse_window(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        lo_i, hi_i = int(lo), int(hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("window must look like N0:N1") from exc
    if lo_i < 1 or hi_i < lo_i:
        raise argparse.ArgumentTypeError("window bounds must satisfy 1 <= N0 <= N1")
    return lo_i, hi_i


def _positive(kind: type):
    """A parser of positive finite numbers of type ``kind`` (0, nan and inf are refused)."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"not a number of type {kind.__name__}: {text!r}") from exc
        if not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
        return value

    return parse


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        k, m = (int(v) for v in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError("grid must look like K_MAX,M_MAX") from exc
    if k < 1 or m < 1:
        raise argparse.ArgumentTypeError("grid bounds must be positive")
    return k, m


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="opideals",
        description="Singular-sequence calculus for operator ideals",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser):
        p.add_argument("--window", type=_parse_window, default=None, help="sampling window N0:N1")
        p.add_argument("--tol", type=_positive(float), default=None, help="numeric tolerance / vanishing threshold")
        p.add_argument("--grid", type=_parse_grid, default=None,
                       help="witness search bounds K_MAX,M_MAX of --numeric and oracle split (symbolic needs none)")
        p.add_argument("--json", action="store_true", help="emit one machine-readable JSON document")
        p.add_argument("--numeric", action="store_true", help="force the sampled numeric fallback")

    p = sub.add_parser("member", help="is the sequence in the ideal?")
    p.add_argument("seq")
    p.add_argument("ideal")
    common(p)

    p = sub.add_parser("soft", help="is the principal ideal of SEQ soft in IDEAL?")
    p.add_argument("seq")
    p.add_argument("ideal")
    common(p)

    p = sub.add_parser("classify", help="classify the subideals generated by SEQ inside IDEAL")
    p.add_argument("seq")
    p.add_argument("ideal")
    common(p)

    p = sub.add_parser("classify-fg", help="classify a finitely generated subideal (last argument is the ideal)")
    p.add_argument("args", nargs="+", metavar="SEQ... IDEAL")
    common(p)

    p = sub.add_parser("principality2", help="is the two-generator subideal principal?")
    p.add_argument("seq_s")
    p.add_argument("seq_t")
    p.add_argument("ideal")
    p.add_argument("--not-disjoint", action="store_true", help="declare that supports are not disjoint")
    common(p)

    p = sub.add_parser("equal", help="are two ideal descriptions the same ideal?")
    p.add_argument("left")
    p.add_argument("right")
    common(p)

    p = sub.add_parser("oracle", help="numeric verification checks")
    osub = p.add_subparsers(dest="oracle_check", required=True)

    q = osub.add_parser("ratio", help="harmonic-vs-ampliation ratio limit 1/m")
    q.add_argument("m", type=int)
    q.add_argument("--n", type=_positive(int), default=10**6, help="window end")
    common(q)

    q = osub.add_parser("divergence", help="square-vs-cube ratio divergence")
    q.add_argument("m", type=int)
    q.add_argument("--n", type=_positive(int), default=10**6, help="window end")
    q.add_argument("--threshold", type=float, default=1e3)
    common(q)

    q = osub.add_parser("split", help="factor a member of a product ideal")
    q.add_argument("seq")
    q.add_argument("left")
    q.add_argument("right")
    q.add_argument("--n", type=_positive(int), default=10**5, help="dimension of the diagonal model")
    common(q)

    q = osub.add_parser("witness", help="check the softness witness numerically")
    q.add_argument("seq")
    q.add_argument("ideal")
    q.add_argument("--n", type=_positive(int), default=10**5, help="window end")
    common(q)

    return top


def _settings_from(ns: argparse.Namespace) -> Settings:
    kwargs = {}
    if getattr(ns, "window", None) is not None:
        kwargs["window_lo"], kwargs["window_hi"] = ns.window
    if getattr(ns, "tol", None) is not None:
        kwargs["vanishing_threshold"] = ns.tol
    if getattr(ns, "grid", None) is not None:
        kwargs["grid_k"], kwargs["grid_m"] = ns.grid
    return dataclasses.replace(DEFAULT_SETTINGS, **kwargs) if kwargs else DEFAULT_SETTINGS


def _emit(ns, doc: dict, text_lines: list[str]) -> None:
    if ns.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _verdict_exit(v: Verdict) -> int:
    return 2 if v.is_unknown else 0


def _verdict_lines(v: Verdict) -> list[str]:
    lines = [f"verdict: {v.outcome.value}"]
    if v.witness:
        w = v.witness
        parts = [f"{f}={val}" for f, val in (("k", w.k), ("m", w.m), ("C", _num_str(w.constant))) if val is not None]
        if w.window:
            parts.append(f"window={w.window[0]}..{w.window[1]}")
        if parts:
            lines.append("witness: " + ", ".join(parts))
        if w.note:
            lines.append(f"note: {w.note}")
    if v.certificate:
        c = v.certificate
        lines.append(f"certificate: {c.note}")
        if c.samples:
            lines.append("evidence: " + ", ".join(f"ratio({n})={val:.6g}" for n, val in c.samples))
    if v.reason:
        lines.append(f"reason: {v.reason}")
    return lines


def _run(ns: argparse.Namespace) -> int:
    settings = _settings_from(ns)
    mode = "numeric" if getattr(ns, "numeric", False) else "auto"
    doc: dict = {"schema": SCHEMA, "command": ns.command, "settings": settings_to_dict(settings)}

    if ns.command == "member":
        eta, ideal = parse_seq(ns.seq), parse_ideal(ns.ideal)
        v = member(eta, ideal, settings=settings, mode=mode)
        doc.update({"arguments": {"seq": render_seq(eta), "ideal": render_ideal(ideal)}, "verdict": verdict_to_dict(v)})
        _emit(ns, doc, [f"member {render_seq(eta)} in {render_ideal(ideal)}"] + _verdict_lines(v))
        return _verdict_exit(v)

    if ns.command == "soft":
        s, ideal = parse_seq(ns.seq), parse_ideal(ns.ideal)
        res = is_soft(s, ideal, settings=settings, mode=mode)
        doc.update({"arguments": {"seq": render_seq(s), "ideal": render_ideal(ideal)}, "softness": softness_to_dict(res)})
        lines = [f"softness of ({render_seq(s)}) in {render_ideal(ideal)}"] + _verdict_lines(res.verdict)
        if res.t_witness is not None:
            lines.append(f"t_witness: {render_seq(res.t_witness)}")
        _emit(ns, doc, lines)
        return _verdict_exit(res.verdict)

    if ns.command == "classify":
        s, ideal = parse_seq(ns.seq), parse_ideal(ns.ideal)
        rep = classify_principal(s, ideal, settings=settings, mode=mode)
        doc.update({"arguments": {"seq": render_seq(s), "ideal": render_ideal(ideal)}, "report": report_to_dict(rep)})
        _emit(ns, doc, _report_lines(rep))
        return _verdict_exit(rep.is_bh_ideal)

    if ns.command == "classify-fg":
        if len(ns.args) < 2:
            raise UsageError("classify-fg needs at least one sequence and the ideal")
        gens = [parse_seq(t) for t in ns.args[:-1]]
        ideal = parse_ideal(ns.args[-1])
        rep = classify_finitely_generated(gens, ideal, settings=settings, mode=mode)
        doc.update(
            {
                "arguments": {"generators": [render_seq(g) for g in gens], "ideal": render_ideal(ideal)},
                "report": report_to_dict(rep),
            }
        )
        _emit(ns, doc, _report_lines(rep))
        return _verdict_exit(rep.is_bh_ideal)

    if ns.command == "principality2":
        s, t = parse_seq(ns.seq_s), parse_seq(ns.seq_t)
        ideal = parse_ideal(ns.ideal)
        v = two_generator_principality(
            s, t, ideal, disjoint_supports=not ns.not_disjoint, settings=settings, mode=mode
        )
        doc.update(
            {
                "arguments": {"s": render_seq(s), "t": render_seq(t), "ideal": render_ideal(ideal)},
                "verdict": verdict_to_dict(v),
            }
        )
        _emit(ns, doc, [f"two-generator principality in {render_ideal(ideal)}"] + _verdict_lines(v))
        return _verdict_exit(v)

    if ns.command == "equal":
        left, right = parse_ideal(ns.left), parse_ideal(ns.right)
        v = ideal_equal(left, right, settings=settings, mode=mode)
        doc.update(
            {"arguments": {"left": render_ideal(left), "right": render_ideal(right)}, "verdict": verdict_to_dict(v)}
        )
        _emit(ns, doc, [f"equality of {render_ideal(left)} and {render_ideal(right)}"] + _verdict_lines(v))
        return _verdict_exit(v)

    if ns.command == "oracle":
        from . import oracle as _oracle

        if ns.oracle_check == "ratio":
            rep = _oracle.verify_ampliation_ratio(ns.m, n_max=ns.n, tolerance=1e-3 if ns.tol is None else ns.tol)
        elif ns.oracle_check == "divergence":
            rep = _oracle.verify_power_gap_divergence(ns.m, n_max=ns.n, threshold=ns.threshold)
        elif ns.oracle_check == "split":
            c = parse_seq(ns.seq)
            rep = _oracle.verify_product_split(c, parse_ideal(ns.left), parse_ideal(ns.right), n_max=ns.n, settings=settings)
        else:
            s, ideal = parse_seq(ns.seq), parse_ideal(ns.ideal)
            res = is_soft(s, ideal, settings=settings, mode=mode)
            if not res.verdict.is_yes:
                raise UsageError(
                    f"softness verdict is {res.verdict.outcome.value}; there is no witness to verify"
                )
            rep = _oracle.verify_softness_witness(s, res, n_max=ns.n, settings=settings)
        doc.update({"oracle": oracle_to_dict(rep)})
        tail = rep.observed[-1] if rep.observed else None
        lines = [
            f"check: {rep.check}",
            f"window: {rep.window[0]}..{rep.window[1]}  target: {rep.target:g}  tolerance: {rep.tolerance:g}",
            f"passed: {str(rep.passed).lower()}",
        ]
        if tail:
            lines.insert(2, f"tail observation: index {tail[0]}, value {tail[1]:.8g}")
        if rep.detail:
            lines.append(f"detail: {rep.detail}")
        _emit(ns, doc, lines)
        return 0

    raise UsageError(f"unknown command {ns.command!r}")


class UsageError(ValueError):
    pass


def _report_lines(rep: SubidealReport) -> list[str]:
    soft = rep.softness
    soft_line = f"softness: {soft.verdict.outcome.value}"
    if soft.k is not None:
        soft_line += f" (k={soft.k}" + (f", m={soft.m})" if soft.m is not None else ")")
    lines = [
        "generators: " + ", ".join(render_seq(g) for g in rep.generators),
        f"ideal J: {render_ideal(rep.ideal)}",
        soft_line,
        f"is a B(H)-ideal: {rep.is_bh_ideal.outcome.value}",
    ]
    if rep.collapse_target is not None:
        lines.append(f"collapses to: {render_ideal(rep.collapse_target)}")
    for link in rep.chain:
        rel = {"equal": "=", "strict": "<", "unknown": "?"}[link.relation]
        lines.append(f"chain: {link.lower} {rel} {link.upper}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        code = _run(ns)
        sys.stdout.flush()  # a closed reader shows here, inside the try
        return code
    except BrokenPipeError:
        # the reader has gone: point stdout at devnull, so that the flush at
        # exit is quiet too, and end without a word
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ParseError, DomainError, PreconditionError, UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # the safety net: any other failure is one line, never a traceback
        detail = " ".join(str(exc).split())
        what = (
            "input too large or too deeply nested"
            if isinstance(exc, (RecursionError, MemoryError, OverflowError))
            else "internal error"
        )
        print(f"error: {what} ({type(exc).__name__}{': ' + detail if detail else ''})", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
