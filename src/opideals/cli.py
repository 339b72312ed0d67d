"""Command-line front end: one-shot queries against the ideal calculus.

Exit codes: 0 when a Yes/No verdict or a report was delivered, 2 when the
verdict is Unknown, 1 for usage, parse, or domain errors.  ``--json`` emits
a single machine-readable document; identical invocations produce
byte-identical output.

``COMMANDS`` gives each command its help text, its positional arguments and
the heading of its text output; ``build_parser`` makes one subcommand per
row and adds the shared flags to each.  A command's answer is a ``Verdict``,
a ``SoftnessResult`` or a ``SubidealReport``, and ``RESULTS`` gives each of
these types, by name, its JSON key, the verdict whose Unknown sets exit code
2 and its text lines, so every result is rendered in one place.  The
``oracle`` checks answer with an ``OracleReport`` and always exit 0.

A question loads only the layers it uses: ``opideals.classify`` is imported
for ``classify``, ``classify-fg`` and ``principality2`` only,
``opideals.oracle`` for ``oracle`` only, and ``opideals.numeric`` (through
``compare`` and ``ideals``) under ``--numeric`` only.

The ``opideals-report/1`` document is written by one ``json.dumps`` whose
``_encode`` turns a node into its canonical text, a ``Fraction`` into ``n``
or ``n/d`` and any other dataclass into the dict of its fields.  So the
schema is defined by the fields of the result dataclasses (``Verdict``,
``Witness``, ``Certificate``, ``SoftnessResult``, ``SubidealReport``,
``ChainLink``, ``OracleReport`` and ``Settings``): a field added to one of
them is a schema change.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .compare import DEFAULT_SETTINGS, Settings, Verdict
from .grammar import ParseError, parse_ideal, parse_seq, render_ideal, render_seq
from .ideals import IdealDesc, PreconditionError, SoftnessResult, ideal_equal, is_soft, member
from .sequences import DomainError, SeqExpr

if TYPE_CHECKING:
    from .classify import SubidealReport

SCHEMA = "opideals-report/1"


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


# command -> (help, positional arguments, heading of the text output); build_parser adds the shared flags
COMMANDS = {
    "member": ("is the sequence in the ideal?", ("seq", "ideal"), "member {seq} in {ideal}"),
    "soft": ("is the principal ideal of SEQ soft in IDEAL?", ("seq", "ideal"), "softness of ({seq}) in {ideal}"),
    "classify": ("classify the subideals generated by SEQ inside IDEAL", ("seq", "ideal"), None),
    "classify-fg": ("classify a finitely generated subideal (last argument is the ideal)", ("SEQ... IDEAL",), None),
    "principality2": ("is the two-generator subideal principal?", ("seq_s", "seq_t", "ideal"),
                      "two-generator principality in {ideal}"),
    "equal": ("are two ideal descriptions the same ideal?", ("left", "right"), "equality of {left} and {right}"),
}
ORACLE_CHECKS = {
    "ratio": ("harmonic-vs-ampliation ratio limit 1/m", ()),
    "divergence": ("square-vs-cube ratio divergence", ()),
    "split": ("factor a member of a product ideal", ("seq", "left", "right")),
    "witness": ("check the softness witness numerically", ("seq", "ideal")),
}


def _subparsers(parent, table: dict) -> dict[str, argparse.ArgumentParser]:
    parsers = {}
    for name, (help_text, positionals, *_) in table.items():
        p = parsers[name] = parent.add_parser(name, help=help_text)
        for arg in positionals:
            if " " in arg:  # "SEQ... IDEAL": one or more words
                p.add_argument("args", nargs="+", metavar=arg)
            else:
                p.add_argument(arg)
    return parsers


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="opideals",
        description="Singular-sequence calculus for operator ideals",
    )
    sub = top.add_subparsers(dest="command", required=True)
    commands = _subparsers(sub, COMMANDS)
    commands["principality2"].add_argument("--not-disjoint", action="store_true",
                                           help="declare that supports are not disjoint")
    oracle = sub.add_parser("oracle", help="numeric verification checks")
    checks = _subparsers(oracle.add_subparsers(dest="oracle_check", required=True), ORACLE_CHECKS)
    for name in ("ratio", "divergence"):
        checks[name].add_argument("m", type=int)
    for name, n_default, n_help in (("ratio", 10**6, "window end"), ("divergence", 10**6, "window end"),
                                    ("split", 10**5, "dimension of the diagonal model"),
                                    ("witness", 10**5, "window end")):
        checks[name].add_argument("--n", type=_positive(int), default=n_default, help=n_help)
    checks["divergence"].add_argument("--threshold", type=float, default=1e3)
    for p in (*commands.values(), *checks.values()):
        p.add_argument("--window", type=_parse_window, default=None,
                       help="sampling window N0:N1 of --numeric answers (a symbolic Yes echoes its end)")
        p.add_argument("--tol", type=_positive(float), default=None, help="numeric tolerance / vanishing threshold")
        p.add_argument("--grid", type=_parse_grid, default=None,
                       help="witness search bounds K_MAX,M_MAX of --numeric and oracle split (symbolic needs none)")
        p.add_argument("--json", action="store_true", help="emit one machine-readable JSON document")
        p.add_argument("--numeric", action="store_true", help="force the sampled numeric fallback")
    return top


def _settings_from(ns: argparse.Namespace) -> Settings:
    kwargs = {}
    if ns.window is not None:
        kwargs["window_lo"], kwargs["window_hi"] = ns.window
    if ns.tol is not None:
        kwargs["vanishing_threshold"] = ns.tol
    if ns.grid is not None:
        kwargs["grid_k"], kwargs["grid_m"] = ns.grid
    return dataclasses.replace(DEFAULT_SETTINGS, **kwargs) if kwargs else DEFAULT_SETTINGS


def _encode(x):
    """The JSON form of what ``json`` cannot write itself: a node, a ``Fraction``, a dataclass."""
    if isinstance(x, IdealDesc):
        return render_ideal(x)
    if isinstance(x, SeqExpr):
        return render_seq(x)
    if isinstance(x, Fraction):
        return str(x)  # n or n/d
    if dataclasses.is_dataclass(x):
        return {f.name: getattr(x, f.name) for f in dataclasses.fields(x)}
    raise TypeError(f"no JSON form for {type(x).__name__}")


def _verdict_lines(v: Verdict) -> list[str]:
    lines = [f"verdict: {v.outcome.value}"]
    if v.witness:
        w = v.witness
        parts = [f"{f}={val}" for f, val in (("k", w.k), ("m", w.m), ("C", w.constant)) if val is not None]
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


def _softness_lines(res: SoftnessResult) -> list[str]:
    tail = [] if res.t_witness is None else [f"t_witness: {render_seq(res.t_witness)}"]
    return _verdict_lines(res.verdict) + tail


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


def _oracle_lines(rep) -> list[str]:
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
    return lines


# name of the result type -> (its JSON key, the verdict that sets the exit code, its text lines);
# keyed by name, so that SubidealReport's module loads only for the commands that answer with one
RESULTS = {
    "Verdict": ("verdict", lambda v: v, _verdict_lines),
    "SoftnessResult": ("softness", lambda res: res.verdict, _softness_lines),
    "SubidealReport": ("report", lambda rep: rep.is_bh_ideal, _report_lines),
}


class UsageError(ValueError):
    pass


def _answer(ns: argparse.Namespace, settings: Settings, mode: str):
    """Parse the arguments, answer, then render the arguments: (result, the arguments as rendered)."""
    kw = {"settings": settings, "mode": mode}
    if ns.command == "equal":
        left, right = parse_ideal(ns.left), parse_ideal(ns.right)
        return ideal_equal(left, right, **kw), {"left": render_ideal(left), "right": render_ideal(right)}
    if ns.command in ("member", "soft"):
        s, ideal = parse_seq(ns.seq), parse_ideal(ns.ideal)
        result = (member if ns.command == "member" else is_soft)(s, ideal, **kw)
        return result, {"seq": render_seq(s), "ideal": render_ideal(ideal)}
    from . import classify  # imported here: only these three commands need it

    if ns.command == "classify-fg":
        if len(ns.args) < 2:
            raise UsageError("classify-fg needs at least one sequence and the ideal")
        gens, ideal = [parse_seq(t) for t in ns.args[:-1]], parse_ideal(ns.args[-1])
        rep = classify.classify_finitely_generated(gens, ideal, **kw)
        return rep, {"generators": [render_seq(g) for g in gens], "ideal": render_ideal(ideal)}
    if ns.command == "principality2":
        s, t, ideal = parse_seq(ns.seq_s), parse_seq(ns.seq_t), parse_ideal(ns.ideal)
        v = classify.two_generator_principality(s, t, ideal, disjoint_supports=not ns.not_disjoint, **kw)
        return v, {"s": render_seq(s), "t": render_seq(t), "ideal": render_ideal(ideal)}
    s, ideal = parse_seq(ns.seq), parse_ideal(ns.ideal)
    return classify.classify_principal(s, ideal, **kw), {"seq": render_seq(s), "ideal": render_ideal(ideal)}


def _check(ns: argparse.Namespace, settings: Settings, mode: str):
    from . import oracle as _oracle  # imported here: most one-shot questions never need it

    if ns.oracle_check == "ratio":
        return _oracle.verify_ampliation_ratio(ns.m, n_max=ns.n, tolerance=1e-3 if ns.tol is None else ns.tol)
    if ns.oracle_check == "divergence":
        return _oracle.verify_power_gap_divergence(ns.m, n_max=ns.n, threshold=ns.threshold)
    if ns.oracle_check == "split":
        c = parse_seq(ns.seq)
        return _oracle.verify_product_split(c, parse_ideal(ns.left), parse_ideal(ns.right), n_max=ns.n,
                                            settings=settings)
    s, ideal = parse_seq(ns.seq), parse_ideal(ns.ideal)
    res = is_soft(s, ideal, settings=settings, mode=mode)
    if not res.verdict.is_yes:
        raise UsageError(f"softness verdict is {res.verdict.outcome.value}; there is no witness to verify")
    return _oracle.verify_softness_witness(s, res, n_max=ns.n, settings=settings)


def _run(ns: argparse.Namespace) -> int:
    settings = _settings_from(ns)
    mode = "numeric" if ns.numeric else "auto"
    doc: dict = {"schema": SCHEMA, "command": ns.command, "settings": settings}
    if ns.command == "oracle":
        doc["oracle"] = rep = _check(ns, settings, mode)
        code, lines = 0, _oracle_lines(rep)
    else:
        result, arguments = _answer(ns, settings, mode)
        key, verdict_of, lines_of = RESULTS[type(result).__name__]
        doc.update({"arguments": arguments, key: result})
        code = 2 if verdict_of(result).is_unknown else 0
        heading = COMMANDS[ns.command][2]
        lines = ([heading.format(**arguments)] if heading else []) + lines_of(result)
    # encoded in text mode too: a result node whose text is too long to render fails in both modes
    text = json.dumps(doc, indent=2, sort_keys=True, default=_encode)
    print(text if ns.json else "\n".join(lines))
    return code


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
