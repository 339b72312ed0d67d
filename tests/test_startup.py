"""What a one-shot question loads, each checked in a fresh interpreter.

``import opideals.cli`` and the questions that need neither the
classification, the oracle nor the numeric fallback leave
``opideals.classify``, ``opideals.oracle`` and ``opideals.numeric`` unloaded;
the commands and flags that need one of them load it.  The package keeps its
public names: ``__all__`` is pinned, every name in it resolves, and
``from opideals import *`` binds them all.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
LAZY = ("opideals.classify", "opideals.numeric", "opideals.oracle")

ALL = [
    "Ampliate", "CHAIN_POSITIONS", "Certificate", "ChainLink", "DEFAULT_SETTINGS", "Decimate", "DomainError",
    "FH", "Finite", "Geometric", "IdealDesc", "IdealPower", "IdealProduct", "IdealSum", "KH", "Max", "Outcome",
    "ParseError", "PowerLog", "PreconditionError", "Principal", "Product", "Scale", "SeqExpr", "Settings",
    "SoftInterior", "SoftnessResult", "SubidealReport", "Sum", "Verdict", "Witness", "ZeroIdeal", "ampliate",
    "big_o", "classify", "classify_finitely_generated", "classify_principal", "compare", "decimate", "envelope",
    "eval_log", "eval_log_many", "evaluate", "finite", "geometric", "grammar", "growth", "ideal_equal", "ideals",
    "is_soft", "little_o", "member", "nonlinearity_witness", "parse_ideal", "parse_seq", "power_log",
    "probe_chain_link", "reduce_ideal", "render_ideal", "render_seq", "scale", "seq_max", "seq_product", "seq_sum",
    "sequences", "support", "two_generator_principality", "value_stream",
]


def _fresh(code: str):
    """Run ``code`` in a fresh interpreter; it prints one JSON value last."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _loaded_after(*questions: list[str]) -> list[str]:
    """The lazily loaded modules present after ``opideals.cli.main`` answered each question."""
    code = f"""
import contextlib, io, json, sys
import opideals.cli
codes = []
for argv in {list(questions)!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(opideals.cli.main(argv))
print(json.dumps([codes, sorted(m for m in {LAZY!r} if m in sys.modules)]))
"""
    codes, loaded = _fresh(code)
    assert all(c in (0, 2) for c in codes), codes
    return loaded


def test_import_of_the_cli_loads_none_of_them():
    assert _loaded_after() == []


def test_symbolic_questions_load_none_of_them():
    assert _loaded_after(
        ["member", "geo(1/3)", "prin(geo(1/2))"],
        ["member", "pow(2)", "prin(pow(3))", "--json"],  # a No names its two classes, without the fallback
        ["member", "fin(3,2)", "pow(prin(geo(1/2)),3)", "--window", "4:64"],
        ["soft", "geo(1/2)", "KH"],
        ["soft", "pow(1)", "prin(pow(1/2))"],
        ["equal", "prod(prin(pow(1)),prin(pow(2)))", "prin(pow(3))"],
        ["equal", "prin(pow(1))", "prod(prin(pow(1)),KH)", "--json"],
    ) == []


# a question -> the lazily loaded modules it loads
LOADS = [
    (["classify", "geo(1/2)", "KH"], ["opideals.classify"]),
    (["classify-fg", "geo(1/2)", "pow(1)", "KH"], ["opideals.classify"]),
    (["principality2", "pow(1)", "scale(2,pow(1))", "KH"], ["opideals.classify"]),
    (["member", "pow(2)", "prin(pow(1))", "--numeric"], ["opideals.numeric"]),
    (["soft", "geo(1/2)", "KH", "--numeric"], ["opideals.numeric"]),
    (["oracle", "ratio", "2", "--n", "1000"], ["opideals.oracle"]),
]


@pytest.mark.parametrize("argv, loaded", LOADS, ids=[" ".join(argv) for argv, _ in LOADS])
def test_each_lazy_module_loads_for_its_commands(argv, loaded):
    assert _loaded_after(argv) == loaded


def test_all_is_pinned_and_every_name_resolves():
    code = """
import json, opideals
print(json.dumps([opideals.__all__, [n for n in opideals.__all__ if not hasattr(opideals, n)]]))
"""
    names, missing = _fresh(code)
    assert names == ALL
    assert missing == []


def test_star_import_binds_every_name():
    code = """
import json
import opideals
namespace = {}
exec("from opideals import *", namespace)
print(json.dumps(sorted(n for n in opideals.__all__ if namespace.get(n) is not getattr(opideals, n))))
"""
    assert _fresh(code) == []


def test_classify_names_are_the_module_ones():
    code = """
import json, opideals, opideals.classify as c
names = ["CHAIN_POSITIONS", "ChainLink", "SubidealReport", "classify_finitely_generated", "classify_principal",
         "nonlinearity_witness", "probe_chain_link", "two_generator_principality"]
print(json.dumps([n for n in names if getattr(opideals, n) is not getattr(c, n)] + sorted(set(names) - set(dir(opideals)))))
"""
    assert _fresh(code) == []
