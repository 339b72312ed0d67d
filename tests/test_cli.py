import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import opideals as op
from opideals.cli import main

from conftest import random_expr


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_soft_yes_exit_zero(capsys):
    code, out, _ = run(capsys, "soft", "geo(1/2)", "KH")
    assert code == 0
    assert "verdict: yes" in out
    assert "k=2" in out


def test_soft_no_exit_zero(capsys):
    code, out, _ = run(capsys, "soft", "pow(1)", "KH")
    assert code == 0
    assert "verdict: no" in out


def test_member_json_document(capsys):
    code, out, _ = run(capsys, "member", "pow(2)", "prin(pow(3))", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "opideals-report/1"
    assert doc["verdict"]["outcome"] == "no"
    assert doc["verdict"]["certificate"]["note"]
    assert doc["arguments"] == {"ideal": "prin(pow(3))", "seq": "pow(2)"}


def test_classify_json_strict_chain(capsys):
    code, out, _ = run(capsys, "classify", "pow(1)", "KH", "--json")
    assert code == 0
    doc = json.loads(out)
    rels = [link["relation"] for link in doc["report"]["chain"]]
    assert rels[1:] == ["strict"] * 4
    assert doc["report"]["is_bh_ideal"]["outcome"] == "no"


def test_classify_fg_and_principality(capsys):
    code, out, _ = run(capsys, "classify-fg", "geo(1/2)", "geo(1/4)", "KH", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["is_bh_ideal"]["outcome"] == "yes"
    code, out, _ = run(capsys, "principality2", "pow(1)", "pow(1)", "KH")
    assert code == 0
    assert "verdict: no" in out


def test_equal_command(capsys):
    code, out, _ = run(capsys, "equal", "prin(geo(1/2))", "prod(prin(geo(1/2)),KH)")
    assert code == 0
    assert "verdict: yes" in out


def test_unknown_maps_to_exit_two(capsys):
    # a log-order gap is numerically unresolvable inside the window
    code, out, _ = run(capsys, "member", "pow(1)", "prin(pow(1,1))", "--numeric")
    assert code == 2
    assert "verdict: unknown" in out


def test_usage_and_domain_errors_exit_one(capsys):
    code, _, err = run(capsys, "member", "geo(3/2)", "KH")
    assert code == 1
    assert "error" in err
    code, _, err = run(capsys, "soft", "pow(1)", "prin(geo(1/2))")
    assert code == 1  # membership precondition fails
    code, _, _ = run(capsys, "member", "pow(1)")
    assert code == 1


def test_json_output_is_byte_identical(capsys):
    _, first, _ = run(capsys, "classify", "geo(1/2)", "KH", "--json")
    _, second, _ = run(capsys, "classify", "geo(1/2)", "KH", "--json")
    assert first == second


def test_flags_reach_the_engine(capsys):
    code, out, _ = run(
        capsys, "member", "pow(1)", "prin(pow(2))", "--window", "16:4096", "--grid", "8,8", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["settings"]["window_hi"] == 4096
    assert doc["settings"]["grid_m"] == 8


def test_oracle_commands(capsys):
    code, out, _ = run(capsys, "oracle", "ratio", "2", "--n", "100000")
    assert code == 0
    assert "passed: true" in out
    code, out, _ = run(capsys, "oracle", "divergence", "1", "--n", "10")
    assert code == 0
    assert "passed: false" in out
    code, out, _ = run(
        capsys, "oracle", "split", "geo(1/4)", "prin(geo(1/2))", "prin(geo(1/2))", "--n", "2000"
    )
    assert code == 0
    assert "passed: true" in out
    code, out, _ = run(capsys, "oracle", "witness", "geo(1/2)", "KH", "--n", "10000")
    assert code == 0
    assert "passed: true" in out
    code, _, err = run(capsys, "oracle", "witness", "pow(1)", "KH")
    assert code == 1  # no witness exists for a non-soft generator


def test_classify_unknown_exits_two(capsys):
    code, out, _ = run(capsys, "classify", "pow(0,2)", "prin(pow(0,1))", "--numeric")
    assert code == 2
    assert "unknown" in out


def test_classify_fg_needs_generators_and_ideal(capsys):
    code, _, err = run(capsys, "classify-fg", "KH")
    assert code == 1
    assert "error" in err


def test_soft_closed_form_ignores_the_grid(capsys):
    code, out, _ = run(capsys, "soft", "geo(1/2)", "KH", "--grid", "1,1")
    assert code == 0
    assert "verdict: yes" in out and "k=2" in out


def test_soft_huge_finite_support_answers_at_once(capsys):
    code, out, _ = run(capsys, "soft", "amp(1000000000000,fin(1))", "KH")
    assert code == 0
    assert "verdict: yes" in out
    assert "t_witness: amp(1000000000000,fin(1))" in out


def test_numbers_of_up_to_4300_digits_are_read(capsys):
    # the input limit the README states: CPython's int_max_str_digits, 4,300 by default
    code, out, err = run(capsys, "member", f"scale(1/{'9' * 4300},pow(1))", "prin(pow(1))")
    assert code == 0 and err == ""
    assert out.splitlines()[1] == "verdict: yes"
    code, out, err = run(capsys, "member", f"scale(1/{'9' * 4301},pow(1))", "prin(pow(1))")
    assert code == 1 and out == ""
    assert err.startswith("error: bad number '1/999") and len(err.splitlines()) == 1


def test_ten_thousand_level_member_answers(capsys):
    deep = "sum(" * 10_000 + "pow(1)" + ",pow(2))" * 10_000
    code, out, err = run(capsys, "member", deep, "prin(pow(2))")
    assert code == 0 and err == ""
    assert out.splitlines()[1] == "verdict: no"


def test_ten_thousand_level_ideal_gets_verdicts(capsys):
    assert sys.getrecursionlimit() <= 1000
    deep = "sum(" * 10_000 + "KH" + ",FH)" * 10_000
    for argv, verdict in (
        (("member", "pow(1)", deep), "verdict: yes"),
        (("soft", "pow(1)", deep), "verdict: no"),
        (("equal", deep, "KH"), "verdict: yes"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == "", argv[0]
        assert out.splitlines()[1] == verdict, argv[0]


def test_recursion_error_ends_in_one_line_error(capsys, monkeypatch):
    import opideals.ideals

    def too_deep(*args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(opideals.ideals, "reduce_ideal", too_deep)
    code, out, err = run(capsys, "member", "pow(1)", "KH")
    assert code == 1 and out == ""
    assert err == "error: input too large or too deeply nested (RecursionError: maximum recursion depth exceeded)\n"


def test_a_closed_stdout_ends_quietly():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-m", "opideals.cli", "member", "pow(1)", "prin(pow(1/2))", "--json"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()  # the reader is gone before the first byte is written
    err = proc.stderr.read()
    assert proc.wait() == 1 and err == b""


def test_internal_error_ends_in_one_line_error(capsys, monkeypatch):
    import opideals.ideals

    def broken(*args):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(opideals.ideals, "certified_constant", broken)
    code, out, err = run(capsys, "member", "geo(1/2)", "prin(geo(1/3))")
    assert code == 1
    assert "Traceback" not in out + err
    assert err == "error: internal error (ZeroDivisionError: division by zero)\n"


def test_oracle_refuses_windows_without_indices(capsys):
    for n in ("0", "-5", "x"):
        for argv in (
            ("oracle", "ratio", "2"),
            ("oracle", "divergence", "1"),
            ("oracle", "split", "geo(1/4)", "prin(geo(1/2))", "prin(geo(1/2))"),
            ("oracle", "witness", "geo(1/2)", "KH"),
        ):
            code, out, err = run(capsys, *argv, "--n", n)
            assert code == 1 and "passed" not in out, (argv, n)
            assert "--n" in err
    code, out, _ = run(capsys, "oracle", "ratio", "2", "--n", "1")
    assert code == 0 and "window: 1..1" in out


def test_tol_is_a_positive_finite_number(capsys):
    for tol in ("0", "-1", "nan", "inf", "x"):
        code, _, err = run(capsys, "member", "pow(1)", "prin(pow(2))", "--tol", tol)
        assert code == 1 and "tol" in err, tol
        code, _, _ = run(capsys, "oracle", "ratio", "2", "--tol", tol)
        assert code == 1, tol
    code, out, _ = run(capsys, "member", "pow(1)", "prin(pow(2))", "--tol", "1e-9", "--json")
    assert code == 0 and json.loads(out)["settings"]["vanishing_threshold"] == 1e-9
    code, out, _ = run(capsys, "oracle", "ratio", "2", "--n", "1000", "--tol", "0.25", "--json")
    assert code == 0 and json.loads(out)["oracle"]["tolerance"] == 0.25


def test_huge_decimation_order_answers_at_once(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "member", "dec(100000000,geo(1/3))", "prin(geo(1/2))")
    assert time.perf_counter() - start < 0.1
    assert code == 0 and "verdict: yes" in out and "m=1" in out


def fuzz_texts(rng) -> list[str]:
    """About 200 sequence texts: random, 10,000 levels deep, of huge orders, truncated and mutated."""
    random_texts = [op.render_seq(random_expr(rng, depth=3)) for _ in range(60)]
    levels = ["sum(geo(1/2),", "max(pow(2),", "scale(3/2,", "amp(2,", "dec(2,", "prod(pow(1/4),"]
    deep = [
        "sum(" * 10_000 + "pow(1)" + ",geo(1/2))" * 10_000,
        "".join(rng.choice(levels) for _ in range(10_000)) + "pow(1)" + ")" * 10_000,
    ]
    huge = [f"amp(1000000000000000,{t})" for t in random_texts[:4]]
    huge += [f"dec(100000000,{t})" for t in random_texts[4:8]]
    huge += ["amp(1000000000000,fin(1))", "prod(amp(1000000000000,fin(1)),dec(100000000,geo(1/3)))"]
    tokens = ["(", ")", ",", "pow", "geo", "fin", "amp", "dec", "sum", "prod", "KH", "0", "1", "1/2", "-1", "1/0", "x", "#"]
    broken = [deep[0][: len(deep[0]) // 2]]
    while len(broken) < 128:
        text = rng.choice(random_texts + huge)
        at = rng.randrange(len(text) + 1)
        roll = rng.randrange(3)
        if roll == 0:
            broken.append(text[:at])
        elif roll == 1:
            broken.append(text[:at] + rng.choice(tokens) + text[at:])
        else:
            broken.append(text[:at] + rng.choice(tokens) + text[at + rng.randrange(1, 4):])
    return random_texts + deep + huge + broken


def test_seeded_fuzz_ends_in_a_verdict_or_one_error_line(capsys):
    rng = random.Random(0xF022)
    ideals = ["KH", "FH", "prin(geo(1/2))", "prin(pow(1))", "prod(prin(pow(1/2)),KH)"]
    texts = fuzz_texts(rng)
    assert len(texts) >= 200
    for text in texts:
        ideal = rng.choice(ideals)
        for command in ("member", "soft", "classify"):
            start = time.perf_counter()
            code, out, err = run(capsys, command, text, ideal)
            spent = time.perf_counter() - start
            what = f"{command} {text[:80]} {ideal}"
            assert code in (0, 1, 2), what
            assert "Traceback" not in out + err, what
            assert err == "" or (err.startswith("error: ") and err.count("\n") == 1), what
            assert spent < 2.0, what


def test_a_no_against_a_huge_power_prints_its_classes_not_a_capped_ratio(capsys):
    code, out, _ = run(capsys, "member", "pow(2)", "pow(prin(geo(1/2)),1000000000)")
    assert code == 0 and "verdict: no" in out
    assert "ratio(" not in out and "e+304" not in out
    assert out.rstrip().endswith("left class n^-2, right class (1/2)^(1000000000n)")
