"""Exact CLI output: stdout, stderr and exit code of recorded invocations.

``cli_golden.json`` holds one question per command and per oracle check, in
text and in ``--json`` form, a No with its two classes, a ``--numeric`` Unknown
(exit 2) and two usage errors (exit 1).  Any difference from it is a change
of the CLI's output, which the ``opideals-report/1`` schema and the text
format promise to keep.
"""

import json
from pathlib import Path

import pytest

from opideals.cli import main

CASES = json.loads((Path(__file__).with_name("cli_golden.json")).read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_output_matches_the_record(case, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal width
    code = main(list(case["argv"]))
    captured = capsys.readouterr()
    assert (captured.out, captured.err, code) == (case["stdout"], case["stderr"], case["exit"])
