#!/usr/bin/env python3
"""Benchmark of the opideals engine: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the engine is imported from ``src/``.  One
caller asks a fixed, seeded list of questions in a closed loop (each question
after the last is answered).  ``--seconds`` sets the length of the list: the
number of rounds is ``--seconds`` divided by the workload's nominal round
time, so a run takes about that long on the host the nominal times were
measured on, and the run is never cut off by a clock.

With ``--trace 0`` the last line of output holds the end-to-end metrics; with
``--trace 1`` the questions run with every layer wrapped (see tracing.py)
and the last line holds the per-layer metrics.  Run records and span files
go to ``.perfbench_out/``.  Exit code 2 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("compare-yes", "deep-exact", "softness", "cli-oneshot")
# Seconds one round takes on the reference host (2 vCPU, Python 3.11).
ROUND_SECONDS = {"compare-yes": 0.85, "deep-exact": 1.5, "softness": 2.5, "cli-oneshot": 9.0}
# Enough rounds that at least ten latencies lie beyond the p90.
MIN_ROUNDS = {"compare-yes": 1, "deep-exact": 3, "softness": 5, "cli-oneshot": 3}
SETUP_REPEATS = 3  # this process plus two fresh ones
CLI_TIMEOUT_S = 60
IMPORT_REPEATS = 9


def ref_loop_ms() -> float:
    """A fixed pure-Python loop; its time tracks the host's speed."""
    t = time.perf_counter()
    s = 0
    for i in range(200_000):
        s += i * i % 7
    return (time.perf_counter() - t) * 1e3


def rounds_for(workload: str, seconds: int) -> int:
    return max(MIN_ROUNDS[workload], round(seconds / ROUND_SECONDS[workload]))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list[str], timeout: float = CLI_TIMEOUT_S) -> tuple[int, str, float, int]:
    """Run a Python child; return (exit code, merged output, seconds, peak RSS in KiB)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            env=child_env(), cwd=ROOT)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode("utf-8", "replace"), time.perf_counter() - start, usage.ru_maxrss


def setup_in_children(args) -> list[float]:
    out = []
    for _ in range(SETUP_REPEATS - 1):
        code, text, _, _ = run_child([str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
                                      "--seconds", str(args.seconds), "--trace", "0", "--setup-only"])
        if code != 0:
            raise RuntimeError(f"set-up in a fresh process failed:\n{text}")
        out.append(json.loads(text.strip().splitlines()[-1])["setup_s"])
    return out


def import_ms() -> float:
    """Median time a fresh interpreter spends importing opideals.cli, net of start-up."""
    bare, full = [], []
    for _ in range(IMPORT_REPEATS):
        bare.append(run_child(["-c", "pass"])[2])
        full.append(run_child(["-c", "import opideals.cli"])[2])
    return (statistics.median(full) - statistics.median(bare)) * 1e3


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def time_library(questions, Raised):
    latencies, answers = [], []
    clock = time.perf_counter
    start = clock()
    for q in questions:
        t = clock()
        try:
            answer = q.ask()
        except Exception as exc:  # a raising question is recorded and counted as failed
            answer = Raised(exc)
        latencies.append(clock() - t)
        answers.append(answer)
    return latencies, clock() - start, answers


def time_cli(questions):
    latencies, answers, peak_kib = [], [], 0
    start = time.perf_counter()
    for q in questions:
        code, out, seconds, rss = run_child(["-m", "opideals.cli", *q.argv])
        latencies.append(seconds)
        answers.append((code, out))
        peak_kib = max(peak_kib, rss)
    return latencies, time.perf_counter() - start, answers, peak_kib


def cli_in_process(questions):
    """The CLI questions through in-process ``main`` (used under tracing)."""
    import opideals.cli as cli

    answers = []
    for q in questions:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(q.argv)
        except Exception:  # an uncaught error is what a one-shot user would see as a traceback
            code = 1
            buf = io.StringIO()
        answers.append((code, buf.getvalue()))
    return answers


def summarize(questions, verdicts) -> tuple[bool, int, list[dict]]:
    failures = [{"index": i, "kind": q.kind, "fault": q.fault}
                for i, (q, ok) in enumerate(zip(questions, verdicts)) if not ok]
    correct = all(f["fault"] for f in failures)
    return correct, len(failures), failures


def layer_metrics(tracer, attempted: int, hits_before: int, host_ms: float, cli_import: float) -> dict:
    def per_q(x):
        return x / attempted

    calls = tracer.call_count
    soft_verdicts = calls("opideals.ideals.is_soft")
    values = {
        "grammar.parse_ms": per_q(tracer.layer_self_ms("grammar.parse")),
        "grammar.render_ms": per_q(tracer.layer_self_ms("grammar.render")),
        "cli.import_ms": cli_import,
        "cli.main_ms": per_q(tracer.layer_self_ms("cli.main")),
        "sequences.eval_log_calls": per_q(calls("opideals.sequences.eval_log")),
        "sequences.evaluate_calls": per_q(calls("opideals.sequences.evaluate")),
        "sequences.eval_ms": per_q(tracer.layer_self_ms("sequences.eval")),
        "growth.profile_calls": per_q(calls("opideals.growth.profile")),
        "growth.profile_cache_hits": per_q(tracer.profile_cache_hits() - hits_before),
        "growth.profile_ms": per_q(tracer.layer_self_ms("growth.profile")),
        "growth.min_ampliation_order_calls": per_q(calls("opideals.growth.min_ampliation_order")),
        "compare.comparisons": per_q(calls("opideals.compare.big_o") + calls("opideals.compare.little_o")),
        "compare.decide_ms": per_q(tracer.layer_self_ms("compare.decide")),
        "compare.witness_constant_calls": per_q(calls("opideals.compare.observed_constant")),
        "compare.witness_constant_ms": per_q(tracer.layer_self_ms("compare.witness_constant")),
        "ideals.reduce_ms": per_q(tracer.layer_self_ms("ideals.reduce")),
        "ideals.member_ms": per_q(tracer.layer_self_ms("ideals.member")),
        "ideals.soft_ms": per_q(tracer.layer_self_ms("ideals.soft")),
        "ideals.soft_comparisons_per_verdict": tracer.soft_comparisons / soft_verdicts if soft_verdicts else 0.0,
        "classify.classify_ms": per_q(tracer.layer_self_ms("classify.classify")),
        "classify.probe_ms": per_q(tracer.layer_self_ms("classify.probe")),
        "oracle.witness_check_ms": per_q(tracer.layer_self_ms("oracle.witness_check")),
        "oracle.split_ms": per_q(tracer.layer_self_ms("oracle.split")),
        "host.ref_loop_ms": host_ms,
    }
    return {name: {"value": v, "unit": "ms" if name.endswith("_ms") else "count"} for name, v in values.items()}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help="report the set-up time and stop")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = time.perf_counter()
    if not (SRC / "opideals" / "__init__.py").is_file():
        print(f"error: no engine sources at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as wl  # imports opideals

    rounds = rounds_for(args.workload, args.seconds)
    if args.workload == "cli-oneshot":
        timed = wl.cli_oneshot(args.seed, rounds)
        warmup = wl.cli_warmup(args.seed)
    else:
        plan = wl.LIBRARY_WORKLOADS[args.workload](args.seed, rounds)
        timed, warmup = plan.timed, plan.warmup
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    host = [ref_loop_ms() for _ in range(3)]
    setups = [setup_s] if args.trace else [setup_s, *setup_in_children(args)]
    cli_workload = args.workload == "cli-oneshot"
    for q in warmup:  # warm-up answers are not judged
        if cli_workload:
            run_child(["-m", "opideals.cli", *q.argv])
        else:
            with contextlib.suppress(Exception):
                q.ask()
    tracer = latencies = peak_kib = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        hits_before = tracer.profile_cache_hits()
    if cli_workload and tracer is not None:
        start = time.perf_counter()
        answers = cli_in_process(timed)
        wall = time.perf_counter() - start
    elif cli_workload:
        latencies, wall, answers, peak_kib = time_cli(timed)
    else:
        latencies, wall, answers = time_library(timed, wl.Raised)
    if tracer is not None:
        tracer.uninstall()  # the checks below call the program too; they are not traced
    verdicts = [wl.passes(q, a) for q, a in zip(timed, answers)]
    host += [ref_loop_ms() for _ in range(3)]
    host_ms = statistics.median(host)

    correct, failed, failures = summarize(timed, verdicts)
    attempted = len(timed)
    record = {"workload": args.workload, "seed": args.seed, "rounds": rounds, "attempted": attempted,
              "failed": failed, "failures": failures, "wall_s": wall, "setups_s": setups,
              "host_ref_loop_ms": host}
    if tracer is not None:
        cli_import = import_ms()
        metrics = layer_metrics(tracer, attempted, hits_before, host_ms, cli_import)
        record["traced_verdicts_per_s"] = attempted / wall
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}")
    else:
        if peak_kib is None:
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "setup_s": (statistics.median(setups), "s"),
            "verdicts_per_s": (attempted / wall, "1/s"),
            "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "latency_p90_ms": (percentile(latencies, 90) * 1e3, "ms"),
            "peak_rss_mb": (peak_kib / 1024, "MB"),
        }
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}
        record["latencies_ms"] = [x * 1e3 for x in latencies]
    OUT.mkdir(exist_ok=True)
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))
    print(json.dumps({"host.ref_loop_ms": host_ms, "rounds": rounds, "wall_s": wall,
                      "kept_faults": sorted({f["fault"] for f in failures if f["fault"]})}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
