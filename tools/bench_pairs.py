#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, written to ``BENCH_<topic>.json``.

    python3 tools/bench_pairs.py --parent DIR --change DIR --topic NAME --title TEXT \\
        [--workloads cli-oneshot,compare-yes,deep-exact,softness] [--seeds 801-810] [--seconds S] \\
        [--claim WORKLOAD:METRIC:FRACTION] [--startup-repeats N] [--in-process WORKLOAD:ROUNDS,...]
        [--calls WORKLOAD:ROUNDS,...] [--host TEXT]

Each checkout is a directory holding ``src/``, ``perfbench/`` and
``BENCHMARK.json`` (a ``git clone`` or ``git archive`` of a commit).  The
benchmark is only run, never changed.  For every workload and every seed
the script runs ``perfbench/run.py --trace 0`` once on each side, one run at
a time; pair i runs the parent first when i is even and the change first
when it is odd, so drift of the host falls on both sides alike.  The run
length (``run_seconds``, unless ``--seconds`` is given) and the end-to-end
metrics with their directions and bounds are read from the change's
``BENCHMARK.json``.

Per workload and metric the file gives the median and quartiles of each
side (``statistics.quantiles``, inclusive method), the change against the
parent's median, the number of pairs the change won, the parent's spread
(quartile distance over median), the bound, and whether the change is worse
than the bound; per side it lists the ``failed`` and ``attempted`` counts of
the runs in run order.  ``--claim`` names the claimed metric and the least
relative gain (0.1: at least 10% lower for a lower-is-better metric, 10%
higher otherwise); the claim is met when the gain is reached, the change
wins at least nine pairs in ten and the gap of the medians exceeds the
parent's quartile distance.

The start-up section (``--startup-repeats`` alternating rounds, 0 to skip)
times, per side, a bare interpreter (``python3 -c pass``, the metric
``host.startup_ms``), ``python3 -c "import opideals.cli"``, and the self time
of each ``opideals`` module under ``-X importtime``.

The in-process section (``--in-process``, one WORKLOAD:ROUNDS entry per
library workload to time) times the workloads' question lists without the
benchmark's set-up, import and memory probes around them: per seed, each
side runs one fresh interpreter that builds the workload's list with
ROUNDS rounds from the checkout's ``perfbench/workloads.py``, asks its
warm-up questions and times the rest in one loop, in the same alternating
order.  Its metric is ``verdicts_per_s``, compared like the end-to-end
metrics.

The call-count section (``--calls``, one WORKLOAD:ROUNDS entry per library
workload) counts work instead of timing it: per side and for each of the
hash seeds 0, 1 and 2, one fresh interpreter builds the workload's list for
the first seed, asks its warm-up questions, and runs the timed ones under
``cProfile``.  It gives the total number of calls, the calls per question,
whether the total was the same under every hash seed, and the ten functions
called most often.  A count does not depend on the host, so one run per
hash seed suffices.

The file, at the root of the checkout that holds this script, is rewritten
after every workload, so an interrupted run keeps what it measured.  Needs
the standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def side_env(checkout: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(checkout / "src"), env.get("PYTHONPATH")) if p)
    return env


def run_bench(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced benchmark run in ``checkout``: its last output line, as a dict."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def compare_metric(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    p, c = quartiles(parent), quartiles(change)
    sign = 1 if better == "higher" else -1
    relative = (c["median"] - p["median"]) / p["median"] if p["median"] else 0.0
    wins = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    return {
        "parent": p,
        "change": c,
        "relative_change": round(relative, 4),
        "change_better_pairs": wins,
        "parent_spread": round((p["q3"] - p["q1"]) / p["median"], 4) if p["median"] else 0.0,
        "bound": bound,
        "worse_than_bound": sign * relative < -bound,
    }


def measure_workload(sides: dict, workload: str, seeds: list[int], seconds: int, metrics: list[dict]) -> dict:
    runs = {side: [] for side in SIDES}
    for i, seed in enumerate(seeds):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            start = time.perf_counter()
            runs[side].append(run_bench(sides[side], workload, seed, seconds))
            print(f"{workload} seed {seed} {side}: {time.perf_counter() - start:.1f} s", file=sys.stderr)
    values = {side: {m["name"]: [r["metrics"][m["name"]]["value"] for r in runs[side]] for m in metrics}
              for side in SIDES}
    return {
        "pairs": len(seeds),
        "seeds": seeds,
        "metrics": {m["name"]: {**compare_metric(values["parent"][m["name"]], values["change"][m["name"]],
                                                 m["better"], m["bound"]),
                                "runs": {side: [round(v, 4) for v in values[side][m["name"]]] for side in SIDES}}
                    for m in metrics},
        "failed_per_run": {side: [r["failed"] for r in runs[side]] for side in SIDES},
        "attempted": [r["attempted"] for r in runs["parent"]],
    }


# the start of a child run: argv is the checkout, the workload, the seed and the
# number of rounds; it builds the question list and asks the warm-up questions
CHILD_SETUP = """
import json, sys, time
root, workload, seed, rounds = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
sys.path[:0] = [root + "/src", root + "/perfbench"]
import workloads as wl
plan = wl.LIBRARY_WORKLOADS[workload](seed, rounds)
for q in plan.warmup:
    try:
        q.ask()
    except Exception:
        pass
"""

# one in-process run
IN_PROCESS_CHILD = CHILD_SETUP + """
answers, clock = [], time.perf_counter
start = clock()
for q in plan.timed:
    try:
        answers.append(q.ask())
    except Exception as exc:
        answers.append(wl.Raised(exc))
wall = clock() - start
failed = sum(not wl.passes(q, a) for q, a in zip(plan.timed, answers))
print(json.dumps({"attempted": len(plan.timed), "failed": failed, "wall_s": wall}))
"""


def measure_in_process(sides: dict, workload: str, seeds: list[int], rounds: int, metric: dict) -> dict:
    runs = {side: [] for side in SIDES}
    for i, seed in enumerate(seeds):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            argv = [sys.executable, "-c", IN_PROCESS_CHILD, str(sides[side]), workload, str(seed), str(rounds)]
            proc = subprocess.run(argv, capture_output=True, text=True, check=True)
            runs[side].append(json.loads(proc.stdout.strip().splitlines()[-1]))
    rates = {side: [r["attempted"] / r["wall_s"] for r in runs[side]] for side in SIDES}
    return {
        "pairs": len(seeds),
        "rounds": rounds,
        "verdicts_per_s": {**compare_metric(rates["parent"], rates["change"], "higher", metric["bound"]),
                           "runs": {side: [round(v, 2) for v in rates[side]] for side in SIDES}},
        "failed_per_run": {side: [r["failed"] for r in runs[side]] for side in SIDES},
        "attempted": [r["attempted"] for r in runs["parent"]],
    }


# one run under cProfile
CALLS_CHILD = CHILD_SETUP + """
import cProfile, pstats
profile = cProfile.Profile()
profile.enable()
for q in plan.timed:
    try:
        q.ask()
    except Exception:
        pass
profile.disable()
stats = pstats.Stats(profile)
top = sorted(stats.stats.items(), key=lambda kv: -kv[1][1])[:10]
name = lambda key: f"{'/'.join(key[0].rsplit('/', 2)[-2:])}:{key[1]}({key[2]})"
print(json.dumps({"attempted": len(plan.timed), "total_calls": stats.total_calls,
                  "top": [[name(key), value[1]] for key, value in top]}))
"""


def measure_calls(sides: dict, workload: str, seed: int, rounds: int) -> dict:
    out = {"seed": seed, "rounds": rounds}
    for side in SIDES:
        runs = []
        for hash_seed in (0, 1, 2):
            env = {**os.environ, "PYTHONHASHSEED": str(hash_seed)}
            argv = [sys.executable, "-c", CALLS_CHILD, str(sides[side]), workload, str(seed), str(rounds)]
            proc = subprocess.run(argv, capture_output=True, text=True, check=True, env=env)
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        first = runs[0]
        out[side] = {
            "attempted": first["attempted"],
            "total_calls": first["total_calls"],
            "calls_per_question": round(first["total_calls"] / first["attempted"], 1),
            "same_under_hash_seeds_0_1_2": all(r["total_calls"] == first["total_calls"] for r in runs),
            "top_functions": first["top"],
        }
    p, c = out["parent"]["total_calls"], out["change"]["total_calls"]
    out["relative_change"] = round((c - p) / p, 4) if p else 0.0
    return out


def _wall_ms(argv: list[str], env: dict) -> float:
    start = time.perf_counter()
    subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return (time.perf_counter() - start) * 1e3


def _import_self_ms(env: dict) -> dict[str, float]:
    """Self time in ms of each opideals module while importing opideals.cli (``-X importtime``)."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import opideals.cli"], env=env,
                          check=True, capture_output=True, text=True)
    out = {}
    for line in proc.stderr.splitlines():  # "import time: self [us] | cumulative | imported package"
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, _, name = (part.strip() for part in line[len("import time:"):].split("|"))
        if name.startswith("opideals") and self_us.isdigit():
            out[name] = int(self_us) / 1e3
    return out


def measure_startup(sides: dict, repeats: int) -> dict:
    samples = {side: {"host.startup_ms": [], "cli.import_wall_ms": [], "self_ms": []} for side in SIDES}
    for i in range(repeats):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            env, s = side_env(sides[side]), samples[side]
            s["host.startup_ms"].append(_wall_ms([sys.executable, "-c", "pass"], env))
            s["cli.import_wall_ms"].append(_wall_ms([sys.executable, "-c", "import opideals.cli"], env))
            s["self_ms"].append(_import_self_ms(env))
    out = {"repeats": repeats}
    for side in SIDES:
        s = samples[side]
        modules = sorted({m for run in s["self_ms"] for m in run})
        self_ms = {m: quartiles([run.get(m, 0.0) for run in s["self_ms"]]) for m in modules}
        out[side] = {
            "host.startup_ms": quartiles(s["host.startup_ms"]),
            "cli.import_wall_ms": quartiles(s["cli.import_wall_ms"]),
            "cli.import_net_ms": round(statistics.median(s["cli.import_wall_ms"])
                                       - statistics.median(s["host.startup_ms"]), 4),
            "import_self_ms": self_ms,
            "import_self_total_ms": round(sum(q["median"] for q in self_ms.values()), 4),
        }
    return out


def claim_summary(claim: str, per_workload: dict, metrics: list[dict]) -> dict:
    workload, metric, fraction = claim.split(":")
    fraction = float(fraction)
    row = per_workload[workload]["metrics"][metric]
    better = next(m["better"] for m in metrics if m["name"] == metric)
    sign = 1 if better == "higher" else -1
    p, c = row["parent"], row["change"]
    gain = sign * row["relative_change"]
    pairs = per_workload[workload]["pairs"]
    wins = row["change_better_pairs"]
    gap_beats_spread = sign * (c["median"] - p["median"]) > p["q3"] - p["q1"]
    return {
        "workload": workload,
        "metric": metric,
        "required": f"at least {fraction:.0%} {'higher' if sign > 0 else 'lower'}, change better in at least "
                    "nine pairs in ten, median gap above the parent's quartile distance",
        "result": f"{p['median']} -> {c['median']}, {gain:+.1%} better, change better in {wins} of {pairs} pairs, "
                  f"median gap {abs(c['median'] - p['median']):.4g} against a parent quartile distance of "
                  f"{p['q3'] - p['q1']:.4g}",
        "met": gain >= fraction and wins * 10 >= 9 * pairs and gap_beats_spread,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    p.add_argument("--change", type=Path, required=True, help="checkout of the change")
    p.add_argument("--topic", required=True, help="the file is BENCH_<topic>.json")
    p.add_argument("--title", required=True, help="one line on what is compared")
    p.add_argument("--workloads", default="cli-oneshot,compare-yes,deep-exact,softness")
    p.add_argument("--seeds", type=parse_seeds, default=parse_seeds("801-810"), help="N-M, one pair per seed")
    p.add_argument("--seconds", type=int, default=None, help="run length; default: run_seconds of BENCHMARK.json")
    p.add_argument("--claim", default=None, help="WORKLOAD:METRIC:FRACTION")
    p.add_argument("--startup-repeats", type=int, default=15)
    p.add_argument("--in-process", default="", help="WORKLOAD:ROUNDS,... of library workloads to time in-process")
    p.add_argument("--calls", default="", help="WORKLOAD:ROUNDS,... of library workloads to count calls of")
    p.add_argument("--host", default="", help="a note on the host")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    metrics = spec["end_to_end"]
    doc = {
        "topic": args.title,
        "command": f"python3 perfbench/run.py --workload <w> --seed <{args.seeds[0]}..{args.seeds[-1]}> "
                   f"--seconds {seconds} --trace 0, run from a checkout of each side, pairs alternating "
                   "which side runs first (tools/bench_pairs.py)",
        "host": args.host or f"{platform.platform()}, {os.cpu_count()} CPUs",
        "python": platform.python_version(),
        "per_workload": {},
    }
    out = ROOT / f"BENCH_{args.topic}.json"

    def write():
        out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")

    if args.startup_repeats:
        doc["startup"] = measure_startup(sides, args.startup_repeats)
        write()
    for workload in args.workloads.split(","):
        doc["per_workload"][workload] = measure_workload(sides, workload, args.seeds, seconds, metrics)
        if args.claim and args.claim.split(":")[0] in doc["per_workload"]:
            doc["claim"] = claim_summary(args.claim, doc["per_workload"], metrics)
        write()
    if args.in_process:
        metric = next(m for m in metrics if m["name"] == "verdicts_per_s")
        doc["in_process"] = {}
        for entry in args.in_process.split(","):
            workload, rounds = entry.split(":")
            doc["in_process"][workload] = measure_in_process(sides, workload, args.seeds, int(rounds), metric)
            write()
    if args.calls:
        doc["calls"] = {}
        for entry in args.calls.split(","):
            workload, rounds = entry.split(":")
            doc["calls"][workload] = measure_calls(sides, workload, args.seeds[0], int(rounds))
            write()
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
