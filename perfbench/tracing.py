"""Per-layer tracing from outside the program.

``Tracer.install`` wraps the public functions of each ``opideals`` layer and
patches the wrapper into every ``opideals`` module that holds the original,
so calls between modules and recursive calls inside a module both pass
through it.  Each wrapped call is counted.  A span is opened at each call
that does not recurse directly into the function already on top of the span
stack; a layer's self time is the duration of its spans minus the time
covered by their child spans.  Spans stay in memory (flat integer arrays)
and are written out by ``write``; the spans of the sequence walks, the leaf
layer, are counted and timed but not stored.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path

# metric-bearing layer -> (module, function names).  The wrapped functions
# are the layer's public entry points and the hot helpers named in the
# benchmark's per-layer metrics.
LAYER_FUNCTIONS = {
    "grammar.parse": ("opideals.grammar", ("parse_seq", "parse_ideal")),
    "grammar.render": ("opideals.grammar", ("render_seq", "render_ideal")),
    "sequences.eval": ("opideals.sequences", ("evaluate", "eval_log", "value_stream", "support")),
    "growth.profile": ("opideals.growth", ("profile",)),
    "growth.min_ampliation_order": ("opideals.growth", ("min_ampliation_order",)),
    "compare.decide": ("opideals.compare", ("big_o", "little_o")),
    "compare.witness_constant": ("opideals.compare", ("observed_constant", "observed_supremum")),
    "ideals.reduce": ("opideals.ideals", ("reduce_ideal",)),
    "ideals.member": ("opideals.ideals", ("member", "ideal_equal")),
    "ideals.soft": ("opideals.ideals", ("is_soft",)),
    "classify.classify": (
        "opideals.classify",
        ("classify_principal", "classify_finitely_generated", "two_generator_principality"),
    ),
    "classify.probe": ("opideals.classify", ("probe_chain_link",)),
    "oracle.witness_check": ("opideals.oracle", ("verify_softness_witness",)),
    "oracle.split": ("opideals.oracle", ("verify_product_split",)),
    "cli.main": ("opideals.cli", ("main",)),
}

_MODULES = ("grammar", "sequences", "growth", "compare", "ideals", "classify", "oracle", "cli")


class Tracer:
    """Counts and self times per wrapped function, plus the raw spans."""

    def __init__(self):
        self.functions: list[tuple[str, str]] = []  # (layer, "module.name")
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        # one span = (function id, parent span index or -1, start ns, end ns)
        self.spans = array("q")
        self._stack: list[list[int]] = []  # [function id, span index, start, child ns]
        self.soft_comparisons = 0
        self._soft_depth = 0
        self._undo: list[tuple[object, str, object]] = []
        self.profile_cache = None

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import importlib

        modules = [importlib.import_module(f"opideals.{m}") for m in _MODULES]
        modules.append(importlib.import_module("opideals"))
        for layer, (mod_name, names) in LAYER_FUNCTIONS.items():
            home = sys.modules[mod_name]
            for name in names:
                orig = getattr(home, name)
                if name == "profile" and hasattr(orig, "cache_info"):
                    self.profile_cache = orig
                wrapper = self._wrap(orig, layer, f"{mod_name}.{name}")
                for mod in modules:
                    if getattr(mod, name, None) is orig:
                        self._undo.append((mod, name, orig))
                        setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, orig in reversed(self._undo):
            setattr(mod, name, orig)
        self._undo.clear()

    def _wrap(self, orig, layer: str, qualname: str):
        fid = len(self.functions)
        self.functions.append((layer, qualname))
        self.calls.append(0)
        self.self_ns.append(0)
        stack = self._stack
        spans = self.spans
        calls = self.calls
        self_ns = self.self_ns
        clock = time.perf_counter_ns
        is_decide = layer == "compare.decide"
        is_soft = layer == "ideals.soft"
        # the sequence walks are leaves and by far the most frequent calls:
        # their time is attributed, but their spans are not stored
        stored = layer != "sequences.eval"

        def traced(*args, **kwargs):
            calls[fid] += 1
            if is_decide and self._soft_depth:
                self.soft_comparisons += 1
            if stack and stack[-1][0] == fid:
                return orig(*args, **kwargs)  # direct recursion stays in the open span
            index = -1
            if stored:
                index = len(spans) // 4
                spans.extend((fid, stack[-1][1] if stack else -1, 0, 0))
            frame = [fid, index, clock(), 0]
            stack.append(frame)
            if is_soft:
                self._soft_depth += 1
            try:
                return orig(*args, **kwargs)
            finally:
                end = clock()
                if is_soft:
                    self._soft_depth -= 1
                stack.pop()
                duration = end - frame[2]
                self_ns[fid] += duration - frame[3]
                if stack:
                    stack[-1][3] += duration
                if stored:
                    spans[4 * index + 2] = frame[2]
                    spans[4 * index + 3] = end

        traced.__wrapped__ = orig
        return traced

    # -- results -----------------------------------------------------------

    def layer_self_ms(self, layer: str) -> float:
        return sum(ns for (lay, _), ns in zip(self.functions, self.self_ns) if lay == layer) / 1e6

    def call_count(self, qualname: str) -> int:
        return sum(c for (_, name), c in zip(self.functions, self.calls) if name == qualname)

    def profile_cache_hits(self) -> int:
        return self.profile_cache.cache_info().hits if self.profile_cache is not None else 0

    def write(self, path: Path) -> None:
        """Spans as a binary int64 file plus a JSON header describing it."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path.with_suffix(".spans"), "wb") as fh:
            self.spans.tofile(fh)
        header = {
            "layout": "int64 quadruples: function id, parent span index (-1 at top), start ns, end ns",
            "functions": [{"layer": lay, "name": name, "calls": c, "self_ms": ns / 1e6}
                          for (lay, name), c, ns in zip(self.functions, self.calls, self.self_ns)],
            "span_count": len(self.spans) // 4,
        }
        path.with_suffix(".json").write_text(json.dumps(header, indent=1))
