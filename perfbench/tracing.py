"""In-memory spans around calls into superext's public functions.

The traced run wraps each function in TARGETS wherever a superext module
binds it, so nested calls (analyze_structural -> cogroup_orbits -> ...)
become nested spans and a stage that only hits its per-group cache costs
its caller almost nothing. A span's self time is its duration minus the
durations of its direct children. The untraced run installs nothing.
"""

from __future__ import annotations

import importlib
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter


def _h_order(q) -> int:
    """|H| for a {(family, k): count} factorization: every factor has order 2^k."""
    return 1 << sum(k * count for (_, k), count in q.items())


# (module, function, count read from the return value or None)
TARGETS = (
    ("groups", "from_cayley_document", None),
    ("groups", "all_subgroups", len),
    ("groups", "cogroup_masks", None),
    ("groups", "maximal_cogroup_masks", len),
    ("twin", "maximal_2cogroups", None),
    ("twin", "cogroup_orbits", len),
    ("engine", "analyze_structural", None),
    ("engine", "cross_check", None),
    ("setfam", "enumerate_mls", len),
    ("engine", "lambda_semigroup", None),
    ("semigroups", "minimal_left_ideal", len),
    ("semigroups", "rees_decompose", lambda rees: rees.left_zero_count),
    ("semigroups", "semigroup_isomorphic", None),
    ("semigroups", "validate_associativity", None),
    ("engine", "decompose_cq_type", _h_order),
    ("engine", "build_type_semigroup", None),
)
CLI_TARGET = ("cli", "main", None)


class Tracer:
    """Collects spans: name, start, end, parent index, workload, item, pass, count."""

    def __init__(self, workload: str):
        self.workload = workload
        self.item = ""
        self.pass_index = 0
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count):
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "start": perf_counter(),
                "end": None,
                "parent": self._stack[-1] if self._stack else -1,
                "workload": self.workload,
                "item": self.item,
                "pass": self.pass_index,
                "n": None,
            }
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = perf_counter()
                self._stack.pop()
            if count is not None:
                span["n"] = count(result)
            return result

        return traced

    def adopt(self, spans: list[dict]) -> None:
        """Append spans recorded by a child process under the current item.

        perf_counter is the system-wide monotonic clock on Linux, so the
        child's timestamps are comparable with this process's.
        """
        base = len(self.spans)
        for span in spans:
            parent = span["parent"]
            self.spans.append(
                dict(
                    span,
                    parent=parent + base if parent >= 0 else -1,
                    workload=self.workload,
                    item=self.item,
                    **{"pass": self.pass_index},
                )
            )


@contextmanager
def installed(tracer: Tracer, targets=TARGETS):
    """Replace every superext binding of each target with a traced wrapper."""
    restore = []
    modules = [m for n, m in list(sys.modules.items()) if n == "superext" or n.startswith("superext.")]
    for module_name, func_name, count in targets:
        original = getattr(importlib.import_module(f"superext.{module_name}"), func_name)
        wrapper = tracer.wrap(f"{module_name}.{func_name}", original, count)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    restore.append((module, attr, original))
                    setattr(module, attr, wrapper)
    try:
        yield tracer
    finally:
        for module, attr, original in reversed(restore):
            setattr(module, attr, original)


def layer_totals(spans: list[dict], passes: int) -> dict[str, float]:
    """Per-layer metrics: the median over traced passes of each pass's total.

    `<name>.s` sums self seconds. `<name>.n` sums, over the items of a pass,
    the largest count one item's calls returned, so a repeated call that hits
    a cache is not counted twice.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] >= 0:
            child_time[span["parent"]] += span["end"] - span["start"]
    self_s = [dict() for _ in range(passes)]
    counts = [dict() for _ in range(passes)]
    for span, children in zip(spans, child_time):
        name, p = span["name"], span["pass"]
        self_s[p][name] = self_s[p].get(name, 0.0) + span["end"] - span["start"] - children
        if span["n"] is not None:
            per_item = counts[p].setdefault(name, {})
            per_item[span["item"]] = max(per_item.get(span["item"], 0), span["n"])
    out = {}
    for module_name, func_name, count in TARGETS + (CLI_TARGET,):
        name = f"{module_name}.{func_name}"
        out[f"{name}.s"] = statistics.median(s.get(name, 0.0) for s in self_s)
        if count is not None:
            out[f"{name}.n"] = statistics.median(sum(c.get(name, {}).values()) for c in counts)
    return out


def covered_seconds(spans: list[dict]) -> float:
    """Wall time under top-level spans; spans of one thread never overlap."""
    return sum(s["end"] - s["start"] for s in spans if s["parent"] < 0)
