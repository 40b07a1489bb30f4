"""The benchmark's four workloads: seeded inputs, one item at a time, gated.

An item is one group (or one CLI enumeration). Each workload turns the run
seed into VARIANTS input variants; pass k runs variant k % VARIANTS, so a
run samples several labellings instead of timing one. Every item builds its
objects afresh from plain data: the program never sees a cached group, and
FreshCheck fails the item if an object turns up twice.

The expected values are those the program computed at the commit that
defined the benchmark (catalog.json), for the unrelabelled groups, so the
structural gate also checks that relabelling changes nothing.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import weakref
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from superext import engine, groups, semigroups, setfam

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
CATALOG = json.loads((HERE / "catalog.json").read_text(encoding="utf-8"))["groups"]
VARIANTS = 8
CHILD_TIMEOUT_S = 80
CIRC_PAIRS_PER_GROUP = 1000

# model-certify keeps the types whose model is small enough to materialize
MODEL_MAX_H = 64
MODEL_MAX_L = 128

MLS_COUNTS = {"C6": 2646, "C7": 1_422_564}
MLS_SPEC, MLS_BUDGET = "C7", 2_000_000

SMOKE_SPECS = {
    "structural-catalog": ["C2", "C4", "C2xC2", "D6", "Q8"],
    "brute-cross-check": ["C1", "C2", "C3", "C4", "C2xC2"],
    "model-certify": ["C2", "C4", "C2xC2", "D12"],
}


class GateError(AssertionError):
    """An item's output differs from its expected value."""


class FreshCheck:
    """Raises if the same object is handed to the program twice in one run."""

    def __init__(self):
        self._seen: dict[int, weakref.ref] = {}

    def __call__(self, obj):
        ref = self._seen.get(id(obj))
        if ref is not None and ref() is obj:
            raise GateError(f"object reused across items: {obj!r}")
        self._seen[id(obj)] = weakref.ref(obj)
        return obj


@dataclass(frozen=True)
class Item:
    id: str
    data: object
    expect: object


@dataclass
class Context:
    """What an item run needs besides its input."""

    workload: str
    seed: int
    fresh: FreshCheck
    tracer: object = None


def _tags(q: dict[str, int]) -> dict[tuple[str, int], int]:
    return {(name[0], int(name[1:]).bit_length() - 1): count for name, count in q.items()}


def _names(q: dict[tuple[str, int], int]) -> dict[str, int]:
    return {f"{fam}{1 << k}": count for (fam, k), count in q.items()}


def _structural_type(report) -> dict:
    return {"type": report.min_left_ideal_type, "m": report.left_zero_exponent, "q": _names(dict(report.q_vector))}


def _expected_type(row: dict) -> dict:
    return {"type": row["type"], "m": row["m"], "q": row["q"]}


def _gate(item: Item, got) -> None:
    if got != item.expect:
        raise GateError(f"{item.id}: got {got!r}, expected {item.expect!r}")


def _relabel(table: list[list[int]], rng: random.Random) -> dict:
    """The Cayley document of the same group with its elements renamed at random."""
    n = len(table)
    perm = list(range(n))
    rng.shuffle(perm)
    out = [[0] * n for _ in range(n)]
    for i, row in enumerate(table):
        for j, v in enumerate(row):
            out[perm[i]][perm[j]] = perm[v]
    return {"order": n, "table": out}


def _rows(name: str, smoke: bool) -> list[dict]:
    if smoke:
        return [row for row in CATALOG if row["spec"] in SMOKE_SPECS[name]]
    if name == "brute-cross-check":
        return [row for row in CATALOG if len(row["table"]) <= 6]
    if name == "model-certify":
        return [
            row for row in CATALOG
            if _h_order(row) <= MODEL_MAX_H and _h_order(row) << row["m"] <= MODEL_MAX_L
        ]
    return CATALOG


def _h_order(row: dict) -> int:
    return 1 << sum(k * count for (_, k), count in _tags(row["q"]).items())


# -- inputs ---------------------------------------------------------------------


def make_inputs(name: str, seed: int, smoke: bool = False) -> list[list[Item]]:
    """VARIANTS lists of items, all drawn from `seed`."""
    rng = random.Random(seed)
    if name == "mls-enum-7":
        spec, budget = ("C6", None) if smoke else (MLS_SPEC, MLS_BUDGET)
        argv = ["mls-count", spec] + ([] if budget is None else ["--budget", str(budget)])
        return [[Item(spec, argv, f"count={MLS_COUNTS[spec]} partial=false")]]
    variants = []
    for _ in range(1 if smoke else VARIANTS):
        items = []
        for row in _rows(name, smoke):
            if name == "model-certify":
                size = _h_order(row) << row["m"]
                perm = list(range(size))
                rng.shuffle(perm)
                data = (row["m"], _tags(row["q"]), perm)
            else:
                data = _relabel(row["table"], rng)
            expect = _expected_type(row)
            if name == "brute-cross-check":
                expect.update(verdict="agree", certified=True)
            items.append(Item(row["spec"], data, expect))
        variants.append(items)
    return variants


# -- one item -------------------------------------------------------------------


def run_structural(item: Item, ctx: Context) -> None:
    g = ctx.fresh(groups.from_cayley_document(item.data))
    _gate(item, _structural_type(engine.analyze_structural(g, item.id)))


def run_brute(item: Item, ctx: Context) -> None:
    """What `analyze --brute` does: cross-check, then sampled associativity."""
    g = ctx.fresh(groups.from_cayley_document(item.data))
    check = engine.cross_check(g, item.id)
    sem = ctx.fresh(engine.lambda_semigroup(g))
    semigroups.validate_associativity(sem, samples=1000, seed=ctx.seed)
    got = dict(_structural_type(check.structural), verdict=check.verdict, certified=check.isomorphism_certified)
    _gate(item, got)


def run_model(item: Item, ctx: Context) -> None:
    """Recover a type from its model semigroup presented under a carrier permutation."""
    m, q, perm = item.data
    model = ctx.fresh(engine.build_type_semigroup(m, q))
    n = model.size
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            table[perm[i]][perm[j]] = perm[model.mul(i, j)]
    sem = ctx.fresh(semigroups.FiniteSemigroup.from_table(table))
    ideal = semigroups.minimal_left_ideal(sem)
    rees = semigroups.rees_decompose(sem, ideal)
    h = engine.decompose_cq_type(rees.group)
    zeros = rees.left_zero_count
    if zeros & (zeros - 1):
        raise GateError(f"{item.id}: {zeros} left zeros is not a power of two")
    m_got = zeros.bit_length() - 1
    _gate(item, {"type": engine.type_string(m_got, h), "m": m_got, "q": _names(h)})


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_mls(item: Item, ctx: Context) -> None:
    """`superext mls-count` in a fresh process; traced runs go through traced_cli.py."""
    if ctx.tracer is None:
        cmd = [sys.executable, "-m", "superext.cli", *item.data]
    else:
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"cli-spans-{os.getpid()}.json"
        cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), *item.data]
    proc = subprocess.run(
        cmd, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if ctx.tracer is not None and spans_path.exists():
        ctx.tracer.adopt(json.loads(spans_path.read_text(encoding="utf-8")))
        spans_path.unlink()
    if proc.returncode != 0:
        raise GateError(f"{item.id}: exit code {proc.returncode}: {proc.stderr.strip()}")
    _gate(item, proc.stdout.strip())


RUNNERS = {
    "structural-catalog": run_structural,
    "brute-cross-check": run_brute,
    "model-certify": run_model,
    "mls-enum-7": run_mls,
}


def circ_products_per_s(items: list[Item], seed: int) -> float:
    """λ products per second over a seeded sample of system pairs from each group."""
    rng = random.Random(seed)
    products = 0
    seconds = 0.0
    for item in items:
        sigs = setfam.enumerate_mls(groups.from_cayley_document(item.data))
        pairs = [(rng.choice(sigs), rng.choice(sigs)) for _ in range(CIRC_PAIRS_PER_GROUP)]
        t0 = perf_counter()
        for a, b in pairs:
            setfam.circ(a, b)
        seconds += perf_counter() - t0
        products += len(pairs)
    return products / seconds
