"""superext benchmark: time the public pipeline on seeded inputs and gate every output.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from ./src.
With --trace 0 it times passes over the workload's items and reports the
end-to-end metrics; with --trace 1 it alternates untraced and traced passes
and reports the per-layer metrics. Human-readable lines come first;
the last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. A full record (environment, extra statistics, spans) is
written to perfbench/out/. Exits 0 only if every item passed its gate.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
# item_ptop_s is the highest of these percentiles with at least ten samples above it
TOP_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="a few small items, for the benchmark's own tests")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# -- environment ------------------------------------------------------------------


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    return {
        "seed": seed,
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
    }


# -- timing -----------------------------------------------------------------------


def setup_seconds(args) -> list[float]:
    """Wall time of fresh processes that import superext and build this run's inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    if args.smoke:
        cmd.append("--smoke")
    times = []
    for _ in range(1 if args.smoke else SETUP_PROBES):
        t0 = perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        times.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    return times


class Passes:
    """Timed passes over the input variants, with every item gated."""

    def __init__(self):
        self.pass_s: list[float] = []
        self.item_s: list[float] = []
        self.item_ids: list[str] = []
        self.attempted = 0
        self.failures: list[str] = []


def run_passes(workloads, variants, ctx, seconds: float, tracers=(None,)) -> list[Passes]:
    """Run rounds until the next one would likely end after `seconds`; at least one.

    A round runs one pass over the same input variant per entry of `tracers`:
    untraced for None, else traced into that tracer. Alternating the two in a
    traced run keeps drift in the machine's speed out of trace.overhead.

    A full collection runs before each item, outside its timing: every item
    leaves its cyclic garbage (a group and its cached semigroup) behind, and a
    CLI user, who analyzes one group per process, never pays to collect it.
    """
    run = workloads.RUNNERS[ctx.workload]
    outs = [Passes() for _ in tracers]
    start = perf_counter()
    while True:
        k = len(outs[0].pass_s)
        for tracer, out in zip(tracers, outs):
            ctx.tracer = tracer
            pass_time = 0.0
            with tracing.installed(tracer) if tracer is not None else nullcontext():
                for item in variants[k % len(variants)]:
                    if tracer is not None:
                        tracer.item, tracer.pass_index = item.id, k
                    gc.collect()
                    t0 = perf_counter()
                    try:
                        run(item, ctx)
                    except Exception as exc:  # every failure is counted, the run goes on
                        out.failures.append(f"pass {k} item {item.id}: {type(exc).__name__}: {exc}")
                    dt = perf_counter() - t0
                    out.item_s.append(dt)
                    out.item_ids.append(item.id)
                    pass_time += dt
                    out.attempted += 1
            out.pass_s.append(pass_time)
        if perf_counter() - start + sum(statistics.median(o.pass_s) for o in outs) > seconds:
            return outs


def top_percentile(values: list[float]) -> tuple[float, float] | None:
    """(p, value) for the highest ladder percentile with at least ten samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TOP_PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return None


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024  # Linux reports KiB


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(".n"):
        return "count"
    if name.startswith("trace."):
        return "ratio"
    if name.endswith("_mb"):
        return "MB"
    return "s"


# -- main -------------------------------------------------------------------------


def main(argv=None) -> int:
    if not (SRC / "superext" / "__init__.py").is_file():
        print(f"error: no superext sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    args = parse_args(argv, workloads.RUNNERS)
    env = environment(args.seed)
    variants = workloads.make_inputs(args.workload, args.seed, smoke=args.smoke)
    if args.setup_probe:
        return 0
    setup = setup_seconds(args)
    gc.freeze()  # inputs and modules stay out of every later collection
    ctx = workloads.Context(workload=args.workload, seed=args.seed, fresh=workloads.FreshCheck())

    if args.trace == 0:
        runs = run_passes(workloads, variants, ctx, args.seconds)
        timed = runs[0]
        # the mean, not the median: see "End-to-end metrics" in README.md
        metrics = {
            "setup_s": statistics.median(setup),
            "pass_s": statistics.mean(timed.pass_s),
            "peak_rss_mb": peak_rss_mb(),
        }
    else:
        tracer = tracing.Tracer(args.workload)
        runs = run_passes(workloads, variants, ctx, args.seconds, tracers=(None, tracer))
        plain, traced = runs
        spans = tracer.spans
        metrics = tracing.layer_totals(spans, len(traced.pass_s))
        enum_s = metrics["setfam.enumerate_mls.s"]
        metrics["setfam.enumerate_mls.systems_per_s"] = (
            metrics["setfam.enumerate_mls.n"] / enum_s if enum_s > 0 else 0.0
        )
        metrics["setfam.circ.products_per_s"] = (
            workloads.circ_products_per_s(variants[0], args.seed)
            if args.workload == "brute-cross-check" else 0.0
        )
        metrics["trace.coverage"] = tracing.covered_seconds(spans) / sum(traced.pass_s)
        metrics["trace.overhead"] = statistics.median(traced.pass_s) / statistics.median(plain.pass_s) - 1

    attempted = sum(r.attempted for r in runs)
    failures = [f for r in runs for f in r.failures]
    timed = runs[0]
    top = top_percentile(timed.item_s)
    extra = {
        "failed_frac": len(failures) / attempted,
        "passes": [len(r.pass_s) for r in runs],
        "item_samples": len(timed.item_s),
        "item_p50_s": statistics.median(timed.item_s),
        "item_ptop": None if top is None else {"percentile": top[0], "value_s": top[1]},
        "setup_probes_s": setup,
        "items": [list(zip(r.item_ids, r.item_s)) for r in runs],
    }

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env))
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit_of(name)}")
    print(f"  {'item_p50_s':<44} {extra['item_p50_s']:>14.6g} s")
    print(f"  {'failed_frac':<44} {extra['failed_frac']:>14.6g} ({len(failures)}/{attempted} items)")
    if top is None:
        print(f"  item_ptop_s: none ({len(timed.item_s)} item samples; no percentile has ten above it)")
    else:
        print(f"  item_ptop_s: p{top[0]:g} = {top[1]:.6g} s over {len(timed.item_s)} item samples")
    for failure in failures[:10]:
        print("FAILED " + failure, file=sys.stderr)

    workloads.OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "trace": args.trace, "env": env, "metrics": metrics, "extra": extra,
              "failures": failures, "spans": spans if args.trace else []}
    (workloads.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record), encoding="utf-8")

    correct = not failures
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
