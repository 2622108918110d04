"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One closed-loop client in this process: operations run one at a time, each a
``swapbribery`` command line passed to ``swapbribery.cli.main``, with no other
threads or processes. The corpus is written from ``--seed`` with the package's
own generators, afresh before every pass. The run makes as many whole passes
over it as fit in ``--seconds`` at the workload's nominal pass times, checks
every answer, and prints a report whose last line is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports
the end-to-end metrics, in seconds at the host's fast speed; ``--trace 1``
runs every operation twice, untraced and traced, and reports the per-layer
metrics. See README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SETUP_REPEATS = 3  # imports of the package, and corpus writes at least (one before each pass); medians
PACKAGE_MODULES = ("swapbribery", "swapbribery.cli", "swapbribery.hardness", "swapbribery.reductions")
TAIL_BEYOND = 10  # op_tail_ms is the highest percentile with this many samples beyond it


@dataclass
class Outcome:
    op_id: str
    status: str  # ok, timeout, error (exit 2 or an exception), wrong
    seconds: float  # latency at the host's fast speed; the deadline when stopped there
    cpu: float  # CPU seconds at the host's fast speed
    wall: float  # latency as measured
    detail: str = ""


@dataclass
class Run:
    """One operation as it ran, before its answer is checked."""

    op: object
    code: int | None  # None: stopped at the deadline, or raised
    stdout: str
    seconds: float  # at the host's fast speed, as is cpu
    cpu: float
    wall: float
    crash: Exception | None
    counts: Counter | None  # the tracer's counts; None when untraced


def run_op(op, deadline_s: float, tracer) -> Run:
    from workloads import ScaledClock, execute

    clock = ScaledClock(deadline_s)
    if tracer:
        tracer.enabled, tracer.now = True, clock.now
        root = tracer.begin_op()
    try:
        code, stdout, seconds, cpu, wall, crash = execute(op.argv, clock)
    finally:
        if tracer:
            tracer.end(root)
            tracer.enabled = False
    return Run(op, code, stdout, seconds, cpu, wall, crash, tracer.op_counts if tracer else None)


def judge(run: Run, deadline_s: float) -> Outcome:
    from workloads import check

    def outcome(status: str, detail: str = "") -> Outcome:
        return Outcome(run.op.id, status, deadline_s if status == "timeout" else run.seconds, run.cpu, run.wall, detail)

    if run.crash is not None:  # a failed assertion of the package means its result is wrong
        return outcome("wrong" if isinstance(run.crash, AssertionError) else "error", f"raised {run.crash!r}")
    if run.code is None:
        return outcome("timeout", f"stopped at the {deadline_s:g} s deadline")
    wrong = check(run.op, run.code, run.stdout)
    if wrong is None:
        return outcome("ok")
    if run.code == 2:
        lines = run.stdout.strip().splitlines()
        return outcome("error", lines[-1] if lines else "exit 2")
    return outcome("wrong", wrong)


def run_pass(ops, deadline_s: float, tracer=None) -> dict:
    """Run every operation once; with a tracer, twice: untraced and traced, back to back.

    The order of the two alternates from one operation to the next, so that
    neither side always runs on warm caches, and host drift hits both alike.
    The answers are checked after the clocks stop, since checking a kernel
    solves it again.
    """
    runs = []
    first_span = len(tracer.spans) if tracer else 0
    for i, op in enumerate(ops):
        for with_tracer in ((False,) if tracer is None else ((False, True) if i % 2 == 0 else (True, False))):
            runs.append(run_op(op, deadline_s, tracer if with_tracer else None))
    outcomes, traced, counts = [], [], Counter()
    for run in runs:
        (outcomes if run.counts is None else traced).append(judge(run, deadline_s))
        if run.counts is not None and run.code is not None:  # a stopped operation's counts depend on timing
            counts.update(run.counts)
            for line in run.stdout.splitlines():
                if line.startswith("algorithm: "):
                    counts[f"cli.picked.{line.split(': ', 1)[1]}"] += 1
    return {
        "outcomes": outcomes,
        "traced": traced,
        "counts": counts,
        "self_times": tracer.self_times(first_span) if tracer else {},
    }


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def _git_commit() -> str:
    git = CHECKOUT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(workload, args, passes: int, ops: int) -> dict:
    from swapbribery import oracle

    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "deadline_s": workload.deadline_s,
        "passes": passes,
        "ops_per_pass": ops,
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "nproc": os.cpu_count(),
        "available_backends": list(oracle.available_backends()),
        "backend": oracle.get_backend("auto").BACKEND_NAME,
    }


def measure(build, workload, seconds: float, tracer) -> tuple[list[dict], list[float]]:
    """The run's passes, each over a corpus written afresh, and the scaled times of those set-ups.

    The pass count comes from the workload's nominal times, not from how fast
    this run goes. An operation stopped at the deadline is not run again: it
    has failed, and its latency is the deadline. After the last pass the corpus
    is written again until there have been SETUP_REPEATS set-ups, so that
    set-up time is sampled across the run and not only at its start.
    """
    passes, setups, stopped = [], [], set()
    for _ in range(workload.passes(seconds)):
        ops, seconds_taken = build()
        setups.append(seconds_taken)
        passes.append(run_pass([op for op in ops if op.id not in stopped], workload.deadline_s, tracer))
        stopped.update(o.op_id for o in passes[-1]["outcomes"] + passes[-1]["traced"] if o.status == "timeout")
    while len(setups) < SETUP_REPEATS:
        setups.append(build()[1])
    return passes, setups


SEVERITY = {"ok": 0, "error": 1, "timeout": 2, "wrong": 3}


def per_operation(passes) -> list[Outcome]:
    """Each operation once: the medians of its times over the passes, and its worst status."""
    runs: dict[str, list[Outcome]] = {}
    for p in passes:
        for o in p["outcomes"]:
            runs.setdefault(o.op_id, []).append(o)
    merged = []
    for op_id, outcomes in runs.items():
        worst = max(outcomes, key=lambda o: SEVERITY[o.status])
        merged.append(Outcome(op_id, worst.status, *(statistics.median(getattr(o, key) for o in outcomes)
                                                      for key in ("seconds", "cpu", "wall")), worst.detail))
    return merged


def end_to_end(passes, setup_s: float) -> tuple[dict, list[str]]:
    from hostclock import TICK_S

    attempts = [o for p in passes for o in p["outcomes"]]
    ops = per_operation(passes)
    latencies = [o.seconds for o in ops]
    ok = sum(o.status == "ok" for o in ops)
    tail_s, percentile = tail(latencies)
    metrics = {
        "op_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "op_tail_ms": (tail_s * 1000, "ms"),
        "ops_per_s": (ok / sum(latencies), "1/s"),
        "cpu_s": (sum(o.cpu for o in ops), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }
    wall = [o.wall for o in ops]
    notes = [
        "times are at the host's fast speed: wall time divided by the host's slowness, read every "
        f"{TICK_S:g} s",
        f"an operation's time is its median over {len(passes)} pass(es); an operation stopped at the deadline ran once",
        f"op_tail_ms is p{percentile:.1f} of the {len(ops)} operations ({TAIL_BEYOND} beyond it)",
        f"fail_share {(len(ops) - ok) / len(ops):.4f} ({len(ops) - ok} of {len(ops)} operations)",
        "ops_per_s and cpu_s are those of one pass",
        f"as measured, without the scaling: op_p50_ms {statistics.median(wall) * 1000:.4g}, "
        f"op_tail_ms {tail(wall)[0] * 1000:.4g}, ops_per_s {ok / sum(wall):.4g}; "
        f"mean host slowness {sum(o.wall for o in attempts) / sum(o.seconds for o in attempts):.3f}",
    ]
    return metrics, notes


def per_layer(passes) -> tuple[dict, list[str]]:
    import tracing

    times: Counter = Counter()
    for p in passes:
        times.update(p["self_times"])
    counts = passes[0]["counts"]
    metrics = tracing.layer_metrics({name: value / len(passes) for name, value in times.items()}, counts)
    traced_op_s = statistics.mean(sum(o.seconds for o in p["traced"]) for p in passes)
    untraced_op_s = statistics.mean(sum(o.seconds for o in p["outcomes"]) for p in passes)
    metrics["trace.op_s"] = (traced_op_s, "s")
    metrics["trace.untraced_op_s"] = (untraced_op_s, "s")
    metrics["trace.overhead_s"] = (traced_op_s - untraced_op_s, "s")
    layer_sum = sum(value for name, (value, unit) in metrics.items()
                    if unit == "s" and not name.startswith("trace."))
    notes = [
        f"layer self times sum to {layer_sum:.4f} s per pass; the traced operations took {traced_op_s:.4f} s",
        f"tracing overhead {traced_op_s - untraced_op_s:+.4f} s per pass "
        f"({100 * (traced_op_s / untraced_op_s - 1):+.1f}%, {len(passes)} pass(es))",
        f"flow.full_value_ratio base: {counts['flow.flows_run']} flows; "
        f"lp.prune_ratio base: {counts['lp.calls']} lp calls",
    ]
    if any(p["counts"] != counts for p in passes[1:]):
        notes.append("WARNING: counts differ between passes")
    return metrics, notes


def import_package() -> float:
    """Import the package afresh, dropping any earlier import: seconds at the host's fast speed.

    The first import in a process also loads the standard modules the package
    needs; later ones run the package's own module code only.
    """
    for name in [name for name in sys.modules if name.split(".")[0] == "swapbribery"]:
        del sys.modules[name]
    from hostclock import ScaledClock

    clock = ScaledClock()
    with clock.ticking():
        for name in PACKAGE_MODULES:
            importlib.import_module(name)
    return clock.stop()[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="swapbribery benchmark: one workload, one seed")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(CHECKOUT / "src"), str(HERE)]
    from hostclock import ScaledClock

    imports = [import_package() for _ in range(SETUP_REPEATS)]
    import workloads  # uses the last import
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]

    work = CHECKOUT / ".perfbench_work" / f"{workload.name}-{os.getpid()}"

    def build():
        """Write the corpus: (operations, set-up seconds at the host's fast speed)."""
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        clock = ScaledClock()
        with clock.ticking():
            ops = workloads.Corpus(workload, args.seed, work, workloads.load_reference()).build()
        return ops, clock.stop()[0]

    try:
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
        passes, setups = measure(build, workload, args.seconds, tracer)
        import_s = statistics.median(imports)
        setup_s = import_s + statistics.median(setups)
        metrics, notes = (per_layer(passes) if args.trace else end_to_end(passes, setup_s))
        notes.append("setup_s is the median of imports of the package, "
                     + ", ".join(f"{s:.4f}" for s in imports) + " s, plus the median of corpus writes, "
                     + ", ".join(f"{s:.4f}" for s in setups) + " s")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    outcomes = [o for p in passes for o in p["outcomes"] + p["traced"]]
    failed = [o for o in outcomes if o.status != "ok"]
    prov = provenance(workload, args, len(passes), len(passes[0]["outcomes"]))
    print(f"workload {workload.name}: {workload.why}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    by_op = Counter((o.op_id, o.status, o.detail) for o in failed)
    for (op_id, status, detail), times in sorted(by_op.items()):
        print(f"FAILED {op_id}: {status} x{times}: {detail}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit}")
    for note in notes:
        print(f"  # {note}")

    out_dir = CHECKOUT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    record = {
        "provenance": prov,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "notes": notes,
        "operations": [vars(o) for o in outcomes],
        "spans": tracer.spans if tracer else [],
    }
    (out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))

    result = {
        "correct": not any(o.status == "wrong" for o in outcomes),
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
