"""Build reference.json: the expected answer of every pool instance.

    python3 perfbench/make_reference.py

Rebuilds the whole table from scratch. References come from the exact solvers
at the commit that runs this script: ``flow`` for unit prices, cross-checked
by ``brute_topk`` (exhaustive where that finishes in 5 s, else bounded by the
budget, which still decides exactly); ``brute_topk`` or ``brute_rankings``
with raised caps otherwise. A disagreement aborts the build. Each entry also
records how long the workload's own command took on it here (median of
three, in seconds at the host's fast speed; see hostclock.py), which orders
the pool into the time strata a corpus draws from. Run it on an otherwise
idle machine: a second busy process slows some operations more than the
host clock's reference loop, and skews the strata.

Pool members whose time lies within a factor of 2 of the workload's deadline,
on either side, are left out, so that whether an operation finishes in time
does not flip with host noise. Members slower than that are left out of the
pools too, so that every corpus costs the same; the slow instances a workload
keeps on purpose are its families' fixed members, which are always in.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from swapbribery import io as formats  # noqa: E402
from swapbribery.errors import ResourceCapError  # noqa: E402
from swapbribery.flow import solve_unit  # noqa: E402
from swapbribery.oracle import OracleCaps, brute_rankings, brute_topk  # noqa: E402

import workloads  # noqa: E402
from hostclock import DeadlineExceeded, ScaledClock, on_alarm  # noqa: E402

RAISED = OracleCaps(topk_combinations=10**12, ranking_combinations=10**12)
CROSS_CHECK_S = 5
NOISE = 2  # outcomes of members within this factor of the deadline may flip


def _cost(value):
    return None if value is None else formats.format_fraction(value)


def _within(seconds: float, fn):
    """fn() or None when it runs past the time limit or its caps."""
    signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn()
    except (DeadlineExceeded, ResourceCapError):
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def reference(instance) -> dict:
    rule = instance.rule.kind
    if not (rule == "k-approval" and instance.costs.is_uniform(1)):
        oracle = brute_topk if rule == "k-approval" else brute_rankings
        brute = oracle(instance, caps=RAISED)
        return {"decision": brute.decision, "cost": _cost(brute.optimal_cost), "solver": "brute", "cost_is_optimal": True}
    flow = solve_unit(instance)
    brute = _within(CROSS_CHECK_S, lambda: brute_topk(instance, caps=RAISED))
    if brute is None:  # bounded by the budget: no cost on "no"
        brute = brute_topk(instance, caps=workloads.UNCAPPED, prune_to_budget=True)
    if brute.decision != flow.decision or brute.optimal_cost not in (None, flow.optimal_cost):
        raise SystemExit(f"flow and brute disagree: {flow} vs {brute}")
    return {"decision": flow.decision, "cost": _cost(flow.optimal_cost), "solver": "flow",
            "cross_check": "brute", "cost_is_optimal": True}


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    scratch = Path(__file__).resolve().parent.parent / ".perfbench_work" / "reference"
    scratch.mkdir(parents=True, exist_ok=True)
    table = {}
    for workload in workloads.WORKLOADS.values():
        if not workload.families:
            continue
        table[workload.name] = {}
        limit = workload.deadline_s * NOISE
        for family in workload.families:
            members = table[workload.name][family.name] = {}
            for gen_seed in dict.fromkeys((*family.fixed, *range(family.pool))):
                instance = family.make(gen_seed)
                sbe = scratch / "instance.sbe"
                sbe.write_text(formats.serialize_election(instance))
                argv = workload.argv(str(sbe))
                code, _, seconds, _, _, _ = workloads.execute(argv, ScaledClock(limit))
                if code is not None:  # median of three, for the time strata
                    seconds = statistics.median([seconds] + [workloads.execute(argv, ScaledClock(limit))[2] for _ in range(2)])
                entry = {"fingerprint": workloads.fingerprint(instance), "seconds": round(seconds, 3)}
                if gen_seed not in family.fixed and seconds > workload.deadline_s / NOISE:
                    print(f"{workload.name} {family.name}/{gen_seed}: {seconds:.2f} s, near or past the deadline, left out", flush=True)
                    continue
                entry.update(reference(instance))
                members[str(gen_seed)] = entry
                print(f"{workload.name} {family.name}/{gen_seed}: {entry}", flush=True)
            if len(members) < family.take + len(family.fixed):
                raise SystemExit(f"{family.name}: only {len(members)} usable pool members")
    workloads.REFERENCE_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
