"""Spans and counts recorded around the package's functions, from outside the package.

``Tracer.install`` replaces public functions with timing wrappers at the
place their callers look them up (``cli.solve_unit``, ``flow.min_cost_max_flow``,
``ilp.lp_feasible``, ...). Nothing under ``src/`` changes. Each wrapper records
a span (name, start, end, parent span) and, where the result shows it, a count
of the work done. A span's self time is its duration minus its child spans,
so the self times of all spans of an operation add up to the operation's time.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

from swapbribery import _search, cli, colorcoding, flow, ilp, swaps
from swapbribery import io as formats
from swapbribery import oracle
from swapbribery.errors import ResourceCapError

ROOT = "cli"  # the span around one whole cli.main call


def _parsed_mb(counts, args, result):
    counts["io.parse_mb"] += len(args[0]) / 1e6


def _kernel_size(election):
    def count(counts, args, result):
        out = election(result)
        counts["kernel.out_candidates"] += out.m
        counts["kernel.out_votes"] += out.n_expanded

    return count


def _verify(counts, args, result):
    counts["swaps.verify_calls"] += 1


def _flow(counts, args, result):
    network = args[0]
    full = sum(arc.capacity for arc in network.arcs if arc.tail == network.source)
    counts["flow.flows_run"] += 1
    counts["flow.arcs"] += len(network.arcs)
    counts["flow.full_value"] += result.value == full


def _search_work(counts, args, result):
    counts["search.calls"] += 1
    counts["oracle.options"] += args[0][-1]  # offsets[-1]: options over all votes


def _ilp_vars(counts, args, result):
    counts["ilp.variables"] += len(result.variables)


def _ilp_feasible(counts, args, result):
    counts["ilp.sets_tried"] += 1


def _lp(counts, args, result):
    counts["lp.calls"] += 1
    counts["lp.pruned"] += result is None


class Tracer:
    """Records spans and per-operation counts while ``enabled``."""

    def __init__(self):
        self.enabled = False
        self.now = time.perf_counter  # the running operation's clock, while one runs
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._open: list[int] = []
        self.op_counts: Counter = Counter()

    # -- spans -------------------------------------------------------------
    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, self.now(), None, parent])
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        """Close span ``index`` and any span still open inside it."""
        now = self.now()
        while self._open:
            top = self._open.pop()
            self.spans[top][2] = now
            if top == index:
                break

    def begin_op(self) -> int:
        self.op_counts = Counter()
        return self.begin(ROOT)

    def self_times(self, first: int) -> dict[str, float]:
        """Self time per span name over spans[first:]."""
        totals: dict[str, float] = defaultdict(float)
        for name, start, end, parent in self.spans[first:]:
            if end is None:  # opened as a deadline fired, never entered
                continue
            duration = end - start
            totals[name] += duration
            if parent is not None and parent >= first:
                totals[self.spans[parent][0]] -= duration
        return dict(totals)

    # -- wrappers ----------------------------------------------------------
    def _wrap(self, owner, attr: str, name: str, count=None):
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            index = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            except ResourceCapError:
                tracer.op_counts[f"{name}.cap_errors"] += 1
                raise
            finally:
                tracer.end(index)
            if count is not None:
                count(tracer.op_counts, args, result)
            return result

        setattr(owner, attr, wrapper)

    def _count_patterns(self):
        original = colorcoding.successful_patterns
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            for pattern in original(*args, **kwargs):
                if tracer.enabled:
                    tracer.op_counts["colorcoding.patterns"] += 1
                yield pattern

        colorcoding.successful_patterns = wrapper

    def install(self) -> None:
        wrap = self._wrap
        wrap(formats, "parse_election", "io.parse", _parsed_mb)
        wrap(formats, "parse_solution", "io.parse", _parsed_mb)
        wrap(formats, "serialize_election", "io.serialize")
        wrap(formats, "serialize_solution", "io.serialize")
        wrap(cli, "planted_multicolored_clique", "hardness.gadget")
        wrap(cli, "multicolored_clique_instance", "hardness.gadget")
        wrap(cli, "kernelize", "kernel.kernelize", _kernel_size(lambda out: out.instance.election))
        wrap(cli, "truncation_kernel", "kernel.kernelize", _kernel_size(lambda out: out.election))
        # cli and colorcoding import verify_bribery by name; ilp imports it at call time.
        for owner in (cli, colorcoding, swaps):
            wrap(owner, "verify_bribery", "swaps.verify", _verify)
        wrap(cli, "solve_unit", "flow.solve")
        wrap(flow, "build_transfer_network", "flow.build")
        wrap(flow, "min_cost_max_flow", "flow.mcmf", _flow)
        wrap(cli, "brute_topk", "oracle.build")
        wrap(cli, "brute_rankings", "oracle.build")
        # The search backend module is looked up per call, so patch each one loaded.
        for backend in {_search, oracle.get_backend("auto")}:
            wrap(backend, "best_assignment", "search.best_assignment", _search_work)
        wrap(cli, "solve_ilp", "ilp.solve")
        wrap(ilp, "describe_rule", "ilp.describe")
        wrap(ilp, "build_ilp", "ilp.build", _ilp_vars)
        wrap(ilp, "ilp_feasible", "ilp.feasible", _ilp_feasible)
        wrap(ilp, "lp_feasible", "lp.lp_feasible", _lp)
        wrap(cli, "solve_color_coding", "colorcoding.solve")
        self._count_patterns()


# Per-layer metrics: time metrics are self seconds per pass of traced runs, the rest
# are counts of one pass. Ratios give their base in the run's report.
TIME_LAYERS = (
    "cli", "io.parse", "io.serialize", "hardness.gadget", "kernel.kernelize",
    "swaps.verify", "flow.solve", "flow.build", "flow.mcmf", "oracle.build",
    "search.best_assignment", "ilp.solve", "ilp.describe", "ilp.build",
    "ilp.feasible", "lp.lp_feasible", "colorcoding.solve",
)
COUNTS = (
    ("io.parse_mb", "MB"), ("kernel.out_candidates", "count"), ("kernel.out_votes", "count"),
    ("swaps.verify_calls", "count"), ("flow.flows_run", "count"), ("flow.arcs", "count"),
    ("oracle.options", "count"), ("search.calls", "count"), ("ilp.sets_tried", "count"),
    ("ilp.variables", "count"), ("ilp.cap_errors", "count"), ("lp.calls", "count"),
    ("colorcoding.patterns", "count"), ("cli.picked.flow", "count"), ("cli.picked.brute", "count"),
    ("cli.picked.ilp", "count"), ("cli.picked.color", "count"),
)
RATIOS = (
    ("flow.full_value_ratio", "flow.full_value", "flow.flows_run"),
    ("lp.prune_ratio", "lp.pruned", "lp.calls"),
)


def layer_metrics(self_times: dict[str, float], counts: Counter) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one pass, as name -> (value, unit)."""
    metrics = {f"{name}.self_s" if name == ROOT else f"{name}_s": (self_times.get(name, 0.0), "s")
               for name in TIME_LAYERS}
    counts = Counter(counts)
    counts["ilp.cap_errors"] = counts["ilp.feasible.cap_errors"]
    for name, unit in COUNTS:
        metrics[name] = (counts[name], unit)
    for name, part, base in RATIOS:
        metrics[name] = (counts[part] / counts[base] if counts[base] else 0.0, "ratio")
    return metrics
