"""Command-line front end.

Exit codes for ``solve`` and ``verify``: 0 the preferred candidate can win
(or the solution checks out), 1 they cannot (or it does not), 2 an error.
``solve`` and ``bench`` re-verify every yes witness before anything is
printed; an invalid one is an error. Their cost is the verified witness
cost on a yes. On a no it is the proven optimum, which only ``brute`` and
``flow`` report, and it exceeds the budget.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import io as formats
from .colorcoding import solve_color_coding
from .errors import SwapBriberyError
from .flow import build_transfer_network, covers, require_covers, solve_unit
from .hardness import (
    multicolored_clique_instance,
    planted_multicolored_clique,
    random_graph,
    single_vote_clique_instance,
)
from .ilp import solve_ilp
from .kernel import kernelize, truncation_kernel, truncation_provenance
from .oracle import brute_topk, brute_rankings
from .reductions import gen_random, pw_to_sb, sb_to_pw
from .swaps import SolveResult, verify_bribery, vote_classes

YES, NO, ERROR = 0, 1, 2


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise SwapBriberyError(f"{path} is not UTF-8 text") from None


def _write(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _resolve(instance, algorithm: str) -> str:
    """The named algorithm; ``auto`` is flow wherever it applies, on k-approval
    with one swap price per vote (which holds the paper's polynomial case,
    unit prices), and the exact search on everything else."""
    if algorithm != "auto":
        return algorithm
    return "flow" if covers(instance) else "brute"


def _run_solver(instance, algorithm: str) -> SolveResult:
    # Solvers are looked up on this module per call, so wrappers installed here see them.
    if algorithm == "brute":
        if instance.rule.kind == "k-approval":
            return brute_topk(instance)
        return brute_rankings(instance)
    if algorithm == "flow":
        return solve_unit(instance)
    if algorithm == "ilp":
        return solve_ilp(instance)
    if algorithm == "color":
        return solve_color_coding(instance)
    raise SwapBriberyError(f"unknown algorithm {algorithm!r}")


def _checked_cost(instance, result: SolveResult) -> Fraction | None:
    """Verify a yes witness and return the cost to print.

    That is the witness's own cost on a yes, else the proven optimum, if any.
    """
    if result.decision and result.witness is not None:
        report = verify_bribery(instance, result.witness)
        if not report.is_solution:
            raise SwapBriberyError("solver produced an invalid witness")
        return report.total_cost
    return result.optimal_cost


def _dump_programs(instance, path: str):
    from .ilp import build_ilp, format_lp

    ilp = build_ilp(instance)
    listings = (f"\\ description set {i}\n{format_lp(ilp, rows)}" for i, rows in enumerate(ilp.sets))
    _write(path, "\n".join(listings))


def _cmd_solve(args) -> int:
    if args.dump_ilp and args.algorithm != "ilp":
        raise SwapBriberyError("--dump-ilp needs --algorithm ilp")
    instance = formats.parse_election(_read(args.instance))
    algorithm = _resolve(instance, args.algorithm)
    result = _run_solver(instance, algorithm)
    if args.dump_ilp:
        _dump_programs(instance, args.dump_ilp)
    cost = _checked_cost(instance, result)
    decision = result.decision
    print(f"algorithm: {algorithm}")
    print(f"decision: {'yes' if decision else 'no'}")
    if cost is not None:
        print(f"cost: {formats.format_fraction(cost)}")
    if args.solution:
        text = formats.serialize_solution(
            instance,
            decision,
            cost,
            result.witness if decision else None,
            solver=algorithm,
        )
        _write(args.solution, text)
    return YES if decision else NO


def _cmd_verify(args) -> int:
    instance = formats.parse_election(_read(args.instance))
    decision, cost, bribery, solver = formats.parse_solution(
        _read(args.solution), instance
    )
    if not decision or bribery is None:
        print("solution file declares no witness")
        return NO
    report = verify_bribery(instance, bribery)
    print(f"stated cost: {formats.format_fraction(cost) if cost is not None else '-'}")
    print(f"checked cost: {formats.format_fraction(report.total_cost)}")
    print(f"preferred wins: {'yes' if report.preferred_wins else 'no'}")
    ok = report.is_solution and (cost is None or cost == report.total_cost)
    print(f"solution valid: {'yes' if ok else 'no'}")
    return YES if ok else NO


def _cmd_kernelize(args) -> int:
    text = _read(args.instance)
    instance = formats.parse_election(text)
    if args.simple:
        kernel = truncation_kernel(instance)
        origins = truncation_provenance(instance, kernel)
    else:
        result = kernelize(instance)
        kernel, origins = result.instance, result.provenance
    # A kernel that is its input is written back as read, not serialized again.
    _write(args.out, text if kernel is instance else formats.serialize_election(kernel))
    if args.provenance:
        provenance = dict(zip(kernel.election.candidates, origins))
        _write(args.provenance, json.dumps(provenance, indent=2) + "\n")
    return YES


def _parse_cost_model(text: str):
    if text == "unit":
        return "unit"
    parts = text.split(":")
    try:
        if parts[0] == "two" and len(parts) == 4:
            density = float(parts[3])
            # written so that nan fails it too
            if 0 <= density <= 1:
                return ("two-valued", Fraction(parts[1]), Fraction(parts[2]), density)
        elif parts[0] == "range" and len(parts) == 3:
            return ("uniform-range", Fraction(parts[1]), Fraction(parts[2]))
    except (ValueError, ZeroDivisionError):
        pass
    raise SwapBriberyError(
        f"bad cost model {text!r}; use unit, two:a:b:density with density in [0, 1], or range:lo:hi"
    )


def _parse_rational(text: str, option: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise SwapBriberyError(f"bad {option} {text!r}; use p or p/q") from None


def _parse_class_sizes(text: str) -> list[int]:
    sizes = [t.lstrip("0") for t in text.split(",")]  # a size of zero is left without digits
    if not all(s.isascii() and s.isdigit() for s in sizes):
        raise SwapBriberyError(f"bad --classes {text!r}; use class sizes >= 1, like 2,2")
    # checked before int(), which refuses more than 4,300 digits, and before
    # the graph is drawn, which takes time quadratic in its vertices
    bound = formats.MAX_VERTICES
    if any(len(s) > len(str(bound)) for s in sizes) or sum(map(int, sizes)) > bound:
        raise SwapBriberyError(f"--classes {text} has more than {bound} vertices")
    return [int(s) for s in sizes]


def _cmd_generate(args) -> int:
    if args.kind == "random":
        instance = gen_random(
            args.m,
            args.n,
            args.k,
            cost_model=_parse_cost_model(args.cost_model),
            seed=args.seed,
            budget=None if args.budget is None else _parse_rational(args.budget, "--budget"),
        )
    elif args.kind == "clique-gadget":
        if args.graph in (None, "planted"):
            graph, _ = planted_multicolored_clique(
                _parse_class_sizes(args.classes), seed=args.seed
            )
        else:
            graph = formats.parse_graph(_read(args.graph))
        epsilon = _parse_rational(args.epsilon, "--epsilon")
        instance, _ = multicolored_clique_instance(graph, epsilon=epsilon)
    elif args.kind == "clique-single-vote":
        if args.graph in (None, "random"):
            if args.n > formats.MAX_VERTICES:  # drawing the graph takes time quadratic in n
                raise SwapBriberyError(f"--n {args.n} has more than {formats.MAX_VERTICES} vertices")
            graph = random_graph(args.n, 0.5, args.seed)
        else:
            graph = formats.parse_graph(_read(args.graph))
        instance = single_vote_clique_instance(graph, args.k)
    else:  # pragma: no cover - argparse restricts choices
        raise SwapBriberyError(f"unknown generator {args.kind!r}")
    _write(args.out, formats.serialize_election(instance))
    return YES


def _cmd_reduce(args) -> int:
    if args.direction == "sb-to-pw":
        instance = formats.parse_election(_read(args.instance))
        _write(args.out, formats.serialize_partial(sb_to_pw(instance)))
    else:
        pw = formats.parse_partial(_read(args.instance))
        _write(args.out, formats.serialize_election(pw_to_sb(pw)))
    return YES


def _cmd_export_network(args) -> int:
    instance = formats.parse_election(_read(args.instance))
    require_covers(instance)
    classes = vote_classes(instance)
    network = build_transfer_network(
        classes, instance.rule.k, instance.preferred, args.s_star, instance.unique_mode
    )
    _write(args.out, formats.network_to_dot(network))
    return YES


def _cmd_bench(args) -> int:
    rows = ["instance,solver,decision,cost,wall_ms"]
    for path in args.instances:
        instance = formats.parse_election(_read(path))
        for name in args.solvers.split(","):
            solver = _resolve(instance, name)
            started = time.perf_counter()
            result = _run_solver(instance, solver)
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            cost = _checked_cost(instance, result)
            rows.append(
                f"{path},{solver},{'yes' if result.decision else 'no'},"
                f"{formats.format_fraction(cost) if cost is not None else '-'},"
                f"{elapsed_ms:.3f}"
            )
    _write(args.out, "\n".join(rows) + "\n")
    return YES


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by later calls.

    Parsing keeps no state in it: each ``parse_args`` starts a fresh namespace.
    """
    parser = argparse.ArgumentParser(
        prog="swapbribery",
        description="solver workbench for swap bribery under k-approval, scoring and Bucklin rules",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="decide an instance and emit a solution")
    solve.add_argument("instance")
    solve.add_argument(
        "--algorithm",
        choices=("auto", "brute", "flow", "color", "ilp"),
        default="auto",
    )
    solve.add_argument("--solution", help="write a solution file here")
    solve.add_argument("--dump-ilp", help="write the transformation programs here")
    solve.set_defaults(func=_cmd_solve)

    verify = sub.add_parser("verify", help="re-check a solution file")
    verify.add_argument("instance")
    verify.add_argument("solution")
    verify.set_defaults(func=_cmd_verify)

    kern = sub.add_parser("kernelize", help="shrink an instance, preserving the decision")
    kern.add_argument("instance")
    kern.add_argument("--out", default="-")
    kern.add_argument("--provenance", help="write a kernel-to-original JSON map here")
    kern.add_argument("--simple", action="store_true", help="use the truncation kernel")
    kern.set_defaults(func=_cmd_kernelize)

    gen = sub.add_parser("generate", help="write a generated instance")
    gen.add_argument("kind", choices=("random", "clique-gadget", "clique-single-vote"))
    gen.add_argument("--m", type=int, default=5)
    gen.add_argument("--n", type=int, default=3)
    gen.add_argument("--k", type=int, default=2)
    gen.add_argument("--cost-model", default="unit")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--budget", default=None)
    gen.add_argument(
        "--graph",
        help="graph file; default: planted for clique-gadget, random for clique-single-vote",
    )
    gen.add_argument("--classes", default="2,2", help="class sizes for planted graphs")
    gen.add_argument("--epsilon", default="1")
    gen.add_argument("--out", default="-")
    gen.set_defaults(func=_cmd_generate)

    red = sub.add_parser("reduce", help="translate to or from Possible Winner")
    red.add_argument("direction", choices=("sb-to-pw", "pw-to-sb"))
    red.add_argument("instance")
    red.add_argument("--out", default="-")
    red.set_defaults(func=_cmd_reduce)

    bench = sub.add_parser("bench", help="time solvers over instance files, CSV output")
    bench.add_argument("instances", nargs="+")
    bench.add_argument("--solvers", default="brute,flow")
    bench.add_argument("--out", default="-")
    bench.set_defaults(func=_cmd_bench)

    export = sub.add_parser("export-network", help="emit a transfer network as DOT")
    export.add_argument("instance")
    export.add_argument("--s-star", type=int, required=True)
    export.add_argument("--out", default="-")
    export.set_defaults(func=_cmd_export_network)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SwapBriberyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERROR


def console(argv=None) -> int:
    """``main`` for the ``swapbribery`` command: a crash exits 2, never 1, which means no.

    ``main`` itself lets a fault of the program raise to its caller, so that
    one running it in process sees a failed assertion as such.
    """
    try:
        return main(argv)
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return ERROR
    except Exception:
        import traceback  # only here, so that no run that needs none loads it

        traceback.print_exc()
        return ERROR


if __name__ == "__main__":
    sys.exit(console())
