"""Command-line front end.

Exit codes for ``solve`` and ``verify``: 0 the preferred candidate can win
(or the solution checks out), 1 they cannot (or it does not), 2 an error.
Every solver's witness is re-verified before anything is printed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from math import factorial
from pathlib import Path

from . import io as formats
from .colorcoding import ColorCaps, solve_color_coding
from .errors import SwapBriberyError
from .flow import build_transfer_network, solve_unit
from .hardness import (
    multicolored_clique_instance,
    planted_multicolored_clique,
    random_graph,
    single_vote_clique_instance,
)
from .ilp import solve_ilp
from .kernel import kernelize, truncation_kernel
from .oracle import brute_topk, brute_rankings
from .reductions import gen_random, pw_to_sb, sb_to_pw
from .swaps import verify_bribery

YES, NO, ERROR = 0, 1, 2


def _read(path: str) -> str:
    return Path(path).read_text()


def _write(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _pick_algorithm(instance) -> str:
    if instance.rule.kind == "k-approval" and instance.costs.is_uniform(1):
        return "flow"
    if factorial(instance.election.m) <= 720 and instance.rule.kind in ("k-approval", "bucklin"):
        return "ilp"
    if instance.rule.kind == "k-approval":
        return "color"
    return "brute"


def _color_caps(args) -> ColorCaps:
    base = ColorCaps()
    return ColorCaps(
        pattern_size=args.pattern_cap if getattr(args, "pattern_cap", None) else base.pattern_size,
        colorings=args.coloring_cap if getattr(args, "coloring_cap", None) else base.colorings,
    )


def _run_solver(instance, algorithm: str, args) -> tuple[bool, Fraction | None, object]:
    if algorithm == "brute":
        if instance.rule.kind == "k-approval":
            res = brute_topk(instance)
        else:
            res = brute_rankings(instance)
        return res.decision, res.optimal_cost, res.witness
    if algorithm == "flow":
        res = solve_unit(instance)
        return res.decision, res.optimal_cost, res.witness
    if algorithm == "ilp":
        res = solve_ilp(instance)
        if getattr(args, "dump_ilp", None):
            _dump_programs(instance, args.dump_ilp)
        return res.decision, None, res.witness
    if algorithm == "color":
        caps = _color_caps(args)
        mode = args.color_mode
        if mode == "auto":
            others = instance.election.m - 1
            nk = instance.election.n_expanded * instance.rule.k
            exhaustive_fits = (
                nk <= caps.pattern_size
                and max(1, nk - 1) ** others <= caps.colorings
            )
            mode = "exhaustive" if exhaustive_fits else "random"
        res = solve_color_coding(
            instance, mode=mode, trials=args.trials, seed=args.seed, caps=caps
        )
        return res.decision, res.cost, res.witness
    raise SwapBriberyError(f"unknown algorithm {algorithm!r}")


def _dump_programs(instance, path: str):
    from .ilp import build_ilp, describe_rule, format_lp

    system = describe_rule(
        instance.rule,
        instance.election.m,
        instance.election.n_expanded,
        unique=instance.unique_mode,
    )
    chunks = []
    for i in range(len(system.sets)):
        chunks.append(f"\\ description set {i}")
        chunks.append(format_lp(build_ilp(instance, system, i)))
    _write(path, "\n".join(chunks))


def _cmd_solve(args) -> int:
    instance = formats.parse_election(_read(args.instance))
    algorithm = args.algorithm
    if algorithm == "auto":
        algorithm = _pick_algorithm(instance)
    decision, cost, witness = _run_solver(instance, algorithm, args)
    if witness is not None and decision:
        report = verify_bribery(instance, witness)
        if not report.is_solution:
            print("error: solver produced an invalid witness", file=sys.stderr)
            return ERROR
        cost = report.total_cost
    print(f"algorithm: {algorithm}")
    print(f"decision: {'yes' if decision else 'no'}")
    if cost is not None:
        print(f"cost: {formats.format_fraction(cost)}")
    if args.solution:
        text = formats.serialize_solution(
            instance,
            decision,
            cost,
            witness if decision else None,
            solver=algorithm,
            config={"seed": str(args.seed), "mode": args.color_mode},
        )
        _write(args.solution, text)
    return YES if decision else NO


def _cmd_verify(args) -> int:
    instance = formats.parse_election(_read(args.instance))
    decision, cost, bribery, solver, _ = formats.parse_solution(
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
    instance = formats.parse_election(_read(args.instance))
    if args.simple:
        kernel = truncation_kernel(instance)
        provenance = {
            name: instance.election.index_of(name)
            for name in kernel.election.candidates
        }
        _write(args.out, formats.serialize_election(kernel))
    else:
        result = kernelize(instance)
        provenance = {
            result.instance.election.candidates[i]: orig
            for i, orig in enumerate(result.provenance)
        }
        _write(args.out, formats.serialize_election(result.instance))
    if args.provenance:
        _write(args.provenance, json.dumps(provenance, indent=2) + "\n")
    return YES


def _parse_cost_model(text: str):
    if text == "unit":
        return "unit"
    parts = text.split(":")
    if parts[0] == "two" and len(parts) == 4:
        return ("two-valued", Fraction(parts[1]), Fraction(parts[2]), float(parts[3]))
    if parts[0] == "range" and len(parts) == 3:
        return ("uniform-range", Fraction(parts[1]), Fraction(parts[2]))
    raise SwapBriberyError(
        f"bad cost model {text!r}; use unit, two:a:b:density or range:lo:hi"
    )


def _cmd_generate(args) -> int:
    if args.kind == "random":
        instance = gen_random(
            args.m,
            args.n,
            args.k,
            cost_model=_parse_cost_model(args.cost_model),
            seed=args.seed,
            budget=Fraction(args.budget) if args.budget is not None else None,
        )
    elif args.kind == "clique-gadget":
        if args.graph == "planted":
            sizes = [int(s) for s in args.classes.split(",")]
            graph, _ = planted_multicolored_clique(sizes, seed=args.seed)
        else:
            graph = formats.parse_graph(_read(args.graph))
        instance, _ = multicolored_clique_instance(graph, epsilon=Fraction(args.epsilon))
    elif args.kind == "clique-single-vote":
        if args.graph == "random":
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
    if instance.rule.kind != "k-approval":
        print("error: transfer networks need a k-approval instance", file=sys.stderr)
        return ERROR
    network = build_transfer_network(
        instance.election.expanded_list(),
        instance.rule.k,
        instance.preferred,
        args.s_star,
        unique=instance.unique_mode,
    )
    _write(args.out, formats.network_to_dot(network))
    return YES


def _cmd_bench(args) -> int:
    rows = ["instance,solver,decision,cost,wall_ms,seed"]
    for path in args.instances:
        instance = formats.parse_election(_read(path))
        for solver in args.solvers.split(","):
            started = time.perf_counter()
            decision, cost, witness = _run_solver(instance, solver, args)
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            if witness is not None and decision:
                cost = verify_bribery(instance, witness).total_cost
            rows.append(
                f"{path},{solver},{'yes' if decision else 'no'},"
                f"{formats.format_fraction(cost) if cost is not None else '-'},"
                f"{elapsed_ms:.3f},{args.seed}"
            )
    _write(args.out, "\n".join(rows) + "\n")
    return YES


def build_parser() -> argparse.ArgumentParser:
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
    solve.add_argument("--color-mode", choices=("auto", "exhaustive", "random"), default="auto")
    solve.add_argument("--trials", type=int, default=None)
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--pattern-cap", type=int, default=None)
    solve.add_argument("--coloring-cap", type=int, default=None)
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
    gen.add_argument("--graph", default="planted", help="graph file, or planted/random")
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
    bench.add_argument("--color-mode", choices=("auto", "exhaustive", "random"), default="auto")
    bench.add_argument("--trials", type=int, default=None)
    bench.add_argument("--seed", type=int, default=0)
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
    except SwapBriberyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERROR


if __name__ == "__main__":
    sys.exit(main())
