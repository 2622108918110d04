"""Workload definitions: seeded corpora, the operations run on them, and answer checks.

Every workload is a list of operations, each one ``swapbribery`` command line
(``solve``, ``verify``, ``kernelize`` or ``generate``) run through
``swapbribery.cli.main``. A *pass* runs the list once, in a seeded order.

Instances that need a reference answer come from fixed pools: a family is a
generator plus parameters, and pool member ``g`` is that generator at seed
``g``. ``reference.json`` (built by ``make_reference.py``) holds each pool
member's expected decision, its expected cost where the reference solver
proves an optimum, and a fingerprint of the generated instance. The workload
seed picks which pool members a corpus uses (one from each time stratum of a
family's pool) and the order of the pass. The clique gadgets need no pool:
their expected answers follow from the construction, so their seeds come
straight from the workload seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

from swapbribery import Election, Vote, VotingRule, BriberyInstance, SwapCostFunction
from swapbribery import cli
from swapbribery import io as formats
from swapbribery.core import CO_WINNER, UNIQUE_WINNER
from swapbribery.oracle import OracleCaps, brute_topk
from swapbribery.swaps import Bribery, verify_bribery
from swapbribery.hardness import (
    multicolored_clique_instance,
    multicolored_clique_witness,
    planted_multicolored_clique,
)
from swapbribery.reductions import gen_random

from hostclock import DeadlineExceeded, ScaledClock

REFERENCE_PATH = Path(__file__).with_name("reference.json")
CO, UNIQUE = CO_WINNER, UNIQUE_WINNER

TWO = ("two-valued", Fraction(1), Fraction(2), 0.3)
RANGE = ("uniform-range", Fraction(1), Fraction(3))


# Caps high enough that only the budget bounds brute_topk's search.
UNCAPPED = OracleCaps(topk_combinations=10**60)


def _random(m, n, k, cost="unit", rule=None, mode=CO, budget=None) -> Callable[[int], BriberyInstance]:
    return lambda seed: gen_random(m, n, k, cost_model=cost, seed=seed, budget=budget, rule=rule, mode=mode)


def _ties(m, n, k, mode) -> Callable[[int], BriberyInstance]:
    """n identical votes under unit prices, the preferred candidate ranked last.

    Built the way the README's "ties" example is; the seed only permutes the
    candidates and draws the budget, so the members of a family are about
    equally hard for the brute-force search.
    """

    def make(seed: int) -> BriberyInstance:
        rng = random.Random(f"ties:{seed}:{m}:{n}:{k}")
        order = tuple(rng.sample(range(m), m))
        election = Election(tuple(f"c{i}" for i in range(m)), tuple(Vote(order) for _ in range(n)))
        return BriberyInstance(
            election, VotingRule.k_approval(k), order[-1], SwapCostFunction.unit(n),
            Fraction(rng.randint(n, 6 * n)), mode=mode,
        )

    return make


@dataclass(frozen=True)
class Family:
    """A generator and its parameters; pool members are its seeds in reference.json."""

    name: str
    make: Callable[[int], BriberyInstance]
    take: int = 0  # pool members drawn into each corpus
    fixed: tuple[int, ...] = ()  # seeds always in the corpus
    pool: int = 0  # seeds 0..pool-1 are candidates for reference.json


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    deadline_s: float  # per operation; a stopped operation counts as failed
    # Nominal seconds at the host's fast speed of a pass, with the corpus write
    # before it and the clock's readings, but without the operations stopped at
    # the deadline; and of those stopped operations, which only the first pass runs.
    pass_s: float
    stopped_s: float = 0.0
    solve_args: tuple[str, ...] = ()  # empty: the pool instances are kernelized, not solved
    families: tuple[Family, ...] = ()
    gadgets: tuple[str, ...] = ()  # class sizes of planted clique gadgets

    def passes(self, seconds: float) -> int:
        """The first pass and the further passes that fit in ``seconds`` at nominal times.

        An operation stopped at the deadline is not run again, so only the
        first pass pays for those. The count does not depend on how fast a run
        happens to go, so every run of a seed measures the same operations.
        """
        return 1 + max(0, int((seconds - self.pass_s - self.stopped_s) // self.pass_s))

    def argv(self, path: str) -> list[str]:
        """The command line this workload runs on a pool instance file."""
        if self.solve_args:
            return ["solve", path, *self.solve_args]
        return ["kernelize", path, "--out", kernel_path(path)]


def kernel_path(path: str) -> str:
    return path.removesuffix(".sbe") + "-kernel.sbe"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "flow-unit",
            "unit-price k-approval through `solve --algorithm auto`, which picks flow: "
            "min_cost_max_flow dominates, and oracle, search and ilp never run",
            deadline_s=20.0,
            pass_s=6.5,
            solve_args=("--algorithm", "auto"),
            families=(
                # Most operations are m = n = 6, so the median falls among them; the
                # fourteen m = n = 7 ones hold the tail's rank (the 11th slowest).
                Family("u6", _random(6, 6, 2), take=14, pool=64),
                Family("u6x", _random(6, 6, 2, mode=UNIQUE), take=14, pool=64),
                Family("u7", _random(7, 7, 3), take=14, pool=40),
                Family("u6n12", _random(6, 12, 2), take=1, pool=4),
            ),
        ),
        Workload(
            "brute-ties",
            "`solve --algorithm brute`: cheap random instances where parse and option "
            "building dominate, and identical-vote ties where best_assignment dominates; flow is bypassed",
            deadline_s=10.0,
            pass_s=6.2,
            solve_args=("--algorithm", "brute"),
            families=(
                Family("b6two", _random(6, 4, 2, TWO), take=3, pool=16),
                Family("b6range", _random(6, 4, 2, RANGE), take=3, pool=16),
                Family("b8two", _random(8, 4, 3, TWO), take=6, pool=64),
                Family("b8range", _random(8, 4, 3, RANGE), take=6, pool=64),
                # The median falls among the thirteen ties of 0.08-0.12 s, in the
                # eight t6n4k3x; the tail's rank among the ten of about 0.18 s.
                # Parse-bound 10 ms operations slow down more than search-bound
                # ones when the host is busy, so neither rank is put on them.
                *(
                    Family(f"t{m}n{n}k{k}{'x' if mode == UNIQUE else ''}", _ties(m, n, k, mode), take=take, pool=10)
                    for m, n, k, mode, take in (
                        (5, 5, 2, CO, 3), (5, 5, 3, UNIQUE, 3), (6, 4, 3, UNIQUE, 8),
                        (5, 6, 3, CO, 5), (5, 6, 2, CO, 5), (6, 5, 2, CO, 5), (7, 4, 2, UNIQUE, 5), (7, 4, 3, CO, 5),
                        (6, 5, 3, CO, 1),
                    )
                ),
            ),
        ),
        Workload(
            "auto-costed",
            "non-unit prices through the default `solve --algorithm auto`: ilp, lp and "
            "color-coding work, and the known cap and runaway failures show",
            deadline_s=2.0,
            pass_s=5.5,
            stopped_s=10.0,  # the five fixed members below that run to the deadline
            solve_args=("--algorithm", "auto"),
            families=(
                # The median falls among the k6two members and repro-cap, five
                # operations of 0.09-0.11 s that exit 2 on the ILP's variable
                # cap. Below the five stopped operations come k5range/14 (0.38 s)
                # and the eight bucklin5 members, so the tail's rank is bucklin5's
                # fifth slowest, from the stratum of 0.346 and 0.352 s. Shares
                # chosen so that both ranks hold across seeds, and checked on
                # seeds other than those they were chosen on.
                Family("k4two", _random(4, 4, 2, TWO), take=2, pool=48),
                Family("k4range", _random(4, 6, 2, RANGE), take=6, pool=16),
                # One m = 5 member each, the same in every corpus: drawn at random,
                # they would land on either side of the tail's rank.
                Family("k5two", _random(5, 4, 2, TWO), fixed=(7,), pool=24),
                Family("k5range", _random(5, 6, 2, RANGE), fixed=(14,), pool=24),
                Family("k6two", _random(6, 3, 2, TWO), take=4, pool=8),
                # k7two/1 and /8 run away in color-coding like the m=8 repro below.
                Family("k7two", _random(7, 3, 2, TWO), take=1, fixed=(1, 8), pool=10),
                Family("bucklin4", _random(4, 4, 2, TWO, rule=VotingRule.bucklin()), take=4, pool=20),
                # Bucklin m = n = 5 takes 0.1-18 s in the ILP; /0 (18 s) and /2 (8 s)
                # stand for the slow ones and always run to the deadline.
                Family("bucklin5", _random(5, 5, 2, TWO, rule=VotingRule.bucklin()), take=8, fixed=(0, 2), pool=30),
                Family("scoring3", _random(3, 3, 1, TWO, rule=VotingRule.scoring((2, 1, 0))), take=4, pool=16),
                Family("scoring4", _random(4, 3, 1, TWO, rule=VotingRule.scoring((2, 1, 0, 0))), take=2, pool=16),
                # The two `auto` defects in ROADMAP.md, kept on purpose: m=6 overflows
                # the ILP variable cap, and m=8 runs away in color-coding.
                Family("repro-cap", _random(6, 4, 2, TWO), fixed=(5,)),
                Family("repro-runaway", _random(8, 5, 2, TWO), fixed=(5,)),
            ),
        ),
        Workload(
            "pipeline-large",
            "generate, verify and kernelize of planted clique gadgets up to 33 MB, plus "
            "kernelize of random instances: io, hardness, swaps and kernel work, no solver search",
            deadline_s=60.0,
            pass_s=8.0,
            # One random unit instance per family: they put the median operation in
            # the middle of the eight 3,3 kernelizes, and the tail's rank in the
            # middle of their verifies.
            families=tuple(
                Family(f"kr{m}x{n}k{k}b{b}", _random(m, n, k, budget=b), take=1, pool=8)
                for m, n, k, b in ((10, 8, 4, 2), (12, 8, 4, 3), (12, 10, 3, 2), (14, 10, 4, 3), (12, 10, 4, 2), (14, 8, 3, 3))
            ),
            # Largest first. The k=3 gadget 2,2,2 is 33 MB; with 3,2,2 (44 MB, 11 s
            # a pipeline) or 3,3,2 (55 MB, 12 s) a run would hold only one pass.
            gadgets=("2,2,2", *("3,3",) * 8),
        ),
    )
}


@dataclass
class Op:
    """One command line and what its output must say."""

    id: str
    argv: list[str]
    expect: dict = field(default_factory=dict)


def fingerprint(instance: BriberyInstance) -> str:
    """Digest of an instance's content, independent of the file format."""
    costs = instance.costs
    content = (
        instance.election.candidates,
        instance.election.votes,
        instance.rule,
        instance.preferred,
        instance.budget,
        instance.mode,
        [(costs.default(v), sorted(costs.overrides(v).items())) for v in range(costs.n_votes)],
    )
    return hashlib.sha256(repr(content).encode()).hexdigest()[:16]


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


class Corpus:
    """Writes a workload's input files for one seed and lists its operations."""

    def __init__(self, workload: Workload, seed: int, workdir: Path, reference: dict):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.reference = reference

    def _put(self, name: str, text: str) -> str:
        path = self.workdir / name
        path.write_text(text)
        return str(path)

    def build(self) -> list[Op]:
        """Write every input file; return the operations of one pass, in order.

        A gadget's generate, verify and kernelize stay in that order; the chains
        and the pool operations are shuffled together, so that host drift during
        a run touches every kind of operation alike.
        """
        rng = random.Random(f"{self.workload.name}:{self.seed}")
        chains = [[op] for op in self._pool_ops(rng)] + self._gadget_chains(rng)
        rng.shuffle(chains)
        return [op for chain in chains for op in chain]

    def _pool_ops(self, rng: random.Random) -> list[Op]:
        ops = []
        for family in self.workload.families:
            members = self.reference[self.workload.name][family.name]
            for gen_seed in list(family.fixed) + _stratified(members, family, rng):
                ref = members[str(gen_seed)]
                instance = family.make(gen_seed)
                if fingerprint(instance) != ref["fingerprint"]:
                    raise RuntimeError(
                        f"{family.name}/{gen_seed}: generated instance differs from "
                        "the one reference.json was built from"
                    )
                path = self._put(f"{family.name}-{gen_seed}.sbe", formats.serialize_election(instance))
                if self.workload.solve_args:
                    expect = dict(ref, kind="solve")
                else:
                    expect = {"kind": "kernelize", "path": kernel_path(path), "decision": ref["decision"]}
                ops.append(Op(f"{family.name}/{gen_seed}", self.workload.argv(path), expect))
        return ops

    def _gadget_chains(self, rng: random.Random) -> list[list[Op]]:
        chains = []
        for i, classes in enumerate(self.workload.gadgets):
            gen_seed = rng.randrange(10**6)
            tag = f"g{i}-{classes.replace(',', '')}"
            graph, planted = planted_multicolored_clique([int(s) for s in classes.split(",")], seed=gen_seed)
            instance, layout = multicolored_clique_instance(graph)
            witness = multicolored_clique_witness(instance, layout, planted)
            solution = self._put(
                f"{tag}.sbs",
                formats.serialize_solution(instance, True, layout.budget, witness, solver="planted"),
            )
            sbe = str(self.workdir / f"{tag}.sbe")
            names = instance.election.candidates
            rankings = instance.election.expanded_list()
            bribed = {v: tuple(names[c] for c in target)
                      for v, (ranking, target) in enumerate(zip(rankings, witness.targets)) if target != ranking}
            chains.append([
                Op(f"{tag}/generate",
                   ["generate", "clique-gadget", "--classes", classes, "--seed", str(gen_seed), "--out", sbe],
                   {"kind": "generate", "path": sbe, "candidates": instance.election.m}),
                Op(f"{tag}/verify", ["verify", sbe, solution],
                   {"kind": "verify", "cost": formats.format_fraction(layout.budget)}),
                Op(f"{tag}/kernelize", ["kernelize", sbe, "--out", kernel_path(sbe)],
                   {"kind": "kernelize", "path": kernel_path(sbe), "budget": layout.budget,
                    "votes": len(rankings), "bribed": bribed}),
            ])
        return chains


def _stratified(members: dict, family: Family, rng: random.Random) -> list[int]:
    """One pool member from each of ``take`` bins of the pool ranked by reference time.

    Every corpus then holds fast and slow members in the same proportion, so a
    pass costs about the same whatever the workload seed.
    """
    ranked = sorted((entry["seconds"], int(g)) for g, entry in members.items() if int(g) not in family.fixed)
    size = len(ranked)
    return [rng.choice(ranked[i * size // family.take:(i + 1) * size // family.take])[1] for i in range(family.take)]


_LINE = re.compile(r"^(algorithm|decision|cost|checked cost|solution valid): (.*)$", re.M)
_CANDIDATES = re.compile(rb"^candidates (\d+)$", re.M)


def check(op: Op, code: int, stdout: str) -> str | None:
    """None when the output is right, else what is wrong with it."""
    fields = dict(_LINE.findall(stdout))
    expect = op.expect
    kind = expect["kind"]
    if kind == "solve":
        decision = "yes" if expect["decision"] else "no"
        if fields.get("decision") != decision or code != (0 if expect["decision"] else 1):
            return f"decision {fields.get('decision')} (exit {code}), expected {decision}"
        # ilp and color print the cost of the witness they found, not an optimum.
        if expect["cost_is_optimal"] and fields.get("algorithm") in ("flow", "brute"):
            if fields.get("cost") != expect["cost"]:
                return f"cost {fields.get('cost')}, expected optimum {expect['cost']}"
        return None
    if code != 0:
        return f"exit {code}"
    if kind == "verify":
        if fields.get("solution valid") != "yes" or fields.get("checked cost") != expect["cost"]:
            return f"verify said {fields}, expected a valid solution of cost {expect['cost']}"
        return None
    if kind == "generate":
        with open(expect["path"], "rb") as handle:
            candidates = _CANDIDATES.search(handle.read())
        m = int(candidates.group(1)) if candidates else None
        return None if m == expect["candidates"] else f"{m} candidates, expected {expect['candidates']}"
    return _check_kernel(expect)


def _check_kernel(expect: dict) -> str | None:
    """A kernel must keep its input's decision.

    A random instance's kernel is solved again (brute force, bounded by the
    budget) and must reach the input's reference decision. A clique gadget is
    a yes-instance with a planted witness; its kernel keeps the votes and
    drops candidates no vote can lift within budget, so the witness, restricted
    to the kernel's candidates, must solve the kernel within budget.
    """
    with open(expect["path"]) as handle:
        kernel = formats.parse_election(handle.read())
    if "decision" in expect:
        decision = brute_topk(kernel, caps=UNCAPPED, prune_to_budget=True).decision
        return None if decision == expect["decision"] else f"kernel decides {decision}, its input {expect['decision']}"
    rankings = kernel.election.expanded_list()
    if len(rankings) != expect["votes"]:
        return f"kernel has {len(rankings)} votes, its input {expect['votes']}: the planted witness does not carry over"
    index = {name: i for i, name in enumerate(kernel.election.candidates)}
    targets = list(rankings)
    for v, names in expect["bribed"].items():
        targets[v] = tuple(index[name] for name in names if name in index)
        if sorted(targets[v]) != sorted(rankings[v]):
            return f"kernel vote {v} has other candidates than its input vote: the planted witness does not carry over"
    report = verify_bribery(kernel, Bribery(tuple(targets)))
    if not report.is_solution or report.total_cost > expect["budget"]:
        return f"the planted witness does not solve the kernel within budget (cost {report.total_cost})"
    return None


def execute(argv: list[str], clock: ScaledClock) -> tuple[int | None, str, float, float, float, Exception | None]:
    """Run one command through cli.main: (exit code, output, seconds, CPU seconds, wall seconds, exception).

    Seconds and CPU seconds are scaled to the host's fast speed by ``clock``,
    which also holds the deadline; wall seconds are as measured. The exit code
    is None when the deadline stopped the command or it raised. The deadline is
    checked on every tick of the clock's SIGALRM, so the operation runs in this
    process and thread, and is interrupted where it stands once it is past.
    """
    out, err = io.StringIO(), io.StringIO()
    code, crash = None, None
    try:
        with clock.ticking(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except DeadlineExceeded:
        pass
    except Exception as exc:  # a traceback out of the package
        crash = exc
    return (code, out.getvalue() + err.getvalue(), *clock.stop(), crash)
