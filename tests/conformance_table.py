"""The conformance table: every solver, its scope and its claim, over the shared corpus.

``ROWS`` is the table of solvers: a name, the corpus cases in its scope,
its claim there, and for the kernels the equivalent instance it solves
instead. Claims: ``optimum``, the decision and the optimal cost;
``decision``, the decision, and a cost it reports is the optimum.
``answers`` runs one row over its
cases, once a process, and ``digest`` hashes each row's answers and then all of them.
``test_conformance.py`` checks them against the oracles.

Nothing here needs pytest, so ``python tests/corpus.py`` prints the digest
on a bare interpreter. Under pytest, ``conftest.py`` has this module's
asserts rewritten, so they hold under ``python -O`` there too.
"""

import contextlib
import functools
import hashlib
import io
import tempfile
from math import comb, factorial
from pathlib import Path
from typing import Callable, NamedTuple

from swapbribery import cli
from swapbribery.colorcoding import solve_color_coding
from swapbribery.core import BUCKLIN, K_APPROVAL
from swapbribery.flow import covers, solve_unit
from swapbribery.ilp import solve_ilp
from swapbribery.io import parse_solution, serialize_election
from swapbribery.kernel import kernelize, truncation_kernel
from swapbribery.oracle import brute_rankings, brute_topk
from swapbribery.swaps import SolveResult

from corpus import CORPUS
from oracle_utils import UNCAPPED

OPTIMUM, DECISION = "optimum", "decision"


def k_approval(instance) -> bool:
    return instance.rule.kind == K_APPROVAL


def color_fits(instance) -> bool:
    """k-approval with at most 3,000 election patterns before canonical relabeling."""
    n, m, k = instance.election.n_expanded, instance.election.m, instance.rule.k
    return k_approval(instance) and comb(min(n * k, m), k) ** n <= 3000


def ilp_fits(instance) -> bool:
    """m! - 1 variables per vote group: k-approval at m <= 5, Bucklin at m <= 4, at every vote count."""
    return instance.election.m <= {K_APPROVAL: 5, BUCKLIN: 4}.get(instance.rule.kind, 0)


def kernel_fits(instance) -> bool:
    """The kernels' precondition, every price at least 1, at budgets small enough to stay small."""
    return k_approval(instance) and instance.costs.min_value() >= 1 and instance.budget < 3


def pruned(instance):
    return brute_topk(instance, caps=UNCAPPED, prune_to_budget=True)


def solve_auto(instance):
    """``swapbribery solve FILE --solution OUT`` read back, its output lines and exit code checked."""
    with tempfile.TemporaryDirectory() as tmp:
        path, solution = Path(tmp, "instance.sbe"), Path(tmp, "solution.sbs")
        path.write_text(serialize_election(instance), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(["solve", str(path), "--solution", str(solution)])
        decision, cost, witness, _ = parse_solution(solution.read_text(encoding="utf-8"), instance)
    assert out.getvalue().splitlines() == [
        f"algorithm: {'flow' if covers(instance) else 'brute'}",
        f"decision: {'yes' if decision else 'no'}",
    ] + [f"cost: {cost}"] * (cost is not None)
    assert code == (0 if decision else 1)
    return SolveResult(decision, cost, witness)


class Row(NamedTuple):
    name: str
    scope: Callable
    claim: str
    solve: Callable
    reduce: Callable | None = None


ROWS = (
    Row("brute_topk", k_approval, OPTIMUM, lambda inst: brute_topk(inst, caps=UNCAPPED)),
    # at most 500 target rankings over all votes
    Row("brute_rankings", lambda inst: inst.election.n_expanded * factorial(inst.election.m) <= 500, OPTIMUM, brute_rankings),
    Row("flow", covers, OPTIMUM, solve_unit),
    Row("brute_topk-pruned", k_approval, DECISION, pruned),
    Row("ilp", ilp_fits, DECISION, solve_ilp),
    # color coding tries every coloring; the row keeps its name, and so its digest line
    Row("color-exhaustive", color_fits, DECISION, solve_color_coding),
    Row("kernelize-pruned", kernel_fits, DECISION, pruned, lambda inst: kernelize(inst).instance),
    Row("truncation-pruned", kernel_fits, DECISION, pruned, truncation_kernel),
    # every corpus case is within the default option caps of brute
    Row("solve-auto", lambda inst: True, OPTIMUM, solve_auto),
)


ROW = {row.name: row for row in ROWS}


@functools.cache
def answers(name: str) -> tuple:
    """(case, instance, the instance solved, result) for every corpus case in the row's scope.

    Each row runs once a process; the tests that check a slice of it share the answers.
    """
    row, found = ROW[name], []
    for case, instance in CORPUS:
        if row.scope(instance):
            solved = row.reduce(instance) if row.reduce else instance
            found.append((case, instance, solved, row.solve(solved)))
    return tuple(found)


def _hashed(rows: list) -> str:
    """The counts of (solver, id, decision, optimum) rows, and sha256 over them sorted."""
    text = "\n".join("\t".join(map(str, r)) for r in sorted(rows)).encode()
    return f"{len(rows)} answers, {sum(r[2] for r in rows)} yes; sha256 {hashlib.sha256(text).hexdigest()}"


def digest() -> str:
    """One line per solver over its (solver, id, decision, optimum) rows, then one over every solver's."""
    rows = {
        row.name: [(row.name, case, got.decision, str(got.optimal_cost)) for case, _, _, got in answers(row.name)]
        for row in ROWS
    }
    every = [r for found in rows.values() for r in found]
    return "\n".join(
        [f"{name}: {_hashed(found)}" for name, found in rows.items()]
        + [f"corpus {len(CORPUS)} instances, {len(ROWS)} solvers, {_hashed(every)}"]
    )
