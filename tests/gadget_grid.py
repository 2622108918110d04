"""Head-form round trips over the grid of planted clique gadgets.

    python tests/gadget_grid.py

Builds the multicolored-clique gadget for ten class-size lists, seeds 0-3
and epsilon 1 and 1/3: 80 instances. For each one, every vote is stored as
the head the gadget builds and written as that ``head`` line, the election
parses back to the instance, and the planted witness, written with
``target-head`` lines, reads back and verifies at exactly the budget. Where the gadget has at most three classes, the same
election written in full, one ``order`` line per vote, parses to the same
instance too; with four classes that file is 90-300 MB. Prints one line per
class list, and exits 1 at the first failure. ``tests/test_io.py`` runs a
slice of the grid as tier-1 tests.
"""

import sys
from fractions import Fraction

from swapbribery.core import head_then_rest
from swapbribery.hardness import (
    multicolored_clique_instance,
    multicolored_clique_witness,
    planted_multicolored_clique,
)
from swapbribery.io import parse_election, parse_solution, serialize_election, serialize_solution
from swapbribery.swaps import verify_bribery

CLASSES = ("2,2", "3,3", "2,2,2", "1,1", "3,2", "1,2,3", "2,3,2", "4,4", "1,1,1,1", "2,2,2,2")
SEEDS = range(4)
EPSILONS = (Fraction(1), Fraction(1, 3))


class GridError(Exception):
    pass


def full_form(text: str, instance) -> str:
    """``text`` with every vote line replaced by its ``order`` line, naming every candidate."""
    lines = text.splitlines()
    first = next(i for i, line in enumerate(lines) if line.startswith("vote "))
    last = max(i for i, line in enumerate(lines) if line.startswith("vote "))
    votes = instance.election.votes
    if last - first + 1 != len(votes):
        raise GridError("the writer split a vote row")
    names = instance.election.candidates
    m = instance.election.m
    orders = [
        f"vote {i} multiplicity {vote.multiplicity} order " + " ".join(names[c] for c in head_then_rest(vote.ranking, m))
        for i, vote in enumerate(votes)
    ]
    return "\n".join(lines[:first] + orders + lines[last + 1 :]) + "\n"


def check(classes: str, seed: int, epsilon: Fraction) -> int:
    """Check one grid member; return the size of its head-form file in bytes."""
    graph, planted = planted_multicolored_clique([int(s) for s in classes.split(",")], seed=seed)
    instance, layout = multicolored_clique_instance(graph, epsilon)
    text = serialize_election(instance)
    where = f"{classes} seed {seed} epsilon {epsilon}"
    # Every head the gadget builds is a vote's first budget + 2 positions, and
    # the election stores each as built: none loses its last entries to the tail.
    if any(len(vote.ranking) != layout.budget + 2 for vote in instance.election.votes):
        raise GridError(f"{where}: a vote is not stored as the head the gadget builds")
    if " order " in text:
        raise GridError(f"{where}: a vote is written in full")
    again = parse_election(text)
    if again != instance:
        raise GridError(f"{where}: the head form parses to another instance")
    if graph.k <= 3 and parse_election(full_form(text, instance)) != again:
        raise GridError(f"{where}: the full form and the head form parse to different instances")

    witness = multicolored_clique_witness(instance, layout, planted)
    solution = serialize_solution(instance, True, layout.budget, witness, "planted")
    if "\ntarget-head " not in solution:
        raise GridError(f"{where}: no target is written as its head")
    _, _, bribery, _ = parse_solution(solution, again)
    if bribery != witness:
        raise GridError(f"{where}: the witness reads back as another bribery")
    report = verify_bribery(again, bribery)
    if not report.is_solution or report.total_cost != layout.budget:
        raise GridError(f"{where}: the witness costs {report.total_cost} against a budget of {layout.budget}")
    return len(text.encode())


def main() -> int:
    for classes in CLASSES:
        try:
            sizes = [check(classes, seed, epsilon) for seed in SEEDS for epsilon in EPSILONS]
        except GridError as exc:
            print(exc)
            return 1
        print(f"{classes}: {len(sizes)} gadgets, head-form files {min(sizes) / 1e6:.2f}-{max(sizes) / 1e6:.2f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
