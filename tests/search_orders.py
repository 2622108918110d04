"""The exact search's node counts over shuffled vote orders.

    python tests/search_orders.py [SHUFFLES]

Runs ``brute_topk`` on each instance below as generated and with its votes
shuffled by ``random.Random(1)`` to ``random.Random(SHUFFLES)`` (5 by
default). Prints, per instance, the node count as generated, the worst
count over all those orders and the answers, as (decision, optimum). Exits
1 when an instance's answers differ between orders or a run passes
``_search.MAX_NODES``. The instances have many votes and few candidates,
so the search goes a thousand levels deep and only its cuts keep it within
the budget; how early it meets a cheap winning leaf depends on the order of
the votes. ``tests/test_metamorphic.py`` runs the first five shuffles in
tier-1, at a tenth of the budget; CI runs this script over 100.
"""

import random
import sys
from fractions import Fraction

from swapbribery import _search
from swapbribery.core import CO_WINNER, UNIQUE_WINNER, Election, Vote
from swapbribery.errors import ResourceCapError
from swapbribery.oracle import brute_topk
from swapbribery.reductions import gen_random
from swapbribery.swaps import BriberyInstance, SwapCostFunction

TWO_HALF = ("two-valued", Fraction(1), Fraction(2), 0.5)
TWO_THIRD = ("two-valued", Fraction(1), Fraction(2), 0.3)

# (m, n, k, prices, seed, mode): instances the search answers, in their
# order and in shuffled ones, within its node budget
CASES = [
    (2, 1000, 1, TWO_HALF, 0, CO_WINNER),
    (2, 1200, 1, TWO_THIRD, 2, UNIQUE_WINNER),
    (3, 1000, 1, "unit", 1, UNIQUE_WINNER),
    (3, 1200, 1, "unit", 1, CO_WINNER),
]
# ``generate random --m 2 --n 1000 --k 1 --cost-model two:1:2:0.5 --seed 3``: cost 11
EXAMPLE = (2, 1000, 1, TWO_HALF, 3, CO_WINNER)
# unit prices, unique winner: cost 5
U3S5 = (3, 1000, 1, "unit", 5, UNIQUE_WINNER)


def case_id(case):
    m, n, k, prices, seed, mode = case
    return f"m{m}n{n}k{k}-{'unit' if prices == 'unit' else 'priced'}-{seed}-{mode}"


ORDERED = {"ex": EXAMPLE, "u3s5": U3S5, **{case_id(case): case for case in CASES}}


def make_instance(m, n, k, prices, seed, mode):
    return gen_random(m, n, k, cost_model=prices, seed=seed, mode=mode)


def permute_votes(instance, rng):
    """The same votes, each with its prices, in a shuffled order."""
    votes = instance.election.expanded_list()
    order = list(range(len(votes)))
    rng.shuffle(order)
    costs = instance.costs
    return BriberyInstance(
        Election(instance.election.candidates, tuple(Vote(votes[i]) for i in order)),
        instance.rule,
        instance.preferred,
        SwapCostFunction([costs.default(i) for i in order], [costs.overrides(i) for i in order]),
        instance.budget,
        instance.mode,
    )


class NodeSpy:
    """Stands in for ``_search.MAX_NODES``: records the most nodes a walk compares with it."""

    def __init__(self, limit=10**6):
        self.limit = limit
        self.most = 0

    def __lt__(self, nodes):
        # reflected: a walk's ``nodes > max_nodes`` lands here
        self.most = max(self.most, nodes)
        return nodes > self.limit


def orders(case, shuffles):
    """Each (answer, nodes) of ``brute_topk`` on the case as generated, then shuffled by seeds 1..shuffles.

    The answer is (decision, optimum), or a note where the search stops at
    its node budget.
    """
    instance = make_instance(*case)
    kept = _search.MAX_NODES
    runs = []
    try:
        for seed in range(shuffles + 1):
            spy = _search.MAX_NODES = NodeSpy(kept)
            try:
                result = brute_topk(instance if not seed else permute_votes(instance, random.Random(seed)))
                runs.append(((result.decision, result.optimal_cost), spy.most))
            except ResourceCapError:
                runs.append(("stopped at the node budget", spy.most))
    finally:
        _search.MAX_NODES = kept
    return runs


def _shown(decision, optimum):
    return f"{'yes' if decision else 'no'}, cost {optimum}"


def main(argv):
    shuffles = int(argv[1]) if len(argv) > 1 else 5
    failed = False
    for name, case in ORDERED.items():
        runs = orders(case, shuffles)
        answers = {answer for answer, _ in runs}
        worst = max(nodes for _, nodes in runs)
        bad = len(answers) > 1 or worst > _search.MAX_NODES
        failed |= bad
        shown = "; ".join(sorted(answer if isinstance(answer, str) else _shown(*answer) for answer in answers))
        print(
            f"{name}: {runs[0][1]:,} nodes as generated, worst {worst:,} over {len(runs)} orders;"
            f" {shown}{'  FAIL' if bad else ''}"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
