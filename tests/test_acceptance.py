"""End-to-end acceptance gate.

One test per exit criterion, each over a seeded corpus at its stated size
and tolerance (all comparisons are exact rational equality). Every test
prints a single PASS line with its corpus size; run with ``pytest -s
tests/test_acceptance.py`` to see them. The flow and ILP criteria check
their slices of the shared corpus, ``corpus.py``, with the conformance
table's ``check``.
"""

import random
from collections import Counter
from fractions import Fraction

from swapbribery.core import UNIQUE_WINNER, VotingRule, scores, winners
from swapbribery.flow import approx_within_range, build_transfer_network
from swapbribery.hardness import (
    multicolored_clique_instance,
    multicolored_clique_witness,
    planted_multicolored_clique,
    random_graph,
    single_vote_clique_instance,
)
from swapbribery.ilp import describe_rule
from swapbribery.kernel import kernelize, truncation_kernel
from swapbribery.oracle import brute_topk
from swapbribery.reductions import (
    PossibleWinnerInstance,
    gen_random,
    pw_to_sb,
    sb_to_pw,
)
from swapbribery.swaps import (
    BriberyInstance,
    SwapCostFunction,
    transform_cost,
    verify_bribery,
    vote_classes,
)

from conftest import (
    random_costs,
    random_instance,
    sample_election,
)
from corpus import CORPUS
from oracle_utils import (
    bribed_election,
    clique_exists,
    possible_winner_brute,
    random_partial_votes,
    swap_graph_shortest_path,
)
from test_conformance import check, ilp_fits, labels


def test_flow_solver_matches_oracle_on_unit_costs():
    count = check("flow", lambda case: labels(case).prices == "unit")
    assert count >= 15
    print(f"PASS: flow solver equals the oracle on {count} unit-price corpus instances")


def test_sample_instance_concrete_values():
    election = sample_election()
    inst = BriberyInstance(
        election, VotingRule.k_approval(2), 2, SwapCostFunction.unit(2), Fraction(3)
    )
    oracle = brute_topk(inst)
    assert oracle.optimal_cost == 3

    network = build_transfer_network(vote_classes(inst), 2, 2, 2)
    arc_cost = {
        (network.node_names[a.tail], network.node_names[a.head]): a.cost
        for a in network.arcs
    }
    # moving c2's point to c4 in the second vote costs rank(c4)-rank(c2)
    assert arc_cost[("g[1]", "b[3]")] - arc_cost[("g[1]", "b[1]")] == 3
    # moving c1's point to p in the first vote prices by the same rule;
    # the rank difference is 2 (and nothing asserts any other value here)
    assert arc_cost[("g[0]", "b[2]")] - arc_cost[("g[0]", "b[0]")] == 2
    print("PASS: five-candidate sample costs 3 and carries the rank-gap arc prices")


def test_range_approximation_within_factor_two():
    rng = random.Random(1003)
    count = 200
    for i in range(count):
        inst = random_instance(
            rng, m_max=6, n_max=3, cost_kind="one-two", multiplicities=(1, 1, 2)
        )
        got = approx_within_range(inst, 2)
        assert got is not None, f"instance {i}"
        bribery, cost = got
        report = verify_bribery(inst, bribery)
        assert report.preferred_wins, f"instance {i}"
        assert report.total_cost == cost, f"instance {i}"
        optimum = brute_topk(inst).optimal_cost
        assert cost <= 2 * optimum, f"instance {i}: {cost} > 2 * {optimum}"
    print(
        f"PASS: range approximation stayed within factor 2 and always won "
        f"on {count} instances"
    )


def test_kernels_stay_within_size_bounds():
    rng = random.Random(1005)
    count = 300
    for i in range(count):
        kind = ("unit", "one-two", "geq-one")[i % 3]
        inst = random_instance(
            rng,
            m_max=6,
            n_max=2,
            cost_kind=kind,
            budget_max=2,
            multiplicities=(1, 1, 2),
        )
        n = inst.election.n_expanded
        beta = int(inst.budget)
        out = kernelize(inst)
        assert out.instance.election.n_expanded <= (2 * n * beta + 3) * n, f"instance {i}"
        assert out.instance.election.m <= n + (2 * n * beta + 2) * (2 * n * beta + 1), f"instance {i}"
        assert truncation_kernel(inst).election.m <= (inst.rule.k + beta) * n + 1, f"instance {i}"
    print(f"PASS: both kernels stayed within their size bounds on {count} instances")


def _described_winner(instance) -> bool:
    """Whether the unbribed profile satisfies ``describe_rule``."""
    m = instance.election.m
    system = describe_rule(instance.rule, m, instance.election.n_expanded, instance.preferred, instance.mode == UNIQUE_WINNER)
    index = {perm: i for i, perm in enumerate(system.perms)}
    counts = Counter(index[r] for r in instance.election.expanded())
    return any(all(sum(q * counts[i] for i, q in enumerate(row.coeffs)) >= row.rhs for row in rows) for rows in system.sets)


def test_ilp_matches_oracles_and_description_is_exact():
    count = check("ilp")
    profiles = 0
    for case, inst in CORPUS:
        if ilp_fits(inst) and labels(case).budget == "drawn":
            won = winners(inst.election, inst.rule)
            want = won == {inst.preferred} if inst.mode == UNIQUE_WINNER else inst.preferred in won
            assert _described_winner(inst) == want, case
            profiles += 1
    assert count >= 150 and profiles >= 60
    print(
        f"PASS: transformation programs matched the oracles on {count} corpus instances; "
        f"rule description exact on their {profiles} profiles"
    )


def test_clique_gadget_witness_exact_cost_and_scores():
    cases = [([2, 2], 0), ([2, 2], 1), ([3, 2], 2), ([2, 3], 3), ([3, 3], 4),
             ([4, 2], 5), ([2, 4], 6), ([4, 3], 7), ([3, 4], 8), ([4, 4], 9),
             ([2, 2], 10), ([3, 3], 11), ([4, 4], 12), ([3, 2], 13),
             ([2, 2, 2], 14), ([2, 2, 2], 15), ([3, 2, 2], 16), ([2, 3, 2], 17),
             ([2, 2, 3], 18), ([3, 3, 2], 19)]
    assert len(cases) >= 20
    for sizes, seed in cases:
        graph, clique = planted_multicolored_clique(sizes, seed=seed)
        k = len(sizes)
        # generation runs the full score audit internally
        inst, layout = multicolored_clique_instance(graph)
        assert inst.budget == k**3 + 10 * k**2
        witness = multicolored_clique_witness(inst, layout, clique)
        report = verify_bribery(inst, witness)
        assert report.total_cost == inst.budget, (sizes, seed)
        assert report.preferred_wins
        after = scores(bribed_election(inst, witness), inst.rule)
        assert after[inst.preferred] == layout.base_score
        names = inst.election.candidates
        assert after[names.index("r")] == k * k
        totals = scores(inst.election, inst.rule)
        assert totals[names.index("r")] == 0
        for c, name in enumerate(names):
            if name.startswith("a_"):
                assert totals[c] == layout.base_score + 1
    print(
        f"PASS: clique-gadget witnesses cost exactly the budget with preferred "
        f"tied at the common level on {len(cases)} planted graphs"
    )


def complete_graph(n):
    from swapbribery.hardness import Graph

    return Graph(n, frozenset((u, v) for u in range(n) for v in range(u + 1, n)))


def test_single_vote_clique_equivalence():
    rng = random.Random(1008)
    graphs = []
    for seed in range(40):
        graphs.append(random_graph(rng.randint(3, 7), rng.choice((0.2, 0.4, 0.6, 0.8)), seed))
    for n in (4, 5, 6, 7):
        graphs.append(random_graph(n, 0.5, 100 + n))
        graphs.append(complete_graph(n))
        graphs.append(random_graph(n, 0.0, 200 + n))
    assert len(graphs) >= 50
    checked = 0
    for graph in graphs:
        for k in (1, 2, 3):
            if k > graph.n_vertices:
                continue
            inst = single_vote_clique_instance(graph, k)
            res = brute_topk(inst)
            want = clique_exists(graph.n_vertices, graph.edges, k)
            assert res.decision == want, (graph, k)
            if want:
                assert res.optimal_cost == inst.budget, (graph, k)
            checked += 1
    print(
        f"PASS: single-vote clique instances decided clique existence exactly "
        f"({len(graphs)} graphs, {checked} cases, optimal cost equals the budget on yes)"
    )


def test_possible_winner_round_trips():
    rng = random.Random(1009)
    zero_budget = 0
    for i in range(200):
        m = rng.randint(2, 4)
        n = rng.randint(1, 3)
        inst = gen_random(
            m,
            n,
            rng.randint(1, max(1, m - 1)),
            cost_model=("two-valued", 0, 1, rng.random()),
            seed=3000 + i,
            budget=0,
        )
        pw = sb_to_pw(inst)
        want = possible_winner_brute(pw)
        assert brute_topk(inst).decision == want, f"instance {i}"
        back = pw_to_sb(pw)
        assert brute_topk(back).decision == want, f"instance {i}"
        zero_budget += 1

    partial_count = 0
    for i in range(200):
        m = rng.randint(2, 4)
        n = rng.randint(1, 3)
        votes = random_partial_votes(m, n, seed=5000 + i, density=rng.random())
        pw = PossibleWinnerInstance(
            tuple(f"c{j}" for j in range(m)),
            votes,
            VotingRule.k_approval(rng.randint(1, m)),
            rng.randrange(m),
        )
        want = possible_winner_brute(pw)
        inst = pw_to_sb(pw)
        assert brute_topk(inst).decision == want, f"partial instance {i}"
        again = sb_to_pw(inst)
        assert tuple(v.pairs for v in again.votes) == tuple(v.pairs for v in pw.votes)
        partial_count += 1
    print(
        f"PASS: Possible Winner round trips agreed with the brute decider on "
        f"{zero_budget} zero-budget and {partial_count} partial-order instances"
    )


def test_transformation_costs_match_shortest_paths():
    rng = random.Random(1010)
    from itertools import permutations

    checked = 0
    for m in (2, 3, 4):
        rankings = list(permutations(range(m)))
        for sample in range(3):
            costs = random_costs(rng, m, 1, minimum=0, maximum=4)
            for v in rankings:
                for w in rankings:
                    assert transform_cost(v, w, costs, 0) == swap_graph_shortest_path(
                        v, w, costs, 0
                    ), (v, w)
                    checked += 1
    for _ in range(100):
        costs = random_costs(rng, 5, 1, minimum=0, maximum=4)
        v = tuple(rng.sample(range(5), 5))
        w = tuple(rng.sample(range(5), 5))
        assert transform_cost(v, w, costs, 0) == swap_graph_shortest_path(v, w, costs, 0)
        checked += 1
    print(
        f"PASS: transformation costs equal adjacent-swap shortest paths on "
        f"{checked} ranking pairs"
    )
