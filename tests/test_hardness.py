import hashlib
import random
from fractions import Fraction

import pytest

from swapbribery import hardness
from swapbribery.core import scores
from swapbribery.errors import DomainError, ResourceCapError
from swapbribery.hardness import (
    ColoredGraph,
    Graph,
    multicolored_clique_instance,
    multicolored_clique_witness,
    planted_multicolored_clique,
    random_graph,
    single_vote_clique_instance,
)
from swapbribery.io import serialize_election, serialize_solution
from swapbribery.oracle import brute_topk
from swapbribery.swaps import verify_bribery

from oracle_utils import bribed_election, clique_exists


class TestColoredGraph:
    def test_rejects_intra_class_edges_when_checked(self):
        graph = ColoredGraph(2, frozenset({(0, 1)}), (1, 1))
        with pytest.raises(DomainError):
            graph.check_classes_independent()

    def test_rejects_gappy_colors(self):
        with pytest.raises(DomainError):
            ColoredGraph(2, frozenset(), (1, 3))


class TestCliqueGadget:
    def test_budget_and_guard_count_k2(self):
        graph, _ = planted_multicolored_clique([2, 2], seed=0)
        inst, layout = multicolored_clique_instance(graph)
        assert inst.budget == 48  # k^3 + 10 k^2 at k=2
        guards = [n for n in inst.election.candidates if n.startswith("g")]
        assert len(guards) == 50  # budget + 2

    def test_meeting_candidate_count_k3(self):
        graph, _ = planted_multicolored_clique([2, 2, 2], seed=1)
        inst, layout = multicolored_clique_instance(graph)
        meeting = [n for n in inst.election.candidates if n.startswith("m_")]
        assert len(meeting) == 6  # C(3,2) + 3

    def test_base_score_is_min_even_dominating(self):
        # class sizes and per-class degrees all <= 4 at k=2: K = 4 = k^2.
        graph, _ = planted_multicolored_clique([4, 4], seed=2)
        _, layout = multicolored_clique_instance(graph)
        assert layout.base_score == 4

    def test_score_audit_families(self):
        graph, _ = planted_multicolored_clique([2, 3], seed=3)
        inst, layout = multicolored_clique_instance(graph)
        totals = scores(inst.election, inst.rule)
        names = inst.election.candidates
        level = layout.base_score
        assert totals[names.index("r")] == 0
        for i in (1, 2):
            for j in (1, 2):
                assert totals[names.index(f"a_{i}_{j}")] == level + 1
        durable = [
            n
            for n in names
            if not n.startswith(("a_", "dummy", "g", "r"))
            and n != "r"
            and not n.startswith("p")
        ]
        for name in durable:
            assert totals[names.index(name)] == level, name
        assert totals[names.index("p")] == level

    def test_guards_score_exactly_the_level_inside_guard_votes(self):
        graph, _ = planted_multicolored_clique([2, 2], seed=4)
        inst, layout = multicolored_clique_instance(graph)
        totals = scores(inst.election, inst.rule)
        names = inst.election.candidates
        for name in names:
            if name.startswith("g") and not name.startswith("guard-less"):
                assert totals[names.index(name)] == layout.base_score

    def test_witness_costs_exactly_the_budget(self):
        for sizes, seed in (([2, 2], 5), ([3, 2], 6), ([2, 2, 2], 7)):
            graph, clique = planted_multicolored_clique(sizes, seed=seed)
            inst, layout = multicolored_clique_instance(graph)
            witness = multicolored_clique_witness(inst, layout, clique)
            report = verify_bribery(inst, witness)
            assert report.total_cost == inst.budget
            assert report.preferred_wins and report.within_budget

    def test_witness_final_scores(self):
        graph, clique = planted_multicolored_clique([2, 2], seed=8)
        inst, layout = multicolored_clique_instance(graph)
        witness = multicolored_clique_witness(inst, layout, clique)
        totals = scores(bribed_election(inst, witness), inst.rule)
        names = inst.election.candidates
        k = graph.k
        assert totals[names.index("r")] == k * k
        assert totals[names.index("p")] == layout.base_score
        for i in (1, 2):
            for j in (1, 2):
                assert totals[names.index(f"a_{i}_{j}")] == layout.base_score

    def test_witness_rejects_non_cliques(self):
        # the one edge joins 1 and 3, so 1 and 2 are no clique
        graph = ColoredGraph(4, frozenset({(1, 3)}), (1, 1, 2, 2))
        inst, layout = multicolored_clique_instance(graph)
        other = {1: 1, 2: 2}
        with pytest.raises(DomainError):
            multicolored_clique_witness(inst, layout, other)

    def test_witness_rejects_vertices_outside_their_class(self):
        graph, planted = planted_multicolored_clique([2, 2], seed=1)
        assert planted == {1: 0, 2: 2}
        inst, layout = multicolored_clique_instance(graph)
        # the same two vertices, each named for the other's class
        with pytest.raises(DomainError, match="one vertex per color class"):
            multicolored_clique_witness(inst, layout, {1: 2, 2: 0})
        # a class left out
        with pytest.raises(DomainError, match="one vertex per color class"):
            multicolored_clique_witness(inst, layout, {1: 0})

    def test_epsilon_appears_in_blocking_pairs(self):
        graph, _ = planted_multicolored_clique([2, 2], seed=10)
        inst, layout = multicolored_clique_instance(graph, epsilon=Fraction(1, 3))
        values = set(inst.costs.distinct_values())
        assert values == {Fraction(1), Fraction(4, 3)}

    def test_rejects_dependent_classes(self):
        graph = ColoredGraph(3, frozenset({(0, 1)}), (1, 1, 2))
        with pytest.raises(DomainError):
            multicolored_clique_instance(graph)

    def test_rejects_uncolored_graph(self):
        with pytest.raises(DomainError):
            multicolored_clique_instance(Graph(2, frozenset({(0, 1)})))

    @pytest.mark.parametrize("class_sizes", [[2, 2], [1, 2, 3]])
    def test_size_bound_refuses_one_position_past_it_before_a_vote_is_built(self, class_sizes, monkeypatch):
        graph, _ = planted_multicolored_clique(class_sizes, seed=2)
        inst, layout = multicolored_clique_instance(graph)
        positions = len(inst.election.votes) * (layout.budget + 2)
        monkeypatch.setattr(hardness, "MAX_GADGET_POSITIONS", positions)
        assert multicolored_clique_instance(graph)[0] == inst
        monkeypatch.setattr(hardness, "MAX_GADGET_POSITIONS", positions - 1)
        built = []
        monkeypatch.setattr(hardness, "Vote", lambda *args: built.append(args))
        with pytest.raises(ResourceCapError, match=f"more than {positions - 1} positions"):
            multicolored_clique_instance(graph)
        assert built == []


# sha256 of the election file and of the planted witness's solution file, for
# seed 1; the witness's file does not depend on epsilon.
GADGET_BYTES = {
    ("3,3", Fraction(1)): ("be6325327911a7e588c5456c979d4ea13124b76f4974deaf9a91ef9597763a1c",
                           "fa6dc5901dca2ab29f2a433eaa0a0be99ba47b4807e3270072c441b8389ae270"),
    ("3,3", Fraction(1, 3)): ("77619399029b6cf3c044e2d6b73d213067bd0097bff0401c367b1bc7c6f57fdf",
                              "fa6dc5901dca2ab29f2a433eaa0a0be99ba47b4807e3270072c441b8389ae270"),
    ("2,2,2", Fraction(1)): ("811aa89a91c7548749a6f98c613611efc9d7a4e1a5a4136f14cb229626cbfbce",
                             "d91814506f339d8413d1a6ea2d921ea33a8a783f2e098947b837436fb0e12435"),
    ("2,2,2", Fraction(1, 3)): ("bc88bbbdcd02423ef268c798f93918f017af635ed18e3e3b0b1f46b080943304",
                                "d91814506f339d8413d1a6ea2d921ea33a8a783f2e098947b837436fb0e12435"),
}


@pytest.mark.parametrize("classes, epsilon", list(GADGET_BYTES))
def test_gadget_files_are_pinned(classes, epsilon):
    graph, planted = planted_multicolored_clique([int(s) for s in classes.split(",")], seed=1)
    inst, layout = multicolored_clique_instance(graph, epsilon)
    witness = multicolored_clique_witness(inst, layout, planted)
    written = (
        serialize_election(inst),
        serialize_solution(inst, True, layout.budget, witness, "planted"),
    )
    assert tuple(hashlib.sha256(text.encode()).hexdigest() for text in written) == GADGET_BYTES[classes, epsilon]


# Each chain family's start, end and number of relay votes, from its key.
CHAINS = {
    "a-b": lambda k, i, j, x: (f"a_{i}_{j}", f"b_{i}_v{x}", 1),
    "b-ct": lambda k, x: (f"b_1_v{x}", f"ct_1_v{x}", 2),
    "c-f": lambda k, x: (f"c_{k}_v{x}", f"f_{k}_v{x}", 2),
    "ct-c": lambda k, i, x: (f"ct_{i}_v{x}", f"c_{i}_v{x}", 1),
    "f-h": lambda k, i, x: (f"f_{i}_v{x}", f"h_{i}_v{x}", 2 * (k - i) + 1),
    "h-ht": lambda k, i, x: (f"h_{i}_v{x}", f"ht_{i}_v{x}", 1),
    "mt-m": lambda k, i, j: (f"mt_{i}_{j}", f"m_{i}_{j}", 1),
    "h-m": lambda k, i, x: (f"h_{i}_v{x}", f"m_{i}_{i}", 3),
}
# Each blocked family's four head candidates w, x, y, z, from its key.
BLOCKED = {
    "sel4": lambda i, x: (f"b_{i}_v{x}", f"c_{i - 1}_v{x}", f"ct_{i}_v{x}", f"f_{i - 1}_v{x}"),
    "inc4": lambda i, j, y, x: (f"h_{i}_v{x}", f"ht_{j}_v{y}", f"mt_{i}_{j}", f"m_{i}_{j}"),
}


@pytest.mark.parametrize("class_sizes", [[2, 2], [1, 2, 3], [1, 1, 1, 1]])
def test_layout_names_its_votes(class_sizes):
    graph, _ = planted_multicolored_clique(class_sizes, seed=0)
    epsilon = Fraction(1, 3)
    inst, layout = multicolored_clique_instance(graph, epsilon)
    k, names = graph.k, inst.election.candidates
    ids = {name: c for c, name in enumerate(names)}
    rankings = [tuple(names[c] for c in ranking[:4]) for ranking in inst.election.expanded_list()]
    # the layout names expanded votes, and prices are per line: the guard
    # lines' extra copies all come before the gadget's one-copy lines
    shift = inst.election.n_expanded - len(inst.election.votes)
    assert {key[0] for key in layout.votes} == {*CHAINS, *BLOCKED, "m-r"}
    for key, votes in layout.votes.items():
        family, *ix = key
        heads = [rankings[v] for v in votes]
        if family in BLOCKED:
            (vote,) = votes
            w, x, y, z = BLOCKED[family](*ix)
            assert heads[0] == (w, x, y, z)
            tax = 1 + epsilon
            assert inst.costs.overrides(vote - shift) == {
                (ids[s], ids[t]): tax for s, t in ((w, x), (x, w), (y, z), (z, y))
            }
            continue
        assert all(inst.costs.overrides(v - shift) == {} for v in votes)
        assert all(head[0].startswith("dummy") for head in heads)
        if family == "m-r":
            i, j = ix
            assert [head[1:3] for head in heads] == [(f"m_{i}_{j}", "r")] * (2 if i < j else 1)
            continue
        start, end, length = CHAINS[family](k, *ix)
        hops = [heads[0][1], *(head[2] for head in heads)]
        assert len(votes) == length
        assert [head[1] for head in heads] == hops[:-1]
        assert (hops[0], hops[-1]) == (start, end)
        assert all(q.startswith("t") for q in hops[1:-1])
    # Every vote after the guard and initializing votes belongs to exactly one key.
    body = [
        v for v, head in enumerate(rankings)
        if not head[0].startswith("g") and not head[1].startswith("dummy")
    ]
    claimed = [v for votes in layout.votes.values() for v in votes]
    assert sorted(claimed) == body


class TestSingleVoteClique:
    def test_formula_values(self):
        graph = Graph(4, frozenset({(0, 1), (1, 2), (2, 3), (0, 2)}))
        inst = single_vote_clique_instance(graph, 2)
        assert inst.budget == 39  # (N-k)N^2 + kN - C(k,2)
        assert inst.election.m == 8  # N + k + 2
        c1 = inst.election.candidates.index("c1")
        p = inst.election.candidates.index("p")
        assert inst.costs.cost(0, c1, p) == 16  # N^2

    def test_edge_costs(self):
        graph = Graph(3, frozenset({(0, 1)}))
        inst = single_vote_clique_instance(graph, 1)
        c = [inst.election.candidates.index(f"c{i}") for i in (1, 2, 3)]
        d1 = inst.election.candidates.index("d1")
        assert inst.costs.cost(0, c[0], c[1]) == 1
        assert inst.costs.cost(0, c[0], c[2]) == 0
        # d1 -> c_i costs N minus the earlier neighbors of v_i
        assert inst.costs.cost(0, d1, c[0]) == 3
        assert inst.costs.cost(0, d1, c[1]) == 2

    def test_rejects_oversized_clique_request(self):
        with pytest.raises(DomainError):
            single_vote_clique_instance(Graph(2, frozenset()), 3)

    def test_decision_equals_clique_existence(self):
        rng = random.Random(11)
        for trial in range(25):
            n = rng.randint(3, 7)
            graph = random_graph(n, rng.choice((0.2, 0.4, 0.6)), seed=trial)
            k = rng.randint(1, min(3, n))
            inst = single_vote_clique_instance(graph, k)
            want = clique_exists(n, graph.edges, k)
            res = brute_topk(inst)
            assert res.decision == want, (n, k, sorted(graph.edges))
            if want:
                assert res.optimal_cost == inst.budget
