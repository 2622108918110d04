"""The search must return what plain enumeration returns, cuts and all."""

import random
from fractions import Fraction
from itertools import product

from swapbribery import _search
from swapbribery.colorcoding import successful_patterns
from swapbribery.core import CO_WINNER, K_APPROVAL, UNIQUE_WINNER, Election, Vote, VotingRule, head_then_rest
from swapbribery.ilp import solve_ilp
from swapbribery.oracle import available_backends, brute_rankings, brute_topk, get_backend
from swapbribery.reductions import gen_random
from swapbribery.swaps import BriberyInstance, SwapCostFunction

from search_orders import NodeSpy


def test_pure_backend_always_available():
    assert get_backend("pure") is _search
    assert "pure" in available_backends()


def preferred_wins(tallies, rows, m, n_votes, unique, preferred):
    """The winner test the search's tallies stand for, column c being candidate c.

    One row holds scores. Several rows are Bucklin's rounds: the first row in
    which some candidate reaches a strict majority of the votes decides, and
    with no such row nobody wins.
    """
    majority = n_votes // 2 + 1 if rows > 1 else 0
    for r in range(rows):
        row = tallies[r * m : (r + 1) * m]
        if max(row) >= majority:
            rival = max(row[:preferred] + row[preferred + 1 :], default=-1)
            return row[preferred] > rival or (not unique and row[preferred] == rival)
    return False


def reference(offsets, sizes, increments, costs, rows, m, unique, budget, preferred):
    """Lexicographically first minimum-cost winning choice vector, by enumeration."""
    votes = [range(offsets[g], offsets[g + 1]) for g, size in enumerate(sizes) for _ in range(size)]
    best = None
    for choices in product(*votes):
        cost = sum(costs[i] for i in choices)
        if budget >= 0 and cost > budget:
            continue
        tallies = [0] * (rows * m)
        for i in choices:
            for index, amount in increments[i]:
                tallies[index] += amount
        if not preferred_wins(tallies, rows, m, len(votes), unique, preferred):
            continue
        if best is None or cost < best[0]:
            best = (cost, list(choices))
    return best


def bucklin_increments(ranking, m):
    """Bucklin's increments: each candidate counts in every row from its position on."""
    return [(d * m + c, 1) for pos, c in enumerate(ranking) for d in range(pos, m)]


def random_option(rng, rows, m):
    """Bucklin's increments of a random ranking, or random pairs that may repeat a tally.

    Random pairs cover amounts above 1 and a candidate named twice in one option.
    """
    if rows == m and rng.random() < 0.5:
        return bucklin_increments(rng.sample(range(m), m), m)
    return [(rng.randrange(rows * m), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]


def random_search(rng):
    """Random search input; votes often join the previous vote's class.

    A new class may also offer the previous class's increments at other
    prices, or its prices for other increments.
    """
    m = rng.randint(1, 5)
    rows = rng.choice((1, 1, m, rng.randint(2, 3)))
    offsets, sizes, increments, costs = [0], [], [], []
    previous = None
    for _ in range(rng.randint(0, 4)):
        if previous is not None and rng.random() < 0.5:
            options = previous
            change = rng.random()
            if change < 0.2:
                repriced = sorted(rng.randint(0, 9) for _ in options)
                options = [(cost, step) for cost, (_, step) in zip(repriced, options)]
            elif change < 0.4:
                options = [(cost, random_option(rng, rows, m)) for cost, _ in options]
            else:
                sizes[-1] += 1
                continue
        else:
            options = [
                (cost, random_option(rng, rows, m))
                for cost in sorted(rng.randint(0, 9) for _ in range(rng.randint(1, 5)))
            ]
        for cost, step in options:
            costs.append(cost)
            increments.append(step)
        offsets.append(offsets[-1] + len(options))
        sizes.append(1)
        previous = options
    unique = rng.random() < 0.5
    budget = rng.choice((-1, rng.randint(0, 20)))
    return offsets, sizes, increments, costs, rows, m, unique, budget


def test_search_matches_enumeration():
    # each case as drawn with candidate 0 preferred, then with a candidate
    # drawn by its own generator, so that no draw of ``rng`` moves
    rng = random.Random(5)
    for trial in range(2000):
        args = random_search(rng)
        for preferred in (0, random.Random(trial).randrange(args[5])):
            want = reference(*args, preferred)
            assert _search.best_assignment(*args, preferred) == want, (trial, preferred, args)


def test_swing_cut_keeps_the_first_optimum(monkeypatch):
    """One row and more nodes than options, so that the swing cut is built and cuts.

    Votes with one to three options, amounts 1-2, often of the previous
    vote's class; both winner modes, with and without a budget.
    """
    rng = random.Random(41)
    cut = 0
    for trial in range(2000):
        m = rng.randint(2, 3)
        offsets, sizes, increments, costs = [0], [], [], []
        for _ in range(rng.randint(3, 7)):
            if sizes and rng.random() >= 0.4:
                sizes[-1] += 1
                continue
            options = sorted(
                ((rng.randint(0, 6), [(rng.randrange(m), rng.randint(1, 2)) for _ in range(rng.randint(1, 2))])
                 for _ in range(rng.randint(1, 3))),
                key=lambda option: option[0],
            )
            for cost, step in options:
                costs.append(cost)
                increments.append(step)
            offsets.append(offsets[-1] + len(options))
            sizes.append(1)
        args = (offsets, sizes, increments, costs, 1, m, trial % 2 == 0, rng.choice((-1, rng.randint(0, 12))), rng.randrange(m))
        spy = NodeSpy()
        monkeypatch.setattr(_search, "MAX_NODES", spy)
        assert _search.best_assignment(*args) == reference(*args), (trial, args)
        with monkeypatch.context() as uncut:
            plain = NodeSpy()
            uncut.setattr(_search, "MAX_NODES", plain)
            uncut.setattr(_search, "_swing_table", lambda *table_args: None)
            _search.best_assignment(*args)
        cut += spy.most < plain.most
    assert cut >= 60


def test_search_goes_1500_votes_deep():
    # One level per vote: 1,500 votes, each giving the preferred candidate a point.
    n_votes = 1500
    offsets = list(range(n_votes + 1))
    got = _search.best_assignment(offsets, [1] * n_votes, [[(0, 1)]] * n_votes, [0] * n_votes, 1, 2, False, -1, 0)
    assert got == (0, list(range(n_votes)))


TWO = ("two-valued", Fraction(1), Fraction(2), 0.3)
TIE = BriberyInstance(
    Election(tuple("abcde"), (Vote((0, 1, 2, 3, 4), 5),)),
    VotingRule.k_approval(2), 4, SwapCostFunction.unit(1), Fraction(8),
)


def test_walks_visit_a_fixed_number_of_nodes(monkeypatch):
    """Each exact walk's node count on one input, so reordering a walk shows."""
    runs = [
        (lambda: brute_topk(TIE), 191, (False, 12)),
        (lambda: brute_rankings(gen_random(4, 4, 1, cost_model=TWO, seed=4, rule=VotingRule.bucklin())), 323, (False, 4)),
        (lambda: solve_ilp(gen_random(4, 4, 2, cost_model=TWO, seed=1)), 108, (True, None)),
        # preferred candidate 1, so the rivals are listed 0, 2, 3
        (lambda: solve_ilp(gen_random(4, 4, 1, cost_model=TWO, seed=0, rule=VotingRule.bucklin())), 953, (True, None)),
        (lambda: sum(1 for _ in successful_patterns(5, 2, 7)), 12257, 4644),
    ]
    for run, nodes, answer in runs:
        spy = NodeSpy()
        monkeypatch.setattr(_search, "MAX_NODES", spy)
        got = run()
        assert (got if isinstance(got, int) else (got.decision, got.optimal_cost)) == answer
        assert spy.most == nodes


def _relabeled(instance, label):
    """The instance with candidate c renamed ``label[c]``: roster, full rankings, preferred and overrides."""
    m, costs = instance.election.m, instance.costs
    names = [""] * m
    for c, name in enumerate(instance.election.candidates):
        names[label[c]] = name
    votes = instance.election.votes
    return BriberyInstance(
        Election(
            tuple(names),
            tuple(Vote(tuple(label[c] for c in head_then_rest(v.ranking, m)), v.multiplicity) for v in votes),
        ),
        instance.rule,
        label[instance.preferred],
        SwapCostFunction(
            [costs.default(v) for v in range(len(votes))],
            [{(label[a], label[b]): p for (a, b), p in costs.overrides(v).items()} for v in range(len(votes))],
        ),
        instance.budget,
        instance.mode,
    )


def _run(monkeypatch, oracle, instance):
    """The oracle's decision and optimum on the instance, and the nodes its search visits."""
    spy = NodeSpy()
    monkeypatch.setattr(_search, "MAX_NODES", spy)
    got = oracle(instance)
    return (got.decision, got.optimal_cost), spy.most


def pruned_topk(instance):
    return brute_topk(instance, prune_to_budget=True)


def test_renaming_the_candidates_keeps_each_oracle_answer(monkeypatch):
    """The search reads the preferred candidate's own column, wherever it is.

    Each instance is renamed at random so that the preferred candidate takes
    id 0, the last id and a drawn id. ``brute_topk``, also pruned to the
    budget, builds its options by ranking position, so it also visits the
    same nodes; ``brute_rankings``
    lists its m! targets in id order, so its cost ties, and with them its
    node count, may fall another way.
    """
    rng = random.Random(40)
    renamed = 0
    for trial in range(48):
        m = rng.randint(2, 5)
        n = rng.randint(1, 3 if m == 5 else 4)
        k = rng.randint(1, m)
        rule = (
            VotingRule.k_approval(k),
            VotingRule.bucklin(),
            VotingRule.scoring(sorted((rng.randint(0, 3) for _ in range(m)), reverse=True)),
        )[trial % 3]
        prices = rng.choice((TWO, ("uniform-range", Fraction(1), Fraction(3))))
        mode = (CO_WINNER, UNIQUE_WINNER)[trial // 3 % 2]
        instance = gen_random(m, n, k, cost_model=prices, seed=trial, rule=rule, mode=mode)
        oracles = [brute_rankings] + [brute_topk, pruned_topk] * (rule.kind == K_APPROVAL)
        want = [_run(monkeypatch, oracle, instance) for oracle in oracles]
        for target in (0, m - 1, rng.randrange(m)):
            others = [c for c in range(m) if c != target]
            rng.shuffle(others)
            label = [target if c == instance.preferred else others.pop() for c in range(m)]
            renamed += label[instance.preferred] != instance.preferred
            for oracle, (answer, nodes) in zip(oracles, want):
                got_answer, got_nodes = _run(monkeypatch, oracle, _relabeled(instance, label))
                assert got_answer == answer, (trial, oracle, label)
                assert oracle is brute_rankings or got_nodes == nodes, (trial, label)
    assert renamed >= 48
