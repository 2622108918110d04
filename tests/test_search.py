"""The search must return what plain enumeration returns, cuts and all."""

import random
from itertools import product

from swapbribery import _search
from swapbribery.oracle import available_backends, get_backend


def test_pure_backend_always_available():
    assert get_backend("pure") is _search
    assert "pure" in available_backends()


def preferred_wins(tallies, rows, m, n_votes, unique):
    """The winner test the search's tallies stand for, column 0 being the preferred candidate.

    One row holds scores. Several rows are Bucklin's rounds: the first row in
    which some candidate reaches a strict majority of the votes decides, and
    with no such row nobody wins.
    """
    majority = n_votes // 2 + 1 if rows > 1 else 0
    for r in range(rows):
        row = tallies[r * m : (r + 1) * m]
        if max(row) >= majority:
            rival = max(row[1:], default=-1)
            return row[0] > rival or (not unique and row[0] == rival)
    return False


def reference(offsets, increments, costs, rows, m, unique, budget):
    """Lexicographically first minimum-cost winning choice vector, by enumeration."""
    n_votes = len(offsets) - 1
    best = None
    for choices in product(*(range(offsets[v], offsets[v + 1]) for v in range(n_votes))):
        cost = sum(costs[i] for i in choices)
        if budget >= 0 and cost > budget:
            continue
        tallies = [0] * (rows * m)
        for i in choices:
            for index, amount in increments[i]:
                tallies[index] += amount
        if not preferred_wins(tallies, rows, m, n_votes, unique):
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
    """Random search input; votes often repeat the previous vote's options."""
    m = rng.randint(1, 5)
    rows = rng.choice((1, 1, m, rng.randint(2, 3)))
    offsets, increments, costs = [0], [], []
    previous = None
    for _ in range(rng.randint(0, 4)):
        if previous is not None and rng.random() < 0.5:
            options = previous
            change = rng.random()
            # the same increments at other prices, or the same prices for
            # other increments: not a run of identical votes
            if change < 0.2:
                repriced = sorted(rng.randint(0, 9) for _ in options)
                options = [(cost, step) for cost, (_, step) in zip(repriced, options)]
            elif change < 0.4:
                options = [(cost, random_option(rng, rows, m)) for cost, _ in options]
        else:
            options = [
                (cost, random_option(rng, rows, m))
                for cost in sorted(rng.randint(0, 9) for _ in range(rng.randint(1, 5)))
            ]
        for cost, step in options:
            costs.append(cost)
            increments.append(step)
        offsets.append(offsets[-1] + len(options))
        previous = options
    unique = rng.random() < 0.5
    budget = rng.choice((-1, rng.randint(0, 20)))
    return offsets, increments, costs, rows, m, unique, budget


def test_search_matches_enumeration():
    rng = random.Random(5)
    for trial in range(2000):
        args = random_search(rng)
        assert _search.best_assignment(*args) == reference(*args), (trial, args)
