"""The search must return what plain enumeration returns, cuts and all."""

import random
from itertools import product

from swapbribery import _search
from swapbribery.oracle import available_backends, get_backend


def test_pure_backend_always_available():
    assert get_backend("pure") is _search
    assert "pure" in available_backends()


def reference(offsets, gains, width, costs, m, preferred, unique, budget):
    """Lexicographically first minimum-cost winning choice vector, by enumeration."""
    best = None
    for choices in product(*(range(offsets[v], offsets[v + 1]) for v in range(len(offsets) - 1))):
        cost = sum(costs[i] for i in choices)
        if budget >= 0 and cost > budget:
            continue
        scores = [0] * m
        for i in choices:
            for c in gains[i * width : (i + 1) * width]:
                scores[c] += 1
        rivals = [s for c, s in enumerate(scores) if c != preferred]
        top = max(rivals, default=-1)
        if top > scores[preferred] or (unique and top == scores[preferred]):
            continue
        if best is None or cost < best[0]:
            best = (cost, list(choices))
    return best


def random_search(rng):
    """Random search input; votes often repeat the previous vote's options."""
    m = rng.randint(1, 6)
    repeats = rng.random() < 0.5  # gains may name a candidate more than once
    width = rng.randint(1, 3) if repeats else rng.randint(1, min(3, m))
    offsets, gains, costs = [0], [], []
    previous = None
    for _ in range(rng.randint(0, 4)):
        if previous is not None and rng.random() < 0.5:
            options = previous
        else:
            options = []
            for cost in sorted(rng.randint(0, 9) for _ in range(rng.randint(1, 5))):
                gain = rng.choices(range(m), k=width) if repeats else rng.sample(range(m), width)
                options.append((cost, gain))
        for cost, gain in options:
            costs.append(cost)
            gains.extend(gain)
        offsets.append(offsets[-1] + len(options))
        previous = options
    preferred = rng.randrange(m)
    unique = rng.random() < 0.5
    budget = rng.choice((-1, rng.randint(0, 20)))
    return offsets, gains, width, costs, m, preferred, unique, budget


def test_search_matches_enumeration():
    rng = random.Random(5)
    for trial in range(2000):
        args = random_search(rng)
        assert _search.best_assignment(*args) == reference(*args), (trial, args)

