"""The shared differential corpus: a fixed, seeded list of ``(id, instance)``.

``test_conformance.py`` checks every solver against the oracles over it.
An id reads ``rule/mode/prices/votes/i@budget``:

- rule: ``k-approval`` (k from 1 to m, so k = m too), ``scoring`` (at most
  4 points a position), ``scoring>64`` (top entries (65,) or (100, 40),
  zeros below) or ``bucklin``; mode: ``co-winner`` or ``unique-winner``;
- prices: a key of ``PRICES``; votes: ``single`` (every vote line of
  multiplicity 1) or ``runs`` (multiplicities 1 to 3, one above 1 at least,
  drawn before ``APART`` splits lines);
- budget: ``drawn`` (seeded), ``opt`` (the optimum, where one exists) or
  ``below`` (one step of the instance's integer price scale below a
  positive optimum).

It builds data only: no asserts, which ``python -O`` strips outside the
modules pytest rewrites. ``PYTHONPATH=src python tests/corpus.py`` prints
one line per solver, sha256 over its sorted (solver, id, decision,
optimum) rows with their counts, so a change shows which rows it moves;
then the same over every solver's rows. It leaves witnesses out, so no
hash seed changes it, and a change that keeps every answer keeps it.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction
from itertools import product

from swapbribery.core import CO_WINNER, UNIQUE_WINNER, Election, Vote, VotingRule, winners
from swapbribery.swaps import BriberyInstance

from oracle_utils import brute, lines_priced_per_copy

PER_VOTE = tuple(map(Fraction, ("0", "1/2", "3/4", "1", "2", "3", "5")))


def _pairs(rng, m, density, draw):
    """Pair overrides: each ordered pair priced by ``draw()`` with the given probability."""
    return {(a, b): draw() for a in range(m) for b in range(m) if a != b and rng.random() < density}


def _rational(rng, low, high):
    """A price in [low, high] with denominator 1, 2 or 4."""
    q = rng.choice((1, 2, 4))
    return Fraction(rng.randint(low * q, high * q), q)


# One vote's (default price, pair overrides) for m candidates.
PRICES = {
    "unit": lambda rng, m: (Fraction(1), {}),
    # one price per vote, zero and rational ones included: flow's scope
    "per-vote": lambda rng, m: (rng.choice(PER_VOTE), {}),
    "one-two": lambda rng, m: (Fraction(1), _pairs(rng, m, 0.4, lambda: Fraction(2))),
    "geq-one": lambda rng, m: (Fraction(rng.randint(1, 3)), _pairs(rng, m, 0.35, lambda: _rational(rng, 1, 3))),
    "rational": lambda rng, m: (Fraction(rng.randint(0, 4)), _pairs(rng, m, 0.35, lambda: _rational(rng, 0, 4))),
    "two-valued": lambda rng, m: (Fraction(1), _pairs(rng, m, 0.3, lambda: Fraction(2))),
    "range": lambda rng, m: (Fraction(rng.randint(4, 12), 4), _pairs(rng, m, 0.5, lambda: Fraction(rng.randint(4, 12), 4))),
    # coprime denominators, 3 and 7
    "coprime": lambda rng, m: (Fraction(1, 3), _pairs(rng, m, 0.5, lambda: Fraction(5, 7))),
}

# The chance that a later copy of a vote line draws its own prices, which
# splits the line where they differ (``lines_priced_per_copy``); the copies
# of every other line form a run of identical votes.
APART = {"per-vote": 0.3, "rational": 1.0}

# rule -> ((fewest, most) candidates, most expanded votes without runs, with runs)
SIZES = {
    "k-approval": ((2, 6), 4, 9),
    "scoring": ((2, 5), 4, 4),
    "scoring>64": ((2, 4), 4, 4),
    "bucklin": ((2, 4), 4, 4),
}

# Instances per (rule, mode, prices, votes); flow's own price kind gets more.
REPEATS = {("k-approval", "per-vote"): 4}


def _rule(rng, rule, m):
    if rule == "k-approval":
        return VotingRule.k_approval(rng.randint(1, m))
    if rule == "scoring":
        return VotingRule.scoring(sorted((rng.randint(0, 4) for _ in range(m)), reverse=True))
    if rule == "scoring>64":
        top = rng.choice(((65,), (100, 40)))[:m]
        return VotingRule.scoring(top + (0,) * (m - len(top)))
    return VotingRule.bucklin()


def _weights(rng, runs, most):
    """Multiplicities of the vote lines."""
    if not runs:
        return [1] * rng.randint(1, most)
    weights = [rng.randint(2, 3)]
    while sum(weights) < most and rng.random() < 0.6:
        weights.append(rng.randint(1, min(3, most - sum(weights))))
    rng.shuffle(weights)
    return weights


def _instance(rng, rule, mode, prices, runs):
    (low, high), single, most = SIZES[rule]
    m = rng.randint(low, high)
    weights = _weights(rng, runs, most if runs else single)
    draw, apart = PRICES[prices], APART.get(prices, 0.0)
    votes, table = [], []
    for w in weights:
        votes.append(Vote(tuple(rng.sample(range(m), m)), w))
        line = draw(rng, m)
        table += [line] + [draw(rng, m) if rng.random() < apart else line for _ in range(w - 1)]
    n = len(table)
    votes, costs = lines_priced_per_copy(votes, table)
    election = Election(tuple(f"c{i}" for i in range(m)), votes)
    voting = _rule(rng, rule, m)
    # mostly a candidate that does not win yet, so that bribery has work to do
    won = winners(election, voting)
    losing = [c for c in range(m) if c not in won or (mode == UNIQUE_WINNER and len(won) > 1)]
    return BriberyInstance(
        election,
        voting,
        rng.choice(losing) if losing and rng.random() < 0.8 else rng.randrange(m),
        costs,
        Fraction(rng.randint(0, 3 * n), rng.choice((1, 2, 3))),
        mode,
    )


def build() -> list[tuple[str, BriberyInstance]]:
    """The corpus, in a fixed order: each drawn instance, then it at and below its optimum.

    Each (rule, mode, prices, votes) draws until it has ``REPEATS``
    instances with a positive optimum, or five times that many instances.
    Each draw is seeded by its id, so no answer changes what it draws.
    """
    corpus = []
    for rule, mode, prices, runs in product(SIZES, (CO_WINNER, UNIQUE_WINNER), PRICES, (False, True)):
        group = f"{rule}/{mode}/{prices}/{'runs' if runs else 'single'}"
        repeats = REPEATS.get((rule, prices), 1)
        positive = 0
        for i in range(5 * repeats):
            if positive == repeats:
                break
            instance = _instance(random.Random(f"{group}/{i}"), rule, mode, prices, runs)
            corpus.append((f"{group}/{i}@drawn", instance))
            optimum = brute(instance).optimal_cost
            if optimum is None:
                continue
            at = replace(instance, budget=optimum)
            corpus.append((f"{group}/{i}@opt", at))
            if optimum:
                positive += 1
                step = Fraction(1, at.integer_prices()[0])
                corpus.append((f"{group}/{i}@below", replace(instance, budget=optimum - step)))
    return corpus


CORPUS = build()


if __name__ == "__main__":
    from conformance_table import digest

    print(digest())
