import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
# the conformance table runs without pytest, but its asserts are rewritten under it
pytest.register_assert_rewrite("conformance_table")

from swapbribery.core import Election, Vote, VotingRule
from swapbribery.swaps import BriberyInstance, SwapCostFunction

from oracle_utils import lines_priced_per_copy

# A five-candidate, two-vote 2-approval instance used throughout:
#   vote v: c1 > c2 > p > c4 > c3
#   vote u: c1 > c2 > c3 > p > c4
SAMPLE_NAMES = ("c1", "c2", "p", "c4", "c3")
SAMPLE_V = (0, 1, 2, 3, 4)
SAMPLE_U = (0, 1, 4, 2, 3)
P = 2


def sample_election() -> Election:
    return Election(SAMPLE_NAMES, (Vote(SAMPLE_V), Vote(SAMPLE_U)))


@pytest.fixture
def sample_instance() -> BriberyInstance:
    return BriberyInstance(
        election=sample_election(),
        rule=VotingRule.k_approval(2),
        preferred=P,
        costs=SwapCostFunction.unit(2),
        budget=Fraction(3),
    )


def random_costs(
    rng: random.Random,
    m: int,
    n: int,
    minimum: int = 0,
    maximum: int = 4,
    density: float = 0.35,
    denominators=(1, 2, 4),
) -> SwapCostFunction:
    """Seeded cost function with rational prices in [minimum, maximum]."""
    defaults, overrides = [], []
    for _ in range(n):
        defaults.append(Fraction(rng.randint(minimum, maximum)))
        table = {}
        for a in range(m):
            for b in range(m):
                if a != b and rng.random() < density:
                    q = rng.choice(denominators)
                    table[(a, b)] = Fraction(rng.randint(minimum * q, maximum * q), q)
        overrides.append(table)
    return SwapCostFunction(defaults, overrides)


def random_instance(
    rng: random.Random,
    m_max: int = 6,
    n_max: int = 3,
    k_choices=(1, 2, 3),
    cost_kind: str = "rational",
    budget_max: int | None = None,
    mode: str = "co-winner",
    multiplicities=(1,),
) -> BriberyInstance:
    """Seeded instance mixing vote multiplicities and cost models.

    ``n_max`` bounds the number of expanded votes; multiplicity-w votes
    count w times against it. Prices are drawn per expanded vote, so a
    line whose copies draw different prices is split
    (``oracle_utils.lines_priced_per_copy``).
    """
    m = rng.randint(2, m_max)
    n = rng.randint(1, n_max)
    k = rng.choice([k for k in k_choices if k <= m])
    votes = []
    left = n
    while left > 0:
        w = min(left, rng.choice(multiplicities))
        votes.append(Vote(tuple(rng.sample(range(m), m)), w))
        left -= w
    n_exp = sum(vote.multiplicity for vote in votes)
    if cost_kind == "unit":
        costs = SwapCostFunction.unit(n_exp)
    elif cost_kind == "one-two":
        defaults = [Fraction(1)] * n_exp
        overrides = []
        for _ in range(n_exp):
            overrides.append(
                {
                    (a, b): Fraction(2)
                    for a in range(m)
                    for b in range(m)
                    if a != b and rng.random() < 0.4
                }
            )
        costs = SwapCostFunction(defaults, overrides)
    elif cost_kind == "geq-one":
        costs = random_costs(rng, m, n_exp, minimum=1, maximum=3)
    else:
        costs = random_costs(rng, m, n_exp)
    votes, costs = lines_priced_per_copy(votes, map(costs.prices.__getitem__, costs.price_ids))
    election = Election(tuple(f"c{i}" for i in range(m)), votes)
    if budget_max is None:
        budget_max = n_exp * k
    budget = Fraction(rng.randint(0, budget_max) * rng.choice((2, 2, 1)), 2)
    return BriberyInstance(
        election=election,
        rule=VotingRule.k_approval(k),
        preferred=rng.randrange(m),
        costs=costs,
        budget=budget,
        mode=mode,
    )
