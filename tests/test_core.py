import random

import pytest
from hypothesis import given, strategies as st

from swapbribery.core import (
    BUCKLIN,
    SCORING,
    Election,
    Vote,
    VotingRule,
    head_then_rest,
    scores,
    winners,
    winners_of_rankings,
)
from swapbribery.errors import DomainError, RankingError, UnsupportedRuleError

from conftest import sample_election
from oracle_utils import bucklin_winning_round


def make(votes, m=None, mults=None):
    m = m if m is not None else len(votes[0])
    mults = mults or [1] * len(votes)
    return Election(
        tuple(f"c{i}" for i in range(m)),
        tuple(Vote(tuple(v), w) for v, w in zip(votes, mults)),
    )


def test_scores_on_sample():
    election = sample_election()
    rule = VotingRule.k_approval(2)
    assert scores(election, rule) == [2, 2, 0, 0, 0]


def test_score_zero_when_never_in_top_k():
    election = make([(0, 1, 2), (1, 0, 2)])
    assert scores(election, VotingRule.k_approval(1))[2] == 0


def test_scoring_vector_rule():
    election = make([(0, 1, 2)])
    assert scores(election, VotingRule.scoring((2, 1, 0)))[1] == 1


def test_score_rejects_bucklin():
    with pytest.raises(UnsupportedRuleError):
        scores(make([(0, 1)]), VotingRule.bucklin())


def test_winners_plurality_single_vote():
    assert winners(make([(0, 1, 2)]), VotingRule.k_approval(1)) == {0}


def test_winners_sample_two_approval():
    assert winners(sample_election(), VotingRule.k_approval(2)) == {0, 1}


def test_bucklin_three_votes():
    # votes (a,b,c), (b,a,c), (c,a,b): round 1 peaks at 1 < 2, round 2
    # gives a=3, b=2, c=1, so a wins in round 2.
    election = make([(0, 1, 2), (1, 0, 2), (2, 0, 1)])
    assert bucklin_winning_round(election) == 2
    assert winners(election, VotingRule.bucklin()) == {0}


def test_bucklin_winner_meets_majority_threshold():
    rng = random.Random(4)
    for _ in range(60):
        m = rng.randint(2, 5)
        n = rng.randint(1, 5)
        election = make([rng.sample(range(m), m) for _ in range(n)], m=m)
        b = bucklin_winning_round(election)
        threshold = election.n_expanded // 2 + 1
        counts_b = [
            sum(v.multiplicity for v in election.votes if c in v.ranking[:b])
            for c in range(m)
        ]
        for w in winners(election, VotingRule.bucklin()):
            assert counts_b[w] >= threshold
        if b > 1:
            counts_prev = [
                sum(v.multiplicity for v in election.votes if c in v.ranking[: b - 1])
                for c in range(m)
            ]
            assert max(counts_prev) < threshold


@given(st.data())
def test_score_sum_identity(data):
    m = data.draw(st.integers(2, 5))
    n = data.draw(st.integers(1, 4))
    votes = [
        data.draw(st.permutations(tuple(range(m)))) for _ in range(n)
    ]
    mults = [data.draw(st.integers(1, 3)) for _ in range(n)]
    election = make(votes, m=m, mults=mults)
    k = data.draw(st.integers(1, m))
    total = sum(scores(election, VotingRule.k_approval(k)))
    assert total == election.n_expanded * k
    vector = tuple(
        sorted((data.draw(st.integers(0, 3)) for _ in range(m)), reverse=True)
    )
    total = sum(scores(election, VotingRule.scoring(vector)))
    assert total == election.n_expanded * sum(vector)


def test_winners_invariant_under_vote_permutation_and_splitting():
    rng = random.Random(11)
    for _ in range(40):
        m = rng.randint(2, 5)
        n = rng.randint(1, 4)
        votes = [tuple(rng.sample(range(m), m)) for _ in range(n)]
        mults = [rng.randint(1, 3) for _ in range(n)]
        rule = rng.choice(
            [VotingRule.k_approval(rng.randint(1, m)), VotingRule.bucklin()]
        )
        base = make(votes, m=m, mults=mults)
        shuffled_order = list(range(n))
        rng.shuffle(shuffled_order)
        shuffled = make(
            [votes[i] for i in shuffled_order],
            m=m,
            mults=[mults[i] for i in shuffled_order],
        )
        split = make(
            [v for v, w in zip(votes, mults) for _ in range(w)],
            m=m,
        )
        assert winners(base, rule) == winners(shuffled, rule) == winners(split, rule)


def test_election_validation():
    with pytest.raises(DomainError):
        make([(0, 1, 1)])
    with pytest.raises(DomainError):
        Election(("a", "a"), (Vote((0, 1)),))
    with pytest.raises(DomainError):
        Election(("a", "b"), ())
    with pytest.raises(DomainError):
        Vote((0, 1), 0)
    with pytest.raises(DomainError):
        VotingRule.scoring((1, 2))  # increasing
    with pytest.raises(DomainError):
        VotingRule.k_approval(0)


@pytest.mark.parametrize(
    "ranking",
    [
        (0, "1"), ("a", "b"), (0, None), (0, 1.5), (0, 0), (0, 1.0), (3, 3), (-1,), (64,), (None,),
        (-3,), (-65,), (-128,),
    ],
)
def test_a_ranking_of_other_than_ids_raises_ranking_error(ranking):
    # A full ranking of two candidates, or a head of one, and a head of a
    # ranking of 64: an entry that is no int of the roster, or a repeat, is refused.
    # Negative ids down to -2m would index a mask of 2m bytes without an error.
    for m in (2, 64):
        names = tuple(f"c{i}" for i in range(m))
        with pytest.raises(RankingError) as info:
            Election(names, (Vote(tuple(range(m))), Vote(ranking)))
        assert info.value.vote == 1


def test_head_then_rest_appends_the_other_ids_in_order():
    ids = tuple(range(6))
    assert head_then_rest([4, 1], 6) == (4, 1, 0, 2, 3, 5)
    assert head_then_rest((), 6) == ids
    assert head_then_rest(ids[::-1], 6) == ids[::-1]


def _winners_one_by_one(rankings, m, rule):
    """The winners, each ranking tallied on its own in full."""
    full = [head_then_rest(r, m) for r in rankings]
    if rule.kind == BUCKLIN:
        for depth in range(1, m + 1):
            totals = [sum(c in r[:depth] for r in full) for c in range(m)]
            if max(totals) > len(full) // 2:
                break
    else:
        points = rule.vector if rule.kind == SCORING else (1,) * rule.k + (0,) * (m - rule.k)
        totals = [0] * m
        for r in full:
            for s, c in zip(points, r):
                totals[c] += s
    return frozenset(c for c in range(m) if totals[c] == max(totals))


def test_winners_of_rankings_tally_runs_as_their_rankings_one_by_one():
    # runs of equal rankings, each a head or in full, some held by distinct objects
    rng = random.Random(40)
    for trial in range(400):
        m = rng.randint(1, 6)
        pool = [tuple(rng.sample(range(m), m))[: rng.randint(0, m)] for _ in range(rng.randint(1, 3))]
        rankings = []
        for _ in range(rng.randint(1, 8)):
            ranking = rng.choice(pool)
            rankings += [rng.choice((ranking, tuple(list(ranking)))) for _ in range(rng.randint(1, 4))]
        rule = rng.choice((
            VotingRule.k_approval(rng.randint(1, m)),
            VotingRule.scoring(sorted((rng.randint(0, 3) for _ in range(m)), reverse=True)),
            VotingRule.bucklin(),
        ))
        want = _winners_one_by_one(rankings, m, rule)
        assert winners_of_rankings(rankings, m, rule) == want, (trial, rankings, rule)
