"""Solver workbench for the Swap Bribery problem.

Given an election of ranked votes, per-vote prices for swapping adjacent
candidates, a preferred candidate and a budget, decide whether the
preferred candidate can be made a winner within budget, and produce the
bribery that does it. Solvers: exhaustive oracles, a min-cost-flow method
for unit costs under k-approval, an ILP over vote-transformation counts
(k-approval and Bucklin), a color-coding search, and two kernelization
preprocessors; plus generators for clique-based hard instances and
translations to and from the Possible Winner problem.
"""

from .core import (
    BUCKLIN,
    CO_WINNER,
    K_APPROVAL,
    SCORING,
    UNIQUE_WINNER,
    Election,
    Ranking,
    Vote,
    VotingRule,
    scores,
    winners,
)
from .errors import (
    DomainError,
    ParseError,
    PreconditionError,
    RankingError,
    ResourceCapError,
    SwapBriberyError,
    UnsupportedRuleError,
)
from .swaps import (
    Bribery,
    BriberyInstance,
    SolveResult,
    SwapCostFunction,
    move_to_top_cost,
    move_to_top_target,
    transform_cost,
    verify_bribery,
)

__version__ = "0.1.0"

__all__ = [
    "Bribery",
    "BriberyInstance",
    "BUCKLIN",
    "CO_WINNER",
    "DomainError",
    "Election",
    "K_APPROVAL",
    "ParseError",
    "PreconditionError",
    "Ranking",
    "RankingError",
    "ResourceCapError",
    "SCORING",
    "SolveResult",
    "SwapBriberyError",
    "SwapCostFunction",
    "UNIQUE_WINNER",
    "UnsupportedRuleError",
    "Vote",
    "VotingRule",
    "move_to_top_cost",
    "move_to_top_target",
    "scores",
    "transform_cost",
    "verify_bribery",
    "winners",
]
