"""Brute-force obstacle placement against a planned route.

The attack walks the baseline path, pretends to drop a square obstacle on
every step, replans, and keeps the placement that lengthens the replanned
route the most. Placements that would seal the map entirely are rejected:
the goal must stay reachable, only more expensive.
"""

import enum
from dataclasses import dataclass

from .errors import BadEndpointError, NoBaselineError, NoPathError
from .gridmap import Cell, GridMap, ObstaclePlacement, apply_obstacle
from .planner import Path, astar

# Replanned costs are exact k + m*sqrt(2) sums; the tolerance only absorbs
# representation noise, not real ties.
COST_TOL = 1e-9


class Outcome(enum.Enum):
    EVALUATED = "evaluated"
    BLOCKING = "blocking"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class CandidateEval:
    """Ledger entry for one candidate placement along the baseline."""

    index: int
    placement: ObstaclePlacement
    outcome: Outcome
    cost: float = None  # replanned cost, set only when outcome is EVALUATED


@dataclass(frozen=True)
class AttackPlan:
    baseline: Path
    best: ObstaclePlacement
    attacked_path: Path
    ledger: tuple
    gain: float

    @property
    def planning_rounds(self) -> int:
        """Planner invocations the attacker paid for (evaluated + blocking)."""
        return sum(1 for entry in self.ledger if entry.outcome is not Outcome.INFEASIBLE)


def brute_force_attack(grid: GridMap, start: Cell, goal: Cell, side: int = 3) -> AttackPlan:
    """Find the baseline-cell placement that maximises the replanned cost.

    Every baseline cell gets a ledger entry: INFEASIBLE placements cover an
    endpoint, BLOCKING ones leave no route at all, and EVALUATED ones carry
    the replanned cost. `best` is the earliest candidate whose cost beats
    everything before it by more than COST_TOL; when no candidate gains,
    `best` and `attacked_path` are None and `gain` is 0.
    """
    try:
        baseline = astar(grid, start, goal)
    except (NoPathError, BadEndpointError) as exc:
        raise NoBaselineError(str(exc)) from exc

    ledger = []
    best = None
    best_path = None
    best_cost = baseline.cost
    for index, step in enumerate(baseline.cells):
        placement = ObstaclePlacement(step, side)
        if placement.covers(start) or placement.covers(goal):
            ledger.append(CandidateEval(index, placement, Outcome.INFEASIBLE))
            continue
        try:
            replanned = astar(apply_obstacle(grid, placement), start, goal)
        except NoPathError:
            ledger.append(CandidateEval(index, placement, Outcome.BLOCKING))
            continue
        ledger.append(CandidateEval(index, placement, Outcome.EVALUATED, replanned.cost))
        if replanned.cost > best_cost + COST_TOL:
            best = placement
            best_path = replanned
            best_cost = replanned.cost
    gain = best_cost - baseline.cost if best is not None else 0.0
    return AttackPlan(baseline, best, best_path, tuple(ledger), gain)
