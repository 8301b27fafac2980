"""Brute-force obstacle placement against a planned route.

The attack walks the baseline path, pretends to drop a square obstacle on
every step, replans, and keeps the placement that lengthens the replanned
route the most. Placements that would seal the map entirely are rejected:
the goal must stay reachable, only more expensive.
"""

import enum
from dataclasses import dataclass

from .errors import BadEndpointError, NoBaselineError
from .gridmap import Cell, GridMap, ObstaclePlacement, footprint_cells
from .planner import (
    SQRT2, DistanceField, Path, _backtrack, _blocked, _check_endpoints, _check_field, _cost, _index, _lowpoint_dfs,
    _search, _separators, distance_field,
)

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


def brute_force_attack(
    grid: GridMap, start: Cell, goal: Cell, side: int = 3, field: DistanceField = None
) -> AttackPlan:
    """Find the baseline-cell placement that maximises the replanned cost.

    Every baseline cell gets a ledger entry: INFEASIBLE placements cover an
    endpoint, BLOCKING ones leave no route at all, and EVALUATED ones carry
    the replanned cost. `best` is the earliest candidate whose cost beats
    everything before it by more than COST_TOL; when no candidate gains,
    `best` and `attacked_path` are None and `gain` is 0.

    `field` is the `distance_field(grid, start)` to share between goals
    planned from one start; without it the attack builds its own, and one
    made for another grid object or another start raises ValueError. The
    baseline is backtracked from the field, a candidate is scored by its
    cost alone from the goal back to the start with the field as the
    heuristic, and only the winner is planned as a canonical path. A side-1
    candidate that blocks is known from one lowpoint DFS from the start
    without a search (see `planner._separators`); it still costs a planning
    round.
    """
    if field is not None:
        _check_field(field, grid, start)
    try:
        _check_endpoints(grid, start, goal)
    except BadEndpointError as exc:
        raise NoBaselineError(str(exc)) from exc
    if field is None:
        field = distance_field(grid, start)
    cells, stride = field.cells, field.stride
    source, target = _index(start, stride), _index(goal, stride)
    if field.cost[target] is None:
        raise NoBaselineError(f"no path from {start} to {goal}")
    baseline = _backtrack(cells, stride, field.orth, field.diag, field.cost, source, target)

    cuts = _separators(_lowpoint_dfs(cells, stride, source), target) if side == 1 else ()
    ledger = []
    best = None
    best_cost = baseline.cost
    for index, step in enumerate(baseline.cells):
        placement = ObstaclePlacement(step, side)
        if placement.covers(start) or placement.covers(goal):
            ledger.append(CandidateEval(index, placement, Outcome.INFEASIBLE))
            continue
        if _index(step, stride) in cuts:
            pair = None
        else:
            pair = _cost(_blocked(cells, stride, footprint_cells(placement, grid)), field, target, source)
        if pair is None:
            ledger.append(CandidateEval(index, placement, Outcome.BLOCKING))
            continue
        cost = pair[0] + pair[1] * SQRT2
        ledger.append(CandidateEval(index, placement, Outcome.EVALUATED, cost))
        if cost > best_cost + COST_TOL:
            best = placement
            best_cost = cost
    if best is None:
        return AttackPlan(baseline, None, None, tuple(ledger), 0.0)
    attacked = _search(_blocked(cells, stride, footprint_cells(best, grid)), stride, source, target)
    return AttackPlan(baseline, best, attacked, tuple(ledger), best_cost - baseline.cost)
