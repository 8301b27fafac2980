"""Brute-force obstacle placement against a planned route.

The attack walks the baseline path, pretends to drop a square obstacle on
every step, replans, and keeps the placement that lengthens the replanned
route the most. Placements that would seal the map entirely are rejected:
the goal must stay reachable, only more expensive.
"""

import bisect
import enum
from dataclasses import dataclass

from .gridmap import Cell, GridMap, ObstaclePlacement
from .planner import (
    DistanceField, Path, _check_field, _cost, _covered, _route, _search, _side1, _spare, distance_field, prefix_costs,
)

# An attack builds a second field, from the goal, when the baseline holds
# more than this share of the cells the start reaches, whether or not the
# caller shares the start's field. A field costs one Dijkstra over the
# component, and the searches it shortens save more than that only on long,
# thin routes. Over 352 problems per benchmark workload (16 each on seeds 0,
# 7 and 131-150) the share was at most 0.045 on rooms, where a second field
# cost more than it saved, and at least 0.063 on mazes; over 320 more (seeds
# 151-170) at most 0.049 and at least 0.063. On the bundled scenarios it runs
# from 0.006 (warehouse) to 1.0 (corridor). In `run_suite`'s traffic, `turn`
# (0.098) and `branch` (0.42) pass the gate, and so does the corridor, whose
# candidates all block or cover an endpoint, so it builds no goal field;
# `tunnel` (0.016), `twall` (0.048) and every warehouse goal (at most 0.031)
# do not. Measured with perfbench (`run.py --seed 0 --seconds 10`, Python
# 3.11.7, 2 shared cores) over 8 rounds of three runs in rotating order:
# this gate, never (a share of inf) and the winner's `_search` always run
# backward, each tree compiled with `python -m compileall` first. Against
# the gate, never cost `attack-mazes` 9.1% of candidates/s (lower in 8 of
# 8 rounds), 20% of p90 and 8% of p50 (higher in 8 of 8), and the backward
# winner search cost it 4.6% of candidates/s (lower in 7 of 8), so both
# the goal field and the forward `_search` on it pay. On `suite`, whose
# candidates/s spread by 9% between the gate's own runs, never read -2.8%
# and backward -3.2%. Earlier in-process runs, setting this share to -1
# (always), made `attack-rooms` p50 3-4% slower and a `run_suite` pass
# through perfbench's seven `suite` scenarios 66-67% slower, though rooms
# candidates/s rose 5-6% and p90 fell 21-27%: the longest rooms routes
# gain too.
_GOAL_FIELD_SHARE = 0.06


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
    everything before it; when no candidate gains, `best` and
    `attacked_path` are None and `gain` is 0. Equal exact costs decode to
    bitwise-equal floats (see `planner`), so no tolerance is needed.

    `field` is the `distance_field(grid, start)` to share between goals
    planned from one start; without it the attack builds its own, and one
    made for another grid object or another start raises ValueError. The
    baseline is backtracked from the field, a candidate is scored by its
    cost alone from the goal back to the start with the field as the
    heuristic, and only the winner is planned as a canonical path. A side-1
    attack walks its baseline once (`planner._side1`) for two flags per
    cell. A cut cell's candidate blocks, known without a search; it still
    costs a planning round. So does a candidate in a one-cell corridor:
    when it and the cell before it both have exactly two legal moves, and
    that cell was evaluated, it takes that cell's cost without a search,
    since both force the same detour. Any other candidate whose square
    misses the spare route, the highest-index optimal route to the goal,
    with both flanks of its diagonals (`planner._spare`), gains nothing: it
    takes the baseline's cost without a search, and still costs a planning
    round. The spare route is walked once per attack, for the first
    candidate that would otherwise be searched.

    An attack whose baseline is long against the start's component
    (`_GOAL_FIELD_SHARE`) also builds a field from the goal, when the first
    candidate is scored on it. A candidate in the first half of the
    baseline's cost is scored from the start toward the goal on that field:
    a search pops the band between its origin and the obstacle, so it runs
    from the nearer end. The winner's canonical path follows the same rule,
    guided by the goal field when the winner lies in that first half. Both
    fields give every answer bitwise the same, and a passed `field` changes
    only who builds the start's.

    With no baseline there is nothing to attack: an occupied or off-map
    start or goal raises BadEndpointError, the start's first, and a goal out
    of the start's reach raises NoPathError, each with `astar`'s message.
    """
    if field is None:
        field = distance_field(grid, start)
    else:
        _check_field(field, grid, start)
    baseline = _route(field, goal)

    goal_field = None  # built for the first candidate scored on it
    split = 0  # candidates before this baseline index are scored on the goal field
    if len(baseline.cells) / field.reached > _GOAL_FIELD_SHARE:
        split = bisect.bisect_left(prefix_costs(baseline), baseline.cost / 2)
    cuts, corridor = _side1(field, baseline.cells) if side == 1 else (None, None)
    spare = None  # built for the first candidate that would be searched
    ledger = []
    best = None  # the ledger entry of the winner so far
    for index, step in enumerate(baseline.cells):
        placement = ObstaclePlacement(step, side)
        if placement.covers(start) or placement.covers(goal):
            ledger.append(CandidateEval(index, placement, Outcome.INFEASIBLE))
            continue
        if side == 1 and cuts[index]:
            cost = None
        elif side == 1 and corridor[index] and ledger[-1].outcome is Outcome.EVALUATED:
            cost = ledger[-1].cost
        else:
            covered = _covered(placement, grid, field.stride)
            if spare is None:
                spare = _spare(field, goal)
            if not any(map(spare.__getitem__, covered)):
                cost = baseline.cost
            elif index < split:
                if goal_field is None:
                    goal_field = distance_field(grid, goal)
                cost = _cost(goal_field, covered, start, goal)
            else:
                cost = _cost(field, covered, goal, start)
        if cost is None:
            ledger.append(CandidateEval(index, placement, Outcome.BLOCKING))
            continue
        ledger.append(CandidateEval(index, placement, Outcome.EVALUATED, cost))
        if cost > (baseline.cost if best is None else best.cost):
            best = ledger[-1]
    if best is None:
        return AttackPlan(baseline, None, None, tuple(ledger), 0.0)
    attacked = _search(field, best.placement, goal, goal_field if best.index < split else None)
    return AttackPlan(baseline, best.placement, attacked, tuple(ledger), best.cost - baseline.cost)
