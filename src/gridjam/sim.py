"""Kinematic navigation runs racing a concurrently computed attack.

The timeline is deterministic. At t=0 the baseline plan is done and the
robot starts moving along it at constant speed; in parallel the attacker
scores one candidate placement per fixed time slice and drops the winning
obstacle once the last candidate has been scored. The attack lands only if
the obstacle appears before the robot reaches its footprint; the robot then
stops at the nearest upcoming cell centre, replans around the obstacle, and
arrives late by exactly the detour length.

The replan cannot fail. The cells from the start to the halt cell all lie
before the footprint on the baseline, and the footprint is an axis-aligned
rectangle (a square clipped at the border). A legal diagonal step between
two cells outside it has at most one flank inside: if both flanks were
inside, so would be both ends. Its other flank was free before the spawn
and still is, so the step can be replaced by two orthogonal ones, and the
halt cell stays connected to the start. The chosen placement was
evaluated, not blocking, so the start stays connected to the goal.

The race has one clock. Paths are planned in cell steps; this module alone
turns a step cost into seconds (``cost * cell_size / speed``, with the race
grid's cell size), and every time of a run, from the benign trip to the
cell the robot has passed when the obstacle lands, is read from one table
of arrival seconds along the baseline.
"""

import bisect
from dataclasses import dataclass

from .attack import AttackPlan
from .gridmap import Cell, GridMap, ObstaclePlacement, check_nonnegative, check_positive
from .planner import DistanceField, _check_field, _cost, _covered, euclidean_distance, prefix_costs


@dataclass(frozen=True)
class SimConfig:
    """The race's timing: the robot's speed and the attacker's clock."""

    speed: float  # metres per second, constant along the route
    eval_time_per_candidate: float = 0.05  # seconds of attacker compute per candidate
    attack_start_delay: float = 0.0  # seconds before the attacker starts scoring

    def __post_init__(self):
        check_positive(self.speed, "speed", ValueError)
        check_nonnegative(self.eval_time_per_candidate, "eval_time_per_candidate", ValueError)
        check_nonnegative(self.attack_start_delay, "attack_start_delay", ValueError)


@dataclass(frozen=True)
class RunResult:
    """One goal's undisturbed trip time plus the outcome of the attacked one.

    `spawn_time`, `obstacle` and `attack_success` are None when the attack
    found no placement, and `delay_pct` when the benign trip takes no time.
    """

    goal: Cell
    euclidean: float
    benign_time: float
    adversarial_time: float
    spawn_time: float
    obstacle: ObstaclePlacement
    attack_success: bool
    delay_abs: float
    delay_pct: float


def spawn_time_model(plan: AttackPlan, config: SimConfig) -> float:
    """Time at which the obstacle lands, measured from motion start.

    The attacker pays one evaluation slice per candidate it actually
    planned for (blocking candidates still cost a planning round) and
    deploys immediately after the last one.
    """
    return config.attack_start_delay + config.eval_time_per_candidate * plan.planning_rounds


def simulate(grid: GridMap, plan: AttackPlan, config: SimConfig, field: DistanceField) -> RunResult:
    """Drive plan.baseline on grid and race it against the attack behind plan.

    The result carries both outcomes: benign_time is the undisturbed trip,
    the remaining fields describe the attacked one. `field` is
    `distance_field(grid, start)` for the baseline's start; one made for
    another grid object or another start raises ValueError. A replan is
    priced by its cost alone around the obstacle, with the field as the
    heuristic.
    """
    baseline = plan.baseline
    start, goal = baseline.cells[0], baseline.cells[-1]
    _check_field(field, grid, start)
    # the race's one clock: the second at which the robot reaches each cell
    arrival = [c * grid.cell_size / config.speed for c in prefix_costs(baseline)]
    benign_time = arrival[-1]
    euclid = euclidean_distance(start, goal, grid.cell_size)
    # with nothing dropped, or dropped too late, the attacked run is benign
    adversarial_time = benign_time
    spawn = landed = None
    if plan.best is not None:
        spawn = spawn_time_model(plan, config)
        # baseline cells lie inside the grid, where clipping changes nothing
        enter_index = next(i for i, c in enumerate(baseline.cells) if plan.best.covers(c))
        # it lands unless the robot is already inside (or past) the footprint
        landed = spawn < arrival[enter_index]
    if landed:
        # the last centre reached by the spawn; it lies before the footprint
        passed = bisect.bisect_right(arrival, spawn) - 1
        if spawn == arrival[passed]:
            snap = passed
            t_snap = arrival[snap]
        else:
            snap = passed + 1
            if plan.best.covers(baseline.cells[snap]):
                # mid-segment heading straight into the spawn: back off to the
                # last centre instead of stopping inside the obstacle
                snap = passed
                t_snap = 2.0 * spawn - arrival[passed]
            else:
                t_snap = arrival[snap]

        if snap == 0:
            # halted at the start: the attack already planned this exact route
            replanned_cost = plan.attacked_path.cost
        else:
            replanned_cost = _cost(field, _covered(plan.best, grid, field.stride), goal, baseline.cells[snap])
            if replanned_cost is None:
                raise RuntimeError("the replan cannot fail (see the module docstring)")
        adversarial_time = t_snap + replanned_cost * grid.cell_size / config.speed
    delay = adversarial_time - benign_time
    return RunResult(
        goal, euclid, benign_time,
        adversarial_time=adversarial_time,
        spawn_time=spawn,
        obstacle=plan.best,
        attack_success=landed,
        delay_abs=delay,
        delay_pct=100.0 * delay / benign_time if benign_time > 0 else None,
    )
