"""Timing race: spawn model, the one-clock race, and full run outcomes."""

import math
import random
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridjam import (
    AttackPlan,
    CandidateEval,
    Cell,
    NoPathError,
    ObstaclePlacement,
    Outcome,
    SimConfig,
    astar,
    brute_force_attack,
    distance_field,
    parse_map,
    planner,
    prefix_costs,
    simulate,
    spawn_time_model,
)
from conftest import BRANCH_TEXT, PROPERTY_SETTINGS, grid_problems, is_free, random_problem, seeded_problems, uniform
from oracles import dijkstra_oracle, obstruct


def footprint_cells(placement, grid):
    """The cells of the placement's square inside grid, as a set."""
    cols, rows = placement.extent(grid)
    return {Cell(col, row) for row in rows for col in cols}


def straight_path():
    grid = parse_map(".....")
    return astar(grid, Cell(0, 0), Cell(4, 0))


def _plan_with(outcomes):
    placement = ObstaclePlacement(Cell(1, 0), 1)
    ledger = tuple(
        CandidateEval(i, placement, outcome, 5.0 if outcome is Outcome.EVALUATED else None)
        for i, outcome in enumerate(outcomes)
    )
    baseline = straight_path()
    return AttackPlan(baseline, None, None, ledger, 0.0)


def _branch_plan(branch_map):
    return brute_force_attack(branch_map, Cell(1, 1), Cell(5, 1), 1)


def _simulate(grid, plan, cfg):
    """Race plan on grid with a distance field from the baseline's start."""
    return simulate(grid, plan, cfg, distance_field(grid, plan.baseline.cells[0]))


def test_spawn_time_counts_evaluated():
    plan = _plan_with([Outcome.EVALUATED] * 3)
    assert spawn_time_model(plan, SimConfig(speed=1.0, eval_time_per_candidate=0.1)) == pytest.approx(0.3)


def test_spawn_time_blocking_costs_infeasible_free():
    plan = _plan_with(
        [Outcome.EVALUATED, Outcome.EVALUATED, Outcome.BLOCKING, Outcome.INFEASIBLE, Outcome.INFEASIBLE]
    )
    assert spawn_time_model(plan, SimConfig(speed=1.0, eval_time_per_candidate=0.1)) == pytest.approx(0.3)


def test_spawn_time_instant_attack():
    plan = _plan_with([Outcome.EVALUATED] * 4)
    assert spawn_time_model(plan, SimConfig(speed=1.0, eval_time_per_candidate=0.0)) == 0.0


def test_spawn_time_start_delay():
    plan = _plan_with([Outcome.EVALUATED] * 2)
    cfg = SimConfig(speed=1.0, eval_time_per_candidate=0.1, attack_start_delay=1.5)
    assert spawn_time_model(plan, cfg) == pytest.approx(1.7)


def test_branch_instant_attack_succeeds(branch_map):
    cfg = SimConfig(speed=1.0, eval_time_per_candidate=0.0)
    result = _simulate(branch_map, _branch_plan(branch_map), cfg)
    assert result.benign_time == 4.0
    assert result.spawn_time == 0.0
    assert result.attack_success is True
    assert result.obstacle.center == Cell(2, 1)
    assert result.adversarial_time == 8.0
    assert result.delay_abs == 4.0
    assert result.delay_pct == 100.0


def test_branch_slow_attack_misses(branch_map):
    # three candidates at 0.5 s each -> spawn 1.5 s, after t_pass 1.0 s
    cfg = SimConfig(speed=1.0, eval_time_per_candidate=0.5)
    result = _simulate(branch_map, _branch_plan(branch_map), cfg)
    assert result.spawn_time == pytest.approx(1.5)
    assert result.attack_success is False
    assert result.adversarial_time == 4.0
    assert result.delay_abs == 0.0
    assert result.delay_pct == 0.0


def test_corridor_attack_finds_nothing(corridor_map):
    cfg = SimConfig(speed=1.0, eval_time_per_candidate=0.0)
    result = _simulate(corridor_map, brute_force_attack(corridor_map, Cell(1, 1), Cell(5, 1), 1), cfg)
    assert result.adversarial_time == result.benign_time
    assert result.attack_success is None
    assert result.spawn_time is None
    assert result.obstacle is None
    assert result.delay_abs == 0.0


def test_start_delay_can_save_the_robot(branch_map):
    # instant evaluation but a long head start for the robot
    cfg = SimConfig(speed=1.0, eval_time_per_candidate=0.0, attack_start_delay=3.5)
    result = _simulate(branch_map, _branch_plan(branch_map), cfg)
    assert result.spawn_time == 3.5
    assert result.attack_success is False


def test_field_for_another_grid_or_start_is_rejected(branch_map):
    plan = _branch_plan(branch_map)
    cfg = SimConfig(speed=1.0, eval_time_per_candidate=0.0)
    with pytest.raises(ValueError, match="another grid"):
        simulate(branch_map, plan, cfg, distance_field(parse_map(BRANCH_TEXT), Cell(1, 1)))
    with pytest.raises(ValueError, match="starts at"):
        simulate(branch_map, plan, cfg, distance_field(branch_map, Cell(1, 3)))


def test_failed_replan_raises(open9_map, monkeypatch):
    # the replan cannot fail; an explicit raise, which `python -O` keeps,
    # says so if it ever does
    plan = replace(brute_force_attack(open9_map, Cell(0, 4), Cell(8, 4), 1), best=ObstaclePlacement(Cell(5, 4), 1))
    cfg = SimConfig(speed=1.0, eval_time_per_candidate=0.0, attack_start_delay=1.0)
    monkeypatch.setattr("gridjam.sim._cost", lambda *args: None)
    with pytest.raises(RuntimeError, match="^the replan cannot fail"):
        _simulate(open9_map, plan, cfg)


def test_searches_leave_a_shared_field_as_built(maze_map, monkeypatch):
    # Every search copies the field's `blank` template for its own cost list
    # and never writes to the field. The maze's route to (9,1) passes the
    # goal-field gate, and both winners are searched: side 1's forward on
    # the goal field, side 3's backward on this one, with the pass outward
    # from the start. Each replan from (1,2), past the start, is priced on
    # this field too.
    start, goal = Cell(1, 1), Cell(9, 1)
    field = distance_field(maze_map, start)
    plans = [brute_force_attack(maze_map, start, goal, side, field) for side in (1, 3)]
    assert all(plan.attacked_path is not None for plan in plans)
    replans = []

    def counted(*args):
        replans.append(args[3])
        return planner._cost(*args)

    monkeypatch.setattr("gridjam.sim._cost", counted)
    cfg = SimConfig(speed=1.0, eval_time_per_candidate=0.0, attack_start_delay=1.0)
    assert all(simulate(maze_map, plan, cfg, field).attack_success for plan in plans)
    assert replans == [Cell(1, 2)] * 2
    assert field.blank == distance_field(maze_map, start).blank
    assert field.dist == distance_field(maze_map, start).dist


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(speed=0.0)
    with pytest.raises(ValueError):
        SimConfig(speed=1.0, eval_time_per_candidate=-0.1)
    with pytest.raises(ValueError):
        SimConfig(speed=1.0, attack_start_delay=-1.0)


def test_config_rejects_non_finite():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            SimConfig(speed=bad)
        with pytest.raises(ValueError):
            SimConfig(speed=1.0, eval_time_per_candidate=bad)
        with pytest.raises(ValueError):
            SimConfig(speed=1.0, attack_start_delay=bad)


def race_config(rng):
    """A SimConfig with speed in [0.2, 5], evaluation in [0, 0.1] s and start delay in [0, 1] s."""
    return SimConfig(
        speed=uniform(rng, 0.2, 5.0),
        eval_time_per_candidate=uniform(rng, 0.0, 0.1),
        attack_start_delay=uniform(rng, 0.0, 1.0),
    )


def _race(rng, unit_grid, start, goal):
    """(grid, plan, config, RunResult) of one generated problem's race, or None without a baseline.

    The side, the cell size in [0.1, 2] and the race are drawn from rng. The
    attack and the race share one distance field, as in run_suite.
    """
    side = rng.choice((1, 3))
    grid = unit_grid.with_cell_size(uniform(rng, 0.1, 2.0))
    cfg = race_config(rng)
    field = distance_field(grid, start)
    try:
        plan = brute_force_attack(grid, start, goal, side, field)
    except NoPathError:
        return None
    return grid, plan, cfg, simulate(grid, plan, cfg, field)


@seeded_problems(7)
def test_replanning_never_fails_property(rng, grid, start, goal):
    # the replan's assertion, or any other exception, fails the test; the
    # race's outcome and spawn are rebuilt from the ledger and the arrival
    # table
    raced = _race(rng, grid, start, goal)
    if raced is None:
        return
    grid, plan, cfg, result = raced
    assert result.benign_time >= result.euclidean / cfg.speed - 1e-9
    if plan.best is None:
        assert result.attack_success is None
        return
    spawn = spawn_time_model(plan, cfg)
    footprint = footprint_cells(plan.best, grid)
    arrival = [c * grid.cell_size / cfg.speed for c in prefix_costs(plan.baseline)]
    t_pass = next(arrival[i] for i, c in enumerate(plan.baseline.cells) if c in footprint)
    assert result.attack_success == (spawn < t_pass)
    assert result.spawn_time == spawn


@seeded_problems(8)
def test_landed_attack_never_shortens_the_trip_property(rng, grid, start, goal):
    raced = _race(rng, grid, start, goal)
    if raced is None:
        return
    result = raced[-1]
    assert result.adversarial_time >= result.benign_time
    if result.attack_success is False:
        assert result.delay_abs == 0.0
    if result.attack_success:
        assert result.delay_abs > 0 or result.delay_pct == 0.0


@seeded_problems(9)
def test_slower_attack_never_turns_a_miss_into_a_landing_property(rng, grid, start, goal):
    side = rng.choice((1, 3))
    cfg = race_config(rng)
    more_eval, more_delay = uniform(rng, 0.0, 0.1), uniform(rng, 0.0, 1.0)
    field = distance_field(grid, start)
    try:
        plan = brute_force_attack(grid, start, goal, side, field)
    except NoPathError:
        return
    base = simulate(grid, plan, cfg, field).attack_success
    for slower in (
        replace(cfg, eval_time_per_candidate=cfg.eval_time_per_candidate + more_eval),
        replace(cfg, attack_start_delay=cfg.attack_start_delay + more_delay),
        replace(
            cfg,
            eval_time_per_candidate=cfg.eval_time_per_candidate + more_eval,
            attack_start_delay=cfg.attack_start_delay + more_delay,
        ),
    ):
        outcome = simulate(grid, plan, slower, field).attack_success
        assert (outcome is None) == (base is None)
        assert not (base is False and outcome is True)


def _halt(grid, plan, cfg):
    """(passed, snap, t_snap) of a landed race, by the documented halt rule.

    `passed` is the last centre reached by the spawn. The robot stops at the
    next centre, backing off to `passed` when the next centre is inside the
    footprint, and `t_snap` is when it stands still there.
    """
    spawn = spawn_time_model(plan, cfg)
    footprint = footprint_cells(plan.best, grid)
    arrival = [c * grid.cell_size / cfg.speed for c in prefix_costs(plan.baseline)]
    passed = max(i for i, mark in enumerate(arrival) if mark <= spawn)
    if spawn == arrival[passed]:
        return passed, passed, arrival[passed]
    if plan.baseline.cells[passed + 1] in footprint:
        return passed, passed, 2.0 * spawn - arrival[passed]
    return passed, passed + 1, arrival[passed + 1]


def _expected_detour(grid, plan, cfg):
    # the halt rule, then the oracle's route around the obstacle
    _, snap, t_snap = _halt(grid, plan, cfg)
    obstructed = obstruct(grid, plan.best)
    tail = dijkstra_oracle(obstructed, plan.baseline.cells[snap], plan.baseline.cells[-1])
    route = plan.baseline.cells[: snap + 1] + tail.cells[1:]
    for cell in route:
        assert is_free(obstructed, cell)
    for a, b in zip(route, route[1:]):
        assert max(abs(a.col - b.col), abs(a.row - b.row)) == 1
    return t_snap + tail.cost * grid.cell_size / cfg.speed


def _flanks(a, b):
    """The orthogonal neighbours a diagonal step from a to b passes between; none for an orthogonal step."""
    return {Cell(b.col, a.row), Cell(a.col, b.row)} if a.col != b.col and a.row != b.row else set()


@PROPERTY_SETTINGS
@given(
    grid_problems(),
    st.sampled_from((1, 3)),
    st.floats(0.1, 2.0),
    st.floats(0.2, 5.0),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)
def test_robot_keeps_clear_of_the_obstacle_after_the_spawn_property(problem, side, cell_size, speed, when):
    # the obstacle spawns on every centre before the footprint, at the
    # fraction `when` of every segment up to it, and one ulp before the
    # robot would reach it: every such spawn lands
    unit_grid, start, goal = problem
    grid = unit_grid.with_cell_size(cell_size)
    field = distance_field(grid, start)
    try:
        plan = brute_force_attack(grid, start, goal, side, field)
    except NoPathError:
        return
    if plan.best is None:
        return
    cells = plan.baseline.cells
    footprint = footprint_cells(plan.best, grid)
    enter = next(i for i, c in enumerate(cells) if c in footprint)
    arrival = [c * cell_size / speed for c in prefix_costs(plan.baseline)]
    spawns = {math.nextafter(arrival[enter], 0.0)}
    for i in range(enter):
        spawns.update((arrival[i], arrival[i] + when * (arrival[i + 1] - arrival[i])))
    obstructed = obstruct(grid, plan.best)
    for spawn in sorted(t for t in spawns if t < arrival[enter]):
        cfg = SimConfig(speed=speed, eval_time_per_candidate=0.0, attack_start_delay=spawn)
        result = simulate(grid, plan, cfg, field)
        assert result.attack_success
        passed, snap, t_snap = _halt(grid, plan, cfg)
        tail = dijkstra_oracle(obstructed, cells[snap], goal)
        assert result.adversarial_time == t_snap + tail.cost * cell_size / speed
        # every step the robot takes after the spawn: the rest of the segment
        # it is on (forward, or back when backing off), then the replan
        steps = list(zip(tail.cells, tail.cells[1:]))
        if spawn != arrival[passed]:
            steps.append((cells[passed], cells[passed + 1]) if snap > passed else (cells[passed + 1], cells[passed]))
        for a, b in steps:
            assert b not in footprint
            assert not _flanks(a, b) & footprint


def test_successful_detour_is_walkable(branch_map):
    # spawn at 0.6 s lands mid-segment with the obstacle dead ahead
    cfg = SimConfig(speed=1.0, eval_time_per_candidate=0.2)
    result = _simulate(branch_map, _branch_plan(branch_map), cfg)
    assert result.attack_success is True
    expected = _expected_detour(branch_map, _branch_plan(branch_map), cfg)
    assert result.adversarial_time == pytest.approx(expected)
    assert result.adversarial_time == pytest.approx(1.2 + 8.0)


def test_successful_detour_snap_at_centre(branch_map):
    cfg = SimConfig(speed=1.0, eval_time_per_candidate=0.0)
    result = _simulate(branch_map, _branch_plan(branch_map), cfg)
    assert result.attack_success is True
    expected = _expected_detour(branch_map, _branch_plan(branch_map), cfg)
    assert result.adversarial_time == pytest.approx(expected)


def test_simulate_deterministic(branch_map):
    cfg = SimConfig(speed=1.0, eval_time_per_candidate=0.05)
    first = _simulate(branch_map, _branch_plan(branch_map), cfg)
    second = _simulate(branch_map, _branch_plan(branch_map), cfg)
    assert first == second


def test_spawn_one_ulp_before_the_footprint_lands(branch_map):
    # the obstacle lands one ulp before the robot reaches its cell: the robot
    # must back off and detour, not walk through it
    grid = branch_map.with_cell_size(0.541)
    cfg = SimConfig(
        speed=4.608,
        eval_time_per_candidate=0.0,
        attack_start_delay=math.nextafter(0.541 / 4.608, 0.0),
    )
    plan = _branch_plan(grid)
    result = _simulate(grid, plan, cfg)
    assert result.attack_success is True
    assert result.delay_pct == pytest.approx(150.0)
    assert result.adversarial_time == pytest.approx(_expected_detour(grid, plan, cfg))


def test_spawns_at_arrival_marks():
    # spawn at every arrival second up to the footprint and one ulp either
    # side, where two clocks of the same race could disagree
    rng = random.Random(4608)
    done = 0
    while done < 12:
        unit_grid, start, goal = random_problem(rng, 12, 12)
        side = rng.choice((1, 3))
        try:
            if brute_force_attack(unit_grid, start, goal, side).best is None:
                continue
        except NoPathError:
            continue
        for cell_size in (0.3, 0.541, 0.7, 1.1):
            grid = unit_grid.with_cell_size(cell_size)
            field = distance_field(grid, start)
            plan = brute_force_attack(grid, start, goal, side, field)
            footprint = footprint_cells(plan.best, grid)
            enter = next(i for i, c in enumerate(plan.baseline.cells) if c in footprint)
            for speed in (0.4, 0.9, 1.3, 4.608):
                arrival = [c * cell_size / speed for c in prefix_costs(plan.baseline)]
                spawns = {
                    t
                    for mark in arrival[: enter + 1]
                    for t in (math.nextafter(mark, -math.inf), mark, math.nextafter(mark, math.inf))
                    if t >= 0.0
                }
                for spawn in sorted(spawns):
                    cfg = SimConfig(speed=speed, eval_time_per_candidate=0.0, attack_start_delay=spawn)
                    result = simulate(grid, plan, cfg, field)
                    assert result.adversarial_time >= result.benign_time - 1e-9
                    assert result.attack_success == (spawn < arrival[enter])
                    if result.attack_success:
                        assert result.adversarial_time == pytest.approx(_expected_detour(grid, plan, cfg))
        done += 1
