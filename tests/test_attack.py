"""Attack search: candidate enumeration, ledger bookkeeping, oracle parity."""

import math

import pytest

from gridjam import (
    Cell,
    GridMap,
    NoPathError,
    Outcome,
    brute_force_attack,
    distance_field,
    parse_map,
    planner,
)
from gridjam import attack as attack_module
from gridjam.planner import _FLOAT_CELLS, _FLOAT_COSTS, _INT_COSTS
from conftest import BRANCH_TEXT, MAZE_TEXT, free_cells, seeded_problems
from oracles import attack_oracle
from sweep import attack_sweep, in_int_tier

SQRT2 = math.sqrt(2.0)


@pytest.mark.parametrize(
    "text, start, goal, side, feasible",
    [
        (".....", Cell(0, 0), Cell(4, 0), 1, [Cell(1, 0), Cell(2, 0), Cell(3, 0)]),
        # only the middle footprint misses both endpoints
        ("\n".join(["....."] * 3), Cell(0, 1), Cell(4, 1), 3, [Cell(2, 1)]),
        ("..\n..", Cell(0, 0), Cell(0, 0), 1, []),
    ],
    ids=["straight_baseline_side1", "straight_baseline_side3", "degenerate_baseline"],
)
def test_feasible_candidates(text, start, goal, side, feasible):
    # a footprint that covers the start or the goal would bury the robot or
    # its target: the ledger marks it infeasible and evaluates the rest
    plan = brute_force_attack(parse_map(text), start, goal, side)
    assert [e.placement.center for e in plan.ledger if e.outcome is not Outcome.INFEASIBLE] == feasible


def test_branch_attack_golden(branch_map):
    plan = brute_force_attack(branch_map, Cell(1, 1), Cell(5, 1), 1)
    assert plan.baseline.cost == 4.0
    assert len(plan.ledger) == len(plan.baseline.cells)
    outcomes = [e.outcome for e in plan.ledger]
    assert outcomes == [
        Outcome.INFEASIBLE,
        Outcome.EVALUATED,
        Outcome.EVALUATED,
        Outcome.EVALUATED,
        Outcome.INFEASIBLE,
    ]
    for entry in plan.ledger:
        if entry.outcome is Outcome.EVALUATED:
            assert entry.cost == 8.0
    # earliest index wins the tie between the three equal detours
    assert plan.best.center == Cell(2, 1)
    assert plan.gain == 4.0
    assert plan.attacked_path.cost == 8.0
    assert plan.planning_rounds == 3


# One-cell corridors from 1,1 to 9,5, through an open 2x2 block, with one
# detour round the bottom. 4,1 and 5,5 are L-bends with two moves each;
# 4,3 and 5,4, beside the block, have four.
WINDING_TEXT = (
    "###########\n"
    "#....######\n"
    "#.##.######\n"
    "#.##..#####\n"
    "#.##..#####\n"
    "#.###.....#\n"
    "#.#######.#\n"
    "#.........#\n"
    "###########\n"
)


def test_side1_corridor_is_searched_once(monkeypatch):
    grid = parse_map(WINDING_TEXT)
    start, goal = Cell(1, 1), Cell(9, 5)
    searched = []

    def counted(field, covered, origin, target):
        # every candidate has side 1: its one covered index is its centre
        searched.append(planner._cell(covered[0], field.stride))
        return planner._cost(field, covered, origin, target)

    monkeypatch.setattr(attack_module, "_cost", counted)
    plan = brute_force_attack(grid, start, goal, 1)
    cells = plan.baseline.cells
    assert cells == tuple(Cell(*c) for c in (
        (1, 1), (2, 1), (3, 1), (4, 1), (4, 2), (4, 3), (5, 4), (5, 5), (6, 5), (7, 5), (8, 5), (9, 5),
    ))
    _, flags = planner._side1(distance_field(grid, start), cells)
    assert [cell for cell, flag in zip(cells, flags) if flag] == [
        Cell(2, 1), Cell(3, 1), Cell(4, 1), Cell(4, 2), Cell(6, 5), Cell(7, 5), Cell(8, 5), Cell(9, 5),
    ]
    # every candidate forces the one detour, 16 steps round the bottom
    assert [(entry.outcome, entry.cost) for entry in plan.ledger[1:-1]] == [(Outcome.EVALUATED, 16.0)] * 10
    # one search per corridor, whose first cell follows the start or a cell
    # beside the block, and one per cell beside the block
    assert searched == [Cell(2, 1), Cell(4, 3), Cell(5, 4), Cell(5, 5)]
    assert plan == attack_oracle(grid, start, goal, 1)


def test_corridor_attack_blocked_everywhere(corridor_map):
    plan = brute_force_attack(corridor_map, Cell(1, 1), Cell(5, 1), 1)
    assert plan.best is None
    assert plan.attacked_path is None
    assert plan.gain == 0.0
    blocking = [e for e in plan.ledger if e.outcome is Outcome.BLOCKING]
    assert len(blocking) == 3  # every interior cell seals the corridor


def test_open9_attack_golden(open9_map):
    # golden values derived with the dijkstra-based oracle enumeration
    plan = brute_force_attack(open9_map, Cell(1, 1), Cell(7, 7), 1)
    assert plan.baseline.cost == pytest.approx(6 * SQRT2, abs=1e-12)
    assert plan.best.center == Cell(2, 2)
    assert plan.gain == pytest.approx(4 - 2 * SQRT2, abs=1e-12)
    evaluated = [e for e in plan.ledger if e.outcome is Outcome.EVALUATED]
    assert [e.placement.center for e in evaluated] == [
        Cell(2, 2), Cell(3, 3), Cell(4, 4), Cell(5, 5), Cell(6, 6),
    ]
    for entry in evaluated:
        assert entry.cost == pytest.approx(4 + 4 * SQRT2, abs=1e-12)


def test_oracle_agrees_on_fixtures(branch_map, corridor_map, open9_map):
    for grid, start, goal, side in (
        (branch_map, Cell(1, 1), Cell(5, 1), 1),
        (corridor_map, Cell(1, 1), Cell(5, 1), 1),
        (open9_map, Cell(1, 1), Cell(7, 7), 1),
        (open9_map, Cell(1, 1), Cell(7, 7), 3),
        # the winner's route must be backtracked on the obstructed map: on
        # the open one it cuts the obstacle's corner at (1,1)
        (parse_map("..#.\n....\n....\n"), Cell(3, 1), Cell(1, 0), 1),
    ):
        mine = brute_force_attack(grid, start, goal, side)
        ref = attack_oracle(grid, start, goal, side)
        # the whole plan: baseline, every ledger entry and its cost, attacked path
        assert mine == ref


def test_attacks_on_either_side_of_the_float_bound_match_the_oracle():
    # A flat core of `_FLOAT_CELLS` cells or more keeps its exact costs in
    # Python ints, a smaller one in doubles. The two maps below straddle
    # that bound by one row: the test maze in the top-left corner, walls
    # everywhere else, so that every search stays small. Both tiers give the
    # oracle's plan, side 1 and side 3 alike.
    corner = [[ch == "#" for ch in line] for line in MAZE_TEXT.split()]
    width = 234
    height = -(-_FLOAT_CELLS // (width + 2)) - 2  # the fewest rows that reach the bound
    for rows, tier in ((height, _INT_COSTS), (height - 1, _FLOAT_COSTS)):
        grid = GridMap(width, rows, 1.0, tuple(
            tuple(corner[row] + [True] * (width - len(corner[row]))) if row < len(corner) else (True,) * width
            for row in range(rows)
        ))
        field = distance_field(grid, Cell(1, 1))
        assert field.costs is tier
        if tier is _INT_COSTS:
            assert (width + 2) * (rows + 2) >= _FLOAT_CELLS
            assert all(type(cost) is int for cost in field.dist)
        for side in (1, 3):
            plan = brute_force_attack(grid, Cell(1, 1), Cell(9, 1), side, field)
            assert plan == attack_oracle(grid, Cell(1, 1), Cell(9, 1), side)
            assert plan.gain == 8.0


def test_every_attack_on_every_3x3_map_matches_the_oracle():
    # the exhaustive sweep of `tests/sweep.py`: all 512 maps, every ordered
    # pair of free cells with a route, start == goal included, sides 1 and
    # 3, each in both tiers. The int tier's sentinels are the ints -2**120
    # and 2**120, not -inf and inf: every bundled and generated test map is
    # in the float tier, so this is where every wall and flank test of the
    # kernels, the walk, the cut pass and the move counts meets an int
    # `wall`. Both tiers' attacks must do the same work too, slot by slot
    # of the planner's work counter. CI sweeps the 4 x 3 maps too (229,796
    # attacks in each tier)
    one_row = parse_map("...\n")
    assert in_int_tier(distance_field, one_row, Cell(0, 0)).costs is _INT_COSTS
    assert attack_sweep(3, 3) == 18192
    assert distance_field(one_row, Cell(0, 0)).costs is _FLOAT_COSTS


@seeded_problems(6)
def test_oracle_equivalence_property(rng, grid, start, goal):
    # one field from the start serves the drawn goal and up to three more
    side = rng.choice((1, 3, 5))
    goals = [goal, *rng.choices(free_cells(grid), k=rng.randint(0, 3))]
    field = distance_field(grid, start)
    for goal in goals:
        try:
            shared = brute_force_attack(grid, start, goal, side, field)
        except NoPathError:
            with pytest.raises(NoPathError, match="^no path from "):
                brute_force_attack(grid, start, goal, side)
            with pytest.raises(NoPathError, match="^no path from "):
                attack_oracle(grid, start, goal, side)
            continue
        assert shared == brute_force_attack(grid, start, goal, side)
        assert shared == attack_oracle(grid, start, goal, side)
        # one entry per baseline cell, in order, and no candidate shortens
        # the route or beats the winner
        assert [e.index for e in shared.ledger] == list(range(len(shared.baseline.cells)))
        for entry in shared.ledger:
            if entry.outcome is Outcome.EVALUATED:
                assert shared.baseline.cost <= entry.cost <= shared.baseline.cost + shared.gain + 1e-9
        if shared.best is None:
            assert shared.gain == 0.0 and shared.attacked_path is None
        else:
            assert shared.gain > 1e-9 and shared.attacked_path is not None


def test_field_for_another_grid_or_start_is_rejected(branch_map):
    start, goal = Cell(1, 1), Cell(5, 1)
    field = distance_field(branch_map, start)
    assert brute_force_attack(branch_map, start, goal, 1, field) == brute_force_attack(branch_map, start, goal, 1)
    equal_copy = parse_map(BRANCH_TEXT)
    assert equal_copy == branch_map
    with pytest.raises(ValueError, match="another grid"):
        brute_force_attack(equal_copy, start, goal, 1, field)
    with pytest.raises(ValueError, match="starts at"):
        brute_force_attack(branch_map, Cell(1, 3), goal, 1, field)


@pytest.mark.parametrize("side", [float("nan"), float("inf"), 3.0, True])
def test_attack_side_must_be_an_int(branch_map, side):
    # a NaN side once returned a plan with gain 0.0
    with pytest.raises(ValueError, match=f"^obstacle side must be an odd positive integer, got {side}$"):
        brute_force_attack(branch_map, Cell(1, 1), Cell(5, 1), side)


def test_attack_requires_baseline():
    grid = parse_map(".#.\n.#.\n.#.")
    with pytest.raises(NoPathError, match="^no path from 0,0 to 2,0$"):
        brute_force_attack(grid, Cell(0, 0), Cell(2, 0), 1)
    with pytest.raises(NoPathError, match="^no path from 0,0 to 2,0$"):
        attack_oracle(grid, Cell(0, 0), Cell(2, 0), 1)
