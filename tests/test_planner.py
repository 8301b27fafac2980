"""Planner contract: optimality, no corner cutting, determinism, oracle parity."""

import math
import random

import pytest
from hypothesis import given

from gridjam import (
    BadEndpointError,
    Cell,
    NoPathError,
    ObstaclePlacement,
    astar,
    distance_field,
    euclidean_distance,
    parse_map,
    prefix_costs,
)
from gridjam.planner import _index, _lowpoint_dfs, _separators
from conftest import PROPERTY_SETTINGS, free_cells, grid_problems, is_free, random_case
from oracles import dijkstra_oracle, obstruct, octile_distance

SQRT2 = math.sqrt(2.0)


def path_cost_recomputed(path):
    # independent accumulation, step by step
    total = 0.0
    for a, b in zip(path.cells, path.cells[1:]):
        total += SQRT2 if (a.col != b.col and a.row != b.row) else 1.0
    return total


def assert_valid_path(grid, path, start, goal):
    assert path.cells[0] == start
    assert path.cells[-1] == goal
    assert len(set(path.cells)) == len(path.cells)
    for cell in path.cells:
        assert is_free(grid, cell)
    for a, b in zip(path.cells, path.cells[1:]):
        dc, dr = b.col - a.col, b.row - a.row
        assert max(abs(dc), abs(dr)) == 1
        if dc and dr:
            # diagonal moves need both flanking cells free
            assert is_free(grid, Cell(a.col + dc, a.row))
            assert is_free(grid, Cell(a.col, a.row + dr))
    assert path.cost == pytest.approx(path_cost_recomputed(path), abs=1e-9)


def test_straight_corridor():
    grid = parse_map(".....")
    path = astar(grid, Cell(0, 0), Cell(4, 0))
    assert path.cost == 4.0
    assert len(path.cells) == 5
    assert path.cells == tuple(Cell(c, 0) for c in range(5))


def test_start_equals_goal():
    grid = parse_map("..\n..")
    path = astar(grid, Cell(1, 1), Cell(1, 1))
    assert path.cost == 0.0
    assert path.cells == (Cell(1, 1),)


def test_branch_map_straight(branch_map):
    path = astar(branch_map, Cell(1, 1), Cell(5, 1))
    assert path.cost == 4.0
    assert path.cells == tuple(Cell(c, 1) for c in range(1, 6))


def test_branch_map_detour(branch_map):
    blocked = obstruct(branch_map, ObstaclePlacement(Cell(3, 1), 1))
    path = astar(blocked, Cell(1, 1), Cell(5, 1))
    # no-corner-cutting forces the full orthogonal detour through row 3
    assert path.cost == 8.0
    assert_valid_path(blocked, path, Cell(1, 1), Cell(5, 1))


def test_bad_endpoints():
    grid = parse_map("#.\n..")
    with pytest.raises(BadEndpointError):
        astar(grid, Cell(0, 0), Cell(1, 1))
    with pytest.raises(BadEndpointError):
        astar(grid, Cell(1, 0), Cell(0, 0))
    with pytest.raises(BadEndpointError):
        astar(grid, Cell(5, 5), Cell(1, 1))
    with pytest.raises(BadEndpointError):
        dijkstra_oracle(grid, Cell(0, 0), Cell(1, 1))


def test_no_path():
    grid = parse_map(".#.\n.#.\n.#.")
    with pytest.raises(NoPathError):
        astar(grid, Cell(0, 1), Cell(2, 1))
    with pytest.raises(NoPathError):
        dijkstra_oracle(grid, Cell(0, 1), Cell(2, 1))


def test_euclidean_distance_examples():
    assert euclidean_distance(Cell(0, 0), Cell(0, 0), 1.0) == 0.0
    assert euclidean_distance(Cell(0, 0), Cell(3, 4), 1.0) == 5.0
    assert euclidean_distance(Cell(0, 0), Cell(1, 1), 0.5) == pytest.approx(0.70710678, abs=1e-8)


def test_diagonal_needs_both_flanks_free():
    grid = parse_map(".#\n..")
    # (0,0) -> (1,1) diagonally would cut the corner at (1,0)
    path = astar(grid, Cell(0, 0), Cell(1, 1))
    assert path.cost == 2.0
    # the goal is one step from the start, next to a neighbour the search never reached
    path = astar(parse_map(".#.\n...\n"), Cell(1, 1), Cell(2, 1))
    assert path.cells == (Cell(1, 1), Cell(2, 1))
    assert path.cost == 1.0


def test_octile_admissible_and_consistent_random():
    rng = random.Random(4242)
    for _ in range(80):
        grid, start, goal = random_case(rng, 10, 10)
        try:
            optimal = dijkstra_oracle(grid, start, goal).cost
        except NoPathError:
            continue
        assert octile_distance(start, goal) <= optimal + 1e-9


def test_prefix_costs_match_steps():
    grid = parse_map("...\n...\n...")
    path = astar(grid, Cell(0, 0), Cell(2, 2))
    marks = prefix_costs(path)
    assert marks[0] == 0.0
    assert marks[-1] == path.cost  # one counter behind both, so bitwise equal
    assert all(b > a for a, b in zip(marks, marks[1:]))


def test_oracle_equivalence_random():
    rng = random.Random(90125)
    agreements = 0
    for _ in range(150):
        grid, start, goal = random_case(rng, 10, 10)
        try:
            fast = astar(grid, start, goal)
        except NoPathError:
            with pytest.raises(NoPathError):
                dijkstra_oracle(grid, start, goal)
            continue
        slow = dijkstra_oracle(grid, start, goal)
        assert fast.cost == slow.cost
        # both planners reconstruct the same canonical optimal path, which
        # the attack layer depends on for candidate enumeration
        assert fast.cells == slow.cells
        assert_valid_path(grid, fast, start, goal)
        agreements += 1
    assert agreements > 50


def test_blocking_monotonicity_random():
    rng = random.Random(555)
    checked = 0
    for _ in range(60):
        grid, start, goal = random_case(rng, 10, 10)
        try:
            base = astar(grid, start, goal)
        except NoPathError:
            continue
        if len(base.cells) < 3:
            continue
        mid = base.cells[len(base.cells) // 2]
        if mid in (start, goal):
            continue
        blocked = obstruct(grid, ObstaclePlacement(mid, 1))
        try:
            rerouted = astar(blocked, start, goal)
        except NoPathError:
            continue
        assert rerouted.cost >= base.cost - 1e-9
        checked += 1
    assert checked > 10


@PROPERTY_SETTINGS
@given(grid_problems())
def test_separators_match_brute_force_property(problem):
    # every free cell, not only the baseline's, and goals the start cannot reach
    grid, start, goal = problem
    field = distance_field(grid, start)
    stride = field.stride
    target = _index(goal, stride)
    lowpoints = _lowpoint_dfs(field.cells, stride, _index(start, stride))
    # with no route to cut, every cell trivially blocks
    reachable = field.cost[target] is not None
    cuts = _separators(lowpoints, target) if reachable else None
    for cell in free_cells(grid):
        if cell in (start, goal):
            continue
        try:
            dijkstra_oracle(obstruct(grid, ObstaclePlacement(cell, 1)), start, goal)
            blocks = False
        except NoPathError:
            blocks = True
        assert (not reachable or _index(cell, stride) in cuts) == blocks


def test_determinism():
    rng = random.Random(11)
    for _ in range(20):
        grid, start, goal = random_case(rng, 12, 12)
        try:
            first = astar(grid, start, goal)
        except NoPathError:
            continue
        second = astar(grid, start, goal)
        assert first == second
