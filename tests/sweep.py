"""Exhaustive sweeps: every map of a few cells, checked against the oracles.

The property tests check a fixed set of seeded random examples, 200 maps
each, which can miss a case for good, and they do not shrink a failing map.
A sweep over every map of a given size has neither gap: it finds the
smallest maps on which a check fails. The search sweep takes the other
way to many cases: every obstacle on each of many seeded maps. This module
is not collected by pytest: `tests/test_attack.py` and
`tests/test_planner.py` run the 3 x 3 sweeps, and a larger one runs from
the command line, for example

    PYTHONPATH=src python tests/sweep.py 4 3
    PYTHONPATH=src python tests/sweep.py 4 3 separators
    PYTHONPATH=src python tests/sweep.py searches 1500

which print the number of attacks compared in each tier of exact costs,
of (start, goal) pairs whose side-1 flags (cut cells and corridor flags)
were compared, or of canonical searches compared, one line per tier, or
fail with an AssertionError, exit status 1, on the first case that
differs from the oracle.
"""

import itertools
import random
import sys

from gridjam import Cell, GridMap, NoPathError, ObstaclePlacement, brute_force_attack, distance_field, planner
from gridjam.planner import _route, _search, _side1
from conftest import random_problem
from oracles import attack_oracle, dijkstra_oracle, obstruct, oracle_cuts, oracle_distances, oracle_moves


def _maps(width: int, height: int):
    """(bits, grid, free cells) for each of the 2**(width * height) maps, bit i set where cell i is blocked."""
    cells = [Cell(col, row) for row in range(height) for col in range(width)]
    for bits in range(1 << (width * height)):
        rows = tuple(tuple(bool(bits >> (row * width + col) & 1) for col in range(width)) for row in range(height))
        yield bits, GridMap(width, height, 1.0, rows), [cell for cell in cells if not rows[cell.row][cell.col]]


def in_int_tier(call, *args):
    """call(*args) with every distance field it builds in the int tier, whose sentinels are ints, not infinities.

    Every map small enough to sweep is in the float tier; the int tier's
    bound, `planner._FLOAT_CELLS`, is set to 0 for the call and restored.
    """
    saved, planner._FLOAT_CELLS = planner._FLOAT_CELLS, 0
    try:
        return call(*args)
    finally:
        planner._FLOAT_CELLS = saved


def _plan(call, *args):
    """call(*args), or None when it finds no route."""
    try:
        return call(*args)
    except NoPathError:
        return None


def attack_sweep(width: int, height: int, sides=(1, 3)) -> int:
    """Compare every attack on every width x height map with `attack_oracle` in both tiers; return the count per tier.

    Each of the 2**(width * height) maps takes every ordered pair of free
    cells as its start and goal, a cell paired with itself included, with
    each obstacle side in `sides`. Each start has one field per tier of
    exact costs, which serves all of its goals, and the int tier's attack
    builds its goal field in that tier too. The oracle plans each case
    once. A pair with no route must raise NoPathError in the oracle and in
    both attacks and is not counted; any other pair must give the oracle's
    whole plan in both: baseline, every ledger entry and the attacked path.
    Raises AssertionError naming the first case that differs.
    """
    compared = 0
    for bits, grid, free in _maps(width, height):
        for start in free:
            float_field, int_field = distance_field(grid, start), in_int_tier(distance_field, grid, start)
            for goal in free:
                for side in sides:
                    expected = _plan(attack_oracle, grid, start, goal, side)
                    for tier, plan in (
                        ("float", _plan(brute_force_attack, grid, start, goal, side, float_field)),
                        ("int", in_int_tier(_plan, brute_force_attack, grid, start, goal, side, int_field)),
                    ):
                        if plan != expected:
                            case = f"map {bits:0{width * height}b}, start {start}, goal {goal}, side {side}"
                            raise AssertionError(f"{case}: the {tier} tier's plan differs from the oracle's (None: no route)")
                    compared += expected is not None
    return compared


def side1_errors(field, goal: Cell) -> list:
    """Which of `_side1`'s two flag lists on the baseline to goal differ from the oracles: a list of names, empty when none.

    The baseline is the attack's, the field's canonical route from its
    start to goal, which must be in the start's reach. Its cut cells must be
    `oracle_cuts`, and its corridor flags must be set exactly where a cell
    and the one before it both have two legal moves by `oracle_moves`.
    """
    grid, cells = field.grid, _route(field, goal).cells
    cuts, corridor = _side1(field, cells)
    two = [oracle_moves(grid, cell) == 2 for cell in cells]
    errors = []
    if {cell for cell, cut in zip(cells, cuts) if cut} != oracle_cuts(grid, field.start, goal):
        errors.append("cut cells")
    if corridor != [False] + [before and here for before, here in zip(two, two[1:])]:
        errors.append("corridor flags")
    return errors


def separator_sweep(width: int, height: int) -> int:
    """Compare `_side1` with the oracles on every width x height map; return the number of start-goal pairs.

    Each of the 2**(width * height) maps takes every free cell as its start
    and every cell the start reaches as its goal, the start itself
    included, and checks both flag lists with `side1_errors`. Raises
    AssertionError naming the first case that differs.
    """
    compared = 0
    for bits, grid, free in _maps(width, height):
        for start in free:
            field = distance_field(grid, start)
            for goal in oracle_distances(grid, start):
                errors = side1_errors(field, goal)
                if errors:
                    case = f"map {bits:0{width * height}b}, start {start}, goal {goal}"
                    raise AssertionError(f"{case}: the {' and '.join(errors)} differ from the oracle's")
                compared += 1
    return compared


def search_sweep(problems: int) -> int:
    """Compare `_search` with `dijkstra_oracle` around every obstacle on seeded maps; return the number of searches.

    Problem i is `conftest.random_problem` of at most 12 x 12 cells, drawn
    from `random.Random(f"searches:{i}")`. Each takes every placement of
    side 1 and 3, centred on any cell, that covers neither endpoint, and
    runs `_search` around it in both directions: backward on the start's
    field, and forward toward a field from the goal. Each must return the
    oracle's canonical route on the obstructed map, cells and cost, or None
    where it finds none. Raises AssertionError naming the first case that
    differs.
    """
    compared = 0
    for index in range(problems):
        grid, start, goal = random_problem(random.Random(f"searches:{index}"), 12, 12)
        field, toward = distance_field(grid, start), distance_field(grid, goal)
        for side, row, col in itertools.product((1, 3), range(grid.height), range(grid.width)):
            placement = ObstaclePlacement(Cell(col, row), side)
            if placement.covers(start) or placement.covers(goal):
                continue
            expected = _plan(dijkstra_oracle, obstruct(grid, placement), start, goal)
            for direction, route in (
                ("backward", _search(field, placement, goal)),
                ("forward", _search(field, placement, goal, toward)),
            ):
                if route != expected:
                    case = f"problem {index}, start {start}, goal {goal}, side {side} centred on {col},{row}"
                    raise AssertionError(f"{case}: the {direction} search's route differs from the oracle's (None: no route)")
            compared += 2
    return compared


if __name__ == "__main__":
    if sys.argv[1] == "searches":
        problems = int(sys.argv[2])
        print(f"{search_sweep(problems)} searches on {problems} seeded maps match the oracle in the float tier")
        print(f"{in_int_tier(search_sweep, problems)} searches on {problems} seeded maps match the oracle in the int tier")
    else:
        width, height = map(int, sys.argv[1:3])
        if sys.argv[3:] == ["separators"]:
            pairs = separator_sweep(width, height)
            print(f"{pairs} start-goal pairs on every {width}x{height} map have the oracle's cut cells")
        else:
            print(f"{attack_sweep(width, height)} attacks on every {width}x{height} map match the oracle in each tier")
