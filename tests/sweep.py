"""Exhaustive sweeps: every map of a few cells, checked against the oracles.

The property tests check a fixed set of seeded random examples, 200 maps
each, which can miss a case for good, and they do not shrink a failing map.
A sweep over every map of a given size has neither gap: it finds the
smallest maps on which a check fails. This module is not collected by
pytest: `tests/test_attack.py` and `tests/test_planner.py` run the 3 x 3
sweeps, and a larger one runs from the command line, for example

    PYTHONPATH=src python tests/sweep.py 4 3
    PYTHONPATH=src python tests/sweep.py 4 3 separators

which print the number of attacks compared in each tier of exact costs,
or of (start, goal) pairs whose cut cells were compared, or fail with an
AssertionError, exit status 1, on the first case that differs from the
oracle.
"""

import sys

from gridjam import Cell, GridMap, NoPathError, brute_force_attack, distance_field, planner
from gridjam.planner import _separators
from oracles import attack_oracle, oracle_cuts, oracle_distances


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


def _plan(attack, *args):
    """attack(*args), or None when it finds no route."""
    try:
        return attack(*args)
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


def separator_sweep(width: int, height: int) -> int:
    """Compare `_separators` with `oracle_cuts` on every width x height map; return the number of start-goal pairs.

    Each of the 2**(width * height) maps takes every free cell as its start
    and every cell the start reaches as its goal, the start itself
    included. Raises AssertionError naming the first case that differs.
    """
    compared = 0
    for bits, grid, free in _maps(width, height):
        for start in free:
            field = distance_field(grid, start)
            for goal in oracle_distances(grid, start):
                if _separators(field, goal) != oracle_cuts(grid, start, goal):
                    case = f"map {bits:0{width * height}b}, start {start}, goal {goal}"
                    raise AssertionError(f"{case}: the cut cells differ from the oracle's")
                compared += 1
    return compared


if __name__ == "__main__":
    width, height = map(int, sys.argv[1:3])
    if sys.argv[3:] == ["separators"]:
        pairs = separator_sweep(width, height)
        print(f"{pairs} start-goal pairs on every {width}x{height} map have the oracle's cut cells")
    else:
        print(f"{attack_sweep(width, height)} attacks on every {width}x{height} map match the oracle in each tier")
