"""Exhaustive sweeps: every map of a few cells, checked against the oracles.

The property tests check a fixed set of seeded random examples, 200 maps
each, which can miss a case for good, and they do not shrink a failing map.
A sweep over every map of a given size has neither gap: it finds the
smallest maps on which a check fails. This module is not collected by
pytest: `tests/test_attack.py` and `tests/test_planner.py` run the 3 x 3
sweeps, and a larger one runs from the command line, for example

    PYTHONPATH=src python tests/sweep.py 4 3
    PYTHONPATH=src python tests/sweep.py 4 3 separators

which print the number of attacks, or of (start, goal) pairs whose cut
cells were compared, or fail with an AssertionError, exit status 1, on the
first case that differs from the oracle.
"""

import sys

from gridjam import Cell, GridMap, NoPathError, ObstaclePlacement, brute_force_attack, distance_field
from gridjam.planner import _separators
from oracles import attack_oracle, obstruct, oracle_distances


def _maps(width: int, height: int):
    """(bits, grid, free cells) for each of the 2**(width * height) maps, bit i set where cell i is blocked."""
    cells = [Cell(col, row) for row in range(height) for col in range(width)]
    for bits in range(1 << (width * height)):
        rows = tuple(tuple(bool(bits >> (row * width + col) & 1) for col in range(width)) for row in range(height))
        yield bits, GridMap(width, height, 1.0, rows), [cell for cell in cells if not rows[cell.row][cell.col]]


def attack_sweep(width: int, height: int, sides=(1, 3)) -> int:
    """Compare every attack on every width x height map with `attack_oracle`; return how many were compared.

    Each of the 2**(width * height) maps takes every ordered pair of free
    cells as its start and goal, a cell paired with itself included, with
    each obstacle side in `sides`, and one field per start serves all of
    its goals. A pair with no route must raise NoPathError in both and is
    not counted; any other pair must give the oracle's whole plan:
    baseline, every ledger entry and the attacked path. Raises
    AssertionError naming the first case that differs.
    """
    compared = 0
    for bits, grid, free in _maps(width, height):
        for start in free:
            field = distance_field(grid, start)
            for goal in free:
                for side in sides:
                    case = f"map {bits:0{width * height}b}, start {start}, goal {goal}, side {side}"
                    try:
                        plan = brute_force_attack(grid, start, goal, side, field)
                    except NoPathError:
                        try:
                            attack_oracle(grid, start, goal, side)
                        except NoPathError:
                            continue
                        raise AssertionError(f"{case}: the attack found no route, the oracle did") from None
                    if plan != attack_oracle(grid, start, goal, side):
                        raise AssertionError(f"{case}: the attack's plan differs from the oracle's")
                    compared += 1
    return compared


def separator_sweep(width: int, height: int) -> int:
    """Compare `_separators` with the oracle on every width x height map; return the number of start-goal pairs.

    Each of the 2**(width * height) maps takes every free cell as its start
    and every cell the start reaches as its goal, the start itself
    included. The cuts must be exactly the free cells, neither the start
    nor the goal, whose one-cell obstacle leaves the goal out of
    `oracle_distances` from the start. Raises AssertionError naming the
    first case that differs.
    """
    compared = 0
    for bits, grid, free in _maps(width, height):
        blocked = {cell: obstruct(grid, ObstaclePlacement(cell, 1)) for cell in free}
        for start in free:
            field = distance_field(grid, start)
            reach = {cell: oracle_distances(blocked[cell], start) for cell in free if cell != start}
            for goal in oracle_distances(grid, start):
                cuts = {cell for cell, seen in reach.items() if cell != goal and goal not in seen}
                if _separators(field, goal) != cuts:
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
        print(f"{attack_sweep(width, height)} attacks on every {width}x{height} map match the oracle")
