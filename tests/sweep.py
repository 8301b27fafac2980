"""Exhaustive attack sweeps: every map of a few cells, checked against the oracle.

The property tests draw derandomized examples, which can miss a case for
good; a sweep over every map of a given size has no such blind spot. This
module is not collected by pytest: `tests/test_attack.py` runs the 3 x 3
sweep, and a larger one runs from the command line, for example

    PYTHONPATH=src python tests/sweep.py 4 3

which prints the number of attacks compared, or fails with an
AssertionError, exit status 1, on the first plan that differs from
`attack_oracle`'s.
"""

import sys

from gridjam import Cell, GridMap, NoPathError, brute_force_attack, distance_field
from oracles import attack_oracle


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
    cells = [Cell(col, row) for row in range(height) for col in range(width)]
    compared = 0
    for bits in range(1 << (width * height)):
        rows = tuple(tuple(bool(bits >> (row * width + col) & 1) for col in range(width)) for row in range(height))
        grid = GridMap(width, height, 1.0, rows)
        free = [cell for cell in cells if not rows[cell.row][cell.col]]
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


if __name__ == "__main__":
    width, height = map(int, sys.argv[1:])
    print(f"{attack_sweep(width, height)} attacks on every {width}x{height} map match the oracle")
