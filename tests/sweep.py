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
    PYTHONPATH=src python tests/sweep.py exits 1500

which print the number of attacks compared in each tier of exact costs,
of (start, goal) pairs whose side-1 flags (cut cells and corridor flags)
were compared, of canonical searches compared, one line per tier, or of
`_exits` flag lists compared, or fail with an AssertionError, exit
status 1, on the first case that differs from the oracle. The attack and
search sweeps also check that both tiers do the same work: each attack,
and each tier's whole search sweep, must change every slot of the
planner's work counter, `planner._work`, by the same amount in either.
"""

import itertools
import random
import sys

from gridjam import Cell, GridMap, NoPathError, ObstaclePlacement, brute_force_attack, distance_field, planner
from gridjam.planner import _covered, _exits, _index, _route, _search, _side1
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


def with_work(call, *args) -> tuple:
    """(call(*args), the planner's work over the call: how much it added to each slot of `planner._work`)."""
    before = planner._work[:]
    result = call(*args)
    return result, [now - then for now, then in zip(planner._work, before)]


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
    Both attacks must also do the same work, slot by slot of the planner's
    work counter. Raises AssertionError naming the first case that differs.
    """
    compared = 0
    for bits, grid, free in _maps(width, height):
        for start in free:
            float_field, int_field = distance_field(grid, start), in_int_tier(distance_field, grid, start)
            for goal in free:
                for side in sides:
                    expected = _plan(attack_oracle, grid, start, goal, side)
                    case = f"map {bits:0{width * height}b}, start {start}, goal {goal}, side {side}"
                    float_plan, float_work = with_work(_plan, brute_force_attack, grid, start, goal, side, float_field)
                    int_plan, int_work = in_int_tier(with_work, _plan, brute_force_attack, grid, start, goal, side, int_field)
                    for tier, plan in (("float", float_plan), ("int", int_plan)):
                        if plan != expected:
                            raise AssertionError(f"{case}: the {tier} tier's plan differs from the oracle's (None: no route)")
                    if float_work != int_work:
                        raise AssertionError(f"{case}: the tiers' work differs, {float_work} on floats, {int_work} on ints")
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


def walked_exits(field, covered: list, targets: list) -> list:
    """`_exits`' flags for each target, by a walk up `parent` from every cell the field reached.

    `covered` holds the flat indices of the blocked cells, and each target is
    a flat index the field reached. The flag of cell x, at first[x], is set
    when x is the target, or when x's walk up to the field's root passes the
    target and passes no blocked cell and no diagonal step with a blocked
    flank: a flank shares its row with one end of the step and its column
    with the other.
    """
    parent, first, stride = field.parent, field.first, field.stride
    blocked = set(covered)
    flags = [bytearray(field.reached) for _ in targets]
    for x, d in enumerate(field.dist):
        if d == field.costs.wall or d == field.costs.far:
            continue
        passed, survives = {x}, x not in blocked
        cur, up = x, parent[x]
        while up >= 0:
            (row, col), (up_row, up_col) = divmod(cur, stride), divmod(up, stride)
            if row != up_row and col != up_col and {row * stride + up_col, up_row * stride + col} & blocked:
                survives = False
            cur, up = up, parent[up]
            passed.add(cur)
            survives = survives and cur not in blocked
        for target, flag in zip(targets, flags):
            flag[first[x]] = x == target or (survives and target in passed)
    return flags


def exits_errors(field, placement: ObstaclePlacement, targets) -> list:
    """The targets, cells the field reached, on which `_exits` around the placement differs from `walked_exits`."""
    stride = field.stride
    covered = _covered(placement, field.grid, stride)
    indices = [_index(target, stride) for target in targets]
    walked = walked_exits(field, covered, indices)
    return [target for target, index, flags in zip(targets, indices, walked) if _exits(field, covered, index) != flags]


def exits_sweep(problems: int) -> int:
    """Compare `_exits` with `walked_exits` around every obstacle on seeded maps; return the number of flag lists.

    Problem i is `conftest.random_problem` of at most 12 x 12 cells, drawn
    from `random.Random(f"exits:{i}")`. Each takes every placement of side
    1, 3 and 5 centred on any cell, clipped at the border or not, and three
    targets: the field's root, the problem's goal when the start reaches it,
    and one more reached cell drawn from the same generator. Raises
    AssertionError naming the first case that differs.
    """
    compared = 0
    for index in range(problems):
        rng = random.Random(f"exits:{index}")
        grid, start, goal = random_problem(rng, 12, 12)
        field = distance_field(grid, start)
        reached = sorted(oracle_distances(grid, start))
        targets = sorted({start, rng.choice(reached)} | ({goal} if goal in reached else set()))
        for side, row, col in itertools.product((1, 3, 5), range(grid.height), range(grid.width)):
            placement = ObstaclePlacement(Cell(col, row), side)
            wrong = exits_errors(field, placement, targets)
            if wrong:
                case = f"problem {index}, start {start}, side {side} centred on {col},{row}, target {wrong[0]}"
                raise AssertionError(f"{case}: `_exits`' flags differ from the walk up the tree")
            compared += len(targets)
    return compared


if __name__ == "__main__":
    if sys.argv[1] == "exits":
        problems = int(sys.argv[2])
        print(f"{exits_sweep(problems)} exit flag lists on {problems} seeded maps match the walk up the tree")
    elif sys.argv[1] == "searches":
        problems = int(sys.argv[2])
        searches, float_work = with_work(search_sweep, problems)
        print(f"{searches} searches on {problems} seeded maps match the oracle in the float tier")
        searches, int_work = in_int_tier(with_work, search_sweep, problems)
        if int_work != float_work:
            raise AssertionError(f"the tiers' work differs, {float_work} on floats, {int_work} on ints")
        print(f"{searches} searches on {problems} seeded maps match the oracle in the int tier")
    else:
        width, height = map(int, sys.argv[1:3])
        if sys.argv[3:] == ["separators"]:
            pairs = separator_sweep(width, height)
            print(f"{pairs} start-goal pairs on every {width}x{height} map have the oracle's cut cells")
        else:
            print(f"{attack_sweep(width, height)} attacks on every {width}x{height} map match the oracle in each tier")
