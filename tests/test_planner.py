"""Planner contract: optimality, no corner cutting, determinism, oracle parity."""

import hashlib
import math
import random

import pytest

from gridjam import (
    BadEndpointError,
    Cell,
    GridMap,
    NoPathError,
    ObstaclePlacement,
    astar,
    brute_force_attack,
    distance_field,
    euclidean_distance,
    load_scenario,
    parse_map,
    prefix_costs,
    run_suite,
)
from gridjam import planner
from gridjam.data import scenario_names, scenario_path
from gridjam.planner import (
    _FLOAT_CELLS,
    _FLOAT_COSTS,
    _INT_COSTS,
    _backtrack,
    _cell,
    _cost,
    _covered,
    _decode,
    _exits,
    _index,
    _search,
    _side1,
    _spare,
    _walk,
)
from conftest import free_cells, is_free, random_problem, seeded_problems
from oracles import dijkstra_oracle, obstruct, oracle_distances, priced_path
from sweep import exits_errors, exits_sweep, in_int_tier, separator_sweep, side1_errors, with_work

SQRT2 = math.sqrt(2.0)


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
    assert path.cost == priced_path(path.cells).cost


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
    for start, goal, message in (
        (Cell(0, 0), Cell(1, 1), "start 0,0 is occupied"),
        (Cell(1, 0), Cell(0, 0), "goal 0,0 is occupied"),
        (Cell(5, 5), Cell(1, 1), "start 5,5 is outside the 2x2 map"),
    ):
        with pytest.raises(BadEndpointError, match=message):
            astar(grid, start, goal)
        # the attack's baseline is the same route, so it fails with the same text
        with pytest.raises(BadEndpointError, match=message):
            brute_force_attack(grid, start, goal)
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


def test_backtrack_raises_when_no_neighbour_matches_the_cost():
    # a goal cost one step too high: without the raise, the walk would go on
    # from the last neighbour tried, off the route
    field = distance_field(parse_map("...\n"), Cell(0, 0))
    goal = _index(Cell(2, 0), field.stride)
    dist = list(field.dist)
    dist[goal] += field.costs.orth
    with pytest.raises(RuntimeError, match="^no neighbour of 2,0 matches its cost"):
        _backtrack(field, dist, _index(Cell(0, 0), field.stride), goal)


def test_highest_first_walk_raises_when_no_neighbour_matches_the_cost():
    # the spare route's walk shares the loop and its raise
    field = distance_field(parse_map("...\n"), Cell(0, 0))
    goal = _index(Cell(2, 0), field.stride)
    dist = list(field.dist)
    dist[goal] += field.costs.orth
    with pytest.raises(RuntimeError, match="^no neighbour of 2,0 matches its cost"):
        _walk(field, dist, _index(Cell(0, 0), field.stride), goal, True)


def spare_route(field, goal):
    """The cells of the spare route from the field's start to goal."""
    stride = field.stride
    chain = _walk(field, field.dist, _index(field.start, stride), _index(goal, stride), True)
    return [_cell(i, stride) for i in reversed(chain)]


def test_spare_route_is_the_canonical_route_on_the_turned_map(maze_map):
    # turning a map by 180 degrees reverses the flat index order, so the
    # highest-index route is the canonical route on the turned map
    scenarios = [load_scenario(scenario_path(name)) for name in scenario_names()]
    problems = [(s.grid, s.start, s.goals) for s in scenarios] + [(maze_map, Cell(1, 1), free_cells(maze_map))]
    checked = 0
    for grid, start, goals in problems:
        width, height = grid.width, grid.height
        turned = GridMap(width, height, grid.cell_size, tuple(row[::-1] for row in reversed(grid.rows)))

        def turn(cell):
            return Cell(width - 1 - cell.col, height - 1 - cell.row)

        field = distance_field(grid, start)
        for goal in goals:
            expected = [turn(cell) for cell in astar(turned, turn(start), turn(goal)).cells]
            assert spare_route(field, goal) == expected
            checked += 1
    assert checked == 69


def test_prefix_costs_match_steps():
    grid = parse_map("...\n...\n...")
    path = astar(grid, Cell(0, 0), Cell(2, 2))
    marks = prefix_costs(path)
    assert marks[0] == 0.0
    assert marks[-1] == path.cost  # both are k + m*sqrt(2) of the same steps, so bitwise equal
    assert all(b > a for a, b in zip(marks, marks[1:]))


@seeded_problems(1)
def test_separators_match_brute_force_property(rng, grid, start, goal):
    # the attack asks only for a goal the start reaches; both of `_side1`'s
    # flag lists on its baseline, cut cells and corridor flags
    try:
        errors = side1_errors(distance_field(grid, start), goal)
    except NoPathError:
        return
    assert errors == []


def test_separators_on_every_3x3_map_match_the_oracle():
    # the exhaustive sweep of `tests/sweep.py`: all 512 maps, every start and
    # every goal it reaches, start == goal included, `_side1`'s cut cells
    # against `oracle_cuts` and its corridor flags against `oracle_moves`.
    # CI sweeps the 4 x 3 maps too (114,898 pairs)
    assert separator_sweep(3, 3) == 9096


def test_two_move_cells_flank_no_legal_diagonal():
    # every occupancy of a free cell's 8 neighbours; a 3x3 map has no other
    # cell that a move from its centre or a diagonal it flanks can touch
    centre = Cell(1, 1)
    around = [Cell(col, row) for row in range(3) for col in range(3) if (col, row) != (1, 1)]
    straight = [(0, 1), (2, 1), (1, 0), (1, 2)]
    corners = [(0, 0), (2, 0), (0, 2), (2, 2)]
    two_move = 0
    for pattern in range(256):
        blocked = {cell for bit, cell in enumerate(around) if pattern >> bit & 1}
        grid = GridMap(3, 3, 1.0, tuple(tuple(Cell(col, row) in blocked for col in range(3)) for row in range(3)))

        def free(col, row):
            return Cell(col, row) not in blocked

        moves = sum(free(*cell) for cell in straight)
        moves += sum(free(col, row) and free(col, 1) and free(1, row) for col, row in corners)
        # the centre twice: its second corridor flag says whether it has two moves
        assert _side1(distance_field(grid, centre), (centre, centre))[1][1] == (moves == 2), sorted(blocked)
        if moves != 2:
            continue
        two_move += 1
        # the centre flanks the diagonal between its straight neighbours
        # (col, 1) and (1, row), whose other flank is the corner (col, row)
        for col, row in corners:
            assert not (free(col, 1) and free(1, row) and free(col, row)), sorted(blocked)
    assert two_move == 64


def test_the_work_counter_keeps_its_slots():
    # the counter is a fixed list of ints, with no slot per map, root or
    # cell that would grow over a long run of attacks
    slots = len(planner._work)
    before = planner._work[:]
    rng = random.Random(0)
    sizes = set()
    while len(sizes) < 20:
        grid, start, goal = random_problem(rng, 16, 12)
        if (grid.width, grid.height) in sizes:
            continue
        try:
            brute_force_attack(grid, start, goal, rng.choice((1, 3)))
        except NoPathError:
            continue
        sizes.add((grid.width, grid.height))
    assert planner._work[planner._FIELD] - before[planner._FIELD] >= 20
    assert len(planner._work) == slots
    assert all(type(count) is int for count in planner._work)


def test_a_field_counts_its_stale_pops():
    # a small map on which the field pops stale diagonal entries: 19 cells
    # settle and 2 stale entries pop, as a count of the queues' own pops and
    # appends agreed; the queues drain, so every entry but the seed was
    # pushed
    grid = parse_map("...\n...\n...\n.#.\n...\n#..\n...\n")
    before = planner._work[:]
    assert distance_field(grid, Cell(0, 0)).reached == 19
    assert [now - then for now, then in zip(planner._work[:3], before)] == [1, 21, 20]


@seeded_problems(2)
def test_distance_field_matches_oracle_property(rng, grid, start, goal):
    # exact distances, a tree of optimal legal steps and its preorder
    # intervals, on every cell the start reaches; `blank` is the grid itself,
    # the tier's `wall` on every blocked index, the border included, and its
    # `far` on every free one; `dist` keeps `wall` there and `far` on every
    # free cell out of reach
    field = distance_field(grid, start)
    stride, dist, parent, first, end = field.stride, field.dist, field.parent, field.first, field.end
    costs = field.costs
    expected = oracle_distances(grid, start)
    reached = {_cell(index, stride): index for index, cost in enumerate(dist) if cost not in (costs.far, costs.wall)}
    assert reached.keys() == expected.keys()
    assert (stride, len(dist)) == (grid.width + 2, (grid.width + 2) * (grid.height + 2))
    free = {_index(cell, stride) for cell in free_cells(grid)}
    assert field.blank == [costs.far if index in free else costs.wall for index in range(len(dist))]
    assert {index for index, cost in enumerate(dist) if cost == costs.wall} == {
        index for index in range(len(dist)) if index not in free
    }
    assert {index for index, cost in enumerate(dist) if cost == costs.far} == {
        _index(cell, stride) for cell in free_cells(grid) if cell not in reached
    }
    assert field.reached == len(reached)
    for cell, index in reached.items():
        assert _decode(dist[index], costs) == expected[cell]
        if cell == start:
            assert parent[index] == -1
            continue
        up = _cell(parent[index], stride)
        dc, dr = cell.col - up.col, cell.row - up.row
        assert max(abs(dc), abs(dr)) == 1
        if dc and dr:
            assert is_free(grid, Cell(up.col + dc, up.row)) and is_free(grid, Cell(up.col, up.row + dr))
        assert dist[parent[index]] + (costs.diag if dc and dr else costs.orth) == dist[index]
    # every parent is strictly nearer the start, so each chain ends there
    subtree = {index: set() for index in reached.values()}
    for index in reached.values():
        up = index
        while up >= 0:
            subtree[up].add(index)
            up = parent[up]
    for index, below in subtree.items():
        assert {other for other in reached.values() if first[index] <= first[other] < end[index]} == below


def tree_digest() -> str:
    """The SHA-256 of `parent` and `first` of the start's field on 200 seeded `random_problem` maps."""
    digest = hashlib.sha256()
    for index in range(200):
        grid, start, _ = random_problem(random.Random(f"trees:{index}"))
        field = distance_field(grid, start)
        digest.update(repr((field.parent, field.first)).encode())
    return digest.hexdigest()


def test_field_trees_keep_their_shape():
    # Any tree of optimal legal steps is correct, so the oracle test above
    # accepts every one. The order in which a popped cell relaxes its moves
    # breaks the field's FIFO ties and so picks the tree, which decides
    # where `_cost` stops. Relaxing the diagonals in the order SE, SW, NE,
    # NW changes this digest and no other pin
    trees = "8702a22efe6040868f1ae7d07d447559907ca2bae903476c0a65c9915795708e"
    assert tree_digest() == trees
    assert in_int_tier(tree_digest) == trees


def tier_traffic():
    """200 seeded attacks, each at sides 1 and 3, and `run_suite` on every bundled scenario."""
    for index in range(200):
        grid, start, goal = random_problem(random.Random(f"tiers:{index}"))
        for side in (1, 3):
            try:
                brute_force_attack(grid, start, goal, side)
            except NoPathError:
                pass
    for name in scenario_names():
        run_suite(load_scenario(scenario_path(name)))


def test_both_tiers_do_the_same_work():
    # Every comparison decides in either tier as it would on k + m*sqrt(2),
    # so the searches pop and push the same cells on floats and on ints,
    # `_astar`'s next level, `min(levels)`, included: every slot of the
    # work counter agrees. CI's search and attack sweeps compare the tiers'
    # work at scale
    work = [507, 19516, 19009, 711, 11373, 14422, 109, 3104, 4966, 467, 166]
    assert with_work(tier_traffic)[1] == work
    assert in_int_tier(with_work, tier_traffic)[1] == work


@seeded_problems(3)
def test_cost_matches_oracle_property(rng, grid, start, goal):
    # the attack prices from a goal back to the start, and from the start
    # toward the goal on a field rooted at the goal; the race prices toward
    # a cell the robot halted on; squares of side 3 are clipped at the border
    field = distance_field(grid, start)
    cells = sorted(oracle_distances(grid, start))
    origin = rng.choice(cells)
    searches = [(field, origin, target) for target in dict.fromkeys((start, rng.choice(cells)))]
    if goal in cells:
        searches.append((distance_field(grid, goal), start, goal))
    for field, origin, target in searches:
        route = dijkstra_oracle(grid, origin, target).cells
        for side in (1, 3):
            centers = rng.sample(route, rng.randint(0, min(4, len(route))))
            for center in dict.fromkeys((*centers, rng.choice(free_cells(grid)))):
                placement = ObstaclePlacement(center, side)
                if placement.covers(origin) or placement.covers(target):
                    continue
                try:
                    expected = dijkstra_oracle(obstruct(grid, placement), origin, target).cost
                except NoPathError:
                    expected = None
                assert _cost(field, _covered(placement, grid, field.stride), origin, target) == expected


@seeded_problems(4)
def test_spare_route_decides_exact_costs_property(rng, grid, start, goal):
    # the baseline is the oracle's canonical route, which the attack's
    # candidates follow; every candidate along it whose square misses the
    # spare route and the flanks of its diagonals keeps the optimum, bitwise
    field = distance_field(grid, start)
    if goal not in oracle_distances(grid, start):
        with pytest.raises(NoPathError):
            astar(grid, start, goal)
        with pytest.raises(NoPathError):
            dijkstra_oracle(grid, start, goal)
        return
    baseline = astar(grid, start, goal)
    assert baseline == dijkstra_oracle(grid, start, goal)
    assert_valid_path(grid, baseline, start, goal)
    route = spare_route(field, goal)
    spare = priced_path(route)
    assert_valid_path(grid, spare, start, goal)
    assert spare.cost == baseline.cost
    flagged = set(route)
    for a, b in zip(route, route[1:]):
        if a.col != b.col and a.row != b.row:
            flagged |= {Cell(b.col, a.row), Cell(a.col, b.row)}
    flags = _spare(field, goal)
    assert {_cell(i, field.stride) for i, flag in enumerate(flags) if flag} == flagged
    for side in (1, 3):
        for center in baseline.cells:
            placement = ObstaclePlacement(center, side)
            if placement.covers(start) or placement.covers(goal):
                continue
            if not any(flags[i] for i in _covered(placement, grid, field.stride)):
                assert dijkstra_oracle(obstruct(grid, placement), start, goal).cost == baseline.cost


def test_search_to_a_goal_out_of_reach_has_no_route():
    # out of the start's component the field's preorder numbers are all 0,
    # the start's own, so the search must not reach its stop test at all
    grid = parse_map(".#.\n.#.\n.#.\n")
    field = distance_field(grid, Cell(0, 0))
    assert _search(field, ObstaclePlacement(Cell(0, 2), 1), Cell(2, 0)) is None


@seeded_problems(5)
def test_search_with_goal_field_heuristic_property(rng, grid, start, goal):
    # the winner's route: a field rooted at the goal as the heuristic gives
    # the same canonical path as the backward search on the start field,
    # and as the oracle
    side = rng.choice((1, 3))
    cells = sorted(oracle_distances(grid, start))
    if goal not in cells:
        goal = rng.choice(cells)
    field = distance_field(grid, start)
    toward = distance_field(grid, goal)
    route = dijkstra_oracle(grid, start, goal).cells
    centers = rng.sample(route, rng.randint(0, min(4, len(route))))
    for center in dict.fromkeys((*centers, rng.choice(free_cells(grid)))):
        placement = ObstaclePlacement(center, side)
        if placement.covers(start) or placement.covers(goal):
            continue
        try:
            expected = dijkstra_oracle(obstruct(grid, placement), start, goal)
        except NoPathError:
            expected = None
        assert _search(field, placement, goal, toward) == _search(field, placement, goal) == expected


@pytest.mark.parametrize(
    "text, start, goal, placement",
    [
        # The pass from the start meets (4,1) from (5,2) with b(4,1) + sqrt(2)
        # = b(5,2), but that diagonal's flank (5,1) is blocked: taking it
        # anyway gives (4,1) a start-side cost it does not have, and the
        # backtrack turns there instead of at (4,2).
        (".......\n.......\n.......\n", Cell(5, 2), Cell(3, 1), ObstaclePlacement(Cell(6, 0), 3)),
        # the same at (2,0)-(1,1), whose flank (1,0) is a wall: the backtrack
        # reaches (1,1) on a cost it does not have and finds no legal way on
        ("##..\n#..#\n....\n....\n", Cell(3, 0), Cell(1, 3), ObstaclePlacement(Cell(0, 3), 1)),
        # Every cell of the three optimal routes has f = C*. Had the search
        # returned when the start popped, before (3,2) closed, the backtrack
        # would turn at (3,3) instead; it pops the start's whole level first.
        (".....\n.....\n.....\n.....\n", Cell(4, 3), Cell(1, 2), ObstaclePlacement(Cell(0, 0), 1)),
        # The oracle's route leaves 8,2 through 8,1. A search that returned
        # at its target's first pop, with its level read in push order, left
        # a cell of that route open and backtracked through 9,2 at the same
        # cost, 8, in the backward direction.
        (
            "#..#.....#\n..........\n...#...#..\n....#.....\n...#.#..#.\n"
            "#.........\n..#.......\n..........\n#.......#.\n",
            Cell(8, 2), Cell(5, 5), ObstaclePlacement(Cell(8, 3), 1),
        ),
        # The same through 10,1 instead of 8,0, in both directions.
        (
            "............\n............\n....#....#..\n............\n#..#....#...\n"
            "....#...#...\n..#..#......\n............\n......#..#..\n........#...\n",
            Cell(9, 0), Cell(3, 9), ObstaclePlacement(Cell(6, 6), 3),
        ),
    ],
)
def test_backward_search_marks_every_optimal_cell_and_no_other(text, start, goal, placement):
    grid = parse_map(text)
    expected = dijkstra_oracle(obstruct(grid, placement), start, goal)
    field = distance_field(grid, start)
    assert _search(field, placement, goal) == _search(field, placement, goal, distance_field(grid, goal)) == expected


# The planner's exact costs k*orth + m*diag order exactly like
# k + m*sqrt(2), and the float tier's doubles hold them exactly, while every
# value has fewer steps k + m than its tier's bound: twice the cells of the
# largest flat core the tier serves (the `planner` module docstring proves
# both).
TIER_BOUNDS = {"float": (_FLOAT_COSTS, 2 * _FLOAT_CELLS), "int": (_INT_COSTS, 2**25)}


def sqrt2_convergents(limit):
    """(p, q) with p/q the continued-fraction convergents of sqrt(2), p below limit.

    p - q*sqrt(2) = ±1 / (p + q*sqrt(2)), the nearest to a tie of any pair
    up to that size.
    """
    p, q = 1, 1
    while p < limit:
        yield p, q
        p, q = p + 2 * q, p + q


def near_ties(bound, rng):
    """Pairs of (k, m) step counts, each of fewer than bound steps, whose k + m*sqrt(2) nearly tie.

    First every convergent (p, q) below bound as the differences (-p, q)
    and (p, -q), the closest ties there are, placed at the least steps and
    then at the most that the bound leaves room for, each pass smallest
    first, so that the first failure is the smallest. Then 200 differences
    (dk, dm) with dk within one of -dm*sqrt(2), each placed at random, all
    drawn from rng.
    """

    def placed(dk, dm, pick):
        # (k2, m2) and (k2 + dk, m2 + dm) both non-negative, with fewer
        # than `room` steps in (k2, m2)
        low_k, low_m, room = max(0, -dk), max(0, -dm), bound - max(0, dk + dm)
        m2 = pick(low_m, room - low_k - 1)
        k2 = pick(low_k, room - m2 - 1)
        return (k2 + dk, m2 + dm), (k2, m2)

    for pick in (min, max):
        for p, q in sqrt2_convergents(bound):
            yield placed(-p, q, pick)
            yield placed(p, -q, pick)
    reach = int((bound - 2) / SQRT2)  # so that |dk| < bound
    for _ in range(200):
        dm = rng.randint(-reach, reach)
        yield placed(-round(dm * SQRT2) + rng.randint(-1, 1), dm, rng.randint)


def exact_sign(dk, dm):
    """The sign of dk + dm*sqrt(2), decided on integers alone."""
    if dk * dm >= 0:
        total = dk + dm
    else:
        total = dk if dk * dk > 2 * dm * dm else dm
    return (total > 0) - (total < 0)


@pytest.mark.parametrize("tier", TIER_BOUNDS)
def test_integer_costs_decode_and_order_exactly_property(tier):
    costs, bound = TIER_BOUNDS[tier]
    for (k1, m1), (k2, m2) in near_ties(bound, random.Random(tier)):
        case = f"({k1}, {m1}) against ({k2}, {m2})"
        assert max(k1 + m1, k2 + m2) < bound, case
        a, b = k1 * costs.orth + m1 * costs.diag, k2 * costs.orth + m2 * costs.diag
        # formed in the tier's own number type, each is the exact integer
        assert a == k1 * int(costs.orth) + m1 * int(costs.diag), case
        assert b == k2 * int(costs.orth) + m2 * int(costs.diag), case
        if costs is _FLOAT_COSTS:
            assert type(a) is type(b) is float and max(a, b) < 2**53, case
        assert _decode(a, costs).hex() == (k1 + m1 * SQRT2).hex(), case
        assert _decode(b, costs).hex() == (k2 + m2 * SQRT2).hex(), case
        assert (a > b) - (a < b) == exact_sign(k1 - k2, m1 - m2), case


def test_exits_match_the_walk_up_the_tree():
    # `_exits` tests only the 8 roots at the obstacle's corners; the walk
    # checks every cell of each tree route and both flanks of its diagonals.
    # Sides 1, 3 and 5 on 30 seeded maps, every centre, so clipped squares
    # too. CI sweeps 1,500 maps. The 4 x 3 attack sweep misses a side-3
    # square's top-right corner taken for its top-left one; this does not
    assert exits_sweep(30) == 7584
    # A cut above the target clears its whole subtree: on an open 7 x 3 map
    # from 0,1, blocking 2,1 clears 6,1, although its tree route to the
    # target 4,1 (6,1, 5,1, 4,1) survives. The search only pops more
    grid = parse_map(".......\n.......\n.......\n")
    field = distance_field(grid, Cell(0, 1))
    placement, target = ObstaclePlacement(Cell(2, 1), 1), Cell(4, 1)
    assert exits_errors(field, placement, [target]) == []
    stride = field.stride
    beyond = _index(Cell(6, 1), stride)
    assert field.parent[field.parent[beyond]] == _index(target, stride)
    flags = _exits(field, _covered(placement, grid, stride), _index(target, stride))
    assert flags[field.first[beyond]] == 0


def test_cost_cuts_tree_routes_at_blocked_flanks():
    # The field's tree takes the goal (3,0) to the start (0,0) by
    # (3,1), (2,1), (1,1) and then one diagonal step. Blocking either flank
    # of that step, (1,0) or (0,1), leaves every cell of the tree route free
    # but the step illegal: the route must go round, by 5 orthogonal steps.
    grid = parse_map("..#.\n....\n....\n")
    start, goal = Cell(0, 0), Cell(3, 0)
    field = distance_field(grid, start)
    stride = field.stride
    chain = [_index(goal, stride)]
    while field.parent[chain[-1]] >= 0:
        chain.append(field.parent[chain[-1]])
    assert chain == [_index(cell, stride) for cell in (goal, Cell(3, 1), Cell(2, 1), Cell(1, 1), start)]
    costs = field.costs
    assert field.dist[chain[0]] == 3 * costs.orth + costs.diag and _decode(field.dist[chain[0]], costs) == 3.0 + SQRT2
    for flank in (Cell(1, 0), Cell(0, 1)):
        assert _cost(field, _covered(ObstaclePlacement(flank, 1), grid, field.stride), goal, start) == 5.0
        assert dijkstra_oracle(obstruct(grid, ObstaclePlacement(flank, 1)), goal, start).cost == 5.0
    # A target that is itself a cut root: (1,1)'s tree step is that diagonal,
    # so with a flank blocked no cell has a surviving tree route to it, yet
    # the search still ends when it pops (1,1) itself.
    target = Cell(1, 1)
    for flank in (Cell(1, 0), Cell(0, 1)):
        placement = ObstaclePlacement(flank, 1)
        for origin in (goal, Cell(3, 2), Cell(0, 2)):
            expected = dijkstra_oracle(obstruct(grid, placement), origin, target).cost
            assert _cost(field, _covered(placement, grid, field.stride), origin, target) == expected
