"""Independent reference implementations that the tests compare against.

None of this runs in the package: the Dijkstra planner cross-checks `astar`
and, run over a whole component, `distance_field`; `obstruct` builds the
map a placement leaves behind, the cut oracle and the move count
cross-check `planner._side1`, and the attack oracle cross-checks
`brute_force_attack`.
"""

import heapq
import math

from gridjam.attack import AttackPlan, CandidateEval, Outcome
from gridjam.errors import BadEndpointError, NoPathError
from gridjam.gridmap import Cell, GridMap, ObstaclePlacement
from gridjam.planner import Path

SQRT2 = math.sqrt(2.0)

# A replanned cost must beat the best so far by more than this to win. The
# oracle keeps its own tolerance, independent of the code under test.
COST_TOL = 1e-9


def dijkstra_oracle(grid: GridMap, start: Cell, goal: Cell) -> Path:
    """Heuristic-free reference planner with the same contract as astar.

    Kept independent of astar on purpose: only the Cell/GridMap/Path
    plumbing is shared, so the two can cross-validate each other.
    """
    for label, cell in (("start", start), ("goal", goal)):
        if not (0 <= cell.col < grid.width and 0 <= cell.row < grid.height) or grid.rows[cell.row][cell.col]:
            raise BadEndpointError(f"{label} {cell} is occupied or outside the map")
    if start == goal:
        return priced_path((start,))
    _, via, done = _dijkstra(grid, start, goal)
    if goal not in done:
        raise NoPathError(f"no path from {start} to {goal}")
    cells = [goal]
    while cells[-1] != start:
        cells.append(via[cells[-1]])
    cells.reverse()
    return priced_path(cells)


def priced_path(cells) -> Path:
    """A Path of these cells priced by counting its steps: k straight and m diagonal ones cost k + m * SQRT2.

    The planner prices its own paths; this arithmetic is the oracle's, so
    a comparison of costs checks the planner's against it.
    """
    diagonal = sum(1 for a, b in zip(cells, cells[1:]) if a.col != b.col and a.row != b.row)
    return Path(tuple(cells), len(cells) - 1 - diagonal + diagonal * SQRT2)


def oracle_distances(grid: GridMap, start: Cell) -> dict:
    """The cost of the cheapest route from the free cell start to every cell it reaches."""
    dist, _, _ = _dijkstra(grid, start, None)
    return {cell: k + m * SQRT2 for cell, (k, m) in dist.items()}


def _dijkstra(grid: GridMap, start: Cell, goal) -> tuple:
    """(dist, via, done) of a Dijkstra from start that stops once goal settles.

    `dist` holds each reached cell's (orth, diag) step counts, exact for the
    cells in `done`; `via` holds its optimal parent with the lowest
    (row, col). With goal None it settles the start's whole component.
    """
    dist = {start: (0, 0)}
    via = {}
    done = set()
    heap = [(0.0, start.row, start.col)]

    while heap:
        _, row, col = heapq.heappop(heap)
        node = Cell(col, row)
        if node in done:
            continue
        done.add(node)
        if node == goal:
            break
        k, m = dist[node]
        for c2, r2, diagonal in _legal_moves(grid, col, row):
            cand = (k, m + 1) if diagonal else (k + 1, m)
            other = Cell(c2, r2)
            seen = dist.get(other)
            if seen is None or cand[0] + cand[1] * SQRT2 < seen[0] + seen[1] * SQRT2:
                dist[other] = cand
                via[other] = node
                heapq.heappush(heap, (cand[0] + cand[1] * SQRT2, r2, c2))
            elif cand == seen and other not in done:
                prev = via[other]
                if (row, col) < (prev.row, prev.col):
                    via[other] = node
    return dist, via, done


def _legal_moves(grid: GridMap, col: int, row: int):
    """(col, row, diagonal) of each legal move from the free cell (col, row): 8-connected, no corner cutting."""
    occupied = grid.rows
    for dcol in (-1, 0, 1):
        for drow in (-1, 0, 1):
            if dcol == 0 and drow == 0:
                continue
            c2 = col + dcol
            r2 = row + drow
            if c2 < 0 or c2 >= grid.width or r2 < 0 or r2 >= grid.height:
                continue
            if occupied[r2][c2]:
                continue
            diagonal = dcol != 0 and drow != 0
            if diagonal and (occupied[row][c2] or occupied[r2][col]):
                continue
            yield c2, r2, diagonal


def oracle_moves(grid: GridMap, cell: Cell) -> int:
    """The number of legal moves from the free cell, by the rule `dijkstra_oracle` moves by."""
    return sum(1 for _ in _legal_moves(grid, cell.col, cell.row))


def obstruct(grid: GridMap, placement: ObstaclePlacement) -> GridMap:
    """A copy of grid with the placement's square occupied, clipped at the border."""
    half = placement.side // 2
    center = placement.center
    blocked = [list(r) for r in grid.rows]
    for row in range(max(0, center.row - half), min(grid.height, center.row + half + 1)):
        for col in range(max(0, center.col - half), min(grid.width, center.col + half + 1)):
            blocked[row][col] = True
    return GridMap(grid.width, grid.height, grid.cell_size, tuple(tuple(r) for r in blocked))


def oracle_cuts(grid: GridMap, start: Cell, goal: Cell) -> set:
    """The cells, neither start nor goal, whose one-cell obstacle leaves goal unreachable from start.

    Such a cell lies on every route, the oracle's own among them, so only
    that route's inner cells are blocked in turn. Raises NoPathError when
    no route reaches goal at all.
    """
    cuts = set()
    for cell in dijkstra_oracle(grid, start, goal).cells[1:-1]:
        try:
            dijkstra_oracle(obstruct(grid, ObstaclePlacement(cell, 1)), start, goal)
        except NoPathError:
            cuts.add(cell)
    return cuts


def attack_oracle(grid: GridMap, start: Cell, goal: Cell, side: int = 3) -> AttackPlan:
    """Planner-independent re-implementation of the attack, for tests.

    Uses dijkstra_oracle for every plan and obstruct for every overlay, so
    agreement with brute_force_attack checks both the attack loop and the
    planner at once.
    """
    baseline = dijkstra_oracle(grid, start, goal)

    half = side // 2
    ledger = []
    best = None
    best_path = None
    best_cost = baseline.cost
    for index, step in enumerate(baseline.cells):
        placement = ObstaclePlacement(step, side)
        buried = any(
            abs(end.col - step.col) <= half and abs(end.row - step.row) <= half
            for end in (start, goal)
        )
        if buried:
            ledger.append(CandidateEval(index, placement, Outcome.INFEASIBLE))
            continue
        try:
            replanned = dijkstra_oracle(obstruct(grid, placement), start, goal)
        except NoPathError:
            ledger.append(CandidateEval(index, placement, Outcome.BLOCKING))
            continue
        ledger.append(CandidateEval(index, placement, Outcome.EVALUATED, replanned.cost))
        if replanned.cost > best_cost + COST_TOL:
            best = placement
            best_path = replanned
            best_cost = replanned.cost
    gain = best_cost - baseline.cost if best is not None else 0.0
    return AttackPlan(baseline, best, best_path, tuple(ledger), gain)
