"""Optimal planning on 8-connected grids.

`astar` returns the canonical minimum-cost path, which matters downstream:
obstacle candidates are enumerated along the returned cells, so two correct
planners that tie-break differently would disagree about attack results.
The tests cross-check it against a separate Dijkstra oracle
(`tests/oracles.py`), the independent check of the rule below: it keeps
each cell's optimal parent with the lowest (row, col) instead and builds
the same canonical path from its chain of parents.

Canonical path construction:

* Costs are tracked as exact (orthogonal, diagonal) step-count pairs; the
  float value of a pair is always computed as ``k + m * sqrt(2)`` in one
  expression, so mathematically equal costs compare bitwise equal. Distinct
  pairs on desk-scale grids differ by far more than the float error.
* The canonical path is built by one rule, in `_backtrack` alone: walk back
  from the goal, each time to the lowest-(row, col) neighbour whose exact
  pair plus the step equals the current pair. It needs exact pairs only on
  the goal and every optimal predecessor on the way back. A full distance
  field has them, and so does `_search` when the goal pops: it orders its
  heap by (f, -h, row, col), which closes every optimal predecessor of a
  cell before the cell itself.

Every search runs on a flat core: the grid becomes one byte string with a
blocked border one cell wide, and cell (col, row) becomes the index
``(row + 1) * (width + 2) + col + 1``. That index sorts exactly like
(row, col), so the heap orders and the backtrack's tie-break above use it
directly.

The attack plans many goals from one start and needs each candidate's
cost but only the winner's path, so the core also offers a
`distance_field`: one Dijkstra of exact (orth, diag) distances from the
start, shared by every goal on the same grid. A goal's canonical baseline
is backtracked from it by the rule above, and each candidate is scored by
a cost-only A* from the goal back to the start on an obstructed copy,
with the field as its heuristic. The race prices the robot's replan with
the same search, toward the cell where it halted.

A side-1 candidate that blocks needs no search at all. Corner cutting is
forbidden, so a legal diagonal always has both flanks free and can be
replaced by its two orthogonal steps, on any obstructed copy too: start
and goal stay connected exactly when they are connected over 4-connected
free cells. A one-cell obstacle therefore blocks exactly when its cell is
a cut vertex between them, and one lowpoint DFS from the start names
every such cell at once (`_separators`).
"""

import heapq
import math
from dataclasses import dataclass

from .errors import BadEndpointError, NoPathError
from .gridmap import Cell, GridMap

SQRT2 = math.sqrt(2.0)

# Orthogonal moves first; diagonals are only legal when both flanking
# orthogonal cells are free (no corner cutting).
_MOVES = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1))


@dataclass(frozen=True)
class Path:
    """A planned route: cell sequence and its cost in cell steps."""

    cells: tuple
    cost: float

    @classmethod
    def from_cells(cls, cells) -> "Path":
        return cls(tuple(cells), _running_costs(cells)[-1])


def prefix_costs(path: Path) -> tuple:
    """Cumulative step cost at every path index; the last one is path.cost."""
    return _running_costs(path.cells)


def _running_costs(cells) -> tuple:
    """Cumulative step cost at every index, each in exact k + m*sqrt(2) form."""
    out = [0.0]
    orth = diag = 0
    for a, b in zip(cells, cells[1:]):
        if a.col != b.col and a.row != b.row:
            diag += 1
        else:
            orth += 1
        out.append(orth + diag * SQRT2)
    return tuple(out)


def euclidean_distance(a: Cell, b: Cell, cell_size: float) -> float:
    """Straight-line distance between two cell centres, in metres."""
    return cell_size * math.hypot(a.col - b.col, a.row - b.row)


def _check_endpoints(grid: GridMap, start: Cell, goal: Cell):
    _check_endpoint(grid, "start", start)
    _check_endpoint(grid, "goal", goal)


def _check_endpoint(grid: GridMap, label: str, cell: Cell):
    if not grid.in_bounds(cell):
        raise BadEndpointError(f"{label} {cell} is outside the {grid.width}x{grid.height} map")
    if grid.is_occupied(cell):
        raise BadEndpointError(f"{label} {cell} is occupied")


# ----------------------------------------------------------- flat core
#
# A grid of width w and height h is one byte string of (w + 2) * (h + 2)
# bytes, non-zero where occupied, with a blocked border one cell wide, so a
# neighbour index never needs a bounds check. `stride` is w + 2.


def _flatten(grid: GridMap) -> tuple:
    """The grid's flat cells and their stride."""
    stride = grid.width + 2
    cells = bytearray(b"\x01") * (stride * (grid.height + 2))
    for row, occupied in enumerate(grid.rows, 1):
        cells[row * stride + 1:row * stride + 1 + grid.width] = bytes(occupied)
    return bytes(cells), stride


def _index(cell: Cell, stride: int) -> int:
    return (cell.row + 1) * stride + cell.col + 1


def _blocked(cells: bytes, stride: int, covered) -> bytearray:
    """A copy of the flat cells with the in-bounds cells `covered` occupied."""
    out = bytearray(cells)
    for cell in covered:
        out[_index(cell, stride)] = 1
    return out


def _cell(index: int, stride: int) -> Cell:
    row, col = divmod(index, stride)
    return Cell(col - 1, row - 1)


def _moves(stride: int) -> tuple:
    """(offset, flank, flank) per move in _MOVES order; flanks are 0 for orthogonal moves."""
    return tuple(
        (dr * stride + dc, dc, dr * stride) if dc and dr else (dr * stride + dc, 0, 0)
        for dc, dr in _MOVES
    )


def _search(cells: bytes, stride: int, start: int, goal: int):
    """Canonical A* between two free indices; the Path, or None when no route exists.

    The octile heuristic is consistent and the heap pops by (f, -h, index),
    so every cell on an optimal route to the goal is closed, with its exact
    pair, before the goal pops; `_backtrack` then builds the path on them.
    """
    size = len(cells)
    orth = [0] * size
    diag = [0] * size
    cost = [None] * size  # orth + diag*SQRT2, None until reached
    closed = bytearray(size)
    grow, gcol = divmod(goal, stride)
    push, pop = heapq.heappush, heapq.heappop
    moves = _moves(stride)

    def heuristic(index):
        row, col = divmod(index, stride)
        dc = abs(col - gcol)
        dr = abs(row - grow)
        lo, hi = (dc, dr) if dc < dr else (dr, dc)
        # (orth, diag) pair plus its canonical float value
        return hi - lo, lo, (hi - lo) + lo * SQRT2

    cost[start] = 0.0
    hv = heuristic(start)[2]
    open_heap = [(hv, -hv, start)]
    while open_heap:
        cur = pop(open_heap)[2]
        if closed[cur]:
            continue
        closed[cur] = 1
        if cur == goal:
            return _backtrack(cells, stride, orth, diag, cost, start, goal)
        k, m = orth[cur], diag[cur]
        for offset, flank_a, flank_b in moves:
            nxt = cur + offset
            if cells[nxt]:
                continue
            if flank_a:
                # no corner cutting: both orthogonal neighbours must be free
                if cells[cur + flank_a] or cells[cur + flank_b]:
                    continue
                nk, nm = k, m + 1
            else:
                nk, nm = k + 1, m
            value = nk + nm * SQRT2
            known = cost[nxt]
            if known is None or value < known:
                orth[nxt], diag[nxt], cost[nxt] = nk, nm, value
                hk, hm, hv = heuristic(nxt)
                push(open_heap, ((nk + hk) + (nm + hm) * SQRT2, -hv, nxt))
    return None


class DistanceField:
    """Exact distances from `start` over `grid`, shared by every goal planned from it.

    `cells` and `stride` are the grid's flat core. `orth`, `diag` and `cost`
    are indexed like `cells`: each reached index's orthogonal and diagonal
    step counts and their canonical float value, with cost None where the
    start is out of reach. Moves are symmetric, so these are also the
    distances back to the start.
    """

    # a plain class: a frozen dataclass builds its methods at import, which
    # measured about two thirds of this module's own import time
    __slots__ = ("grid", "start", "cells", "stride", "orth", "diag", "cost")

    def __init__(self, grid: GridMap, start: Cell, cells: bytes, stride: int, orth: list, diag: list, cost: list):
        self.grid, self.start, self.cells, self.stride = grid, start, cells, stride
        self.orth, self.diag, self.cost = orth, diag, cost


def distance_field(grid: GridMap, start: Cell) -> DistanceField:
    """Dijkstra from start over the whole of start's component of grid.

    Raises BadEndpointError for an occupied or out-of-bounds start.
    """
    _check_endpoint(grid, "start", start)
    cells, stride = _flatten(grid)
    source = _index(start, stride)
    size = len(cells)
    orth = [0] * size
    diag = [0] * size
    cost = [None] * size
    done = bytearray(size)
    push, pop = heapq.heappush, heapq.heappop
    moves = _moves(stride)
    cost[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        cur = pop(heap)[1]
        if done[cur]:
            continue
        done[cur] = 1
        k, m = orth[cur], diag[cur]
        for offset, flank_a, flank_b in moves:
            nxt = cur + offset
            if cells[nxt] or done[nxt]:
                continue
            if flank_a:
                if cells[cur + flank_a] or cells[cur + flank_b]:
                    continue
                nk, nm = k, m + 1
            else:
                nk, nm = k + 1, m
            value = nk + nm * SQRT2
            known = cost[nxt]
            if known is None or value < known:
                orth[nxt], diag[nxt], cost[nxt] = nk, nm, value
                push(heap, (value, nxt))
    return DistanceField(grid, start, cells, stride, orth, diag, cost)


def _check_field(field: DistanceField, grid: GridMap, start: Cell):
    """Raise ValueError unless field was built for this grid object from start."""
    if field.grid is not grid:
        raise ValueError("the distance field was built for another grid")
    if field.start != start:
        raise ValueError(f"the distance field starts at {field.start}, not at {start}")


def _backtrack(cells: bytes, stride: int, orth: list, diag: list, cost: list, source: int, goal: int) -> Path:
    """The canonical Path from source to goal on a search's exact pairs.

    `orth`, `diag` and `cost` are indexed like `cells` and must hold the
    exact pair of goal and of every optimal predecessor on the way back;
    cost is None where the search never reached. Walks back from the goal,
    each time to the lowest-index reached neighbour whose exact pair plus
    the step equals the current pair.
    """
    moves = sorted(_moves(stride))  # lowest neighbour index first
    chain = [goal]
    cur = goal
    while cur != source:
        k, m = orth[cur], diag[cur]
        for offset, flank_a, flank_b in moves:
            prev = cur + offset
            if cells[prev] or cost[prev] is None:
                continue
            if flank_a:
                if cells[cur + flank_a] or cells[cur + flank_b]:
                    continue
                if orth[prev] == k and diag[prev] == m - 1:
                    break
            elif orth[prev] == k - 1 and diag[prev] == m:
                break
        cur = prev
        chain.append(cur)
    chain.reverse()
    return Path.from_cells([_cell(i, stride) for i in chain])


def _lowpoint_dfs(cells: bytes, stride: int, root: int) -> tuple:
    """Tarjan's lowpoint DFS over the 4-connected free cells from root.

    Returns (parent, disc, low), indexed like `cells`: the DFS tree parent
    (-1 at the root and off the tree), the discovery time (from 1; 0 where
    root's component does not reach) and the lowest discovery time among
    the cell, its subtree and the cells they reach by one non-tree edge.
    Iterative, so a long corridor cannot exhaust the recursion limit.
    """
    size = len(cells)
    parent = [-1] * size
    disc = [0] * size
    low = [0] * size
    tried = bytearray(size)  # moves tried so far from each cell on the stack
    steps = (1, stride, -1, -stride)
    disc[root] = low[root] = clock = 1
    stack = [root]
    while stack:
        cur = stack[-1]
        move = tried[cur]
        if move == 4:
            stack.pop()
            up = parent[cur]
            if up >= 0 and low[cur] < low[up]:
                low[up] = low[cur]
            continue
        tried[cur] = move + 1
        nxt = cur + steps[move]
        if cells[nxt]:
            continue
        seen = disc[nxt]
        if not seen:
            clock += 1
            disc[nxt] = low[nxt] = clock
            parent[nxt] = cur
            stack.append(nxt)
        elif seen < low[cur]:
            # the edge back to the parent counts too: it can only lower
            # low(cur) to disc(parent), which passes the test in _separators
            low[cur] = seen
    return parent, disc, low


def _separators(lowpoints: tuple, goal: int) -> set:
    """The free indices whose blocking alone cuts every route from the start to goal.

    `lowpoints` is `_lowpoint_dfs` from the start, and goal must be in its
    reach; neither the start nor goal is ever in the set. The answer holds
    for 8-connected moves without corner cutting: a legal diagonal has both
    flanks free, so it can be replaced by its two orthogonal steps, and
    blocking cells keeps that true. Two cells are therefore connected on
    any blocked copy of the grid exactly when they are connected over its
    4-connected free cells, and a blocked cell cuts the start from goal
    exactly when it is a cut vertex between them in that graph. On the DFS
    tree those are the goal's proper ancestors p below the root whose child
    a toward goal has low(a) >= disc(p): nothing in a's subtree, which
    holds goal, reaches above p without passing p (Tarjan 1972; Hopcroft &
    Tarjan 1973).
    """
    parent, disc, low = lowpoints
    cuts = set()
    child, up = goal, parent[goal]
    while up >= 0 and parent[up] >= 0:
        if low[child] >= disc[up]:
            cuts.add(up)
        child, up = up, parent[up]
    return cuts


def _cost(cells: bytearray, field: DistanceField, origin: int, target: int):
    """Exact (orth, diag) cost of the cheapest route from origin to target, or None.

    `cells` is the field's grid with occupied cells added, and `target` is
    a free index in the start's component. The heuristic is the field's
    distance from the start, d_s. Toward any target t that is the same as
    d_s(x) - d_s(t), shifted by a constant that leaves the pop order
    unchanged. Blocking cells only removes moves, so by the triangle
    inequality d_s(x) - d_s(t) never overestimates the distance from x to
    t on `cells` and stays consistent: it is an A* heuristic, and a cell
    the field cannot reach cannot reach t at all. For t the start itself
    it is exact on the unobstructed map. Moves are symmetric, so the cost
    is also that of the route from target to origin.
    """
    size = len(cells)
    orth = [0] * size
    diag = [0] * size
    cost = [None] * size
    closed = bytearray(size)
    h_orth, h_diag, h_cost = field.orth, field.diag, field.cost
    push, pop = heapq.heappush, heapq.heappop
    moves = _moves(field.stride)
    cost[origin] = 0.0
    # among equal f, the cell nearest the start first: with an exact
    # heuristic an unobstructed route is walked straight down
    open_heap = [(h_cost[origin], h_cost[origin], origin)]
    while open_heap:
        cur = pop(open_heap)[2]
        if closed[cur]:
            continue
        if cur == target:
            return orth[cur], diag[cur]
        closed[cur] = 1
        k, m = orth[cur], diag[cur]
        for offset, flank_a, flank_b in moves:
            nxt = cur + offset
            if cells[nxt] or closed[nxt]:
                continue
            hv = h_cost[nxt]
            if hv is None:
                continue
            if flank_a:
                if cells[cur + flank_a] or cells[cur + flank_b]:
                    continue
                nk, nm = k, m + 1
            else:
                nk, nm = k + 1, m
            value = nk + nm * SQRT2
            known = cost[nxt]
            if known is None or value < known:
                orth[nxt], diag[nxt], cost[nxt] = nk, nm, value
                push(open_heap, ((nk + h_orth[nxt]) + (nm + h_diag[nxt]) * SQRT2, hv, nxt))
    return None


def astar(grid: GridMap, start: Cell, goal: Cell) -> Path:
    """Minimum-cost path from start to goal under 8-connectivity.

    Diagonal steps cost sqrt(2) and are forbidden when either flanking
    orthogonal cell is occupied. Raises BadEndpointError for occupied or
    out-of-bounds endpoints and NoPathError when the goal is unreachable.
    """
    _check_endpoints(grid, start, goal)
    cells, stride = _flatten(grid)
    path = _search(cells, stride, _index(start, stride), _index(goal, stride))
    if path is None:
        raise NoPathError(f"no path from {start} to {goal}")
    return path
