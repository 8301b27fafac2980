"""Optimal planning on 8-connected grids.

`astar` returns the canonical minimum-cost path, which matters downstream:
obstacle candidates are enumerated along the returned cells, so two correct
planners that tie-break differently would disagree about attack results.
The tests cross-check it against a separate Dijkstra oracle
(`tests/oracles.py`) that builds the same canonical path.

Canonical path construction, shared with the oracle:

* Costs are tracked as exact (orthogonal, diagonal) step-count pairs; the
  float value of a pair is always computed as ``k + m * sqrt(2)`` in one
  expression, so mathematically equal costs compare bitwise equal. Distinct
  pairs on desk-scale grids differ by far more than the float error.
* The open heap pops every optimal predecessor of a node before the node
  itself (Dijkstra orders by (g, row, col); A* orders by (f, -h, row, col),
  which defers a node until all equal-f ancestors with larger h are done).
* Each node keeps the optimal parent with the lowest (row, col). The chain
  of those parents from the goal is therefore a pure function of the cost
  field, identical for both planners.
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
    for label, cell in (("start", start), ("goal", goal)):
        if not grid.in_bounds(cell):
            raise BadEndpointError(f"{label} {cell} is outside the {grid.width}x{grid.height} map")
        if grid.is_occupied(cell):
            raise BadEndpointError(f"{label} {cell} is occupied")


def astar(grid: GridMap, start: Cell, goal: Cell) -> Path:
    """Minimum-cost path from start to goal under 8-connectivity.

    Diagonal steps cost sqrt(2) and are forbidden when either flanking
    orthogonal cell is occupied. Raises BadEndpointError for occupied or
    out-of-bounds endpoints and NoPathError when the goal is unreachable.
    """
    _check_endpoints(grid, start, goal)

    rows = grid.rows
    width, height = grid.width, grid.height
    gcol, grow = goal.col, goal.row

    def heuristic(col, row):
        dc = abs(col - gcol)
        dr = abs(row - grow)
        lo, hi = (dc, dr) if dc < dr else (dr, dc)
        # (orth, diag) pair plus its canonical float value
        return hi - lo, lo, (hi - lo) + lo * SQRT2

    g_pairs = {start: (0, 0)}
    parent = {}
    closed = set()
    hk, hm, hv = heuristic(start.col, start.row)
    open_heap = [(hv, -hv, start.row, start.col)]

    while open_heap:
        _, _, row, col = heapq.heappop(open_heap)
        cur = Cell(col, row)
        if cur in closed:
            continue
        closed.add(cur)
        if cur == goal:
            chain = [cur]
            while chain[-1] in parent:
                chain.append(parent[chain[-1]])
            chain.reverse()
            return Path.from_cells(chain)
        orth, diag = g_pairs[cur]
        for dc, dr in _MOVES:
            ncol = col + dc
            nrow = row + dr
            if not (0 <= ncol < width and 0 <= nrow < height) or rows[nrow][ncol]:
                continue
            if dc and dr:
                # no corner cutting: both orthogonal neighbours must be free
                if rows[row][ncol] or rows[nrow][col]:
                    continue
                npair = (orth, diag + 1)
            else:
                npair = (orth + 1, diag)
            nxt = Cell(ncol, nrow)
            known = g_pairs.get(nxt)
            if known is None or npair[0] + npair[1] * SQRT2 < known[0] + known[1] * SQRT2:
                g_pairs[nxt] = npair
                parent[nxt] = cur
                hk, hm, hv = heuristic(ncol, nrow)
                fv = (npair[0] + hk) + (npair[1] + hm) * SQRT2
                heapq.heappush(open_heap, (fv, -hv, nrow, ncol))
            elif npair == known and nxt not in closed:
                # same optimal cost via another parent: keep the lowest one
                old = parent[nxt]
                if (row, col) < (old.row, old.col):
                    parent[nxt] = cur
    raise NoPathError(f"no path from {start} to {goal}")
