"""Optimal planning on 8-connected grids.

`astar` returns the canonical minimum-cost path, which matters downstream:
obstacle candidates are enumerated along the returned cells, so two correct
planners that tie-break differently would disagree about attack results.
The tests cross-check it against a separate Dijkstra oracle
(`tests/oracles.py`), the independent check of the rule below: it keeps
each cell's optimal parent with the lowest (row, col) instead and builds
the same canonical path from its chain of parents.

Every cost inside this module is exact: k orthogonal and m diagonal steps
cost ``k * orth + m * diag``, with ``orth = 2**S`` and ``diag =
round(SQRT2 * orth) | 1``. That is odd, and ``eps = diag - sqrt(2) * orth``
is below 1.39 in absolute value. There are two tiers of these, `_Costs`,
and a field picks one from the size n of its flat core alone (its number
of indices, below), so every field on one grid picks the same:

* the float tier, on a core of fewer than `_FLOAT_CELLS` = 59,000 cells
  (about 240 x 240): S = 35, eps about 1.38, C doubles, and the sentinels
  (below) are -inf and inf;
* the int tier, on any larger map: S = 52, eps about 0.44, Python ints,
  and the sentinels are -2**120 and 2**120.

The tier changes the number type, not the code: the field carries its
`_Costs`, and every kernel reads the constants from it.

* Every value a search forms has fewer than 2n steps. A cost is that of a
  simple route, over fewer than n free cells; a relaxed value adds one step
  to such a cost, and a search's key f adds a field's cost to that. So
  every component of a value, and of a difference of two, is below 2n in
  absolute value.
* Equal values are equal pairs: ``dk * orth == -dm * diag`` needs 2**S to
  divide dm, since diag is odd, so dk = dm = 0 for any components below
  2**S.
* Values order exactly like ``k + m * sqrt(2)``. Two of them differ by
  ``orth * t + dm * eps`` with ``t = dk + dm*sqrt(2)``. For dm = 0 that is
  ``orth * dk``. Otherwise ``|t| = |dk**2 - 2*dm**2| / |dk - dm*sqrt(2)|``,
  whose numerator is a non-zero integer, so ``|t| >= 1 / (|dk| +
  sqrt(2)*|dm|)``, and the first term outweighs the second, and fixes the
  sign, when ``|dm| * |eps| * (|dk| + sqrt(2)*|dm|) < orth``. In the int
  tier every component is below 2**25 on any map of fewer than 2**24 cells
  (4096 x 4096), far beyond desk scale, and the left side is below 2**50 *
  1.07 < 2**52. `GridMap` rejects larger maps. In the float tier only near
  ties need the bound: when ``|t| >= 1`` the first term is at least orth,
  above ``|dm| * |eps| < 2**18``. When ``|t| < 1``, dk and dm have opposite
  signs and ``sqrt(2)*|dm| < |dk| + 1 <= 2n``, so the left side is below
  ``sqrt(2)*n * 1.39 * (4n + 1)``, under 2.8 * 10**10 < 2**35 for n <
  59,000.
* Every float is exact: a value has fewer than 2n < 118,000 steps, each of
  at most diag < 1.4143 * 2**35, so it is an integer below 2**52.35, and
  doubles hold every integer below 2**53. Each sum or difference a kernel
  takes is such a value too, so no operation rounds, and every comparison
  decides as it would on `k + m * sqrt(2)`: the searches pop and push the
  same cells in either tier.
* An exact cost becomes a float in one place only, `_decode`: m is the
  cost, as an int, times the inverse of diag modulo 2**S, k is the rest
  shifted down, and the float is ``k + m * sqrt(2)``, bitwise the last of
  `prefix_costs` for the same steps. Every cost the module returns, a
  candidate's score from `_cost` and a route's cost from `_backtrack`, is
  that float of an exact cost.

The canonical path is built by one rule, in `_backtrack` alone: walk back
from the goal, each time to the lowest-(row, col) neighbour whose exact
cost plus the step equals the current cost. `_walk` takes that walk for
it, and in the reverse neighbour order for `_spare`'s route. It needs
exact costs only on the goal and every optimal predecessor on the way
back. A full distance field has them, and so does `_search`: its search
pops every cell whose f is at most the optimum before it ends (`_astar`),
which closes every cell of every optimal route, and, when it searched from
the goal, it turns those costs into start-side ones in one pass outward
from the start.

Every search runs on a flat core: the grid becomes one list with a
blocked border one cell wide, and cell (col, row) becomes the index
``(row + 1) * (width + 2) + col + 1``. That index sorts exactly like
(row, col), so the backtrack's tie-break above uses it directly. The
flat core is private to this module: callers pass cells, obstacle
placements and a `distance_field`, one Dijkstra of exact distances from a
start, shared by every goal planned from it on the same grid. Moves have
two lengths only, so that Dijkstra keeps one FIFO queue per length instead
of a heap. Each field carries one move table, `moves`, built with it,
which defines the moves for every other function. The two search
kernels, `distance_field` and `_astar`, spell each popped cell's 8 moves
out instead, with no loop: they read its 4 straight neighbours' entries
once, relax each at one cost, and then try each diagonal, at the other,
only when both of its flanks, two of those same reads, are free. Both
relax in one fixed order, E, W, S, N and then SE, NE, SW, NW, which
breaks the field's FIFO ties and so shapes its tree.

Each search's cost list is its only record of the map. Besides costs it
holds its tier's two sentinels: `wall`, below every cost, on each blocked
index, the border and an obstacle included, and `far`, above every cost,
on each free index not reached yet. Each field keeps one template,
`blank`, the grid itself: `wall` on its blocked indices and `far` on the
rest. Every search starts from a copy of it, with its obstacle's indices
set to `wall`, and nothing ever lowers a `wall`, so a flank is free
exactly when its entry is not `wall`. No relaxation moves an entry into or
out of `wall`, so the flank reads taken before the pop's first relaxation
still decide it after. A relaxation is then one test, ``value <
dist[nxt]``, plus a diagonal's two flank tests on those reads:

* a blocked index: no value is below `wall`;
* a settled cell of `distance_field`: cells settle in non-decreasing cost,
  so its cost is at most the popped cell's d, below d + step;
* a cell `_astar` has popped: under a consistent heuristic its g is
  already optimal, so no value is below it.

So every search pushes and pops exactly what explicit blocked, settled and
closed tests would let it. Each kernel discards stale entries at the pop
by its own rule, which exact costs decide exactly: `distance_field` a
diagonal entry whose cell's tree parent is a straight step away, and
`_astar` an entry whose key is not the cell's current g + h.

One private counter, `_work`, keeps the searches' work: a fixed list of
ints. Each search kind, `distance_field`, `_cost` and `_search`, has three
slots from its base (`_FIELD`, `_COST`, `_SEARCH`): its searches, pops and
pushes; `_BACKTRACK` and `_SIDE1` count the calls of `_backtrack` and
`_side1`. A pop is one entry taken off a search's levels or queues,
stale entries included, and a push is one entry put on them other than the
origin's seed. Each kernel counts its pops in a local int and adds to the
counter once, at its end; `_astar` adds to the kind its caller names. Each
derives its pushes: `_astar`'s are its pops plus what its levels still
hold, less the seed, and `distance_field`'s queues drain, so its pushes
are its pops less the seed. `_search`'s pass outward from the start and
`_side1`'s flood push onto plain lists, not heaps, and are not counted.

A placement becomes the flat indices of the square that
`ObstaclePlacement.extent` clips at the border (`_covered`); `_cost`
takes those indices, built once by its caller. Callers ask five
questions of the field, each answered by one function. Two of them,
`_cost` and `_search`, run one A* kernel, `_astar`, on a copy of the
field's `blank` with the obstacle blocked; they pass it their own heuristic
and stop flags, and read their own result from its costs. The kernel pops
by levels of equal f: one dict of lists maps each exact key to the indices
pushed with it, and the next level is the dict's smallest key. It stops
only once the level of the first flagged cell it pops has popped whole.
That level is the optimum, so when the kernel stops, every cell of f at
most the optimum that an optimal route from the origin reaches before any
flagged cell has closed with its exact g, whatever the order of pops
within a level.

* `_route`: the canonical route to a goal, backtracked on the field by the
  rule above. It is the attack's baseline, and `astar` is the route on a
  fresh field.
* `_cost`: the cost alone of the cheapest route between two cells around
  an obstacle, with the field as the heuristic. It ends at the target or
  at the first cell it pops in the target's subtree of the field's
  shortest-path tree whose route up that tree to the root survives the
  obstacle: there the heuristic is exact, so that cell's f is the
  optimum. `_exits` flags those cells, and it tests the tree's steps at
  the obstacle's 4 corners alone: a step cut by a blocked flank joins two
  neighbours of that flank in perpendicular directions, and unless one of
  them is covered, and so cleared already, only a corner has both outside
  the square (proof in its docstring). The attack scores
  each candidate with it from the goal back to the start on the start's
  field, and the race prices the robot's replan with it, toward the cell
  where the robot halted. An attack on a route that is long against the
  start's component also builds a field from the goal. It scores each
  candidate in the first half of the baseline's cost on that field, from
  the start toward the goal. A search pops the band between its origin and
  the obstacle, so each candidate is searched from the nearer end. The
  answer is bitwise the same on either field: both searches end at the
  optimum, whose exact cost is unique.
* `_search`: the canonical route around the winning obstacle, backtracked
  on the obstructed copy. It searches from the goal until the start's
  level has popped, with the start's field as the heuristic, exact
  wherever the obstacle casts no shadow; for a winner in the first half of
  a route that got a field from the goal, it searches from the start with
  that one instead, the candidates' own nearer-end rule. The canonical
  rule picks the same path either way.
* `_side1`: two flags per cell of a route, which the attack reads for
  side-1 candidates: whether blocking the cell alone cuts the route's
  ends apart, and whether its side-1 cost is that of the cell before it,
  in a one-cell corridor (proofs in its docstring).
* `_spare`: the cells of a second optimal route to a goal; an obstacle
  that misses them gains nothing (below).

A candidate that misses the spare route needs no search. `_spare`
walks back from the goal on the start's field like `_backtrack`, but each
time to the highest-index matching neighbour, and flags the route's cells
and both flanks of each of its diagonal steps. The baseline takes the
lowest-index optimal step back at every cell and this route the highest,
so on open floors, where equally short steps abound, the two part early
and most squares along the baseline miss this one. Take an obstacle that
covers no flagged index, and let C0 be the baseline's exact cost.

* Blocking cells only removes moves, so the optimum around the obstacle
  is at least C0.
* Every cell of the spare route and both flanks of each of its diagonals
  stay free, so the route stays legal on the obstructed copy, and the
  optimum is at most C0.
* So the optimum is C0 exactly, and it decodes to the same float as the
  baseline's cost (above): the attack records `baseline.cost` bitwise.
* A cut vertex between the start and the goal lies on every route, the
  spare one included, so no blocking candidate is ever decided this way.
"""

import math
from collections import defaultdict, deque
from dataclasses import dataclass

from .errors import NoPathError
from .gridmap import Cell, GridMap, ObstaclePlacement, check_endpoint

SQRT2 = math.sqrt(2.0)


class _Costs:
    """One tier of exact costs (see above): its step costs, in its number type, and its sentinels.

    `orth` and `diag` cost one orthogonal and one diagonal step, 2**bits and
    round(sqrt(2) * 2**bits) | 1; `inverse` is diag's inverse modulo
    2**bits, for `_decode`. `wall` lies below every exact cost and `far`
    above it: every cost list holds them on blocked and unreached indices.
    """

    __slots__ = ("bits", "orth", "diag", "inverse", "wall", "far")

    def __init__(self, bits: int, number: type, wall, far):
        orth = 1 << bits
        diag = round(SQRT2 * orth) | 1
        self.bits, self.orth, self.diag, self.inverse = bits, number(orth), number(diag), pow(diag, -1, orth)
        self.wall, self.far = wall, far


# a flat core of fewer cells than this holds its exact costs in doubles
_FLOAT_CELLS = 59_000
_FLOAT_COSTS = _Costs(35, float, -math.inf, math.inf)
# every exact cost of the int tier, below 2**25 * (orth + diag) < 2**79,
# lies strictly between its sentinels
_INT_COSTS = _Costs(52, int, -(1 << 120), 1 << 120)

# the work counter (see above): three slots from each search kind's base
_FIELD, _COST, _SEARCH, _BACKTRACK, _SIDE1 = 0, 3, 6, 9, 10
_work = [0] * 11


@dataclass(frozen=True)
class Path:
    """A planned route: cell sequence and its cost in cell steps."""

    cells: tuple
    cost: float


def prefix_costs(path: Path) -> tuple:
    """Cumulative step cost at every path index, each in exact k + m*sqrt(2) form; the last one is path.cost."""
    cells = path.cells
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


# ----------------------------------------------------------- flat core
#
# A grid of width w and height h is one cost list of (w + 2) * (h + 2)
# entries, `wall` where occupied, with a blocked border one cell wide, so a
# neighbour index never needs a bounds check. `stride` is w + 2.


def _index(cell: Cell, stride: int) -> int:
    return (cell.row + 1) * stride + cell.col + 1


def _covered(placement: ObstaclePlacement, grid: GridMap, stride: int) -> list:
    """The flat indices of the placement's cells inside the grid, row by row."""
    cols, rows = placement.extent(grid)
    return [(row + 1) * stride + col + 1 for row in rows for col in cols]


def _obstructed(field: "DistanceField", covered: list) -> list:
    """A copy of the field's `blank` with the indices `covered` blocked: `wall` on them too."""
    dist = field.blank[:]
    wall = field.costs.wall
    for index in covered:
        dist[index] = wall
    return dist


def _cell(index: int, stride: int) -> Cell:
    row, col = divmod(index, stride)
    return Cell(col - 1, row - 1)


def _decode(cost, costs: _Costs) -> float:
    """The float k + m*sqrt(2) of the exact cost k*orth + m*diag in the tier `costs`."""
    cost = int(cost)
    m = (cost * costs.inverse) & ((1 << costs.bits) - 1)
    return ((cost - m * int(costs.diag)) >> costs.bits) + m * SQRT2


def _astar(field: "DistanceField", origin: int, h: list, stop: bytearray, dist: list, kind: int):
    """A* over the cost list `dist` from origin: a popped index x with stop[first[x]] set, or None.

    `h` and `dist` are indexed like the field's flat core, and `h` is a
    consistent heuristic in the field's exact costs; `first` is the
    field's. The search pops by levels of equal f = g + h[x], Dial's
    bucket queue (Dial 1969) on exact keys: `levels`, a dict of lists,
    holds each key pushed and not yet read with the indices pushed at it,
    in push order, and the next level is its smallest key. Each level's
    list is read in push order while it grows: a consistent heuristic
    never pushes below the current key. Three invariants keep this the
    order of a heap of the distinct keys:

    * The level being read stays in `levels` until it has been read whole,
      and is deleted only then: a push at the current key appends to the
      list being read, so it pops in this level, and no later level
      repeats the key.
    * Every read of `levels` is at a key it holds, the one `min` returned:
      `levels` is a `defaultdict`, whose read of a missing key inserts an
      empty level. Each push indexes it only to append.
    * Keys are exact in both tiers, so a level holds exactly the pushes of
      one f, and `min` picks the smallest f left, on floats and on ints
      alike.

    `dist` comes in as the search's map: the field's `wall` on every
    blocked index and its `far` on every other. It leaves with the best g
    found for every reached index, exact on every popped one. A move is
    relaxed when its value is below `dist[nxt]`, which no blocked index
    passes (`wall`) and no popped one either: under a consistent heuristic
    its g is already optimal. A popped entry is stale when its key is not
    the cell's g + h: every push lowers g, so only the cell's last entry
    matches, and it pops before any older one. Keys are exact, so the test
    is too.

    A flagged cell is never expanded, and the search returns the first one
    popped only once its whole level has popped. In every caller (`_cost`,
    `_search`) that level is the optimum, C*, so on return every cell x
    with f(x) <= C* on an optimal route from the origin that passes no
    flagged cell before x has closed at its exact g: until x closes, the
    first open cell on that route sits, with its exact g, in a level of at
    most f(x). The search's work goes to the counter's slots from `kind`,
    its caller's.
    """
    stride, first = field.stride, field.first
    orth, diag, wall = field.costs.orth, field.costs.diag, field.costs.wall
    levels = defaultdict(list)
    dist[origin] = 0
    key = h[origin]
    level = levels[key] = [origin]
    found, pops = None, 0
    while True:
        # `level` stays in `levels` while it is read: a push at `key` lands on it
        for cur in level:
            d = dist[cur]
            if d + h[cur] != key:
                continue
            if stop[first[cur]]:
                if found is None:
                    found = cur
                continue
            # E, W, S, N and then SE, NE, SW, NW, as in `distance_field`,
            # which fixes the order of pops within a level; the straight
            # entries are read once and are the diagonals' flanks too
            east, west, south, north = cur + 1, cur - 1, cur + stride, cur - stride
            d_east, d_west, d_south, d_north = dist[east], dist[west], dist[south], dist[north]
            value = d + orth
            if value < d_east:
                dist[east] = value
                levels[value + h[east]].append(east)
            if value < d_west:
                dist[west] = value
                levels[value + h[west]].append(west)
            if value < d_south:
                dist[south] = value
                levels[value + h[south]].append(south)
            if value < d_north:
                dist[north] = value
                levels[value + h[north]].append(north)
            value = d + diag
            if d_east != wall:
                if d_south != wall:
                    nxt = south + 1
                    if value < dist[nxt]:
                        dist[nxt] = value
                        levels[value + h[nxt]].append(nxt)
                if d_north != wall:
                    nxt = north + 1
                    if value < dist[nxt]:
                        dist[nxt] = value
                        levels[value + h[nxt]].append(nxt)
            if d_west != wall:
                if d_south != wall:
                    nxt = south - 1
                    if value < dist[nxt]:
                        dist[nxt] = value
                        levels[value + h[nxt]].append(nxt)
                if d_north != wall:
                    nxt = north - 1
                    if value < dist[nxt]:
                        dist[nxt] = value
                        levels[value + h[nxt]].append(nxt)
        pops += len(level)
        del levels[key]
        if found is not None or not levels:
            break
        key = min(levels)
        level = levels[key]
    _work[kind] += 1
    _work[kind + 1] += pops
    _work[kind + 2] += pops - 1 + sum(map(len, levels.values()))
    return found


def _search(field: "DistanceField", placement: ObstaclePlacement, goal: Cell, toward: "DistanceField" = None):
    """Canonical route from the field's start to goal with the placement's cells occupied.

    Returns the Path, or None when no route exists; goal must be free. The
    placement is clipped at the border. Both searches run `_astar` on the
    obstructed copy with a field as the heuristic. Blocking cells only
    removes moves, so by the triangle inequality a field's distance from
    its root is a consistent heuristic toward that root on the copy. Each
    search heads toward the root of its field: away from it, d(root, x)
    minus a constant cancels g on every edge of the field's tree, and the
    search degenerates into a Dijkstra. `_backtrack` builds the path on the
    obstructed copy from start-side costs. Every cell a search pops is in
    the start's component, where `first` is one-to-one, so the stop flag is
    set on one cell only, the search's target; a goal out of that component
    has no route.

    Each search pops the target at the optimum's level, f = C*, and
    `_astar` returns only once that level has popped whole. A cell x on an
    optimal route has f(x) <= C*: g(x) is its exact cost from the origin
    along that route, and the consistent h(x) is at most the rest of it.
    Until x closes, the first cell not yet closed on its optimal route from
    the origin, which passes no target before x, sits in a level of at most
    f(x) with its exact g; no such level is left when the search returns.
    So every cell of every optimal route has then closed with its exact
    cost, in either direction and whatever the order within a level.

    When `toward` is a field rooted at goal on the same grid, the search
    runs forward, from the start to the goal, and its own costs are already
    start-side. The attack passes that field for a winner in the first half
    of a long route through a narrow map, nearer the start than the goal,
    where it guides the search better than the start's field guides the
    backward one, and no pass is needed.

    Otherwise the search runs backward, from the goal to the start, guided
    by the start's own field d_s, which is exact wherever the obstacle
    casts no shadow. Its g is b(x), the exact cost from x to the goal on
    the copy once x closes, and the start pops with b = C*, the optimum.
    By the above every cell of every optimal route has closed with its
    exact b when the search returns. One pass outward from the start then
    turns b into start-side costs on exactly those cells: F(start) = 0, and
    a legal step on the copy from a marked p to x with b(x) + step = b(p)
    marks x with F(x) = C* - b(x). A search's cost is never below the true
    one, and the true b(x) + step is at least b(p), so a match means that
    start..p, x..goal is an optimal route: x is on one, and so closed and
    exact. By induction from the start every cell of every optimal route is
    marked, and `_backtrack` walks them to the same path as the forward
    search. The pass pushes each marked cell once onto a plain list, not a
    heap.
    """
    stride, costs = field.stride, field.costs
    start, goal = _index(field.start, stride), _index(goal, stride)
    if field.dist[goal] == costs.far:
        return None
    covered = _covered(placement, field.grid, stride)
    dist = _obstructed(field, covered)
    origin, target, h = (goal, start, field.dist) if toward is None else (start, goal, toward.dist)
    stop = bytearray(field.reached)
    stop[field.first[target]] = 1
    if _astar(field, origin, h, stop, dist, _SEARCH) is None:
        return None
    if toward is None:
        # the pass outward from the start: dist holds b, forward gets F on
        # the same map
        optimum = dist[start]
        forward = _obstructed(field, covered)
        forward[start] = 0
        wall, far, moves = costs.wall, costs.far, field.moves
        marked = [start]
        while marked:
            cur = marked.pop()
            b = dist[cur]
            for offset, step, flank_a, flank_b in moves:
                nxt = cur + offset
                if (dist[nxt] + step == b and forward[nxt] == far
                        and dist[cur + flank_a] != wall and dist[cur + flank_b] != wall):
                    forward[nxt] = optimum - dist[nxt]
                    marked.append(nxt)
        dist = forward
    return _backtrack(field, dist, start, goal)


class DistanceField:
    """Exact distances from `start` over `grid`, shared by every goal planned from it.

    `stride` is the width of the grid's flat core, and `costs` is the tier
    of exact costs that its size picks (see the module docstring). `blank`
    is the flat core itself, the only record of the map every search
    reads: `costs.wall` on every blocked index, the border included, and
    `costs.far` on every free one. Every search on the field copies it for
    its own cost list. `dist` is indexed the same way: each reached index's
    exact cost in that tier, `wall` where `blank` is, and `far` on every
    free index out of the start's reach. Moves are symmetric, so these are
    also the distances back to the start. No search writes to either.

    `parent`, `first` and `end` are indexed the same way and hold the
    field's shortest-path tree. `parent` is the index that last improved
    each reached index: an optimal predecessor, one legal step of 1 or
    sqrt(2) away, and -1 at the start and out of its reach. `first` numbers
    the reached indices in preorder of that tree, so the subtree of x is
    exactly the indices whose `first` lies in [first[x], end[x]). A cell has
    a route up the tree to x, legal on the grid and of cost
    d_s(cell) - d_s(x), exactly when it is in that subtree. Both are 0 out
    of the start's reach.

    `moves` is the move table of every function but the two search
    kernels, which spell their moves out: one (offset, step cost, flank,
    flank) per move, in offset order, so in (row, col) order of the
    neighbour. A diagonal's flanks are its two straight parts; a straight
    move's flanks are 0, the cell itself. A move from a free cell is legal
    when neither flank holds `wall` (no corner cutting), so one test serves
    both kinds of move. Only this module reads any of these; other modules
    pass the field to its functions whole.
    """

    # a plain class: a frozen dataclass builds its methods at import, which
    # measured about two thirds of this module's own import time
    __slots__ = ("grid", "start", "stride", "costs", "blank", "dist", "parent", "first", "end", "moves")

    def __init__(self, grid: GridMap, start: Cell, stride: int, costs: _Costs, blank: list,
                 dist: list, parent: list, first: list, end: list, moves: tuple):
        self.grid, self.start, self.stride, self.costs = grid, start, stride, costs
        self.blank, self.dist, self.parent, self.first, self.end = blank, dist, parent, first, end
        self.moves = moves

    @property
    def reached(self) -> int:
        """The number of cells the start reaches, the start included."""
        return self.end[_index(self.start, self.stride)]


def distance_field(grid: GridMap, start: Cell) -> DistanceField:
    """Dijkstra from start over the whole of start's component of grid.

    Raises BadEndpointError for an occupied or out-of-bounds start.

    Moves have two lengths only, so the frontier is two FIFO queues of
    indices instead of a heap, one per length (Orlin, Madduri, Subramani &
    Williamson 2010), and each pop takes the head with the smaller `dist`,
    the straight head on a tie. The source seeds the straight queue.

    Each queue is sorted by the cost it was pushed with: cells settle in
    non-decreasing cost, and each push costs the settling cell's cost plus
    the queue's one step. An entry goes stale when a cheaper push for its
    cell follows. That push comes from a cell settled no earlier, so it is
    cheaper only with the shorter step: the stale entry is diagonal, the
    cheaper one straight, and a cell is pushed at most once per queue. So
    the straight queue holds no stale entry, and a stale diagonal head x
    has its live entry in the straight queue. Comparing the heads by x's
    current `dist` is still safe. If that entry has not popped, it sits at
    or after the straight head, so that head costs at most dist[x] and
    pops first, on a tie too; every diagonal entry behind x was pushed at
    no less than x's stale cost, above dist[x]. If it has popped, x is
    settled, and popping the stale head only discards it. So every pop
    that settles a cell takes the cheapest live entry, as a heap would.

    The grid goes straight into the field's `blank`, and `dist` starts as a
    copy of it, so a move is relaxed when its value is below `dist[nxt]`:
    never into a blocked index (`wall`), and never into a settled one, whose
    cost is at most the popped cell's, below the value. A diagonal's flanks
    are tested against `wall` on the straight neighbours' entries, read
    before any of the pop's relaxations (see the module docstring).

    Stale entries are still discarded at the pop, and the tree tells them
    without settled flags. A popped straight entry is live, by the above.
    A popped diagonal entry of x is stale exactly when a straight push has
    replaced it: a diagonal push never follows a straight one, since a
    cell settled later costs d' >= d and d' + diag > d + orth, and a cell
    has one entry per queue, so that straight push is x's last
    improvement. So the entry is stale exactly when x's `parent` step is
    straight, when dist[x] - dist[parent[x]] is `orth`: a diagonal parent
    differs by `diag`, and exact costs decide it exactly in either tier.
    """
    check_endpoint(grid, "start", start)
    stride = grid.width + 2
    source = _index(start, stride)
    size = stride * (grid.height + 2)
    # the core's size alone picks the tier, so every field on the grid agrees
    costs = _FLOAT_COSTS if size < _FLOAT_CELLS else _INT_COSTS
    orth, diag, wall, far = costs.orth, costs.diag, costs.wall, costs.far
    # the top border and the first row's left one, then each row with its
    # right border and the next row's left one, then the rest of the bottom
    blank = [wall] * (stride + 1)
    for occupied in grid.rows:
        blank += [wall if c else far for c in occupied]
        blank += (wall, wall)
    blank += [wall] * (stride - 1)
    dist = blank[:]
    parent = [-1] * size
    order = []  # settle order: every cell after its parent
    stale = 0
    straight_queue, diagonal_queue = deque((source,)), deque()
    pop_straight, pop_diagonal = straight_queue.popleft, diagonal_queue.popleft
    push_straight, push_diagonal = straight_queue.append, diagonal_queue.append
    dist[source] = 0
    while straight_queue or diagonal_queue:
        if straight_queue and not (diagonal_queue and dist[diagonal_queue[0]] < dist[straight_queue[0]]):
            cur = pop_straight()
        else:
            cur = pop_diagonal()
            # stale exactly when a straight push has replaced it since
            if dist[cur] - dist[parent[cur]] == orth:
                stale += 1
                continue
        order.append(cur)
        d = dist[cur]
        # E, W, S, N and then SE, NE, SW, NW: this order breaks the queues'
        # FIFO ties, and so shapes the tree. The straight entries are read
        # once; they are the diagonals' flanks too
        east, west, south, north = cur + 1, cur - 1, cur + stride, cur - stride
        d_east, d_west, d_south, d_north = dist[east], dist[west], dist[south], dist[north]
        value = d + orth
        if value < d_east:
            dist[east], parent[east] = value, cur
            push_straight(east)
        if value < d_west:
            dist[west], parent[west] = value, cur
            push_straight(west)
        if value < d_south:
            dist[south], parent[south] = value, cur
            push_straight(south)
        if value < d_north:
            dist[north], parent[north] = value, cur
            push_straight(north)
        value = d + diag
        if d_east != wall:
            if d_south != wall:
                nxt = south + 1
                if value < dist[nxt]:
                    dist[nxt], parent[nxt] = value, cur
                    push_diagonal(nxt)
            if d_north != wall:
                nxt = north + 1
                if value < dist[nxt]:
                    dist[nxt], parent[nxt] = value, cur
                    push_diagonal(nxt)
        if d_west != wall:
            if d_south != wall:
                nxt = south - 1
                if value < dist[nxt]:
                    dist[nxt], parent[nxt] = value, cur
                    push_diagonal(nxt)
            if d_north != wall:
                nxt = north - 1
                if value < dist[nxt]:
                    dist[nxt], parent[nxt] = value, cur
                    push_diagonal(nxt)
    pops = len(order) + stale
    _work[_FIELD] += 1
    _work[_FIELD + 1] += pops
    _work[_FIELD + 2] += pops - 1
    # number the tree in preorder: count each cell's descendants in reverse
    # settle order; then, in settle order, each cell takes the slot at its
    # parent's cursor, moves that cursor past its own subtree and starts its
    # own cursor after itself. A cell's cursor is kept in `end`, and once
    # every child has moved it, it is the end of the cell's subtree.
    end = [0] * size
    tree = order[1:]
    for cur in reversed(tree):
        end[parent[cur]] += end[cur] + 1
    end[source] = 1
    first = [0] * size
    for cur in tree:
        up = parent[cur]
        slot = first[cur] = end[up]
        end[up] = slot + 1 + end[cur]
        end[cur] = slot + 1
    # offset order: stride is at least 3, so 1 - stride < -1
    moves = (
        (-stride - 1, diag, -1, -stride), (-stride, orth, 0, 0), (1 - stride, diag, 1, -stride), (-1, orth, 0, 0),
        (1, orth, 0, 0), (stride - 1, diag, -1, stride), (stride, orth, 0, 0), (stride + 1, diag, 1, stride),
    )
    return DistanceField(grid, start, stride, costs, blank, dist, parent, first, end, moves)


def _check_field(field: DistanceField, grid: GridMap, start: Cell):
    """Raise ValueError unless field was built for this grid object from start."""
    if field.grid is not grid:
        raise ValueError("the distance field was built for another grid")
    if field.start != start:
        raise ValueError(f"the distance field starts at {field.start}, not at {start}")


def _walk(field: DistanceField, dist: list, source: int, goal: int, highest: bool = False) -> list:
    """The indices of an optimal route on a search's exact costs, from goal back to source.

    `dist` is the field's `dist` or a search's cost list, indexed like the
    field's flat core. It must hold the exact cost, in the field's tier, of
    goal and of every optimal predecessor on the way back, and it is the
    search's map too: the tier's `wall` on each blocked index, which every
    flank test reads, and its `far` where the search never reached. Neither
    sentinel plus a step equals a cost. Walks back from the goal, each time
    to the lowest-index neighbour whose exact cost plus the step equals the
    current cost, or to the highest-index one when `highest` is set. Raises
    RuntimeError when no neighbour does, which exact costs never allow.
    """
    stride, wall = field.stride, field.costs.wall
    moves = field.moves[::-1] if highest else field.moves
    chain = [goal]
    cur = goal
    while cur != source:
        d = dist[cur]
        for offset, step, flank_a, flank_b in moves:
            prev = cur + offset
            if dist[prev] + step == d and dist[cur + flank_a] != wall and dist[cur + flank_b] != wall:
                break
        else:
            raise RuntimeError(f"no neighbour of {_cell(cur, stride)} matches its cost: dist is not exact")
        cur = prev
        chain.append(cur)
    return chain


def _backtrack(field: DistanceField, dist: list, source: int, goal: int) -> Path:
    """The canonical Path from source to goal on a search's exact costs: `_walk`'s lowest-index route."""
    _work[_BACKTRACK] += 1
    chain = _walk(field, dist, source, goal)
    stride = field.stride
    return Path(tuple(_cell(i, stride) for i in reversed(chain)), _decode(dist[goal], field.costs))


def _spare(field: DistanceField, goal: Cell) -> bytearray:
    """A flag per flat index, set on the spare route to goal and on both flanks of each of its diagonals.

    The spare route is `_walk`'s highest-index route on the field, the
    canonical rule with its neighbour order reversed, so it parts from the
    baseline, the lowest-index route, wherever another optimal step
    exists. An obstacle that covers no flagged index leaves the optimum
    unchanged (see the module docstring). goal must be in the start's
    reach.
    """
    stride = field.stride
    chain = _walk(field, field.dist, _index(field.start, stride), _index(goal, stride), True)
    # a straight move's flanks are the cell itself
    flanks = {offset: (a, b) for offset, _, a, b in field.moves}
    flags = bytearray(len(field.dist))
    for cur, prev in zip(chain, chain[1:]):
        flank_a, flank_b = flanks[prev - cur]
        flags[cur] = flags[cur + flank_a] = flags[cur + flank_b] = 1
    flags[chain[-1]] = 1
    return flags


def _side1(field: DistanceField, cells) -> tuple:
    """(cuts, corridor): two flag lists aligned with `cells`, a legal route on the field's grid.

    A cut is a route cell whose one-cell obstacle leaves no route between
    the route's ends; an end is never a cut. A corridor flag is set where
    the cell and the one before it both have exactly two legal moves,
    counted over the field's `moves` on its `blank`, the unobstructed grid (a
    straight move's flanks are the cell itself, free on a route); the first
    cell is never flagged. One walk of the route sets both.

    Cuts. Corner cutting is forbidden, so a legal diagonal has both flanks
    free and can be replaced by its two orthogonal steps, and blocking
    cells keeps that true: two cells are connected on any blocked copy of
    the grid exactly when they are connected over its 4-connected free
    cells. A cut lies on every route, so the cells of this one are the
    only ones to test, each at its place: 0 at the first cell, the last
    place at the other end. Block route cell i, neither end. Each diagonal
    step of the route keeps a free flank other than i, so the route cells
    before i stay connected, and so do those after it. The ends are then
    connected exactly when a 4-connected path that avoids i joins a route
    cell before i to one after it, with every inner cell off the route.
    Such a path is either one step between two 4-adjacent route cells, or
    it runs through one 4-connected component of the free cells off the
    route that touches both.

    One pass decides every i. One list `at` over the flat core holds each
    route cell's place, -2 on a flooded cell and -1 on every other index.
    The pass walks the route in order and, from each route cell in turn,
    floods the free cells off the route. `far` is the highest place seen
    next to a route cell or a flooded cell. Each component is flooded whole
    from the lowest place it touches, so at cell i's turn `far` is the
    highest place joined to a cell before i by one step or through one
    component. Consecutive route cells are 4-adjacent or share a free
    flank, so `far >= i` then, and i is a cut exactly when `far == i`.

    Corridors. When neither a flagged cell nor the cell before it is an
    end, their one-cell obstacles force the same optimum.

    * A two-move cell flanks no legal diagonal. If c flanked a legal
      diagonal a -> b, then a, b and the diagonal's other flank would all
      be legal moves from c: a and b are free straight neighbours, and the
      other flank is a free diagonal neighbour whose flanks are a and b.
      That is three moves, not two. So blocking c removes the vertex c and
      nothing else, and a route that avoids c is legal with c blocked.
    * Adjacent two-move cells share one detour. A simple route through a
      two-move cell that is not an end uses both of its moves. Take two
      adjacent such cells c and c', neither an end: c' is one of c's two
      moves, so a shortest route that avoids c' cannot pass c, and the
      other way round. By the first point, each blocked copy's optimal
      route is therefore legal on the other, so the two optima are equal:
      both searches would end on the same exact integer, which decodes to
      the same float.
    """
    _work[_SIDE1] += 1
    blank, stride, wall = field.blank, field.stride, field.costs.wall
    at = [-1] * len(blank)
    route = [_index(cell, stride) for cell in cells]
    for place, index in enumerate(route):
        at[index] = place
    straight, table = (1, -1, stride, -stride), field.moves
    cuts, corridor = [], []
    far, before, last = 0, False, len(route) - 1
    for place, index in enumerate(route):
        cuts.append(far == place and 0 < place < last)
        moves = 0
        for offset, _, flank_a, flank_b in table:
            if blank[index + offset] != wall and blank[index + flank_a] != wall and blank[index + flank_b] != wall:
                moves += 1
        two = moves == 2
        corridor.append(before and two)
        before = two
        stack = [index]
        while stack:
            cur = stack.pop()
            for offset in straight:
                nxt = cur + offset
                mark = at[nxt]
                if mark > far:
                    far = mark
                elif mark == -1 and blank[nxt] != wall:
                    at[nxt] = -2
                    stack.append(nxt)
    return cuts, corridor


def _exits(field: DistanceField, covered: list, target: int) -> bytearray:
    """A flag per preorder number of the field's tree: target, and each cell below it whose tree route survives.

    `covered` holds the flat indices of the blocked cells, a rectangle row
    by row (`_covered`), and `target` is an index the field reached. The
    flag of cell x is at first[x]. It is set on target itself, even when
    target is cut, so that a search toward it stops there too, and on each
    x in target's subtree whose route up the tree to the field's root
    survives the obstacle. So a cut above target clears its whole subtree,
    although a route from x up to target alone may survive: the search may
    then pop more than it would with those routes flagged, never less, and
    it ends at the same optimum (see `_cost`).

    A tree route survives unless it passes a cut root: a blocked cell, or a
    cell y whose step to parent(y) is a diagonal with a blocked flank b.
    The flags are target's subtree minus the subtree of every cut root;
    each subtree is an interval of preorder numbers, so each is set or
    cleared with one slice. Every blocked cell is cleared. Of the other cut
    roots, only 8 can matter, two at each corner of the rectangle: y and
    parent(y) are orthogonal neighbours of b in perpendicular directions.
    If y or parent(y) is blocked, y lies in a subtree cleared already. If
    not, y and parent(y) both lie outside the rectangle, on two
    perpendicular sides of b, and only a corner has two outward sides. So at each corner,
    with its outward directions u and v, the root corner + u is cut when
    its parent is corner + v, and the other way round. A wall and a cell
    out of the field's reach have parent -1, which is no index, so the test
    needs no map.
    """
    parent, first, end, stride = field.parent, field.first, field.end, field.stride
    lo, hi = first[target], end[target]
    flags = bytearray(field.reached)
    flags[lo:hi] = b"\x01" * (hi - lo)
    for blocked in covered:
        # the interval of a cell out of the field's reach is empty
        flags[first[blocked]:end[blocked]] = bytes(end[blocked] - first[blocked])
    top_left, bottom_right = covered[0], covered[-1]
    top_right = top_left + (bottom_right - top_left) % stride
    bottom_left = bottom_right - (top_right - top_left)
    # (root, its parent if cut) at each corner, both ways round
    for root, up in (
        (top_left - 1, top_left - stride), (top_left - stride, top_left - 1),
        (top_right + 1, top_right - stride), (top_right - stride, top_right + 1),
        (bottom_left - 1, bottom_left + stride), (bottom_left + stride, bottom_left - 1),
        (bottom_right + 1, bottom_right + stride), (bottom_right + stride, bottom_right + 1),
    ):
        if parent[root] == up:
            flags[first[root]:end[root]] = bytes(end[root] - first[root])
    flags[lo] = 1  # the target itself, even when it is cut
    return flags


def _cost(field: DistanceField, covered: list, origin: Cell, target: Cell):
    """Cost of the cheapest route from origin to target with an obstacle's cells occupied, or None.

    `covered` holds the obstacle's flat indices, the `_covered` list of its
    placement, which the caller builds; `origin` and `target` are free
    cells in the component of the field's root, outside the obstacle, so
    every move the search takes stays inside it. The search runs on a copy
    of the field's `blank` with the obstacle blocked, and its heuristic is
    the field's distance from its root, d_r. Toward any target t that is
    the same as d_r(x) - d_r(t), shifted by a constant that leaves the pop
    order unchanged. Blocking cells only removes moves, so by the triangle
    inequality d_r(x) - d_r(t) never overestimates the distance from x to t
    on the copy and stays consistent: it is an A* heuristic. Moves are
    symmetric, so the cost is also that of the route from target to
    origin.

    The search returns the first popped cell x whose flag in `_exits` is
    set: t itself, or a cell in t's subtree whose route up the field's tree
    to the root survives the obstacle, and with it the part up to t. At
    such an x the heuristic is exact. g(x) is optimal,
    since x popped under a consistent heuristic, and origin to x followed
    by the tree route is a legal route to t of cost f(x) = g(x) + d_r(x) -
    d_r(t), so f(x) >= C*, the optimum. No flagged cell popped before x, so
    every popped cell was expanded until then, and A* with a consistent
    heuristic pops no f above C* before t: so f(x) = C*, exactly, and at t
    itself f is g(t). `_astar` pops the rest of x's level before it returns
    and expands no flagged cell, which leaves g(x) as it was. The result is
    the one float built from that exact cost (`_decode`), so it is bitwise
    the same on any field. When t is out of reach no such x exists, and the
    search runs until its levels are empty. The answer needs no order among
    equal f: any popped x with its flag set has f = C*.
    """
    stride = field.stride
    dist = _obstructed(field, covered)
    origin, target = _index(origin, stride), _index(target, stride)
    h = field.dist
    cur = _astar(field, origin, h, _exits(field, covered, target), dist, _COST)
    return None if cur is None else _decode(dist[cur] + h[cur] - h[target], field.costs)


def _route(field: DistanceField, goal: Cell) -> Path:
    """The canonical Path from the field's start to goal, backtracked on the field.

    Raises BadEndpointError for an occupied or out-of-bounds goal and
    NoPathError when the goal is out of the start's reach.
    """
    check_endpoint(field.grid, "goal", goal)
    stride = field.stride
    target = _index(goal, stride)
    if field.dist[target] == field.costs.far:
        raise NoPathError(f"no path from {field.start} to {goal}")
    return _backtrack(field, field.dist, _index(field.start, stride), target)


def astar(grid: GridMap, start: Cell, goal: Cell) -> Path:
    """Minimum-cost path from start to goal under 8-connectivity.

    Diagonal steps cost sqrt(2) and are forbidden when either flanking
    orthogonal cell is occupied. Raises BadEndpointError for occupied or
    out-of-bounds endpoints, the start's first, and NoPathError when the
    goal is unreachable.
    """
    return _route(distance_field(grid, start), goal)
