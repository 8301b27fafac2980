"""Shared fixtures: small hand-built maps, a seeded random problem source and a map strategy."""

import functools
import inspect
import random
import re

import pytest
from hypothesis import assume, settings
from hypothesis import strategies as st

from gridjam import Cell, GridMap, parse_map

BRANCH_TEXT = "#######\n#.....#\n#.###.#\n#.....#\n#######\n"
CORRIDOR_TEXT = "#######\n#.....#\n#######\n"
OPEN9_TEXT = "\n".join(["." * 9] * 9) + "\n"
# One-cell corridors: from (1,1), a goal on the right is reached through
# the single corridor down column 3, whose cells block a side-1 obstacle,
# while the loops around it leave detours for the other candidates.
MAZE_TEXT = (
    "###########\n"
    "#.....#...#\n"
    "#.###.#.#.#\n"
    "#.....#.#.#\n"
    "###.###.#.#\n"
    "#.......#.#\n"
    "#.#######.#\n"
    "#.........#\n"
    "###########\n"
)


@pytest.fixture
def branch_map():
    return parse_map(BRANCH_TEXT)


@pytest.fixture
def corridor_map():
    return parse_map(CORRIDOR_TEXT)


@pytest.fixture
def maze_map():
    return parse_map(MAZE_TEXT)


@pytest.fixture
def open9_map():
    return parse_map(OPEN9_TEXT)


def free_cells(grid: GridMap):
    return [
        Cell(col, row)
        for row in range(grid.height)
        for col in range(grid.width)
        if not grid.rows[row][col]
    ]


def is_free(grid: GridMap, cell: Cell) -> bool:
    return grid.in_bounds(cell) and not grid.is_occupied(cell)


def random_problem(rng: random.Random, max_width=14, max_height=14):
    """A map of up to max_width x max_height cells plus a start and a goal, drawn from rng.

    It draws `grid_problems`' maps: the width is 1-3 in half the draws and the
    height at least 4, each cell is blocked at a density of 0, 10, 20 or 30%,
    and half the maps are walled into bands with one door per wall, whose
    corridors give candidates that block. The start is any free cell and the
    goal one of the last half of the free cells, so that most goals lie far
    from the start. A map with no free cell is drawn again.
    """
    while True:
        width = rng.randint(1, 3) if rng.random() < 0.5 else rng.randint(4, max_width)
        height = rng.randint(4, max_height)
        density = rng.choice((0, 10, 20, 30))
        rows = [[rng.randrange(100) >= 100 - density for _ in range(width)] for _ in range(height)]
        if rng.random() < 0.5:
            for row in range(1, height, 2):
                door = rng.randrange(width)
                rows[row] = [col != door for col in range(width)]
        grid = GridMap(width, height, 1.0, tuple(map(tuple, rows)))
        cells = free_cells(grid)
        if cells:
            return grid, rng.choice(cells), rng.choice(cells[len(cells) // 2 :])


def mutate(rng: random.Random, pieces, tokens, edits: int = 3) -> list:
    """`pieces` as a list after up to `edits` random edits: each deletes, repeats or replaces a piece, or inserts a token.

    The fuzz tests draw their inputs with it, from a valid input and the
    tokens most likely to break a reader.
    """
    out = list(pieces)
    for _ in range(rng.randint(0, edits)):
        at = rng.randint(0, len(out))
        kind = rng.randrange(4) if at < len(out) else 3
        if kind == 0:
            del out[at]
        elif kind == 1:
            out.insert(at, out[at])
        elif kind == 2:
            out[at] = rng.choice(tokens)
        else:
            out.insert(at, rng.choice(tokens))
    return out


def names_a_line(message: str, prefix: str, text: str) -> bool:
    """Whether an error message starts `<prefix><N>: ` with N a line of `text`, counted from 1."""
    match = re.match(rf"{re.escape(prefix)}(\d+): ", message)
    return match is not None and 1 <= int(match[1]) <= len(text.split("\n"))


def uniform(rng: random.Random, low: float, high: float) -> float:
    """A float in [low, high] that is low in one draw of eight and high in another, where faults cluster."""
    pick = rng.randrange(8)
    return low if pick == 0 else high if pick == 1 else rng.uniform(low, high)


def seeded_problems(seed: int):
    """Turn `check(rng, grid, start, goal)` into a test over 200 seeded problems.

    Example i is `random_problem(rng)` with `rng = random.Random(f"{seed}:{i}")`,
    and check draws whatever else it needs from that rng, so the seed and the
    index alone rebuild the example, and `test.__wrapped__(rng, grid, start,
    goal)` re-runs it. A failure is raised again naming the seed, the index,
    the endpoints and the map.
    """

    def decorate(check):
        @functools.wraps(check)
        def test():
            for index in range(200):
                rng = random.Random(f"{seed}:{index}")
                grid, start, goal = random_problem(rng)
                try:
                    check(rng, grid, start, goal)
                except (Exception, pytest.fail.Exception) as error:
                    text = "\n".join("".join(".#"[blocked] for blocked in row) for row in grid.rows)
                    raise AssertionError(f"seed {seed}, example {index}: start {start}, goal {goal} on\n{text}") from error

        test.__signature__ = inspect.Signature()  # so pytest looks for no fixtures
        return test

    return decorate


# One test still draws from Hypothesis: the race's corner-cut test, on
# `grid_problems` unchanged, because the race still lets the robot cut a
# corner of the obstacle after the spawn: its examples hold no such case,
# and any edit of its body or of this strategy redraws them. It replays a
# fixed sequence of examples, so every run checks the same ones, and keeps
# no example database on disk. Every other random test draws from
# `random_problem` or a `random.Random`, which read nothing but their seeds.
PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=200)


@st.composite
def grid_problems(draw, max_side=14):
    """A map of up to max_side x max_side cells plus a start and a goal.

    Narrow maps, dense maps and maps walled into bands with one door per
    wall are drawn often: their corridors give candidates that block. The
    goal is drawn from the free cells in reverse order, so examples shrink
    towards a goal far from the start.
    """
    width = draw(st.one_of(st.integers(1, 3), st.integers(4, max_side)))
    height = draw(st.integers(4, max_side))
    density = draw(st.sampled_from((0, 10, 20, 30)))
    noise = draw(st.lists(st.integers(0, 99), min_size=width * height, max_size=width * height))
    rows = [[noise[row * width + col] >= 100 - density for col in range(width)] for row in range(height)]
    if draw(st.booleans()):
        for row in range(1, height, 2):
            door = draw(st.integers(0, width - 1))
            rows[row] = [col != door for col in range(width)]
    grid = GridMap(width, height, 1.0, tuple(tuple(r) for r in rows))
    cells = free_cells(grid)
    assume(cells)
    return grid, draw(st.sampled_from(cells)), draw(st.sampled_from(cells[::-1]))
