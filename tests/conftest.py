"""Shared fixtures: small hand-built maps, a seeded random map source and a map strategy."""

import random

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


def random_grid(rng: random.Random, max_width: int, max_height: int, density=None) -> GridMap:
    width = rng.randint(2, max_width)
    height = rng.randint(2, max_height)
    if density is None:
        density = rng.uniform(0.1, 0.4)
    rows = tuple(
        tuple(rng.random() < density for _ in range(width)) for _ in range(height)
    )
    return GridMap(width, height, 1.0, rows)


def free_cells(grid: GridMap):
    return [
        Cell(col, row)
        for row in range(grid.height)
        for col in range(grid.width)
        if not grid.rows[row][col]
    ]


def is_free(grid: GridMap, cell: Cell) -> bool:
    return grid.in_bounds(cell) and not grid.is_occupied(cell)


def random_case(rng: random.Random, max_width: int, max_height: int):
    """A random grid plus two random free cells (regenerates until valid)."""
    while True:
        grid = random_grid(rng, max_width, max_height)
        cells = free_cells(grid)
        if len(cells) >= 2:
            start, goal = rng.sample(cells, 2)
            return grid, start, goal


# Property tests replay a fixed sequence of examples, so every run checks
# the same maps, and keep no example database on disk.
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
