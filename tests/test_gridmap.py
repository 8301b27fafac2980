"""Map parsing, serialization, footprints, and obstacle overlays."""

import math
import random

import pytest

from gridjam import (
    BadCharError,
    Cell,
    EmptyMapError,
    GridMap,
    ObstaclePlacement,
    OutOfBoundsError,
    RaggedRowsError,
    apply_obstacle,
    footprint_cells,
    parse_map,
    serialize_map,
)
from conftest import free_cells, random_grid


def occupied_cells(grid):
    return {
        Cell(col, row)
        for row in range(grid.height)
        for col in range(grid.width)
        if grid.rows[row][col]
    }


def test_parse_all_occupied():
    grid = parse_map("##\n##")
    assert grid.width == 2 and grid.height == 2
    assert grid.cell_size == 1.0
    assert occupied_cells(grid) == {Cell(0, 0), Cell(1, 0), Cell(0, 1), Cell(1, 1)}


def test_parse_free_column():
    grid = parse_map("#.#\n#.#")
    assert grid.width == 3 and grid.height == 2
    assert grid.is_free(Cell(1, 0)) and grid.is_free(Cell(1, 1))
    assert grid.is_occupied(Cell(0, 0)) and grid.is_occupied(Cell(2, 1))


def test_parse_ragged_rows():
    with pytest.raises(RaggedRowsError):
        parse_map("#.\n#..")


def test_parse_empty_text():
    with pytest.raises(EmptyMapError):
        parse_map("")


def test_parse_zero_width_row():
    with pytest.raises(EmptyMapError):
        parse_map("##\n\n##")


def test_parse_bad_char():
    with pytest.raises(BadCharError):
        parse_map("#x\n##")


def test_parse_rejects_trailing_whitespace():
    with pytest.raises(BadCharError):
        parse_map("#. \n#..")


def test_parse_final_newline_optional():
    assert parse_map("#.\n..") == parse_map("#.\n..\n")


def test_out_of_bounds_is_not_free():
    grid = parse_map("..\n..")
    assert not grid.is_free(Cell(-1, 0))
    assert not grid.is_free(Cell(0, 2))


def test_serialize_round_trip():
    for text in ("##\n##\n", "#.#\n#.#\n", ".....\n"):
        assert serialize_map(parse_map(text)) == text


def test_serialize_round_trip_random():
    rng = random.Random(2024)
    for _ in range(50):
        grid = random_grid(rng, 12, 12)
        assert parse_map(serialize_map(grid)) == grid


def test_apply_obstacle_single_cell():
    grid = parse_map("\n".join(["....."] * 5))
    out = apply_obstacle(grid, ObstaclePlacement(Cell(2, 2), 1))
    assert occupied_cells(out) == {Cell(2, 2)}


def test_apply_obstacle_clipped_at_corner():
    grid = parse_map("\n".join(["....."] * 5))
    out = apply_obstacle(grid, ObstaclePlacement(Cell(0, 0), 3))
    assert occupied_cells(out) == {Cell(0, 0), Cell(1, 0), Cell(0, 1), Cell(1, 1)}


def test_apply_obstacle_union_semantics():
    rows = [list("....." ) for _ in range(5)]
    rows[2][2] = "#"
    grid = parse_map("\n".join("".join(r) for r in rows))
    out = apply_obstacle(grid, ObstaclePlacement(Cell(2, 2), 3))
    expected = {Cell(c, r) for c in (1, 2, 3) for r in (1, 2, 3)}
    assert occupied_cells(out) == expected


def test_apply_obstacle_never_mutates_input():
    grid = parse_map("\n".join(["....."] * 5))
    before = grid.rows
    apply_obstacle(grid, ObstaclePlacement(Cell(2, 2), 3))
    assert grid.rows == before


def test_apply_obstacle_fully_outside():
    grid = parse_map("..\n..")
    with pytest.raises(OutOfBoundsError):
        apply_obstacle(grid, ObstaclePlacement(Cell(10, 10), 3))


def test_apply_obstacle_hanging_over_border_ok():
    grid = parse_map("..\n..")
    out = apply_obstacle(grid, ObstaclePlacement(Cell(2, 1), 3))
    # centre is outside; only the overlap is marked
    assert occupied_cells(out) == {Cell(1, 0), Cell(1, 1)}


def test_footprint_examples():
    grid = parse_map("\n".join(["....."] * 5))
    assert footprint_cells(ObstaclePlacement(Cell(2, 2), 1), grid) == {Cell(2, 2)}
    big = footprint_cells(ObstaclePlacement(Cell(2, 2), 3), grid)
    assert big == {Cell(c, r) for c in (1, 2, 3) for r in (1, 2, 3)}
    edge = footprint_cells(ObstaclePlacement(Cell(0, 2), 3), grid)
    assert edge == {Cell(c, r) for c in (0, 1) for r in (1, 2, 3)}


def test_placement_side_must_be_odd_positive():
    with pytest.raises(ValueError):
        ObstaclePlacement(Cell(1, 1), 2)
    with pytest.raises(ValueError):
        ObstaclePlacement(Cell(1, 1), 0)
    with pytest.raises(ValueError):
        ObstaclePlacement(Cell(1, 1), -3)


def test_overlay_properties_random():
    # never frees a cell, idempotent, footprint subset of the result
    rng = random.Random(77)
    for _ in range(100):
        grid = random_grid(rng, 10, 10)
        cells = free_cells(grid)
        if not cells:
            continue
        center = rng.choice(cells)
        placement = ObstaclePlacement(center, rng.choice((1, 3, 5)))
        out = apply_obstacle(grid, placement)
        assert occupied_cells(grid) <= occupied_cells(out)
        assert footprint_cells(placement, grid) <= occupied_cells(out)
        assert apply_obstacle(out, placement) == out
        assert out.cell_size == grid.cell_size
        assert (out.width, out.height) == (grid.width, grid.height)


def test_grid_dimension_validation():
    with pytest.raises(EmptyMapError):
        GridMap(0, 2, 1.0, ())
    with pytest.raises(ValueError):
        GridMap(2, 1, 0.0, ((False, False),))


def test_cell_size_must_be_finite():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            GridMap(2, 1, bad, ((False, False),))
