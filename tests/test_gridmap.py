"""Map parsing, bounds and obstacle footprints."""

import math

import pytest

from gridjam import (
    BadCharError,
    Cell,
    EmptyMapError,
    GridMap,
    ObstaclePlacement,
    RaggedRowsError,
    footprint_cells,
    parse_map,
)
from oracles import obstruct


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
    assert grid.rows == ((True, False, True), (True, False, True))
    assert not grid.is_occupied(Cell(1, 0)) and not grid.is_occupied(Cell(1, 1))
    assert grid.is_occupied(Cell(0, 0)) and grid.is_occupied(Cell(2, 1))


def test_parse_ragged_rows():
    with pytest.raises(RaggedRowsError, match="^line 2 has length 3, expected 2$"):
        parse_map("#.\n#..")


def test_parse_empty_text():
    with pytest.raises(EmptyMapError, match="^map text contains no rows$"):
        parse_map("")


def test_parse_zero_width_row():
    with pytest.raises(EmptyMapError, match="^line 2 is empty$"):
        parse_map("##\n\n##")


def test_parse_bad_char():
    with pytest.raises(BadCharError, match="^line 1: unexpected character 'x'$"):
        parse_map("#x\n##")


def test_parse_rejects_trailing_whitespace():
    with pytest.raises(BadCharError, match="^line 1: unexpected character ' '$"):
        parse_map("#. \n#..")


def test_parse_final_newline_optional():
    assert parse_map("#.\n..") == parse_map("#.\n..\n")


def test_out_of_bounds_is_not_free():
    grid = parse_map("..\n..")
    assert grid.in_bounds(Cell(1, 1))
    assert not grid.in_bounds(Cell(-1, 0))
    assert not grid.in_bounds(Cell(0, 2))


def test_apply_obstacle_single_cell():
    # a side-1 obstacle laid on the map blocks its centre cell and nothing else
    grid = parse_map("\n".join(["....."] * 5))
    placement = ObstaclePlacement(Cell(2, 2), 1)
    assert occupied_cells(obstruct(grid, placement)) == {Cell(2, 2)}
    assert footprint_cells(placement, grid) == {Cell(2, 2)}


def test_footprint_clipped_at_corner():
    grid = parse_map("\n".join(["....."] * 5))
    corner = footprint_cells(ObstaclePlacement(Cell(0, 0), 3), grid)
    assert corner == {Cell(0, 0), Cell(1, 0), Cell(0, 1), Cell(1, 1)}


def test_footprint_hanging_over_border():
    grid = parse_map("..\n..")
    # centre is outside; only the overlap is covered
    assert footprint_cells(ObstaclePlacement(Cell(2, 1), 3), grid) == {Cell(1, 0), Cell(1, 1)}


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


def test_grid_dimension_validation():
    with pytest.raises(EmptyMapError):
        GridMap(0, 2, 1.0, ())
    with pytest.raises(ValueError):
        GridMap(2, 1, 0.0, ((False, False),))


def test_cell_size_must_be_finite():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            GridMap(2, 1, bad, ((False, False),))
