"""Map parsing, bounds and obstacle footprints."""

import math
import random
import re

import pytest

from gridjam import (
    Cell,
    GridMap,
    MapError,
    ObstaclePlacement,
    parse_map,
)
from gridjam.gridmap import load_map
from gridjam.planner import _cell, _covered
from gridjam.svgrender import PX, _overlay
from conftest import mutate, names_a_line
from oracles import obstruct


def occupied_cells(grid):
    return {
        Cell(col, row)
        for row in range(grid.height)
        for col in range(grid.width)
        if grid.rows[row][col]
    }


def extent_cells(placement, grid):
    cols, rows = placement.extent(grid)
    return {Cell(col, row) for row in rows for col in cols}


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
    with pytest.raises(MapError, match="^line 2: row has length 3, expected 2$"):
        parse_map("#.\n#..")


def test_parse_empty_text():
    with pytest.raises(MapError, match="^map text contains no rows$"):
        parse_map("")


def test_parse_zero_width_row():
    with pytest.raises(MapError, match="^line 2: row is empty$"):
        parse_map("##\n\n##")


def test_parse_bad_char():
    with pytest.raises(MapError, match="^line 1: unexpected character 'x'$"):
        parse_map("#x\n##")


def test_parse_rejects_trailing_whitespace():
    with pytest.raises(MapError, match="^line 1: unexpected character ' '$"):
        parse_map("#. \n#..")


def test_parse_final_newline_optional():
    assert parse_map("#.\n..") == parse_map("#.\n..\n")


def test_out_of_bounds_is_not_free():
    grid = parse_map("..\n..")
    assert grid.in_bounds(Cell(1, 1))
    assert not grid.in_bounds(Cell(-1, 0))
    assert not grid.in_bounds(Cell(0, 2))


def test_side1_square_covers_its_centre_cell_only():
    # a side-1 obstacle laid on the map blocks its centre cell and nothing else
    grid = parse_map("\n".join(["....."] * 5))
    placement = ObstaclePlacement(Cell(2, 2), 1)
    assert occupied_cells(obstruct(grid, placement)) == {Cell(2, 2)}
    assert extent_cells(placement, grid) == {Cell(2, 2)}


def test_footprint_clipped_at_corner():
    grid = parse_map("\n".join(["....."] * 5))
    corner = extent_cells(ObstaclePlacement(Cell(0, 0), 3), grid)
    assert corner == {Cell(0, 0), Cell(1, 0), Cell(0, 1), Cell(1, 1)}


def test_footprint_hanging_over_border():
    grid = parse_map("..\n..")
    # centre is outside; only the overlap is covered
    assert extent_cells(ObstaclePlacement(Cell(2, 1), 3), grid) == {Cell(1, 0), Cell(1, 1)}


def test_footprint_examples():
    grid = parse_map("\n".join(["....."] * 5))
    assert extent_cells(ObstaclePlacement(Cell(2, 2), 1), grid) == {Cell(2, 2)}
    big = extent_cells(ObstaclePlacement(Cell(2, 2), 3), grid)
    assert big == {Cell(c, r) for c in (1, 2, 3) for r in (1, 2, 3)}
    edge = extent_cells(ObstaclePlacement(Cell(0, 2), 3), grid)
    assert edge == {Cell(c, r) for c in (0, 1) for r in (1, 2, 3)}


def test_clipped_square_is_the_same_in_every_layer():
    # every grid up to 4x4, every side in {1, 3, 5} and every centre up to
    # r + 1 cells outside the grid: the planner's flat indices, the SVG's
    # obstacle rects, the oracle's overlay and `covers` on the grid's cells
    # all name the cells of `extent`, and the planner and the SVG go row by row
    rect = re.compile(rf'<rect class="obstacle" x="(\d+)" y="(\d+)" width="{PX}" height="{PX}"/>')
    for width in range(1, 5):
        for height in range(1, 5):
            grid = parse_map("\n".join(["." * width] * height))
            stride = width + 2
            inside = {Cell(col, row) for row in range(height) for col in range(width)}
            for side in (1, 3, 5):
                reach = side // 2 + 1
                for col in range(-reach, width + reach):
                    for row in range(-reach, height + reach):
                        placement = ObstaclePlacement(Cell(col, row), side)
                        expected = extent_cells(placement, grid)
                        row_major = sorted(expected, key=lambda c: (c.row, c.col))
                        assert [_cell(i, stride) for i in _covered(placement, grid, stride)] == row_major
                        rects = [rect.fullmatch(line) for line in _overlay(grid, [placement])[1:-1]]
                        assert [Cell(int(m[1]) // PX, int(m[2]) // PX) for m in rects] == row_major
                        assert occupied_cells(obstruct(grid, placement)) == expected
                        assert {c for c in inside if placement.covers(c)} == expected


def test_placement_side_must_be_odd_positive():
    with pytest.raises(ValueError):
        ObstaclePlacement(Cell(1, 1), 2)
    with pytest.raises(ValueError):
        ObstaclePlacement(Cell(1, 1), 0)
    with pytest.raises(ValueError):
        ObstaclePlacement(Cell(1, 1), -3)


@pytest.mark.parametrize("side", [float("nan"), float("inf"), 3.0, 1.0, True, "3", None])
def test_placement_side_must_be_an_int(side):
    # a NaN side once passed both comparisons: its extent spanned the whole
    # grid while it covered no cell; 3.0 failed later, inside `extent`
    with pytest.raises(ValueError, match=f"^obstacle side must be an odd positive integer, got {side}$"):
        ObstaclePlacement(Cell(1, 1), side)


def test_placement_side_may_be_an_int_subclass():
    class Side(int):
        pass

    assert ObstaclePlacement(Cell(1, 1), Side(3)).side == 3


def test_grid_dimension_validation():
    with pytest.raises(MapError, match="^grid must be at least 1x1, got 0x2$"):
        GridMap(0, 2, 1.0, ())
    with pytest.raises(ValueError):
        GridMap(2, 1, 0.0, ((False, False),))


def test_grid_of_2_24_cells_is_rejected():
    # the planner's exact costs order correctly only below 2**24 cells; the
    # size is checked before the rows, so no such map is ever built
    with pytest.raises(MapError, match="^grid must have fewer than 16777216 cells, got 4096x4096$"):
        GridMap(4096, 4096, 1.0, ())
    with pytest.raises(ValueError, match="^occupancy rows do not match"):
        GridMap(4095, 4096, 1.0, ())


def test_parse_map_checks_the_size_before_the_rows():
    # a bad character on the last line would be found only after building
    # every row before it
    text = "." * 4096 + "\n"
    text = text * 4095 + "." * 4095 + "x\n"
    with pytest.raises(MapError, match="^grid must have fewer than 16777216 cells, got 4096x4096$"):
        parse_map(text)


@pytest.mark.parametrize(
    "data, message",
    [
        (b"#.\n#x\n", ":2: unexpected character 'x'"),
        (b"...\n..\n", ":2: row has length 2, expected 3"),
        (b"..\n\n..\n", ":2: row is empty"),
        (b"", ": map text contains no rows"),
        (b"#.\n\xff.\n", ": not UTF-8 text (invalid start byte at byte 3)"),
    ],
    ids=["bad-char", "ragged-rows", "empty-line", "no-rows", "non-utf8"],
)
def test_load_map_names_the_file(data, message, tmp_path):
    # a file's line reads `path:N: `, the file as a whole `path: `
    path = tmp_path / "m.txt"
    path.write_bytes(data)
    with pytest.raises(MapError) as err:
        load_map(path)
    assert str(err.value) == f"{path}{message}"


def test_cell_size_must_be_finite():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            GridMap(2, 1, bad, ((False, False),))


def test_map_texts_parse_or_fail_at_a_line():
    # seeded map texts, each a valid map after a few edits: each parses to
    # its own rows or raises MapError naming one of its lines; only the
    # text as a whole, with no rows, is named by no line
    rng = random.Random("fuzz:maps")
    tokens = ["#", ".", "\n", "", " ", "x", "\r", "\t", "٣", "\ufeff", "##", "\n\n"]
    for _ in range(1500):
        width, height = rng.randint(1, 6), rng.randint(1, 5)
        rows = ["".join(rng.choice("#.") for _ in range(width)) for _ in range(height)]
        text = "".join(mutate(rng, "\n".join(rows) + "\n" * rng.randint(0, 1), tokens))
        try:
            grid = parse_map(text)
        except MapError as err:
            assert names_a_line(str(err), "line ", text) or str(err) == "map text contains no rows", repr(text)
            continue
        rows = ["".join(".#"[blocked] for blocked in row) for row in grid.rows]
        assert rows == text.removesuffix("\n").split("\n"), repr(text)
