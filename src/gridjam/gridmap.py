"""Occupancy grids: ASCII map parsing, bounds logic, and obstacle footprints.

Grids are immutable values, so maps can be shared freely between runs
without defensive copies.

Every input value is read here, whichever front end it comes from: a
scenario file, the command line, a results CSV or a record built in code.
`read_text` reads a file, `read_cell` a `col,row` cell, `read_number` a
finite integer or float, both in ASCII without `_` separators,
`check_positive` a positive and
`check_nonnegative` a non-negative finite number, `check_side` an obstacle
side and `check_endpoint` a start or goal on a map. Each raises the error
class its caller passes (`check_endpoint` always raises BadEndpointError),
with a message naming the value but not its place: the caller puts the
location first.
"""

import errno
import math
import os
import pathlib
from dataclasses import dataclass, replace
from typing import NamedTuple

from .errors import BadEndpointError, MapError, where

OCCUPIED_CHAR = "#"
FREE_CHAR = "."
# the planner's exact integer costs order like the real ones only on maps
# of fewer cells (see `planner`)
_MAX_CELLS = 1 << 24


class Cell(NamedTuple):
    """Grid coordinate; col grows rightward, row grows downward from the top."""

    col: int
    row: int

    def __str__(self):
        return f"{self.col},{self.row}"


@dataclass(frozen=True)
class GridMap:
    """Binary occupancy grid with a metric cell size in metres."""

    width: int
    height: int
    cell_size: float
    rows: tuple  # rows[row][col] is True where occupied

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise MapError(f"grid must be at least 1x1, got {self.width}x{self.height}")
        _check_cells(self.width, self.height)
        check_positive(self.cell_size, "cell_size", ValueError)
        if len(self.rows) != self.height or any(len(r) != self.width for r in self.rows):
            raise ValueError("occupancy rows do not match the declared dimensions")

    def in_bounds(self, cell: Cell) -> bool:
        return 0 <= cell.col < self.width and 0 <= cell.row < self.height

    def is_occupied(self, cell: Cell) -> bool:
        return bool(self.rows[cell.row][cell.col])

    def with_cell_size(self, cell_size: float) -> "GridMap":
        return replace(self, cell_size=cell_size)


@dataclass(frozen=True)
class ObstaclePlacement:
    """Square obstacle, `side` cells on a side, centred on `center`."""

    center: Cell
    side: int

    def __post_init__(self):
        check_side(self.side, "obstacle side", ValueError)

    @property
    def radius(self) -> int:
        return self.side // 2

    def covers(self, cell: Cell) -> bool:
        """True when `cell` lies inside the (unclipped) footprint square."""
        return (
            abs(cell.col - self.center.col) <= self.radius
            and abs(cell.row - self.center.row) <= self.radius
        )

    def extent(self, grid: GridMap) -> tuple:
        """(cols, rows): the ranges of columns and rows the square covers, clipped at grid's border."""
        r = self.radius
        col, row = self.center
        return (
            range(max(0, col - r), min(grid.width, col + r + 1)),
            range(max(0, row - r), min(grid.height, row + r + 1)),
        )


def _check_cells(width, height):
    if width * height >= _MAX_CELLS:
        raise MapError(f"grid must have fewer than {_MAX_CELLS} cells, got {width}x{height}")


def _plain(text: str) -> str:
    """text itself; raises ValueError unless it is ASCII without `_`.

    Python's `int` and `float` also read `_` digit separators (`1_0` is 10)
    and the digits of other scripts (`٢` is 2, `１.5` is 1.5). No file
    format here writes those, so `read_cell` and `read_number` reject them.
    """
    if text.isascii() and "_" not in text:
        return text
    raise ValueError(text)


def read_cell(text, label, error) -> Cell:
    """The cell that `col,row` text names, in ASCII digits; raises `error` naming `label` when it names none."""
    try:
        col, row = (int(part) for part in _plain(text).split(","))
    except ValueError:  # also when there are not exactly two parts
        raise error(f"{label} expects 'col,row', got {text!r}") from None
    return Cell(col, row)


def read_number(text, label, kind, error):
    """`text` read as a `kind`, int or float, in ASCII digits; raises `error` naming `label` unless it reads as a finite one."""
    try:
        value = kind(_plain(text))
    except ValueError:
        raise error(f"{label} expects {'an integer' if kind is int else 'a number'}, got {text!r}") from None
    if kind is float and not math.isfinite(value):  # every int is finite
        raise error(f"{label} must be finite, got {text!r}")
    return value


def check_positive(value, label, error):
    """`value`; raises `error` naming `label` unless it is a positive finite number (NaN is not)."""
    if not 0 < value < math.inf:  # written so that NaN fails
        raise error(f"{label} must be positive and finite, got {value}")
    return value


def check_nonnegative(value, label, error):
    """`value`; raises `error` naming `label` unless it is a finite number >= 0 (NaN is not)."""
    if not 0 <= value < math.inf:  # written so that NaN fails
        raise error(f"{label} must be finite and >= 0, got {value}")
    return value


def check_side(side, label, error) -> int:
    """`side`, the side of an obstacle square; raises `error` naming `label` unless it is an odd positive int.

    A bool, a float (NaN and inf too) or any other type that is not an int
    is rejected: the obstacle's footprint is counted in whole cells. Any
    other int subclass is accepted.
    """
    if isinstance(side, bool) or not isinstance(side, int) or side < 1 or side % 2 == 0:
        raise error(f"{label} must be an odd positive integer, got {side}")
    return side


def check_endpoint(grid: GridMap, label: str, cell: Cell) -> Cell:
    """`cell`, a start or goal; raises BadEndpointError naming `label` unless it is a free cell of grid."""
    if not grid.in_bounds(cell):
        raise BadEndpointError(f"{label} {cell} is outside the {grid.width}x{grid.height} map")
    if grid.is_occupied(cell):
        raise BadEndpointError(f"{label} {cell} is occupied")
    return cell


def read_text(path, error=MapError) -> str:
    """The text of the file at path, read as UTF-8; raises `error` naming the file when it is not UTF-8.

    A path that no file can have, one that holds a NUL or a lone surrogate,
    raises FileNotFoundError, as a missing file does.
    """
    try:
        return pathlib.Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{where(path)}not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except ValueError:  # raised by the open, before any byte is read
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(path)) from None


def parse_map(text: str) -> GridMap:
    """Parse an ASCII occupancy map.

    One line per row, '#' occupied and '.' free, top row first. A final
    newline is optional; anything else (including trailing whitespace) is
    rejected with a MapError that starts `line N: `, the 1-based line of
    the map text at fault. The parsed grid uses a cell size of 1.0 until a
    scenario overrides it.
    """
    return _parse_map(text, None)


def load_map(path) -> GridMap:
    """Read and parse the map file at path, the one way a map file is read.

    Errors read as `parse_map`'s, but start `<path>:N: `, or `<path>: ` when
    no line is at fault; a file that cannot be read raises OSError.
    """
    return _parse_map(read_text(path), path)


def _parse_map(text, path):
    """parse_map's work; `path`, the map file if there is one, and the line at fault locate every error."""
    number = None  # the map line being read, where an error names it
    try:
        lines = text.split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        if not lines:
            raise MapError("map text contains no rows")
        width = len(lines[0])
        _check_cells(width, len(lines))  # before any row is built
        rows = []
        for number, line in enumerate(lines, 1):
            if not line:
                raise MapError("row is empty")
            if len(line) != width:
                raise MapError(f"row has length {len(line)}, expected {width}")
            for ch in line:
                if ch != OCCUPIED_CHAR and ch != FREE_CHAR:
                    raise MapError(f"unexpected character {ch!r}")
            rows.append(tuple(ch == OCCUPIED_CHAR for ch in line))
    except MapError as exc:
        raise MapError(where(path, number) + str(exc)) from None
    return GridMap(width, len(rows), 1.0, tuple(rows))
