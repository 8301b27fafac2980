"""Scenario files: line-oriented `key = value` descriptions of an experiment.

Example::

    name = branch
    map = branch.txt
    cell_size = 1.0
    start = 1,1
    goal = 5,1
    speed = 1.0
    eval_time_per_candidate = 0  # attacker wins every race

`map` is resolved relative to the scenario file. `goal` may repeat; the
remaining keys are scalar. Missing optional keys fall back to defaults.
"""

import math
import pathlib
import re
from dataclasses import dataclass

from .errors import BadCharError, BadValueError, EmptyMapError, MapReadError, MissingKeyError, RaggedRowsError, UnknownKeyError
from .gridmap import Cell, GridMap, parse_map


def _positive_float(lineno, value, key):
    out = _float(lineno, value, key)
    if out <= 0:
        raise BadValueError(f"line {lineno}: {key} must be positive, got {value}")
    return out


def _nonnegative_float(lineno, value, key):
    out = _float(lineno, value, key)
    if out < 0:
        raise BadValueError(f"line {lineno}: {key} must be >= 0, got {value}")
    return out


def _float(lineno, value, key):
    try:
        out = float(value)
    except ValueError:
        raise BadValueError(f"line {lineno}: {key} expects a number, got {value!r}") from None
    if not math.isfinite(out):
        raise BadValueError(f"line {lineno}: {key} must be finite, got {value!r}")
    return out


def _positive_int(lineno, value, key):
    try:
        out = int(value)
    except ValueError:
        raise BadValueError(f"line {lineno}: {key} expects an integer, got {value!r}") from None
    if out < 1:
        raise BadValueError(f"line {lineno}: {key} must be >= 1, got {out}")
    return out


def _odd_side(lineno, value, key):
    side = _positive_int(lineno, value, key)
    if side % 2 == 0:
        raise BadValueError(f"line {lineno}: {key} must be odd, got {side}")
    return side


# The numeric keys, each with its reader, in the order they are checked.
# Only the keys present reach `Scenario`, so its defaults apply to the rest.
_NUMBERS = {
    "cell_size": _positive_float,
    "speed": _positive_float,
    "eval_time_per_candidate": _nonnegative_float,
    "attack_start_delay": _nonnegative_float,
    "repeats": _positive_int,
    "obstacle_side": _odd_side,
}
_KNOWN_KEYS = {"name", "map", "start", "goal", *_NUMBERS}
_REQUIRED_KEYS = ("map", "cell_size", "start", "speed")
_NAME = re.compile(r"[A-Za-z0-9_-]+")


@dataclass(frozen=True)
class Scenario:
    name: str
    map_path: pathlib.Path
    grid: GridMap  # parsed map with the scenario's cell size applied
    start: Cell
    goals: tuple
    speed: float
    obstacle_side: int = 3
    eval_time_per_candidate: float = 0.05
    attack_start_delay: float = 0.0
    repeats: int = 3


def parse_scenario(text: str, base_dir=".") -> Scenario:
    """Parse scenario text; `base_dir` anchors the relative map path."""
    base = pathlib.Path(base_dir)
    scalars = {}
    goal_lines = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise BadValueError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KNOWN_KEYS:
            raise UnknownKeyError(f"line {lineno}: unknown key {key!r}")
        if not value:
            raise BadValueError(f"line {lineno}: key {key!r} has no value")
        if key == "goal":
            goal_lines.append((lineno, value))
            continue
        if key in scalars:
            raise BadValueError(f"line {lineno}: duplicate key {key!r}")
        scalars[key] = (lineno, value)

    for key in _REQUIRED_KEYS:
        if key not in scalars:
            raise MissingKeyError(f"missing required key {key!r}")
    if not goal_lines:
        raise MissingKeyError("missing required key 'goal' (at least one)")

    numbers = {key: read(*scalars[key], key=key) for key, read in _NUMBERS.items() if key in scalars}
    cell_size = numbers.pop("cell_size")

    map_lineno, map_value = scalars["map"]
    map_path = base / map_value
    try:
        map_text = map_path.read_text()
    except OSError as exc:
        raise MapReadError(f"line {map_lineno}: cannot read map {map_value!r}: {exc}") from exc
    try:
        grid = parse_map(map_text)
    except (BadCharError, EmptyMapError, RaggedRowsError) as exc:
        # the map's own line number alone would read as a line of the scenario
        raise type(exc)(f"line {map_lineno}: map {map_value!r}: {exc}") from exc
    grid = grid.with_cell_size(cell_size)

    start = _cell(*scalars["start"], key="start", grid=grid)
    goals = tuple(_cell(lineno, value, key="goal", grid=grid) for lineno, value in goal_lines)

    if "name" in scalars:
        name_lineno, name = scalars["name"]
    else:
        name_lineno, name = map_lineno, pathlib.Path(map_value).stem
    if not _NAME.fullmatch(name):
        # the name becomes part of output file names, so it must not hold a path
        raise BadValueError(
            f"line {name_lineno}: scenario name {name!r} may only use letters, digits, '_' and '-'"
        )

    return Scenario(name=name, map_path=map_path, grid=grid, start=start, goals=goals, **numbers)


def load_scenario(path) -> Scenario:
    """Read and parse a scenario file; the map path resolves next to it."""
    p = pathlib.Path(path)
    return parse_scenario(p.read_text(), base_dir=p.parent)


def _cell(lineno, value, key, grid):
    parts = value.split(",")
    if len(parts) != 2:
        raise BadValueError(f"line {lineno}: {key} expects 'col,row', got {value!r}")
    try:
        cell = Cell(int(parts[0]), int(parts[1]))
    except ValueError:
        raise BadValueError(f"line {lineno}: {key} expects 'col,row', got {value!r}") from None
    if not grid.in_bounds(cell):
        raise BadValueError(f"line {lineno}: {key} {cell} is outside the map")
    if grid.is_occupied(cell):
        raise BadValueError(f"line {lineno}: {key} {cell} is on an occupied cell")
    return cell
