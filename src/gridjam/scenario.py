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
`speed`, `eval_time_per_candidate` and `attack_start_delay` are the race's
timing; they become the scenario's `race`, a `SimConfig`, whose defaults
apply to the last two.
"""

import math
import pathlib
import re
import sys
from dataclasses import dataclass, fields

from .errors import GridJamError, ScenarioError, where
from .gridmap import Cell, GridMap, check_endpoint, check_nonnegative, check_positive, check_side, load_map
from .gridmap import read_cell, read_number, read_text
from .sim import SimConfig

# The numeric keys, each with the kind it reads as and the range it must
# lie in, in the order they are checked. Only the keys present reach
# `Scenario` and `SimConfig`, so their defaults apply to the rest.
_NUMBERS = {
    "cell_size": (float, check_positive),
    "speed": (float, check_positive),
    "eval_time_per_candidate": (float, check_nonnegative),
    "attack_start_delay": (float, check_nonnegative),
    "repeats": (int, check_positive),
    "obstacle_side": (int, check_side),
}
_KNOWN_KEYS = {"name", "map", "start", "goal", *_NUMBERS}
_REQUIRED_KEYS = ("map", "cell_size", "start", "speed")
_RACE_KEYS = tuple(f.name for f in fields(SimConfig))
_NAME = re.compile(r"[A-Za-z0-9_-]+")


def _check_name(name, error):
    """Raise `error` unless `name` is a str of one or more letters, digits, '_' and '-'.

    The name becomes part of output file names, so it must not hold a path.
    """
    if not isinstance(name, str) or not _NAME.fullmatch(name):
        raise error(f"scenario name {name!r} may only use letters, digits, '_' and '-'")


@dataclass(frozen=True)
class Scenario:
    """One experiment: a map, a start, its goals, and the race's timing.

    Its name, obstacle side and repeats are checked by the readers that
    check a scenario file's, raising ValueError, and its repeats must be an
    int, bools excluded, as a file's are read: so one built in code holds no
    value that a file could not.
    """

    name: str
    grid: GridMap  # parsed map with the scenario's cell size applied
    start: Cell
    goals: tuple
    race: SimConfig  # the timing every goal's race runs with
    obstacle_side: int = 3
    repeats: int = 3

    def __post_init__(self):
        _check_name(self.name, ValueError)
        check_side(self.obstacle_side, "obstacle_side", ValueError)
        if isinstance(self.repeats, bool) or not isinstance(self.repeats, int):  # `check_side`'s type rule
            raise ValueError(f"repeats must be an integer, got {self.repeats!r}")
        check_positive(self.repeats, "repeats", ValueError)


def parse_scenario(text: str, base_dir=".") -> Scenario:
    """Parse scenario text; `base_dir` anchors the relative map path.

    Raises ScenarioError for a bad key or value, BadEndpointError for a
    start or goal that is occupied or off the map, MapError for a bad map
    and OSError for a map file that cannot be read, each starting
    `line N: ` with the scenario line at fault when there is one. The rest
    reads as the reader in `gridmap` raised it, as in
    `line 4: goal 50,1 is outside the 7x5 map` or
    `line 2: maps/m.txt:2: unexpected character 'x'`.
    """
    return _parse(text, pathlib.Path(base_dir), None)


def load_scenario(path) -> Scenario:
    """Read and parse a scenario file; the map path resolves next to it.

    Errors read as `parse_scenario`'s, but start `<path>:N: `, or `<path>: `
    when no line is at fault, as in `runs/s.scn:2: runs/m.txt:2: unexpected
    character 'x'`; a scenario file that is not UTF-8 raises ScenarioError.
    """
    p = pathlib.Path(path)
    return _parse(read_text(p, ScenarioError), p.parent, p)


def _parse(text, base, path):
    """parse_scenario's work; `path`, the scenario file if there is one, and the line at fault locate every error."""
    lineno = None  # the scenario line being read, where an error names it
    try:
        scalars = {}
        goal_lines = []
        for lineno, raw in enumerate(text.split("\n"), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ScenarioError(f"expected 'key = value', got {raw.strip()!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in _KNOWN_KEYS:
                raise ScenarioError(f"unknown key {key!r}")
            if not value:
                raise ScenarioError(f"key {key!r} has no value")
            if key == "goal":
                goal_lines.append((lineno, value))
                continue
            if key in scalars:
                raise ScenarioError(f"duplicate key {key!r}")
            scalars[key] = (lineno, value)

        lineno = None
        for key in _REQUIRED_KEYS:
            if key not in scalars:
                raise ScenarioError(f"missing required key {key!r}")
        if not goal_lines:
            raise ScenarioError("missing required key 'goal' (at least one)")

        numbers = {}
        for key, (kind, check) in _NUMBERS.items():
            if key in scalars:
                lineno, value = scalars[key]
                numbers[key] = check(read_number(value, key, kind, ScenarioError), key, ScenarioError)
        race = SimConfig(**{key: numbers.pop(key) for key in _RACE_KEYS if key in numbers})

        lineno, map_value = scalars["map"]
        grid = load_map(base / map_value).with_cell_size(numbers.pop("cell_size"))

        lineno, value = scalars["start"]
        start = check_endpoint(grid, "start", read_cell(value, "start", ScenarioError))
        goals = []
        for lineno, value in goal_lines:
            goals.append(check_endpoint(grid, "goal", read_cell(value, "goal", ScenarioError)))

        lineno, name = scalars.get("name", (scalars["map"][0], pathlib.Path(map_value).stem))
        _check_name(name, ScenarioError)

        # A route visits no cell twice, so it costs less than cells * sqrt(2)
        # steps; an attacked run drives less than two routes, and the
        # attacker plans at most one candidate per route cell. Bounding the
        # race's times so, in the order `sim` computes them, keeps every
        # time and delay in the CSV finite. A step that takes less than the
        # smallest normal float would round the race's times to 0, and the
        # spawn could never precede the robot's arrival.
        cells = grid.width * grid.height
        lineno, value = scalars["speed"]
        if not math.isfinite(2 * cells * math.sqrt(2) * grid.cell_size / race.speed):
            raise ScenarioError(
                f"speed {value} and cell_size {scalars['cell_size'][1]} let a route on this "
                f"{grid.width}x{grid.height} map take longer than a float can hold"
            )
        if grid.cell_size / race.speed < sys.float_info.min:
            raise ScenarioError(
                f"speed {value} and cell_size {scalars['cell_size'][1]} let a step take "
                "less time than a normal float can hold"
            )
        if "eval_time_per_candidate" in scalars:
            lineno, value = scalars["eval_time_per_candidate"]
            if not math.isfinite(race.attack_start_delay + race.eval_time_per_candidate * cells):
                raise ScenarioError(
                    f"eval_time_per_candidate {value} lets an attack on this "
                    f"{grid.width}x{grid.height} map take longer than a float can hold"
                )
    except (GridJamError, OSError) as exc:
        raise type(exc)(where(path, lineno) + str(exc)) from exc

    return Scenario(name=name, grid=grid, start=start, goals=tuple(goals), race=race, **numbers)

