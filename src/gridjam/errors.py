"""The errors this package raises for input it cannot use, and where they are.

There is one class per kind of bad input, and the command line exits 1 on
any of them. An unreadable file is not one of them: it raises `OSError`,
and the command line exits 2. An error about a map, scenario or CSV file
starts with the place at fault, written by `where` alone: `<path>:<N>: `
for line N of a file, `<path>: ` for the file as a whole, or `line <N>: `
for text parsed without a file. The message after it is written where
the value is read: a cell, a number, a positive or non-negative number,
an obstacle side or an endpoint by its reader in `gridmap`, whichever
front end or record it came from.
"""


class GridJamError(Exception):
    """Base class for every error raised by this package."""


class MapError(GridJamError):
    """A bad map.

    A map file that is not UTF-8; map text that is empty, ragged or holds a
    character other than '#' and '.'; or a grid under 1x1 or of 2**24 cells
    or more.
    """


class ScenarioError(GridJamError):
    """A scenario file with a missing, unknown, repeated or unusable key.

    A scenario's start or goal that is occupied or off its map raises
    BadEndpointError instead, located like any other scenario error.
    """


class NoPathError(GridJamError):
    """The goal is unreachable from the start."""


class BadEndpointError(GridJamError):
    """Start or goal is occupied or outside the map.

    `gridmap.check_endpoint` alone raises it, for the planner's arguments,
    a command line's and a scenario's alike.
    """


def where(path, line=None) -> str:
    """The location that starts an error message about line `line` of the file at `path`.

    `<path>:<N>: `, or `<path>: ` when no line is at fault; for text parsed
    without a file (`path` None), `line <N>: `, or '' when no line is at fault.
    """
    if path is None:
        return "" if line is None else f"line {line}: "
    return f"{path}: " if line is None else f"{path}:{line}: "
