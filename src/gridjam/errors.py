"""The errors this package raises for input it cannot use.

There is one class per kind of bad input, and the command line exits 1 on
any of them. An unreadable file is not one of them: it raises `OSError`,
and the command line exits 2.
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
    """A scenario file with a missing, unknown, repeated or unusable key."""


class NoPathError(GridJamError):
    """The goal is unreachable from the start."""


class BadEndpointError(GridJamError):
    """Start or goal is occupied or outside the map."""
