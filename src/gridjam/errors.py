"""Exception hierarchy shared across the toolkit."""


class GridJamError(Exception):
    """Base class for every error raised by this package."""


# malformed map text or grid dimensions
class EmptyMapError(GridJamError):
    pass


class RaggedRowsError(GridJamError):
    pass


class BadCharError(GridJamError):
    pass


class NoPathError(GridJamError):
    """The goal is unreachable from the start."""


class BadEndpointError(GridJamError):
    """Start or goal is occupied or outside the map."""


class NoBaselineError(GridJamError):
    """The initial plan failed, so there is nothing to attack or simulate."""


# malformed scenario files
class MissingKeyError(GridJamError):
    pass


class UnknownKeyError(GridJamError):
    pass


class BadValueError(GridJamError):
    pass


class MapReadError(BadValueError, OSError):
    """A scenario names a map file that cannot be read: an I/O error, so the CLI exits 2."""
