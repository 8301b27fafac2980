"""Exception hierarchy shared across the toolkit."""


class GridJamError(Exception):
    """Base class for every error raised by this package."""


class MapError(GridJamError):
    """Malformed map text or grid dimensions."""


class EmptyMapError(MapError):
    pass


class RaggedRowsError(MapError):
    pass


class BadCharError(MapError):
    pass


class PlannerError(GridJamError):
    pass


class NoPathError(PlannerError):
    """The goal is unreachable from the start."""


class BadEndpointError(PlannerError):
    """Start or goal is occupied or outside the map."""


class NoBaselineError(GridJamError):
    """The initial plan failed, so there is nothing to attack or simulate."""


class ScenarioError(GridJamError):
    pass


class MissingKeyError(ScenarioError):
    pass


class UnknownKeyError(ScenarioError):
    pass


class BadValueError(ScenarioError):
    pass
