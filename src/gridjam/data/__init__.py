"""Bundled demo maps and scenario files.

The scenarios here back the shipped benchmarks: a warehouse floor with a
central start and a ring of pick goals, plus three constrained rooms
(tunnel, turn, t-wall) that bracket the attack's impact from severe to
negligible.
"""

from importlib.resources import files
from pathlib import Path


def data_dir() -> Path:
    return Path(str(files(__package__)))


def scenario_path(name):
    """Path of a bundled scenario by name ('warehouse') or filename.

    Returns None when nothing matches, so callers can fall back to plain
    filesystem paths.
    """
    return _bundled(name, ".scn")


def map_path(name) -> Path:
    """Path of a bundled map by name ('branch') or filename; raises FileNotFoundError when nothing matches."""
    path = _bundled(name, ".txt")
    if path is None:
        raise FileNotFoundError(f"no bundled map named {name!r}")
    return path


def _bundled(name, suffix):
    """The bundled file named `name`, or `name` plus `suffix`, whose suffix is `suffix`; None when there is none."""
    base = data_dir()
    for candidate in (name, f"{name}{suffix}"):
        path = base / candidate
        if path.suffix == suffix and path.is_file():
            return path
    return None


def scenario_names():
    return sorted(p.stem for p in data_dir().glob("*.scn"))
