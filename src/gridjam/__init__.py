"""Worst-case obstacle placement against grid planners, plus the race sim.

The toolkit answers three questions about a robot navigating an occupancy
grid with A*: where a single square obstacle hurts a given route the most,
whether an attacker computing that placement in real time can beat the
robot to it, and how large the resulting delays are across a benchmark of
maps and goals.
"""

from .attack import AttackPlan, CandidateEval, Outcome, brute_force_attack
from .errors import BadEndpointError, GridJamError, MapError, NoPathError, ScenarioError
from .gridmap import Cell, GridMap, ObstaclePlacement, parse_map
from .harness import ADVERSARIAL, BENIGN, CSV_HEADER, read_csv, run_suite, write_csv
from .planner import astar, distance_field, euclidean_distance, prefix_costs
from .scenario import load_scenario, parse_scenario
from .sim import SimConfig, simulate, spawn_time_model
from .svgrender import render_scenario_svgs, render_svg

__version__ = "0.1.0"

__all__ = [
    "AttackPlan", "CandidateEval", "Outcome", "brute_force_attack",
    "BadEndpointError", "GridJamError", "MapError", "NoPathError", "ScenarioError",
    "Cell", "GridMap", "ObstaclePlacement", "parse_map",
    "ADVERSARIAL", "BENIGN", "CSV_HEADER", "read_csv", "run_suite", "write_csv",
    "astar", "distance_field", "euclidean_distance", "prefix_costs",
    "load_scenario", "parse_scenario",
    "SimConfig", "simulate", "spawn_time_model",
    "render_scenario_svgs", "render_svg",
    "__version__",
]
