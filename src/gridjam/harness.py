"""Experiment suites: benign and attacked repeats per goal, metrics, reports.

The protocol mirrors a bench campaign: for every goal the robot runs the
route `repeats` times without interference and `repeats` times against the
attacker, and the summary reports mean absolute delay, mean percentage
delay, and the attack success rate over the goals. Each run is reported as
a CSV row or as a text line; one field list decides what either shows.
"""

import csv
import io
from dataclasses import dataclass

from .attack import brute_force_attack
from .errors import NoPathError, where
from .gridmap import Cell, _write_texts, read_number, read_text
from .planner import distance_field
from .scenario import Scenario
from .sim import RunResult, simulate

BENIGN = "benign"
ADVERSARIAL = "adversarial"

CSV_HEADER = (
    "scenario", "goal_col", "goal_row", "condition", "repeat",
    "euclidean_m", "time_s", "spawn_time_s", "obstacle_col", "obstacle_row",
    "success", "delay_abs_s", "delay_pct",
)


@dataclass(frozen=True)
class SuiteRun:
    """One run plus the bookkeeping the result itself does not carry."""

    scenario: str
    condition: str
    repeat: int
    result: RunResult


@dataclass(frozen=True)
class MetricsSummary:
    per_goal: tuple  # the RunResult of each raced goal, in scenario order
    overall_mean_delay_abs: float
    overall_mean_delay_pct: float
    success_rate: float  # percent of attacked runs that landed; None if none attacked
    skipped_goals: tuple
    plans: tuple  # one AttackPlan per scenario goal, None where skipped


def run_suite(scenario: Scenario):
    """Run the full protocol; returns (runs, summary).

    Each goal is attacked and raced once: the race is deterministic, so every
    repeat of either condition reports the same RunResult. Every attack and
    every race shares one distance field from the start, and every race runs
    with the scenario's own timing, `scenario.race`. Runs are ordered by (goal
    index, condition, repeat) with benign before adversarial. A goal the
    planner cannot reach is skipped and recorded in the summary instead of
    aborting the suite. A parsed scenario's start and goals are free cells
    on its map; a `Scenario` built by hand with an occupied or off-map start
    or goal raises BadEndpointError, the error a scenario file holding it
    raises, without the location.
    """
    runs = []
    results = []
    skipped = []
    plans = []
    field = distance_field(scenario.grid, scenario.start)
    for goal in scenario.goals:
        try:
            plan = brute_force_attack(scenario.grid, scenario.start, goal, scenario.obstacle_side, field)
        except NoPathError:
            skipped.append(goal)
            plans.append(None)
            continue
        plans.append(plan)
        result = simulate(scenario.grid, plan, scenario.race, field)
        results.append(result)
        runs.extend(
            SuiteRun(scenario.name, condition, repeat, result)
            for condition in (BENIGN, ADVERSARIAL)
            for repeat in range(1, scenario.repeats + 1)
        )
    return runs, _summarize(results, skipped, plans)


def _summarize(results, skipped, plans):
    """Means over the raced goals; every repeat of a goal reports the same result."""
    delays = [r.delay_abs for r in results]
    pcts = [r.delay_pct for r in results if r.delay_pct is not None]
    landed = [r.attack_success for r in results if r.attack_success is not None]
    return MetricsSummary(
        per_goal=tuple(results),
        overall_mean_delay_abs=_mean(delays) if delays else None,
        overall_mean_delay_pct=_mean(pcts) if pcts else None,
        success_rate=100.0 * sum(landed) / len(landed) if landed else None,
        skipped_goals=tuple(skipped),
        plans=tuple(plans),
    )


def _mean(values):
    return sum(values) / len(values)


def write_csv(runs, out_path):
    """Write the results CSV to out_path: one row per run; optionals are blank, floats use 6 decimals.

    On an error no file is created or replaced (`gridmap._write_texts`).
    """
    _write_texts([(out_path, _csv_text(runs))])


def _csv_text(runs) -> str:
    """The text that `write_csv` writes for runs."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(map(_csv_row, runs))
    return buf.getvalue()


def format_run(run) -> str:
    """One-line text report of a run: only the fields that are not blank."""
    line = f"run scenario={run.scenario} goal={run.result.goal} condition={run.condition} repeat={run.repeat}"
    for name, value in _run_fields(run):
        if value is not None:
            line += f" {name}={_fmt(value)}"
    return line


def _csv_row(run):
    r = run.result
    row = [run.scenario, r.goal.col, r.goal.row, run.condition, run.repeat, _fmt(r.euclidean)]
    for name, value in _run_fields(run):
        if name == "obstacle":
            row += ["", ""] if value is None else [value.col, value.row]
        else:
            row.append(_fmt(value))
    return row


def _run_fields(run):
    """The fields a run reports, in output order; None marks a blank.

    A benign run reports only its trip time; an adversarial run reports the
    attacked trip and the race that decided it.
    """
    r = run.result
    if run.condition == BENIGN:
        return (
            ("time_s", r.benign_time), ("spawn_time_s", None), ("obstacle", None),
            ("success", None), ("delay_abs_s", None), ("delay_pct", None),
        )
    return (
        ("time_s", r.adversarial_time),
        ("spawn_time_s", r.spawn_time),
        ("obstacle", r.obstacle.center if r.obstacle is not None else None),
        ("success", r.attack_success),
        ("delay_abs_s", r.delay_abs),
        ("delay_pct", r.delay_pct),
    )


def _fmt(value):
    """Text of one reported value: blank, true/false, a cell, or 6 decimals."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Cell):
        return str(value)
    return f"{value:.6f}"


def read_csv(path):
    """Parse a results CSV back into typed row dicts (blank -> None).

    The file is read as UTF-8. A bad or missing header, a row with the
    wrong number of fields, a bad number, a bad success value or text the
    csv module cannot split into fields raises ValueError starting
    `<path>:N: ` with its line; a file that is not UTF-8 raises one
    starting `<path>: `.
    """
    reader = csv.reader(io.StringIO(read_text(path, ValueError)))
    rows = []
    try:
        header = tuple(next(reader, ()))
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header: {header}")
        for raw in reader:
            rows.append(_typed_row(raw))
    except (ValueError, csv.Error) as exc:
        # an empty file has read no line, but its missing header is line 1
        raise ValueError(where(path, max(reader.line_num, 1)) + str(exc)) from None
    return rows


_SUCCESS = {"true": True, "false": False, "": None}


def _typed_row(raw):
    if len(raw) != len(CSV_HEADER):
        raise ValueError(f"expected {len(CSV_HEADER)} fields, got {len(raw)}")
    record = dict(zip(CSV_HEADER, raw))
    for key in ("goal_col", "goal_row", "repeat"):
        record[key] = read_number(record[key], key, int, ValueError)
    for key in ("euclidean_m", "time_s", "spawn_time_s", "delay_abs_s", "delay_pct"):
        record[key] = read_number(record[key], key, float, ValueError) if record[key] else None
    for key in ("obstacle_col", "obstacle_row"):
        record[key] = read_number(record[key], key, int, ValueError) if record[key] else None
    if record["success"] not in _SUCCESS:
        raise ValueError(f"success must be 'true', 'false' or blank, got {record['success']!r}")
    record["success"] = _SUCCESS[record["success"]]
    return record

