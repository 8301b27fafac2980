"""Command-line front end.

Exit codes: 0 on success, 1 for validation or usage errors, 2 for I/O
errors. All output is deterministic for identical inputs.
"""

import argparse
import sys
from pathlib import Path

from . import data as _data
from .attack import Outcome, brute_force_attack
from .errors import GridJamError
from .gridmap import check_side, load_map, read_cell, read_number
from .harness import format_run, run_suite, write_csv
from .planner import astar
from .scenario import load_scenario
from .svgrender import render_scenario_svgs, render_svg


class _UsageError(GridJamError):
    """A command line the commands cannot run: bad arguments, a bad cell or side, or a repeated scenario name."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except OSError as exc:  # a file that cannot be read, a map that a scenario names included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GridJamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    raise SystemExit(cli())


def _build_parser():
    parser = _Parser(prog="gridjam", description="Plan, attack, and race grid navigation runs.")
    sub = parser.add_subparsers(dest="command", required=True)
    on_map = argparse.ArgumentParser(add_help=False)  # the arguments of every command that takes a map
    for name in ("map", "start", "goal"):
        on_map.add_argument(name)
    sided = argparse.ArgumentParser(add_help=False)  # the obstacle side of every command that attacks
    sided.add_argument("--side", type=_side, default=3)

    p = sub.add_parser("plan", parents=[on_map], help="plan a route on a map")
    p.set_defaults(handler=_cmd_plan)

    p = sub.add_parser("attack", parents=[on_map, sided], help="search the worst obstacle placement for a route")
    p.set_defaults(handler=_cmd_attack)

    p = sub.add_parser("simulate", help="run one scenario and print every run")
    p.add_argument("scenario")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("suite", help="run scenarios, write a CSV, print summaries")
    p.add_argument("scenarios", nargs="+")
    p.add_argument("--csv", required=True)
    p.add_argument("--svg-dir")
    p.set_defaults(handler=_cmd_suite)

    p = sub.add_parser("render", parents=[on_map, sided], help="render a map, its route, and the attack to SVG")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_render)
    return parser


def _cmd_plan(args) -> int:
    grid = load_map(args.map)
    path = astar(grid, *_endpoints(args))
    print(f"cost={path.cost:.6f}")
    print("path=" + " ".join(str(c) for c in path.cells))
    return 0


def _cmd_attack(args) -> int:
    grid = load_map(args.map)
    plan = brute_force_attack(grid, *_endpoints(args), check_side(args.side, "--side", _UsageError))
    print(f"baseline_cost={plan.baseline.cost:.6f}")
    for entry in plan.ledger:
        line = f"candidate index={entry.index} center={entry.placement.center} outcome={entry.outcome.value}"
        if entry.outcome is Outcome.EVALUATED:
            line += f" cost={entry.cost:.6f}"
        print(line)
    if plan.best is None:
        print("best=none gain=0.000000")
    else:
        print(f"best={plan.best.center} gain={plan.gain:.6f}")
    return 0


def _cmd_simulate(args) -> int:
    scenario = load_scenario(_scenario_arg(args.scenario))
    runs, summary = run_suite(scenario)
    for run in runs:
        print(format_run(run))
    for goal in summary.skipped_goals:
        print(f"skipped scenario={scenario.name} goal={goal} reason=unreachable")
    return 0


def _cmd_suite(args) -> int:
    scenarios = [load_scenario(_scenario_arg(entry)) for entry in args.scenarios]
    names = set()
    for scenario in scenarios:
        # the name keys the CSV rows and the SVG file names
        if scenario.name in names:
            raise _UsageError(f"scenario name {scenario.name!r} is used by more than one scenario")
        names.add(scenario.name)
    blocks = [(scenario, *run_suite(scenario)) for scenario in scenarios]
    # the CSV first: a CSV path that cannot be written leaves no SVG behind
    write_csv([run for _, runs, _ in blocks for run in runs], args.csv)
    for scenario, runs, summary in blocks:
        if args.svg_dir:
            render_scenario_svgs(scenario, summary.plans, args.svg_dir)
        print(
            f"scenario={scenario.name} goals={len(scenario.goals)} "
            f"skipped={len(summary.skipped_goals)} runs={len(runs)}"
        )
        print(
            f"mean_abs_delay_s={_num(summary.overall_mean_delay_abs)} "
            f"mean_pct_delay={_num(summary.overall_mean_delay_pct)} "
            f"success_rate={_num(summary.success_rate)}"
        )
    return 0


def _cmd_render(args) -> int:
    grid = load_map(args.map)
    plan = brute_force_attack(grid, *_endpoints(args), check_side(args.side, "--side", _UsageError))
    render_svg(grid, plan, args.out)
    print(f"wrote {args.out}")
    return 0


def _num(value):
    return "na" if value is None else f"{value:.6f}"


def _endpoints(args):
    """The start and goal cells a map command names."""
    return read_cell(args.start, "start", _UsageError), read_cell(args.goal, "goal", _UsageError)


def _side(text):
    """The `--side` text read as an int like every other number; `check_side` rules on its value."""
    return read_number(text, "--side", int, _UsageError)


def _scenario_arg(entry):
    """A filesystem path, or the name of a bundled scenario."""
    path = Path(entry)
    if path.exists():
        return path
    bundled = _data.scenario_path(entry)
    if bundled is not None:
        return bundled
    raise FileNotFoundError(f"no such scenario file or bundled scenario: {entry}")


if __name__ == "__main__":
    main()
