"""Command-line front end.

Every value the command line spells out (a start or goal cell, `--side`,
a scenario name or path, an output path) is read and checked by its
argparse type, before any map or scenario file is read. Exit codes: 0 on
success, 1 for validation or usage errors, 2 for I/O errors: a file that
cannot be read or written, or an output path that no file can have. A
command's output files, `suite`'s CSV and SVGs or `render`'s SVG, are
written together by one call of `gridmap._write_texts` once everything
is computed, and `suite` prints its summaries after that: a command that
exits 1 or 2 creates or replaces no output file or directory. All output
is deterministic for identical inputs.
"""

import argparse
import errno
import functools
import os
import sys
from pathlib import Path

from . import data as _data
from .attack import Outcome, brute_force_attack
from .errors import GridJamError
from .gridmap import _write_texts, check_side, load_map, read_cell, read_number
from .harness import _csv_text, format_run, run_suite
from .planner import astar
from .scenario import load_scenario
from .svgrender import _scenario_svgs, render_svg


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
    except OSError as exc:  # a file that cannot be read or written, or an output path no file can have
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GridJamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    raise SystemExit(cli())


@functools.cache  # built at the first call, so that importing the module stays cheap
def _build_parser():
    parser = _Parser(prog="gridjam", description="Plan, attack, and race grid navigation runs.")
    sub = parser.add_subparsers(dest="command", required=True)
    on_map = argparse.ArgumentParser(add_help=False)  # the arguments of every command that takes a map
    on_map.add_argument("map")
    for name in ("start", "goal"):
        on_map.add_argument(name, type=functools.partial(read_cell, label=name, error=_UsageError))
    sided = argparse.ArgumentParser(add_help=False)  # the obstacle side of every command that attacks
    sided.add_argument("--side", type=_side, default=3)

    p = sub.add_parser("plan", parents=[on_map], help="plan a route on a map")
    p.set_defaults(handler=_cmd_plan)

    p = sub.add_parser("attack", parents=[on_map, sided], help="search the worst obstacle placement for a route")
    p.set_defaults(handler=_cmd_attack)

    p = sub.add_parser("simulate", help="run one scenario and print every run")
    p.add_argument("scenario", type=_scenario_arg)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("suite", help="run scenarios, write a CSV, print summaries")
    p.add_argument("scenarios", nargs="+", type=_scenario_arg)
    p.add_argument("--csv", required=True, type=_out_path)
    p.add_argument("--svg-dir", type=_out_path)
    p.set_defaults(handler=_cmd_suite)

    p = sub.add_parser("render", parents=[on_map, sided], help="render a map, its route, and the attack to SVG")
    p.add_argument("--out", required=True, type=_out_path)
    p.set_defaults(handler=_cmd_render)
    return parser


def _cmd_plan(args) -> int:
    grid = load_map(args.map)
    path = astar(grid, args.start, args.goal)
    print(f"cost={path.cost:.6f}")
    print("path=" + " ".join(str(c) for c in path.cells))
    return 0


def _cmd_attack(args) -> int:
    grid = load_map(args.map)
    plan = brute_force_attack(grid, args.start, args.goal, args.side)
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
    scenario = load_scenario(args.scenario)
    runs, summary = run_suite(scenario)
    for run in runs:
        print(format_run(run))
    for goal in summary.skipped_goals:
        print(f"skipped scenario={scenario.name} goal={goal} reason=unreachable")
    return 0


def _cmd_suite(args) -> int:
    scenarios = [load_scenario(path) for path in args.scenarios]
    names = set()
    for scenario in scenarios:
        # the name keys the CSV rows and the SVG file names
        if scenario.name in names:
            raise _UsageError(f"scenario name {scenario.name!r} is used by more than one scenario")
        names.add(scenario.name)
    blocks = [(scenario, *run_suite(scenario)) for scenario in scenarios]
    outputs = [(args.csv, _csv_text([run for _, runs, _ in blocks for run in runs]))]
    if args.svg_dir:
        for scenario, _, summary in blocks:
            outputs += _scenario_svgs(scenario, summary.plans, args.svg_dir)
    _write_texts(outputs, args.svg_dir)
    for scenario, runs, summary in blocks:
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
    plan = brute_force_attack(grid, args.start, args.goal, args.side)
    render_svg(grid, plan, args.out)
    print(f"wrote {args.out}")
    return 0


def _num(value):
    return "na" if value is None else f"{value:.6f}"


def _side(text):
    """The `--side` text read as an int like every other number, and checked as an obstacle side."""
    return check_side(read_number(text, "--side", int, _UsageError), "--side", _UsageError)


def _scenario_arg(entry):
    """A filesystem path, or the name of a bundled scenario."""
    path = Path(entry)
    if path.exists():
        return path
    bundled = _data.scenario_path(entry)
    if bundled is not None:
        return bundled
    raise FileNotFoundError(f"no such scenario file or bundled scenario: {entry}")


def _out_path(text):
    """An output path; one that no file can have raises FileNotFoundError, as `gridmap.read_text` does for an input.

    Such a path holds a NUL or a lone surrogate the file system cannot
    encode, and `open` or `mkdir` would raise ValueError for it.
    """
    try:
        if b"\0" not in os.fsencode(text):
            return text
    except UnicodeEncodeError:
        pass
    raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), text)


if __name__ == "__main__":
    main()
