"""Committed mutants: each one proves that the checks it names still catch it.

A mutant is an exact old -> new string in one file of `src/gridjam`, with
its killers: tier-1 node ids (`tests/...py::name`) and sweep commands
(`tests/sweep.py ...`, run with this Python). For each mutant the script
copies `src/` to a temporary directory, applies the mutant there and runs
every killer on the copy, named by `PYTHONPATH` and by pytest's
`pythonpath` setting, which would otherwise put the repository's own
`src/` first; each killer must fail. Before
that, every killer must pass on an unmutated copy, so that a killer that
fails for another reason, or names no test, kills nothing.

    python tests/mutants.py

Run it from the repository root. It prints one line per mutant and exits
1 when a mutant survives one of its killers, or when a mutant's old
string does not occur exactly once in its file, so the list follows the
code. CI runs it; tier-1 does not.
"""

import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # in src/gridjam
    old: str
    new: str
    killers: tuple  # node ids with `::`, or sweep command lines


MUTANTS = (
    Mutant(
        "the spawn lands on the robot's arrival at the footprint",
        "sim.py",
        "landed = spawn < arrival[enter_index]",
        "landed = spawn <= arrival[enter_index]",
        ("tests/test_sim.py::test_spawns_at_arrival_marks",),
    ),
    Mutant(
        "the robot backs off to the spawn time, not as long again as it went on",
        "sim.py",
        "t_snap = 2.0 * spawn - arrival[passed]",
        "t_snap = spawn",
        (
            "tests/test_sim.py::test_successful_detour_is_walkable",
            "tests/test_sim.py::test_spawn_one_ulp_before_the_footprint_lands",
            "tests/test_sim.py::test_spawns_at_arrival_marks",
            "tests/test_golden.py::test_suite_outputs_match_golden_digest",
        ),
    ),
    Mutant(
        "`_exits` without its bottom-right corner's roots",
        "planner.py",
        "        (bottom_right + 1, bottom_right + stride), (bottom_right + stride, bottom_right + 1),\n",
        "",
        (
            "tests/test_planner.py::test_exits_match_the_walk_up_the_tree",
            "tests/test_attack.py::test_every_attack_on_every_3x3_map_matches_the_oracle",
            "tests/test_golden.py::test_suite_outputs_match_golden_digest",
            "tests/sweep.py exits 30",
        ),
    ),
    Mutant(
        "`_exits` takes the top-right corner's roots at the top-left corner",
        "planner.py",
        "(top_right + 1, top_right - stride), (top_right - stride, top_right + 1),",
        "(top_left + 1, top_left - stride), (top_left - stride, top_left + 1),",
        (
            "tests/test_planner.py::test_exits_match_the_walk_up_the_tree",
            "tests/test_attack.py::test_oracle_agrees_on_fixtures",
            "tests/test_acceptance.py::test_criterion_2_attack_agrees_with_slow_oracle",
            "tests/test_golden.py::test_suite_outputs_match_golden_digest",
            "tests/sweep.py exits 30",
        ),
    ),
    Mutant(
        "the writer replaces each file as soon as it is written",
        "gridmap.py",
        "                fh.write(text)\n        for temp, (target, _) in zip(temps, outputs):\n",
        "                fh.write(text)\n            os.replace(temp, target)\n        for temp, (target, _) in ():\n",
        ("tests/test_gridmap.py::test_write_texts_writes_every_file_or_none",),
    ),
    Mutant(
        "the writer leaves its temporaries and new directories behind",
        "gridmap.py",
        "        for temp in temps:\n            with contextlib.suppress(OSError):\n                os.remove(temp)\n"
        "        for folder in made:\n            with contextlib.suppress(OSError):\n                os.rmdir(folder)\n",
        "",
        (
            "tests/test_gridmap.py::test_write_texts_writes_every_file_or_none",
            "tests/test_cli.py::test_an_output_that_cannot_be_written_leaves_every_file_as_it_was[csv-directory-missing]",
            "tests/test_cli.py::test_an_output_that_cannot_be_written_leaves_every_file_as_it_was[svg-name-too-long]",
        ),
    ),
)


def failures(src: Path, killers) -> set:
    """The killers that fail with `PYTHONPATH` on src: pytest's failed node ids, and failing commands."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    failed = set()
    tests = [k for k in killers if "::" in k]
    if tests:
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", "-o", f"pythonpath={src}", *tests],
            cwd=ROOT, env=env, capture_output=True, text=True,
        )
        if run.returncode not in (0, 1):  # 1: some tests failed; anything else: no test ran as asked
            raise SystemExit(f"pytest exited {run.returncode} on {tests}:\n{run.stdout}{run.stderr}")
        failed.update(re.findall(r"^FAILED (\S+)", run.stdout, re.MULTILINE))
    for command in killers:
        if "::" not in command:
            run = subprocess.run([sys.executable, *shlex.split(command)], cwd=ROOT, env=env, capture_output=True)
            if run.returncode != 0:
                failed.add(command)
    return failed


def main() -> int:
    every_killer = sorted({k for mutant in MUTANTS for k in mutant.killers})
    bad = False
    with tempfile.TemporaryDirectory() as scratch:
        clean = Path(scratch) / "clean"
        shutil.copytree(ROOT / "src", clean, ignore=shutil.ignore_patterns("__pycache__"))
        failed = failures(clean, every_killer)
        if failed:
            print(f"killers that fail on the unmutated source: {sorted(failed)}")
            return 1
        for number, mutant in enumerate(MUTANTS):
            path = ROOT / "src" / "gridjam" / mutant.file
            count = path.read_text(encoding="utf-8").count(mutant.old)
            if count != 1:
                print(f"STALE   {mutant.name}: its old string occurs {count} times in {mutant.file}")
                bad = True
                continue
            copy = Path(scratch) / str(number)
            shutil.copytree(clean, copy)
            target = copy / "gridjam" / mutant.file
            target.write_text(target.read_text(encoding="utf-8").replace(mutant.old, mutant.new), encoding="utf-8")
            survived = [k for k in mutant.killers if k not in failures(copy, mutant.killers)]
            if survived:
                print(f"SURVIVED {mutant.name}: {', '.join(survived)} passed")
                bad = True
            else:
                print(f"killed  {mutant.name} by {len(mutant.killers)} of {len(mutant.killers)} killers")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
