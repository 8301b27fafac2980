"""Command-line behaviour: output shapes and exit codes."""

import os
import pathlib
import random
import shlex
import subprocess
import sys

import pytest

import gridjam
from gridjam.cli import cli
from gridjam.data import map_path
from conftest import BRANCH_TEXT, CORRIDOR_TEXT, mutate

BRANCH_SCN = """\
name = branch
map = branch.txt
cell_size = 1.0
start = 1,1
goal = 5,1
speed = 1.0
obstacle_side = 1
eval_time_per_candidate = 0
"""


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "branch.txt").write_text(BRANCH_TEXT)
    (tmp_path / "corridor.txt").write_text(CORRIDOR_TEXT)
    (tmp_path / "branch.scn").write_text(BRANCH_SCN)
    return tmp_path


def test_plan(workdir, capsys):
    code = cli(["plan", str(workdir / "branch.txt"), "1,1", "5,1"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "cost=4.000000"
    assert lines[1] == "path=1,1 2,1 3,1 4,1 5,1"


def test_attack_with_gain(workdir, capsys):
    code = cli(["attack", str(workdir / "branch.txt"), "1,1", "5,1", "--side", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "baseline_cost=4.000000" in out
    assert "candidate index=1 center=2,1 outcome=evaluated cost=8.000000" in out
    assert out.strip().split("\n")[-1] == "best=2,1 gain=4.000000"


def test_attack_without_gain(workdir, capsys):
    code = cli(["attack", str(workdir / "corridor.txt"), "1,1", "5,1", "--side", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip().split("\n")[-1] == "best=none gain=0.000000"


def test_simulate(workdir, capsys):
    code = cli(["simulate", str(workdir / "branch.scn")])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 6
    assert lines[0] == "run scenario=branch goal=5,1 condition=benign repeat=1 time_s=4.000000"
    assert (
        lines[3] == "run scenario=branch goal=5,1 condition=adversarial repeat=1 "
        "time_s=8.000000 spawn_time_s=0.000000 obstacle=2,1 success=true "
        "delay_abs_s=4.000000 delay_pct=100.000000"
    )


def test_simulate_reports_an_unreachable_goal(workdir, capsys):
    # free pocket behind the wall at col 5: a valid goal no route reaches
    (workdir / "pocket.txt").write_text("########\n#....#.#\n#....#.#\n########\n")
    text = BRANCH_SCN.replace("map = branch.txt", "map = pocket.txt").replace("goal = 5,1", "goal = 6,1\ngoal = 4,1")
    (workdir / "pocket.scn").write_text(text)
    code = cli(["simulate", str(workdir / "pocket.scn")])
    lines = capsys.readouterr().out.strip().split("\n")
    assert code == 0
    assert len(lines) == 7  # six runs to the reachable goal
    assert all(" goal=4,1 " in line for line in lines[:6])
    assert lines[6] == "skipped scenario=branch goal=6,1 reason=unreachable"


def test_suite(workdir, capsys, tmp_path):
    csv_path = tmp_path / "out.csv"
    svg_dir = tmp_path / "svg"
    code = cli([
        "suite", str(workdir / "branch.scn"),
        "--csv", str(csv_path), "--svg-dir", str(svg_dir),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "scenario=branch goals=1 skipped=0 runs=6" in out
    assert "mean_abs_delay_s=4.000000 mean_pct_delay=100.000000 success_rate=100.000000" in out
    assert csv_path.exists()
    assert (svg_dir / "branch-goal01.svg").exists()
    assert (svg_dir / "branch-obstacles.svg").exists()


def test_suite_start_delay_reaches_the_race(workdir, tmp_path, capsys):
    # the robot enters the footprint at 2,1 one second in: an attack that
    # starts at 0.5 s lands, one that starts at 1.5 s comes too late
    success = {}
    for delay in ("0.5", "1.5"):
        (workdir / "branch.scn").write_text(BRANCH_SCN + f"attack_start_delay = {delay}\n")
        code = cli(["suite", str(workdir / "branch.scn"), "--csv", str(tmp_path / "out.csv")])
        assert code == 0
        success[delay] = capsys.readouterr().out.split("success_rate=")[1].strip()
    assert success == {"0.5": "100.000000", "1.5": "0.000000"}


def test_suite_writes_no_svg_when_the_csv_cannot_be_written(workdir, tmp_path, capsys):
    svg_dir = tmp_path / "svg"
    code = cli([
        "suite", str(workdir / "branch.scn"),
        "--csv", str(tmp_path / "nodir" / "out.csv"), "--svg-dir", str(svg_dir),
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not svg_dir.exists()


def test_suite_rejects_a_repeated_scenario_name(workdir, tmp_path, capsys):
    # the second file's SVGs would overwrite the first's, and the CSV rows
    # of both would carry one name
    (workdir / "corridor.scn").write_text(BRANCH_SCN.replace("branch.txt", "corridor.txt"))
    csv_path = tmp_path / "out.csv"
    svg_dir = tmp_path / "svg"
    code = cli([
        "suite", str(workdir / "branch.scn"), str(workdir / "corridor.scn"),
        "--csv", str(csv_path), "--svg-dir", str(svg_dir),
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert "scenario name 'branch'" in captured.err
    assert captured.out == ""
    assert not csv_path.exists()
    assert not svg_dir.exists()


def test_suite_resolves_bundled_scenarios(tmp_path, capsys):
    code = cli(["suite", "turn", "--csv", str(tmp_path / "turn.csv")])
    out = capsys.readouterr().out
    assert code == 0
    assert "scenario=turn" in out


def test_render(workdir, tmp_path, capsys):
    out_svg = tmp_path / "branch.svg"
    code = cli([
        "render", str(workdir / "branch.txt"), "1,1", "5,1",
        "--side", "1", "--out", str(out_svg),
    ])
    assert code == 0
    assert out_svg.read_text().count("<polyline") == 2


def test_validation_error_exit_code(workdir, capsys):
    # start on a wall is a validation problem, not an I/O one
    code = cli(["plan", str(workdir / "branch.txt"), "0,0", "5,1"])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error: start 0,0 is occupied\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["plan", "bad.txt", "0,0", "1,0"], "bad.txt:2: unexpected character 'x'"),
        (["attack", "bad.txt", "0,0", "1,0"], "bad.txt:2: unexpected character 'x'"),
        (["render", "bad.txt", "0,0", "1,0", "--out", "bad.svg"], "bad.txt:2: unexpected character 'x'"),
        (["simulate", "badmap.scn"], "badmap.scn:2: bad.txt:2: unexpected character 'x'"),
        (["simulate", "unknown.scn"], "unknown.scn:9: unknown key 'velocity'"),
        (["simulate", "nospeed.scn"], "nospeed.scn: missing required key 'speed'"),
        (["plan", "branch.txt", "9,9", "5,1"], "start 9,9 is outside the 7x5 map"),
        (["plan", "walled.txt", "0,0", "2,0"], "no path from 0,0 to 2,0"),
        (["plan", "latin.txt", "0,0", "1,0"], "latin.txt: not UTF-8 text (invalid start byte at byte 0)"),
        (["simulate", "latin.scn"], "latin.scn: not UTF-8 text (invalid start byte at byte 0)"),
        (["simulate", "latinmap.scn"], "latinmap.scn:2: latin.txt: not UTF-8 text (invalid start byte at byte 0)"),
    ],
    ids=[
        "bad-map-char", "bad-map-char-attack", "bad-map-char-render", "bad-map-char-of-scenario", "unknown-scenario-key", "missing-scenario-key", "off-map-start", "walled-off-goal",
        "non-utf8-map", "non-utf8-scenario", "non-utf8-map-of-scenario",
    ],
)
def test_input_error_exit_code(argv, message, workdir, monkeypatch, capsys):
    # every kind of bad input exits 1 with one line naming what is wrong
    (workdir / "bad.txt").write_text("#.\n#x\n")
    (workdir / "walled.txt").write_text(".#.\n.#.\n.#.\n")
    (workdir / "badmap.scn").write_text(BRANCH_SCN.replace("map = branch.txt", "map = bad.txt"))
    (workdir / "unknown.scn").write_text(BRANCH_SCN + "velocity = 2\n")
    (workdir / "nospeed.scn").write_text(BRANCH_SCN.replace("speed = 1.0\n", ""))
    (workdir / "latin.txt").write_bytes(b"\xff.\n..\n")
    (workdir / "latin.scn").write_bytes(b"\xff" + BRANCH_SCN.encode())
    (workdir / "latinmap.scn").write_text(BRANCH_SCN.replace("map = branch.txt", "map = latin.txt"))
    monkeypatch.chdir(workdir)
    code = cli(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("speed = 1.0", "speed = 1e-310", "6: speed 1e-310 and cell_size 1.0 let a route on this 7x5 map"),
        (
            "eval_time_per_candidate = 0",
            "eval_time_per_candidate = 1e308",
            "8: eval_time_per_candidate 1e308 lets an attack on this 7x5 map",
        ),
    ],
    ids=["speed", "eval-time"],
)
def test_suite_rejects_times_that_overflow(old, new, message, workdir, capsys):
    # each value is finite, but a race time built from it would not be, and
    # the CSV would hold inf or nan
    scn = workdir / "slow.scn"
    scn.write_text(BRANCH_SCN.replace(old, new))
    csv_path = workdir / "runs.csv"
    svg_dir = workdir / "svg"
    code = cli(["suite", str(scn), "--csv", str(csv_path), "--svg-dir", str(svg_dir)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: {scn}:{message} take longer than a float can hold\n"
    assert captured.out == ""
    assert not csv_path.exists()
    assert not svg_dir.exists()


def test_suite_rejects_times_that_underflow(workdir, capsys):
    # each value is positive, but a step's time rounds to 0, every race time
    # with it, and the spawn could never precede the robot's arrival
    scn = workdir / "fast.scn"
    scn.write_text(BRANCH_SCN.replace("cell_size = 1.0", "cell_size = 1e-200").replace("speed = 1.0", "speed = 1e200"))
    csv_path = workdir / "runs.csv"
    code = cli(["suite", str(scn), "--csv", str(csv_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == (
        f"error: {scn}:6: speed 1e200 and cell_size 1e-200 let a step take less time than a normal float can hold\n"
    )
    assert captured.out == ""
    assert not csv_path.exists()


def test_bad_cell_argument(workdir, capsys):
    code = cli(["plan", str(workdir / "branch.txt"), "onecomma", "5,1"])
    assert code == 1
    assert capsys.readouterr().err == "error: start expects 'col,row', got 'onecomma'\n"


@pytest.mark.parametrize("text", ["0_1,1", "١,1", "1,１"])
def test_cell_argument_in_other_digits_rejected(text, workdir, capsys):
    # `int` would read each as 1,1, a free cell of branch.txt
    code = cli(["plan", str(workdir / "branch.txt"), text, "5,1"])
    assert code == 1
    assert capsys.readouterr().err == f"error: start expects 'col,row', got {text!r}\n"


@pytest.mark.parametrize("command", ["attack", "render"])
def test_even_side_rejected(command, workdir, capsys):
    out = ["--out", str(workdir / "route.svg")] if command == "render" else []
    code = cli([command, str(workdir / "branch.txt"), "1,1", "5,1", "--side", "2", *out])
    assert code == 1
    assert capsys.readouterr().err == "error: --side must be an odd positive integer, got 2\n"
    assert not (workdir / "route.svg").exists()


@pytest.mark.parametrize("command", ["attack", "render"])
@pytest.mark.parametrize("text", ["٣", "1_1", "x"])
def test_side_read_like_every_number(command, text, workdir, capsys):
    # argparse's `int` would read `٣` as 3 and `1_1` as 11, both valid sides
    out = ["--out", str(workdir / "route.svg")] if command == "render" else []
    code = cli([command, str(workdir / "branch.txt"), "1,1", "5,1", "--side", text, *out])
    assert code == 1
    assert capsys.readouterr().err == f"error: --side expects an integer, got {text!r}\n"
    assert not (workdir / "route.svg").exists()


def test_argument_lists_exit_0_1_or_2(workdir, monkeypatch, capsys):
    # seeded argument lists, each a valid command on a tiny map or scenario
    # with a few arguments swapped and then up to one edit: each exits 0, 1
    # or 2, lets no exception out, and prints one error line when it fails.
    # Relative outputs land in the test's own directory, and the inputs are
    # written again after each list that names an output file, since an
    # edit may make an input that file
    monkeypatch.chdir(workdir)
    (workdir / "bad.txt").write_text("#.\n#x\n")
    (workdir / "latin.txt").write_bytes(b"\xff.\n..\n")
    valid = [
        ["plan", "branch.txt", "1,1", "5,1"],
        ["attack", "branch.txt", "1,1", "5,1", "--side", "1"],
        ["render", "corridor.txt", "1,1", "5,1", "--side", "1", "--out", "route.svg"],
        ["simulate", "branch.scn"],
        ["suite", "branch.scn", "corridor", "--csv", "runs.csv", "--svg-dir", "svg"],
    ]
    tokens = [
        "plan", "attack", "simulate", "suite", "render", "--side", "--out", "--csv", "--svg-dir", "--help", "-x", "",
        "٣", "1_1", "x", "1", "3", "2", "0", "-1", "1,1", "5,1", "0,0", "9,9", "٣,1", "1_1,1", "1,1,1", "1,3",
        "branch.txt", "corridor.txt", "bad.txt", "latin.txt", "missing.txt", "branch.scn", "branch", "corridor",
        "route.svg", "runs.csv", "svg", "nodir/runs.csv", ".",
    ]
    rng = random.Random("fuzz:cli")
    for _ in range(200):
        argv = list(rng.choice(valid))
        for _ in range(rng.randint(0, 2)):
            argv[rng.randrange(1, len(argv))] = rng.choice(tokens)
        argv = mutate(rng, argv, tokens, 1)
        code = cli(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2) and (err == "" if code == 0 else err.startswith("error: ")), argv
        assert err.count("\n") == (code != 0), argv
        if {"--out", "--csv"} & set(argv):
            for name, text in (("branch.txt", BRANCH_TEXT), ("corridor.txt", CORRIDOR_TEXT), ("branch.scn", BRANCH_SCN)):
                (workdir / name).write_text(text)


def test_missing_file_exit_code(tmp_path, capsys):
    code = cli(["plan", str(tmp_path / "nope.txt"), "0,0", "1,1"])
    assert code == 2
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{tmp_path / 'nope.txt'}'\n"


def test_missing_scenario_exit_code(tmp_path, capsys):
    code = cli(["simulate", str(tmp_path / "nope.scn")])
    assert code == 2
    assert capsys.readouterr().err == f"error: no such scenario file or bundled scenario: {tmp_path / 'nope.scn'}\n"


@pytest.mark.parametrize("command", ["simulate", "suite"])
def test_missing_map_of_scenario_exit_code(command, workdir, capsys):
    # an unreadable map is an I/O error even when a scenario names it
    scn = workdir / "nomap.scn"
    scn.write_text(BRANCH_SCN.replace("map = branch.txt", "map = nope.txt"))
    args = [command, str(scn)] + (["--csv", str(workdir / "runs.csv")] if command == "suite" else [])
    code = cli(args)
    err = capsys.readouterr().err
    assert code == 2
    assert err == (
        f"error: {scn}:2: [Errno 2] No such file or directory: '{workdir / 'nope.txt'}'\n"
    )
    assert not (workdir / "runs.csv").exists()


def test_bad_map_of_scenario_names_the_map(workdir, capsys):
    (workdir / "m.txt").write_text("#.\n#x\n")
    (workdir / "s.scn").write_text(BRANCH_SCN.replace("map = branch.txt", "map = m.txt"))
    code = cli(["simulate", str(workdir / "s.scn")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {workdir / 's.scn'}:2: {workdir / 'm.txt'}:2: unexpected character 'x'\n"


def readme_examples():
    """(argv, shown lines) per README console command that shows output."""
    examples = []
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    for block in readme.read_text().split("```console\n")[1:]:
        for line in block.split("```")[0].splitlines():
            if line.startswith("$ "):
                examples.append((shlex.split(line[2:]), []))
            else:
                examples[-1][1].append(line)
    return [(argv, shown) for argv, shown in examples if shown]


def test_readme_examples(tmp_path, monkeypatch, capsys):
    # the commands write files, so they run in a scratch directory that
    # holds the bundled map the README names
    (tmp_path / "branch.txt").write_text(map_path("branch").read_text())
    monkeypatch.chdir(tmp_path)
    examples = readme_examples()
    assert [argv[:2] for argv, _ in examples] == [["gridjam", "plan"], ["gridjam", "attack"], ["gridjam", "suite"]]
    for argv, shown in examples:
        assert cli(argv[1:]) == 0, argv
        assert capsys.readouterr().out.splitlines() == shown, argv


def test_unknown_subcommand(capsys):
    assert cli(["frobnicate"]) == 1


def test_help_exits_zero(capsys):
    assert cli(["--help"]) == 0


def test_module_entry_point(workdir):
    # `python -m gridjam.cli` runs the same CLI as the `gridjam` script
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(gridjam.__file__).parent.parent))

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "gridjam.cli", *args],
            cwd=workdir, env=env, capture_output=True, text=True, timeout=60,
        )

    ok = run("plan", "branch.txt", "1,1", "5,1")
    assert ok.returncode == 0
    assert ok.stdout.split("\n")[0] == "cost=4.000000"
    bad = run("plan", "branch.txt", "onecomma", "5,1")
    assert bad.returncode == 1
    assert bad.stderr == "error: start expects 'col,row', got 'onecomma'\n"


def test_runtime_imports_only_the_standard_library():
    # -S keeps site hooks (.pth files) from loading third-party modules first
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
        "import gridjam, gridjam.cli, gridjam.data; "
        "print(*sorted({name.partition('.')[0] for name in set(sys.modules) - before}))"
    )
    src = str(pathlib.Path(gridjam.__file__).parent.parent)
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", probe, src], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "gridjam" in loaded
    assert loaded - {"gridjam"} <= sys.stdlib_module_names
