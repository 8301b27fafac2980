"""Command-line behaviour: output shapes and exit codes."""

import os
import pathlib
import subprocess
import sys

import pytest

import gridjam
from gridjam.cli import cli
from conftest import BRANCH_TEXT, CORRIDOR_TEXT

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
    assert "error:" in err


def test_bad_cell_argument(workdir, capsys):
    code = cli(["plan", str(workdir / "branch.txt"), "onecomma", "5,1"])
    assert code == 1


def test_even_side_rejected(workdir, capsys):
    code = cli(["attack", str(workdir / "branch.txt"), "1,1", "5,1", "--side", "2"])
    assert code == 1


def test_missing_file_exit_code(tmp_path, capsys):
    code = cli(["plan", str(tmp_path / "nope.txt"), "0,0", "1,1"])
    assert code == 2


def test_missing_scenario_exit_code(tmp_path, capsys):
    code = cli(["simulate", str(tmp_path / "nope.scn")])
    assert code == 2


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
    assert "error:" in bad.stderr


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
