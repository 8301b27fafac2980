"""Scenario file parsing and validation."""

import random
import re
from dataclasses import replace

import pytest

from gridjam import (
    BadEndpointError,
    Cell,
    GridJamError,
    MapError,
    ScenarioError,
    SimConfig,
    load_scenario,
    parse_map,
    parse_scenario,
)
from gridjam.data import map_path, scenario_path
from conftest import BRANCH_TEXT, mutate, names_a_line

MINIMAL = """\
map = branch.txt
cell_size = 1.0
start = 1,1
goal = 5,1
speed = 1.0
"""


@pytest.fixture
def scenario_dir(tmp_path):
    (tmp_path / "branch.txt").write_text(BRANCH_TEXT)
    return tmp_path


def test_minimal_scenario_defaults(scenario_dir):
    scenario = parse_scenario(MINIMAL, base_dir=scenario_dir)
    assert scenario.name == "branch"  # defaults to the map stem
    assert scenario.start == Cell(1, 1)
    assert scenario.goals == (Cell(5, 1),)
    assert scenario.race.speed == 1.0
    assert scenario.obstacle_side == 3
    assert scenario.race.eval_time_per_candidate == 0.05
    assert scenario.race.attack_start_delay == 0.0
    assert scenario.race == SimConfig(speed=1.0)
    assert scenario.repeats == 3
    assert scenario.grid.cell_size == 1.0
    assert scenario.grid.width == 7


def test_load_scenario_resolves_map_next_to_file(scenario_dir, tmp_path_factory, monkeypatch):
    scn = scenario_dir / "demo.scn"
    scn.write_text(MINIMAL + "name = demo\n")
    monkeypatch.chdir(tmp_path_factory.mktemp("elsewhere"))
    scenario = load_scenario(scn)
    assert scenario.name == "demo"
    assert scenario.grid.rows == parse_map(BRANCH_TEXT).rows


def test_comments_and_blank_lines(scenario_dir):
    text = "# a demo\n\n" + MINIMAL + "repeats = 2  # only two\n"
    scenario = parse_scenario(text, base_dir=scenario_dir)
    assert scenario.repeats == 2


def test_multiple_goals_preserve_order(scenario_dir):
    text = MINIMAL + "goal = 1,3\n"
    scenario = parse_scenario(text, base_dir=scenario_dir)
    assert scenario.goals == (Cell(5, 1), Cell(1, 3))


def test_cell_size_scales_grid(scenario_dir):
    text = MINIMAL.replace("cell_size = 1.0", "cell_size = 0.5")
    scenario = parse_scenario(text, base_dir=scenario_dir)
    assert scenario.grid.cell_size == 0.5


def test_unknown_key(scenario_dir):
    with pytest.raises(ScenarioError, match="^line 6: unknown key 'velocity'$"):
        parse_scenario(MINIMAL + "velocity = 2\n", base_dir=scenario_dir)


def test_missing_required_key(scenario_dir):
    text = MINIMAL.replace("speed = 1.0\n", "")
    with pytest.raises(ScenarioError, match="^missing required key 'speed'$"):
        parse_scenario(text, base_dir=scenario_dir)


def test_missing_goal(scenario_dir):
    text = MINIMAL.replace("goal = 5,1\n", "")
    with pytest.raises(ScenarioError, match=r"^missing required key 'goal' \(at least one\)$"):
        parse_scenario(text, base_dir=scenario_dir)


def test_start_on_occupied_cell(scenario_dir):
    text = MINIMAL.replace("start = 1,1", "start = 0,0")
    with pytest.raises(BadEndpointError) as err:
        parse_scenario(text, base_dir=scenario_dir)
    assert str(err.value) == "line 3: start 0,0 is occupied"


def test_goal_out_of_bounds(scenario_dir):
    text = MINIMAL.replace("goal = 5,1", "goal = 50,1")
    with pytest.raises(BadEndpointError) as err:
        parse_scenario(text, base_dir=scenario_dir)
    assert str(err.value) == "line 4: goal 50,1 is outside the 7x5 map"


def test_bad_cell_text(scenario_dir):
    text = MINIMAL.replace("start = 1,1", "start = 1;1")
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text, base_dir=scenario_dir)
    assert str(err.value) == "line 3: start expects 'col,row', got '1;1'"


def test_bad_number(scenario_dir):
    with pytest.raises(ScenarioError, match="^line 5: speed expects a number, got 'fast'$"):
        parse_scenario(MINIMAL.replace("speed = 1.0", "speed = fast"), base_dir=scenario_dir)
    with pytest.raises(ScenarioError, match="^line 5: speed must be positive and finite, got 0.0$"):
        parse_scenario(MINIMAL.replace("speed = 1.0", "speed = 0"), base_dir=scenario_dir)
    with pytest.raises(ScenarioError, match="^line 2: cell_size must be positive and finite, got -1.0$"):
        parse_scenario(MINIMAL.replace("cell_size = 1.0", "cell_size = -1"), base_dir=scenario_dir)


@pytest.mark.parametrize("text", ["1_0", "١", "１.5"])
def test_number_in_other_digits_rejected(text, scenario_dir):
    # `float` would read each: 10, 1 and 1.5
    with pytest.raises(ScenarioError, match=f"^line 5: speed expects a number, got '{text}'$"):
        parse_scenario(MINIMAL.replace("speed = 1.0", f"speed = {text}"), base_dir=scenario_dir)


@pytest.mark.parametrize("text", ["1_0,1", "1,١", "１,1"])
def test_cell_in_other_digits_rejected(text, scenario_dir):
    # `int` would read each part: 10, 1 and 1
    with pytest.raises(ScenarioError, match=f"^line 3: start expects 'col,row', got '{text}'$"):
        parse_scenario(MINIMAL.replace("start = 1,1", f"start = {text}"), base_dir=scenario_dir)


def test_even_obstacle_side(scenario_dir):
    for side in (2, 0):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(MINIMAL + f"obstacle_side = {side}\n", base_dir=scenario_dir)
        assert str(err.value) == f"line 6: obstacle_side must be an odd positive integer, got {side}"


def test_zero_repeats(scenario_dir):
    with pytest.raises(ScenarioError, match="^line 6: repeats must be positive and finite, got 0$"):
        parse_scenario(MINIMAL + "repeats = 0\n", base_dir=scenario_dir)


def test_negative_eval_time(scenario_dir):
    with pytest.raises(ScenarioError, match="^line 6: eval_time_per_candidate must be finite and >= 0, got -0.1$"):
        parse_scenario(MINIMAL + "eval_time_per_candidate = -0.1\n", base_dir=scenario_dir)


def test_hand_built_scenario_checks_its_numbers():
    # a scenario built in code is held to a scenario file's rules: 0 repeats
    # would write no run yet report a summary; a file's repeats reads as an
    # int, and a float would fail in `run_suite` and True run one repeat
    scenario = load_scenario(scenario_path("branch"))
    with pytest.raises(ValueError, match="^repeats must be positive and finite, got 0$"):
        replace(scenario, repeats=0)
    for repeats in (2.5, 3.0, True):
        with pytest.raises(ValueError, match=f"^repeats must be an integer, got {repeats}$"):
            replace(scenario, repeats=repeats)
    with pytest.raises(ValueError, match="^obstacle_side must be an odd positive integer, got 2$"):
        replace(scenario, obstacle_side=2)


def test_hand_built_scenario_name_cannot_hold_a_path():
    # the name becomes part of the SVG file names, so one built in code is
    # held to a scenario file's rule
    scenario = load_scenario(scenario_path("branch"))
    for bad in ("../escaped", "", None):
        message = re.escape(f"scenario name {bad!r} may only use letters, digits, '_' and '-'")
        with pytest.raises(ValueError, match=f"^{message}$"):
            replace(scenario, name=bad)


def test_duplicate_scalar_key(scenario_dir):
    with pytest.raises(ScenarioError, match="^line 6: duplicate key 'speed'$"):
        parse_scenario(MINIMAL + "speed = 2.0\n", base_dir=scenario_dir)


def test_missing_map_file(tmp_path):
    # an I/O error, not a bad value: the command line exits 2 on it
    with pytest.raises(OSError) as err:
        parse_scenario(MINIMAL, base_dir=tmp_path)
    assert str(err.value) == f"line 1: [Errno 2] No such file or directory: '{tmp_path / 'branch.txt'}'"
    assert not isinstance(err.value, GridJamError)
    assert isinstance(err.value.__cause__, FileNotFoundError)


@pytest.mark.parametrize(
    "map_text, message",
    [
        ("#.\n#x\n", "2: unexpected character 'x'"),
        ("...\n..\n", "2: row has length 2, expected 3"),
        ("..\n\n..\n", "2: row is empty"),
    ],
    ids=["bad-char", "ragged-rows", "empty-line"],
)
def test_map_error_names_the_map_and_its_scenario_line(map_text, message, tmp_path):
    # the scenario's line, then the map file and its own line
    (tmp_path / "m.txt").write_text(map_text)
    text = "name = jam\n" + MINIMAL.replace("branch.txt", "m.txt")
    with pytest.raises(MapError) as err:
        parse_scenario(text, base_dir=tmp_path)
    assert str(err.value) == f"line 2: {tmp_path / 'm.txt'}:{message}"
    assert isinstance(err.value.__cause__, MapError)


def test_key_without_value(scenario_dir):
    with pytest.raises(ScenarioError, match="^line 5: key 'speed' has no value$"):
        parse_scenario(MINIMAL.replace("speed = 1.0", "speed ="), base_dir=scenario_dir)


def test_bundled_map_path():
    assert map_path("branch") == map_path("branch.txt")
    with pytest.raises(FileNotFoundError, match="^no bundled map named 'nosuch'$"):
        map_path("nosuch")


def test_line_without_equals(scenario_dir):
    with pytest.raises(ScenarioError, match="^line 1: expected 'key = value', got 'just some words'$"):
        parse_scenario("just some words\n" + MINIMAL, base_dir=scenario_dir)


def test_non_finite_numbers_rejected(scenario_dir):
    for text in (
        MINIMAL.replace("speed = 1.0", "speed = nan"),
        MINIMAL.replace("cell_size = 1.0", "cell_size = inf"),
        MINIMAL + "eval_time_per_candidate = inf\n",
        MINIMAL + "attack_start_delay = NaN\n",
    ):
        with pytest.raises(ScenarioError, match="must be finite"):
            parse_scenario(text, base_dir=scenario_dir)
    with pytest.raises(ScenarioError, match="^line 5: speed must be finite, got 'nan'$"):
        parse_scenario(MINIMAL.replace("speed = 1.0", "speed = nan"), base_dir=scenario_dir)


def test_scenario_name_cannot_hold_a_path(scenario_dir):
    # the name becomes part of the SVG file names under --svg-dir
    for bad in ("../escaped", "a/b", "..", "has space"):
        with pytest.raises(ScenarioError, match="^line 6: scenario name .* may only use letters, digits"):
            parse_scenario(MINIMAL + f"name = {bad}\n", base_dir=scenario_dir)
    (scenario_dir / "floor.v2.txt").write_text(BRANCH_TEXT)
    with pytest.raises(ScenarioError, match="^line 1: scenario name 'floor.v2' may only use letters, digits"):
        parse_scenario(MINIMAL.replace("branch.txt", "floor.v2.txt"), base_dir=scenario_dir)
    named = MINIMAL.replace("branch.txt", "floor.v2.txt") + "name = floor_v2-b\n"
    assert parse_scenario(named, base_dir=scenario_dir).name == "floor_v2-b"


@pytest.mark.parametrize("name", ["branch.txt\x00", "\ud800.txt"], ids=["nul", "lone-surrogate"])
def test_map_name_no_file_can_have_is_a_missing_file(scenario_dir, name):
    # found by the fuzz test below: the open raised a bare ValueError,
    # with no line, which the command line did not catch
    with pytest.raises(FileNotFoundError) as err:
        parse_scenario(MINIMAL.replace("branch.txt", name), base_dir=scenario_dir)
    assert str(err.value) == f"line 1: [Errno 2] No such file or directory: {str(scenario_dir / name)!r}"


def test_scenario_texts_parse_or_fail_at_a_line(scenario_dir):
    # seeded scenario texts, each a valid one with a few values swapped,
    # then up to one whole line and one character edited: each parses or
    # raises one of the errors `parse_scenario` names, at one of its lines;
    # only a missing key is named by no line. A map value names the map, a
    # bad one, one that is not UTF-8, the directory or no file at all
    (scenario_dir / "bad.txt").write_text("#.\n#x\n")
    (scenario_dir / "latin.txt").write_bytes(b"\xff.\n..\n")
    valid = [*MINIMAL.splitlines(), "goal = 1,3", "obstacle_side = 1", "repeats = 2", "name = fuzz",
             "eval_time_per_candidate = 0.5", "attack_start_delay = 1"]
    values = [
        "bad.txt", "latin.txt", ".", "missing.txt", "branch.txt\x00", "\ud800.txt", "50,1", "0,0", "1,1,1", "٣,1",
        "1_1,1", "-1,3", "1", "3", "2", "0", "-1", "2.5", "nan", "inf", "1e-320", "1e-300", "1e308", "٣", "1_1", "x",
        "a/b", "..", "",
    ]
    lines = ["goal =", "= 3", "nokey", "unknown = 1", "# comment", "", "goal = 5,3  # inline"]
    chars = ["=", "#", ",", "\n", " ", "x", "٣", "_", "1", "0", ".", "-", "e", "\r"]
    errors = (ScenarioError, BadEndpointError, MapError, OSError)
    rng = random.Random("fuzz:scenarios")
    for _ in range(1500):
        pairs = [line.split(" = ") for line in rng.sample(valid, len(valid))]
        for pair in rng.sample(pairs, rng.randint(0, 2)):
            pair[1] = rng.choice(values)
        text = "\n".join(mutate(rng, [" = ".join(pair) for pair in pairs], lines, 1)) + "\n"
        text = "".join(mutate(rng, text, chars, 1))
        try:
            parse_scenario(text, base_dir=scenario_dir)
        except errors as err:
            assert names_a_line(str(err), "line ", text) or str(err).startswith("missing required key"), repr(text)
