"""SVG rendering: structure and byte-level determinism."""

from gridjam import (
    Cell,
    brute_force_attack,
    parse_scenario,
    render_scenario_svgs,
    render_svg,
    run_suite,
)
from conftest import BRANCH_TEXT


def test_benign_render_structure(branch_map, tmp_path):
    # every side-3 candidate on this short route covers an endpoint
    plan = brute_force_attack(branch_map, Cell(1, 1), Cell(1, 3), 3)
    assert plan.best is None
    out = tmp_path / "plain.svg"
    render_svg(branch_map, plan, out)
    text = out.read_text()
    assert text.startswith("<svg ")
    assert text.rstrip().endswith("</svg>")
    assert text.count("<polyline") == 1
    assert 'class="baseline"' in text
    assert 'class="attacked"' not in text
    assert 'class="start"' in text and 'class="goal"' in text
    # 35 cells, 23 occupied in the branch map
    assert text.count('class="occupied"') == 23


def test_attacked_render_structure(branch_map, tmp_path):
    plan = brute_force_attack(branch_map, Cell(1, 1), Cell(5, 1), 1)
    out = tmp_path / "attacked.svg"
    render_svg(branch_map, plan, out)
    text = out.read_text()
    assert text.count("<polyline") == 2
    assert 'class="attacked"' in text
    assert text.count('class="obstacle"') == 1  # side-1 footprint


def test_positions_overlay(tmp_path):
    (tmp_path / "branch.txt").write_text(BRANCH_TEXT)
    scenario = parse_scenario(
        "map = branch.txt\ncell_size = 1.0\nstart = 1,1\ngoal = 5,1\n"
        "speed = 1.0\nobstacle_side = 1\n",
        base_dir=tmp_path,
    )
    _, summary = run_suite(scenario)
    render_scenario_svgs(scenario, summary.plans, tmp_path / "svg")
    text = (tmp_path / "svg" / "branch-obstacles.svg").read_text()
    assert text.count('class="obstacle"') == 1
    assert text.count('class="goal"') == 1
    assert text.count('class="start"') == 1
    assert "<polyline" not in text


def test_render_deterministic(branch_map, tmp_path):
    plan = brute_force_attack(branch_map, Cell(1, 1), Cell(5, 1), 1)
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    render_svg(branch_map, plan, a)
    render_svg(branch_map, plan, b)
    assert a.read_bytes() == b.read_bytes()


def test_scenario_renders(tmp_path):
    (tmp_path / "branch.txt").write_text(BRANCH_TEXT)
    scenario = parse_scenario(
        "map = branch.txt\ncell_size = 1.0\nstart = 1,1\ngoal = 5,1\n"
        "speed = 1.0\nobstacle_side = 1\n",
        base_dir=tmp_path,
    )
    _, summary = run_suite(scenario)
    written = render_scenario_svgs(scenario, summary.plans, tmp_path / "svg")
    names = [p.name for p in written]
    assert names == ["branch-goal01.svg", "branch-obstacles.svg"]
    for path in written:
        assert path.read_text().startswith("<svg ")


def test_scenario_renders_skip_an_unreachable_goal(tmp_path):
    # the pocket behind the wall at col 5 holds the first goal; the second
    # goal's file keeps its number
    (tmp_path / "pocket.txt").write_text("########\n#....#.#\n#....#.#\n########\n")
    scenario = parse_scenario(
        "name = pocket\nmap = pocket.txt\ncell_size = 1.0\nstart = 1,1\ngoal = 6,1\ngoal = 4,1\n"
        "speed = 1.0\nobstacle_side = 1\n",
        base_dir=tmp_path,
    )
    _, summary = run_suite(scenario)
    assert summary.plans[0] is None
    written = render_scenario_svgs(scenario, summary.plans, tmp_path / "svg")
    assert [p.name for p in written] == ["pocket-goal02.svg", "pocket-obstacles.svg"]
