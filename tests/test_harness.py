"""Suite protocol, metric aggregation, and the CSV report."""

import sys

import pytest

import gridjam
from gridjam import (
    ADVERSARIAL,
    BENIGN,
    CSV_HEADER,
    Cell,
    Outcome,
    brute_force_attack,
    distance_field,
    load_scenario,
    parse_scenario,
    planner,
    read_csv,
    render_scenario_svgs,
    run_suite,
    write_csv,
)
from gridjam.data import scenario_path
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

CORRIDOR_SCN = """\
name = corridor
map = corridor.txt
cell_size = 1.0
start = 1,1
goal = 5,1
speed = 1.0
obstacle_side = 1
eval_time_per_candidate = 0
"""


@pytest.fixture
def suite_dir(tmp_path):
    (tmp_path / "branch.txt").write_text(BRANCH_TEXT)
    (tmp_path / "corridor.txt").write_text(CORRIDOR_TEXT)
    return tmp_path


def test_branch_suite_metrics(suite_dir):
    scenario = parse_scenario(BRANCH_SCN, base_dir=suite_dir)
    runs, summary = run_suite(scenario)
    assert len(runs) == 6  # 3 benign + 3 adversarial
    assert [(r.condition, r.repeat) for r in runs] == [
        (BENIGN, 1), (BENIGN, 2), (BENIGN, 3),
        (ADVERSARIAL, 1), (ADVERSARIAL, 2), (ADVERSARIAL, 3),
    ]
    assert summary.overall_mean_delay_pct == pytest.approx(100.0)
    assert summary.overall_mean_delay_abs == pytest.approx(4.0)
    assert summary.success_rate == 100.0
    assert summary.skipped_goals == ()
    assert len(summary.per_goal) == 1
    goal_result = summary.per_goal[0]
    assert goal_result.goal == Cell(5, 1)
    assert goal_result.benign_time == pytest.approx(4.0)
    assert goal_result.adversarial_time == pytest.approx(8.0)


def test_corridor_suite_no_attack_possible(suite_dir):
    scenario = parse_scenario(CORRIDOR_SCN, base_dir=suite_dir)
    runs, summary = run_suite(scenario)
    assert len(runs) == 6
    assert summary.overall_mean_delay_pct == 0.0
    assert summary.overall_mean_delay_abs == 0.0
    assert summary.success_rate is None  # nothing was ever deployed


def test_unreachable_goal_is_skipped(suite_dir):
    # free pocket behind the wall at col 5: a valid cell no route reaches
    (suite_dir / "pocket.txt").write_text("########\n#....#.#\n#....#.#\n########\n")
    text = BRANCH_SCN.replace("map = branch.txt", "map = pocket.txt")
    text = text.replace("goal = 5,1", "goal = 6,1") + "goal = 4,1\n"
    scenario = parse_scenario(text, base_dir=suite_dir)
    runs, summary = run_suite(scenario)
    assert summary.skipped_goals == (Cell(6, 1),)
    assert len(runs) == 6  # only the reachable goal contributes
    assert len(summary.per_goal) == 1
    assert summary.per_goal[0].goal == Cell(4, 1)


def test_repeats_are_identical(suite_dir):
    scenario = parse_scenario(BRANCH_SCN, base_dir=suite_dir)
    runs, _ = run_suite(scenario)
    benign = [r.result for r in runs if r.condition == BENIGN]
    attacked = [r.result for r in runs if r.condition == ADVERSARIAL]
    assert benign[0] == benign[1] == benign[2]
    assert attacked[0] == attacked[1] == attacked[2]


def test_csv_format(suite_dir, tmp_path):
    scenario = parse_scenario(BRANCH_SCN, base_dir=suite_dir)
    runs, _ = run_suite(scenario)
    out = tmp_path / "runs.csv"
    write_csv(runs, out)
    text = out.read_text()
    lines = text.split("\n")
    assert lines[0] == ",".join(CSV_HEADER)
    assert text.endswith("\n")
    assert "\r" not in text
    assert len(lines) == 8  # header + 6 rows + trailing newline
    benign_row = lines[1].split(",")
    assert benign_row[:5] == ["branch", "5", "1", "benign", "1"]
    assert benign_row[5] == "4.000000"
    assert benign_row[6] == "4.000000"
    assert benign_row[7:] == ["", "", "", "", "", ""]
    attack_row = lines[4].split(",")
    assert attack_row[:5] == ["branch", "5", "1", "adversarial", "1"]
    assert attack_row[6] == "8.000000"
    assert attack_row[7] == "0.000000"
    assert attack_row[8:11] == ["2", "1", "true"]
    assert attack_row[11] == "4.000000"
    assert attack_row[12] == "100.000000"


def test_csv_round_trip(suite_dir, tmp_path):
    branch = parse_scenario(BRANCH_SCN, base_dir=suite_dir)
    corridor = parse_scenario(CORRIDOR_SCN, base_dir=suite_dir)
    runs, _ = run_suite(branch)
    more, _ = run_suite(corridor)
    runs = runs + more
    out = tmp_path / "runs.csv"
    write_csv(runs, out)
    rows = read_csv(out)
    assert len(rows) == len(runs)
    # grouped by scenario in input order
    assert [r["scenario"] for r in rows] == ["branch"] * 6 + ["corridor"] * 6
    for row, run in zip(rows, runs):
        r = run.result
        assert row["goal_col"] == r.goal.col
        assert row["goal_row"] == r.goal.row
        assert row["condition"] == run.condition
        assert row["repeat"] == run.repeat
        assert row["euclidean_m"] == pytest.approx(r.euclidean, abs=1e-6)
        expected_time = r.benign_time if run.condition == BENIGN else r.adversarial_time
        assert row["time_s"] == pytest.approx(expected_time, abs=1e-6)
        if run.condition == BENIGN:
            assert row["success"] is None
            assert row["delay_abs_s"] is None
        else:
            assert row["success"] == r.attack_success
            assert row["delay_abs_s"] == pytest.approx(r.delay_abs, abs=1e-6)
            if r.obstacle is not None:
                assert row["obstacle_col"] == r.obstacle.center.col
                assert row["obstacle_row"] == r.obstacle.center.row


def test_csv_metrics_match_summary(suite_dir, tmp_path):
    scenario = parse_scenario(BRANCH_SCN, base_dir=suite_dir)
    runs, summary = run_suite(scenario)
    out = tmp_path / "runs.csv"
    write_csv(runs, out)
    rows = [r for r in read_csv(out) if r["condition"] == "adversarial"]
    mean_abs = sum(r["delay_abs_s"] for r in rows) / len(rows)
    mean_pct = sum(r["delay_pct"] for r in rows) / len(rows)
    landed = [r["success"] for r in rows if r["success"] is not None]
    rate = 100.0 * sum(landed) / len(landed)
    assert mean_abs == pytest.approx(summary.overall_mean_delay_abs, abs=1e-6)
    assert mean_pct == pytest.approx(summary.overall_mean_delay_pct, abs=1e-6)
    assert rate == pytest.approx(summary.success_rate, abs=1e-6)


def test_csv_bytes_stable(suite_dir, tmp_path):
    scenario = parse_scenario(BRANCH_SCN, base_dir=suite_dir)
    runs, _ = run_suite(scenario)
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    write_csv(runs, first)
    runs_again, _ = run_suite(scenario)
    write_csv(runs_again, second)
    assert first.read_bytes() == second.read_bytes()


def _csv_with_bad_line(suite_dir, tmp_path, damage):
    """A suite CSV whose third line (the second run) went through damage(fields)."""
    runs, _ = run_suite(parse_scenario(BRANCH_SCN, base_dir=suite_dir))
    out = tmp_path / "runs.csv"
    write_csv(runs, out)
    lines = out.read_text().split("\n")
    lines[2] = ",".join(damage(lines[2].split(",")))
    out.write_text("\n".join(lines))
    return out


def test_read_csv_rejects_empty_file(tmp_path):
    out = tmp_path / "runs.csv"
    out.write_text("")
    with pytest.raises(ValueError, match="unexpected CSV header"):
        read_csv(out)


def test_read_csv_rejects_short_row(suite_dir, tmp_path):
    out = _csv_with_bad_line(suite_dir, tmp_path, lambda fields: fields[:6])
    with pytest.raises(ValueError, match="^line 3: expected 13 fields, got 6"):
        read_csv(out)


@pytest.mark.parametrize("index, text, message", [
    (4, "two", "repeat expects an integer, got 'two'"),
    (6, "nan", "time_s must be finite, got 'nan'"),
])
def test_read_csv_rejects_bad_number(index, text, message, suite_dir, tmp_path):
    out = _csv_with_bad_line(suite_dir, tmp_path, lambda fields: fields[:index] + [text] + fields[index + 1:])
    with pytest.raises(ValueError, match=f"^line 3: {message}"):
        read_csv(out)


def test_read_csv_rejects_bad_success(suite_dir, tmp_path):
    out = _csv_with_bad_line(suite_dir, tmp_path, lambda fields: fields[:10] + ["maybe"] + fields[11:])
    with pytest.raises(ValueError, match="^line 3: success must be"):
        read_csv(out)


def _count_calls(monkeypatch, functions):
    """Count calls to the given package functions through every module binding."""
    counts = dict.fromkeys((fn.__name__ for fn in functions), 0)
    for original in functions:

        def counted(*args, _original=original, _name=original.__name__, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name.partition(".")[0] == "gridjam":
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counted)
    return counts


# Exact counts of the planner's flat-core work: exactly one distance field
# from the start per scenario, which every search uses as its heuristic; one
# canonical search (`_search`) per winning placement, for its attacked path;
# one backtrack (`_backtrack`) per baseline, on the field, and one per winner,
# on its `_search`'s own pairs; and one cost-only search (`_cost`) per judged
# candidate and per replan from a cell past the start after a landed attack.
# Tighten these; never loosen them.
@pytest.mark.parametrize("name, canonical, cost_only", [("warehouse", 23, 297), ("turn", 1, 57)])
def test_each_goal_is_solved_once(name, canonical, cost_only, monkeypatch, tmp_path):
    counts = _count_calls(
        monkeypatch,
        (planner._search, planner._backtrack, planner._cost, planner.distance_field, gridjam.brute_force_attack),
    )
    scenario = load_scenario(scenario_path(name))
    _, summary = run_suite(scenario)
    assert not summary.skipped_goals
    assert counts["brute_force_attack"] == len(scenario.goals)
    assert counts["distance_field"] == 1
    assert counts["_search"] == canonical == sum(1 for plan in summary.plans if plan.best is not None)
    assert counts["_backtrack"] == len(scenario.goals) + canonical
    assert counts["_cost"] == cost_only
    solved = dict(counts)
    render_scenario_svgs(scenario, summary.plans, tmp_path)
    assert counts == solved  # rendering reuses the suite's plans


# A side-1 candidate that blocks is decided by one lowpoint DFS from the
# start per attack, so `_cost` runs only for the evaluated ones; side 3
# never builds the DFS. Tighten these; never loosen them.
def test_blocking_side1_candidates_are_not_searched(maze_map, monkeypatch):
    counts = _count_calls(monkeypatch, (planner._cost, planner._lowpoint_dfs))
    start = Cell(1, 1)
    field = distance_field(maze_map, start)
    plans = [brute_force_attack(maze_map, start, goal, 1, field) for goal in (Cell(9, 1), Cell(7, 1))]
    outcomes = [[entry.outcome for entry in plan.ledger] for plan in plans]
    evaluated = sum(row.count(Outcome.EVALUATED) for row in outcomes)
    blocking = sum(row.count(Outcome.BLOCKING) for row in outcomes)
    assert (evaluated, blocking) == (22, 6)
    assert counts == {"_cost": evaluated, "_lowpoint_dfs": 2}

    brute_force_attack(maze_map, start, Cell(9, 1), 3, field)
    assert counts["_lowpoint_dfs"] == 2
