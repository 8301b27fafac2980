"""Suite protocol, metric aggregation, and the CSV report."""

import itertools
import random
from collections import Counter

import pytest

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
from gridjam.data import scenario_names, scenario_path
from conftest import BRANCH_TEXT, CORRIDOR_TEXT, mutate, names_a_line

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
    # a goal at the start: its benign trip takes 0 s, so its delay_pct is blank
    scenario = parse_scenario(BRANCH_SCN + "goal = 1,1\n", base_dir=suite_dir)
    runs, summary = run_suite(scenario)
    out = tmp_path / "runs.csv"
    write_csv(runs, out)
    rows = [r for r in read_csv(out) if r["condition"] == "adversarial"]
    pcts = [r["delay_pct"] for r in rows if r["delay_pct"] is not None]
    assert len(pcts) < len(rows)
    mean_abs = sum(r["delay_abs_s"] for r in rows) / len(rows)
    mean_pct = sum(pcts) / len(pcts)
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
    with pytest.raises(ValueError) as err:
        read_csv(out)
    assert str(err.value) == f"{out}:1: unexpected CSV header: ()"


def test_read_csv_rejects_bad_header(tmp_path):
    out = tmp_path / "runs.csv"
    out.write_text("scenario,goal\n")
    with pytest.raises(ValueError) as err:
        read_csv(out)
    assert str(err.value) == f"{out}:1: unexpected CSV header: ('scenario', 'goal')"


def test_read_csv_rejects_non_utf8_file(tmp_path):
    out = tmp_path / "runs.csv"
    out.write_bytes(b"\xff" + ",".join(CSV_HEADER).encode() + b"\n")
    with pytest.raises(ValueError) as err:
        read_csv(out)
    assert str(err.value) == f"{out}: not UTF-8 text (invalid start byte at byte 0)"


def test_read_csv_rejects_short_row(suite_dir, tmp_path):
    out = _csv_with_bad_line(suite_dir, tmp_path, lambda fields: fields[:6])
    with pytest.raises(ValueError) as err:
        read_csv(out)
    assert str(err.value) == f"{out}:3: expected 13 fields, got 6"


@pytest.mark.parametrize("index, text, message", [
    (4, "two", "repeat expects an integer, got 'two'"),
    (6, "nan", "time_s must be finite, got 'nan'"),
    # `int` and `float` would read these as 10 and 1.5
    (4, "1_0", "repeat expects an integer, got '1_0'"),
    (6, "１.5", "time_s expects a number, got '１.5'"),
])
def test_read_csv_rejects_bad_number(index, text, message, suite_dir, tmp_path):
    out = _csv_with_bad_line(suite_dir, tmp_path, lambda fields: fields[:index] + [text] + fields[index + 1:])
    with pytest.raises(ValueError) as err:
        read_csv(out)
    assert str(err.value) == f"{out}:3: {message}"


def test_read_csv_rejects_oversized_field(suite_dir, tmp_path):
    # the csv module's own error, past its field size limit, names the line too
    out = _csv_with_bad_line(suite_dir, tmp_path, lambda fields: fields[:5] + ["1" * 140_000] + fields[6:])
    with pytest.raises(ValueError) as err:
        read_csv(out)
    assert str(err.value) == f"{out}:3: field larger than field limit (131072)"


def test_read_csv_reads_a_long_integer(suite_dir, tmp_path):
    # an integer too large for a float is still a finite integer
    digits = "9" * 400
    out = _csv_with_bad_line(suite_dir, tmp_path, lambda fields: fields[:1] + [digits] + fields[2:])
    assert read_csv(out)[1]["goal_col"] == int(digits)


def test_read_csv_rejects_bad_success(suite_dir, tmp_path):
    out = _csv_with_bad_line(suite_dir, tmp_path, lambda fields: fields[:10] + ["maybe"] + fields[11:])
    with pytest.raises(ValueError) as err:
        read_csv(out)
    assert str(err.value) == f"{out}:3: success must be 'true', 'false' or blank, got 'maybe'"


def test_csv_texts_read_or_fail_at_a_line(suite_dir, tmp_path):
    # seeded CSV files, each a suite's CSV with a few fields swapped and then
    # a few characters edited, some into bytes that are not UTF-8: each
    # reads back or raises ValueError naming one of its lines; only a file
    # that is not UTF-8 is named as a whole
    runs, _ = run_suite(parse_scenario(BRANCH_SCN, base_dir=suite_dir))
    write_csv(runs, tmp_path / "runs.csv")
    valid = (tmp_path / "runs.csv").read_text().split("\n")
    values = ["", "x", "1", "-1", "0.5", "nan", "inf", "1e999", "٣", "1_0", "true", "false", "True", '"', '"a,b"', "1" * 140_000]
    chars = [",", "\n", '"', "\r", " ", "x", "٣", "_", "1", ".", "e", "\x00", "\udcff"]
    out = tmp_path / "fuzz.csv"
    rng = random.Random("fuzz:csv")
    for _ in range(400):
        lines = list(valid)
        at = rng.randrange(1, len(lines) - 1)  # a run: the header is line 0, and the final newline ends the text
        fields = lines[at].split(",")
        for index in rng.sample(range(len(fields)), rng.randint(0, 2)):
            fields[index] = rng.choice(values)
        lines[at] = ",".join(fields)
        text = "".join(mutate(rng, "\n".join(lines), chars, 2))
        out.write_bytes(text.encode("utf-8", "surrogateescape"))
        try:
            read_csv(out)
        except ValueError as err:
            assert names_a_line(str(err), f"{out}:", text) or str(err).startswith(f"{out}: not UTF-8"), repr(text)


# The planner's work counter, `planner._work`, keeps three slots from each
# search kind's base: its searches, pops and pushes.
KINDS = {"distance_field": planner._FIELD, "_cost": planner._COST, "_search": planner._SEARCH}


def _since(before):
    """The planner's work since its counter read `before`, one int per slot."""
    return [now - then for now, then in zip(planner._work, before)]


def _by_kind(work, start_field=None):
    """`work` in the pins' form: (searches, pops, pushes), each by search kind.

    Searches count every kind, zeros included. Pops and pushes leave zeros
    out and credit a field's to its root: `start_field` is the work of one
    field from the start, built alone, which `work` includes; the rest of
    the fields' goes to "goal field".
    """
    searches = {name: work[slot] for name, slot in KINDS.items()}
    parts = []
    for part in (1, 2):  # pops, then pushes
        own = start_field[planner._FIELD + part] if start_field else 0
        counts = {
            "start field": own, "goal field": work[planner._FIELD + part] - own,
            "_cost": work[planner._COST + part], "_search": work[planner._SEARCH + part],
        }
        parts.append({name: n for name, n in counts.items() if n})
    return searches, *parts


def _start_field(grid, start):
    """A field from start, built alone, and its work."""
    before = planner._work[:]
    return distance_field(grid, start), _since(before)


# Exact counts of the planner's flat-core work: exactly one distance field
# from the start per scenario, which every search uses as its heuristic, and
# one from the goal per attack on a long, thin route
# (`attack._GOAL_FIELD_SHARE`), `turn`'s but no warehouse goal's; one
# canonical search (`_search`) per winning placement, for its attacked path;
# one backtrack (`_backtrack`) per baseline, on the field, and one per winner,
# on its `_search`'s start-side costs; and one cost-only search (`_cost`) per
# judged candidate that misses neither the spare route (`planner._spare`)
# nor a one-cell corridor, and per replan from a cell past the start after a
# landed attack. `branch` is the one side-1 scenario with evaluated
# candidates: its three lie in one corridor of two-move cells, so one is
# searched and the other two take its cost (`planner._side1`'s corridor
# flags).
# The pops of each search are pinned too: an A* search's pops from its
# levels of equal f, the whole level at which it stops included (`_astar`),
# and the field's pops from its two queues. The test takes its call counts
# from `SUITE_CALLS` by scenario name, so that re-pinning one leaves the
# test's id as it is.
# Tighten these; never loosen them.
SUITE_CALLS = {
    "warehouse": {"_search": 23, "_cost": 148},
    "turn": {"_search": 1, "_cost": 7},
    "branch": {"_search": 1, "_cost": 1},
}
SUITE_POPS = {
    "warehouse": {"start field": 840, "_cost": 3991, "_search": 1363},
    "turn": {"start field": 621, "goal field": 621, "_cost": 712, "_search": 245},
    "branch": {"start field": 12, "goal field": 12, "_cost": 4, "_search": 9},
}
# The pushes of the same searches: an A* search's appends to its levels,
# and the field's appends to its two queues (the source seeds one queue
# without an append). A relaxation pushes exactly when it lowers a cost, so
# these pin every relaxation, not only every pop.
SUITE_PUSHES = {
    "warehouse": {"start field": 839, "_cost": 5763, "_search": 2112},
    "turn": {"start field": 620, "goal field": 620, "_cost": 895, "_search": 368},
    "branch": {"start field": 11, "goal field": 11, "_cost": 3, "_search": 8},
}
GOAL_FIELDS = {"warehouse": 0, "turn": 1, "branch": 1}


@pytest.mark.parametrize("name", SUITE_CALLS)
def test_each_goal_is_solved_once(name, tmp_path):
    scenario = load_scenario(scenario_path(name))
    _, start_field = _start_field(scenario.grid, scenario.start)
    before = planner._work[:]
    _, summary = run_suite(scenario)
    work = _since(before)
    searches, pops, pushes = _by_kind(work, start_field)
    assert not summary.skipped_goals
    assert searches["distance_field"] == 1 + GOAL_FIELDS[name]
    canonical = SUITE_CALLS[name]["_search"]
    assert searches["_search"] == canonical == sum(1 for plan in summary.plans if plan.best is not None)
    # every attack backtracks its baseline once, so this pins one attack per
    # goal; each side-1 attack runs one `_side1` pass
    assert work[planner._BACKTRACK] == len(scenario.goals) + canonical
    assert work[planner._SIDE1] == (len(scenario.goals) if scenario.obstacle_side == 1 else 0)
    assert searches["_cost"] == SUITE_CALLS[name]["_cost"]
    assert pops == SUITE_POPS[name]
    assert pushes == SUITE_PUSHES[name]
    render_scenario_svgs(scenario, summary.plans, tmp_path)
    assert _since(before) == work  # rendering reuses the suite's plans


# The evaluated candidates that the spare route (`planner._spare`) decides
# per bundled scenario, over all of its goals: those whose square misses its
# flags and that no one-cell corridor decided first. Each takes the
# baseline's cost, and every other evaluated candidate is searched once.
# Tighten these by raising them; never lower them.
SPARED = {"branch": 0, "corridor": 0, "tunnel": 0, "turn": 50, "twall": 0, "warehouse": 149}


def test_the_spare_route_decides_zero_gain_candidates():
    spared = {}
    for name in scenario_names():
        scenario = load_scenario(scenario_path(name))
        grid, start, side = scenario.grid, scenario.start, scenario.obstacle_side
        field = distance_field(grid, start)
        before = planner._work[planner._COST]
        searched = spared[name] = 0
        for goal in scenario.goals:
            plan = brute_force_attack(grid, start, goal, side, field)
            flags = planner._spare(field, goal)
            corridor = planner._side1(field, plan.baseline.cells)[1] if side == 1 else None
            for entry in plan.ledger:
                if entry.outcome is Outcome.BLOCKING and side > 1:
                    searched += 1  # it covers a cut vertex, which lies on the spare route
                if entry.outcome is not Outcome.EVALUATED:
                    continue
                if corridor and corridor[entry.index] and plan.ledger[entry.index - 1].outcome is Outcome.EVALUATED:
                    continue
                if any(flags[i] for i in planner._covered(entry.placement, grid, field.stride)):
                    searched += 1
                else:
                    assert entry.cost == plan.baseline.cost
                    spared[name] += 1
        assert planner._work[planner._COST] - before == searched
    assert spared == SPARED


# A side-1 candidate that blocks is decided by one `_side1` pass per
# attack, so `_cost` runs only for the evaluated ones; side 3 never runs
# the pass. Of those, a candidate in a one-cell corridor whose
# predecessor was evaluated takes its cost (the same pass's corridor
# flags), so only 4 of the 22 are searched. Both side-1 baselines are long
# against the maze, so each attack builds a field from its goal. The two
# side-1 attacks' pops and pushes are pinned too.
# Tighten these; never loosen them.
def test_blocking_side1_candidates_are_not_searched(maze_map):
    start = Cell(1, 1)
    before = planner._work[:]
    field, start_field = _start_field(maze_map, start)
    plans = [brute_force_attack(maze_map, start, goal, 1, field) for goal in (Cell(9, 1), Cell(7, 1))]
    work = _since(before)
    outcomes = [[entry.outcome for entry in plan.ledger] for plan in plans]
    evaluated = sum(row.count(Outcome.EVALUATED) for row in outcomes)
    blocking = sum(row.count(Outcome.BLOCKING) for row in outcomes)
    assert (evaluated, blocking) == (22, 6)
    searched = 4
    searches, pops, pushes = _by_kind(work, start_field)
    # the test's own start field and one field from each goal
    assert (searches["distance_field"], searches["_cost"], work[planner._SIDE1]) == (3, searched, 2)
    assert pops == {"start field": 41, "goal field": 82, "_cost": 40, "_search": 66}
    assert pushes == {"start field": 40, "goal field": 80, "_cost": 36, "_search": 65}

    before = planner._work[:]
    brute_force_attack(maze_map, start, Cell(9, 1), 3, field)
    assert _since(before)[planner._SIDE1] == 0


# Which fields and searches an attack runs depends on its problem alone, not
# on whether the caller shares the start's field: handed
# `distance_field(grid, start)`, an attack returns the same plan with the
# same work in every slot of the planner's counter, less that field's. Three
# problems, each attacked on its own field, pin their ledger's outcomes and
# their work too:
# - the maze's baseline to (9,1) holds 17 of the 41 reached cells, so the
#   attack builds a field from the goal (`attack._GOAL_FIELD_SHARE`) and
#   scores the candidates in the first half of the baseline from the start;
#   its 12 evaluated candidates lie in two one-cell corridors, so 2 are
#   searched;
# - the warehouse goal whose baseline holds the largest share of the start's
#   component, 0.031, stays below the gate and gets no second field; 20 of
#   its 22 evaluated candidates miss the spare route (`planner._spare`), so
#   2 are searched;
# - the corridor's baseline is its whole component, so the gate passes, but
#   every side-1 candidate covers an endpoint or is a cut vertex: none is
#   scored on a goal field, so none is built.
# Tighten these; never loosen them.
OWN_FIELD_WORK = {
    ("maze", Cell(9, 1), 1): (
        {"evaluated": 12, "blocking": 3, "infeasible": 2},
        {"distance_field": 2, "_cost": 2, "_search": 1},
        {"start field": 41, "goal field": 41, "_cost": 23, "_search": 33},
        {"start field": 40, "goal field": 40, "_cost": 21, "_search": 32},
    ),
    ("warehouse", Cell(37, 27), 3): (
        {"evaluated": 22, "infeasible": 4},
        {"distance_field": 1, "_cost": 2, "_search": 1},
        {"start field": 840, "_cost": 315, "_search": 173},
        {"start field": 839, "_cost": 408, "_search": 222},
    ),
    ("corridor", Cell(5, 1), 1): (
        {"blocking": 3, "infeasible": 2},
        {"distance_field": 1, "_cost": 0, "_search": 0},
        {"start field": 5},
        {"start field": 4},
    ),
}


def test_an_attack_does_the_same_work_on_a_shared_field(maze_map):
    scenarios = [(name, load_scenario(scenario_path(name))) for name in scenario_names()]
    problems = [(name, s.grid, s.start, s.goals) for name, s in scenarios]
    problems.append(("maze", maze_map, Cell(1, 1), (Cell(9, 1), Cell(7, 1))))
    cases, pinned = 0, set()
    for name, grid, start, goals in problems:
        for goal, side in itertools.product(goals, (1, 3)):
            field, start_field = _start_field(grid, start)
            assert start_field[planner._FIELD + 1] == field.reached
            before = planner._work[:]
            own = brute_force_attack(grid, start, goal, side)
            own_work = _since(before)
            before = planner._work[:]
            assert brute_force_attack(grid, start, goal, side, field) == own
            assert [alone + shared for alone, shared in zip(start_field, _since(before))] == own_work
            if (name, goal, side) in OWN_FIELD_WORK:
                outcomes = Counter(entry.outcome.value for entry in own.ledger)
                assert (outcomes, *_by_kind(own_work, start_field)) == OWN_FIELD_WORK[name, goal, side]
                pinned.add((name, goal, side))
            cases += 1
    assert cases == 60
    assert pinned == set(OWN_FIELD_WORK)
