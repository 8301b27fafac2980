"""End-to-end acceptance checks for the shipped package.

One test per shipped guarantee. `pytest -v` prints a pass/fail line per
criterion; each test also prints the measured numbers so margins stay
visible under -s. Random inputs are seeded, so every run sees the same
maps and the bands are exact, not flaky.
"""

import filecmp
import random
import time
from dataclasses import replace
from pathlib import Path

import pytest

from gridjam import (
    Cell,
    NoPathError,
    Outcome,
    astar,
    brute_force_attack,
    load_scenario,
    parse_map,
)
from gridjam.cli import cli
from gridjam.data import map_path, scenario_names, scenario_path
from gridjam.harness import ADVERSARIAL, read_csv, run_suite, write_csv

from conftest import random_problem
from oracles import attack_oracle, dijkstra_oracle


def _scenario(name):
    return load_scenario(scenario_path(name))


def test_criterion_1_planner_agrees_with_slow_oracle():
    # 500 seeded maps up to 12x12: identical cost, identical no-route verdicts
    rng = random.Random(1405)
    started = time.monotonic()
    solved = blocked = 0
    for _ in range(500):
        grid, start, goal = random_problem(rng, 12, 12)
        try:
            fast = astar(grid, start, goal)
        except NoPathError:
            with pytest.raises(NoPathError):
                dijkstra_oracle(grid, start, goal)
            blocked += 1
            continue
        slow = dijkstra_oracle(grid, start, goal)
        assert fast.cost == slow.cost
        solved += 1
    elapsed = time.monotonic() - started
    assert solved + blocked == 500
    assert solved >= 100 and blocked >= 10
    assert elapsed < 10.0
    print(f"criterion 1 PASS: {solved} routed / {blocked} blocked, {elapsed:.2f}s")


def test_criterion_2_attack_agrees_with_slow_oracle():
    # 50 seeded maps up to 16x16, footprint sides cycling 1/3/5
    rng = random.Random(2206)
    started = time.monotonic()
    compared = 0
    for i in range(50):
        grid, start, goal = random_problem(rng, 16, 16)
        side = (1, 3, 5)[i % 3]
        try:
            fast = brute_force_attack(grid, start, goal, side)
        except NoPathError:
            with pytest.raises(NoPathError, match="^no path from "):
                attack_oracle(grid, start, goal, side)
            continue
        slow = attack_oracle(grid, start, goal, side)
        if fast.best is None:
            assert slow.best is None
            assert slow.gain == fast.gain == 0.0
        else:
            assert slow.best == fast.best
            assert slow.gain == pytest.approx(fast.gain, abs=1e-9)
        compared += 1
    elapsed = time.monotonic() - started
    assert compared >= 25
    assert elapsed < 30.0
    print(f"criterion 2 PASS: {compared} attacks compared, {elapsed:.2f}s")


def test_criterion_3_chosen_obstacles_never_seal_the_map():
    # a failed replan raises RuntimeError in sim.simulate and aborts run_suite
    total = 0
    for name in scenario_names():
        runs, summary = run_suite(_scenario(name))
        assert runs
        assert not summary.skipped_goals
        total += len(runs)
    print(f"criterion 3 PASS: {total} runs across {len(scenario_names())} scenarios, no replan failures")


def test_criterion_4_constrained_rooms_rank_by_detour_severity():
    means = {}
    for name in ("tunnel", "twall", "turn"):
        scenario = _scenario(name)
        assert scenario.race.eval_time_per_candidate == 0.0
        _, summary = run_suite(scenario)
        means[name] = summary.overall_mean_delay_pct
    assert means["tunnel"] > means["twall"] > means["turn"]
    assert means["tunnel"] >= 50.0
    assert means["turn"] <= 5.0
    print(
        "criterion 4 PASS: tunnel={tunnel:.2f}% > twall={twall:.2f}% > turn={turn:.2f}%".format(**means)
    )


def test_criterion_5_warehouse_mean_delay_band():
    scenario = _scenario("warehouse")
    assert len(scenario.goals) >= 20
    started = time.monotonic()
    _, summary = run_suite(scenario)
    elapsed = time.monotonic() - started
    assert 20.0 <= summary.overall_mean_delay_pct <= 60.0
    assert elapsed < 60.0
    print(
        f"criterion 5 PASS: warehouse mean delay {summary.overall_mean_delay_pct:.2f}% "
        f"over {len(scenario.goals)} goals, {elapsed:.2f}s"
    )


def test_criterion_6_success_rate_tracks_planning_speed():
    scenario = _scenario("warehouse")
    assert scenario.race.eval_time_per_candidate == 0.05
    _, fast_summary = run_suite(scenario)
    assert fast_summary.success_rate is not None
    assert fast_summary.success_rate >= 85.0

    # make every spawn land after the whole benign traversal, not just its mean
    slowest = max(r.benign_time for r in fast_summary.per_goal)
    slow_scenario = replace(scenario, race=replace(scenario.race, eval_time_per_candidate=slowest))
    _, slow_summary = run_suite(slow_scenario)
    assert slow_summary.success_rate is not None
    assert slow_summary.success_rate < 50.0
    print(
        f"criterion 6 PASS: success {fast_summary.success_rate:.1f}% at 0.05s/candidate, "
        f"{slow_summary.success_rate:.1f}% at {slowest:.2f}s/candidate"
    )


def test_criterion_7_csv_rows_reproduce_the_summary(tmp_path):
    for name in scenario_names():
        runs, summary = run_suite(_scenario(name))
        out = tmp_path / f"{name}.csv"
        write_csv(runs, out)
        rows = [r for r in read_csv(out) if r["condition"] == ADVERSARIAL]
        assert len(rows) == sum(1 for r in runs if r.condition == ADVERSARIAL)

        mean_abs = sum(r["delay_abs_s"] for r in rows) / len(rows)
        pcts = [r["delay_pct"] for r in rows if r["delay_pct"] is not None]
        mean_pct = sum(pcts) / len(pcts)
        judged = [r["success"] for r in rows if r["success"] is not None]
        rate = 100.0 * sum(judged) / len(judged) if judged else None

        assert mean_abs == pytest.approx(summary.overall_mean_delay_abs, abs=1e-6)
        assert mean_pct == pytest.approx(summary.overall_mean_delay_pct, abs=1e-6)
        if summary.success_rate is None:
            assert rate is None
        else:
            assert rate == pytest.approx(summary.success_rate, abs=1e-6)
    print(f"criterion 7 PASS: CSV-recomputed metrics match for {len(scenario_names())} scenarios")


def test_criterion_8_suite_outputs_are_byte_stable(tmp_path):
    names = scenario_names()
    outputs = []
    for tag in ("first", "second"):
        out = tmp_path / tag
        out.mkdir()
        code = cli(
            ["suite", *names, "--csv", str(out / "runs.csv"), "--svg-dir", str(out / "svg")]
        )
        assert code == 0
        outputs.append(out)
    first, second = outputs
    files = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
    assert files and any(p.suffix == ".svg" for p in files)
    for rel in files:
        assert filecmp.cmp(first / rel, second / rel, shallow=False), rel
    print(f"criterion 8 PASS: {len(files)} output files byte-identical across two runs")


def test_criterion_9_footprint_size_sweep():
    branch = parse_map(map_path("branch").read_text())
    start, goal = Cell(1, 1), Cell(5, 1)
    gains = {}
    for side in (1, 3, 5):
        gains[side] = brute_force_attack(branch, start, goal, side)
    # gain never shrinks while a placement still exists
    assert gains[1].best is not None and gains[3].best is not None
    assert gains[1].gain <= gains[3].gain + 1e-9
    # side 5 cannot avoid covering an endpoint anywhere along this route
    assert gains[5].best is None
    assert all(e.outcome is Outcome.INFEASIBLE for e in gains[5].ledger)

    corridor = parse_map(map_path("corridor").read_text())
    plan = brute_force_attack(corridor, start, goal, 3)
    judged = [e for e in plan.ledger if e.outcome is not Outcome.INFEASIBLE]
    assert judged and all(e.outcome is Outcome.BLOCKING for e in judged)
    assert plan.best is None and plan.attacked_path is None and plan.gain == 0.0
    print(
        f"criterion 9 PASS: branch gains {gains[1].gain:.3f} <= {gains[3].gain:.3f}, "
        "side 5 infeasible, corridor all-blocking"
    )
