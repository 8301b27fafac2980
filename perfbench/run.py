#!/usr/bin/env python3
"""gridjam benchmark: suite throughput and attack latency, plus a traced pass.

    python3 perfbench/run.py --workload suite --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

Run from any directory; gridjam is imported from the `src` directory next
to this one. `--trace 0` times the end-to-end metrics with tracing off;
`--trace 1` replays a fixed share of the workload untraced and traced in
turn and reports the per-layer metrics. `--workload all` runs every workload
both ways, one child process per run. Every output is checked outside the
timed regions. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See README.md.
"""

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import time
from types import SimpleNamespace

import checks
import hostspeed
import tracing
import workloads

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

WORKLOADS = ("suite", "attack-rooms", "attack-mazes")
SETUP_REPEATS = 9
FIXED_PROBLEMS = 64  # attack problems that are digested and replayed by --trace 1
MIN_ATTACKS = 100  # so that p90 has ten samples beyond it
MIN_PASSES = 3

END_TO_END = {
    "setup_s": "s",
    "runs_per_s": "1/s",
    "attack_ms_p50": "ms",
    "attack_ms_p90": "ms",
    "candidates_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "planner.calls": "count",
    "planner.distinct_ratio": "ratio",
    **{f"planner.calls.{caller}": "count" for caller in tracing.PLANNER_CALLERS},
    "planner.busy_s": "s",
    "planner.call_us_p50": "us",
    "planner.call_us_p90": "us",
    "planner.noroute_calls": "count",
    "attack.calls": "count",
    "attack.distinct_ratio": "ratio",
    "attack.self_s": "s",
    "attack.rounds": "count",
    "attack.zero_gain_ratio": "ratio",
    "attack.blocking_ratio": "ratio",
    "gridmap.apply_obstacle_calls": "count",
    "gridmap.apply_obstacle_s": "s",
    "sim.calls": "count",
    "sim.self_s": "s",
    "sim.replan_calls": "count",
    "sim.landed_ratio": "ratio",
    "harness.self_s": "s",
    "harness.write_csv_s": "s",
    "svgrender.self_s": "s",
    "svgrender.bytes": "bytes",
    "cli.self_s": "s",
    "scenario.load_s": "s",
    "trace_overhead_pct": "%",
}


class BenchError(Exception):
    """The benchmark cannot run here; it exits non-zero without a result."""


class Tally:
    """Operations attempted and failed; prints the first few check failures."""

    def __init__(self):
        self.attempted = self.failed = self.shown = 0

    def record(self, what, errors):
        self.attempted += 1
        if errors:
            self.failed += 1
            for error in errors[: max(0, 5 - self.shown)]:
                print(f"check failed: {what}: {error}", file=sys.stderr)
            self.shown += len(errors)

    def fail_all(self, message):
        """A wrong digest or count condemns every operation it covers."""
        self.failed = self.attempted
        print(f"check failed: {message}", file=sys.stderr)


# ----------------------------------------------------------------- set-up

def import_gridjam():
    """Import gridjam afresh from SRC, so set-up time includes the import."""
    if not (SRC / "gridjam" / "__init__.py").is_file():
        raise BenchError(f"no gridjam package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "gridjam" or n.startswith("gridjam.")]:
        del sys.modules[name]
    gj = importlib.import_module("gridjam")
    importlib.import_module("gridjam.cli")
    importlib.import_module("gridjam.data")
    if not pathlib.Path(gj.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"gridjam was imported from {gj.__file__}, not from {SRC}")
    return gj


def suite_inputs(gj, seed):
    """Scenario paths for the suite CLI, and the outputs they must produce."""
    seeded = workloads.write_seeded_scenario(gj.data, seed, OUT / "inputs")
    paths = [gj.data.scenario_path(name) for name in workloads.BUNDLED] + [seeded]
    rows, svgs = 0, []
    for path in paths:
        scenario = gj.load_scenario(path)
        goals = workloads.routable_goals(scenario)
        rows += 2 * scenario.repeats * len(goals)
        svgs += [f"{scenario.name}-goal{i:02d}.svg" for i in goals] + [f"{scenario.name}-obstacles.svg"]
    return SimpleNamespace(args=[str(p) for p in paths], rows=rows, svgs=sorted(svgs))


def set_up(workload, seed, probe):
    """Import, generate inputs and load scenarios SETUP_REPEATS times.

    Returns the last set-up and the set-up times; `probe` samples the host
    before each one.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        probe.sample()
        t0 = time.perf_counter()
        gj = import_gridjam()
        if workload == "suite":
            inputs = suite_inputs(gj, seed)
        else:
            inputs = [workloads.attack_problem(gj, workload, seed, i) for i in range(FIXED_PROBLEMS)]
        times.append(time.perf_counter() - t0)
    return gj, inputs, times


# ------------------------------------------------------------- operations

def suite_pass(gj, inputs, out):
    """One `gridjam suite` invocation; returns (exit code, wall seconds, stdout)."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    argv = ["suite", *inputs.args, "--csv", str(out / "runs.csv"), "--svg-dir", str(out / "svg")]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        code = gj.cli.cli(argv)
        wall = time.perf_counter() - t0
    return code, wall, buf.getvalue()


def check_suite_pass(gj, inputs, out, code, stdout):
    """Check one pass's CSV and SVG files; returns errors, digest and counts."""
    errors = [] if code == 0 else [f"suite exited with code {code}"]
    csv_path, svg_dir = out / "runs.csv", out / "svg"
    try:
        rows = gj.read_csv(csv_path)
        csv_bytes = csv_path.read_bytes()
    except (OSError, ValueError) as exc:
        errors.append(f"cannot read the CSV back: {exc}")
        rows, csv_bytes = [], b""
    if len(rows) != inputs.rows:
        errors.append(f"CSV has {len(rows)} rows, expected {inputs.rows}")
    names = sorted(p.name for p in svg_dir.iterdir()) if svg_dir.is_dir() else []
    if names != inputs.svgs:
        errors.append("SVG files are not one per routable goal plus one overview per scenario")
    svgs = [(name, (svg_dir / name).read_bytes()) for name in names]
    return SimpleNamespace(
        errors=errors,
        digest=checks.suite_digest(stdout, csv_bytes, svgs),
        rows=len(rows),
        landed=sum(1 for r in rows if r["success"] is True),
        raced=sum(1 for r in rows if r["success"] is not None),
        svg_bytes=sum(len(data) for _, data in svgs),
    )


def recorded_attacks(rec):
    """(span, plan, errors) for every attack call a Recorder saw return."""
    sig = rec.signatures["attack.brute_force_attack"]
    out = []
    for span in rec.named("attack", "brute_force_attack"):
        if span.result is not None:
            problem = [span.arg(sig, key) for key in ("grid", "start", "goal", "side")]
            out.append((span, span.result, checks.plan_errors(span.result, *problem)))
    return out


def attack_once(gj, problem, tally, what):
    """Time one attack; returns (seconds, plan) or (None, None) if it raised."""
    t0 = time.perf_counter()
    try:
        plan = gj.brute_force_attack(*problem)
    except gj.GridJamError as exc:
        tally.record(what, [f"attack raised {exc!r}"])
        return None, None
    elapsed = time.perf_counter() - t0
    tally.record(what, checks.plan_errors(plan, *problem))
    return elapsed, plan


class Counts:
    """Exact candidate counts summed over plans."""

    def __init__(self):
        self.evaluated = self.zero = self.blocking = self.rounds = 0

    def add(self, plan):
        e, z, b, r = checks.plan_counts(plan)
        self.evaluated += e
        self.zero += z
        self.blocking += b
        self.rounds += r

    def shares(self):
        return {
            "zero_gain": (self.zero, self.evaluated, "evaluated candidates"),
            "blocking": (self.blocking, self.rounds, "planning rounds"),
        }


# ---------------------------------------------------------------- runs

def attack_metrics(latencies, slowdowns, rounds):
    """Attack metrics from each attack's seconds and the host slowdown around it."""
    fast = [latency / slowdown for latency, slowdown in zip(latencies, slowdowns)]
    busy = sum(fast)
    return {
        "runs_per_s": len(fast) / busy,
        "attack_ms_p50": statistics.median(fast) * 1e3,
        "attack_ms_p90": statistics.quantiles(fast, n=10)[8] * 1e3,
        "candidates_per_s": rounds / busy,
    }


def measure_attacks(gj, workload, seed, problems, seconds, tally, probe):
    """Attack fresh problems until `seconds` pass; each is timed on its own.

    Returns metrics corrected for the host's speed, the same metrics raw,
    notes, shares and the digest.
    """
    latencies, counts, digest = [], Counts(), hashlib.sha256()
    first = len(probe.samples)
    start = time.perf_counter()
    index = 0
    while index < max(FIXED_PROBLEMS, MIN_ATTACKS) or time.perf_counter() - start < seconds:
        if index < len(problems):
            problem = problems[index]
        else:
            problem = workloads.attack_problem(gj, workload, seed, index)
        elapsed, plan = attack_once(gj, problem, tally, f"problem {index}")
        probe.sample()
        latencies.append(elapsed)
        if plan is not None:
            counts.add(plan)
        if index < FIXED_PROBLEMS:
            digest.update(checks.plan_text(plan).encode() if plan is not None else b"error\n")
        index += 1
    timed = [(lat, s) for lat, s in zip(latencies, probe.local_slowdowns(first)) if lat is not None]
    metrics = attack_metrics([lat for lat, _ in timed], [s for _, s in timed], counts.rounds)
    raw = attack_metrics([lat for lat, _ in timed], [1.0] * len(timed), counts.rounds)
    notes = {"attack_ms_p50": f"n={len(timed)}", "attack_ms_p90": f"n={len(timed)}"}
    return metrics, raw, notes, counts.shares(), digest.hexdigest()


def measure_suite(gj, inputs, seconds, tally, probe):
    """Run the suite CLI until `seconds` pass, timing each attack inside it.

    The host is probed after each attack; the probes' time is taken out of
    the pass time, and each pass's rate is corrected by the pass's mean
    slowdown. Returns the same as measure_attacks.
    """
    timer = tracing.Recorder(only={"brute_force_attack"}, after=probe.sample)
    passes, latencies, slowdowns, counts, digests = [], [], [], Counts(), []
    landed = raced = 0
    start = time.perf_counter()
    timer.install()
    try:
        while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
            timer.spans.clear()
            first, probed = len(probe.samples), probe.spent
            code, wall, stdout = suite_pass(gj, inputs, OUT / "suite-pass")
            wall -= probe.spent - probed
            passes.append((first, len(probe.samples), wall))
            result = check_suite_pass(gj, inputs, OUT / "suite-pass", code, stdout)
            errors = list(result.errors)
            # one sample follows each attack call, in call order
            around = probe.local_slowdowns(first, len(probe.samples))
            for span, plan, plan_errors in recorded_attacks(timer):
                latencies.append(span.end - span.start)
                slowdowns.append(around[span.id])
                counts.add(plan)
                errors += plan_errors
            if digests and result.digest != digests[0]:
                errors.append("outputs differ from the first pass")
            tally.record(f"suite pass {len(digests)}", errors)
            digests.append(result.digest)
            landed += result.landed
            raced += result.raced
    finally:
        timer.uninstall()
    metrics = attack_metrics(latencies, slowdowns, counts.rounds)
    raw = attack_metrics(latencies, [1.0] * len(latencies), counts.rounds)
    raw["runs_per_s"] = statistics.median(result.rows / wall for _, _, wall in passes)
    metrics["runs_per_s"] = statistics.median(
        result.rows / wall * probe.slowdown(first, last) for first, last, wall in passes)
    notes = {
        "runs_per_s": f"median of {len(passes)} passes, {result.rows} rows each",
        "attack_ms_p50": f"n={len(latencies)}",
        "attack_ms_p90": f"n={len(latencies)}",
    }
    shares = {**counts.shares(), "landed": (landed, raced, "raced runs with a placement")}
    return metrics, raw, notes, shares, digests[0]


def replay(gj, workload, inputs, tally, rec):
    """One pass over the fixed share; returns (seconds, digest, svg bytes)."""
    if workload == "suite":
        code, wall, stdout = suite_pass(gj, inputs, OUT / "suite-pass")
        result = check_suite_pass(gj, inputs, OUT / "suite-pass", code, stdout)
        errors = list(result.errors)
        for _, _, plan_errors in recorded_attacks(rec) if rec is not None else ():
            errors += plan_errors
        tally.record("suite pass", errors)
        return wall, result.digest, result.svg_bytes
    wall, digest = 0.0, hashlib.sha256()
    for index, problem in enumerate(inputs):
        if rec is not None:
            rec.op = index
        elapsed, plan = attack_once(gj, problem, tally, f"problem {index}")
        wall += elapsed or 0.0
        digest.update(checks.plan_text(plan).encode() if plan is not None else b"error\n")
    return wall, digest.hexdigest(), 0


def measure_layers(gj, workload, seed, inputs, seconds, tally):
    """Alternate untraced and traced passes over the fixed share until `seconds` pass."""
    untraced, traced, passes, digests = [], [], [], []
    rec = None
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        wall, digest, _ = replay(gj, workload, inputs, tally, None)
        untraced.append(wall)
        digests.append(digest)
        rec = tracing.Recorder()
        rec.install()
        try:
            wall, digest, svg_bytes = replay(gj, workload, inputs, tally, rec)
        finally:
            rec.uninstall()
        traced.append(wall)
        digests.append(digest)
        metrics, shares = tracing.layer_metrics(rec)
        metrics["svgrender.bytes"] = svg_bytes
        passes.append(metrics)
    if len(set(digests)) != 1:
        tally.fail_all("outputs differ between passes over the same inputs")
    counts = [{k: v for k, v in m.items() if isinstance(v, int)} for m in passes]
    if any(c != counts[0] for c in counts):
        tally.fail_all("work counts differ between traced passes over the same inputs")
    metrics = {name: statistics.median(m[name] for m in passes) for name in passes[0]}
    metrics["trace_overhead_pct"] = 100.0 * (statistics.median(traced) / statistics.median(untraced) - 1.0)
    spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl"
    spans_path.write_text(rec.jsonl())
    notes = {"trace_overhead_pct": f"{len(traced)} traced and {len(untraced)} untraced passes"}
    return metrics, notes, shares, digests[0], spans_path


def reference_digest(workload, seed):
    table = json.loads((HERE / "digests.json").read_text())
    return table.get(workload, {}).get(str(seed))


def run(workload, seed, seconds, traced):
    probe = hostspeed.SpeedProbe()
    gj, inputs, setup_times = set_up(workload, seed, probe)
    setup_samples = len(probe.samples)
    tally = Tally()
    spans_path = None
    if traced:
        metrics, notes, shares, digest, spans_path = measure_layers(gj, workload, seed, inputs, seconds, tally)
        units = PER_LAYER
    else:
        if workload == "suite":
            metrics, raw, notes, shares, digest = measure_suite(gj, inputs, seconds, tally, probe)
        else:
            metrics, raw, notes, shares, digest = measure_attacks(gj, workload, seed, inputs, seconds, tally, probe)
        raw["setup_s"] = statistics.median(setup_times)
        metrics["setup_s"] = raw["setup_s"] / probe.slowdown(last=setup_samples)
        for name, value in raw.items():
            notes[name] = ", ".join(filter(None, [notes.get(name), f"raw {value:.6g}"]))
        notes["setup_s"] = f"median of {SETUP_REPEATS} set-ups, " + notes["setup_s"]
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END
    reference = reference_digest(workload, seed)
    if reference is not None and digest != reference:
        tally.fail_all(f"digest {digest} differs from the reference {reference}")
    shutil.rmtree(OUT / "suite-pass", ignore_errors=True)
    shutil.rmtree(OUT / "inputs", ignore_errors=True)

    print(f"workload={workload} seed={seed} seconds={seconds} trace={int(traced)}")
    if not traced:
        print(f"  host slowdown = {probe.slowdown(first=setup_samples):.4g} over the run, "
              f"{probe.slowdown(last=setup_samples):.4g} over set-up (see hostspeed.py)")
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name} = {metrics[name]:.6g} {unit}{note}")
    for name, (part, base, what) in shares.items():
        print(f"  share {name} = {part}/{base} {what}")
    status = "no reference for this seed" if reference is None else (
        "matches the reference" if digest == reference else "DIFFERS from the reference")
    print(f"  digest = {digest} ({status})")
    if spans_path is not None:
        print(f"  spans = {spans_path}")
    rate = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"  error_rate = {rate:.6g} ({tally.failed} of {tally.attempted} operations failed)")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def run_all(seed, seconds):
    """Every workload untraced and traced, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for traced in (0, 1):
            argv = [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(traced)]
            proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                raise BenchError(f"{workload} trace={traced} exited with code {proc.returncode}")
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                combined["metrics"][f"{workload}/{name}"] = metric
    return combined


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        OUT.mkdir(exist_ok=True)
        if args.workload == "all":
            result = run_all(args.seed, args.seconds)
        else:
            result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
