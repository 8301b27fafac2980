"""Spans around gridjam's public functions, and the per-layer metrics.

A `Recorder` wraps every public function of the layer modules at every
module that binds it by name: `astar` is wrapped in `planner`, `attack`,
`sim`, `cli` and the package namespace, and the binding a call went
through names its caller ("bench" for the benchmark's own calls). Spans keep a parent link, so a layer's self time
is its spans' durations minus the time their child spans cover. Spans stay
in memory until the traced pass ends.
"""

import inspect
import json
import statistics
import sys
import time

import checks

LAYERS = ("cli", "scenario", "harness", "sim", "attack", "planner", "gridmap", "svgrender")
# Modules that may call the planner; each gets a planner.calls.<caller> metric.
PLANNER_CALLERS = ("attack", "sim", "harness", "svgrender", "cli")


class Span:
    __slots__ = ("id", "layer", "name", "caller", "start", "end", "parent", "op", "args", "kwargs", "result", "error")

    def __init__(self, id, layer, name, caller, parent, op, args, kwargs):
        self.id, self.layer, self.name, self.caller = id, layer, name, caller
        self.parent, self.op, self.args, self.kwargs = parent, op, args, kwargs
        self.start = self.end = 0.0
        self.result = self.error = None

    def arg(self, signature, name):
        bound = signature.bind(*self.args, **self.kwargs)
        bound.apply_defaults()
        return bound.arguments[name]


class Recorder:
    """Installs span-recording wrappers.

    `only` restricts them to some function names; `after` is called after
    every wrapped call, outside its span.
    """

    def __init__(self, only=None, after=None):
        self.only = only
        self.after = after
        self.spans = []
        self.op = 0
        self.signatures = {}
        self._stack = []
        self._patches = []

    def install(self):
        modules = {
            name.rpartition(".")[2]: module
            for name, module in list(sys.modules.items())
            if name == "gridjam" or name.startswith("gridjam.")
        }
        targets = {}
        for layer in LAYERS:
            module = modules[layer]
            for name, fn in vars(module).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and not name.startswith("_")
                    and (self.only is None or name in self.only)
                ):
                    targets[id(fn)] = (layer, name, fn)
                    self.signatures[f"{layer}.{name}"] = inspect.signature(fn)
        for caller, module in modules.items():
            for attr, value in list(vars(module).items()):
                target = targets.get(id(value))
                if target is not None and value is target[2]:
                    setattr(module, attr, self._wrap(*target, caller))
                    self._patches.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def _wrap(self, layer, name, fn, caller):
        spans, stack, clock, after = self.spans, self._stack, time.perf_counter, self.after

        def wrapper(*args, **kwargs):
            parent = stack[-1].id if stack else None
            span = Span(len(spans), layer, name, caller if stack else "bench", parent, self.op, args, kwargs)
            spans.append(span)
            stack.append(span)
            span.start = clock()
            try:
                span.result = fn(*args, **kwargs)
                span.end = clock()
                return span.result
            except BaseException as exc:
                span.end = clock()
                span.error = type(exc).__name__
                raise
            finally:
                stack.pop()
                if after is not None:
                    after()

        wrapper.__wrapped__ = fn
        return wrapper

    def named(self, layer, name):
        return [s for s in self.spans if s.layer == layer and s.name == name]

    def jsonl(self):
        """The spans as JSON lines: id, op, name, caller, start, end, parent."""
        t0 = self.spans[0].start if self.spans else 0.0
        return "".join(
            json.dumps({
                "id": s.id, "op": s.op, "name": f"{s.layer}.{s.name}", "caller": s.caller,
                "start": s.start - t0, "end": s.end - t0, "parent": s.parent,
            }) + "\n"
            for s in self.spans
        )


def _ratio(part, whole):
    return part / whole if whole else 0.0


def _quantile(values, index):
    """statistics.quantiles decile `index` (9 = p90), or the lone value."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[index - 1]


def layer_metrics(rec):
    """Per-layer metrics of one traced pass, plus the exact counts behind each share."""
    spans = rec.spans
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    self_s = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        self_s[s.layer] += (s.end - s.start) - covered[s.id]

    def total(layer, name):
        return sum(s.end - s.start for s in rec.named(layer, name))

    m = {}
    astar = rec.named("planner", "astar")
    sig = rec.signatures.get("planner.astar")
    planner_keys = {hash((s.arg(sig, "grid").rows, s.arg(sig, "start"), s.arg(sig, "goal"))) for s in astar}
    call_us = [(s.end - s.start) * 1e6 for s in astar]
    m["planner.calls"] = len(astar)
    m["planner.distinct_ratio"] = _ratio(len(planner_keys), len(astar))
    for caller in PLANNER_CALLERS:
        m[f"planner.calls.{caller}"] = sum(1 for s in astar if s.caller == caller)
    m["planner.busy_s"] = total("planner", "astar")
    m["planner.call_us_p50"] = statistics.median(call_us) if call_us else 0.0
    m["planner.call_us_p90"] = _quantile(call_us, 9)
    m["planner.noroute_calls"] = sum(1 for s in astar if s.error == "NoPathError")

    attacks = rec.named("attack", "brute_force_attack")
    sig = rec.signatures.get("attack.brute_force_attack")
    attack_keys = {
        hash((s.arg(sig, "grid").rows, s.arg(sig, "start"), s.arg(sig, "goal"), s.arg(sig, "side")))
        for s in attacks
    }
    evaluated = zero = blocking = rounds = 0
    for s in attacks:
        if s.result is not None:
            e, z, b, r = checks.plan_counts(s.result)
            evaluated, zero, blocking, rounds = evaluated + e, zero + z, blocking + b, rounds + r
    m["attack.calls"] = len(attacks)
    m["attack.distinct_ratio"] = _ratio(len(attack_keys), len(attacks))
    m["attack.self_s"] = self_s["attack"]
    m["attack.rounds"] = rounds
    m["attack.zero_gain_ratio"] = _ratio(zero, evaluated)
    m["attack.blocking_ratio"] = _ratio(blocking, rounds)

    m["gridmap.apply_obstacle_calls"] = len(rec.named("gridmap", "apply_obstacle"))
    m["gridmap.apply_obstacle_s"] = total("gridmap", "apply_obstacle")

    sims = rec.named("sim", "simulate")
    sig = rec.signatures.get("sim.simulate")
    sim_grids = {s.id: s.arg(sig, "grid") for s in sims}
    astar_sig = rec.signatures.get("planner.astar")
    replans = sum(
        1 for s in astar if s.parent in sim_grids and s.arg(astar_sig, "grid") != sim_grids[s.parent]
    )
    raced = [s.result for s in sims if s.result is not None and s.result.attack_success is not None]
    landed = sum(1 for r in raced if r.attack_success)
    m["sim.calls"] = len(sims)
    m["sim.self_s"] = self_s["sim"]
    m["sim.replan_calls"] = replans
    m["sim.landed_ratio"] = _ratio(landed, len(raced))

    m["harness.self_s"] = self_s["harness"]
    m["harness.write_csv_s"] = total("harness", "write_csv")
    m["svgrender.self_s"] = self_s["svgrender"]
    m["cli.self_s"] = self_s["cli"]
    m["scenario.load_s"] = total("scenario", "load_scenario")

    shares = {
        "zero_gain": (zero, evaluated, "evaluated candidates"),
        "blocking": (blocking, rounds, "planning rounds"),
        "distinct_attack_problems": (len(attack_keys), len(attacks), "attack calls"),
        "distinct_planner_problems": (len(planner_keys), len(astar), "planner calls"),
        "landed": (landed, len(raced), "raced runs with a placement"),
    }
    return m, shares
