"""Output checks and digests. Nothing here runs inside a timed region.

The checks re-derive what a correct answer must satisfy from the inputs
alone, without calling the planner or the attack: path geometry and cost,
and the ledger rules documented in `gridjam.attack`.
"""

import hashlib
import math

SQRT2 = math.sqrt(2.0)
# An improvement must beat the running best by more than this, as the
# attack documents; costs are exact k + m*sqrt(2) sums, so real ties are equal.
COST_TOL = 1e-9


def footprint(center, side, width, height):
    """In-bounds (col, row) cells of a square obstacle."""
    r = side // 2
    return {
        (col, row)
        for row in range(max(0, center.row - r), min(height, center.row + r + 1))
        for col in range(max(0, center.col - r), min(width, center.col + r + 1))
    }


def _same(a, b):
    """Bitwise float equality."""
    return isinstance(a, float) and isinstance(b, float) and a.hex() == b.hex()


def path_errors(path, rows, start, goal, blocked=frozenset()):
    """Problems with one route on occupancy `rows` plus the `blocked` cells."""
    height, width = len(rows), len(rows[0])

    def free(col, row):
        return 0 <= col < width and 0 <= row < height and not rows[row][col] and (col, row) not in blocked

    cells = path.cells
    if not cells or cells[0] != start or cells[-1] != goal:
        return [f"path does not run from {start} to {goal}"]
    errors = [f"path cell {c} is not free" for c in cells if not free(c.col, c.row)]
    orth = diag = 0
    for a, b in zip(cells, cells[1:]):
        dc, dr = b.col - a.col, b.row - a.row
        if max(abs(dc), abs(dr)) != 1:
            errors.append(f"step {a} -> {b} is not 8-adjacent")
        elif dc and dr:
            diag += 1
            if not (free(b.col, a.row) and free(a.col, b.row)):
                errors.append(f"step {a} -> {b} cuts a corner")
        else:
            orth += 1
    if not _same(path.cost, orth + diag * SQRT2):
        errors.append(f"path cost {path.cost!r} is not {orth} + {diag}*sqrt(2)")
    return errors


def plan_errors(plan, grid, start, goal, side):
    """Problems with one AttackPlan for the problem (grid, start, goal, side)."""
    rows = grid.rows
    height, width = len(rows), len(rows[0])
    baseline = plan.baseline
    errors = path_errors(baseline, rows, start, goal)
    if len(plan.ledger) != len(baseline.cells):
        errors.append(f"ledger has {len(plan.ledger)} entries for {len(baseline.cells)} baseline cells")
    best_index, best_cost = None, baseline.cost
    ends = {(start.col, start.row), (goal.col, goal.row)}
    for index, (entry, cell) in enumerate(zip(plan.ledger, baseline.cells)):
        if entry.index != index or entry.placement.center != cell or entry.placement.side != side:
            errors.append(f"ledger entry {index} does not describe baseline cell {cell}")
        buried = bool(ends & footprint(cell, side, width, height))
        outcome = entry.outcome.value
        if buried != (outcome == "infeasible"):
            errors.append(f"ledger entry {index} is {outcome} but buried={buried}")
        if outcome == "evaluated":
            if not isinstance(entry.cost, float) or not entry.cost >= baseline.cost:
                errors.append(f"ledger entry {index} cost {entry.cost!r} is below the baseline")
            elif entry.cost > best_cost + COST_TOL:
                best_index, best_cost = index, entry.cost
        elif entry.cost is not None:
            errors.append(f"ledger entry {index} is {outcome} but carries a cost")
    if best_index is None:
        if plan.best is not None or plan.attacked_path is not None or not _same(plan.gain, 0.0):
            errors.append("no candidate gains, but the plan names a best placement or a gain")
        return errors
    if plan.best != plan.ledger[best_index].placement:
        errors.append(f"best is not the first strict maximum (ledger entry {best_index})")
    elif plan.attacked_path is None or not _same(plan.attacked_path.cost, best_cost):
        errors.append("attacked path cost differs from the best ledger cost")
    else:
        if not _same(plan.gain, best_cost - baseline.cost):
            errors.append(f"gain {plan.gain!r} is not {best_cost!r} - {baseline.cost!r}")
        blocked = footprint(plan.best.center, side, width, height)
        errors += [f"attacked {e}" for e in path_errors(plan.attacked_path, rows, start, goal, blocked)]
    return errors


def plan_text(plan):
    """Canonical text of a plan's ledger and routes, for digests."""
    lines = [
        "baseline " + " ".join(map(str, plan.baseline.cells)),
        f"baseline_cost {plan.baseline.cost!r}",
    ]
    for entry in plan.ledger:
        lines.append(
            f"{entry.index} {entry.placement.center} {entry.placement.side} {entry.outcome.value} {entry.cost!r}"
        )
    best = plan.best.center if plan.best is not None else None
    lines.append(f"best {best} gain {plan.gain!r}")
    if plan.attacked_path is not None:
        lines.append("attacked " + " ".join(map(str, plan.attacked_path.cells)))
    return "\n".join(lines) + "\n"


def plan_counts(plan):
    """(evaluated, zero_gain, blocking, rounds) for one plan."""
    evaluated = zero = blocking = 0
    for entry in plan.ledger:
        outcome = entry.outcome.value
        if outcome == "evaluated":
            evaluated += 1
            zero += entry.cost == plan.baseline.cost
        elif outcome == "blocking":
            blocking += 1
    return evaluated, zero, blocking, evaluated + blocking


def suite_digest(stdout, csv_bytes, svgs):
    """sha256 over the CLI's stdout, the CSV and every SVG (name and bytes)."""
    digest = hashlib.sha256()
    digest.update(stdout.encode())
    digest.update(b"\0csv\0" + csv_bytes)
    for name, data in svgs:
        digest.update(b"\0" + name.encode() + b"\0" + data)
    return digest.hexdigest()
