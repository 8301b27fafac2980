"""Deterministic SVG renders of maps, routes, and obstacle placements.

Output is assembled from fixed templates in a fixed order, so identical
inputs produce byte-identical files and renders can be golden-file tested.
"""

from pathlib import Path

PX = 16  # pixels per cell

_STYLE = (
    "<style>\n"
    ".free{fill:#f4f2ee;}\n"
    ".occupied{fill:#3b3b3b;}\n"
    ".obstacle{fill:#8c8c8c;stroke:#5a5a5a;stroke-width:1;}\n"
    ".baseline{fill:none;stroke:#2166ac;stroke-width:3;}\n"
    ".attacked{fill:none;stroke:#d6604d;stroke-width:3;stroke-dasharray:7 4;}\n"
    ".start{fill:#1a9641;}\n"
    ".goal{fill:none;stroke:#d73027;stroke-width:3;}\n"
    "</style>"
)


def render_svg(grid, plan, out_path):
    """Draw the map with an AttackPlan's baseline route and, when it has a winner, its attack."""
    _write(out_path, _map_head(grid), _route_lines(grid, plan))


def render_scenario_svgs(scenario, plans, out_dir):
    """Render one attacked view per goal plus a placement overview.

    `plans` holds one AttackPlan per scenario goal, None for a goal that was
    skipped, as run_suite's summary does; nothing is planned here, and the
    map layer is drawn once for every file. Returns the written paths in
    order.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    grid = scenario.grid
    head = _map_head(grid)
    written = []
    placements = []
    for index, plan in enumerate(plans, start=1):
        if plan is None:
            continue
        path = out / f"{scenario.name}-goal{index:02d}.svg"
        _write(path, head, _route_lines(grid, plan))
        if plan.best is not None:
            placements.append(plan.best)
        written.append(path)
    overview = out / f"{scenario.name}-obstacles.svg"
    _write(overview, head, _positions_lines(grid, placements, scenario.start, scenario.goals))
    written.append(overview)
    return written


def _map_head(grid):
    """The document's opening and the map layer, one line each, newline-terminated."""
    w = grid.width * PX
    h = grid.height * PX
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}">',
        _STYLE,
        f'<rect class="free" x="0" y="0" width="{w}" height="{h}"/>',
        '<g class="cells">',
    ]
    for row in range(grid.height):
        for col in range(grid.width):
            if grid.rows[row][col]:
                lines.append(
                    f'<rect class="occupied" x="{col * PX}" y="{row * PX}" '
                    f'width="{PX}" height="{PX}"/>'
                )
    lines.append("</g>")
    return "\n".join(lines) + "\n"


def _route_lines(grid, plan):
    """The layers over the map for one plan's baseline and, when it has a winner, its attack."""
    lines = _overlay(grid, [plan.best]) if plan.best is not None else []
    lines.append(f'<polyline class="baseline" points="{_points(plan.baseline.cells)}"/>')
    if plan.attacked_path is not None:
        lines.append(f'<polyline class="attacked" points="{_points(plan.attacked_path.cells)}"/>')
    lines.append(_marker("start", plan.baseline.cells[0]))
    lines.append(_marker("goal", plan.baseline.cells[-1]))
    lines.append("</svg>")
    return lines


def _positions_lines(grid, placements, start, goals):
    """The layers over the map for a placement overview."""
    lines = _overlay(grid, placements)
    for goal in goals:
        lines.append(_marker("goal", goal))
    lines.append(_marker("start", start))
    lines.append("</svg>")
    return lines


def _overlay(grid, placements):
    """The overlay group: each placement's square, clipped at the border, row by row."""
    lines = ['<g class="overlay">']
    for placement in placements:
        cols, rows = placement.extent(grid)
        lines.extend(
            f'<rect class="obstacle" x="{col * PX}" y="{row * PX}" width="{PX}" height="{PX}"/>'
            for row in rows
            for col in cols
        )
    lines.append("</g>")
    return lines


def _points(cells):
    return " ".join(f"{c.col * PX + PX // 2},{c.row * PX + PX // 2}" for c in cells)


def _marker(kind, cell):
    cx = cell.col * PX + PX // 2
    cy = cell.row * PX + PX // 2
    return f'<circle class="{kind}" cx="{cx}" cy="{cy}" r="{PX // 3}"/>'


def _write(out_path, head, lines):
    with open(out_path, "w", newline="") as fh:
        fh.write(head + "\n".join(lines) + "\n")
