"""Seeded input generation for the three benchmark workloads.

Everything here is derived from the workload seed alone, so one seed always
yields the same maps, endpoints and scenario files. The program under test
only ever sees the results: `GridMap`s, `Cell`s and scenario files.
"""

import random
from collections import deque

# The bundled scenarios the `suite` workload passes to the CLI by name.
BUNDLED = ("branch", "corridor", "tunnel", "turn", "twall", "warehouse")
SEEDED_NAME = "seeded"
SEEDED_GOALS = 23
# The seeded start lies within this many cells of the map centre. How much
# an attack costs depends mostly on the start, so a start anywhere on the map
# would make a seed's suite time vary far more than the timing noise.
START_WINDOW = 4

# Attack workloads: obstacle side and the minimum Manhattan distance between
# start and goal, so every route is long enough to give the attack real work.
ATTACK_SIDE = {"attack-rooms": 3, "attack-mazes": 1}
MIN_MANHATTAN = 24


def reachable(rows, start):
    """Free cells 4-connected to `start`: {(col, row): orthogonal steps}.

    Without corner cutting every diagonal step can be replaced by two
    orthogonal ones, so this is also the planner's reachable set.
    """
    height, width = len(rows), len(rows[0])
    steps = {start: 0}
    queue = deque([start])
    while queue:
        col, row = queue.popleft()
        for dc, dr in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nxt = (col + dc, row + dr)
            if 0 <= nxt[0] < width and 0 <= nxt[1] < height and not rows[nxt[1]][nxt[0]] and nxt not in steps:
                steps[nxt] = steps[(col, row)] + 1
                queue.append(nxt)
    return steps


def _rooms(rng, width=40, height=30, blocks=14):
    """An open room with a wall border and random rectangular blocks."""
    rows = [[col in (0, width - 1) or row in (0, height - 1) for col in range(width)] for row in range(height)]
    for _ in range(blocks):
        bw, bh = rng.randint(2, 6), rng.randint(2, 5)
        c0, r0 = rng.randint(2, width - bw - 2), rng.randint(2, height - bh - 2)
        for row in range(r0, r0 + bh):
            for col in range(c0, c0 + bw):
                rows[row][col] = True
    return rows


def _maze(rng, cells_wide=16, cells_high=12, open_share=0.08):
    """Recursive-backtracker maze (33x25 grid) with a share of inner walls opened."""
    width, height = 2 * cells_wide + 1, 2 * cells_high + 1
    rows = [[True] * width for _ in range(height)]
    rows[1][1] = False
    stack = [(0, 0)]
    seen = {(0, 0)}
    while stack:
        x, y = stack[-1]
        options = [
            (x + dx, y + dy)
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))
            if 0 <= x + dx < cells_wide and 0 <= y + dy < cells_high and (x + dx, y + dy) not in seen
        ]
        if not options:
            stack.pop()
            continue
        nx, ny = rng.choice(options)
        rows[y + ny + 1][x + nx + 1] = False  # the wall between the two cells
        rows[2 * ny + 1][2 * nx + 1] = False
        seen.add((nx, ny))
        stack.append((nx, ny))
    walls = [
        (col, row)
        for row in range(1, height - 1)
        for col in range(1, width - 1)
        if rows[row][col] and (row % 2 == 1) != (col % 2 == 1)
    ]
    for col, row in rng.sample(walls, int(open_share * len(walls))):
        rows[row][col] = False
    return rows


def map_text(rows):
    return "".join("".join("#" if occ else "." for occ in row) + "\n" for row in rows)


def attack_problem(gj, workload, seed, index):
    """Problem `index` of an attack workload: (grid, start, goal, side).

    Each index has its own generator, so a problem does not depend on how
    many were generated before it.
    """
    rng = random.Random(f"{workload}/{seed}/{index}")
    make = _rooms if workload == "attack-rooms" else _maze
    while True:
        rows = make(rng)
        free = [(col, row) for row in range(len(rows)) for col in range(len(rows[0])) if not rows[row][col]]
        start = rng.choice(free)
        far = sorted(
            cell for cell in reachable(rows, start)
            if abs(cell[0] - start[0]) + abs(cell[1] - start[1]) >= MIN_MANHATTAN
        )
        if far:
            goal = rng.choice(far)
            grid = gj.parse_map(map_text(rows))
            return grid, gj.Cell(*start), gj.Cell(*goal), ATTACK_SIDE[workload]


def write_seeded_scenario(data, seed, out_dir):
    """Write a seeded scenario on the bundled warehouse map; return its path.

    Start and goals are distinct free cells reachable from the start, so
    every goal is routable. The reachable cells are sorted by their distance
    from the start and cut into SEEDED_GOALS equal bands, one goal per band,
    so that every seed gets near and far goals in the same proportion.
    """
    text = data.map_path("warehouse").read_text()
    rows = [[ch == "#" for ch in line] for line in text.splitlines()]
    rng = random.Random(f"suite/{seed}")
    height, width = len(rows), len(rows[0])
    free = sorted(
        (col, row) for row in range(height) for col in range(width)
        if not rows[row][col] and abs(2 * col - width) <= 2 * START_WINDOW and abs(2 * row - height) <= 2 * START_WINDOW
    )
    while True:
        start = rng.choice(free)
        steps = reachable(rows, start)
        del steps[start]
        if len(steps) >= SEEDED_GOALS:
            break
    by_distance = sorted(steps, key=lambda cell: (steps[cell], cell))
    bands = [by_distance[len(by_distance) * i // SEEDED_GOALS:len(by_distance) * (i + 1) // SEEDED_GOALS]
             for i in range(SEEDED_GOALS)]
    goals = [rng.choice(band) for band in bands]
    lines = [
        f"name = {SEEDED_NAME}",
        "map = warehouse.txt",
        "cell_size = 0.5",
        "speed = 0.5",
        f"start = {start[0]},{start[1]}",
        *(f"goal = {col},{row}" for col, row in goals),
        "obstacle_side = 3",
        "eval_time_per_candidate = 0.05",
        "repeats = 3",
    ]
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "warehouse.txt").write_text(text)
    path = out_dir / f"{SEEDED_NAME}.scn"
    path.write_text("\n".join(lines) + "\n")
    return path


def routable_goals(scenario):
    """1-based indices of the scenario's goals reachable from its start."""
    rows = scenario.grid.rows
    reach = reachable(rows, (scenario.start.col, scenario.start.row))
    return [i for i, goal in enumerate(scenario.goals, start=1) if (goal.col, goal.row) in reach]
