"""Golden output of `gridjam suite` over every bundled scenario.

Criterion 8 compares two runs of the same code, so it cannot see an output
change between versions. This digest pins the bytes themselves: the suite's
stdout, its CSV, and every SVG (by name and content). A change that alters
any of them must update the digest on purpose.
"""

import contextlib
import hashlib
import io

from gridjam.cli import cli
from gridjam.data import scenario_names

SUITE_SHA256 = "59a639c0cdf15b625be28e26dbfa896c0bb622d47729705df6fee3f6cbf3205a"


def test_suite_outputs_match_golden_digest(tmp_path):
    csv_path = tmp_path / "runs.csv"
    svg_dir = tmp_path / "svg"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli(["suite", *scenario_names(), "--csv", str(csv_path), "--svg-dir", str(svg_dir)])
    assert code == 0
    digest = hashlib.sha256()
    digest.update(stdout.getvalue().encode())
    digest.update(b"\0csv\0" + csv_path.read_bytes())
    for path in sorted(svg_dir.iterdir()):
        digest.update(b"\0" + path.name.encode() + b"\0" + path.read_bytes())
    assert digest.hexdigest() == SUITE_SHA256
