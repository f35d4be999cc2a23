"""tools/request_digest.py: one SHA-1 per benchmark request, and the diff of two such outputs."""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def request_digest():
    """The tool, loaded without leaving its src/ and perfbench/ entries on sys.path."""
    saved = sys.path[:]
    spec = importlib.util.spec_from_file_location("request_digest", ROOT / "tools" / "request_digest.py")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


def test_one_line_per_request_and_the_diff(request_digest, tmp_path, capsys):
    lines = request_digest.digest_lines([3], 0.05)
    expected = [(w, i, " ".join(r.argv))
                for w in request_digest.WORKLOADS for i, r in enumerate(request_digest.requests_for(w, 3, 0.05))]
    assert [(w, int(i), argv) for w, _, i, _, argv in (line.split("\t") for line in lines)] == expected
    assert all(re.fullmatch(r"[0-9a-f]{40}", line.split("\t")[3]) for line in lines)

    # a changed digest and a missing request are both reported, and nothing else
    changed = lines[1].split("\t")
    changed[3] = "0" * 40
    changed = "\t".join(changed)
    other = [lines[0], changed, *lines[3:]]
    report = [f"this tree: {lines[1]}\nagainst:   {changed}", f"this tree: {lines[2]}\nagainst:   (missing)"]
    assert request_digest.differences(lines, other) == report

    # a second run of the same tree repeats every other digest, and exits 1 on the two
    (tmp_path / "other.txt").write_text("\n".join(other) + "\n")
    capsys.readouterr()
    assert request_digest.main(["--seeds", "3", "--scale", "0.05", "--against", str(tmp_path / "other.txt")]) == 1
    assert capsys.readouterr().out == "\n".join(report) + "\n"
